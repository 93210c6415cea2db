// tlbbench: host-speed benchmark of the simulator, one workload per run.
//
//   tlbbench --workload {fsync_storm,mmap_serve,walk_sweep} [--seed N]
//            [--seconds S] [--trace 0|1] [--golden FILE] [--trace-out FILE]
//   tlbbench --workload W --print-digests     # golden lines for --seed
//
// Closed loop, one client: ops (see ops.h) run back to back on this thread
// for --seconds. Ops cycle through a pool of kPoolSize op seeds drawn from
// --seed, so every op's digest is checked: against the committed golden file
// for the default seed, and against the pool entry's first run otherwise.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// ones (snapshot counts, layer probes, host-time split, tlbcheck and sweep
// overheads) and writes the recorded spans to --trace-out. The last stdout
// line is {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/calib.h"
#include "perfbench/ops.h"
#include "perfbench/probes.h"
#include "perfbench/spans.h"
#include "src/check/check_context.h"
#include "src/core/system.h"
#include "src/exec/sweep.h"
#include "src/sim/json.h"
#include "src/sim/stats.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using tlbsim::Json;

constexpr uint64_t kDefaultSeed = 1;  // the seed the golden digests are for
constexpr size_t kPoolSize = 32;      // distinct op seeds per run
// Set-up repeats for at least kSetupRounds rounds and kSetupSeconds, and
// setup_s is the median round: host slowdowns come in bursts of a few hundred
// milliseconds, and a median over a few rounds would land inside one.
constexpr int kSetupRounds = 7;
constexpr double kSetupSeconds = 2.0;
constexpr size_t kCheckSampleOps = 4; // ops timed with tlbcheck off and on

const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Args {
  Workload workload = Workload::kFsyncStorm;
  bool have_workload = false;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool print_digests = false;
  std::string golden;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "tlbbench: %s\n"
               "usage: tlbbench --workload {fsync_storm,mmap_serve,walk_sweep} [--seed N]"
               " [--seconds S] [--trace 0|1] [--golden FILE] [--trace-out FILE]"
               " [--print-digests]\n",
               error.c_str());
  std::exit(2);
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 20 || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return errno == 0;  // ERANGE above 2^64 - 1
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--print-digests") {
      a.print_digests = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(arg + " needs a value");
    }
    std::string v = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      if (!ParseWorkload(v, &a.workload)) {
        Usage("unknown workload '" + v + "'");
      }
      a.have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseU64(v, &a.seed)) {
        Usage("bad --seed '" + v + "'");
      }
    } else if (arg == "--seconds") {
      if (!ParseU64(v, &n) || n < 1 || n > 3600) {
        Usage("bad --seconds '" + v + "' (whole seconds, 1..3600)");
      }
      a.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") {
        Usage("--trace takes 0 or 1");
      }
      a.trace = v == "1";
    } else if (arg == "--golden") {
      a.golden = v;
    } else if (arg == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage("unknown argument '" + arg + "'");
    }
  }
  if (!a.have_workload) {
    Usage("--workload is required");
  }
  return a;
}

// The run's inputs: kPoolSize op seeds drawn from the workload seed.
std::vector<uint64_t> OpSeeds(uint64_t seed) {
  SplitMix rng(seed);
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < kPoolSize; ++i) {
    seeds.push_back(rng.Next());
  }
  return seeds;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Golden file lines: "<workload> <pool index> <op seed> <digest hex>".
// Returns the digests of `w`'s pool, or an error message.
std::optional<std::string> LoadGolden(const std::string& path, Workload w,
                                      const std::vector<uint64_t>& seeds,
                                      std::vector<std::optional<uint64_t>>* expected) {
  std::ifstream in(path);
  if (!in) {
    return "cannot read golden file '" + path + "'";
  }
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    size_t index = 0;
    uint64_t seed = 0;
    std::string digest;
    if (!(fields >> name >> index >> seed >> digest) || name != WorkloadName(w)) {
      continue;
    }
    if (index >= seeds.size() || seeds[index] != seed) {
      return "golden entry " + std::to_string(index) + " does not match this run's op seeds";
    }
    char* end = nullptr;
    uint64_t value = std::strtoull(digest.c_str(), &end, 16);
    if (digest.size() != 16 || *end != '\0') {
      return "malformed golden digest '" + digest + "'";
    }
    (*expected)[index] = value;
  }
  for (size_t i = 0; i < expected->size(); ++i) {
    if (!(*expected)[i]) {
      return "golden file '" + path + "' has no digest for " + WorkloadName(w) + " op " +
             std::to_string(i);
    }
  }
  return std::nullopt;
}

struct HostInfo {
  int nproc = 1;
  double loadavg_1m = 0.0;
};

HostInfo ReadHost() {
  HostInfo h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    h.nproc = std::max(1, CPU_COUNT(&set));
  }
  double load[1] = {0.0};
  if (getloadavg(load, 1) == 1) {
    h.loadavg_1m = load[0];
  }
  return h;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Everything known about the run's pool of op seeds, and the tally of the
// ops run so far.
class OpLedger {
 public:
  OpLedger(Workload w, std::vector<uint64_t> seeds) : w_(w), seeds_(std::move(seeds)) {
    expected_.resize(seeds_.size());
    counts_.resize(seeds_.size());
  }

  std::vector<std::optional<uint64_t>>* expected() { return &expected_; }
  uint64_t seed(size_t index) const { return seeds_[index]; }

  // Runs pool entry `index` and checks it. Returns false on a failed op.
  bool Run(size_t index, SpanRecorder* spans, int64_t op_id, OpResult* out = nullptr) {
    OpResult r = RunOp(w_, seeds_[index], spans, op_id);
    bool good = Check(index, r);
    if (out != nullptr) {
      *out = std::move(r);
    }
    return good;
  }

  bool Check(size_t index, const OpResult& r) {
    if (!r.ok) {
      Fail(index, r.error);
      return false;
    }
    if (!counts_[index]) {
      counts_[index] = r.counts;
    }
    if (!expected_[index]) {
      expected_[index] = r.digest;
    } else if (*expected_[index] != r.digest) {
      Fail(index, "digest " + Hex(r.digest) + " != expected " + Hex(*expected_[index]));
      return false;
    }
    return true;
  }

  const std::optional<Counts>& counts(size_t index) const { return counts_[index]; }
  size_t size() const { return seeds_.size(); }

 private:
  void Fail(size_t index, const std::string& why) {
    if (++reported_ <= 5) {
      std::fprintf(stderr, "tlbbench: %s op %zu (seed %llu) failed: %s\n", WorkloadName(w_),
                   index, static_cast<unsigned long long>(seeds_[index]), why.c_str());
    }
  }

  Workload w_;
  std::vector<uint64_t> seeds_;
  std::vector<std::optional<uint64_t>> expected_;
  std::vector<std::optional<Counts>> counts_;
  int reported_ = 0;
};

// An op's time is stated at the reference host speed (see calib.h): its wall
// time scaled by Calibrator::kReferenceMs over the mean of the calibrations
// either side of it.
struct TimedOp {
  size_t index;
  double ms;
  double wall_ms;
  double mcycles_per_s;  // simulated Mcycles per reference-speed second, this op
  bool traced;
};

Json Metric(double value, const char* unit) {
  Json m = Json::Object();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

// Per-layer metrics from the snapshot counts of every pool entry.
void AddCountMetrics(const Counts& c, double ops, Json* m) {
  auto per_op = [ops](uint64_t v) { return static_cast<double>(v) / ops; };
  double shootdowns = static_cast<double>(c[kIpiShootdowns] + c[kBatchShootdowns] +
                                          c[kQueueShootdowns]);
  auto per_sd = [shootdowns](uint64_t v) { return Ratio(static_cast<double>(v), shootdowns); };
  auto ratio = [](uint64_t a, uint64_t b) {
    return Ratio(static_cast<double>(a), static_cast<double>(b));
  };
  uint64_t tlb_flushes = c[kTlbSelectiveFlushes] + c[kTlbFullFlushes];
  Json& j = *m;
  j["sim.events_per_op"] = Metric(per_op(c[kEvents]), "count");
  j["cache.accesses_per_shootdown"] = Metric(per_sd(c[kCoherenceAccesses]), "count");
  j["cache.transfers_per_shootdown"] = Metric(per_sd(c[kCoherenceTransfers]), "count");
  j["cache.cross_socket_transfers_per_shootdown"] =
      Metric(per_sd(c[kCoherenceCrossSocket]), "count");
  j["hw.tlb_lookups_per_op"] = Metric(per_op(c[kTlbLookups]), "count");
  j["hw.tlb_miss_ratio"] = Metric(ratio(c[kTlbMisses], c[kTlbLookups]), "ratio");
  j["hw.tlb_fastpath_hit_ratio"] = Metric(ratio(c[kTlbFastpathHits], c[kTlbHits]), "ratio");
  j["hw.pwc_hit_ratio"] = Metric(ratio(c[kPwcHits], c[kPwcLookups]), "ratio");
  j["hw.tlb_flushes_per_shootdown"] = Metric(per_sd(tlb_flushes), "count");
  j["hw.tlb_full_flush_ratio"] = Metric(ratio(c[kTlbFullFlushes], tlb_flushes), "ratio");
  j["hw.ipis_per_shootdown"] = Metric(per_sd(c[kIpisSent]), "count");
  j["mm.remote_walks_per_op"] = Metric(per_op(c[kRemoteWalks]), "count");
  j["kernel.syscalls_per_op"] = Metric(per_op(c[kSyscalls]), "count");
  j["kernel.page_faults_per_op"] = Metric(per_op(c[kPageFaults]), "count");
  j["kernel.flush_requests_per_op"] = Metric(per_op(c[kFlushRequests]), "count");
  j["core.shootdowns_per_op"] = Metric(shootdowns / ops, "count");
  // One backend runs per workload, so the IPI and queue terms never mix.
  j["core.responder_full_ratio"] =
      Metric(ratio(c[kResponderFull] + c[kQueueDrainFull],
                   c[kResponderFull] + c[kResponderSelective] + c[kQueueDrains]),
             "ratio");
  j["core.early_ack_ratio"] = Metric(ratio(c[kEarlyAcks], c[kEarlyAcks] + c[kLateAcks]), "ratio");
  j["core.queue_ipi_resends_per_shootdown"] =
      Metric(ratio(c[kQueueIpiResends], c[kQueueShootdowns]), "count");
  j["core.queue_drained_entries_per_drain"] =
      Metric(ratio(c[kQueueDrainedEntries], c[kQueueDrains]), "count");
  j["core.queue_flush_all_fallbacks_per_op"] = Metric(per_op(c[kQueueFlushAllFallbacks]), "count");
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const Workload w = args.workload;

  if (args.print_digests) {
    OpLedger ledger(w, OpSeeds(args.seed));
    for (size_t i = 0; i < ledger.size(); ++i) {
      OpResult r;
      if (!ledger.Run(i, nullptr, -1, &r)) {
        return 1;
      }
      std::printf("%s %zu %llu %s\n", WorkloadName(w), i,
                  static_cast<unsigned long long>(ledger.seed(i)), Hex(r.digest).c_str());
    }
    return 0;
  }

  const HostInfo host = ReadHost();
  SpanRecorder spans(kProcessStart);
  spans.set_enabled(args.trace);
  const bool use_golden = args.seed == kDefaultSeed;
  if (use_golden && args.golden.empty()) {
    Usage("the default seed needs --golden FILE");
  }

  // Set-up rounds: generate the inputs (op seeds, expected digests) and run
  // one untimed warm-up op. The first round counts from process start and
  // includes building the calibrator. Each round's time is stated at the
  // reference host speed, by the calibration run right after it.
  Calibrator calib;
  std::optional<OpLedger> ledger;
  tlbsim::Samples setup_s;
  bool warmup_ok = true;
  for (int round = 0; round < kSetupRounds || SecondsSince(kProcessStart) < kSetupSeconds;
       ++round) {
    Clock::time_point t0 = round == 0 ? kProcessStart : Clock::now();
    SpanRecorder::Scope span(&spans, "setup", "setup_round", -1);
    std::vector<uint64_t> seeds = OpSeeds(args.seed);
    ledger.emplace(w, seeds);
    if (use_golden) {
      if (std::optional<std::string> err = LoadGolden(args.golden, w, seeds, ledger->expected())) {
        std::fprintf(stderr, "tlbbench: %s\n", err->c_str());
        return 1;
      }
    }
    warmup_ok = ledger->Run(static_cast<size_t>(round) % kPoolSize, nullptr, -1) && warmup_ok;
    double secs = SecondsSince(t0);
    setup_s.Add(secs * Calibrator::kReferenceMs / calib.Run());
  }

  // Timed loop. A calibration runs before the first op and after every op,
  // so each op has one on either side. In a traced run every other op
  // records spans, so the two halves give the tracing overhead.
  uint64_t attempted = 0;
  uint64_t failed = warmup_ok ? 0 : 1;
  std::vector<TimedOp> timed;
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  std::vector<double> calib_ms{calib.Run()};
  for (uint64_t i = 0; Clock::now() < deadline; ++i) {
    size_t index = i % kPoolSize;
    bool traced = args.trace && i % 2 == 0;
    spans.set_enabled(traced);
    OpResult r;
    bool good = false;
    Clock::time_point t0 = Clock::now();
    {
      SpanRecorder::Scope span(&spans, "workloads", WorkloadName(w), static_cast<int64_t>(i));
      good = ledger->Run(index, &spans, static_cast<int64_t>(i), &r);
    }
    double secs = SecondsSince(t0);
    ++attempted;
    if (!good) {
      ++failed;
    }
    calib_ms.push_back(calib.Run());
    double scale = Calibrator::kReferenceMs / ((calib_ms[i] + calib_ms[i + 1]) / 2);
    timed.push_back(TimedOp{index, secs * 1e3 * scale, secs * 1e3,
                            Ratio(static_cast<double>(r.counts[kVirtualCycles]) / 1e6, secs * scale),
                            traced});
  }
  spans.set_enabled(args.trace);

  // Replay one sampled op that already ran; its digest must repeat.
  size_t seen = std::min(kPoolSize, std::max(timed.size(), static_cast<size_t>(kSetupRounds)));
  size_t replay = SplitMix(args.seed ^ 0x5eedULL).Below(seen);
  {
    SpanRecorder::Scope span(&spans, "workloads", "replay", -1);
    if (!ledger->Run(replay, nullptr, -1)) {
      ++failed;
    }
  }

  tlbsim::Samples all_ms;
  tlbsim::Samples wall_ms;
  tlbsim::Samples rates;
  tlbsim::Samples traced_ms;
  tlbsim::Samples untraced_ms;
  for (const TimedOp& t : timed) {
    all_ms.Add(t.ms);
    wall_ms.Add(t.wall_ms);
    rates.Add(t.mcycles_per_s);
    (t.traced ? traced_ms : untraced_ms).Add(t.ms);
  }
  tlbsim::Samples calib_samples;
  for (double ms : calib_ms) {
    calib_samples.Add(ms);
  }
  uint64_t violations = 0;
  Json metrics = Json::Object();
  if (!args.trace) {
    metrics["sim_mcycles_per_s"] = Metric(rates.Percentile(50), "Mcycles/s");
    metrics["op_ms_p50"] = Metric(all_ms.Percentile(50), "ms");
    metrics["peak_rss_mb"] = Metric(PeakRssMb(), "MB");
    metrics["setup_s"] = Metric(setup_s.Percentile(50), "s");
  } else {
    // Counts need every pool entry once; a short run finishes the pool here.
    Counts total{};
    for (size_t i = 0; i < kPoolSize; ++i) {
      if (!ledger->counts(i) && !ledger->Run(i, nullptr, -1)) {
        ++failed;
      }
      if (ledger->counts(i)) {
        total += *ledger->counts(i);
      }
    }
    const double pool_ops = static_cast<double>(kPoolSize);
    AddCountMetrics(total, pool_ops, &metrics);

    // Wall times here: the probes below run at the host's current speed too.
    double untraced_ns = 0.0;
    double untraced_events = 0.0;
    for (const TimedOp& t : timed) {
      if (!t.traced && ledger->counts(t.index)) {
        untraced_ns += t.wall_ms * 1e6;
        untraced_events += static_cast<double>((*ledger->counts(t.index))[kEvents]);
      }
    }
    metrics["sim.host_ns_per_event"] = Metric(Ratio(untraced_ns, untraced_events), "ns");

    const int64_t probe_op = static_cast<int64_t>(timed.size());
    ProbeResults p = RunProbes(w, args.seed, &spans, probe_op);
    metrics["sim.probe_ns_per_event"] = Metric(p.sim_ns_per_event, "ns");
    metrics["cache.probe_ns_per_access"] = Metric(p.cache_ns_per_access, "ns");
    metrics["hw.probe_ns_per_tlb_lookup"] = Metric(p.tlb_ns_per_lookup, "ns");
    metrics["hw.probe_ns_per_tlb_flush"] = Metric(p.tlb_ns_per_flush, "ns");
    metrics["mm.probe_ns_per_walk"] = Metric(p.mm_ns_per_walk, "ns");
    metrics["mm.probe_ns_per_present_pte"] = Metric(p.mm_ns_per_present_pte, "ns");
    metrics["mm.probe_ns_per_frame_alloc"] = Metric(p.mm_ns_per_frame_alloc, "ns");
    metrics["core.system_construct_ms"] = Metric(p.system_construct_ms, "ms");
    metrics["core.snapshot_ms"] = Metric(p.snapshot_ms, "ms");

    // Estimated host-time split of a mean untraced op: probe cost times the
    // op's count of that work. Lower bounds (probes run with warm caches).
    double op_ns = Ratio(untraced_ns, static_cast<double>(untraced_ms.size()));
    auto per_op = [&](Key k) { return static_cast<double>(total[k]) / pool_ops; };
    double sim_share = Ratio(p.sim_ns_per_event * per_op(kEvents), op_ns);
    double cache_share = Ratio(p.cache_ns_per_access * per_op(kCoherenceAccesses), op_ns);
    double tlb_share =
        Ratio(p.tlb_ns_per_lookup * per_op(kTlbLookups) +
                  p.tlb_ns_per_flush * (per_op(kTlbSelectiveFlushes) + per_op(kTlbFullFlushes)),
              op_ns);
    double setup_share = Ratio(2 * (p.system_construct_ms + p.snapshot_ms) * 1e6, op_ns);
    metrics["sim.est_share"] = Metric(sim_share, "ratio");
    metrics["cache.est_share"] = Metric(cache_share, "ratio");
    metrics["hw.tlb_est_share"] = Metric(tlb_share, "ratio");
    metrics["core.setup_est_share"] = Metric(setup_share, "ratio");
    metrics["unattributed_share"] =
        Metric(1.0 - sim_share - cache_share - tlb_share - setup_share, "ratio");

    // tlbcheck: the same sample ops with the oracle off, then on. Checking
    // must not change what the simulation computes, so digests must repeat.
    double off_s = 0.0;
    double on_s = 0.0;
    for (bool check : {false, true}) {
      if (check) {
        tlbsim::EnableTlbCheckEverywhere();
      }
      SpanRecorder::Scope span(&spans, "check", check ? "tlbcheck_on" : "tlbcheck_off", probe_op);
      Clock::time_point t0 = Clock::now();
      for (size_t i = 0; i < kCheckSampleOps; ++i) {
        if (!ledger->Run(i, nullptr, -1)) {
          ++failed;
        }
      }
      (check ? on_s : off_s) = SecondsSince(t0);
    }
    tlbsim::SetCheckEverySystem(false);
    violations = tlbsim::GlobalTlbCheckViolationCount();
    metrics["check.overhead_ratio"] = Metric(Ratio(on_s, off_s), "ratio");
    metrics["check.violations"] = Metric(static_cast<double>(violations), "count");

    // Sweep executor: the same ops on one host thread, then on nproc.
    std::vector<std::function<OpResult()>> jobs;
    for (int i = 0; i < 2 * host.nproc; ++i) {
      uint64_t op_seed = ledger->seed(static_cast<size_t>(i) % kPoolSize);
      jobs.emplace_back([w, op_seed] { return RunOp(w, op_seed); });
    }
    double sweep_s[2] = {0.0, 0.0};
    for (int pass = 0; pass < 2; ++pass) {
      SpanRecorder::Scope span(&spans, "exec", pass == 0 ? "sweep_1_thread" : "sweep_nproc",
                               probe_op);
      tlbsim::SweepRunner runner(pass == 0 ? 1 : host.nproc);
      Clock::time_point t0 = Clock::now();
      std::vector<OpResult> results = runner.Run(jobs);
      sweep_s[pass] = SecondsSince(t0);
      for (size_t i = 0; i < results.size(); ++i) {
        if (!ledger->Check(i % kPoolSize, results[i])) {
          ++failed;
        }
      }
    }
    metrics["exec.sweep_speedup"] = Metric(Ratio(sweep_s[0], sweep_s[1]), "ratio");

    // The tail of op time on a shared host is mostly host noise, too unsteady
    // across runs to carry a regression bound; it is reported here instead.
    metrics["workloads.op_ms_p90"] = Metric(untraced_ms.Percentile(90), "ms");
    double traced_p50 = traced_ms.Percentile(50);
    metrics["trace.op_ms_p50"] = Metric(traced_p50, "ms");
    metrics["trace.overhead_ratio"] =
        Metric(Ratio(traced_p50, untraced_ms.Percentile(50)), "ratio");
    metrics["host.nproc"] = Metric(host.nproc, "count");
    metrics["host.calib_ms"] = Metric(calib_samples.Percentile(50), "ms");
    metrics["host.wall_op_ms_p50"] = Metric(wall_ms.Percentile(50), "ms");
    metrics["host.loadavg_1m"] = Metric(host.loadavg_1m, "load");
    metrics["host.cpu_per_wall"] =
        Metric(Ratio(CpuSeconds(), SecondsSince(kProcessStart)), "ratio");

    if (!args.trace_out.empty()) {
      Json meta = Json::Object();
      meta["workload"] = WorkloadName(w);
      meta["seed"] = args.seed;
      meta["nproc"] = host.nproc;
      if (!spans.WriteChromeTrace(args.trace_out, std::move(meta))) {
        std::fprintf(stderr, "tlbbench: cannot write trace file '%s'\n", args.trace_out.c_str());
        return 1;
      }
      std::fprintf(stderr, "tlbbench: wrote %zu spans to %s\n", spans.size(),
                   args.trace_out.c_str());
    }
  }

  std::printf("host: nproc=%d loadavg_1m=%.2f cpu_per_wall=%.3f calib_ms=%.4f (reference %.1f)"
              " wall_op_ms_p50=%.3f ms\n",
              host.nproc, host.loadavg_1m, Ratio(CpuSeconds(), SecondsSince(kProcessStart)),
              calib_samples.Percentile(50), Calibrator::kReferenceMs, wall_ms.Percentile(50));
  std::printf("ops: %s seed=%llu attempted=%llu failed=%llu op_ms_p50=%.3f ms op_ms_p90=%.3f ms"
              " (%zu samples) setup_s=%.4f s\n",
              WorkloadName(w), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              all_ms.Percentile(50), all_ms.Percentile(90), all_ms.size(),
              setup_s.Percentile(50));
  Json result = Json::Object();
  result["correct"] = failed == 0 && violations == 0;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
