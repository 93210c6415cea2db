#include "bench/report.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "src/check/check_context.h"
#include "src/core/snapshot.h"

namespace tlbsim {

namespace {

// `--json out/` or a path to an existing directory means "name the file for
// me"; anything else is used verbatim.
std::string ResolvePath(std::string_view raw, std::string_view bench) {
  std::filesystem::path p(raw);
  std::error_code ec;
  bool is_dir = !raw.empty() && (raw.back() == '/' || std::filesystem::is_directory(p, ec));
  if (is_dir) {
    p /= "BENCH_" + std::string(bench) + ".json";
  }
  return p.string();
}

// Prints `problem` and the usage line, then exits 2. A mistyped or unknown
// flag must not silently run a different experiment than the one asked for.
[[noreturn]] void UsageError(const std::string& bench, const std::string& problem) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s [--json PATH] [--threads N] [--quick] [--check]\n",
               bench.c_str(), problem.c_str(), bench.c_str());
  std::exit(2);
}

// A positive decimal integer no larger than 4096.
int ParseThreads(const std::string& raw, const std::string& bench) {
  int v = 0;
  const char* end = raw.data() + raw.size();
  auto [ptr, ec] = std::from_chars(raw.data(), end, v);
  if (ec != std::errc() || ptr != end || v < 1 || v > 4096) {
    UsageError(bench, "bad --threads value '" + raw + "'");
  }
  return v;
}

}  // namespace

BenchReport::BenchReport(const char* name, int argc, char** argv)
    : name_(name), threads_(SweepRunner::DefaultThreadCount()) {
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    if (arg == "--quick") {
      quick_ = true;
      continue;
    }
    if (arg == "--check") {
      check_ = true;
      continue;
    }
    // Valued flags, as `--flag VALUE` or `--flag=VALUE`.
    std::string flag = arg.substr(0, arg.find('='));
    if (flag != "--json" && flag != "--threads") {
      UsageError(name_, "unknown argument '" + arg + "'");
    }
    std::string value;
    if (flag.size() < arg.size()) {
      value = arg.substr(flag.size() + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    if (value.empty()) {
      UsageError(name_, flag + " needs a value");
    }
    if (flag == "--json") {
      path_ = ResolvePath(value, name_);
    } else {
      threads_ = ParseThreads(value, name_);
    }
  }
  if (check_) {
    // Before any System exists: every simulation this process runs gets a
    // CheckContext, publishing into the global sink Finish() drains.
    EnableTlbCheckEverywhere();
  }
  root_ = Json::Object();
  root_["bench"] = name_;
  root_["schema_version"] = 1;
}

void BenchReport::AddRow(Json row) {
  Json& rows = root_["rows"];
  if (rows.type() != Json::Type::kArray) {
    rows = Json::Array();
  }
  rows.Append(std::move(row));
}

void BenchReport::Snapshot(System& system, const char* key) {
  root_[key] = SystemMetricsJson(system);
}

void BenchReport::Set(const char* key, Json value) { root_[key] = std::move(value); }

uint64_t BenchReport::Counter(const Json& metrics, const char* name) {
  const Json* counters = metrics.Find("counters");
  const Json* v = counters != nullptr ? counters->Find(name) : nullptr;
  return v != nullptr ? v->AsUint() : 0;
}

int BenchReport::Finish(int rc) {
  if (check_) {
    root_["tlbcheck"] = GlobalTlbCheckReport();
    uint64_t violations = GlobalTlbCheckViolationCount();
    if (violations > 0 && rc == 0) {
      std::fprintf(stderr, "BenchReport: tlbcheck found %llu violation(s)\n",
                   static_cast<unsigned long long>(violations));
      rc = 1;
    }
  }
  root_["status"] = rc == 0 ? "pass" : "fail";
  if (path_.empty()) {
    return rc;
  }
  std::filesystem::path p(path_);
  std::error_code ec;
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);  // best effort
  }
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "BenchReport: cannot open %s for writing\n", path_.c_str());
    return rc != 0 ? rc : 1;
  }
  std::string doc = root_.Dump(2);
  doc.push_back('\n');
  out << doc;
  out.close();
  if (!out) {
    std::fprintf(stderr, "BenchReport: failed writing %s\n", path_.c_str());
    return rc != 0 ? rc : 1;
  }
  std::fprintf(stderr, "BenchReport: wrote %s\n", path_.c_str());
  return rc;
}

}  // namespace tlbsim
