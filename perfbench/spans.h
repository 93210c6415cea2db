// Host-time spans recorded by the benchmark's own code around its calls into
// each layer, kept in memory and written out in the Chrome trace-event JSON
// format (complete "X" events, microsecond timestamps), which Perfetto and
// chrome://tracing open offline.
#ifndef TLBSIM_PERFBENCH_SPANS_H_
#define TLBSIM_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/json.h"

namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // While disabled, Scopes record nothing.
  void set_enabled(bool on) { enabled_ = on; }

  // One span: opened at construction, closed at destruction. Its parent is
  // the innermost span open when it began. `layer` and `name` must be string
  // literals. A null recorder makes the scope a no-op.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* layer, const char* name, int64_t op);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    SpanRecorder* rec_;
    size_t index_ = 0;
  };

  size_t size() const { return spans_.size(); }

  // Writes {"traceEvents": [...]} with one complete ("X") event per span;
  // `metadata` lands under "otherData". Returns false if the file could not
  // be written.
  bool WriteChromeTrace(const std::string& path, tlbsim::Json metadata) const;

 private:
  struct Span {
    const char* layer;
    const char* name;
    int64_t op;
    int64_t parent;  // index into spans_, -1 for a root span
    int64_t start_ns;
    int64_t dur_ns;
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices of spans not yet closed, innermost last
};

}  // namespace perfbench

#endif  // TLBSIM_PERFBENCH_SPANS_H_
