#include "perfbench/spans.h"

#include <fstream>

namespace perfbench {

using tlbsim::Json;

SpanRecorder::Scope::Scope(SpanRecorder* rec, const char* layer, const char* name, int64_t op)
    : rec_(rec != nullptr && rec->enabled_ ? rec : nullptr) {
  if (rec_ == nullptr) {
    return;
  }
  index_ = rec_->spans_.size();
  int64_t parent = rec_->open_.empty() ? -1 : static_cast<int64_t>(rec_->open_.back());
  rec_->spans_.push_back(Span{layer, name, op, parent, rec_->NowNs(), 0});
  rec_->open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) {
    return;
  }
  Span& s = rec_->spans_[index_];
  s.dur_ns = rec_->NowNs() - s.start_ns;
  rec_->open_.pop_back();
}

bool SpanRecorder::WriteChromeTrace(const std::string& path, Json metadata) const {
  Json events = Json::Array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json e = Json::Object();
    e["name"] = s.name;
    e["cat"] = s.layer;
    e["ph"] = "X";
    e["ts"] = static_cast<double>(s.start_ns) / 1e3;  // microseconds
    e["dur"] = static_cast<double>(s.dur_ns) / 1e3;
    e["pid"] = 1;
    e["tid"] = 1;
    Json args = Json::Object();
    args["op"] = s.op;
    args["span"] = static_cast<int64_t>(i);
    args["parent"] = s.parent;
    e["args"] = std::move(args);
    events.Append(std::move(e));
  }
  Json doc = Json::Object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  doc["otherData"] = std::move(metadata);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << doc.Dump() << '\n';
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
