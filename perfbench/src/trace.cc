#include "trace.h"

#include <fstream>

#include "obs/json.h"

namespace perfbench {

namespace {
/// Raw span records kept for Write(); totals stay exact past the cap.
constexpr size_t kMaxRecordedSpans = 200000;
}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  SetRun("main");
}

uint32_t Tracer::Intern(std::vector<std::string>* table,
                        std::string_view name) {
  for (size_t i = 0; i < table->size(); ++i) {
    if ((*table)[i] == name) return static_cast<uint32_t>(i);
  }
  table->emplace_back(name);
  return static_cast<uint32_t>(table->size() - 1);
}

uint32_t Tracer::Id(std::string_view name) { return Intern(&names_, name); }

void Tracer::SetRun(std::string_view run) {
  run_ = Intern(&runs_, run);
  if (totals_.size() < runs_.size()) totals_.resize(runs_.size());
  if (top_level_s_.size() < runs_.size()) top_level_s_.resize(runs_.size());
}

Tracer::Totals* Tracer::Slot(uint32_t run, uint32_t name) {
  std::vector<Totals>& row = totals_[run];
  if (row.size() <= name) row.resize(name + 1);
  return &row[name];
}

void Tracer::Open(uint32_t name) {
  const int64_t now = NowNs();
  int64_t record = -1;
  if (spans_.size() < kMaxRecordedSpans) {
    const int64_t parent = stack_.empty() ? -1 : stack_.back().record;
    record = static_cast<int64_t>(spans_.size());
    spans_.push_back({name, run_, now, now, parent});
  } else {
    ++dropped_;
  }
  stack_.push_back({name, now, 0.0, record});
}

void Tracer::Close() {
  const int64_t now = NowNs();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double duration = static_cast<double>(now - frame.start_ns) * 1e-9;
  Totals* t = Slot(run_, frame.name);
  ++t->calls;
  t->total_s += duration;
  t->self_s += duration - frame.child_s;
  if (frame.record >= 0) spans_[static_cast<size_t>(frame.record)].end_ns = now;
  if (stack_.empty()) {
    top_level_s_[run_] += duration;
  } else {
    stack_.back().child_s += duration;
  }
}

Tracer::Totals Tracer::Get(std::string_view run, std::string_view name) const {
  for (size_t r = 0; r < runs_.size(); ++r) {
    if (runs_[r] != run) continue;
    for (size_t n = 0; n < names_.size() && n < totals_[r].size(); ++n) {
      if (names_[n] == name) return totals_[r][n];
    }
  }
  return {};
}

double Tracer::TopLevelSeconds(std::string_view run) const {
  for (size_t r = 0; r < runs_.size(); ++r) {
    if (runs_[r] == run) return top_level_s_[r];
  }
  return 0.0;
}

dana::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return dana::Status::IOError("cannot write " + path);
  dana::obs::Json header = dana::obs::Json::Object();
  header.Set("spans", static_cast<uint64_t>(spans_.size()));
  header.Set("dropped", dropped_);
  out << header.Dump() << '\n';
  for (const Span& s : spans_) {
    dana::obs::Json line = dana::obs::Json::Object();
    line.Set("name", names_[s.name]);
    line.Set("run", runs_[s.run]);
    line.Set("start_ns", s.start_ns);
    line.Set("end_ns", s.end_ns);
    line.Set("parent", s.parent);
    out << line.Dump() << '\n';
  }
  out.flush();
  if (!out) return dana::Status::IOError("short write to " + path);
  return dana::Status::OK();
}

}  // namespace perfbench
