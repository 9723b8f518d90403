#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// In-memory span recorder for the traced run. A span is one timed call
/// into a layer's public function (name, start, end, parent span, run id);
/// spans nest through a stack, so a span's self time is its duration minus
/// the time of the spans opened inside it.
///
/// Totals per (run, name) are kept exactly for every span. The raw span
/// records that Write() emits are capped, because a serving run makes
/// millions of executor calls; the cap only bounds the written file.
class Tracer {
 public:
  struct Totals {
    uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  Tracer();

  /// Dense id of a span name (interned on first use).
  uint32_t Id(std::string_view name);
  /// Dense id of a run; spans opened after this belong to it.
  void SetRun(std::string_view run);

  void Open(uint32_t name);
  void Close();

  /// Totals of `name` in `run` (zero when never recorded).
  Totals Get(std::string_view run, std::string_view name) const;
  /// Summed duration of the top-level spans of `run`.
  double TopLevelSeconds(std::string_view run) const;

  /// Writes the spans as JSON lines: one header line, then one line per
  /// recorded span.
  dana::Status Write(const std::string& path) const;

 private:
  struct Span {
    uint32_t name;
    uint32_t run;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  ///< index into spans_, -1 for top level or unrecorded
  };
  struct Frame {
    uint32_t name;
    int64_t start_ns;
    double child_s;
    int64_t record;  ///< index into spans_, -1 when over the cap
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  static uint32_t Intern(std::vector<std::string>* table,
                         std::string_view name);
  Totals* Slot(uint32_t run, uint32_t name);

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<std::string> runs_;
  uint32_t run_ = 0;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  /// totals_[run][name]
  std::vector<std::vector<Totals>> totals_;
  std::vector<double> top_level_s_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Open(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
