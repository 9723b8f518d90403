#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench_harness.h"
#include "common/status.h"
#include "trace.h"

namespace perfbench {

/// Command-line configuration of one benchmark run.
struct Config {
  std::string workload;
  uint64_t seed = 0;
  /// Host seconds the timed phase is repeated for (at least kMinPasses
  /// passes).
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

/// What a workload hands back to main().
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed whole-run checks (digest drift, endpoint measurement in the
  /// timed phase, ...); any entry makes the run incorrect.
  std::vector<std::string> check_failures;
  /// Digest of every simulated output of the timed phase.
  uint64_t digest = 0;
  std::map<std::string, double> metrics;

  void Fail(std::string what) { check_failures.push_back(std::move(what)); }
};

/// FNV-1a over the exact bytes of simulated outputs: two runs agree on
/// the digest only if every hashed value is bit-identical.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(std::string_view s) {
    Add(static_cast<uint64_t>(s.size()));
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Host seconds since `t0`.
double SecondsSince(std::chrono::steady_clock::time_point t0);
/// Median of a non-empty vector.
double Median(std::vector<double> v);
/// Smallest element of a non-empty vector.
double Fastest(const std::vector<double>& v);
/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Per-layer metrics that only the standalone replays produce: one table
/// that fits its buffer pool and one that does not, walked through the
/// storage, Strider, engine and accelerator layers in isolation.
dana::Status RunReplays(dana::bench::Harness* harness, Tracer* tracer,
                        Outcome* out);

dana::Status RunRepro(const Config& config, Tracer* tracer, Outcome* out);
dana::Status RunServe(const Config& config, Tracer* tracer, Outcome* out);

/// A run repeats its timed pass at least this often, so that `run_s` is
/// always the fastest of several passes.
constexpr size_t kMinPasses = 2;

/// Runs `pass(&seconds, &digest)` until `seconds` of host time are spent,
/// at least kMinPasses times, appending each pass's host seconds to
/// `pass_s`. Every pass must reproduce the first pass's digest.
template <typename Pass>
dana::Status RepeatPasses(double seconds, Pass&& pass,
                          std::vector<double>* pass_s, uint64_t* digest,
                          Outcome* out) {
  const auto start = std::chrono::steady_clock::now();
  do {
    uint64_t d = 0;
    double s = 0.0;
    DANA_RETURN_NOT_OK(pass(&s, &d));
    if (pass_s->empty()) {
      *digest = d;
    } else if (d != *digest) {
      out->Fail("simulated outputs differ between repeated passes");
    }
    pass_s->push_back(s);
    std::fprintf(stderr, "pass %zu: %.3f s\n", pass_s->size(), s);
  } while (pass_s->size() < kMinPasses || SecondsSince(start) < seconds);
  return dana::Status::OK();
}

}  // namespace perfbench
