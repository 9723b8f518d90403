// perfbench: the repository benchmark. One process runs one workload and
// prints, as its last line, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: value}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) it measured; run.py attaches the units from BENCHMARK.json.
// perfbench/README.md describes the workloads and metrics.
//
//   perfbench --workload repro|serve-tiered --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/json.h"
#include "perfbench.h"

namespace perfbench {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload repro|serve-tiered "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  const bool repro = config.workload == "repro";
  if (!repro && config.workload != "serve-tiered") return Usage();

  Tracer tracer;
  Tracer* t = config.trace ? &tracer : nullptr;
  Outcome out;
  const dana::Status st =
      repro ? RunRepro(config, t, &out) : RunServe(config, t, &out);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench %s: %s\n", config.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  if (!config.trace) out.metrics["peak_rss_mb"] = PeakRssMb();
  if (t != nullptr && !config.trace_out.empty()) {
    const dana::Status written = tracer.Write(config.trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }

  for (const std::string& failure : out.check_failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  const bool correct = out.failed == 0 && out.check_failures.empty();
  dana::obs::Json metrics = dana::obs::Json::Object();
  for (const auto& [name, value] : out.metrics) metrics.Set(name, value);
  std::printf("digest %016llx\n", static_cast<unsigned long long>(out.digest));
  dana::obs::Json result = dana::obs::Json::Object();
  result.Set("correct", correct);
  result.Set("attempted", out.attempted);
  result.Set("failed", out.failed);
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}
