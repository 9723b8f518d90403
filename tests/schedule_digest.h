// Schedule digest shared by the scheduler fixture suites.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "sched/scheduler.h"

namespace dana::sched {

/// FNV-1a over the bit patterns of every QueryStat field and the report's
/// makespan, batch, compile and preemption totals, then over the bytes of
/// `metrics_json` (a MetricRegistry::ToJson().Dump() snapshot; empty mixes
/// nothing in).
inline uint64_t ReportDigest(const ScheduleReport& r,
                             std::string_view metrics_json = {}) {
  uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](const void* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      hash ^= static_cast<const unsigned char*>(data)[i];
      hash *= 0x100000001b3ull;
    }
  };
  auto add = [&mix](const auto& value) { mix(&value, sizeof(value)); };
  for (const QueryStat& q : r.queries) {
    add(q.id);
    add(q.workload_id.size());
    mix(q.workload_id.data(), q.workload_id.size());
    add(q.query_class);
    add(q.slot);
    add(q.arrival);
    add(q.start);
    add(q.completion);
    add(q.compile);
    add(q.service);
    add(q.compile_hit);
    add(q.batch_size);
    add(q.shared_service);
    add(q.private_service);
    add(q.warm_fraction);
    add(q.os_warm_fraction);
    add(q.residency_modeled);
    add(q.preemptions);
    add(q.preempt_overhead);
  }
  add(r.makespan);
  add(r.batches);
  add(r.compile_hits);
  add(r.compile_misses);
  add(r.preemptions);
  mix(metrics_json.data(), metrics_json.size());
  return hash;
}

}  // namespace dana::sched
