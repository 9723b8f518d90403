// Hot-path equivalence suite (ctest label: sched_perf).
//
// The scheduler's indexed queue structures (intrusive admission-order list
// with per-algorithm FIFO indices, the ordered pure-SJF candidate set, the
// incrementally maintained free-slot list) and the executor's slice
// memoization are pure performance work: SchedulerOptions::indexed_queues
// = false and DanaQueryExecutor::Options::memoize_slices = false keep the
// original linear-scan reference paths alive precisely so this suite can
// pin the optimized paths against them. Every test runs the same seeded
// stream down both paths and requires the *whole* outcome to match:
// per-query dispatch order, slot placement, and completion nanos, plus a
// byte-identical sched.* metric snapshot (MetricRegistry::ToJson().Dump()
// — counters, gauges, and latency/wait/batch histograms in one string).
// A tie-break drift that golden percentiles would round away fails here.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sched/executor.h"
#include "sched/scheduler.h"
#include "sched/workload_driver.h"
#include "sliced_executor.h"
#include "storage/buffer_pool.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dana::sched {
namespace {

/// Catalog sorted by estimate (WorkloadDriver ranks by catalog index for
/// popularity and interactive tagging): two short interactive-ish
/// algorithms, two mid, two long trainings.
SlicedExecutor MakeExecutor() {
  SlicedExecutor e;
  e.Set("lookup", 1, 1.5, 0.5, 2.0, 0.2);
  e.Set("score", 2, 1.0, 0.5, 3.0, 0.2);
  e.Set("logit", 4, 1.5, 0.5, 7.0, 0.5);
  e.Set("svm", 6, 1.5, 1.0, 11.0, 0.5);
  e.Set("train", 12, 2.0, 1.0, 26.0, 1.0);
  e.Set("lrmf", 20, 2.5, 1.0, 55.0, 1.0);
  // A little pre-pinned warmth so affinity slot choice and warm-candidate
  // preference are exercised from the first dispatch.
  e.SetWarm("logit", 1, 0.8);
  e.SetWarm("train", 0, 0.6);
  return e;
}

std::vector<QueryRequest> Stream(uint64_t seed, uint32_t queries,
                                 double rate_qps,
                                 uint32_t interactive_ranks = 0) {
  DriverOptions opts;
  opts.seed = seed;
  opts.num_queries = queries;
  opts.arrival_rate_qps = rate_qps;
  opts.popularity = Popularity::kZipfian;
  opts.zipf_exponent = 1.1;
  opts.interactive_ranks = interactive_ranks;
  WorkloadDriver driver({"lookup", "score", "logit", "svm", "train", "lrmf"},
                        opts);
  auto stream = driver.Generate();
  EXPECT_TRUE(stream.ok());
  return *stream;
}

struct RunOutcome {
  ScheduleReport report;
  std::string metrics_json;
};

RunOutcome RunWith(SchedulerOptions opts, bool indexed,
                   const std::vector<QueryRequest>& stream) {
  SlicedExecutor exec = MakeExecutor();
  obs::MetricRegistry registry;
  opts.metrics = &registry;
  opts.indexed_queues = indexed;
  Scheduler scheduler(opts, &exec);
  auto report = scheduler.Run(stream);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return {std::move(*report), registry.ToJson().Dump()};
}

void ExpectIdenticalOutcomes(const RunOutcome& reference,
                             const RunOutcome& indexed,
                             const std::string& what) {
  ASSERT_EQ(reference.report.queries.size(), indexed.report.queries.size())
      << what;
  for (size_t i = 0; i < reference.report.queries.size(); ++i) {
    const QueryStat& a = reference.report.queries[i];
    const QueryStat& b = indexed.report.queries[i];
    EXPECT_EQ(a.id, b.id) << what << " position " << i;
    EXPECT_EQ(a.slot, b.slot) << what << " query " << a.id;
    EXPECT_EQ(a.completion.nanos(), b.completion.nanos())
        << what << " query " << a.id;
    EXPECT_EQ(a.start.nanos(), b.start.nanos())
        << what << " query " << a.id;
  }
  // One string carries every counter, gauge, and histogram percentile.
  EXPECT_EQ(reference.metrics_json, indexed.metrics_json) << what;
}

void ExpectEquivalence(SchedulerOptions opts,
                       const std::vector<QueryRequest>& stream,
                       const std::string& what) {
  ExpectIdenticalOutcomes(RunWith(opts, /*indexed=*/false, stream),
                          RunWith(opts, /*indexed=*/true, stream), what);
}

// ---------------------------------------------------------------------------
// Run-to-completion: all three policies, batched, overloaded queues
// ---------------------------------------------------------------------------

TEST(SchedPerfEquivalenceTest, RunToCompletionAllPolicies) {
  // ~2x overload on 2 slots so deep queues form: removal from the middle,
  // batch coalescing across the queue, and SJF extraction all get real
  // work in both modes.
  const auto stream = Stream(0xC0FFEE, 60, 0.25);
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    ExpectEquivalence({.slots = 2, .policy = policy, .max_batch = 3},
                      stream, std::string("rtc/") + PolicyName(policy));
  }
}

TEST(SchedPerfEquivalenceTest, RunToCompletionAffinityAndAging) {
  // Aged SJF and affinity dispatch use the linear-scan candidate walk in
  // both modes — the equivalence must hold through the shared-path knobs
  // too (aging disables the ordered SJF set, affinity re-scores slots).
  const auto stream = Stream(0xBEEF, 48, 0.3);
  ExpectEquivalence({.slots = 3,
                     .policy = Policy::kSjf,
                     .max_batch = 2,
                     .sjf_aging_weight = 0.2,
                     .affinity_weight = 0.5},
                    stream, "rtc/sjf-aged-affinity");
  ExpectEquivalence({.slots = 3,
                     .policy = Policy::kFcfs,
                     .max_batch = 4,
                     .affinity_weight = 0.5},
                    stream, "rtc/fcfs-affinity");
}

// ---------------------------------------------------------------------------
// Preemptive: epoch slicing, priority classes, batching window
// ---------------------------------------------------------------------------

TEST(SchedPerfEquivalenceTest, PreemptiveAllPolicies) {
  // Two interactive ranks against long batch trainings, quantum small
  // enough that preemptions and resumes actually happen; the free-slot
  // list (indexed) vs the per-dispatch slot scan (reference) must agree on
  // every event.
  const auto stream = Stream(0x5EED, 48, 0.3, /*interactive_ranks=*/2);
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    ExpectEquivalence({.slots = 2,
                       .policy = policy,
                       .max_batch = 3,
                       .affinity_weight = 0.5,
                       .preemption_quantum_epochs = 3,
                       .context_switch_cost = dana::SimTime::Millis(250)},
                      stream, std::string("preempt/") + PolicyName(policy));
  }
}

TEST(SchedPerfEquivalenceTest, PreemptiveBatchingWindow) {
  // Batch-formation holds park a freed slot: hold bookkeeping is the
  // subtlest free-slot-list client (a held slot is not free, an expired
  // hold is), so the window path gets its own pin.
  const auto stream = Stream(0xF00D, 40, 0.35, /*interactive_ranks=*/2);
  ExpectEquivalence({.slots = 2,
                     .policy = Policy::kFcfs,
                     .max_batch = 4,
                     .affinity_weight = 0.5,
                     .preemption_quantum_epochs = 4,
                     .context_switch_cost = dana::SimTime::Millis(100),
                     .batch_window = dana::SimTime::Seconds(3)},
                    stream, "preempt/window");
}

// ---------------------------------------------------------------------------
// Executor slice memoization: real DanaQueryExecutor, physical pools
// ---------------------------------------------------------------------------

TEST(SchedPerfEquivalenceTest, SliceMemoizationPreservesTheSchedule) {
  // The memoized path may only skip sweeps that would have been all-hits
  // no-ops: under a preemptive mixed workload on physical per-slot pools,
  // the schedule (and therefore every priced cost) must be bit-identical
  // with memoization on and off. Pool hit/miss counters legitimately
  // differ — the skipped sweeps are exactly the point — so the comparison
  // is the scheduler-side snapshot, not the executor gauges.
  DriverOptions dopts;
  dopts.seed = 0xDA7A;
  dopts.num_queries = 14;
  dopts.arrival_rate_qps = 0.02;
  dopts.popularity = Popularity::kZipfian;
  dopts.zipf_exponent = 1.2;
  dopts.interactive_ranks = 1;
  WorkloadDriver driver({"wlan", "sn_lrmf", "sn_linear"}, dopts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());

  auto run = [&](bool memoize) {
    DanaQueryExecutor::Options eopts;
    eopts.memoize_slices = memoize;
    DanaQueryExecutor executor(eopts);
    obs::MetricRegistry registry;
    Scheduler scheduler({.slots = 2,
                         .policy = Policy::kSjf,
                         .max_batch = 2,
                         .affinity_weight = 0.5,
                         .preemption_quantum_epochs = 2,
                         .context_switch_cost = dana::SimTime::Millis(50),
                         .metrics = &registry},
                        &executor);
    auto report = scheduler.Run(*stream);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return RunOutcome{std::move(*report), registry.ToJson().Dump()};
  };
  ExpectIdenticalOutcomes(run(false), run(true), "memoize");
}

TEST(SchedPerfEquivalenceTest, SliceMemoizationPreservesTheTieredSchedule) {
  // Same pin with the evicting OS tier configured: demotions, OS-tier
  // promotions, and the three-endpoint pricing all feed the memo key, so
  // the schedule must still be bit-identical with memoization on and off.
  DriverOptions dopts;
  dopts.seed = 0xDA7A;
  dopts.num_queries = 14;
  dopts.arrival_rate_qps = 0.02;
  dopts.popularity = Popularity::kZipfian;
  dopts.zipf_exponent = 1.2;
  dopts.interactive_ranks = 1;
  WorkloadDriver driver({"wlan", "sn_lrmf", "sn_linear"}, dopts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());

  auto run = [&](bool memoize) {
    DanaQueryExecutor::Options eopts;
    eopts.memoize_slices = memoize;
    eopts.eviction = storage::EvictionKind::kLru;
    eopts.os_frames = 4096;
    DanaQueryExecutor executor(eopts);
    obs::MetricRegistry registry;
    Scheduler scheduler({.slots = 2,
                         .policy = Policy::kSjf,
                         .max_batch = 2,
                         .affinity_weight = 0.5,
                         .preemption_quantum_epochs = 2,
                         .context_switch_cost = dana::SimTime::Millis(50),
                         .metrics = &registry},
                        &executor);
    auto report = scheduler.Run(*stream);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return RunOutcome{std::move(*report), registry.ToJson().Dump()};
  };
  ExpectIdenticalOutcomes(run(false), run(true), "memoize/tiered");
}

// ---------------------------------------------------------------------------
// OS-tier mutations vs slice memoization: version() is the contract
// ---------------------------------------------------------------------------

TEST(SliceMemoizationVersionTest, OsTierMutationsBumpPoolVersion) {
  // The memo's "undisturbed pool" check is two version() reads bracketing
  // the sweep, so an OS-tier reshape the sweep did not see must bump the
  // counter — otherwise memoize_slices serves a sweep priced against a
  // tier layout that no longer exists. A genuinely idempotent re-mark
  // (clock's admit-until-full set, already holding every page) must NOT
  // bump it: that is exactly the repeat the memo exists to skip.
  storage::PageLayout layout;
  layout.page_size = 8 * 1024;
  storage::Table table("t", storage::Schema::Dense(100), layout);
  std::vector<double> row(101, 1.0);
  while (table.num_pages() < 6) {
    ASSERT_TRUE(table.AppendRow(row).ok());
  }

  for (storage::EvictionKind kind :
       {storage::EvictionKind::kClock, storage::EvictionKind::kLru,
        storage::EvictionKind::kPromotional}) {
    auto pool = storage::BufferPool::SizedInFrames(
        4, 8 * 1024, storage::DiskModel{}, kind, /*os_frames=*/8);
    const uint64_t fresh = pool.version();
    pool.MarkOsCached(table);
    const uint64_t marked = pool.version();
    EXPECT_GT(marked, fresh) << storage::EvictionKindName(kind);
    pool.MarkOsCached(table);
    if (kind == storage::EvictionKind::kClock) {
      // Every page already admitted: nothing changed, nothing bumped.
      EXPECT_EQ(pool.version(), marked) << storage::EvictionKindName(kind);
    } else {
      // The evicting tiers re-reference every page, which reorders the
      // replacement queues — future victims differ, so it must count.
      EXPECT_GT(pool.version(), marked) << storage::EvictionKindName(kind);
    }
  }
}

}  // namespace
}  // namespace dana::sched
