// Hot-path fixture suite (ctest label: sched_perf).
//
// The scheduler's queue structures (intrusive admission-order list with
// per-algorithm FIFO indices, the ordered pure-SJF candidate set), its
// per-dispatch free-slot scan, and the executor's skip of undisturbed
// repeat sweeps are performance work on one path each. Their oracle is
// data: kPerfDigests below holds one digest per configuration, recorded
// from the linear-scan reference queue (with every repeat sweep run) that
// these paths replaced, before it was deleted. Each digest covers the
// *whole* outcome: every QueryStat field — dispatch order, slot placement,
// start and completion nanos included — the schedule totals, and the
// byte-exact sched.* metric snapshot (MetricRegistry::ToJson().Dump() —
// counters, gauges, and latency/wait/batch histograms in one string). A
// tie-break drift that golden percentiles would round away fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sched/executor.h"
#include "sched/scheduler.h"
#include "sched/workload_driver.h"
#include "schedule_digest.h"
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

/// Runs `stream` under `opts` and digests the whole outcome: every
/// QueryStat field and the schedule totals, plus the sched.* metric
/// snapshot.
uint64_t RunDigest(SchedulerOptions opts, QueryExecutor* executor,
                   const std::vector<QueryRequest>& stream) {
  obs::MetricRegistry registry;
  opts.metrics = &registry;
  Scheduler scheduler(opts, executor);
  auto report = scheduler.Run(stream);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? ReportDigest(*report, registry.ToJson().Dump()) : 0;
}

uint64_t SyntheticDigest(SchedulerOptions opts,
                         const std::vector<QueryRequest>& stream) {
  SlicedExecutor exec = MakeExecutor();
  return RunDigest(opts, &exec, stream);
}

/// Mixed workload with one interactive rank over the real
/// DanaQueryExecutor on physical per-slot pools, untiered or with the
/// evicting OS tier configured.
uint64_t DanaDigest(std::vector<std::string> catalog, double rate_qps,
                    bool tiered) {
  DriverOptions dopts;
  dopts.seed = 0xDA7A;
  dopts.num_queries = 14;
  dopts.arrival_rate_qps = rate_qps;
  dopts.popularity = Popularity::kZipfian;
  dopts.zipf_exponent = 1.2;
  dopts.interactive_ranks = 1;
  WorkloadDriver driver(std::move(catalog), dopts);
  auto stream = driver.Generate();
  EXPECT_TRUE(stream.ok());
  if (!stream.ok()) return 0;
  DanaQueryExecutor::Options eopts;
  if (tiered) {
    eopts.eviction = storage::EvictionKind::kLru;
    eopts.os_frames = 4096;
  }
  DanaQueryExecutor executor(eopts);
  return RunDigest({.slots = 2,
                    .policy = Policy::kSjf,
                    .max_batch = 2,
                    .affinity_weight = 0.5,
                    .preemption_quantum_epochs = 2,
                    .context_switch_cost = dana::SimTime::Millis(50)},
                   &executor, *stream);
}

/// Every fixture configuration, named, computing its digest.
struct PerfCase {
  std::string config;
  std::function<uint64_t()> digest;
};

std::vector<PerfCase> PerfCases() {
  std::vector<PerfCase> cases;
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    // ~2x overload on 2 slots so deep queues form: removal from the
    // middle, batch coalescing across the queue, and SJF extraction all
    // get real work.
    cases.push_back({std::string("rtc/") + PolicyName(policy), [policy] {
                       return SyntheticDigest(
                           {.slots = 2, .policy = policy, .max_batch = 3},
                           Stream(0xC0FFEE, 60, 0.25));
                     }});
  }
  // Aged SJF and affinity dispatch take the linear-scan candidate walk
  // (aging disables the ordered SJF set, affinity re-scores slots).
  cases.push_back({"rtc/sjf-aged-affinity", [] {
                     return SyntheticDigest({.slots = 3,
                                             .policy = Policy::kSjf,
                                             .max_batch = 2,
                                             .sjf_aging_weight = 0.2,
                                             .affinity_weight = 0.5},
                                            Stream(0xBEEF, 48, 0.3));
                   }});
  cases.push_back({"rtc/fcfs-affinity", [] {
                     return SyntheticDigest({.slots = 3,
                                             .policy = Policy::kFcfs,
                                             .max_batch = 4,
                                             .affinity_weight = 0.5},
                                            Stream(0xBEEF, 48, 0.3));
                   }});
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    // Two interactive ranks against long batch trainings, quantum small
    // enough that preemptions and resumes actually happen.
    cases.push_back(
        {std::string("preempt/") + PolicyName(policy), [policy] {
           return SyntheticDigest(
               {.slots = 2,
                .policy = policy,
                .max_batch = 3,
                .affinity_weight = 0.5,
                .preemption_quantum_epochs = 3,
                .context_switch_cost = dana::SimTime::Millis(250)},
               Stream(0x5EED, 48, 0.3, /*interactive_ranks=*/2));
         }});
  }
  // Batch-formation holds park a freed slot: a held slot is not free, an
  // expired hold is.
  cases.push_back({"preempt/window", [] {
                     return SyntheticDigest(
                         {.slots = 2,
                          .policy = Policy::kFcfs,
                          .max_batch = 4,
                          .affinity_weight = 0.5,
                          .preemption_quantum_epochs = 4,
                          .context_switch_cost = dana::SimTime::Millis(100),
                          .batch_window = dana::SimTime::Seconds(3)},
                         Stream(0xF00D, 40, 0.35, /*interactive_ranks=*/2));
                   }});
  // At 0.02 qps no run is preempted, so these two never repeat a slice.
  cases.push_back({"memoize", [] {
                     return DanaDigest({"wlan", "sn_lrmf", "sn_linear"}, 0.02,
                                       /*tiered=*/false);
                   }});
  cases.push_back({"memoize/tiered", [] {
                     return DanaDigest({"wlan", "sn_lrmf", "sn_linear"}, 0.02,
                                       /*tiered=*/true);
                   }});
  // At 0.05 qps with se_lrmf three batch runs are preempted and two of
  // their resumed slices find the slot undisturbed: the memo skips them.
  cases.push_back({"memoize/preempted", [] {
                     return DanaDigest({"wlan", "se_lrmf", "sn_linear"}, 0.05,
                                       /*tiered=*/true);
                   }});
  return cases;
}

// Regeneration aid (runs only with --gtest_also_run_disabled_tests): prints
// the fixture literals below. The recorded values came from the retired
// reference paths; never regenerate them to absorb a schedule change.
TEST(SchedPerfEquivalenceTest, DISABLED_PrintDigests) {
  for (const PerfCase& c : PerfCases()) {
    std::printf("    {\"%s\", 0x%016llxull},\n", c.config.c_str(),
                static_cast<unsigned long long>(c.digest()));
  }
}

struct PerfDigest {
  const char* config;
  uint64_t digest;
};

const PerfDigest kPerfDigests[] = {
    {"rtc/fcfs", 0x9dd369c3b05c25daull},
    {"rtc/sjf", 0xb6eafb8e9b7e94a2ull},
    {"rtc/rr", 0x8bd7adc5bac33197ull},
    {"rtc/sjf-aged-affinity", 0x3715c702df1658f9ull},
    {"rtc/fcfs-affinity", 0x07ebc73682881dcfull},
    {"preempt/fcfs", 0xdc9ac01da3e4dba0ull},
    {"preempt/sjf", 0x7c5a9e8ec8e28293ull},
    {"preempt/rr", 0x4cc0775b87352e5eull},
    {"preempt/window", 0x0172ca4866959704ull},
    {"memoize", 0x7dfb3eba8b1008bbull},
    {"memoize/tiered", 0x7dfb3eba8b1008bbull},
    {"memoize/preempted", 0xe9b810b7ce7214bdull},
};

/// Runs each named configuration and checks it reproduces its recorded
/// digest.
void ExpectRecordedDigests(const std::vector<std::string>& configs) {
  const std::vector<PerfCase> cases = PerfCases();
  for (const std::string& config : configs) {
    auto c = std::find_if(cases.begin(), cases.end(), [&](const PerfCase& pc) {
      return pc.config == config;
    });
    auto d = std::find_if(
        std::begin(kPerfDigests), std::end(kPerfDigests),
        [&](const PerfDigest& pd) { return config == pd.config; });
    ASSERT_NE(c, cases.end()) << config;
    ASSERT_NE(d, std::end(kPerfDigests)) << config;
    EXPECT_EQ(c->digest(), d->digest) << config;
  }
}

TEST(SchedPerfEquivalenceTest, FixtureCoversEveryCase) {
  const std::vector<PerfCase> cases = PerfCases();
  ASSERT_EQ(cases.size(), std::size(kPerfDigests));
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].config, kPerfDigests[i].config);
  }
}

// ---------------------------------------------------------------------------
// Run-to-completion: all three policies, batched, overloaded queues
// ---------------------------------------------------------------------------

TEST(SchedPerfEquivalenceTest, RunToCompletionAllPolicies) {
  ExpectRecordedDigests({"rtc/fcfs", "rtc/sjf", "rtc/rr"});
}

TEST(SchedPerfEquivalenceTest, RunToCompletionAffinityAndAging) {
  ExpectRecordedDigests({"rtc/sjf-aged-affinity", "rtc/fcfs-affinity"});
}

// ---------------------------------------------------------------------------
// Preemptive: epoch slicing, priority classes, batching window
// ---------------------------------------------------------------------------

TEST(SchedPerfEquivalenceTest, PreemptiveAllPolicies) {
  ExpectRecordedDigests({"preempt/fcfs", "preempt/sjf", "preempt/rr"});
}

TEST(SchedPerfEquivalenceTest, PreemptiveBatchingWindow) {
  ExpectRecordedDigests({"preempt/window"});
}

// ---------------------------------------------------------------------------
// Executor slice memoization: real DanaQueryExecutor, physical pools
// ---------------------------------------------------------------------------

// The memo may only skip sweeps that would have been all-hits no-ops, so
// the schedule (and therefore every priced cost) must match the digests
// recorded with every sweep run. Pool hit/miss counters legitimately
// differ — the skipped sweeps are exactly the point — so the digest covers
// the scheduler-side snapshot, not the executor gauges.
TEST(SchedPerfEquivalenceTest, SliceMemoizationPreservesTheSchedule) {
  ExpectRecordedDigests({"memoize"});
}

// Same pin with the evicting OS tier configured: demotions, OS-tier
// promotions, and the three-endpoint pricing all feed the memo key.
TEST(SchedPerfEquivalenceTest, SliceMemoizationPreservesTheTieredSchedule) {
  ExpectRecordedDigests({"memoize/tiered"});
}

// Preempted runs resume on undisturbed slots, so the memo actually skips
// sweeps here.
TEST(SchedPerfEquivalenceTest, SliceMemoizationPreservesPreemptedSlices) {
  ExpectRecordedDigests({"memoize/preempted"});
}

// ---------------------------------------------------------------------------
// OS-tier mutations vs slice memoization: version() is the contract
// ---------------------------------------------------------------------------

TEST(SliceMemoizationVersionTest, OsTierMutationsBumpPoolVersion) {
  // The memo's "undisturbed pool" check is two version() reads bracketing
  // the sweep, so an OS-tier reshape the sweep did not see must bump the
  // counter — otherwise the memo serves a sweep priced against a
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
