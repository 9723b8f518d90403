// Golden scheduler regression suite (ctest label: sched_golden).
//
// Pins the exact schedule — dispatch order, latency percentiles, makespan,
// batching and compile accounting — that each policy produces for one
// seeded Zipfian request stream over a synthetic executor, so a refactor
// that silently reshuffles schedules (tie-break drift, queue-order bugs,
// float reassociation) fails the build instead of shipping. The pinned
// values are the PR 2 scheduler's output; the affinity-weight-zero runs
// must keep reproducing them bit for bit no matter how the affinity
// machinery evolves.
//
// The second half keeps the retired run-to-completion engine as data: one
// digest per configuration of every QueryStat field's bit pattern and the
// report's schedule totals, recorded from that engine before it was
// deleted. The event-driven engine must reproduce each digest exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sched/executor.h"
#include "sched/scheduler.h"
#include "sched/workload_driver.h"
#include "schedule_digest.h"
#include "sliced_executor.h"

namespace dana::sched {
namespace {

/// Deterministic synthetic costs: batch of K occupies shared + K*per_query.
class GoldenExecutor : public QueryExecutor {
 public:
  GoldenExecutor() {
    Set("hot", 2, 0.5, 3, 1);
    Set("warm", 4, 1, 6, 1);
    Set("mid", 8, 2, 11, 2);
    Set("tail", 20, 5, 26, 3);
  }

  Result<BatchCost> Dispatch(const QueryBatch& batch) override {
    const Split& s = costs_.at(batch.workload_id);
    BatchCost cost;
    cost.shared = dana::SimTime::Seconds(s.shared);
    cost.per_query = dana::SimTime::Seconds(s.per_query);
    cost.service = dana::SimTime::Seconds(
        s.shared + s.per_query * static_cast<double>(batch.size()));
    cost.compile = dana::SimTime::Seconds(s.compile);
    return cost;
  }

  Result<dana::SimTime> Estimate(const std::string& id) override {
    return dana::SimTime::Seconds(costs_.at(id).estimate);
  }

 private:
  struct Split {
    double shared, per_query, estimate, compile;
  };
  void Set(const std::string& id, double shared, double per_query,
           double estimate, double compile) {
    costs_[id] = {shared, per_query, estimate, compile};
  }
  std::map<std::string, Split> costs_;
};

/// The one seeded stream every golden run schedules: Zipfian (s = 1.1)
/// over four classes, 40 queries at 0.5 qps — saturating two slots so
/// queues form and policies actually differ.
std::vector<QueryRequest> GoldenStream() {
  DriverOptions opts;
  opts.seed = 0x5EEDFACE;
  opts.num_queries = 40;
  opts.arrival_rate_qps = 0.5;
  opts.popularity = Popularity::kZipfian;
  opts.zipf_exponent = 1.1;
  WorkloadDriver driver({"hot", "warm", "mid", "tail"}, opts);
  auto stream = driver.Generate();
  EXPECT_TRUE(stream.ok());
  return *stream;
}

ScheduleReport RunGolden(Policy policy, double affinity_weight) {
  GoldenExecutor exec;
  Scheduler scheduler({.slots = 2,
                       .policy = policy,
                       .max_batch = 2,
                       .sjf_aging_weight = 0,
                       .affinity_weight = affinity_weight},
                      &exec);
  auto report = scheduler.Run(GoldenStream());
  EXPECT_TRUE(report.ok());
  return *report;
}

std::vector<uint64_t> DispatchOrder(const ScheduleReport& report) {
  std::vector<uint64_t> order;
  for (const QueryStat& q : report.queries) order.push_back(q.id);
  return order;
}

struct Golden {
  std::vector<uint64_t> order;
  double p50_s, p95_s, p99_s, makespan_s;
  uint64_t batches, compile_hits;
};

void ExpectMatchesGolden(const ScheduleReport& report, const Golden& golden) {
  EXPECT_EQ(DispatchOrder(report), golden.order);
  EXPECT_NEAR(report.LatencyPercentile(50).seconds(), golden.p50_s, 1e-6);
  EXPECT_NEAR(report.LatencyPercentile(95).seconds(), golden.p95_s, 1e-6);
  EXPECT_NEAR(report.LatencyPercentile(99).seconds(), golden.p99_s, 1e-6);
  EXPECT_NEAR(report.makespan.seconds(), golden.makespan_s, 1e-6);
  EXPECT_EQ(report.batches, golden.batches);
  EXPECT_EQ(report.compile_hits, golden.compile_hits);
}

// Regeneration aid (runs only with --gtest_also_run_disabled_tests): prints
// the golden literals below. Only paste new values for an *intentional*
// schedule change, and say why in the commit.
TEST(SchedulerGoldenTest, DISABLED_PrintGoldens) {
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    ScheduleReport r = RunGolden(policy, 0.0);
    std::printf("// %s\n{{", PolicyName(policy));
    for (uint64_t id : DispatchOrder(r)) std::printf("%llu, ",
        static_cast<unsigned long long>(id));
    std::printf("},\n %.9f, %.9f, %.9f, %.9f, %llu, %llu}\n",
                r.LatencyPercentile(50).seconds(),
                r.LatencyPercentile(95).seconds(),
                r.LatencyPercentile(99).seconds(), r.makespan.seconds(),
                static_cast<unsigned long long>(r.batches),
                static_cast<unsigned long long>(r.compile_hits));
  }
}

const Golden& GoldenFor(Policy policy) {
  static const std::map<Policy, Golden> goldens = {
      {Policy::kFcfs,
       {{0,  1,  2,  3,  4,  5,  6,  7,  8,  13, 9,  16, 10, 11,
         12, 14, 15, 17, 25, 18, 19, 20, 21, 22, 23, 24, 26, 27,
         31, 28, 29, 30, 32, 33, 35, 34, 36, 37, 38, 39},
        28.990068535, 44.741890129, 51.090790778, 126.129806968, 26, 36}},
      {Policy::kSjf,
       {{0,  1,  2,  3,  4, 5,  6,  7,  11, 12, 14, 15, 18, 19,
         20, 21, 22, 23, 9, 16, 24, 28, 29, 30, 26, 32, 33, 8,
         13, 35, 37, 36, 17, 25, 27, 31, 38, 39, 10, 34},
        6.777569800, 53.432328531, 78.424873021, 129.992746380, 30, 36}},
      {Policy::kRoundRobin,
       {{0,  1,  2,  3,  4,  5,  6,  7,  8,  13, 9,  16, 11, 12,
         10, 17, 25, 24, 26, 14, 15, 34, 27, 31, 36, 18, 19, 38,
         39, 20, 21, 22, 23, 28, 29, 30, 32, 33, 35, 37},
        32.445490629, 57.741801447, 59.297803183, 124.629806968, 26, 36}},
  };
  return goldens.at(policy);
}

TEST(SchedulerGoldenTest, FcfsScheduleIsPinned) {
  ExpectMatchesGolden(RunGolden(Policy::kFcfs, 0.0), GoldenFor(Policy::kFcfs));
}

TEST(SchedulerGoldenTest, SjfScheduleIsPinned) {
  ExpectMatchesGolden(RunGolden(Policy::kSjf, 0.0), GoldenFor(Policy::kSjf));
}

TEST(SchedulerGoldenTest, RoundRobinScheduleIsPinned) {
  ExpectMatchesGolden(RunGolden(Policy::kRoundRobin, 0.0),
                      GoldenFor(Policy::kRoundRobin));
}

/// The scheduler's default options (no affinity field touched) must equal
/// the explicit affinity_weight = 0 runs — i.e. the pinned PR 2 schedules.
TEST(SchedulerGoldenTest, DefaultOptionsReproduceTheGoldens) {
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    GoldenExecutor exec;
    Scheduler scheduler({.slots = 2, .policy = policy, .max_batch = 2},
                        &exec);
    auto report = scheduler.Run(GoldenStream());
    ASSERT_TRUE(report.ok());
    ExpectMatchesGolden(*report, GoldenFor(policy));
  }
}

/// Preemption off is the golden scheduler: explicit zero preemption and
/// batching-window knobs (with every other preemptive option primed) must
/// keep reproducing the pinned PR 3 schedules bit for bit, no matter how
/// the epoch-slicing machinery evolves.
TEST(SchedulerGoldenTest, PreemptionOffReproducesTheGoldens) {
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    GoldenExecutor exec;
    Scheduler scheduler({.slots = 2,
                         .policy = policy,
                         .max_batch = 2,
                         .sjf_aging_weight = 0,
                         .affinity_weight = 0,
                         .preemption_quantum_epochs = 0,
                         .context_switch_cost = dana::SimTime::Seconds(30),
                         .batch_window = dana::SimTime::Zero()},
                        &exec);
    auto report = scheduler.Run(GoldenStream());
    ASSERT_TRUE(report.ok());
    ExpectMatchesGolden(*report, GoldenFor(policy));
  }
}

/// Back-to-back runs are bit-for-bit identical — the property the CI
/// determinism step double-checks by diffing two -L sched_golden logs.
TEST(SchedulerGoldenTest, RepeatRunsAreBitForBit) {
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    ScheduleReport a = RunGolden(policy, 0.0);
    ScheduleReport b = RunGolden(policy, 0.0);
    ASSERT_EQ(a.queries.size(), b.queries.size());
    for (size_t i = 0; i < a.queries.size(); ++i) {
      EXPECT_EQ(a.queries[i].id, b.queries[i].id);
      EXPECT_EQ(a.queries[i].slot, b.queries[i].slot);
      EXPECT_EQ(a.queries[i].start.nanos(), b.queries[i].start.nanos());
      EXPECT_EQ(a.queries[i].completion.nanos(),
                b.queries[i].completion.nanos());
    }
  }
}

// ---------------------------------------------------------------------------
// Run-to-completion fixture
// ---------------------------------------------------------------------------

/// Dispatch-only view of a SlicedExecutor: it prices whole runs through
/// Dispatch and inherits the default Begin, so every execution is a single
/// indivisible slice.
class DispatchOnlyExecutor : public QueryExecutor {
 public:
  explicit DispatchOnlyExecutor(SlicedExecutor* inner) : inner_(inner) {}

  Result<BatchCost> Dispatch(const QueryBatch& batch) override {
    return inner_->Dispatch(batch);
  }
  Result<dana::SimTime> Estimate(const std::string& id) override {
    return inner_->Estimate(id);
  }
  Result<dana::SimTime> EstimateAtWarmth(const std::string& id,
                                         double warm_fraction) override {
    return inner_->EstimateAtWarmth(id, warm_fraction);
  }
  double WarmFraction(const std::string& id, uint32_t slot) override {
    return inner_->WarmFraction(id, slot);
  }

 private:
  SlicedExecutor* inner_;
};

/// Non-dyadic costs, so float reassociation in any sum shows in the bits.
SlicedExecutor FixtureExecutor() {
  SlicedExecutor e;
  e.Set("lookup", 1, 0.3, 0.7, 1.3, 0.2);
  e.Set("score", 2, 0.7, 0.3, 2.1, 0.1);
  e.Set("logit", 4, 1.3, 0.7, 7.7, 0.3);
  e.Set("svm", 6, 1.1, 0.9, 11.3, 0.7);
  e.Set("train", 12, 1.7, 0.9, 26.1, 0.9);
  e.Set("lrmf", 20, 2.3, 1.1, 55.3, 1.3);
  e.SetWarm("logit", 1, 0.3);
  e.SetWarm("train", 0, 0.7);
  e.SetWarmEstimate("logit", 5.3);
  e.SetWarmEstimate("train", 19.7);
  return e;
}

std::vector<QueryRequest> FixtureStream(uint64_t seed, uint32_t queries,
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

/// Every fixture configuration, named, with its report digest: open and
/// closed loop x epoch-sliced or Dispatch-only stub x plain batching or
/// affinity with SJF aging x policy x slot count; then interactive-class
/// queries with preemption and the window off, which leave the schedule
/// class-blind; then one short stream over the real DanaQueryExecutor.
/// Open-loop arrival rates scale with the slot count so queues form, and
/// policies differ, at every width.
std::vector<std::pair<std::string, uint64_t>> RtcDigests() {
  // Closed-loop scripts: one Zipfian stream dealt round-robin into eight
  // analyst sessions.
  std::vector<std::vector<std::string>> sessions(8);
  const std::vector<QueryRequest> dealt = FixtureStream(0x5E55, 48, 1.0);
  for (size_t i = 0; i < dealt.size(); ++i) {
    sessions[i % sessions.size()].push_back(dealt[i].workload_id);
  }
  std::vector<std::pair<std::string, uint64_t>> out;
  auto record = [&](std::string config,
                    const dana::Result<ScheduleReport>& report) {
    EXPECT_TRUE(report.ok()) << config << ": " << report.status().ToString();
    out.emplace_back(std::move(config),
                     report.ok() ? ReportDigest(*report) : 0);
  };
  for (bool closed : {false, true}) {
    for (bool sliced : {true, false}) {
      for (bool affinity : {false, true}) {
        for (Policy policy :
             {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
          for (uint32_t slots : {1u, 4u, 8u}) {
            if (closed && slots == 8) continue;
            SchedulerOptions opts{.slots = slots,
                                  .policy = policy,
                                  .max_batch = affinity ? 2u : 3u};
            if (affinity) {
              opts.sjf_aging_weight = 0.2;
              opts.affinity_weight = 0.5;
            }
            SlicedExecutor base = FixtureExecutor();
            DispatchOnlyExecutor dispatch_only(&base);
            QueryExecutor* exec =
                sliced ? static_cast<QueryExecutor*>(&base) : &dispatch_only;
            Scheduler scheduler(opts, exec);
            record(std::string(closed ? "closed/" : "open/") +
                       (sliced ? "sliced/" : "dispatch/") +
                       (affinity ? "affinity-aging/" : "plain/") +
                       PolicyName(policy) + "/x" + std::to_string(slots),
                   closed ? scheduler.RunClosedLoop(
                                sessions, dana::SimTime::Seconds(0.7))
                          : scheduler.Run(FixtureStream(
                                affinity ? 0xBEEF : 0xC0FFEE, 48,
                                0.4 * slots)));
          }
        }
      }
    }
  }

  std::vector<QueryClass> classes(sessions.size(), QueryClass::kBatch);
  for (size_t s = 0; s < classes.size(); s += 2) {
    classes[s] = QueryClass::kInteractive;
  }
  for (bool closed : {false, true}) {
    for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
      SlicedExecutor exec = FixtureExecutor();
      Scheduler scheduler({.slots = 4, .policy = policy, .max_batch = 3},
                          &exec);
      record(std::string(closed ? "closed/" : "open/") +
                 "sliced/interactive/" + PolicyName(policy) + "/x4",
             closed ? scheduler.RunClosedLoop(
                          sessions, dana::SimTime::Seconds(0.7), classes)
                    : scheduler.Run(FixtureStream(0x1A7E, 48, 1.6,
                                                  /*interactive_ranks=*/2)));
    }
  }

  DriverOptions dopts;
  dopts.seed = 0xDA7A;
  dopts.num_queries = 12;
  dopts.arrival_rate_qps = 0.03;
  dopts.popularity = Popularity::kZipfian;
  dopts.zipf_exponent = 1.2;
  WorkloadDriver driver({"wlan", "sn_lrmf", "sn_linear"}, dopts);
  auto stream = driver.Generate();
  EXPECT_TRUE(stream.ok());
  DanaQueryExecutor dana_exec;
  Scheduler scheduler({.slots = 2,
                       .policy = Policy::kSjf,
                       .max_batch = 2,
                       .affinity_weight = 0.5},
                      &dana_exec);
  record("open/dana/affinity/sjf/x2", scheduler.Run(*stream));
  return out;
}

// Regeneration aid (runs only with --gtest_also_run_disabled_tests): prints
// the fixture literals below. The recorded values came from the retired
// run-to-completion engine; never regenerate them to absorb a schedule
// change.
TEST(RunToCompletionFixtureTest, DISABLED_PrintDigests) {
  for (const auto& [config, digest] : RtcDigests()) {
    std::printf("    {\"%s\", 0x%016llxull},\n", config.c_str(),
                static_cast<unsigned long long>(digest));
  }
}

struct RtcDigest {
  const char* config;
  uint64_t digest;
};

const RtcDigest kRtcDigests[] = {
    {"open/sliced/plain/fcfs/x1", 0xa0b54dd080a180acull},
    {"open/sliced/plain/fcfs/x4", 0x787a9bb933ed1b21ull},
    {"open/sliced/plain/fcfs/x8", 0x45c685658ee0b619ull},
    {"open/sliced/plain/sjf/x1", 0xe684b1374b89983cull},
    {"open/sliced/plain/sjf/x4", 0x2de894a292a0e8adull},
    {"open/sliced/plain/sjf/x8", 0xac876eb66850d938ull},
    {"open/sliced/plain/rr/x1", 0x3178efc26a1cae03ull},
    {"open/sliced/plain/rr/x4", 0xaa80fd6d5a6a552full},
    {"open/sliced/plain/rr/x8", 0x6c75f291d8e06613ull},
    {"open/sliced/affinity-aging/fcfs/x1", 0x95db0bb14410b687ull},
    {"open/sliced/affinity-aging/fcfs/x4", 0xb3451e1bff168a2full},
    {"open/sliced/affinity-aging/fcfs/x8", 0xb292e56ffb77df2full},
    {"open/sliced/affinity-aging/sjf/x1", 0xa5d1b1906ddf8b2full},
    {"open/sliced/affinity-aging/sjf/x4", 0x4eb7d41c1d052794ull},
    {"open/sliced/affinity-aging/sjf/x8", 0xf976a7087823e4c7ull},
    {"open/sliced/affinity-aging/rr/x1", 0x3022689de8402b6cull},
    {"open/sliced/affinity-aging/rr/x4", 0x9ee327caa66814b3ull},
    {"open/sliced/affinity-aging/rr/x8", 0xdb8a3e9be264ba88ull},
    {"open/dispatch/plain/fcfs/x1", 0xa0b54dd080a180acull},
    {"open/dispatch/plain/fcfs/x4", 0x787a9bb933ed1b21ull},
    {"open/dispatch/plain/fcfs/x8", 0x45c685658ee0b619ull},
    {"open/dispatch/plain/sjf/x1", 0xe684b1374b89983cull},
    {"open/dispatch/plain/sjf/x4", 0x2de894a292a0e8adull},
    {"open/dispatch/plain/sjf/x8", 0xac876eb66850d938ull},
    {"open/dispatch/plain/rr/x1", 0x3178efc26a1cae03ull},
    {"open/dispatch/plain/rr/x4", 0xaa80fd6d5a6a552full},
    {"open/dispatch/plain/rr/x8", 0x6c75f291d8e06613ull},
    {"open/dispatch/affinity-aging/fcfs/x1", 0x95db0bb14410b687ull},
    {"open/dispatch/affinity-aging/fcfs/x4", 0xb3451e1bff168a2full},
    {"open/dispatch/affinity-aging/fcfs/x8", 0xb292e56ffb77df2full},
    {"open/dispatch/affinity-aging/sjf/x1", 0xa5d1b1906ddf8b2full},
    {"open/dispatch/affinity-aging/sjf/x4", 0x4eb7d41c1d052794ull},
    {"open/dispatch/affinity-aging/sjf/x8", 0xf976a7087823e4c7ull},
    {"open/dispatch/affinity-aging/rr/x1", 0x3022689de8402b6cull},
    {"open/dispatch/affinity-aging/rr/x4", 0x9ee327caa66814b3ull},
    {"open/dispatch/affinity-aging/rr/x8", 0xdb8a3e9be264ba88ull},
    {"closed/sliced/plain/fcfs/x1", 0x117960557f341fffull},
    {"closed/sliced/plain/fcfs/x4", 0xeb15368649f3fd8aull},
    {"closed/sliced/plain/sjf/x1", 0x9079d4bb62a86d79ull},
    {"closed/sliced/plain/sjf/x4", 0x9c62ede4e069c1b4ull},
    {"closed/sliced/plain/rr/x1", 0x451e7b66ce9add0aull},
    {"closed/sliced/plain/rr/x4", 0xb7f219264d2a0f77ull},
    {"closed/sliced/affinity-aging/fcfs/x1", 0x51acb84052172affull},
    {"closed/sliced/affinity-aging/fcfs/x4", 0x59a286036ef73da0ull},
    {"closed/sliced/affinity-aging/sjf/x1", 0x5baec16474be8034ull},
    {"closed/sliced/affinity-aging/sjf/x4", 0xa8bbef5cc7a38c70ull},
    {"closed/sliced/affinity-aging/rr/x1", 0xcb61b123027e16bbull},
    {"closed/sliced/affinity-aging/rr/x4", 0xd93b5beb8cf6bf62ull},
    {"closed/dispatch/plain/fcfs/x1", 0x117960557f341fffull},
    {"closed/dispatch/plain/fcfs/x4", 0xeb15368649f3fd8aull},
    {"closed/dispatch/plain/sjf/x1", 0x9079d4bb62a86d79ull},
    {"closed/dispatch/plain/sjf/x4", 0x9c62ede4e069c1b4ull},
    {"closed/dispatch/plain/rr/x1", 0x451e7b66ce9add0aull},
    {"closed/dispatch/plain/rr/x4", 0xb7f219264d2a0f77ull},
    {"closed/dispatch/affinity-aging/fcfs/x1", 0x51acb84052172affull},
    {"closed/dispatch/affinity-aging/fcfs/x4", 0x59a286036ef73da0ull},
    {"closed/dispatch/affinity-aging/sjf/x1", 0x5baec16474be8034ull},
    {"closed/dispatch/affinity-aging/sjf/x4", 0xa8bbef5cc7a38c70ull},
    {"closed/dispatch/affinity-aging/rr/x1", 0xcb61b123027e16bbull},
    {"closed/dispatch/affinity-aging/rr/x4", 0xd93b5beb8cf6bf62ull},
    {"open/sliced/interactive/fcfs/x4", 0x8d9f75e9d1c9829cull},
    {"open/sliced/interactive/sjf/x4", 0xd81c7f79e23553e1ull},
    {"open/sliced/interactive/rr/x4", 0x1b0418ede7ed7bd0ull},
    {"closed/sliced/interactive/fcfs/x4", 0x53a6904abdc83728ull},
    {"closed/sliced/interactive/sjf/x4", 0xe7eeefb7ffc47e32ull},
    {"closed/sliced/interactive/rr/x4", 0x13ebdbb3f4a375e1ull},
    {"open/dana/affinity/sjf/x2", 0xe7ab3e881f697fc6ull},
};

TEST(RunToCompletionFixtureTest, EventEngineReproducesEveryDigest) {
  const auto got = RtcDigests();
  ASSERT_EQ(got.size(), std::size(kRtcDigests));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, kRtcDigests[i].config);
    EXPECT_EQ(got[i].second, kRtcDigests[i].digest) << got[i].first;
  }
}

}  // namespace
}  // namespace dana::sched
