// Physical shared-pool residency suite (ctest label: sched_pool).
//
// Per-workload tables are generated at different scales, so the executor
// owns one scale-normalized shared storage::BufferPool per slot — each
// workload's sweep covers WorkloadInstance::NormalizedPages logical pages,
// so tables meet in consistent paper-scale units — and the pool's
// per-table frame accounting is the only residency state dispatches are
// charged from. This suite pins:
//  - the normalization (paper-ratio-preserving, scale-free);
//  - co-location: clock-sweep eviction takes frames in hand order, so the
//    first-installed table loses the most, and the executor charges
//    exactly what the pool holds;
//  - the per-table partition of every pool across random sequences;
//  - multi-epoch slices sweeping min(epochs, 2) times;
//  - bit-for-bit determinism across repeat runs (CI runs this label twice
//    and diffs the logs).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "ml/workloads.h"
#include "runtime/systems.h"
#include "sched/executor.h"
#include "storage/buffer_pool.h"

namespace dana::sched {
namespace {

/// `id`'s workload instance, built once per test binary: dataset
/// generation is the slow part of building one, and the tests only read
/// its table's paper-scale ratio and normalized footprint.
const runtime::WorkloadInstance& SharedInstance(const std::string& id) {
  static auto* instances =
      new std::map<std::string, std::unique_ptr<runtime::WorkloadInstance>>();
  auto it = instances->find(id);
  if (it == instances->end()) {
    const ml::Workload* w = ml::FindWorkload(id);
    DANA_CHECK(w != nullptr) << "unknown workload " << id;
    it = instances
             ->emplace(id, std::move(runtime::WorkloadInstance::Create(*w))
                               .ValueOrDie())
             .first;
  }
  return *it->second;
}

/// Paper-scale pool ratio of a workload: table bytes over the paper's 8 GB
/// shared_buffers — what NormalizedPages must preserve in a shared pool.
double PaperRatio(const std::string& id) {
  return SharedInstance(id).PoolSizeRatio();
}

TEST(NormalizedPagesTest, PreservesPaperRatiosScaleFree) {
  // The co-location fixtures below rely on these workloads partially
  // filling a shared pool; pin the regime (not exact values, which track
  // the generators).
  const double lrmf_small = PaperRatio("sn_lrmf");
  const double linear = PaperRatio("sn_linear");
  const double lrmf_big = PaperRatio("se_lrmf");
  EXPECT_GT(lrmf_small, 0.05);
  EXPECT_LT(lrmf_small, 0.5);
  EXPECT_GT(linear, 0.3);
  EXPECT_LT(linear, 0.8);
  EXPECT_GT(lrmf_big, 0.5);
  EXPECT_LT(lrmf_big, 1.0);
  // NormalizedPages is the ratio times the shared frame count, floored at
  // one page, at any resolution.
  const runtime::WorkloadInstance& instance = SharedInstance("sn_linear");
  for (uint64_t frames : {64ull, 4096ull, 65536ull}) {
    const uint64_t pages = instance.NormalizedPages(frames);
    EXPECT_NEAR(static_cast<double>(pages),
                instance.PoolSizeRatio() * static_cast<double>(frames), 1.0)
        << frames;
    EXPECT_GE(pages, 1u);
  }
  // A tiny workload still occupies at least one frame.
  EXPECT_GE(SharedInstance("wlan").NormalizedPages(64), 1u);
}

TEST(PhysicalPoolTest, ChargesAndIntrospectionComeFromThePool) {
  DanaQueryExecutor executor;  // defaults: physical pools on
  // Fresh slot: the pool is empty, the charge is genuinely cold.
  auto cold = executor.Dispatch(QueryBatch::Single("wlan", 0, 0));
  ASSERT_TRUE(cold.ok());
  EXPECT_DOUBLE_EQ(cold->warm_fraction, 0.0);
  EXPECT_TRUE(cold->residency_modeled);
  // The run's sweep is physically visible: the workload's normalized
  // footprint resident, the pool's last_table names it.
  const uint64_t pages = SharedInstance("wlan").NormalizedPages(4096);
  storage::BufferPool* pool = executor.slot_pool(0);
  EXPECT_EQ(pool->resident_frames("wlan"), pages);
  EXPECT_EQ(pool->last_table(), "wlan");
  EXPECT_DOUBLE_EQ(executor.WarmFraction("wlan", 0), 1.0);
  // The warm repeat charges the measured warm endpoint, strictly faster.
  auto warm = executor.Dispatch(QueryBatch::Single("wlan", 1, 0));
  ASSERT_TRUE(warm.ok());
  EXPECT_DOUBLE_EQ(warm->warm_fraction, 1.0);
  EXPECT_LT(warm->service.nanos(), cold->service.nanos());
  // Other slots' pools are independent — still cold.
  EXPECT_DOUBLE_EQ(executor.WarmFraction("wlan", 1), 0.0);
  // ResetResidency clears the physical pools.
  executor.ResetResidency();
  EXPECT_DOUBLE_EQ(executor.WarmFraction("wlan", 0), 0.0);
  EXPECT_EQ(executor.slot_pool(0)->resident_frames(), 0u);
}

/// The three tables the co-location fixtures run on one slot, in dispatch
/// order: small (sn_lrmf) then mid (sn_linear) fill the pool partially;
/// big (se_lrmf)'s sweep needs more than the free space, and the clock
/// hand takes the *small* table's frames first.
const char* const kCoLocated[] = {"sn_lrmf", "sn_linear", "se_lrmf"};

void DriveCoLocation(DanaQueryExecutor& executor) {
  for (const char* id : kCoLocated) {
    auto cost = executor.Dispatch(QueryBatch::Single(id, 0, 0));
    ASSERT_TRUE(cost.ok()) << id;
  }
}

TEST(CoLocationTest, ChargesFollowClockHandEvictionOrder) {
  DanaQueryExecutor executor;
  DriveCoLocation(executor);

  // Hand order: the first-installed table lost strictly more.
  const double pool_small = executor.WarmFraction("sn_lrmf", 0);
  const double pool_mid = executor.WarmFraction("sn_linear", 0);
  EXPECT_GT(pool_mid, 0.0);
  EXPECT_LT(pool_small, pool_mid);

  // The slot pool is exactly a bare pool of the same geometry swept in the
  // same order, min(epochs, 2) passes per run: no state besides the pool
  // enters the charge.
  storage::BufferPool replay =
      storage::BufferPool::SizedInFrames(4096, 32 * 1024, storage::DiskModel{});
  for (const char* id : kCoLocated) {
    const runtime::WorkloadInstance& instance = SharedInstance(id);
    const uint64_t pages = instance.NormalizedPages(4096);
    for (uint32_t pass = 0;
         pass < std::min<uint32_t>(instance.workload().params.epochs, 2);
         ++pass) {
      replay.ScanTable(id, pages);
    }
  }
  const storage::BufferPool* pool = executor.slot_pool(0);
  EXPECT_EQ(pool->version(), replay.version());
  for (const char* id : kCoLocated) {
    EXPECT_EQ(pool->resident_frames(id), replay.resident_frames(id)) << id;
  }

  // The executor charges what the pool holds: the next dispatch's
  // warm_fraction is the pool's measured share.
  auto exec = executor.Begin(QueryBatch::Single("sn_linear", 1, 0));
  ASSERT_TRUE(exec.ok());
  EXPECT_DOUBLE_EQ((*exec)->warm_fraction(), pool_mid);
}

TEST(CoLocationTest, RepeatRunsAreBitForBit) {
  // The property CI double-checks by diffing two -L sched_pool logs: the
  // physical pools must not introduce any run-to-run nondeterminism.
  auto run = [] {
    DanaQueryExecutor executor;
    DriveCoLocation(executor);
    std::vector<double> out;
    for (const char* id : kCoLocated) {
      out.push_back(executor.WarmFraction(id, 0));
      auto cost = executor.Dispatch(QueryBatch::Single(id, 1, 0));
      EXPECT_TRUE(cost.ok());
      out.push_back(cost->warm_fraction);
      out.push_back(cost->service.nanos());
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

/// Property: over any random dispatch sequence, (1) every charged
/// warm_fraction equals the slot pool's resident share at dispatch time,
/// and (2) per-table frames partition each pool, which they never
/// overflow.
TEST(CoLocationTest, PropertyChargesAlwaysMatchPoolState) {
  const std::vector<std::string> ids = {"sn_lrmf", "sn_linear", "se_lrmf"};
  DanaQueryExecutor executor;
  dana::Rng seq(0x9001);
  uint64_t next_query = 0;
  for (int step = 0; step < 24; ++step) {
    const std::string& id = ids[seq.UniformInt(ids.size())];
    const uint32_t slot = static_cast<uint32_t>(seq.UniformInt(2));
    const double expected = executor.WarmFraction(id, slot);
    auto cost = executor.Dispatch(QueryBatch::Single(id, next_query++, slot));
    ASSERT_TRUE(cost.ok());
    EXPECT_DOUBLE_EQ(cost->warm_fraction, expected);
    for (uint32_t s = 0; s < 2; ++s) {
      const storage::BufferPool* pool = executor.slot_pool(s);
      uint64_t per_table = 0;
      for (const std::string& t : ids) per_table += pool->resident_frames(t);
      EXPECT_EQ(per_table, pool->resident_frames());
      EXPECT_LE(pool->resident_frames(), pool->num_frames());
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-epoch slice fidelity (the oversized-table regression)
// ---------------------------------------------------------------------------

/// A multi-epoch run re-reads its table every epoch. For a fitting table
/// the second and later passes are pure hits — one sweep already tells the
/// whole story — but an OVERSIZED table (PoolSizeRatio > 1) wraps the
/// clock hand every pass: each extra sweep evicts and refaults, churning
/// co-located tables and the pool's turnover counters. The slice path used
/// to charge a single sweep per slice regardless of the epoch count,
/// understating that churn; it now sweeps min(epochs, 2) times — pass two
/// is the steady state, so two passes capture the wraparound without
/// paying the full epoch budget. This pins the fix by replaying the exact
/// sweep sequences on bare pools: the executor's end state must match the
/// two-pass replay and must NOT match the old one-pass behavior.
TEST(MultiEpochSliceTest, OversizedTableChargesTheSteadyStateSweep) {
  const ml::Workload* small_w = ml::FindWorkload("sn_lrmf");
  const ml::Workload* big_w = ml::FindWorkload("se_logistic");
  ASSERT_NE(small_w, nullptr);
  ASSERT_NE(big_w, nullptr);
  const runtime::WorkloadInstance& big_instance =
      SharedInstance("se_logistic");
  // Fixture preconditions: the big table overflows the pool and its run
  // spans enough epochs that the second sweep actually happens.
  ASSERT_GT(big_instance.PoolSizeRatio(), 1.0);
  ASSERT_GE(big_w->params.epochs, 2u);
  ASSERT_EQ(small_w->params.epochs, 1u);

  DanaQueryExecutor executor;
  ASSERT_TRUE(executor.Dispatch(QueryBatch::Single("sn_lrmf", 0, 0)).ok());
  ASSERT_TRUE(executor.Dispatch(QueryBatch::Single("se_logistic", 1, 0)).ok());
  const storage::BufferPool* pool = executor.slot_pool(0);

  // Replay the charged sweep sequence on a bare pool of the executor's
  // exact geometry: one pass of the small table (one epoch, one sweep),
  // two of the oversized one.
  const uint64_t small_pages =
      SharedInstance("sn_lrmf").NormalizedPages(4096);
  const uint64_t big_pages = big_instance.NormalizedPages(4096);
  ASSERT_GT(big_pages, 4096u);

  storage::BufferPool two_pass =
      storage::BufferPool::SizedInFrames(4096, 32 * 1024, storage::DiskModel{});
  two_pass.ScanTable("sn_lrmf", small_pages);
  two_pass.ScanTable("se_logistic", big_pages);
  two_pass.ScanTable("se_logistic", big_pages);
  EXPECT_EQ(pool->version(), two_pass.version());
  EXPECT_EQ(pool->stats().misses, two_pass.stats().misses);
  EXPECT_EQ(pool->stats().evictions, two_pass.stats().evictions);
  EXPECT_EQ(pool->resident_frames("se_logistic"),
            two_pass.resident_frames("se_logistic"));
  EXPECT_EQ(pool->resident_frames("sn_lrmf"),
            two_pass.resident_frames("sn_lrmf"));

  // The pre-fix single sweep is observably different: the wraparound
  // pass's churn is missing from the turnover counters. (Per-table
  // residency alone cannot distinguish the two — the steady state parks
  // the same frames — which is why the divergence hid in multi-epoch
  // runs until the turnover was pinned.)
  storage::BufferPool one_pass =
      storage::BufferPool::SizedInFrames(4096, 32 * 1024, storage::DiskModel{});
  one_pass.ScanTable("sn_lrmf", small_pages);
  one_pass.ScanTable("se_logistic", big_pages);
  EXPECT_NE(pool->version(), one_pass.version());
  EXPECT_NE(pool->stats().misses, one_pass.stats().misses);
  EXPECT_EQ(pool->resident_frames("se_logistic"),
            one_pass.resident_frames("se_logistic"));
}

/// Fitting tables must be unaffected by the cap: their second pass is a
/// complete no-op (pure hits, no installs), so multi-epoch runs charge
/// exactly what single-epoch runs always did.
TEST(MultiEpochSliceTest, FittingTableSecondSweepIsANoOp) {
  const runtime::WorkloadInstance& instance = SharedInstance("sn_linear");
  ASSERT_LT(instance.PoolSizeRatio(), 1.0);
  ASSERT_GE(instance.workload().params.epochs, 2u);

  DanaQueryExecutor executor;
  ASSERT_TRUE(executor.Dispatch(QueryBatch::Single("sn_linear", 0, 0)).ok());
  const storage::BufferPool* pool = executor.slot_pool(0);
  const uint64_t pages = instance.NormalizedPages(4096);

  storage::BufferPool one_pass =
      storage::BufferPool::SizedInFrames(4096, 32 * 1024, storage::DiskModel{});
  one_pass.ScanTable("sn_linear", pages);
  EXPECT_EQ(pool->version(), one_pass.version());
  EXPECT_EQ(pool->resident_frames("sn_linear"),
            one_pass.resident_frames("sn_linear"));
  EXPECT_EQ(pool->stats().misses, one_pass.stats().misses);
  EXPECT_DOUBLE_EQ(executor.WarmFraction("sn_linear", 0), 1.0);
}

}  // namespace
}  // namespace dana::sched
