#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/eviction_policy.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dana::storage {
namespace {

// ---------------------------------------------------------------------------
// Clock bit-compatibility
// ---------------------------------------------------------------------------

/// Reference implementation of the seed buffer pool's replacement: frames
/// fill in order, each hit sets the frame's reference bit, and a full pool
/// runs the classic second-chance hand sweep from where it last stopped.
/// The refactored pool delegates victim selection to ClockEvictionPolicy;
/// this simulator pins that the delegation reproduced the seed behaviour
/// decision for decision.
class ReferenceClock {
 public:
  explicit ReferenceClock(size_t frames) : ref_(frames, 0) {}

  /// Touches (table, page); returns true on hit. `evicted` reports the
  /// frame index evicted this touch, or -1.
  bool Touch(uint32_t table, uint64_t page, int* evicted) {
    *evicted = -1;
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i].first == table && keys_[i].second == page) {
        ref_[i] = 1;
        return true;
      }
    }
    if (keys_.size() < ref_.size()) {
      keys_.emplace_back(table, page);
      ref_[keys_.size() - 1] = 1;
      return false;
    }
    while (ref_[hand_] != 0) {
      ref_[hand_] = 0;
      hand_ = (hand_ + 1) % ref_.size();
    }
    *evicted = static_cast<int>(hand_);
    ++evictions_;
    keys_[hand_] = {table, page};
    ref_[hand_] = 1;
    hand_ = (hand_ + 1) % ref_.size();
    return false;
  }

  uint64_t evictions() const { return evictions_; }
  size_t resident() const { return keys_.size(); }

 private:
  std::vector<std::pair<uint32_t, uint64_t>> keys_;
  std::vector<uint8_t> ref_;
  size_t hand_ = 0;
  uint64_t evictions_ = 0;
};

TEST(ClockCompatTest, MatchesReferenceClockOnRandomTrace) {
  constexpr size_t kFrames = 16;
  auto pool = BufferPool::SizedInFrames(kFrames, 8 * 1024, DiskModel{},
                                        EvictionKind::kClock,
                                        /*os_frames=*/0);
  ReferenceClock ref(kFrames);
  const uint32_t t0 = pool.InternTable("a");
  const uint32_t t1 = pool.InternTable("b");
  // Deterministic mixed trace: two tables, 48 distinct pages, enough
  // re-references that reference bits and hand position both matter.
  uint64_t x = 0x243F6A8885A308D3ull;
  for (int step = 0; step < 4000; ++step) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t table = (x >> 33) & 1 ? t1 : t0;
    const uint64_t page = (x >> 40) % 24;
    int evicted = -1;
    const bool ref_hit = ref.Touch(table, page, &evicted);
    const bool pool_hit = pool.TouchPage(table, page);
    ASSERT_EQ(pool_hit, ref_hit) << "step " << step;
    ASSERT_EQ(pool.resident_frames(), ref.resident()) << "step " << step;
    ASSERT_EQ(pool.stats().evictions, ref.evictions()) << "step " << step;
  }
  EXPECT_GT(pool.stats().evictions, 0u);
}

TEST(ClockCompatTest, OversizedScanKeepsMissingOnRescan) {
  // The seed invariant the sched suites depend on: a cyclic sequential
  // scan of a table larger than the pool never hits (each touch evicts
  // the page the scan will want next).
  auto pool = BufferPool::SizedInFrames(8, 8 * 1024, DiskModel{},
                                        EvictionKind::kClock, 0);
  const uint32_t tid = pool.InternTable("big");
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t p = 0; p < 12; ++p) {
      EXPECT_FALSE(pool.TouchPage(tid, p)) << "pass " << pass << " p " << p;
    }
  }
  EXPECT_EQ(pool.resident_frames(), 8u);
}

// ---------------------------------------------------------------------------
// LRU vs clock divergence
// ---------------------------------------------------------------------------

TEST(LruEvictionTest, DivergesFromClockOnCraftedTrace) {
  // Crafted 3-frame trace where recency order and hand order part ways:
  //   touch 0,1,2 (fill), 3 (evict 0), 4 (evict 1), 2 (hit), 5
  // At the last touch clock's hand sweep clears every reference bit and
  // evicts page 2 (the only hit of the trace), while LRU protects the
  // recently-used page 2 and evicts page 3 (the least recent).
  auto clock_pool = BufferPool::SizedInFrames(3, 8 * 1024, DiskModel{},
                                              EvictionKind::kClock, 0);
  auto lru_pool = BufferPool::SizedInFrames(3, 8 * 1024, DiskModel{},
                                            EvictionKind::kLru, 0);
  for (BufferPool* pool : {&clock_pool, &lru_pool}) {
    const uint32_t tid = pool->InternTable("t");
    for (uint64_t p : {0u, 1u, 2u, 3u, 4u}) {
      EXPECT_FALSE(pool->TouchPage(tid, p));
    }
    EXPECT_TRUE(pool->TouchPage(tid, 2));
    EXPECT_FALSE(pool->TouchPage(tid, 5));
  }
  // The policies now disagree about page 2.
  EXPECT_FALSE(clock_pool.TouchPage(clock_pool.InternTable("t"), 2));
  EXPECT_TRUE(lru_pool.TouchPage(lru_pool.InternTable("t"), 2));
}

// ---------------------------------------------------------------------------
// Promotional (SLRU-style) promotion/demotion order
// ---------------------------------------------------------------------------

TEST(PromotionalEvictionTest, ReReferencePromotesAndProbationEvictsFirst) {
  // 4 frames, protected capacity 2. Insert 0..3 (all probationary), then
  // re-reference 1 and 0 (promote to protected), then 2 (protected
  // overflows, demoting 1 back to probationary MRU). The next miss must
  // take the probationary LRU — page 3, never touched since insert.
  auto pool = BufferPool::SizedInFrames(4, 8 * 1024, DiskModel{},
                                        EvictionKind::kPromotional, 0);
  const uint32_t tid = pool.InternTable("t");
  for (uint64_t p : {0u, 1u, 2u, 3u}) {
    EXPECT_FALSE(pool.TouchPage(tid, p));
  }
  EXPECT_TRUE(pool.TouchPage(tid, 1));  // probation -> protected
  EXPECT_TRUE(pool.TouchPage(tid, 0));  // probation -> protected (full)
  EXPECT_TRUE(pool.TouchPage(tid, 2));  // promotes; demotes 1 to probation
  EXPECT_FALSE(pool.TouchPage(tid, 4));  // evicts probationary LRU = 3
  EXPECT_TRUE(pool.TouchPage(tid, 1));
  EXPECT_TRUE(pool.TouchPage(tid, 0));
  EXPECT_TRUE(pool.TouchPage(tid, 2));
  EXPECT_FALSE(pool.TouchPage(tid, 3));  // 3 was the victim
}

TEST(PromotionalEvictionTest, ProtectedSurvivesScanFlood) {
  // The ZNCache property the tier sweep banks on: a hot, re-referenced
  // working set in the protected segment survives a one-pass cold scan
  // that would flood clock or LRU.
  auto pool = BufferPool::SizedInFrames(8, 8 * 1024, DiskModel{},
                                        EvictionKind::kPromotional, 0);
  const uint32_t hot = pool.InternTable("hot");
  const uint32_t cold = pool.InternTable("cold");
  for (uint64_t p = 0; p < 4; ++p) pool.TouchPage(hot, p);
  for (uint64_t p = 0; p < 4; ++p) EXPECT_TRUE(pool.TouchPage(hot, p));
  for (uint64_t p = 0; p < 16; ++p) pool.TouchPage(cold, p);  // flood
  for (uint64_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(pool.TouchPage(hot, p)) << "hot page " << p;
  }
}

// ---------------------------------------------------------------------------
// OS-tier admission after saturation (the fixed bug) and demotion cascade
// ---------------------------------------------------------------------------

TEST(PageTierTest, FullTierEvictsInsteadOfRefusingAdmission) {
  // The legacy os_cached_ set admitted until full and then never changed:
  // a page first read after saturation could never become OS-cached. The
  // PageTier must instead displace a victim — for every policy.
  for (EvictionKind kind : {EvictionKind::kClock, EvictionKind::kLru,
                            EvictionKind::kPromotional}) {
    PageTier tier(kind, 3);
    const PageKey k1{0, 1}, k2{0, 2}, k3{0, 3}, k4{0, 4};
    EXPECT_FALSE(tier.Insert(k1, nullptr));
    EXPECT_FALSE(tier.Insert(k2, nullptr));
    EXPECT_FALSE(tier.Insert(k3, nullptr));
    ASSERT_EQ(tier.resident(), 3u);
    tier.Touch(k2);  // k2 is hot; a sane policy spares it
    PageKey evicted{0, 0};
    EXPECT_TRUE(tier.Insert(k4, &evicted)) << EvictionKindName(kind);
    EXPECT_TRUE(tier.Contains(k4)) << EvictionKindName(kind);
    EXPECT_FALSE(evicted == k2 && tier.Contains(k2) == false)
        << EvictionKindName(kind);
    EXPECT_TRUE(tier.Contains(k2)) << EvictionKindName(kind);
    EXPECT_EQ(tier.resident(), 3u);
    EXPECT_EQ(tier.evictions(), 1u);
  }
}

TEST(TieredPoolTest, PostSaturationHotPageDisplacesColdOne) {
  // End to end through the BufferPool: with an evicting OS tier, a page
  // demoted after the tier saturates still gets admitted (displacing a
  // colder one) — the regression the never-evicting set failed.
  auto pool = BufferPool::SizedInFrames(2, 8 * 1024, DiskModel{},
                                        EvictionKind::kLru,
                                        /*os_frames=*/2);
  const uint32_t tid = pool.InternTable("t");
  // Touch 0..5: the pool keeps the trailing 2 pages, the OS tier receives
  // the demotions and keeps ITS trailing 2 — the tier kept evicting long
  // after it first filled.
  for (uint64_t p = 0; p < 6; ++p) pool.TouchPage(tid, p);
  EXPECT_EQ(pool.tier_resident_frames(BufferPool::kOsTier), 2u);
  EXPECT_GT(pool.stats().os_evictions, 0u);
  // Pool holds {4, 5}; OS tier holds the latest demotions {2, 3}.
  EXPECT_TRUE(pool.TouchPage(tid, 4));
  EXPECT_TRUE(pool.TouchPage(tid, 5));
  const uint64_t os_hits_before = pool.stats().os_hits;
  pool.TouchPage(tid, 3);  // OS-tier hit: promoted back into the pool
  EXPECT_EQ(pool.stats().os_hits, os_hits_before + 1);
}

TEST(TieredPoolTest, OsHitPromotesAndExclusivityHolds) {
  auto pool = BufferPool::SizedInFrames(2, 8 * 1024, DiskModel{},
                                        EvictionKind::kLru, 4);
  const uint32_t tid = pool.InternTable("t");
  for (uint64_t p = 0; p < 4; ++p) pool.TouchPage(tid, p);
  // Pool {2, 3}; OS {0, 1}. A page is never in both tiers at once.
  EXPECT_EQ(pool.resident_frames(), 2u);
  EXPECT_EQ(pool.tier_resident_frames(BufferPool::kOsTier), 2u);
  pool.TouchPage(tid, 0);  // promote 0; demote pool victim (2) to OS
  EXPECT_TRUE(pool.TouchPage(tid, 0));
  EXPECT_EQ(pool.resident_frames() +
                pool.tier_resident_frames(BufferPool::kOsTier),
            4u);
  EXPECT_EQ(pool.stats().os_hits, 1u);
}

TEST(TieredPoolTest, SsdTierCatchesOsDemotions) {
  // Optional third tier: OS victims cascade to the SSD-style capacity
  // tier instead of dropping.
  auto pool = BufferPool::SizedInFrames(2, 8 * 1024, DiskModel{},
                                        EvictionKind::kLru,
                                        /*os_frames=*/2, /*ssd_frames=*/4);
  const uint32_t tid = pool.InternTable("t");
  for (uint64_t p = 0; p < 8; ++p) pool.TouchPage(tid, p);
  EXPECT_EQ(pool.resident_frames(), 2u);
  EXPECT_EQ(pool.tier_resident_frames(BufferPool::kOsTier), 2u);
  EXPECT_GT(pool.tier_resident_frames(BufferPool::kSsdTier), 0u);
  const uint64_t ssd_hits_before = pool.stats().ssd_hits;
  pool.TouchPage(tid, 2);  // long-demoted page: only the SSD tier has it
  EXPECT_EQ(pool.stats().ssd_hits, ssd_hits_before + 1);
}

TEST(TieredPoolTest, TierResidentShareSplitsByTable) {
  auto pool = BufferPool::SizedInFrames(4, 8 * 1024, DiskModel{},
                                        EvictionKind::kPromotional, 8);
  const uint32_t a = pool.InternTable("a");
  const uint32_t b = pool.InternTable("b");
  pool.ScanTable(a, 8);
  pool.ScanTable(b, 4);
  const double a_pool = pool.ResidentShare(a, 8);
  const double a_os = pool.TierResidentShare(BufferPool::kOsTier, a, 8);
  const double b_pool = pool.ResidentShare(b, 4);
  const double b_os = pool.TierResidentShare(BufferPool::kOsTier, b, 4);
  // Shares are per-table fractions in [0, 1]; the tiers are exclusive, so
  // each table's pool + OS shares never exceed 1, and b's scan displaced
  // a into the tier.
  EXPECT_LE(a_pool + a_os, 1.0 + 1e-12);
  EXPECT_LE(b_pool + b_os, 1.0 + 1e-12);
  EXPECT_GT(a_os, 0.0);
  EXPECT_GT(b_pool, 0.0);
}

TEST(TieredPoolTest, ClearResetsEveryTier) {
  auto pool = BufferPool::SizedInFrames(2, 8 * 1024, DiskModel{},
                                        EvictionKind::kLru, 2, 2);
  const uint32_t tid = pool.InternTable("t");
  for (uint64_t p = 0; p < 8; ++p) pool.TouchPage(tid, p);
  pool.Clear();
  EXPECT_EQ(pool.resident_frames(), 0u);
  EXPECT_EQ(pool.tier_resident_frames(BufferPool::kOsTier), 0u);
  EXPECT_EQ(pool.tier_resident_frames(BufferPool::kSsdTier), 0u);
  // And the trace replays identically from the cleared state.
  for (uint64_t p = 0; p < 8; ++p) EXPECT_FALSE(pool.TouchPage(tid, p));
  EXPECT_EQ(pool.tier_resident_frames(BufferPool::kOsTier), 2u);
}

// ---------------------------------------------------------------------------
// Dense page index: sparse pages, counts, Clear, and the page-number bound
// ---------------------------------------------------------------------------

TEST(PageIndexTest, SetFindEraseKeepCounts) {
  PageIndex index;
  EXPECT_EQ(index.Find({0, 5}), PageIndex::kAbsent);
  EXPECT_EQ(index.Erase({0, 5}), PageIndex::kAbsent);
  EXPECT_TRUE(index.Set({2, 1000000}, 7));
  EXPECT_TRUE(index.Set({2, 3}, 0));  // slot 0 is stored, not "absent"
  EXPECT_FALSE(index.Set({2, 1000000}, 9));  // remap, not a new page
  EXPECT_EQ(index.Find({2, 1000000}), 9u);
  EXPECT_EQ(index.Find({2, 3}), 0u);
  EXPECT_FALSE(index.Contains({2, 999999}));
  EXPECT_FALSE(index.Contains({1, 3}));
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.size(2), 2u);
  EXPECT_EQ(index.size(0), 0u);
  EXPECT_EQ(index.size(99), 0u);
  EXPECT_EQ(index.Erase({2, 1000000}), 9u);
  EXPECT_EQ(index.Erase({2, 1000000}), PageIndex::kAbsent);
  EXPECT_EQ(index.size(2), 1u);
  // Clear erases through slot -> key records, as a tier keeps them: slot 0
  // is live, slots 7 and 9 are stale (remapped, then erased) and skipped.
  std::vector<PageKey> slot_keys(10, PageKey{0, 0});
  slot_keys[0] = {2, 3};
  slot_keys[7] = {2, 1000000};
  slot_keys[9] = {2, 1000000};
  index.Clear(slot_keys.size(),
              [&](size_t slot) { return slot_keys[slot]; });
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.size(2), 0u);
  EXPECT_FALSE(index.Contains({2, 3}));
}

TEST(PageIndexTest, SparseHighPageInstallsCountsAndClears) {
  // Page 1,000,000 of a fresh table, in every tier shape: the pool holds
  // it alone (its neighbours stay absent), counts it once, forgets it on
  // Clear, and demotes and promotes it through the lower tiers.
  constexpr uint64_t kHigh = 1000000;
  for (EvictionKind kind : {EvictionKind::kClock, EvictionKind::kLru,
                            EvictionKind::kPromotional}) {
    const bool tiers = kind != EvictionKind::kClock;
    auto pool = BufferPool::SizedInFrames(2, 8 * 1024, DiskModel{}, kind,
                                          tiers ? 2 : 0, tiers ? 2 : 0);
    const uint32_t tid = pool.InternTable("fresh");
    EXPECT_FALSE(pool.TouchPage(tid, kHigh)) << EvictionKindName(kind);
    EXPECT_TRUE(pool.TouchPage(tid, kHigh)) << EvictionKindName(kind);
    EXPECT_EQ(pool.resident_frames(), 1u);
    EXPECT_EQ(pool.resident_frames(tid), 1u);
    EXPECT_FALSE(pool.TouchPage(tid, kHigh - 1));
    EXPECT_EQ(pool.resident_frames(tid), 2u);
    pool.Clear();
    EXPECT_EQ(pool.resident_frames(), 0u);
    EXPECT_EQ(pool.resident_frames(tid), 0u);
    for (size_t tier : {BufferPool::kOsTier, BufferPool::kSsdTier}) {
      EXPECT_EQ(pool.tier_resident_frames(tier, tid), 0u);
    }
    // Cold again: the high page misses, and two newer pages make it the
    // victim under every policy.
    EXPECT_FALSE(pool.TouchPage(tid, kHigh)) << EvictionKindName(kind);
    pool.TouchPage(tid, 0);
    pool.TouchPage(tid, 1);
    EXPECT_EQ(pool.resident_frames(tid), 2u);
    const uint64_t os_hits = pool.stats().os_hits;
    if (tiers) {
      // Demoted, it sits in the OS tier and promotes back on a touch.
      EXPECT_EQ(pool.tier_resident_frames(BufferPool::kOsTier, tid), 1u);
    }
    EXPECT_FALSE(pool.TouchPage(tid, kHigh)) << EvictionKindName(kind);
    EXPECT_EQ(pool.stats().os_hits, os_hits + (tiers ? 1 : 0))
        << EvictionKindName(kind);
  }
}

TEST(PageIndexDeathTest, PageNumbersPastTheBoundAreRejected) {
  auto pool = BufferPool::SizedInFrames(2, 8 * 1024, DiskModel{},
                                        EvictionKind::kLru, 2);
  const uint32_t tid = pool.InternTable("t");
  EXPECT_DEATH(pool.TouchPage(tid, PageIndex::kMaxPages), "cannot be indexed");
  EXPECT_DEATH(pool.ScanTable(tid, PageIndex::kMaxPages + 1),
               "cannot be indexed");
}

// ---------------------------------------------------------------------------
// Pool-trace fixture: recorded digests of seeded mixed traces
// ---------------------------------------------------------------------------

/// FNV-1a over the bit patterns of everything a trace step observes.
class TraceDigest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

constexpr uint32_t kTracePageSize = 8 * 1024;

/// A heap table of exactly `pages` pages (the FetchPage/Prewarm/
/// MarkOsCached side of the trace needs real page images).
std::unique_ptr<Table> TraceTable(const std::string& name, uint64_t pages) {
  PageLayout layout;
  layout.page_size = kTracePageSize;
  auto table = std::make_unique<Table>(name, Schema::Dense(4), layout);
  for (double v = 0.0; table->num_pages() < pages; v += 1.0) {
    EXPECT_TRUE(table->AppendRow({v, v + 1, v + 2, v + 3, 1.0}).ok());
  }
  return table;
}

/// Folds every observable of `pool` into `d`: each BufferPoolStats field,
/// occupancy per tier and per (tier, table), per-table resident fractions,
/// the last-served table and version().
void DigestPoolState(const BufferPool& pool,
                     const std::vector<std::unique_ptr<Table>>& tables,
                     TraceDigest* d) {
  const BufferPoolStats& s = pool.stats();
  d->Add(s.hits);
  d->Add(s.misses);
  d->Add(s.evictions);
  d->Add(s.os_hits);
  d->Add(s.os_misses);
  d->Add(s.os_evictions);
  d->Add(s.ssd_hits);
  d->Add(s.ssd_evictions);
  d->Add(s.io_time.nanos());
  d->Add(pool.resident_frames());
  for (size_t tier : {BufferPool::kPoolTier, BufferPool::kOsTier,
                      BufferPool::kSsdTier}) {
    d->Add(pool.tier_resident_frames(tier));
    for (const auto& t : tables) {
      d->Add(pool.tier_resident_frames(tier, t->name()));
    }
  }
  for (const auto& t : tables) {
    d->Add(pool.resident_frames(t->name()));
    d->Add(pool.ResidentFraction(*t));
  }
  d->Add(pool.last_table().size());
  d->Add(pool.version());
}

/// One seeded trace over three tables whose touched page numbers are
/// non-contiguous: a dense low range shared with the real page images,
/// plus strided, 2^16-offset and million-offset pages. The trace mixes
/// TouchPage, FetchPage (including out-of-range pages), ScanTable,
/// MarkOsCached, Prewarm and Clear, and digests every return value and
/// the full pool state after each step.
uint64_t PoolTraceDigest(BufferPool pool, uint64_t seed, int steps) {
  std::vector<std::unique_ptr<Table>> tables;
  tables.push_back(TraceTable("alpha", 12));
  tables.push_back(TraceTable("beta", 20));
  tables.push_back(TraceTable("gamma", 6));
  std::vector<uint32_t> ids;
  for (const auto& t : tables) ids.push_back(pool.InternTable(t->name()));
  TraceDigest d;
  uint64_t x = seed;
  auto next = [&x]() {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 24;
  };
  for (int step = 0; step < steps; ++step) {
    const uint64_t op = next() % 100;
    const size_t t = next() % tables.size();
    d.Add(op);
    d.Add(t);
    if (op < 55) {
      const uint64_t k = next() % 24;
      uint64_t page = k;
      switch (next() % 4) {
        case 0:
          break;
        case 1:
          page = 1000 + 7 * k;
          break;
        case 2:
          page = (uint64_t{1} << 16) + k;
          break;
        case 3:
          page = 1000000 + k;
          break;
      }
      d.Add(page);
      d.Add(pool.TouchPage(ids[t], page));
    } else if (op < 75) {
      const uint64_t page = next() % (tables[t]->num_pages() + 2);
      d.Add(page);
      auto r = pool.FetchPage(*tables[t], page);
      d.Add(r.ok());
      if (r.ok()) {
        uint64_t head;
        std::memcpy(&head, *r, sizeof(head));
        d.Add(head);
        d.Add(std::memcmp(*r, tables[t]->PageData(page), kTracePageSize) ==
              0);
      } else {
        d.Add(static_cast<int>(r.status().code()));
      }
    } else if (op < 85) {
      const uint64_t pages = next() % 30;
      d.Add(pages);
      pool.ScanTable(ids[t], pages);
    } else if (op < 92) {
      pool.MarkOsCached(*tables[t]);
    } else if (op < 99) {
      const double fraction = static_cast<double>(next() % 5) / 4.0;
      d.Add(fraction);
      pool.Prewarm(*tables[t], fraction);
    } else {
      pool.Clear();
    }
    DigestPoolState(pool, tables, &d);
  }
  return d.value();
}

/// The three tier shapes the fixture pins: clock over the legacy
/// admit-until-full OS set, lru over an evicting OS tier, and promotional
/// over OS and SSD tiers.
std::vector<std::pair<std::string, uint64_t>> PoolTraceDigests() {
  constexpr uint64_t ps = kTracePageSize;
  std::vector<std::pair<std::string, uint64_t>> out;
  for (uint64_t seed : {0x5EEDull, 0xB0B0ull, 0xD1CEull}) {
    const std::string suffix = "/seed" + std::to_string(seed);
    out.emplace_back(
        "clock/os-set-24" + suffix,
        PoolTraceDigest(BufferPool(16 * ps, ps, DiskModel{}, 24 * ps,
                                   EvictionKind::kClock),
                        seed, 3000));
    out.emplace_back(
        "clock/os-set-unlimited" + suffix,
        PoolTraceDigest(BufferPool(16 * ps, ps, DiskModel{}), seed, 3000));
    out.emplace_back(
        "lru/os-24" + suffix,
        PoolTraceDigest(BufferPool::SizedInFrames(16, ps, DiskModel{},
                                                  EvictionKind::kLru, 24),
                        seed, 3000));
    out.emplace_back(
        "promotional/os-24/ssd-32" + suffix,
        PoolTraceDigest(
            BufferPool::SizedInFrames(16, ps, DiskModel{},
                                      EvictionKind::kPromotional, 24, 32),
            seed, 3000));
  }
  return out;
}

// Regeneration aid (runs only with --gtest_also_run_disabled_tests): prints
// the fixture literals below. They were recorded from the hash-map page
// index the dense PageIndex replaced; never regenerate them to absorb a
// change in eviction, fill order or accounting.
TEST(PoolTraceFixtureTest, DISABLED_PrintDigests) {
  for (const auto& [config, digest] : PoolTraceDigests()) {
    std::printf("    {\"%s\", 0x%016llxull},\n", config.c_str(),
                static_cast<unsigned long long>(digest));
  }
}

struct PoolTrace {
  const char* config;
  uint64_t digest;
};

const PoolTrace kPoolTraces[] = {
    {"clock/os-set-24/seed24301", 0x65f937cc5d357574ull},
    {"clock/os-set-unlimited/seed24301", 0xd43f8700c23a3e41ull},
    {"lru/os-24/seed24301", 0xe077e918dbc6234cull},
    {"promotional/os-24/ssd-32/seed24301", 0x3365a3679d73e067ull},
    {"clock/os-set-24/seed45232", 0x5da1e777797ef952ull},
    {"clock/os-set-unlimited/seed45232", 0xde807bd37a54d741ull},
    {"lru/os-24/seed45232", 0x7ee06a7ab6afa157ull},
    {"promotional/os-24/ssd-32/seed45232", 0xe1023acabe353094ull},
    {"clock/os-set-24/seed53710", 0x76e7c5998e7b8e5eull},
    {"clock/os-set-unlimited/seed53710", 0x016702741fddadf1ull},
    {"lru/os-24/seed53710", 0xdca81b2913ea9244ull},
    {"promotional/os-24/ssd-32/seed53710", 0xf5ae923af5b21147ull},
};

TEST(PoolTraceFixtureTest, EveryTierShapeReproducesItsDigest) {
  const auto got = PoolTraceDigests();
  ASSERT_EQ(got.size(), std::size(kPoolTraces));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, kPoolTraces[i].config);
    EXPECT_EQ(got[i].second, kPoolTraces[i].digest) << got[i].first;
  }
}

TEST(EvictionKindTest, ParseRoundTripsAndRejectsUnknown) {
  for (EvictionKind kind : {EvictionKind::kClock, EvictionKind::kLru,
                            EvictionKind::kPromotional}) {
    auto parsed = ParseEvictionKind(EvictionKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseEvictionKind("mru").ok());
}

}  // namespace
}  // namespace dana::storage
