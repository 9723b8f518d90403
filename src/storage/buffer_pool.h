#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/intern.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/disk.h"
#include "storage/eviction_policy.h"
#include "storage/table.h"

namespace dana::storage {

/// Hit/miss statistics of a BufferPool, per tier. `hits`/`misses`/
/// `evictions` are the buffer-pool (tier 0) counters; the `os_*`/`ssd_*`
/// fields cover the modeled kernel page cache (tier 1) and the optional
/// SSD capacity tier (tier 2): an `os_hit` is a pool miss served at
/// OS-cache speed, an `os_miss` is a pool miss the OS tier did not hold.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t os_hits = 0;
  uint64_t os_misses = 0;
  uint64_t os_evictions = 0;
  uint64_t ssd_hits = 0;
  uint64_t ssd_evictions = 0;
  /// Accumulated simulated disk time spent servicing misses.
  dana::SimTime io_time;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Fixed-capacity page cache at the top of an explicit tier hierarchy:
///
///   tier 0: buffer pool frames (this class's frames_), victim selection
///           delegated to an EvictionPolicy (clock / lru / promotional);
///   tier 1: modeled kernel page cache — under clock this is the legacy
///           admit-until-full `os_cached_` set (bit-compatible with the
///           seed pools); under lru/promotional it is an evicting,
///           *exclusive* PageTier that pool victims demote into;
///   tier 2: optional SSD-style capacity tier (lru/promotional only) that
///           OS-tier victims cascade into before dropping to disk.
///
/// This is the structure Striders interface with in the paper (Figure 2):
/// the RDBMS executor fills the pool from disk and the FPGA reads resident
/// pages directly. All systems in the reproduction (MADlib CPU engines and
/// the DAnA accelerator) fetch pages through the same pool so that I/O time
/// and warm/cold behaviour are identical across systems.
///
/// Pages are identified by (table name, page number) — catalog semantics:
/// two Table objects with the same name alias the same cached pages. This
/// is what lets one pool be shared across a slot's tables (the scheduler's
/// physical residency ground truth) while per-workload pools keep their
/// original behaviour, and it gives the pool exact per-table frame
/// accounting (resident_frames(table), tier_resident_frames(tier, table)).
///
/// Internally table names are interned into dense per-pool ids (InternTable),
/// and every tier finds a page through a dense PageIndex keyed by (table id,
/// page number): a touch is two array loads, never a hash, and a miss that
/// demotes down the hierarchy allocates nothing once the rows have grown.
/// The string-facing APIs remain as thin shims that intern (mutating calls)
/// or look up (const calls) the name once per call; per-page loops like
/// ScanTable pay the string exactly once per sweep. Ids are stable for the
/// pool's lifetime — Clear() drops pages, not the name table — so callers
/// may cache them across runs.
///
/// Page numbers are bounded: the index rows are indexed by page number, so
/// a page number must be below PageIndex::kMaxPages (2^32), and every tier
/// spends 4 bytes per page number up to the highest one it has held, per
/// table. FetchPage only sees pages of a real table; TouchPage and
/// ScanTable fail a DANA_CHECK on a page number past the bound before any
/// row grows.
class BufferPool {
 public:
  /// Tier indices for the per-tier accessors and `tier<j>.*` gauges.
  static constexpr size_t kPoolTier = 0;
  static constexpr size_t kOsTier = 1;
  static constexpr size_t kSsdTier = 2;

  /// Pool of `capacity_bytes / page_size` frames; `disk` supplies miss
  /// costs. Misses for pages held by the OS tier are served at the
  /// OS-page-cache rate instead of disk speed, modeling the kernel cache
  /// above the pool. `os_cache_bytes` semantics: UINT64_MAX keeps the
  /// legacy unlimited set under clock (and disables the tier under
  /// lru/promotional, which need a finite capacity); 0 disables the tier;
  /// anything else caps it at that many bytes of distinct pages.
  /// `ssd_cache_bytes > 0` adds the capacity tier below the OS tier
  /// (effective under lru/promotional, where demotions cascade).
  BufferPool(uint64_t capacity_bytes, uint32_t page_size, DiskModel disk,
             uint64_t os_cache_bytes = UINT64_MAX,
             EvictionKind eviction = EvictionKind::kClock,
             uint64_t ssd_cache_bytes = 0);

  /// Pool sized directly in frames — the shared per-slot residency pools
  /// are specified this way (scale-normalized units, not bytes).
  static BufferPool SizedInFrames(uint64_t frames, uint32_t page_size,
                                  DiskModel disk) {
    return BufferPool(frames * static_cast<uint64_t>(page_size), page_size,
                      disk);
  }
  /// Frame-sized pool with an explicit policy and tier shape; `os_frames`
  /// and `ssd_frames` of 0 disable the respective tier.
  static BufferPool SizedInFrames(uint64_t frames, uint32_t page_size,
                                  DiskModel disk, EvictionKind eviction,
                                  uint64_t os_frames,
                                  uint64_t ssd_frames = 0) {
    const uint64_t ps = page_size;
    return BufferPool(frames * ps, page_size, disk, os_frames * ps, eviction,
                      ssd_frames * ps);
  }

  /// Dense id of logical table `name` in this pool, interning it on first
  /// sight. Stable for the pool's lifetime; the id-taking overloads below
  /// skip the per-call name lookup entirely.
  uint32_t InternTable(std::string_view name) {
    return names_.Intern(name);
  }

  /// Returns the frame holding page `page_no` of `table`, fetching it from
  /// the (modeled) disk on a miss. The returned pointer is valid until the
  /// next Fetch that evicts it; callers in this single-threaded simulator
  /// consume it immediately.
  dana::Result<const uint8_t*> FetchPage(const Table& table, uint64_t page_no);

  /// Data-free residency probe for shared (cross-table) pools: page
  /// `page_no` of logical table `table` is referenced on a hit and
  /// installed — evicting a victim under capacity pressure, exactly like
  /// FetchPage — on a miss. No page image is copied and no I/O time is
  /// charged (the caller prices I/O from measured service profiles; the
  /// pool's job here is to be the occupancy/eviction ground truth).
  /// Hit/miss/eviction counters still advance. Under lru/promotional a
  /// miss consults the lower tiers: an OS/SSD-tier hit promotes the page
  /// into the pool and the displaced victim demotes down the hierarchy.
  /// Returns true on a (pool) hit. `page_no` must be below
  /// PageIndex::kMaxPages (a DANA_CHECK, see the class comment).
  bool TouchPage(uint32_t table_id, uint64_t page_no);
  bool TouchPage(const std::string& table, uint64_t page_no) {
    return TouchPage(InternTable(table), page_no);
  }

  /// One full sequential sweep of a logical table of `pages` pages through
  /// the pool via TouchPage — the cache footprint of one training epoch's
  /// Strider scan. A table larger than the pool ends with its trailing
  /// pool-sized window resident (clock replacement under a sequential
  /// scan); co-located tables are evicted only under install pressure.
  /// `pages` must be at most PageIndex::kMaxPages (checked up front).
  void ScanTable(uint32_t table_id, uint64_t pages);
  void ScanTable(const std::string& table, uint64_t pages) {
    ScanTable(InternTable(table), pages);
  }

  /// Fraction of a `pages`-page logical table currently resident in the
  /// buffer pool (tier 0), in [0, 1]: resident_frames(table) / pages,
  /// clamped.
  double ResidentShare(uint32_t table_id, uint64_t pages) const;
  double ResidentShare(const std::string& table, uint64_t pages) const {
    return ResidentShare(names_.Find(table), pages);
  }

  /// Fraction of a `pages`-page logical table held by `tier`
  /// (kPoolTier/kOsTier/kSsdTier), clamped to [0, 1]. Under lru/promotional
  /// the tiers are exclusive, so the per-tier shares of one table sum to at
  /// most 1; under clock the legacy OS set is inclusive of the pool.
  double TierResidentShare(size_t tier, uint32_t table_id,
                           uint64_t pages) const;
  double TierResidentShare(size_t tier, const std::string& table,
                           uint64_t pages) const {
    return TierResidentShare(tier, names_.Find(table), pages);
  }

  /// Loads the leading `fraction` of `table`'s pages (capped by the pool
  /// size) without charging I/O time — models a previously-run query having
  /// left that share of the table's working set resident. The default warms
  /// everything the pool can hold. Also marks the table OS-cache resident.
  void Prewarm(const Table& table, double fraction = 1.0);

  /// Marks `table`'s pages resident in the OS page cache without touching
  /// the pool: a prior query streamed them. Under clock this is the legacy
  /// admit-until-full set; under lru/promotional the tier evicts, so a
  /// saturated tier rotates pages in (and cascades victims to the SSD
  /// tier). Bumps version(): the OS tier is pricing state.
  void MarkOsCached(const Table& table);

  /// Fraction of `table` currently resident.
  double ResidentFraction(const Table& table) const;

  /// Drops all cached pages in every tier and resets the policy state.
  /// Interned table ids survive — they name tables, not pages.
  void Clear();

  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats(); }

  /// Frames currently holding a valid page. Unlike stats(), this is pool
  /// *state*, not an event counter: ResetStats() does not touch it, only
  /// Clear() and evictions do. Never exceeds num_frames().
  uint64_t resident_frames() const { return index_.size(); }
  /// Frames currently holding pages of `table` — the per-table partition
  /// of resident_frames(). This is the physical residency signal the
  /// scheduler's executor prices placement from when a slot's tables share
  /// one pool.
  uint64_t resident_frames(uint32_t table_id) const {
    return index_.size(table_id);
  }
  uint64_t resident_frames(const std::string& table) const {
    return resident_frames(names_.Find(table));
  }

  /// Pages currently held by `tier`: tier 0 is resident_frames(), tier 1
  /// the OS page-cache tier, tier 2 the SSD capacity tier.
  uint64_t tier_resident_frames(size_t tier) const;
  /// The per-table partition of tier_resident_frames(tier).
  uint64_t tier_resident_frames(size_t tier, uint32_t table_id) const;
  uint64_t tier_resident_frames(size_t tier, const std::string& table) const {
    return tier_resident_frames(tier, names_.Find(table));
  }

  EvictionKind eviction() const { return eviction_; }
  /// Capacity of the OS tier in pages (UINT64_MAX = unlimited legacy set).
  uint64_t os_cache_pages() const {
    return eviction_ == EvictionKind::kClock ? os_cache_pages_
                                             : os_tier_.capacity();
  }

  /// Name of the table the pool most recently served (FetchPage, TouchPage,
  /// or Prewarm); empty for a fresh or cleared pool. In shared-pool mode
  /// this is the table whose sweep last reshaped the cache.
  const std::string& last_table() const {
    static const std::string kNone;
    return last_table_id_ == dana::Interner::kInvalidId
               ? kNone
               : names_.Name(last_table_id_);
  }

  /// Monotone counter bumped whenever cached contents change in *any*
  /// tier — a page install, a Clear, or an OS/SSD-tier mutation
  /// (MarkOsCached, the Fetch-path OS admission). Two reads returning the
  /// same value bracket a window in which every tier held the same pages
  /// in the same replacement order — pure hits set bits that were already
  /// set — so a caller that swept the pool can recognise an undisturbed
  /// repeat and skip it (the executor's slice memoization).
  uint64_t version() const { return version_; }

  uint64_t num_frames() const { return frames_.size(); }
  uint32_t page_size() const { return page_size_; }
  const DiskModel& disk() const { return disk_; }

  /// Publishes this pool's counters and occupancy as gauges under
  /// `<prefix>.` (hits, misses, evictions, hit_rate, io_time_s,
  /// resident_frames) plus per-tier gauges under `<prefix>.tier<j>.*`
  /// (tier 2 only when the SSD tier is enabled); a null registry is a
  /// no-op.
  void PublishTo(obs::MetricRegistry* metrics,
                 const std::string& prefix) const;

 private:
  /// A frame holds a page iff index_ maps that page to it. The identity
  /// of an unmapped frame (evicted, past fill_cursor_, or cleared) is
  /// stale, and AllocFrame only reads it back from a mapped victim.
  struct Frame {
    std::unique_ptr<uint8_t[]> data;
    uint32_t table_id = dana::Interner::kInvalidId;
    uint64_t page_no = 0;
  };
  /// Page identity: interned table id + page number (shared with the
  /// lower tiers).
  using Key = PageKey;

  /// Returns a frame to install into: the next never-filled frame while
  /// the pool is filling (no policy involved — matches the seed, whose
  /// clock hand always sat on the first invalid frame), else the policy's
  /// victim, evicted; under lru/promotional the victim demotes into the
  /// OS tier.
  size_t AllocFrame();

  /// Indexes frame `idx` as (table_id, page_no), copying the page image
  /// from `src` when given (FetchPage/Prewarm) and leaving the frame
  /// data-less for residency probes (TouchPage).
  void Install(size_t idx, uint32_t table_id, uint64_t page_no,
               const uint8_t* src);

  // Pool-tier policy dispatch: switch on eviction_ through concrete
  // (final) pointers — no virtual calls on the touch path.
  void PoolOnInsert(size_t idx);
  void PoolOnAccess(size_t idx);
  size_t PoolPickVictim();

  /// Demotes an evicted pool page into the OS tier, cascading that tier's
  /// victim into the SSD tier (lru/promotional only).
  void DemoteToOs(const Key& key);

  /// Clock mode: adds an absent `key` to the legacy OS page-cache set.
  void AdmitOsCached(const Key& key);

  uint32_t page_size_;
  DiskModel disk_;
  EvictionKind eviction_ = EvictionKind::kClock;
  std::vector<Frame> frames_;
  /// Page -> frame of every resident page, and the resident counts.
  PageIndex index_;
  /// Next never-filled frame; only consulted while resident < capacity.
  size_t fill_cursor_ = 0;
  // Pool-tier policy: exactly one is non-null, selected by eviction_.
  std::unique_ptr<ClockEvictionPolicy> pool_clock_;
  std::unique_ptr<LruEvictionPolicy> pool_lru_;
  std::unique_ptr<PromotionalEvictionPolicy> pool_promotional_;
  BufferPoolStats stats_;
  /// Interned table names; ids key the page indexes.
  dana::Interner names_;
  uint32_t last_table_id_ = dana::Interner::kInvalidId;
  uint64_t version_ = 0;
  /// Clock mode only: the legacy admit-until-full OS page-cache set
  /// (bit-compatible with the seed pools). It never evicts, so its slots
  /// are admission order and `os_cached_keys_` records them for Clear.
  PageIndex os_cached_;
  uint64_t os_cache_pages_ = UINT64_MAX;
  /// lru/promotional: the evicting OS and SSD tiers (exclusive of the
  /// pool; disabled tiers have capacity 0).
  PageTier os_tier_;
  PageTier ssd_tier_;
  /// Clock mode only: `os_cached_`'s slot -> page records, in admission
  /// order. Only admission and Clear touch it, so it sits after the
  /// touch-path state.
  std::vector<Key> os_cached_keys_;
};

/// A set of identically-sized buffer pools, one per accelerator slot.
///
/// Concurrent slots used to alias a single pool, so one slot's fetches
/// polluted every other slot's hit/miss accounting. A group gives each slot
/// its own frames and OS-cache set (independent caching state) while every
/// pool shares one DiskModel — the slots contend for the same simulated
/// device, they just stop sharing cache residency.
///
/// Concurrency contract: the *group* is safe to grow concurrently —
/// Resize and the lazily-growing pool(i) serialize on an internal mutex,
/// and returned BufferPool pointers are stable (pools are heap-allocated
/// and never destroyed before the group). Each *pool* itself is
/// externally synchronized: callers that touch pools from several threads
/// must give each thread its own slots, and should Resize up front so
/// steady-state pool(i) calls are pure reads.
class BufferPoolGroup {
 public:
  /// Sizing template applied to every pool in the group; `Resize` creates
  /// new pools from it on demand. `eviction` and the tier capacities have
  /// BufferPool's constructor semantics.
  BufferPoolGroup(uint64_t capacity_bytes_per_pool, uint32_t page_size,
                  DiskModel disk, uint64_t os_cache_bytes_per_pool = UINT64_MAX,
                  EvictionKind eviction = EvictionKind::kClock,
                  uint64_t ssd_cache_bytes_per_pool = 0);

  /// Grows (never shrinks below 1) the group to `n` pools; existing pools
  /// keep their cached state.
  void Resize(size_t n);

  size_t size() const {
    dana::MutexLock lock(grow_mu_);
    return pools_.size();
  }

  /// Pool of slot `i`; grows the group when `i` is past the end.
  BufferPool* pool(size_t i);
  const BufferPool* pool(size_t i) const {
    dana::MutexLock lock(grow_mu_);
    return pools_.at(i).get();
  }

  /// Aggregate hit/miss/eviction/io statistics across all pools.
  BufferPoolStats Rollup() const;

  /// Sum of every pool's resident_frames(); the per-pool counts partition
  /// this total (each bounded by its pool's num_frames()).
  uint64_t TotalResidentFrames() const;

  /// Clears every pool's cached state and statistics — the whole machine
  /// back to cold (sweeps reset shared slot pools this way between
  /// configurations).
  void ClearAll();

  /// Publishes the group's rollup under `<prefix>.` plus each slot's pool
  /// under `<prefix>.slot<i>.` (BufferPool::PublishTo, which adds the
  /// per-tier `<prefix>.slot<i>.tier<j>.*` gauges); a null registry is a
  /// no-op.
  void PublishTo(obs::MetricRegistry* metrics,
                 const std::string& prefix = "pool") const;

 private:
  void ResizeLocked(size_t n) REQUIRES(grow_mu_);
  BufferPoolStats RollupLocked() const REQUIRES(grow_mu_);
  uint64_t TotalResidentFramesLocked() const REQUIRES(grow_mu_);

  uint64_t capacity_bytes_;
  uint32_t page_size_;
  DiskModel disk_;
  uint64_t os_cache_bytes_;
  EvictionKind eviction_;
  uint64_t ssd_cache_bytes_;
  /// Guards the pools_ vector (growth + indexing), not the pools' state.
  mutable dana::Mutex grow_mu_;
  std::vector<std::unique_ptr<BufferPool>> pools_ GUARDED_BY(grow_mu_);
};

}  // namespace dana::storage
