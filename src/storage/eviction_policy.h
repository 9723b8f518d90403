#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"

namespace dana::storage {

/// Replacement policies a cache tier can delegate victim selection to.
enum class EvictionKind : uint8_t {
  kClock = 0,        ///< Second-chance clock sweep (the seed pools' policy).
  kLru = 1,          ///< Strict least-recently-used.
  kPromotional = 2,  ///< Two-segment promotional queues (ZNCache-style).
};

const char* EvictionKindName(EvictionKind kind);
dana::Result<EvictionKind> ParseEvictionKind(std::string_view name);

/// Victim selection over the dense slot indices [0, capacity) of one cache
/// tier. The tier owns the slots and the page identities; the policy only
/// orders them. Contract:
///
///   - OnInsert(i): slot i now holds a (new) page — a fresh fill or the
///     reuse of a just-evicted victim slot.
///   - OnAccess(i): the page in slot i was re-referenced (a hit).
///   - PickVictim(): called only when every slot is occupied; returns the
///     slot to evict. The caller evicts and re-inserts into the same slot
///     (OnInsert relinks it), so PickVictim need not unlink anything.
///   - Reset(): the tier dropped every page (Clear).
///
/// The three implementations are `final` and tiers dispatch to them through
/// concrete pointers (switch on kind), so the hot TouchPage/FetchPage path
/// never pays a virtual call — the interface exists for tests and tooling.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  virtual EvictionKind kind() const = 0;
  virtual void OnInsert(size_t idx) = 0;
  virtual void OnAccess(size_t idx) = 0;
  virtual size_t PickVictim() = 0;
  virtual void Reset() = 0;
};

/// Second-chance clock. Bit-for-bit the seed BufferPool's sweep once the
/// pool is full: referenced slots get their bit cleared and spared one
/// lap; the hand starts (and resets) at slot 0, which is exactly where the
/// seed's hand lands after filling an empty pool.
class ClockEvictionPolicy final : public EvictionPolicy {
 public:
  explicit ClockEvictionPolicy(size_t capacity)
      : referenced_(capacity == 0 ? 1 : capacity, 0) {}

  EvictionKind kind() const override { return EvictionKind::kClock; }
  void OnInsert(size_t idx) override { referenced_[idx] = 1; }
  void OnAccess(size_t idx) override { referenced_[idx] = 1; }
  size_t PickVictim() override {
    while (true) {
      const size_t idx = hand_;
      hand_ = (hand_ + 1) % referenced_.size();
      if (referenced_[idx]) {
        referenced_[idx] = 0;
        continue;
      }
      return idx;
    }
  }
  void Reset() override {
    referenced_.assign(referenced_.size(), 0);
    hand_ = 0;
  }

 private:
  std::vector<uint8_t> referenced_;
  size_t hand_ = 0;
};

/// Strict LRU over an intrusive doubly-linked list of slot indices.
class LruEvictionPolicy final : public EvictionPolicy {
 public:
  explicit LruEvictionPolicy(size_t capacity)
      : prev_(capacity, kNil), next_(capacity, kNil), linked_(capacity, 0) {}

  EvictionKind kind() const override { return EvictionKind::kLru; }
  void OnInsert(size_t idx) override { MoveToFront(idx); }
  void OnAccess(size_t idx) override { MoveToFront(idx); }
  size_t PickVictim() override { return tail_; }
  void Reset() override {
    prev_.assign(prev_.size(), kNil);
    next_.assign(next_.size(), kNil);
    linked_.assign(linked_.size(), 0);
    head_ = tail_ = kNil;
  }

 private:
  static constexpr size_t kNil = static_cast<size_t>(-1);

  void Unlink(size_t idx) {
    if (prev_[idx] != kNil) next_[prev_[idx]] = next_[idx];
    if (next_[idx] != kNil) prev_[next_[idx]] = prev_[idx];
    if (head_ == idx) head_ = next_[idx];
    if (tail_ == idx) tail_ = prev_[idx];
    prev_[idx] = next_[idx] = kNil;
    linked_[idx] = 0;
  }
  void MoveToFront(size_t idx) {
    if (linked_[idx]) {
      if (head_ == idx) return;
      Unlink(idx);
    }
    prev_[idx] = kNil;
    next_[idx] = head_;
    if (head_ != kNil) prev_[head_] = idx;
    head_ = idx;
    if (tail_ == kNil) tail_ = idx;
    linked_[idx] = 1;
  }

  std::vector<size_t> prev_, next_;
  std::vector<uint8_t> linked_;
  size_t head_ = kNil, tail_ = kNil;
};

/// Promotional eviction à la ZNCache's chunk queues: new pages enter a
/// probationary queue; a re-reference *promotes* the page across the queue
/// boundary into a protected segment (capped at half the tier) instead of
/// merely sparing it for a lap. When the protected segment overflows, its
/// LRU page is demoted back to the probationary MRU position. Victims come
/// from the probationary tail, so a one-shot sequential flood churns only
/// the probationary half while re-referenced working sets survive — the
/// scan resistance clock and plain LRU lack.
class PromotionalEvictionPolicy final : public EvictionPolicy {
 public:
  explicit PromotionalEvictionPolicy(size_t capacity)
      : prev_(capacity, kNil),
        next_(capacity, kNil),
        segment_(capacity, kUnlinked),
        protected_cap_(capacity / 2) {}

  EvictionKind kind() const override { return EvictionKind::kPromotional; }
  void OnInsert(size_t idx) override {
    if (segment_[idx] != kUnlinked) Unlink(idx);
    PushFront(kProbation, idx);
  }
  void OnAccess(size_t idx) override {
    if (segment_[idx] == kProtected) {
      if (head_[kProtected] != idx) {
        Unlink(idx);
        PushFront(kProtected, idx);
      }
      return;
    }
    Unlink(idx);
    PushFront(kProtected, idx);
    if (size_[kProtected] > protected_cap_) {
      const size_t demoted = tail_[kProtected];
      Unlink(demoted);
      PushFront(kProbation, demoted);
    }
  }
  size_t PickVictim() override {
    return tail_[kProbation] != kNil ? tail_[kProbation] : tail_[kProtected];
  }
  void Reset() override {
    prev_.assign(prev_.size(), kNil);
    next_.assign(next_.size(), kNil);
    segment_.assign(segment_.size(), kUnlinked);
    head_[0] = head_[1] = tail_[0] = tail_[1] = kNil;
    size_[0] = size_[1] = 0;
  }

 private:
  static constexpr size_t kNil = static_cast<size_t>(-1);
  static constexpr uint8_t kProbation = 0;
  static constexpr uint8_t kProtected = 1;
  static constexpr uint8_t kUnlinked = 2;

  void Unlink(size_t idx) {
    const uint8_t seg = segment_[idx];
    if (prev_[idx] != kNil) next_[prev_[idx]] = next_[idx];
    if (next_[idx] != kNil) prev_[next_[idx]] = prev_[idx];
    if (head_[seg] == idx) head_[seg] = next_[idx];
    if (tail_[seg] == idx) tail_[seg] = prev_[idx];
    prev_[idx] = next_[idx] = kNil;
    segment_[idx] = kUnlinked;
    --size_[seg];
  }
  void PushFront(uint8_t seg, size_t idx) {
    prev_[idx] = kNil;
    next_[idx] = head_[seg];
    if (head_[seg] != kNil) prev_[head_[seg]] = idx;
    head_[seg] = idx;
    if (tail_[seg] == kNil) tail_[seg] = idx;
    segment_[idx] = seg;
    ++size_[seg];
  }

  std::vector<size_t> prev_, next_;
  std::vector<uint8_t> segment_;
  size_t head_[2] = {kNil, kNil};
  size_t tail_[2] = {kNil, kNil};
  size_t size_[2] = {0, 0};
  size_t protected_cap_;
};

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionKind kind,
                                                   size_t capacity);

/// Page identity within a pool/tier: interned table id + page number.
struct PageKey {
  uint32_t table_id;
  uint64_t page_no;
  bool operator==(const PageKey&) const = default;
};

/// Dense page -> slot index of one cache tier, and its occupancy counts.
/// One row per interned table id, indexed by page number, holds slot + 1
/// (0 = absent): a lookup is two array loads, never a hash, and Set/Erase
/// never allocate once a row has grown past the page. The index also keeps
/// the number of pages it holds, in total and per table, so a tier's
/// occupancy reads are O(1). Clear() erases through the owner's slot -> key
/// records; ids and row capacity survive it.
///
/// A row costs 4 bytes per page number up to the highest one set (page
/// 1,000,000 of a table alone makes a 4 MB row), so page numbers must be
/// below kMaxPages: a larger one fails a DANA_CHECK before its row grows.
class PageIndex {
 public:
  /// Exclusive bound on page numbers (and on slots, which are stored + 1).
  static constexpr uint64_t kMaxPages = uint64_t{1} << 32;
  /// Find()/Erase() result for a key the index does not hold.
  static constexpr size_t kAbsent = static_cast<size_t>(-1);

  /// Slot holding `key`, or kAbsent.
  size_t Find(const PageKey& key) const {
    if (key.table_id >= rows_.size()) return kAbsent;
    const std::vector<uint32_t>& slots = rows_[key.table_id].slots;
    // A stored 0 (absent) wraps to kAbsent.
    return key.page_no < slots.size()
               ? static_cast<size_t>(slots[key.page_no]) - 1
               : kAbsent;
  }
  bool Contains(const PageKey& key) const { return Find(key) != kAbsent; }

  /// Maps `key` to `slot`; returns true iff `key` was absent.
  bool Set(const PageKey& key, size_t slot) {
    Row& row = RowFor(key);
    uint32_t& cell = row.slots[key.page_no];
    const bool added = cell == 0;
    if (added) {
      ++row.count;
      ++size_;
    }
    cell = static_cast<uint32_t>(slot + 1);
    return added;
  }

  /// Removes `key`; returns the slot it held, or kAbsent.
  size_t Erase(const PageKey& key) {
    if (key.table_id >= rows_.size()) return kAbsent;
    Row& row = rows_[key.table_id];
    if (key.page_no >= row.slots.size()) return kAbsent;
    uint32_t& cell = row.slots[key.page_no];
    if (cell == 0) return kAbsent;
    const size_t slot = static_cast<size_t>(cell) - 1;
    cell = 0;
    --row.count;
    --size_;
    return slot;
  }

  /// Pages held, in total and of one table.
  uint64_t size() const { return size_; }
  uint64_t size(uint32_t table_id) const {
    return table_id < rows_.size() ? rows_[table_id].count : 0;
  }

  /// Empties the index through its owner's slot -> key records: for each
  /// slot in [0, slots), erases `key_of(slot)` if the index maps that key
  /// to that slot (a record left stale by an Erase or a remap is skipped).
  /// The records must cover every page held. Costs O(slots), not the
  /// rows' extent: zeroing rows in place would make one sparse high page
  /// a multi-MB fill on every Clear.
  template <typename KeyOf>
  void Clear(size_t slots, const KeyOf& key_of) {
    for (size_t slot = 0; slot < slots && size_ != 0; ++slot) {
      const PageKey key = key_of(slot);
      if (Find(key) == slot) Erase(key);
    }
    DANA_CHECK(size_ == 0) << size_ << " pages missing from the slot records";
  }

 private:
  struct Row {
    std::vector<uint32_t> slots;
    uint64_t count = 0;
  };

  /// The row of `key`'s table, grown to cover its page.
  Row& RowFor(const PageKey& key) {
    if (key.table_id >= rows_.size()) rows_.resize(key.table_id + 1);
    Row& row = rows_[key.table_id];
    if (key.page_no >= row.slots.size()) {
      DANA_CHECK(key.page_no < kMaxPages)
          << "page " << key.page_no << " cannot be indexed (limit 2^32)";
      row.slots.resize(key.page_no + 1, 0);
    }
    return row;
  }

  std::vector<Row> rows_;
  uint64_t size_ = 0;
};

/// A key-addressed cache tier below the buffer pool: the modeled kernel
/// page cache or an SSD-style capacity tier. It holds page *identities*
/// only (no frames, no data — tier hits are priced by the pool's DiskModel)
/// in `capacity` dense slots: a PageIndex maps each held page to its slot
/// (and counts them), `slot_keys_` maps back, and victim selection over the
/// slots is delegated to an EvictionPolicy. Unlike the clock pools' legacy
/// admit-until-full OS set, a full tier evicts: a post-saturation insert
/// displaces a victim and reports it so the owner can cascade the demotion
/// down to the next tier.
class PageTier {
 public:
  /// A disabled tier: every operation is a no-op returning "absent".
  PageTier() : PageTier(EvictionKind::kClock, 0) {}
  PageTier(EvictionKind kind, uint64_t capacity);

  bool enabled() const { return capacity_ > 0; }
  uint64_t capacity() const { return capacity_; }
  uint64_t resident() const { return index_.size(); }
  uint64_t resident(uint32_t table_id) const {
    return index_.size(table_id);
  }
  uint64_t evictions() const { return evictions_; }

  bool Contains(const PageKey& key) const { return index_.Contains(key); }

  /// Re-references `key` (policy OnAccess). Returns true if present.
  bool Touch(const PageKey& key);

  /// Removes `key` — a promotion up the hierarchy. Returns true if it was
  /// present.
  bool Erase(const PageKey& key);

  /// Inserts `key` (a demotion from the tier above). Inserting a present
  /// key is a Touch. When the tier is full a victim is displaced and
  /// written to `*evicted` (when non-null); returns true iff a victim was
  /// displaced — the caller demotes it to the next tier down or drops it.
  bool Insert(const PageKey& key, PageKey* evicted);

  void Clear();

 private:
  void PolicyOnInsert(size_t slot);
  void PolicyOnAccess(size_t slot);
  size_t PolicyPickVictim();

  uint64_t capacity_;
  EvictionKind kind_;
  // Concrete policy pointers: exactly one is non-null, selected by kind_,
  // and calls go through the concrete (final) type — no virtual dispatch.
  std::unique_ptr<ClockEvictionPolicy> clock_;
  std::unique_ptr<LruEvictionPolicy> lru_;
  std::unique_ptr<PromotionalEvictionPolicy> promotional_;
  PageIndex index_;
  /// Slot -> the page it last held (stale once the page leaves the slot).
  std::vector<PageKey> slot_keys_;
  std::vector<size_t> free_slots_;
  uint64_t evictions_ = 0;
};

}  // namespace dana::storage
