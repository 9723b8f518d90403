#include "storage/eviction_policy.h"

namespace dana::storage {

const char* EvictionKindName(EvictionKind kind) {
  switch (kind) {
    case EvictionKind::kClock:
      return "clock";
    case EvictionKind::kLru:
      return "lru";
    case EvictionKind::kPromotional:
      return "promotional";
  }
  return "unknown";
}

dana::Result<EvictionKind> ParseEvictionKind(std::string_view name) {
  if (name == "clock") return EvictionKind::kClock;
  if (name == "lru") return EvictionKind::kLru;
  if (name == "promotional") return EvictionKind::kPromotional;
  return Status::InvalidArgument("unknown eviction policy '" +
                                 std::string(name) +
                                 "' (clock, lru, promotional)");
}

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionKind kind,
                                                   size_t capacity) {
  switch (kind) {
    case EvictionKind::kClock:
      return std::make_unique<ClockEvictionPolicy>(capacity);
    case EvictionKind::kLru:
      return std::make_unique<LruEvictionPolicy>(capacity);
    case EvictionKind::kPromotional:
      return std::make_unique<PromotionalEvictionPolicy>(capacity);
  }
  return nullptr;
}

PageTier::PageTier(EvictionKind kind, uint64_t capacity)
    : capacity_(capacity), kind_(kind) {
  if (capacity_ == 0) return;
  DANA_CHECK(capacity_ < PageIndex::kMaxPages)
      << "tier of " << capacity_ << " slots cannot be indexed";
  const size_t n = static_cast<size_t>(capacity_);
  switch (kind_) {
    case EvictionKind::kClock:
      clock_ = std::make_unique<ClockEvictionPolicy>(n);
      break;
    case EvictionKind::kLru:
      lru_ = std::make_unique<LruEvictionPolicy>(n);
      break;
    case EvictionKind::kPromotional:
      promotional_ = std::make_unique<PromotionalEvictionPolicy>(n);
      break;
  }
  slot_keys_.resize(n);
  free_slots_.reserve(n);
  // Stacked so the first pops hand out slots 0, 1, 2, ... in order.
  for (size_t i = n; i > 0; --i) free_slots_.push_back(i - 1);
}

void PageTier::PolicyOnInsert(size_t slot) {
  switch (kind_) {
    case EvictionKind::kClock:
      clock_->OnInsert(slot);
      break;
    case EvictionKind::kLru:
      lru_->OnInsert(slot);
      break;
    case EvictionKind::kPromotional:
      promotional_->OnInsert(slot);
      break;
  }
}

void PageTier::PolicyOnAccess(size_t slot) {
  switch (kind_) {
    case EvictionKind::kClock:
      clock_->OnAccess(slot);
      break;
    case EvictionKind::kLru:
      lru_->OnAccess(slot);
      break;
    case EvictionKind::kPromotional:
      promotional_->OnAccess(slot);
      break;
  }
}

size_t PageTier::PolicyPickVictim() {
  switch (kind_) {
    case EvictionKind::kClock:
      return clock_->PickVictim();
    case EvictionKind::kLru:
      return lru_->PickVictim();
    case EvictionKind::kPromotional:
      return promotional_->PickVictim();
  }
  return 0;
}

bool PageTier::Touch(const PageKey& key) {
  if (!enabled()) return false;
  const size_t slot = index_.Find(key);
  if (slot == PageIndex::kAbsent) return false;
  PolicyOnAccess(slot);
  return true;
}

bool PageTier::Erase(const PageKey& key) {
  if (!enabled()) return false;
  const size_t slot = index_.Erase(key);
  if (slot == PageIndex::kAbsent) return false;
  free_slots_.push_back(slot);
  return true;
}

bool PageTier::Insert(const PageKey& key, PageKey* evicted) {
  if (!enabled()) return false;
  const size_t present = index_.Find(key);
  if (present != PageIndex::kAbsent) {
    PolicyOnAccess(present);
    return false;
  }
  bool displaced = false;
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = PolicyPickVictim();
    const PageKey victim = slot_keys_[slot];
    index_.Erase(victim);
    ++evictions_;
    if (evicted != nullptr) *evicted = victim;
    displaced = true;
  }
  slot_keys_[slot] = key;
  index_.Set(key, slot);
  PolicyOnInsert(slot);
  return displaced;
}

void PageTier::Clear() {
  if (!enabled()) return;
  index_.Clear(slot_keys_.size(),
               [this](size_t slot) { return slot_keys_[slot]; });
  free_slots_.clear();
  for (size_t i = slot_keys_.size(); i > 0; --i) free_slots_.push_back(i - 1);
  switch (kind_) {
    case EvictionKind::kClock:
      clock_->Reset();
      break;
    case EvictionKind::kLru:
      lru_->Reset();
      break;
    case EvictionKind::kPromotional:
      promotional_->Reset();
      break;
  }
}

}  // namespace dana::storage
