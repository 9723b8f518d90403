// Synthetic epoch-sliced executor shared by the scheduler test suites.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "sched/executor.h"

namespace dana::sched {

/// Deterministic synthetic epoch-sliced execution: every epoch of `id`
/// costs shared_s + size * per_query_s seconds of slot occupancy, over
/// `epochs` epochs; run-to-completion callers go through the same Begin()
/// via the default Dispatch. Warmth is static unless pinned with SetWarm
/// (Resume never re-prices either way); pinned warmth marks the run
/// residency-modeled so affinity placement and the scheduler's
/// cold-resume-loss tie-break see it.
class SlicedExecutor : public QueryExecutor {
 public:
  void Set(const std::string& id, uint32_t epochs, double epoch_shared_s,
           double epoch_per_query_s, double estimate_s,
           double compile_s = 0.0) {
    specs_[id] = {epochs, epoch_shared_s, epoch_per_query_s, compile_s};
    estimates_[id] = dana::SimTime::Seconds(estimate_s);
  }

  /// Pins `id`'s warmth on `slot` (and marks its runs residency-modeled).
  void SetWarm(const std::string& id, uint32_t slot, double fraction) {
    warmth_[{id, slot}] = fraction;
    modeled_.insert(id);
  }

  /// Pins the fully-warm estimate; EstimateAtWarmth then interpolates
  /// between Estimate() (cold) and this, like the Dana executor's own
  /// cold/warm pricing. Unset ids estimate warmth-blind.
  void SetWarmEstimate(const std::string& id, double estimate_s) {
    warm_estimates_[id] = dana::SimTime::Seconds(estimate_s);
  }

  double WarmFraction(const std::string& id, uint32_t slot) override {
    auto it = warmth_.find({id, slot});
    return it == warmth_.end() ? 0.0 : it->second;
  }

  Result<dana::SimTime> EstimateAtWarmth(const std::string& id,
                                         double warm_fraction) override {
    auto warm = warm_estimates_.find(id);
    if (warm == warm_estimates_.end()) return Estimate(id);
    DANA_ASSIGN_OR_RETURN(dana::SimTime cold, Estimate(id));
    return warm->second + (cold - warm->second) * (1.0 - warm_fraction);
  }

  Result<std::unique_ptr<BatchExecution>> Begin(
      const QueryBatch& batch) override {
    auto it = specs_.find(batch.workload_id);
    if (it == specs_.end()) return Status::NotFound(batch.workload_id);
    return std::unique_ptr<BatchExecution>(new Execution(
        batch, it->second, WarmFraction(batch.workload_id, batch.slot),
        modeled_.count(batch.workload_id) > 0));
  }

  Result<dana::SimTime> Estimate(const std::string& id) override {
    auto it = estimates_.find(id);
    if (it == estimates_.end()) return Status::NotFound(id);
    return it->second;
  }

 private:
  struct Spec {
    uint32_t epochs;
    double shared_s;
    double per_query_s;
    double compile_s;
  };

  class Execution : public BatchExecution {
   public:
    Execution(QueryBatch batch, Spec spec, double warm, bool modeled)
        : BatchExecution(std::move(batch)),
          spec_(spec),
          warm_(warm),
          modeled_(modeled) {}

    uint32_t total_epochs() const override { return spec_.epochs; }
    uint32_t epochs_run() const override { return done_; }
    dana::SimTime compile_cost() const override {
      return dana::SimTime::Seconds(spec_.compile_s);
    }
    double warm_fraction() const override { return warm_; }
    bool residency_modeled() const override { return modeled_; }

    dana::SimTime EpochCost() const {
      return dana::SimTime::Seconds(
          spec_.shared_s + spec_.per_query_s * batch_.size());
    }

    Result<SliceCost> NextSlice(uint32_t max_epochs) override {
      const uint32_t remaining = spec_.epochs - done_;
      if (remaining == 0) {
        return Status::FailedPrecondition("already finished");
      }
      const uint32_t n =
          max_epochs == 0 ? remaining : std::min(max_epochs, remaining);
      SliceCost s;
      s.epochs = n;
      s.service = EpochCost() * static_cast<double>(n);
      s.shared = dana::SimTime::Seconds(spec_.shared_s) *
                 static_cast<double>(n);
      s.per_query = dana::SimTime::Seconds(spec_.per_query_s) *
                    static_cast<double>(n);
      done_ += n;
      s.finished = done_ == spec_.epochs;
      return s;
    }

    Result<dana::SimTime> PeekService(uint32_t epochs) const override {
      const uint32_t remaining = spec_.epochs - done_;
      const uint32_t n =
          epochs == 0 ? remaining : std::min(epochs, remaining);
      return EpochCost() * static_cast<double>(n);
    }

    Status Checkpoint() override { return Status::OK(); }
    Status Resume(uint32_t slot) override {
      batch_.slot = slot;
      return Status::OK();
    }

   private:
    Spec spec_;
    double warm_;
    bool modeled_;
    uint32_t done_ = 0;
  };

  std::map<std::string, Spec> specs_;
  std::map<std::string, dana::SimTime> estimates_;
  std::map<std::string, dana::SimTime> warm_estimates_;
  std::map<std::pair<std::string, uint32_t>, double> warmth_;
  std::set<std::string> modeled_;
};

}  // namespace dana::sched
