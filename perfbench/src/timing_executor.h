#pragma once

#include <memory>
#include <string>

#include "sched/executor.h"
#include "trace.h"

namespace perfbench {

/// Decorator that times every call the scheduler makes into a
/// QueryExecutor, and into the BatchExecution handles it returns, as
/// `exec.<call>` spans. It forwards every call unchanged, so the schedule
/// and all simulated costs are those of the wrapped executor.
class TimingExecutor : public dana::sched::QueryExecutor {
 public:
  TimingExecutor(dana::sched::QueryExecutor* inner, Tracer* tracer);

  dana::Result<std::unique_ptr<dana::sched::BatchExecution>> Begin(
      const dana::sched::QueryBatch& batch) override;
  dana::Result<dana::SimTime> Estimate(const std::string& workload_id) override;
  dana::Result<dana::SimTime> EstimateAtWarmth(const std::string& workload_id,
                                               double warm_fraction) override;
  double WarmFraction(const std::string& workload_id, uint32_t slot) override;
  void PrepareSlots(uint32_t slots) override { inner_->PrepareSlots(slots); }

  struct SpanIds {
    uint32_t begin, slice, peek, estimate, warm_fraction, checkpoint, resume;
  };

 private:
  dana::sched::QueryExecutor* inner_;
  Tracer* tracer_;
  SpanIds ids_;
};

}  // namespace perfbench
