#include "timing_executor.h"

#include <utility>

namespace perfbench {

namespace {

using dana::sched::BatchExecution;

class TimingExecution : public BatchExecution {
 public:
  TimingExecution(std::unique_ptr<BatchExecution> inner, Tracer* tracer,
                  const TimingExecutor::SpanIds& ids)
      : BatchExecution(inner->batch()),
        inner_(std::move(inner)),
        tracer_(tracer),
        ids_(ids) {}

  uint32_t total_epochs() const override { return inner_->total_epochs(); }
  uint32_t epochs_run() const override { return inner_->epochs_run(); }
  dana::SimTime compile_cost() const override {
    return inner_->compile_cost();
  }
  double warm_fraction() const override { return inner_->warm_fraction(); }
  bool residency_modeled() const override {
    return inner_->residency_modeled();
  }
  double os_warm_fraction() const override {
    return inner_->os_warm_fraction();
  }

  dana::Result<dana::sched::SliceCost> NextSlice(
      uint32_t max_epochs) override {
    ScopedSpan span(tracer_, ids_.slice);
    return inner_->NextSlice(max_epochs);
  }
  dana::Result<dana::SimTime> PeekService(uint32_t epochs) const override {
    ScopedSpan span(tracer_, ids_.peek);
    return inner_->PeekService(epochs);
  }
  dana::Status Checkpoint() override {
    ScopedSpan span(tracer_, ids_.checkpoint);
    return inner_->Checkpoint();
  }
  dana::Status Resume(uint32_t slot) override {
    ScopedSpan span(tracer_, ids_.resume);
    dana::Status st = inner_->Resume(slot);
    // Resume re-binds the wrapped run to its new slot; mirror it so
    // slot() and batch() keep answering what the wrapped run would.
    batch_.slot = inner_->slot();
    return st;
  }

 private:
  std::unique_ptr<BatchExecution> inner_;
  Tracer* tracer_;
  TimingExecutor::SpanIds ids_;
};

}  // namespace

TimingExecutor::TimingExecutor(dana::sched::QueryExecutor* inner,
                               Tracer* tracer)
    : inner_(inner),
      tracer_(tracer),
      ids_{tracer->Id("exec.begin"),         tracer->Id("exec.slice"),
           tracer->Id("exec.peek"),          tracer->Id("exec.estimate"),
           tracer->Id("exec.warm_fraction"), tracer->Id("exec.checkpoint"),
           tracer->Id("exec.resume")} {}

dana::Result<std::unique_ptr<BatchExecution>> TimingExecutor::Begin(
    const dana::sched::QueryBatch& batch) {
  dana::Result<std::unique_ptr<BatchExecution>> begun = [&] {
    ScopedSpan span(tracer_, ids_.begin);
    return inner_->Begin(batch);
  }();
  if (!begun.ok()) return begun.status();
  return std::unique_ptr<BatchExecution>(new TimingExecution(
      std::move(begun).ValueOrDie(), tracer_, ids_));
}

dana::Result<dana::SimTime> TimingExecutor::Estimate(
    const std::string& workload_id) {
  ScopedSpan span(tracer_, ids_.estimate);
  return inner_->Estimate(workload_id);
}

dana::Result<dana::SimTime> TimingExecutor::EstimateAtWarmth(
    const std::string& workload_id, double warm_fraction) {
  ScopedSpan span(tracer_, ids_.estimate);
  return inner_->EstimateAtWarmth(workload_id, warm_fraction);
}

double TimingExecutor::WarmFraction(const std::string& workload_id,
                                    uint32_t slot) {
  ScopedSpan span(tracer_, ids_.warm_fraction);
  return inner_->WarmFraction(workload_id, slot);
}

}  // namespace perfbench
