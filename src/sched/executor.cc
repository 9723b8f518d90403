#include "sched/executor.h"

#include <algorithm>

#include "ml/workloads.h"
#include "runtime/cost_model.h"

namespace dana::sched {

namespace {

runtime::DanaSystem::Options MakeSystemOptions(uint32_t epoch_cap) {
  runtime::DanaSystem::Options o;
  o.fpga = runtime::DefaultFpga();
  o.functional_epoch_cap = epoch_cap;
  return o;
}

/// The default execution handle wrapping an executor that only knows whole
/// runs: the entire batch is one indivisible slice, so there is no interior
/// epoch boundary to preempt at.
class SingleSliceExecution : public BatchExecution {
 public:
  SingleSliceExecution(QueryBatch batch, BatchCost cost)
      : BatchExecution(std::move(batch)), cost_(cost) {}

  uint32_t total_epochs() const override { return 1; }
  uint32_t epochs_run() const override { return done_ ? 1 : 0; }
  dana::SimTime compile_cost() const override { return cost_.compile; }
  double warm_fraction() const override { return cost_.warm_fraction; }
  bool residency_modeled() const override { return cost_.residency_modeled; }
  double os_warm_fraction() const override { return cost_.os_warm_fraction; }

  dana::Result<SliceCost> NextSlice(uint32_t max_epochs) override {
    (void)max_epochs;
    if (done_) {
      return Status::FailedPrecondition("execution already finished");
    }
    done_ = true;
    SliceCost s;
    s.service = cost_.service;
    s.shared = cost_.shared;
    s.per_query = cost_.per_query;
    s.epochs = 1;
    s.finished = true;
    return s;
  }

  dana::Result<dana::SimTime> PeekService(uint32_t epochs) const override {
    (void)epochs;
    return done_ ? dana::SimTime::Zero() : cost_.service;
  }

  dana::Status Checkpoint() override {
    return Status::Unimplemented(
        "single-slice executions have no interior epoch boundary");
  }

  dana::Status Resume(uint32_t slot) override {
    batch_.slot = slot;
    return Status::OK();
  }

 private:
  BatchCost cost_;
  bool done_ = false;
};

}  // namespace

Result<BatchCost> QueryExecutor::Dispatch(const QueryBatch& batch) {
  // Thin run-to-completion wrapper over the execution-handle ABI: open the
  // run and drain it in one slice.
  if (resolving_default_) {
    return Status::Unimplemented(
        "executor overrides neither Dispatch nor Begin");
  }
  resolving_default_ = true;
  auto begun = Begin(batch);
  resolving_default_ = false;
  if (!begun.ok()) return begun.status();
  std::unique_ptr<BatchExecution> exec = std::move(begun).ValueOrDie();
  DANA_ASSIGN_OR_RETURN(SliceCost slice, exec->NextSlice(0));
  BatchCost cost;
  cost.service = slice.service;
  cost.shared = slice.shared;
  cost.per_query = slice.per_query;
  cost.compile = exec->compile_cost();
  cost.warm_fraction = exec->warm_fraction();
  cost.residency_modeled = exec->residency_modeled();
  cost.os_warm_fraction = exec->os_warm_fraction();
  return cost;
}

Result<std::unique_ptr<BatchExecution>> QueryExecutor::Begin(
    const QueryBatch& batch) {
  if (resolving_default_) {
    return Status::Unimplemented(
        "executor overrides neither Dispatch nor Begin");
  }
  resolving_default_ = true;
  auto dispatched = Dispatch(batch);
  resolving_default_ = false;
  if (!dispatched.ok()) return dispatched.status();
  return std::unique_ptr<BatchExecution>(
      new SingleSliceExecution(batch, *dispatched));
}

// ---------------------------------------------------------------------------
// DanaBatchExecution
// ---------------------------------------------------------------------------

/// Epoch-sliced resumable execution over the measured epoch profiles. All
/// slice costs derive from one cumulative cost curve per segment
/// (Cum(e) = overheads + first + steady * (e - 1)), so slices telescope:
/// any split reproduces the unsegmented service up to float round-off, and
/// an uninterrupted Begin + NextSlice(0) equals the legacy Dispatch charge
/// exactly. A Resume onto a slot whose residency differs from what the run
/// left re-bases the remaining epochs as a fresh segment at that warmth —
/// the first resumed epoch re-pays the evicted share of the transient.
class DanaBatchExecution : public BatchExecution {
 public:
  DanaBatchExecution(DanaQueryExecutor* owner, QueryBatch batch,
                     DanaQueryExecutor::EpochProfile profile,
                     double warm_fraction, double os_warm_fraction,
                     bool modeled, uint64_t norm_pages)
      : BatchExecution(std::move(batch)),
        owner_(owner),
        profile_(profile),
        warm_at_begin_(warm_fraction),
        os_warm_at_begin_(os_warm_fraction),
        last_left_(warm_fraction),
        last_os_left_(os_warm_fraction),
        modeled_(modeled),
        norm_pages_(norm_pages) {}

  uint32_t total_epochs() const override { return profile_.epochs; }
  uint32_t epochs_run() const override { return done_; }
  dana::SimTime compile_cost() const override { return profile_.compile; }
  double warm_fraction() const override { return warm_at_begin_; }
  bool residency_modeled() const override { return modeled_; }
  double os_warm_fraction() const override { return os_warm_at_begin_; }

  dana::Result<SliceCost> NextSlice(uint32_t max_epochs) override {
    const uint32_t remaining = profile_.epochs - done_;
    if (remaining == 0) {
      return Status::FailedPrecondition("execution already finished");
    }
    const uint32_t n =
        max_epochs == 0 ? remaining : std::min(max_epochs, remaining);
    SliceCost s;
    s.service = CumWall(done_ + n) - CumWall(done_);
    s.shared = CumShared(done_ + n) - CumShared(done_);
    s.per_query = CumPerQuery(done_ + n) - CumPerQuery(done_);
    s.epochs = n;
    done_ += n;
    s.finished = done_ == profile_.epochs;
    // Each epoch sweeps the table once, so a k-epoch slice applies
    // min(k, 2) sweeps, not one: for a table that outsizes the pool the
    // second pass keeps pressing installs into co-located tables (clock
    // second chances spare some of their frames on the first pass only).
    // Two passes reach the repeat-pressure regime; later passes refine
    // co-located decay negligibly while costing O(pages) each, hence the
    // cap. For a pool-fitting table the second sweep is an all-hit no-op,
    // so single-epoch slices and fitting-table schedules are unchanged.
    // The slot's physical pool takes the sweeps for real (install +
    // eviction), and what it leaves resident is what later runs pay for.
    if (modeled_) {
      storage::BufferPool* pool = owner_->slot_pools_.pool(batch_.slot);
      const uint32_t tid = pool->InternTable(batch_.workload_id);
      // Memoized repeat sweep: if nothing installed into (or cleared) this
      // pool since our previous slice swept it and the table is still
      // fully resident, the sweep would be all hits — every frame already
      // holds what it would hold after, with its reference bit already set
      // — so the O(pages) walk is skipped. Only the pool's hit/miss
      // counters and last_table() diverge from the unskipped run; nothing
      // the scheduler or pricing reads does. A table larger than the pool
      // is never fully resident and always re-sweeps (the repeat walk
      // moves the clock hand).
      const bool undisturbed =
          owner_->options_.memoize_slices && swept_pool_ == pool &&
          pool->version() == swept_version_ &&
          pool->resident_frames(tid) == norm_pages_;
      if (undisturbed) {
        last_left_ = 1.0;  // fully resident, by the guard above
        last_os_left_ = 0.0;  // the tiers are exclusive
        obs::Count(owner_->options_.metrics, "exec.slices.memoized");
      } else {
        const uint32_t sweeps = std::min<uint32_t>(n, 2);
        for (uint32_t i = 0; i < sweeps; ++i) {
          pool->ScanTable(tid, norm_pages_);
        }
        swept_pool_ = pool;
        swept_version_ = pool->version();
        last_left_ = pool->ResidentShare(tid, norm_pages_);
        last_os_left_ = owner_->OsTierShare(*pool, batch_.workload_id,
                                            norm_pages_, last_left_);
      }
    }
    return s;
  }

  dana::Result<dana::SimTime> PeekService(uint32_t epochs) const override {
    const uint32_t remaining = profile_.epochs - done_;
    const uint32_t n =
        epochs == 0 ? remaining : std::min(epochs, remaining);
    return CumWall(done_ + n) - CumWall(done_);
  }

  dana::Status Checkpoint() override {
    // The model vector is the only state to capture, and the executor's
    // functional results are memoized per (workload, batch size) — the
    // checkpoint is implicit. Guard the contract anyway: a checkpoint is
    // only meaningful at an epoch boundary with work remaining.
    if (done_ == 0 || done_ >= profile_.epochs) {
      return Status::FailedPrecondition(
          "checkpoint requires a partially-run execution");
    }
    return Status::OK();
  }

  dana::Status Resume(uint32_t slot) override {
    if (!modeled_) {
      // Static-cache regime: every slot charges the same fixed state.
      batch_.slot = slot;
      return Status::OK();
    }
    // Residency of the resume slot, measured from its physical pool.
    const double warm = owner_->PhysicalWarmFraction(batch_.workload_id, slot);
    const double os_warm =
        owner_->PhysicalOsWarmFraction(batch_.workload_id, slot, warm);
    // Undisturbed same-slot resume: the table is exactly as resident (in
    // both tiers) as the last slice left it (last_left_/last_os_left_
    // captured that), so the original cost curve continues bit for bit.
    const double left_behind = done_ > 0 ? last_left_ : warm_at_begin_;
    const double os_left = done_ > 0 ? last_os_left_ : os_warm_at_begin_;
    if (slot == batch_.slot && warm == left_behind && os_warm == os_left) {
      return Status::OK();
    }
    // Re-base: the remaining epochs run as a fresh segment at the new
    // slot's warmth — its first epoch re-reads the missing share of the
    // table, later epochs return to the steady state.
    batch_.slot = slot;
    DANA_ASSIGN_OR_RETURN(DanaQueryExecutor::EpochProfile rebased,
                          owner_->ProfileAt(batch_, warm, os_warm));
    rebased.epochs = profile_.epochs;  // the budget never changes
    profile_ = rebased;
    base_ = done_;
    return Status::OK();
  }

 private:
  /// Cumulative slot occupancy of the first `e` epochs under the current
  /// segment (epochs before `base_` were charged under earlier segments
  /// and contribute zero here). The one-time query overhead belongs to the
  /// segment that runs epoch 0.
  dana::SimTime CumWall(uint32_t e) const {
    if (e <= base_) return dana::SimTime::Zero();
    const double k = static_cast<double>(e - base_);
    dana::SimTime t = profile_.epoch_overhead * k + profile_.first_wall +
                      profile_.steady_wall * (k - 1);
    if (base_ == 0) t += profile_.query_overhead;
    return t;
  }
  dana::SimTime CumShared(uint32_t e) const {
    if (e <= base_) return dana::SimTime::Zero();
    const double k = static_cast<double>(e - base_);
    dana::SimTime t = profile_.epoch_overhead * k + profile_.first_shared +
                      profile_.steady_shared * (k - 1);
    if (base_ == 0) t += profile_.query_overhead;
    return t;
  }
  dana::SimTime CumPerQuery(uint32_t e) const {
    if (e <= base_) return dana::SimTime::Zero();
    const double k = static_cast<double>(e - base_);
    return profile_.first_pq + profile_.steady_pq * (k - 1);
  }

  DanaQueryExecutor* owner_;
  DanaQueryExecutor::EpochProfile profile_;
  double warm_at_begin_;
  double os_warm_at_begin_;
  /// Residency the last slice left on its slot (warm_at_begin_ until the
  /// first slice) — the "undisturbed" reference a Resume compares against.
  double last_left_;
  /// OS-tier share the last slice left behind, the tier-1 companion to
  /// last_left_ (always 0 without an OS tier).
  double last_os_left_;
  bool modeled_;
  uint64_t norm_pages_;
  uint32_t done_ = 0;
  uint32_t base_ = 0;  ///< absolute epoch index the current segment starts at
  /// Pool and version stamp of this execution's most recent real sweep;
  /// a later slice seeing the same pool at the same version knows no
  /// install or clear happened in between (the memoized-sweep guard).
  const storage::BufferPool* swept_pool_ = nullptr;
  uint64_t swept_version_ = 0;
};

// ---------------------------------------------------------------------------
// DanaQueryExecutor
// ---------------------------------------------------------------------------

namespace {
/// Page size of the shared residency pools. Pure bookkeeping units: the
/// pools hold data-less frames, so this only converts `pool_frames` into
/// the BufferPool byte-capacity constructor. Matches the workload tables'
/// 32 KB pages for consistency.
constexpr uint32_t kSharedPoolPageSize = 32 * 1024;

/// Normalizes option combinations before any member reads them: at least
/// one pool frame, and the OS tier exists only under an evicting policy —
/// clock is the pinned legacy hierarchy (admit-until-full OS set), so
/// `os_frames` is forced off rather than silently priced as a tier the
/// pools don't run.
DanaQueryExecutor::Options NormalizeExecOptions(
    DanaQueryExecutor::Options o) {
  o.pool_frames = std::max<uint64_t>(o.pool_frames, 1);
  if (o.eviction == storage::EvictionKind::kClock) o.os_frames = 0;
  return o;
}

/// OS-tier byte capacity for the shared slot pools. Clock keeps the
/// unlimited legacy admit-until-full set (seed behaviour bit for bit);
/// evicting policies get exactly the configured tier, 0 disabling it.
uint64_t SharedPoolOsBytes(const DanaQueryExecutor::Options& o) {
  if (o.eviction == storage::EvictionKind::kClock) return UINT64_MAX;
  return o.os_frames * kSharedPoolPageSize;
}
}  // namespace

DanaQueryExecutor::DanaQueryExecutor() : DanaQueryExecutor(Options{}) {}

DanaQueryExecutor::DanaQueryExecutor(Options options)
    : options_(NormalizeExecOptions(options)),
      system_(cost_model_, MakeSystemOptions(options.functional_epoch_cap)),
      slot_pools_(options_.pool_frames * kSharedPoolPageSize,
                  kSharedPoolPageSize, storage::DiskModel{},
                  SharedPoolOsBytes(options_), options_.eviction) {}

Result<runtime::WorkloadInstance*> DanaQueryExecutor::Instance(
    const std::string& id) {
  dana::MutexLock lock(state_mu_);
  return InstanceLocked(id);
}

Result<runtime::WorkloadInstance*> DanaQueryExecutor::InstanceLocked(
    const std::string& id) {
  auto it = instances_.find(id);
  if (it != instances_.end()) return it->second.get();
  DANA_ASSIGN_OR_RETURN(const ml::Workload* w, RegistryWorkloadLocked(id));
  DANA_ASSIGN_OR_RETURN(auto instance, runtime::WorkloadInstance::Create(*w));
  auto* ptr = instance.get();
  instances_[id] = std::move(instance);
  return ptr;
}

Result<const ml::Workload*> DanaQueryExecutor::RegistryWorkload(
    const std::string& id) {
  dana::MutexLock lock(state_mu_);
  return RegistryWorkloadLocked(id);
}

Result<const ml::Workload*> DanaQueryExecutor::RegistryWorkloadLocked(
    const std::string& id) {
  auto it = workload_cache_.find(id);
  if (it == workload_cache_.end()) {
    it = workload_cache_.emplace(id, ml::FindWorkload(id)).first;
  }
  if (it->second == nullptr) {
    return Status::NotFound("unknown workload '" + id + "'");
  }
  return it->second;
}

Result<const DanaQueryExecutor::EpochProfile*>
DanaQueryExecutor::MeasureEndpoint(const QueryBatch& batch,
                                   runtime::CacheState cache) {
  const auto key = std::make_tuple(batch.workload_id, batch.size(),
                                   static_cast<uint8_t>(cache));
  // Fill-once/wait: a cold key elects exactly one caller to derive the
  // endpoint while concurrent requesters block for the result, so N
  // threads hitting the same cold (workload, batch, endpoint) never
  // duplicate the work.
  return measured_.GetOrFill(key, [&]() -> Result<EpochProfile> {
    // Serialize the derivations across *different* keys too: they prepare
    // and sweep the instance's per-slot pools, which grow lazily.
    // Once-per-key, memoized.
    dana::MutexLock lock(measure_mu_);
    DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance,
                          Instance(batch.workload_id));
    DANA_ASSIGN_OR_RETURN(
        const compiler::CompiledUdf* udf,
        compile_cache_.GetOrCompile(
            batch.workload_id, [&] { return system_.Compile(*instance); }));
    // The FPGA side of the run is the same at every cache state: trace it
    // once per (workload, batch size), then price this endpoint by
    // replaying the run's pool sweeps on this slot's execution context
    // (its private pool; identical batches on other slots prepare their
    // pools to the same cache state and therefore take identical time).
    DANA_ASSIGN_OR_RETURN(
        const runtime::EpochTrace* trace,
        traces_.GetOrFill(std::make_pair(batch.workload_id, batch.size()),
                          [&]() -> Result<runtime::EpochTrace> {
                            return system_.TraceRun(*udf, instance,
                                                    batch.size(), batch.slot);
                          }));
    DANA_ASSIGN_OR_RETURN(
        runtime::SystemResult result,
        system_.PriceTrace(*trace, instance, cache, batch.slot));
    obs::Count(options_.metrics, "exec.endpoint_measurements");
    EpochProfile p;
    p.compile = options_.compile_latency;
    p.first_wall = result.first_epoch.wall;
    p.steady_wall = result.steady_epoch.wall;
    p.first_shared = result.first_epoch.shared;
    p.steady_shared = result.steady_epoch.shared;
    p.first_pq = result.first_epoch.per_query;
    p.steady_pq = result.steady_epoch.per_query;
    p.query_overhead = result.query_overhead;
    p.epoch_overhead = result.epoch_overhead;
    p.epochs = std::max<uint32_t>(result.epochs, 1);
    return p;
  });
}

Result<DanaQueryExecutor::EpochProfile> DanaQueryExecutor::ProfileAt(
    const QueryBatch& batch, double warm_fraction, double os_fraction) {
  if (warm_fraction >= 1.0) {
    DANA_ASSIGN_OR_RETURN(const EpochProfile* hot,
                          MeasureEndpoint(batch, runtime::CacheState::kWarm));
    return *hot;
  }
  if (os_fraction <= 0.0) {
    // Two-endpoint pricing, the pre-tier arithmetic bit for bit.
    if (warm_fraction <= 0.0) {
      DANA_ASSIGN_OR_RETURN(
          const EpochProfile* cold,
          MeasureEndpoint(batch, runtime::CacheState::kCold));
      return *cold;
    }
    // The two measured endpoints bound the run — a fraction f of the table
    // still resident saves f of the cold run's extra (I/O-side) time, so
    // every epoch-cost component interpolates linearly between them.
    DANA_ASSIGN_OR_RETURN(const EpochProfile* cold,
                          MeasureEndpoint(batch, runtime::CacheState::kCold));
    DANA_ASSIGN_OR_RETURN(const EpochProfile* hot,
                          MeasureEndpoint(batch, runtime::CacheState::kWarm));
    const double miss = 1.0 - warm_fraction;
    EpochProfile p = *hot;
    p.first_wall =
        hot->first_wall + (cold->first_wall - hot->first_wall) * miss;
    p.steady_wall =
        hot->steady_wall + (cold->steady_wall - hot->steady_wall) * miss;
    p.first_shared =
        hot->first_shared + (cold->first_shared - hot->first_shared) * miss;
    p.steady_shared =
        hot->steady_shared + (cold->steady_shared - hot->steady_shared) * miss;
    p.first_pq = hot->first_pq + (cold->first_pq - hot->first_pq) * miss;
    p.steady_pq = hot->steady_pq + (cold->steady_pq - hot->steady_pq) * miss;
    return p;
  }
  // Three-endpoint pricing: the run splits into a pool-warm share `p`
  // (priced at the pool-warm endpoint), an OS-cached share `o` (priced at
  // the os-warm endpoint — pages re-read from the modeled kernel cache, no
  // device I/O), and the cold remainder. Each epoch-cost component is the
  // convex combination of the three measured endpoints.
  const double pw = std::clamp(warm_fraction, 0.0, 1.0);
  const double ow = std::min(std::max(os_fraction, 0.0), 1.0 - pw);
  const double cw = 1.0 - pw - ow;
  DANA_ASSIGN_OR_RETURN(const EpochProfile* hot,
                        MeasureEndpoint(batch, runtime::CacheState::kWarm));
  DANA_ASSIGN_OR_RETURN(const EpochProfile* osw,
                        MeasureEndpoint(batch, runtime::CacheState::kOsCached));
  DANA_ASSIGN_OR_RETURN(const EpochProfile* cold,
                        MeasureEndpoint(batch, runtime::CacheState::kCold));
  EpochProfile p = *hot;
  const auto mix = [pw, ow, cw](dana::SimTime h, dana::SimTime o,
                                dana::SimTime c) {
    return h * pw + o * ow + c * cw;
  };
  p.first_wall = mix(hot->first_wall, osw->first_wall, cold->first_wall);
  p.steady_wall = mix(hot->steady_wall, osw->steady_wall, cold->steady_wall);
  p.first_shared =
      mix(hot->first_shared, osw->first_shared, cold->first_shared);
  p.steady_shared =
      mix(hot->steady_shared, osw->steady_shared, cold->steady_shared);
  p.first_pq = mix(hot->first_pq, osw->first_pq, cold->first_pq);
  p.steady_pq = mix(hot->steady_pq, osw->steady_pq, cold->steady_pq);
  return p;
}

Result<std::unique_ptr<BatchExecution>> DanaQueryExecutor::Begin(
    const QueryBatch& batch) {
  if (batch.query_ids.empty()) {
    return Status::InvalidArgument("empty batch for workload '" +
                                   batch.workload_id + "'");
  }
  DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance,
                        Instance(batch.workload_id));
  if (!options_.model_residency) {
    // Legacy fixed-cache regime: every run is prepared to options_.cache
    // and slot history does not exist.
    DANA_ASSIGN_OR_RETURN(const EpochProfile* p,
                          MeasureEndpoint(batch, options_.cache));
    const double warm =
        options_.cache == runtime::CacheState::kWarm ? 1.0 : 0.0;
    obs::Count(options_.metrics, warm >= 1.0 ? "exec.charges.warm"
                                             : "exec.charges.cold");
    return std::unique_ptr<BatchExecution>(new DanaBatchExecution(
        this, batch, *p, warm, /*os_warm_fraction=*/0.0, /*modeled=*/false,
        instance->NormalizedPages(options_.pool_frames)));
  }
  // Residency regime: price this slot's actual cache state, measured from
  // its shared physical pool. With an OS tier, the working set splits three
  // ways: pool-warm, os-warm (demoted pages still in the modeled kernel
  // cache) and cold.
  const double warm = PhysicalWarmFraction(batch.workload_id, batch.slot);
  const double os_warm =
      PhysicalOsWarmFraction(batch.workload_id, batch.slot, warm);
  obs::Count(options_.metrics,
             warm >= 1.0 ? "exec.charges.warm"
             : (warm <= 0.0 && os_warm <= 0.0)
                 ? "exec.charges.cold"
                 : "exec.charges.partial");
  DANA_ASSIGN_OR_RETURN(EpochProfile profile,
                        ProfileAt(batch, warm, os_warm));
  return std::unique_ptr<BatchExecution>(new DanaBatchExecution(
      this, batch, profile, warm, os_warm, /*modeled=*/true,
      instance->NormalizedPages(options_.pool_frames)));
}

double DanaQueryExecutor::PhysicalWarmFraction(const std::string& id,
                                               uint32_t slot) {
  auto instance = Instance(id);
  if (!instance.ok()) return 0.0;
  const uint64_t pages = (*instance)->NormalizedPages(options_.pool_frames);
  return slot_pools_.pool(slot)->ResidentShare(id, pages);
}

double DanaQueryExecutor::PhysicalOsWarmFraction(const std::string& id,
                                                 uint32_t slot,
                                                 double pool_warm) {
  if (options_.os_frames == 0) return 0.0;
  auto instance = Instance(id);
  if (!instance.ok()) return 0.0;
  const uint64_t pages = (*instance)->NormalizedPages(options_.pool_frames);
  return OsTierShare(*slot_pools_.pool(slot), id, pages, pool_warm);
}

double DanaQueryExecutor::OsTierShare(const storage::BufferPool& pool,
                                      const std::string& id, uint64_t pages,
                                      double pool_warm) const {
  if (options_.os_frames == 0) return 0.0;
  const double share =
      pool.TierResidentShare(storage::BufferPool::kOsTier, id, pages);
  // The tiers are exclusive by construction; the clamp only guards float
  // edge cases so the pricing shares always sum to at most 1.
  return std::min(share, 1.0 - pool_warm);
}

double DanaQueryExecutor::WarmFraction(const std::string& workload_id,
                                       uint32_t slot) {
  if (!options_.model_residency) {
    return options_.cache == runtime::CacheState::kWarm ? 1.0 : 0.0;
  }
  // Placement heuristic: an os-warm page is cheaper than cold but dearer
  // than pool-warm, so it counts at half weight. Without an OS tier this
  // is exactly the pool residency.
  const double w = PhysicalWarmFraction(workload_id, slot);
  if (options_.os_frames == 0) return w;
  return std::min(1.0,
                  w + 0.5 * PhysicalOsWarmFraction(workload_id, slot, w));
}

Result<dana::SimTime> DanaQueryExecutor::Estimate(
    const std::string& workload_id) {
  DANA_ASSIGN_OR_RETURN(const ml::Workload* w, RegistryWorkload(workload_id));
  return runtime::EstimateDanaRuntime(*w, cost_model_,
                                      system_.options().fpga.axi_bytes_per_sec);
}

Result<dana::SimTime> DanaQueryExecutor::EstimateAtWarmth(
    const std::string& workload_id, double warm_fraction) {
  // Purely a-priori, like Estimate(): the cold/warm interpolation comes
  // from the cost model (the table's missing share re-read from disk in
  // the first epoch), never from measured state — queue ordering must not
  // depend on which endpoints earlier dispatches happened to memoize.
  DANA_ASSIGN_OR_RETURN(const ml::Workload* w, RegistryWorkload(workload_id));
  return runtime::EstimateDanaRuntimeAtWarmth(
      *w, cost_model_, system_.options().fpga.axi_bytes_per_sec,
      warm_fraction);
}

}  // namespace dana::sched
