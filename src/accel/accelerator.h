#pragma once

#include <cstdint>
#include <vector>

#include "accel/access_engine.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "compiler/compiler.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace dana::accel {

/// Per-run knobs of the accelerator simulator; each maps to one of the
/// paper's sensitivity experiments.
struct RunOptions {
  /// Figure 11 ablation: bypass Striders — the CPU extracts/transforms
  /// tuples and DMAs them one at a time to the execution engines.
  bool strider_bypass = false;
  /// Figure 14: scale the AXI/host bandwidth (0.25x .. 4x).
  double bandwidth_scale = 1.0;
  /// Overrides the algo's epoch budget when nonzero.
  uint32_t max_epochs_override = 0;
  /// CPU-side per-tuple extraction + transform cost in bypass mode.
  dana::SimTime cpu_extract_per_tuple = dana::SimTime::Micros(0.35);
  /// Additional CPU transform cost per payload byte in bypass mode (the
  /// CPU touches every byte to deform, convert, and marshal the tuple).
  double cpu_extract_ns_per_byte = 3.0;
  /// CPU<->FPGA handshake cycles per tuple DMA in bypass mode.
  uint64_t handshake_cycles_per_tuple = 300;
  /// Initial model values (flattened per model var); zeros when empty.
  std::vector<std::vector<float>> initial_models;
  /// Co-trained queries sharing this pass (cross-query batching): one
  /// Strider page-streaming sweep feeds `batch_queries` identical models'
  /// execution engines, so the access side (I/O, AXI, page walking) is paid
  /// once while engine compute scales with the batch. 1 = the paper's
  /// single-query pass.
  uint32_t batch_queries = 1;
  /// Segmented (resumable) execution: when nonzero, this call runs at most
  /// this many epochs of the remaining budget and returns, leaving the run
  /// preemptible at the epoch boundary. Chain segments by feeding the
  /// returned `final_models` into the next segment's `initial_models` and
  /// advancing `epochs_completed`; with the same table and an undisturbed
  /// buffer pool the concatenated segments reproduce the unsegmented run's
  /// per-epoch timings and final model bit for bit (cold I/O is paid in
  /// whichever segment runs the first epoch). 0 runs to the budget.
  uint32_t epoch_limit = 0;
  /// Epochs already consumed by earlier segments of this run. Counts
  /// against the epoch budget, and nonzero values skip the one-time
  /// configuration-FSM programming (the design is already on the fabric).
  uint32_t epochs_completed = 0;
};

/// Timing breakdown of one epoch (all converted to simulated time at the
/// design's clock): an EpochTiming, identical at every cache state, with
/// the epoch's buffer-pool I/O folded in (EpochTiming::Fold).
struct EpochBreakdown {
  dana::SimTime io;        ///< buffer-pool miss service time
  dana::SimTime axi;       ///< page DMA over the host link
  dana::SimTime strider;   ///< page walking (parallel across buffers)
  dana::SimTime engine;    ///< update-rule compute + merge + model update
                           ///< (whole batch: scales with batch_queries)
  dana::SimTime wall;      ///< pipelined epoch wall time
  /// Cross-query attribution of the epoch: `shared` is the one-pass
  /// streaming cost every co-batched query amortizes (the slower of the
  /// I/O and the AXI/Strider access side); `per_query` is the incremental
  /// engine-merge time each additional co-trained model adds
  /// (engine / batch_queries). Attribution, not a partition of `wall` —
  /// pipelining overlaps the two.
  dana::SimTime shared;
  dana::SimTime per_query;
};

/// What one Strider walk of a table yields for timing. Every epoch of a
/// run walks the same pages, so one walk prices all of them.
struct EpochWalk {
  uint64_t pages = 0;
  uint64_t page_bytes = 0;  ///< pages times the layout's page size
  uint64_t tuples = 0;
  uint64_t strider_cycles = 0;  ///< summed over pages, shifter included
};

/// The I/O-independent part of one epoch's timing. The buffer pool only
/// adds I/O (§7.1), so these components are identical at every cache
/// state; EpochTiming::Fold adds a measured I/O time to make the epoch's
/// breakdown.
struct EpochTiming {
  dana::SimTime axi;      ///< page DMA (per-tuple DMA in bypass mode)
  dana::SimTime strider;  ///< page walking, parallel across buffers
  dana::SimTime engine;   ///< engine compute of the whole batch
  dana::SimTime fpga;     ///< on-FPGA time of the epoch
  uint64_t fpga_cycles = 0;
  /// The streaming side that overlaps I/O in the shared attribution: the
  /// slower of AXI and page walking, or the per-tuple DMA in bypass mode.
  dana::SimTime access;
  /// Bypass mode only: the CPU extract/transform time, which serializes
  /// ahead of the FPGA work. Zero with Striders.
  dana::SimTime cpu_extract;
  uint32_t batch_queries = 1;

  /// The epoch's breakdown once `io` of buffer-pool miss time is added:
  /// the FPGA waits for pages it cannot get (wall = slower of FPGA and
  /// I/O), and the shared side is the slower of I/O and streaming.
  EpochBreakdown Fold(dana::SimTime io) const;
};

/// Result of a training run (or of one segment of a segmented run).
struct RunReport {
  uint32_t epochs_run = 0;  ///< epochs executed by this call (this segment)
  /// Cumulative epochs across all segments of the run:
  /// `RunOptions::epochs_completed` plus this segment's `epochs_run`.
  uint32_t epochs_completed = 0;
  /// True while the run still has budget left and has not converged — the
  /// checkpoint in `final_models` can seed a further segment.
  bool resumable = false;
  bool converged = false;
  uint64_t tuples_processed = 0;
  dana::SimTime total_time;        ///< end-to-end accelerator wall time
  dana::SimTime io_time;           ///< total buffer-pool miss time
  dana::SimTime fpga_time;         ///< total on-FPGA time
  dana::SimTime shared_time;       ///< Σ epoch shared (one-pass streaming)
  dana::SimTime per_query_time;    ///< Σ epoch per_query (engine per model)
  uint64_t fpga_cycles = 0;
  uint64_t strider_instructions = 0;
  std::vector<EpochBreakdown> epochs;
  /// Trained model values, one vector per model variable.
  std::vector<std::vector<float>> final_models;

  /// Appends one epoch of `timing` that paid `io` of buffer-pool misses,
  /// accumulating every total above.
  void AddEpoch(const EpochTiming& timing, dana::SimTime io);
};

/// The DAnA accelerator: functional + cycle-level simulation of the
/// generated design training on a heap table through the buffer pool.
///
/// Functionally, every page is walked by the real Strider interpreter and
/// every update rule executes in fp32 through the lowered scalar program —
/// the returned model is genuinely trained. Timing follows the paper's
/// pipeline: with >=2 page buffers the access engine interleaves with the
/// execution engine, so an epoch runs at the rate of its slowest stage.
/// That timing depends only on the Strider walk of the table and the
/// buffer pool's I/O, never on the model: Walk + Time give an epoch's
/// FPGA side without training, and Train charges its epochs the same way.
///
/// With `RunOptions::batch_queries = K > 1` the simulator models a
/// cross-query batched pass: K queries of the same algorithm co-train off
/// one page-streaming sweep. The access side (I/O, AXI, Striders) is
/// charged once; engine compute scales by K. All K models start identical
/// and see the same tuple order, so their trajectories coincide — the one
/// functionally-trained model in `final_models` is every query's result.
class Accelerator {
 public:
  explicit Accelerator(const compiler::CompiledUdf& udf);

  /// Trains on `table`, fetching pages through `pool`. The pool's stats
  /// are used (and reset) to attribute I/O time.
  dana::Result<RunReport> Train(const storage::Table& table,
                                storage::BufferPool* pool,
                                const RunOptions& options) const;

  /// Walks every page of `table` through the Strider program once,
  /// straight from the table's page images: no buffer pool, no engine.
  dana::Result<EpochWalk> Walk(const storage::Table& table) const;

  /// The I/O-independent timing of one epoch over `walk` under `options`
  /// (bandwidth scale, bypass mode, co-trained batch). Train charges every
  /// epoch through this, so a walk plus the pool's I/O reproduces a
  /// functional run's epoch timings exactly.
  EpochTiming Time(const EpochWalk& walk, const RunOptions& options) const;

  const compiler::CompiledUdf& udf() const { return udf_; }

 private:
  const compiler::CompiledUdf& udf_;
  AccessEngineConfig access_config_;
};

}  // namespace dana::accel
