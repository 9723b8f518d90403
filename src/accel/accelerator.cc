#include "accel/accelerator.h"

#include <algorithm>
#include <cmath>

#include "compiler/hw_generator.h"
#include "engine/evaluator.h"

namespace dana::accel {

Accelerator::Accelerator(const compiler::CompiledUdf& udf) : udf_(udf) {
  access_config_.num_page_buffers = udf.design.num_page_buffers;
}

Result<RunReport> Accelerator::Train(const storage::Table& table,
                                     storage::BufferPool* pool,
                                     const RunOptions& options) const {
  const compiler::ScalarProgram& prog = udf_.program;

  engine::ScalarEvaluator evaluator(prog);
  for (size_t m = 0; m < options.initial_models.size(); ++m) {
    DANA_RETURN_NOT_OK(evaluator.SetModel(
        static_cast<uint32_t>(m), options.initial_models[m]));
  }

  AccessEngine access(access_config_, udf_.strider_program);

  const uint32_t epochs_budget = options.max_epochs_override
                                     ? options.max_epochs_override
                                     : prog.max_epochs;
  // Segmented execution: earlier segments consumed `epochs_completed` of
  // the budget; this call runs at most `epoch_limit` of the remainder.
  const uint32_t done_before = std::min(options.epochs_completed,
                                        epochs_budget);
  uint32_t segment_budget = epochs_budget - done_before;
  if (options.epoch_limit != 0) {
    segment_budget = std::min(segment_budget, options.epoch_limit);
  }
  // Co-trained queries sharing this pass see identical tuples, so the
  // update rules are evaluated functionally once; Time() charges the
  // engine cycles once per model.
  const uint64_t batch_size = std::max<uint32_t>(prog.merge_coef, 1);

  RunReport report;
  // The configuration FSM programs the design once per run; a resumed
  // segment finds it already on the fabric.
  if (done_before == 0) report.fpga_cycles += access.ConfigCycles();

  // Each batch's Strider payloads, packed back to back in the engine's
  // tuple layout (the first TupleBytes() of each payload).
  const size_t tuple_bytes = evaluator.TupleBytes();
  std::vector<uint8_t> batch;
  batch.reserve(batch_size * tuple_bytes);
  size_t batch_tuples = 0;

  for (uint32_t epoch = 0; epoch < segment_budget; ++epoch) {
    const dana::SimTime io_before = pool->stats().io_time;
    EpochWalk walk;
    walk.pages = table.num_pages();
    walk.page_bytes = table.num_pages() * table.layout().page_size;

    auto flush_batch = [&]() -> Status {
      if (batch_tuples == 0) return Status::OK();
      DANA_RETURN_NOT_OK(evaluator.EvalPackedBatch(batch, batch_tuples));
      batch.clear();
      batch_tuples = 0;
      return Status::OK();
    };

    for (uint64_t p = 0; p < table.num_pages(); ++p) {
      DANA_ASSIGN_OR_RETURN(const uint8_t* frame, pool->FetchPage(table, p));
      DANA_ASSIGN_OR_RETURN(
          PageExtraction extraction,
          access.WalkPage({frame, table.layout().page_size}));
      walk.strider_cycles += extraction.strider_cycles;
      report.strider_instructions += extraction.tuples.size();
      for (const std::vector<uint8_t>& payload : extraction.tuples) {
        if (payload.size() < tuple_bytes) {
          return Status::Corruption("tuple payload of " +
                                    std::to_string(payload.size()) +
                                    " bytes, expected " +
                                    std::to_string(tuple_bytes));
        }
        batch.insert(batch.end(), payload.begin(),
                     payload.begin() + tuple_bytes);
        ++batch_tuples;
        ++walk.tuples;
        if (batch_tuples >= batch_size) {
          DANA_RETURN_NOT_OK(flush_batch());
        }
      }
    }
    DANA_RETURN_NOT_OK(flush_batch());
    report.tuples_processed += walk.tuples;
    report.AddEpoch(Time(walk, options), pool->stats().io_time - io_before);

    DANA_ASSIGN_OR_RETURN(bool stop, evaluator.EvalConvergence());
    if (stop) {
      report.converged = true;
      break;
    }
  }

  report.epochs_completed = done_before + report.epochs_run;
  report.resumable = !report.converged &&
                     report.epochs_completed < epochs_budget;
  report.final_models.resize(prog.model_vars.size());
  for (uint32_t m = 0; m < prog.model_vars.size(); ++m) {
    report.final_models[m] = evaluator.Model(m);
  }
  return report;
}

Result<EpochWalk> Accelerator::Walk(const storage::Table& table) const {
  AccessEngine access(access_config_, udf_.strider_program);
  EpochWalk walk;
  walk.pages = table.num_pages();
  walk.page_bytes = table.num_pages() * table.layout().page_size;
  for (uint64_t p = 0; p < table.num_pages(); ++p) {
    DANA_ASSIGN_OR_RETURN(
        PageExtraction extraction,
        access.WalkPage({table.PageData(p), table.layout().page_size}));
    walk.strider_cycles += extraction.strider_cycles;
    walk.tuples += extraction.tuples.size();
  }
  return walk;
}

EpochTiming Accelerator::Time(const EpochWalk& walk,
                              const RunOptions& options) const {
  const compiler::ScalarProgram& prog = udf_.program;
  const compiler::DesignPoint& design = udf_.design;
  const double freq = udf_.fpga.freq_hz;
  const uint32_t threads = design.num_threads;
  const uint32_t batch_q = std::max<uint32_t>(options.batch_queries, 1);

  // Engine: the epoch's tuples form full batches of merge_coef plus one
  // remainder batch. Per batch, each thread runs ceil(batch/threads) rule
  // instances back-to-back, then the tree bus merges and the model
  // updates; every co-trained model pays it.
  const uint64_t batch_size = std::max<uint32_t>(prog.merge_coef, 1);
  const uint64_t rule_cycles = std::max<uint64_t>(
      design.tuple_schedule.EffectiveMakespan(design.inter_ac_bus_lanes,
                                              threads),
      1);
  const uint64_t merge_cycles =
      compiler::MergeCycles(threads, prog.merge_slots.size(),
                            prog.ModelElements(), design.tree_bus_lanes) +
      design.batch_schedule.makespan;
  const auto batch_cycles = [&](uint64_t tuples) -> uint64_t {
    const uint64_t rule_runs = (tuples + threads - 1) / threads;
    return batch_q * (rule_runs * rule_cycles + merge_cycles);
  };
  const uint64_t remainder = walk.tuples % batch_size;
  const uint64_t engine_cycles =
      walk.tuples / batch_size * batch_cycles(batch_size) +
      (remainder != 0 ? batch_cycles(remainder) : 0);

  const double axi_bpc =
      udf_.fpga.AxiBytesPerCycle() * options.bandwidth_scale;
  EpochTiming t;
  t.batch_queries = batch_q;
  t.engine = dana::SimTime::Cycles(engine_cycles, freq);
  if (!options.strider_bypass) {
    const uint64_t axi_cycles = static_cast<uint64_t>(
        std::ceil(static_cast<double>(walk.page_bytes) / axi_bpc));
    const uint64_t strider_par =
        walk.strider_cycles / std::max<uint32_t>(design.num_page_buffers, 1);
    if (design.num_page_buffers >= 2) {
      // Access/execute interleaving: epoch runs at the slowest stage.
      t.fpga_cycles =
          std::max({axi_cycles, strider_par, engine_cycles}) +
          walk.strider_cycles / std::max<uint64_t>(walk.pages, 1);  // fill
    } else {
      t.fpga_cycles = axi_cycles + strider_par + engine_cycles;
    }
    t.axi = dana::SimTime::Cycles(axi_cycles, freq);
    t.strider = dana::SimTime::Cycles(strider_par, freq);
    t.access =
        dana::SimTime::Cycles(std::max(axi_cycles, strider_par), freq);
  } else {
    // Figure 11 alternative: CPU extracts and transforms each tuple and
    // DMAs it individually; no access/execute interleaving is possible.
    const uint64_t tuple_bytes = 4 * prog.TupleElements();
    t.cpu_extract =
        (options.cpu_extract_per_tuple +
         dana::SimTime::Nanos(options.cpu_extract_ns_per_byte *
                              static_cast<double>(tuple_bytes))) *
        static_cast<double>(walk.tuples);
    const uint64_t dma_cycles = static_cast<uint64_t>(
        std::ceil(static_cast<double>(tuple_bytes) / axi_bpc +
                  static_cast<double>(options.handshake_cycles_per_tuple)) *
        walk.tuples);
    t.fpga_cycles = dma_cycles + engine_cycles;
    t.axi = dana::SimTime::Cycles(dma_cycles, freq);
    t.strider = dana::SimTime::Zero();
    // CPU extraction and the per-tuple DMA stream once per pass; only the
    // engine compute replicates per co-trained model.
    t.access = t.axi;
  }
  t.fpga_cycles += design.epoch_schedule.makespan;
  t.fpga = dana::SimTime::Cycles(t.fpga_cycles, freq);
  return t;
}

EpochBreakdown EpochTiming::Fold(dana::SimTime io) const {
  EpochBreakdown bd;
  bd.io = io;
  bd.axi = axi;
  bd.strider = strider;
  bd.engine = engine;
  // The accelerator stalls when the buffer pool cannot replace pages fast
  // enough (§7.1, S/N SVM): wall = slower of I/O and FPGA.
  bd.wall = cpu_extract + dana::SimTime::Max(fpga, io);
  bd.shared = cpu_extract + dana::SimTime::Max(io, access);
  bd.per_query = engine / static_cast<double>(batch_queries);
  return bd;
}

void RunReport::AddEpoch(const EpochTiming& timing, dana::SimTime io) {
  const EpochBreakdown bd = timing.Fold(io);
  fpga_cycles += timing.fpga_cycles;
  fpga_time += timing.fpga;
  io_time += bd.io;
  total_time += bd.wall;
  shared_time += bd.shared;
  per_query_time += bd.per_query;
  epochs.push_back(bd);
  ++epochs_run;
}

}  // namespace dana::accel
