// Standalone layer replays for the traced run: the per-page work of one
// training epoch — buffer-pool fetches, Strider page walks, execution-engine
// batches, and Accelerator::Train itself — timed layer by layer on a table
// that fits its buffer pool and on one that overflows it.

#include <algorithm>
#include <cstring>

#include "accel/accelerator.h"
#include "engine/evaluator.h"
#include "hdfg/graph.h"
#include "ml/algorithms.h"
#include "perfbench.h"
#include "strider/simulator.h"

namespace perfbench {

namespace {

/// Remote Sensing LR (about 2% of its pool) and S/E SVM (several times it).
constexpr const char* kReplayWorkloads[] = {"rs_lr", "se_svm"};

/// Splits a Strider-emitted payload into the program's input and output
/// variables, the way the accelerator feeds its execution engines.
dana::Status Decode(const dana::compiler::ScalarProgram& prog,
                    const std::vector<uint8_t>& payload,
                    dana::engine::TupleData* tuple) {
  if (payload.size() < 4 * prog.TupleElements()) {
    return dana::Status::Corruption("short tuple payload");
  }
  size_t off = 0;
  auto take = [&](const auto& vars, std::vector<std::vector<float>>* dst) {
    dst->resize(vars.size());
    for (size_t i = 0; i < vars.size(); ++i) {
      const uint64_t n = dana::hdfg::NumElements(vars[i]->dims);
      (*dst)[i].resize(n);
      std::memcpy((*dst)[i].data(), payload.data() + off, n * 4);
      off += n * 4;
    }
  };
  take(prog.input_vars, &tuple->inputs);
  take(prog.output_vars, &tuple->outputs);
  return dana::Status::OK();
}

}  // namespace

dana::Status RunReplays(dana::bench::Harness* harness, Tracer* tracer,
                        Outcome* out) {
  const uint32_t span_setup = tracer->Id("replay.setup");
  const uint32_t span_storage = tracer->Id("replay.storage");
  const uint32_t span_strider = tracer->Id("replay.strider");
  const uint32_t span_engine = tracer->Id("replay.engine");
  const uint32_t span_accel = tracer->Id("replay.accel");
  uint64_t fetches = 0, pages = 0, ops = 0, tuples = 0, cycles = 0;

  for (const char* id : kReplayWorkloads) {
    dana::runtime::WorkloadInstance* instance = nullptr;
    const dana::compiler::CompiledUdf* udf = nullptr;
    {
      ScopedSpan span(tracer, span_setup);
      DANA_ASSIGN_OR_RETURN(instance, harness->Instance(id));
      DANA_ASSIGN_OR_RETURN(udf, harness->Compiled(id));
    }
    const dana::ml::Workload& w = instance->workload();
    const dana::storage::Table& table = instance->table();
    dana::storage::BufferPool* pool = instance->pool();
    const uint64_t rows = instance->dataset().rows.size();

    // Storage: two scans from a cold pool (misses, then hits or evictions).
    instance->PrepareCache(dana::runtime::CacheState::kCold);
    {
      ScopedSpan span(tracer, span_storage);
      for (int scan = 0; scan < 2; ++scan) {
        for (uint64_t p = 0; p < table.num_pages(); ++p) {
          DANA_RETURN_NOT_OK(pool->FetchPage(table, p).status());
        }
      }
    }
    fetches += 2 * table.num_pages();

    // Strider and engine: one functional epoch, page by page.
    const dana::compiler::ScalarProgram& prog = udf->program;
    dana::strider::StriderSim strider;
    dana::engine::ScalarEvaluator evaluator(prog);
    DANA_RETURN_NOT_OK(
        evaluator.SetModel(0, dana::ml::InitialModel(w.kind, w.params)));
    const size_t batch_size = std::max<uint32_t>(prog.merge_coef, 1);
    std::vector<dana::engine::TupleData> batch;
    uint64_t walked = 0;
    for (uint64_t p = 0; p < table.num_pages(); ++p) {
      dana::Result<dana::strider::StriderRunResult> run =
          dana::Status::Internal("not run");
      {
        ScopedSpan span(tracer, span_strider);
        run = strider.Run(udf->strider_program,
                          {table.PageData(p), table.layout().page_size});
      }
      if (!run.ok()) return run.status();
      ScopedSpan span(tracer, span_engine);
      for (const auto& payload : run->tuples) {
        ++walked;
        batch.emplace_back();
        DANA_RETURN_NOT_OK(Decode(prog, payload, &batch.back()));
        if (batch.size() == batch_size) {
          DANA_RETURN_NOT_OK(evaluator.EvalBatch(batch));
          batch.clear();
        }
      }
    }
    if (!batch.empty()) {
      ScopedSpan span(tracer, span_engine);
      DANA_RETURN_NOT_OK(evaluator.EvalBatch(batch));
    }
    pages += table.num_pages();
    ops += evaluator.ops_executed();
    if (walked != rows) {
      out->Fail(std::string("replay: Strider walk of ") + id + " emitted " +
                std::to_string(walked) + " of " + std::to_string(rows) +
                " tuples");
    }

    // Accelerator: one epoch of Accelerator::Train from a cold pool.
    instance->PrepareCache(dana::runtime::CacheState::kCold);
    dana::accel::RunOptions options;
    options.max_epochs_override = 1;
    options.initial_models = {dana::ml::InitialModel(w.kind, w.params)};
    dana::Result<dana::accel::RunReport> report =
        dana::Status::Internal("not run");
    {
      ScopedSpan span(tracer, span_accel);
      report = dana::accel::Accelerator(*udf).Train(table, pool, options);
    }
    if (!report.ok()) return report.status();
    tuples += report->tuples_processed;
    cycles += report->fpga_cycles;
    if (report->tuples_processed != rows) {
      out->Fail(std::string("replay: Accelerator::Train of ") + id +
                " processed " + std::to_string(report->tuples_processed) +
                " of " + std::to_string(rows) + " tuples");
    }
  }

  const double storage_s = tracer->Get("replay", "replay.storage").self_s;
  const double strider_s = tracer->Get("replay", "replay.strider").self_s;
  const double engine_s = tracer->Get("replay", "replay.engine").self_s;
  const double accel_s = tracer->Get("replay", "replay.accel").self_s;
  out->metrics["storage.fetches_per_s"] =
      static_cast<double>(fetches) / storage_s;
  out->metrics["strider.pages_per_s"] = static_cast<double>(pages) / strider_s;
  out->metrics["engine.ops_per_s"] = static_cast<double>(ops) / engine_s;
  out->metrics["accel.tuples_per_s"] = static_cast<double>(tuples) / accel_s;
  out->metrics["accel.sim_cycles_per_host_s"] =
      static_cast<double>(cycles) / accel_s;
  return dana::Status::OK();
}

}  // namespace perfbench
