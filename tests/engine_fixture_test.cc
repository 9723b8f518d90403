// Bit-exact fixture for the execution-engine evaluator and the accelerator
// that drives it. The float64 EvaluatorVsInterpreter comparison carries a
// tolerance, so it cannot pin fp32 bits; these digests do. They were
// recorded from the tagged-operand evaluator (a two-level switch per operand
// over nested per-variable vectors) before it was replaced by the flat
// register-file evaluator, so that evaluator's role as an oracle survives
// as data.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "accel/accelerator.h"
#include "compiler/compiler.h"
#include "engine/evaluator.h"
#include "hdfg/translator.h"
#include "ml/algorithms.h"
#include "ml/datasets.h"
#include "storage/buffer_pool.h"

namespace dana {
namespace {

constexpr ml::AlgoKind kKinds[] = {
    ml::AlgoKind::kLinearRegression, ml::AlgoKind::kLogisticRegression,
    ml::AlgoKind::kSvm, ml::AlgoKind::kLowRankMF};

/// FNV-1a over raw bytes.
class Digest {
 public:
  void Mix(const void* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= static_cast<const unsigned char*>(data)[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void Add(const T& value) {
    Mix(&value, sizeof(value));
  }
  void Add(const SimTime& t) { Add(t.nanos()); }
  void Add(const std::vector<float>& v) {
    Add(v.size());
    Mix(v.data(), v.size() * sizeof(float));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

ml::AlgoParams Params(ml::AlgoKind kind, uint32_t coef) {
  ml::AlgoParams p;
  p.dims = 12;
  p.rank = 4;
  p.merge_coef = coef;
  p.epochs = 2;
  p.learning_rate = kind == ml::AlgoKind::kLowRankMF ? 0.5 : 0.3;
  // A convergence condition gives the program per-epoch ops that read the
  // last batch's merge outputs (LRMF's matrix gradient has no scalar norm).
  if (kind != ml::AlgoKind::kLowRankMF) p.convergence_norm = 1e-6;
  return p;
}

ml::Dataset Data(ml::AlgoKind kind, const ml::AlgoParams& p,
                 uint64_t tuples) {
  ml::DatasetSpec spec;
  spec.kind = kind;
  spec.dims = p.dims;
  spec.rank = p.rank;
  spec.tuples = tuples;
  spec.seed = 0xE6;
  return ml::GenerateDataset(spec);
}

/// Two epochs of the evaluator over 61 seeded tuples (so merge_coef 8
/// ends each epoch on a short batch), checking convergence after each.
uint64_t EvaluatorDigest(ml::AlgoKind kind, uint32_t coef) {
  const ml::AlgoParams p = Params(kind, coef);
  auto algo = std::move(ml::BuildAlgo(kind, p)).ValueOrDie();
  auto graph = std::move(hdfg::Translator::Translate(*algo)).ValueOrDie();
  const compiler::ScalarProgram prog =
      std::move(compiler::LowerGraph(graph)).ValueOrDie();
  const ml::Dataset data = Data(kind, p, 61);

  engine::ScalarEvaluator evaluator(prog);
  EXPECT_TRUE(evaluator.SetModel(0, ml::InitialModel(kind, p)).ok());
  Digest digest;
  std::vector<engine::TupleData> batch;
  auto flush = [&] {
    if (batch.empty()) return;
    EXPECT_TRUE(evaluator.EvalBatch(batch).ok());
    batch.clear();
  };
  for (uint32_t epoch = 0; epoch < p.epochs; ++epoch) {
    for (const auto& row : data.rows) {
      engine::TupleData t;
      t.inputs = {std::vector<float>(row.begin(), row.begin() + p.dims)};
      if (!prog.output_vars.empty()) {
        t.outputs = {{static_cast<float>(row[p.dims])}};
      }
      batch.push_back(std::move(t));
      if (batch.size() == coef) flush();
    }
    flush();
    auto stop = evaluator.EvalConvergence();
    EXPECT_TRUE(stop.ok());
    digest.Add(stop.ok() && *stop);
  }
  for (uint32_t m = 0; m < prog.model_vars.size(); ++m) {
    digest.Add(std::vector<float>(evaluator.Model(m)));
  }
  digest.Add(evaluator.ops_executed());
  return digest.value();
}

/// Accelerator::Train from a cold pool on a 300-tuple table, for at most
/// `epochs` epochs.
uint64_t TrainDigest(ml::AlgoKind kind, const ml::AlgoParams& p,
                     uint32_t epochs) {
  const ml::Dataset data = Data(kind, p, 300);
  storage::PageLayout layout;
  auto table = std::move(ml::BuildTable("t", data, layout)).ValueOrDie();
  storage::BufferPool pool(64ull << 20, 32 * 1024, storage::DiskModel{});

  auto algo = std::move(ml::BuildAlgo(kind, p)).ValueOrDie();
  compiler::WorkloadShape shape;
  shape.num_tuples = table->num_tuples();
  shape.num_pages = table->num_pages();
  shape.tuples_per_page = table->TuplesOnPage(0);
  shape.tuple_payload_bytes = table->schema().RowBytes();
  compiler::UdfCompiler compiler{compiler::FpgaSpec{}};
  const compiler::CompiledUdf udf =
      std::move(compiler.Compile(*algo, layout, shape)).ValueOrDie();

  accel::RunOptions opt;
  opt.max_epochs_override = epochs;
  opt.initial_models = {ml::InitialModel(kind, p)};
  auto report = accel::Accelerator(udf).Train(*table, &pool, opt);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return 0;

  Digest digest;
  digest.Add(report->epochs_run);
  digest.Add(report->epochs_completed);
  digest.Add(report->resumable);
  digest.Add(report->converged);
  digest.Add(report->tuples_processed);
  digest.Add(report->total_time);
  digest.Add(report->io_time);
  digest.Add(report->fpga_time);
  digest.Add(report->shared_time);
  digest.Add(report->per_query_time);
  digest.Add(report->fpga_cycles);
  digest.Add(report->strider_instructions);
  for (const accel::EpochBreakdown& e : report->epochs) {
    digest.Add(e.io);
    digest.Add(e.axi);
    digest.Add(e.strider);
    digest.Add(e.engine);
    digest.Add(e.wall);
    digest.Add(e.shared);
    digest.Add(e.per_query);
  }
  for (const std::vector<float>& m : report->final_models) digest.Add(m);
  return digest.value();
}

std::vector<std::pair<std::string, uint64_t>> EngineDigests() {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (ml::AlgoKind kind : kKinds) {
    for (uint32_t coef : {1u, 8u}) {
      out.emplace_back("eval/" + ml::AlgoKindName(kind) + "/coef" +
                           std::to_string(coef),
                       EvaluatorDigest(kind, coef));
    }
  }
  for (ml::AlgoKind kind : kKinds) {
    out.emplace_back("train/" + ml::AlgoKindName(kind),
                     TrainDigest(kind, Params(kind, 8), 1));
  }
  // Plain-SGD single-tuple batches until the convergence condition stops
  // the run (after 2 of the 40 budgeted epochs).
  ml::AlgoParams converging = Params(ml::AlgoKind::kLinearRegression, 1);
  converging.convergence_norm = 0.07;
  out.emplace_back("train/converge",
                   TrainDigest(ml::AlgoKind::kLinearRegression, converging,
                               40));
  return out;
}

// Regeneration aid (runs only with --gtest_also_run_disabled_tests): prints
// the fixture literals below. The recorded values came from the
// tagged-operand evaluator; never regenerate them to absorb an arithmetic
// change in the engine.
TEST(EngineFixtureTest, DISABLED_PrintDigests) {
  for (const auto& [config, digest] : EngineDigests()) {
    std::printf("    {\"%s\", 0x%016llxull},\n", config.c_str(),
                static_cast<unsigned long long>(digest));
  }
}

struct EngineDigest {
  const char* config;
  uint64_t digest;
};

const EngineDigest kEngineDigests[] = {
    {"eval/Linear Regression/coef1", 0x42e9d235a48d6de1ull},
    {"eval/Linear Regression/coef8", 0x0d6a177781ff4c01ull},
    {"eval/Logistic Regression/coef1", 0xad91615b3d918eb5ull},
    {"eval/Logistic Regression/coef8", 0xf7f5ee8803968cafull},
    {"eval/SVM/coef1", 0x629e0784f7644d29ull},
    {"eval/SVM/coef8", 0x72097702b171d984ull},
    {"eval/Low Rank Matrix Factorization/coef1", 0x6a4703f23ec45deaull},
    {"eval/Low Rank Matrix Factorization/coef8", 0xc740142c3c8fb989ull},
    {"train/Linear Regression", 0x880cd2e8a04bcd02ull},
    {"train/Logistic Regression", 0xc1243f891ac450fcull},
    {"train/SVM", 0x4cc47df3082f7ad9ull},
    {"train/Low Rank Matrix Factorization", 0x5d8fba677415acbbull},
    {"train/converge", 0x46e6b03d21c22866ull},
};

TEST(EngineFixtureTest, ReproducesEveryDigest) {
  const auto got = EngineDigests();
  ASSERT_EQ(got.size(), std::size(kEngineDigests));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, kEngineDigests[i].config);
    EXPECT_EQ(got[i].second, kEngineDigests[i].digest) << got[i].first;
  }
}

}  // namespace
}  // namespace dana
