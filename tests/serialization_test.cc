#include <gtest/gtest.h>

#include "accel/accelerator.h"
#include "compiler/serialization.h"
#include "ml/algorithms.h"
#include "ml/datasets.h"
#include "storage/buffer_pool.h"

namespace dana::compiler {
namespace {

struct Built {
  std::unique_ptr<storage::Table> table;
  CompiledUdf udf;
  ml::AlgoParams params;
  ml::AlgoKind kind;
};

Built Build(ml::AlgoKind kind, uint32_t dims) {
  Built b;
  b.kind = kind;
  b.params.dims = dims;
  b.params.rank = 3;
  b.params.merge_coef = 4;
  b.params.epochs = 2;
  b.params.learning_rate = kind == ml::AlgoKind::kLowRankMF ? 0.5 : 0.3;
  ml::DatasetSpec spec;
  spec.kind = kind;
  spec.dims = dims;
  spec.rank = 3;
  spec.tuples = 200;
  auto data = ml::GenerateDataset(spec);
  storage::PageLayout layout;
  b.table = std::move(ml::BuildTable("t", data, layout)).ValueOrDie();

  auto algo = std::move(ml::BuildAlgo(kind, b.params)).ValueOrDie();
  WorkloadShape shape;
  shape.num_tuples = b.table->num_tuples();
  shape.num_pages = b.table->num_pages();
  shape.tuples_per_page = b.table->TuplesOnPage(0);
  shape.tuple_payload_bytes = b.table->schema().RowBytes();
  UdfCompiler compiler{FpgaSpec{}};
  b.udf = std::move(compiler.Compile(*algo, layout, shape)).ValueOrDie();
  return b;
}

class SerializationTest : public ::testing::TestWithParam<ml::AlgoKind> {};

TEST_P(SerializationTest, RoundTripIsExact) {
  Built b = Build(GetParam(), 12);
  const std::string blob = SerializeUdf(b.udf);
  EXPECT_GT(blob.size(), 100u);
  auto back = DeserializeUdf(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  // Re-serializing the deserialized object must produce identical bytes.
  EXPECT_EQ(SerializeUdf(*back), blob);

  // Spot-check structural equality.
  EXPECT_EQ(back->udf_name, b.udf.udf_name);
  EXPECT_EQ(back->program.tuple_ops.size(), b.udf.program.tuple_ops.size());
  EXPECT_EQ(back->program.merge_slots.size(),
            b.udf.program.merge_slots.size());
  EXPECT_EQ(back->design.num_threads, b.udf.design.num_threads);
  EXPECT_EQ(back->design.tuple_schedule.makespan,
            b.udf.design.tuple_schedule.makespan);
  EXPECT_EQ(back->strider_program.code.size(),
            b.udf.strider_program.code.size());
  EXPECT_EQ(back->page_layout.page_size, b.udf.page_layout.page_size);
}

TEST_P(SerializationTest, DeserializedUdfTrainsIdentically) {
  Built b = Build(GetParam(), 10);
  auto back =
      std::move(DeserializeUdf(SerializeUdf(b.udf))).ValueOrDie();

  accel::RunOptions opt;
  opt.initial_models = {ml::InitialModel(b.kind, b.params)};

  storage::BufferPool pool1(64ull << 20, 32 * 1024, storage::DiskModel{});
  accel::Accelerator acc1(b.udf);
  auto r1 = std::move(acc1.Train(*b.table, &pool1, opt)).ValueOrDie();

  storage::BufferPool pool2(64ull << 20, 32 * 1024, storage::DiskModel{});
  accel::Accelerator acc2(back);
  auto r2 = std::move(acc2.Train(*b.table, &pool2, opt)).ValueOrDie();

  // Bit-identical training and identical simulated timing.
  EXPECT_EQ(r1.final_models, r2.final_models);
  EXPECT_EQ(r1.fpga_cycles, r2.fpga_cycles);
  EXPECT_EQ(r1.epochs_run, r2.epochs_run);
}

INSTANTIATE_TEST_SUITE_P(
    Algos, SerializationTest,
    ::testing::Values(ml::AlgoKind::kLinearRegression,
                      ml::AlgoKind::kLogisticRegression, ml::AlgoKind::kSvm,
                      ml::AlgoKind::kLowRankMF));

TEST(SerializationTest, RejectsGarbage) {
  EXPECT_TRUE(DeserializeUdf("").status().IsCorruption());
  EXPECT_TRUE(DeserializeUdf("not a blob").status().IsCorruption());
  std::string bad_magic = "\x04\x00\x00\x00NOPE";
  bad_magic.resize(64, '\0');
  EXPECT_TRUE(DeserializeUdf(bad_magic).status().IsCorruption());
}

TEST(SerializationTest, RejectsWrongVersion) {
  Built b = Build(ml::AlgoKind::kLinearRegression, 4);
  std::string blob = SerializeUdf(b.udf);
  // Version field sits right after the 4-byte-length + "DANA" magic.
  blob[8] = 99;
  EXPECT_TRUE(DeserializeUdf(blob).status().IsInvalidArgument());
}

TEST(SerializationTest, RejectsOutOfRangeOperand) {
  Built b = Build(ml::AlgoKind::kLinearRegression, 4);
  ASSERT_TRUE(ValidateProgram(b.udf.program).ok());

  // One operand pushed past its variable: every field the blob carries is
  // well-formed, only the index is wrong.
  CompiledUdf bad = b.udf;
  ValueRef* input = nullptr;
  for (ScalarOp& op : bad.program.tuple_ops) {
    for (ValueRef* ref : {&op.a, &op.b}) {
      if (ref->kind == ValueRef::Kind::kInput) input = ref;
    }
  }
  ASSERT_NE(input, nullptr);
  input->index = 4;
  EXPECT_TRUE(DeserializeUdf(SerializeUdf(bad)).status().IsCorruption());

  // A model write with the wrong element count would resize the model.
  bad = b.udf;
  bad.program.model_writes[0].elems.pop_back();
  EXPECT_TRUE(DeserializeUdf(SerializeUdf(bad)).status().IsCorruption());

  // A sub-op reference past its region's op list.
  bad = b.udf;
  bad.program.model_writes[0].elems[0] = ValueRef::Sub(
      ValueRegion::kBatch,
      static_cast<uint32_t>(bad.program.batch_ops.size()));
  EXPECT_TRUE(DeserializeUdf(SerializeUdf(bad)).status().IsCorruption());
}

TEST(SerializationTest, RejectsTruncation) {
  Built b = Build(ml::AlgoKind::kLinearRegression, 4);
  const std::string blob = SerializeUdf(b.udf);
  for (size_t cut : {blob.size() / 4, blob.size() / 2, blob.size() - 1}) {
    EXPECT_FALSE(DeserializeUdf(blob.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(SerializationTest, RejectsTrailingBytes) {
  Built b = Build(ml::AlgoKind::kLinearRegression, 4);
  std::string blob = SerializeUdf(b.udf);
  blob += "junk";
  EXPECT_TRUE(DeserializeUdf(blob).status().IsCorruption());
}

}  // namespace
}  // namespace dana::compiler
