#include "engine/evaluator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <string>

#include "hdfg/graph.h"

namespace dana::engine {

namespace {

[[gnu::always_inline]] inline float Alu(AluOp op, float a, float b) {
  switch (op) {
    case AluOp::kNop:
    case AluOp::kMov:
      return a;
    case AluOp::kAdd:
      return a + b;
    case AluOp::kSub:
      return a - b;
    case AluOp::kMul:
      return a * b;
    case AluOp::kDiv:
      return a / b;
    case AluOp::kLt:
      return a < b ? 1.0f : 0.0f;
    case AluOp::kGt:
      return a > b ? 1.0f : 0.0f;
    case AluOp::kSigmoid:
      return 1.0f / (1.0f + std::exp(-a));
    case AluOp::kGaussian:
      return std::exp(-a * a);
    case AluOp::kSqrt:
      return std::sqrt(a);
  }
  return 0.0f;
}

/// One run of `n` ops of ALU op `kOp`, in order: an op may read the
/// result of an earlier op of the same run.
template <AluOp kOp, typename Operands>
void RunOf(float* r, const Operands* operands, size_t n, float* dst) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = Alu(kOp, r[operands[i].a], r[operands[i].b]);
  }
}

}  // namespace

float ApplyAluOp(AluOp op, float a, float b) { return Alu(op, a, b); }

void ScalarEvaluator::OpList::Append(AluOp op, uint32_t a, uint32_t b) {
  operands.push_back({a, b});
  if (runs.empty() || runs.back().op != op) runs.push_back({op, 0});
  runs.back().end = static_cast<uint32_t>(operands.size());
}

ScalarEvaluator::ScalarEvaluator(const compiler::ScalarProgram& prog)
    : status_(compiler::ValidateProgram(prog)) {
  if (!status_.ok()) return;

  // Register-file layout (see the class comment). ValidateProgram bounds
  // every operand and the file's size, so the offsets need no checks.
  uint32_t next = 0;
  auto reserve = [&next](size_t n) {
    const uint32_t base = next;
    next += static_cast<uint32_t>(n);
    return base;
  };
  auto place = [&reserve](const auto& vars, std::vector<uint32_t>* offsets) {
    for (const auto& var : vars) {
      offsets->push_back(reserve(hdfg::NumElements(var->dims)));
    }
    offsets->push_back(reserve(0));
  };
  place(prog.input_vars, &input_offsets_);
  place(prog.output_vars, &output_offsets_);
  tuple_bytes_ = sizeof(float) * next;
  tuple_ops_.base = reserve(prog.tuple_ops.size());
  batch_ops_.base = reserve(prog.batch_ops.size());
  epoch_ops_.base = reserve(prog.epoch_ops.size());
  merge_ops_.base = reserve(prog.merge_slots.size());
  place(prog.model_vars, &model_offsets_);
  const uint32_t meta_base = reserve(prog.meta_vars.size());
  const uint32_t zero = reserve(1);
  regs_.assign(next, 0.0f);
  for (size_t m = 0; m < prog.meta_vars.size(); ++m) {
    regs_[meta_base + m] = static_cast<float>(prog.meta_vars[m]->meta_value);
  }

  std::map<uint32_t, uint32_t> constants;  // fp32 bits -> register
  auto lower = [&](const compiler::ValueRef& ref) -> uint32_t {
    using K = compiler::ValueRef::Kind;
    switch (ref.kind) {
      case K::kNone:
        return zero;
      case K::kSub:
        switch (ref.region) {
          case compiler::ValueRegion::kTuple:
            return tuple_ops_.base + ref.index;
          case compiler::ValueRegion::kBatch:
            return batch_ops_.base + ref.index;
          case compiler::ValueRegion::kEpoch:
            return epoch_ops_.base + ref.index;
        }
        return zero;
      case K::kModel:
        return model_offsets_[ref.var_id] + ref.index;
      case K::kInput:
        return input_offsets_[ref.var_id] + ref.index;
      case K::kOutput:
        return output_offsets_[ref.var_id] + ref.index;
      case K::kMeta:
        return meta_base + ref.var_id;
      case K::kConst: {
        const float value = static_cast<float>(ref.constant);
        const auto [it, added] = constants.try_emplace(
            std::bit_cast<uint32_t>(value),
            static_cast<uint32_t>(regs_.size()));
        if (added) regs_.push_back(value);
        return it->second;
      }
      case K::kMergeOut:
        return merge_ops_.base + ref.index;
    }
    return zero;
  };
  auto lower_ops = [&lower](const std::vector<compiler::ScalarOp>& ops,
                            OpList* out) {
    out->operands.reserve(ops.size());
    for (const compiler::ScalarOp& op : ops) {
      out->Append(op.op, lower(op.a), lower(op.b));
    }
  };
  lower_ops(prog.tuple_ops, &tuple_ops_);
  lower_ops(prog.batch_ops, &batch_ops_);
  lower_ops(prog.epoch_ops, &epoch_ops_);
  for (size_t m = 0; m < prog.merge_slots.size(); ++m) {
    merge_ops_.Append(prog.merge_slots[m].combine,
                      merge_ops_.base + static_cast<uint32_t>(m),
                      lower(prog.merge_slots[m].src));
  }
  for (const compiler::ModelWrite& write : prog.model_writes) {
    const uint32_t base = model_offsets_[write.model_var];
    for (size_t e = 0; e < write.elems.size(); ++e) {
      write_src_.push_back(lower(write.elems[e]));
      write_dst_.push_back(base + static_cast<uint32_t>(e));
    }
  }
  staged_.resize(write_src_.size());
  has_convergence_ = prog.has_convergence;
  if (has_convergence_) convergence_ = lower(prog.convergence);
}

Status ScalarEvaluator::SetModel(uint32_t model_var,
                                 std::span<const float> values) {
  DANA_RETURN_NOT_OK(status_);
  if (size_t{model_var} + 1 >= model_offsets_.size()) {
    return Status::OutOfRange("model var " + std::to_string(model_var) +
                              " out of range");
  }
  const uint32_t begin = model_offsets_[model_var];
  if (values.size() != model_offsets_[model_var + 1] - begin) {
    return Status::InvalidArgument("model value size mismatch");
  }
  std::copy(values.begin(), values.end(), regs_.begin() + begin);
  return Status::OK();
}

std::vector<float> ScalarEvaluator::Model(uint32_t model_var) const {
  if (size_t{model_var} + 1 >= model_offsets_.size()) return {};
  return std::vector<float>(regs_.begin() + model_offsets_[model_var],
                            regs_.begin() + model_offsets_[model_var + 1]);
}

void ScalarEvaluator::RunOps(const OpList& ops) {
  float* r = regs_.data();
  uint32_t begin = 0;
  for (const OpList::Run& run : ops.runs) {
    const OpList::Operands* operands = ops.operands.data() + begin;
    const size_t n = run.end - begin;
    float* dst = r + ops.base + begin;
    switch (run.op) {
      case AluOp::kNop:
      case AluOp::kMov:
        RunOf<AluOp::kMov>(r, operands, n, dst);
        break;
      case AluOp::kAdd:
        RunOf<AluOp::kAdd>(r, operands, n, dst);
        break;
      case AluOp::kSub:
        RunOf<AluOp::kSub>(r, operands, n, dst);
        break;
      case AluOp::kMul:
        RunOf<AluOp::kMul>(r, operands, n, dst);
        break;
      case AluOp::kDiv:
        RunOf<AluOp::kDiv>(r, operands, n, dst);
        break;
      case AluOp::kLt:
        RunOf<AluOp::kLt>(r, operands, n, dst);
        break;
      case AluOp::kGt:
        RunOf<AluOp::kGt>(r, operands, n, dst);
        break;
      case AluOp::kSigmoid:
        RunOf<AluOp::kSigmoid>(r, operands, n, dst);
        break;
      case AluOp::kGaussian:
        RunOf<AluOp::kGaussian>(r, operands, n, dst);
        break;
      case AluOp::kSqrt:
        RunOf<AluOp::kSqrt>(r, operands, n, dst);
        break;
    }
    begin = run.end;
  }
}

void ScalarEvaluator::RunTuple(bool first_of_batch) {
  RunOps(tuple_ops_);
  ops_executed_ += tuple_ops_.operands.size();
  if (first_of_batch) {
    float* r = regs_.data();
    float* merged = r + merge_ops_.base;
    for (size_t m = 0; m < merge_ops_.operands.size(); ++m) {
      merged[m] = r[merge_ops_.operands[m].b];
    }
  } else {
    RunOps(merge_ops_);
  }
}

void ScalarEvaluator::FinishBatch() {
  RunOps(batch_ops_);
  ops_executed_ += batch_ops_.operands.size();
  // Stage then apply model writes (updates may read the old model).
  float* r = regs_.data();
  for (size_t i = 0; i < staged_.size(); ++i) staged_[i] = r[write_src_[i]];
  for (size_t i = 0; i < staged_.size(); ++i) r[write_dst_[i]] = staged_[i];
}

Status ScalarEvaluator::EvalBatch(std::span<const TupleData> batch) {
  DANA_RETURN_NOT_OK(status_);
  if (batch.empty()) {
    return Status::InvalidArgument("EvalBatch: empty batch");
  }
  auto matches = [](const std::vector<std::vector<float>>& vars,
                    const std::vector<uint32_t>& offsets) {
    if (vars.size() + 1 != offsets.size()) return false;
    for (size_t v = 0; v < vars.size(); ++v) {
      if (vars[v].size() != offsets[v + 1] - offsets[v]) return false;
    }
    return true;
  };
  for (const TupleData& t : batch) {
    if (!matches(t.inputs, input_offsets_) ||
        !matches(t.outputs, output_offsets_)) {
      return Status::InvalidArgument(
          "tuple variables do not match the program's input/output "
          "variables and element counts");
    }
  }

  auto load = [this](const std::vector<std::vector<float>>& vars,
                     const std::vector<uint32_t>& offsets) {
    for (size_t v = 0; v < vars.size(); ++v) {
      std::copy(vars[v].begin(), vars[v].end(), regs_.begin() + offsets[v]);
    }
  };
  for (size_t t = 0; t < batch.size(); ++t) {
    load(batch[t].inputs, input_offsets_);
    load(batch[t].outputs, output_offsets_);
    RunTuple(t == 0);
  }
  FinishBatch();
  return Status::OK();
}

Status ScalarEvaluator::EvalPackedBatch(std::span<const uint8_t> packed,
                                        size_t tuples) {
  DANA_RETURN_NOT_OK(status_);
  if (tuples == 0) {
    return Status::InvalidArgument("EvalBatch: empty batch");
  }
  // packed.size() == tuples * tuple_bytes_, without the product.
  const bool sized = tuple_bytes_ == 0
                         ? packed.empty()
                         : packed.size() % tuple_bytes_ == 0 &&
                               packed.size() / tuple_bytes_ == tuples;
  if (!sized) {
    return Status::InvalidArgument(
        "packed batch of " + std::to_string(packed.size()) + " bytes, " +
        "expected " + std::to_string(tuples) + " tuples of " +
        std::to_string(tuple_bytes_));
  }
  for (size_t t = 0; t < tuples; ++t) {
    // The input region starts at register 0 (see the class comment).
    if (tuple_bytes_ != 0) {
      std::memcpy(regs_.data(), packed.data() + t * tuple_bytes_,
                  tuple_bytes_);
    }
    RunTuple(t == 0);
  }
  FinishBatch();
  return Status::OK();
}

Result<bool> ScalarEvaluator::EvalConvergence() {
  DANA_RETURN_NOT_OK(status_);
  if (!has_convergence_) return false;
  RunOps(epoch_ops_);
  ops_executed_ += epoch_ops_.operands.size();
  return regs_[convergence_] != 0.0f;
}

}  // namespace dana::engine
