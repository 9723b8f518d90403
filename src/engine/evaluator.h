#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "compiler/scalar_program.h"

namespace dana::engine {

/// One training tuple as the execution engine sees it: flattened fp32
/// element vectors, one per input/output variable of the ScalarProgram.
struct TupleData {
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> outputs;
};

/// Functional model of the execution engine: executes the lowered scalar
/// program in IEEE fp32, the arithmetic the synthesized AUs perform.
///
/// Like the compiler fixing where each operand lives (§4.4-§5), the
/// constructor lowers every ValueRef once into an offset into one
/// contiguous fp32 register file laid out as
///
///   inputs | outputs | tuple ops | batch ops | epoch ops | merge outputs |
///   model | meta values | zero | constants
///
/// Inputs then outputs is the Strider payload order, so a packed tuple is
/// copied into the register file with one memcpy. Each op writes the slot
/// of its region at its own index and reads two registers; no operand kind
/// is decoded at evaluation time, and the ALU op is dispatched once per run
/// of consecutive same-op ops. Per-batch and per-epoch ops that read
/// tuple values see the batch's last tuple (the documented last-tuple
/// semantics) because the input region still holds it.
///
/// This is the semantics half of the engine simulator (the timing half is
/// the static Schedule); tests validate it against hdfg::Interpreter's
/// float64 reference and against bit-exact recorded digests, and the
/// accelerator uses it to actually train models.
///
/// The constructor runs compiler::ValidateProgram; on an invalid program
/// every evaluation call returns that status.
class ScalarEvaluator {
 public:
  explicit ScalarEvaluator(const compiler::ScalarProgram& prog);

  /// Overrides a model variable's current value (initialization).
  dana::Status SetModel(uint32_t model_var, std::span<const float> values);

  /// Current value of a model variable (flattened, row-major); empty for
  /// an unknown variable.
  std::vector<float> Model(uint32_t model_var) const;

  /// Runs one batch: per-tuple ops for each tuple, merge combination,
  /// per-batch ops, and model write-back. Plain-SGD programs (merge_coef
  /// 1) pass single-tuple batches. Every tuple must carry each input and
  /// output variable with exactly its element count.
  dana::Status EvalBatch(std::span<const TupleData> batch);

  /// EvalBatch over `tuples` tuples packed back to back in `packed`, each
  /// TupleBytes() long in Strider payload order (fp32 input variables,
  /// then output variables).
  dana::Status EvalPackedBatch(std::span<const uint8_t> packed,
                               size_t tuples);

  /// Evaluates the per-epoch convergence ops; true == stop. Always false
  /// without a convergence condition.
  dana::Result<bool> EvalConvergence();

  /// Scalar-op executions so far (dynamic instruction count).
  uint64_t ops_executed() const { return ops_executed_; }

  /// Bytes of one packed tuple: 4 * ScalarProgram::TupleElements().
  size_t TupleBytes() const { return tuple_bytes_; }

 private:
  /// One region's lowered ops. Op i reads registers `operands[i]` and
  /// writes register `base + i`; consecutive ops with the same ALU op form
  /// one run, so the ALU op is dispatched once per run, not per op.
  struct OpList {
    struct Operands {
      uint32_t a, b;
    };
    struct Run {
      AluOp op;
      uint32_t end;  ///< one past the run's last op
    };
    uint32_t base = 0;
    std::vector<Operands> operands;
    std::vector<Run> runs;

    void Append(AluOp op, uint32_t a, uint32_t b);
  };

  void RunOps(const OpList& ops);
  /// Per-tuple ops on the tuple in the input region, then the merge.
  void RunTuple(bool first_of_batch);
  /// Per-batch ops, then the staged model write-back.
  void FinishBatch();

  dana::Status status_;
  std::vector<float> regs_;
  /// Register offsets of each variable, plus one end sentinel.
  std::vector<uint32_t> input_offsets_, output_offsets_, model_offsets_;
  size_t tuple_bytes_ = 0;
  OpList tuple_ops_, batch_ops_, epoch_ops_;
  /// Merge slot m combines its source into merge output m: op m reads
  /// {output m, source} and writes output m. A batch's first tuple copies
  /// the sources instead.
  OpList merge_ops_;
  /// Model write-back, one entry per model element written: staged from
  /// `write_src_` first so updates read the pre-update model.
  std::vector<uint32_t> write_src_, write_dst_;
  std::vector<float> staged_;
  bool has_convergence_ = false;
  uint32_t convergence_ = 0;
  uint64_t ops_executed_ = 0;
};

/// Applies one ALU op in fp32 (shared with tests).
float ApplyAluOp(AluOp op, float a, float b);

}  // namespace dana::engine
