#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "dsl/expr.h"
#include "engine/isa.h"
#include "hdfg/graph.h"

namespace dana::compiler {

/// Region tag of a scalar value (mirrors hdfg::Region for sub-op outputs).
enum class ValueRegion : uint8_t { kTuple = 0, kBatch = 1, kEpoch = 2 };

/// Reference to one scalar value in the lowered program.
struct ValueRef {
  enum class Kind : uint8_t {
    kNone = 0,   ///< absent operand (unary ops)
    kSub,        ///< output of a scalar op: (region, index into that list)
    kModel,      ///< element `index` of model var `var_id`
    kInput,      ///< element `index` of input var `var_id`
    kOutput,     ///< element `index` of output var `var_id`
    kMeta,       ///< meta var `var_id` (scalar)
    kConst,      ///< literal `constant`
    kMergeOut,   ///< merged value: merge slot `index`
  };
  Kind kind = Kind::kNone;
  ValueRegion region = ValueRegion::kTuple;  // for kSub
  uint32_t index = 0;
  uint32_t var_id = 0;
  double constant = 0.0;

  static ValueRef None() { return {}; }
  static ValueRef Const(double c) {
    ValueRef r;
    r.kind = Kind::kConst;
    r.constant = c;
    return r;
  }
  static ValueRef Sub(ValueRegion region, uint32_t index) {
    ValueRef r;
    r.kind = Kind::kSub;
    r.region = region;
    r.index = index;
    return r;
  }

  std::string ToString() const;
};

/// One atomic scalar operation (one hDFG sub-node, §4.4): the unit the
/// scheduler maps onto an analytic unit.
struct ScalarOp {
  engine::AluOp op = engine::AluOp::kNop;
  ValueRef a, b;
};

/// One element of a merge boundary: per-tuple value `src` is combined
/// across the batch with `combine` on the tree bus.
struct MergeSlot {
  engine::AluOp combine = engine::AluOp::kAdd;
  ValueRef src;
};

/// Model write-back: after the per-batch region, element `i` of model
/// variable `model_var` takes the value of `elems[i]`.
struct ModelWrite {
  uint32_t model_var = 0;
  std::vector<ValueRef> elems;
};

/// The fully lowered (flattened) UDF: every multi-dimensional hDFG node
/// expanded into scalar ops with explicit element routing. This is the
/// input of both the scheduler (timing) and the engine evaluator
/// (functional fp32 execution).
struct ScalarProgram {
  /// Variable tables; ValueRef::var_id indexes these. Shared ownership
  /// keeps the program self-contained even after the DSL Algo and the
  /// hDFG it was lowered from are gone.
  std::vector<std::shared_ptr<const dsl::Var>> model_vars;
  std::vector<std::shared_ptr<const dsl::Var>> input_vars;
  std::vector<std::shared_ptr<const dsl::Var>> output_vars;
  std::vector<std::shared_ptr<const dsl::Var>> meta_vars;

  /// Scalar ops by region, each in dependency (topological) order.
  std::vector<ScalarOp> tuple_ops;
  std::vector<ScalarOp> batch_ops;
  std::vector<ScalarOp> epoch_ops;

  std::vector<MergeSlot> merge_slots;
  std::vector<ModelWrite> model_writes;

  /// Convergence condition value (valid when has_convergence).
  ValueRef convergence;
  bool has_convergence = false;

  uint32_t merge_coef = 1;
  uint32_t max_epochs = 1;

  /// Total model elements across model variables.
  uint64_t ModelElements() const;
  /// Total elements of one training tuple (inputs + outputs).
  uint64_t TupleElements() const;

  std::string ToString() const;
};

/// Maps a DSL op to the engine ALU op; InvalidArgument for structural ops.
dana::Result<engine::AluOp> ToAluOp(dsl::OpKind op);

/// Checks that every op and merge combine is a known ALU op and that every
/// operand of `prog` addresses an existing value: sub-op indices within
/// their region's op list, element indices within their variable, meta
/// vars and merge outputs within their tables. Also checks that every
/// ModelWrite targets an existing model variable with exactly that
/// variable's element count, and that the engine's register file fits
/// 32-bit offsets. The engine evaluator indexes its register file with
/// these operands unchecked. InvalidArgument names the first violation.
dana::Status ValidateProgram(const ScalarProgram& prog);

/// Flattens an hDFG into a ScalarProgram (the backend's first step, §6.2).
dana::Result<ScalarProgram> LowerGraph(const hdfg::Graph& graph);

}  // namespace dana::compiler
