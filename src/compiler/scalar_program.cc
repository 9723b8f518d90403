#include "compiler/scalar_program.h"

#include <limits>
#include <map>
#include <sstream>

#include "hdfg/broadcast.h"

namespace dana::compiler {

std::string ValueRef::ToString() const {
  switch (kind) {
    case Kind::kNone:
      return "-";
    case Kind::kSub: {
      std::string prefix = region == ValueRegion::kTuple
                               ? "t"
                               : region == ValueRegion::kBatch ? "b" : "e";
      prefix += "%";
      prefix += std::to_string(index);
      return prefix;
    }
    case Kind::kModel:
      return "model" + std::to_string(var_id) + "[" + std::to_string(index) +
             "]";
    case Kind::kInput:
      return "in" + std::to_string(var_id) + "[" + std::to_string(index) +
             "]";
    case Kind::kOutput:
      return "out" + std::to_string(var_id) + "[" + std::to_string(index) +
             "]";
    case Kind::kMeta:
      return "meta" + std::to_string(var_id);
    case Kind::kConst:
      return std::to_string(constant);
    case Kind::kMergeOut:
      return "merge[" + std::to_string(index) + "]";
  }
  return "?";
}

uint64_t ScalarProgram::ModelElements() const {
  uint64_t n = 0;
  for (const auto& v : model_vars) n += hdfg::NumElements(v->dims);
  return n;
}

uint64_t ScalarProgram::TupleElements() const {
  uint64_t n = 0;
  for (const auto& v : input_vars) n += hdfg::NumElements(v->dims);
  for (const auto& v : output_vars) n += hdfg::NumElements(v->dims);
  return n;
}

std::string ScalarProgram::ToString() const {
  std::ostringstream os;
  auto dump = [&](const char* name, const std::vector<ScalarOp>& ops,
                  ValueRegion region) {
    os << name << " (" << ops.size() << " ops):\n";
    for (size_t i = 0; i < ops.size(); ++i) {
      os << "  " << ValueRef::Sub(region, static_cast<uint32_t>(i)).ToString()
         << " = " << engine::AluOpName(ops[i].op) << " "
         << ops[i].a.ToString();
      if (ops[i].b.kind != ValueRef::Kind::kNone) {
        os << ", " << ops[i].b.ToString();
      }
      os << "\n";
    }
  };
  dump("tuple", tuple_ops, ValueRegion::kTuple);
  os << "merges (" << merge_slots.size() << "):\n";
  for (size_t i = 0; i < merge_slots.size(); ++i) {
    os << "  merge[" << i << "] = " << engine::AluOpName(merge_slots[i].combine)
       << " over " << merge_slots[i].src.ToString() << "\n";
  }
  dump("batch", batch_ops, ValueRegion::kBatch);
  dump("epoch", epoch_ops, ValueRegion::kEpoch);
  for (const auto& w : model_writes) {
    os << "write model" << w.model_var << " (" << w.elems.size()
       << " elems)\n";
  }
  return os.str();
}

Status ValidateProgram(const ScalarProgram& prog) {
  std::vector<uint64_t> model_n, input_n, output_n;
  uint64_t var_elements = 0;
  for (auto [vars, n] : {std::pair{&prog.model_vars, &model_n},
                         std::pair{&prog.input_vars, &input_n},
                         std::pair{&prog.output_vars, &output_n}}) {
    for (const auto& var : *vars) {
      n->push_back(hdfg::NumElements(var->dims));
      var_elements += n->back();
    }
  }

  auto in_range = [&](const ValueRef& ref) {
    auto in_var = [&ref](const std::vector<uint64_t>& n) {
      return ref.var_id < n.size() && ref.index < n[ref.var_id];
    };
    using K = ValueRef::Kind;
    switch (ref.kind) {
      case K::kNone:
      case K::kConst:
        return true;
      case K::kSub:
        switch (ref.region) {
          case ValueRegion::kTuple:
            return ref.index < prog.tuple_ops.size();
          case ValueRegion::kBatch:
            return ref.index < prog.batch_ops.size();
          case ValueRegion::kEpoch:
            return ref.index < prog.epoch_ops.size();
        }
        return false;
      case K::kModel:
        return in_var(model_n);
      case K::kInput:
        return in_var(input_n);
      case K::kOutput:
        return in_var(output_n);
      case K::kMeta:
        return ref.var_id < prog.meta_vars.size();
      case K::kMergeOut:
        return ref.index < prog.merge_slots.size();
    }
    return false;
  };
  auto known = [](engine::AluOp op) {
    return static_cast<uint8_t>(op) <=
           static_cast<uint8_t>(engine::AluOp::kMov);
  };
  auto bad = [](const std::string& where, const ValueRef& ref) {
    return Status::InvalidArgument(where + " operand " + ref.ToString() +
                                   " is out of range");
  };
  auto check_ops = [&](const std::vector<ScalarOp>& ops,
                       ValueRegion region) {
    for (size_t i = 0; i < ops.size(); ++i) {
      const ScalarOp& op = ops[i];
      if (known(op.op) && in_range(op.a) && in_range(op.b)) continue;
      const std::string where =
          ValueRef::Sub(region, static_cast<uint32_t>(i)).ToString();
      if (!known(op.op)) {
        return Status::InvalidArgument("unknown ALU op in " + where);
      }
      return bad(where, in_range(op.a) ? op.b : op.a);
    }
    return Status::OK();
  };

  DANA_RETURN_NOT_OK(check_ops(prog.tuple_ops, ValueRegion::kTuple));
  DANA_RETURN_NOT_OK(check_ops(prog.batch_ops, ValueRegion::kBatch));
  DANA_RETURN_NOT_OK(check_ops(prog.epoch_ops, ValueRegion::kEpoch));
  for (size_t m = 0; m < prog.merge_slots.size(); ++m) {
    const MergeSlot& slot = prog.merge_slots[m];
    if (known(slot.combine) && in_range(slot.src)) continue;
    const std::string where = "merge[" + std::to_string(m) + "]";
    if (!known(slot.combine)) {
      return Status::InvalidArgument("unknown ALU op in " + where);
    }
    return bad(where, slot.src);
  }
  for (const ModelWrite& write : prog.model_writes) {
    if (write.model_var >= model_n.size()) {
      return Status::InvalidArgument("model write targets missing model" +
                                     std::to_string(write.model_var));
    }
    if (write.elems.size() != model_n[write.model_var]) {
      return Status::InvalidArgument(
          "model write of " + std::to_string(write.elems.size()) +
          " elements to model" + std::to_string(write.model_var) + " of " +
          std::to_string(model_n[write.model_var]));
    }
    for (const ValueRef& elem : write.elems) {
      if (!in_range(elem)) {
        return bad("write model" + std::to_string(write.model_var), elem);
      }
    }
  }
  if (prog.has_convergence && !in_range(prog.convergence)) {
    return bad("convergence", prog.convergence);
  }
  // The register file holds every variable element, op slot, merge output
  // and meta value, the zero register, and at most one register per
  // constant operand.
  uint64_t write_elements = 0;
  for (const ModelWrite& write : prog.model_writes) {
    write_elements += write.elems.size();
  }
  const uint64_t ops = prog.tuple_ops.size() + prog.batch_ops.size() +
                       prog.epoch_ops.size();
  const uint64_t registers = var_elements + ops + prog.merge_slots.size() +
                             prog.meta_vars.size() + 1 +
                             (2 * ops + prog.merge_slots.size() +
                              write_elements + 1);
  if (registers > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "program needs up to " + std::to_string(registers) +
        " engine registers, more than 32-bit offsets address");
  }
  return Status::OK();
}

Result<engine::AluOp> ToAluOp(dsl::OpKind op) {
  using dsl::OpKind;
  switch (op) {
    case OpKind::kAdd:
      return engine::AluOp::kAdd;
    case OpKind::kSub:
      return engine::AluOp::kSub;
    case OpKind::kMul:
      return engine::AluOp::kMul;
    case OpKind::kDiv:
      return engine::AluOp::kDiv;
    case OpKind::kLt:
      return engine::AluOp::kLt;
    case OpKind::kGt:
      return engine::AluOp::kGt;
    case OpKind::kSigmoid:
      return engine::AluOp::kSigmoid;
    case OpKind::kGaussian:
      return engine::AluOp::kGaussian;
    case OpKind::kSqrt:
      return engine::AluOp::kSqrt;
    default:
      return Status::InvalidArgument("no ALU op for " + dsl::OpKindName(op));
  }
}

namespace {

ValueRegion ToValueRegion(hdfg::Region r) {
  switch (r) {
    case hdfg::Region::kPerBatch:
      return ValueRegion::kBatch;
    case hdfg::Region::kPerEpoch:
      return ValueRegion::kEpoch;
    default:
      return ValueRegion::kTuple;
  }
}

/// Lowering context: element maps per node plus the growing op lists.
class Lowerer {
 public:
  explicit Lowerer(const hdfg::Graph& g) : g_(g) {}

  Result<ScalarProgram> Run() {
    prog_.merge_coef = g_.merge_coef;
    prog_.max_epochs = g_.max_epochs;
    elems_.resize(g_.nodes.size());

    for (hdfg::NodeId id = 0; id < g_.nodes.size(); ++id) {
      DANA_RETURN_NOT_OK(LowerNode(id));
    }

    for (size_t u = 0; u < g_.update_roots.size(); ++u) {
      ModelWrite w;
      w.model_var = VarId(g_.model_vars[u], &prog_.model_vars);
      w.elems = elems_[g_.update_roots[u]];
      prog_.model_writes.push_back(std::move(w));
    }
    if (g_.convergence_root != hdfg::kInvalidNode) {
      prog_.has_convergence = true;
      prog_.convergence = elems_[g_.convergence_root][0];
    }
    if (Status st = ValidateProgram(prog_); !st.ok()) {
      return Status::Internal("lowering produced an invalid program: " +
                              st.message());
    }
    return std::move(prog_);
  }

 private:
  uint32_t VarId(std::shared_ptr<const dsl::Var> var,
                 std::vector<std::shared_ptr<const dsl::Var>>* table) {
    for (uint32_t i = 0; i < table->size(); ++i) {
      if ((*table)[i] == var) return i;
    }
    table->push_back(std::move(var));
    return static_cast<uint32_t>(table->size() - 1);
  }

  std::vector<ScalarOp>* OpsFor(ValueRegion r) {
    switch (r) {
      case ValueRegion::kTuple:
        return &prog_.tuple_ops;
      case ValueRegion::kBatch:
        return &prog_.batch_ops;
      case ValueRegion::kEpoch:
        return &prog_.epoch_ops;
    }
    return &prog_.tuple_ops;
  }

  ValueRef Emit(ValueRegion region, engine::AluOp op, ValueRef a,
                ValueRef b) {
    auto* ops = OpsFor(region);
    ops->push_back({op, a, b});
    return ValueRef::Sub(region, static_cast<uint32_t>(ops->size() - 1));
  }

  /// Balanced binary reduction of `vals` with `op` in `region`.
  ValueRef ReduceTree(ValueRegion region, engine::AluOp op,
                      std::vector<ValueRef> vals) {
    while (vals.size() > 1) {
      std::vector<ValueRef> next;
      next.reserve((vals.size() + 1) / 2);
      for (size_t i = 0; i + 1 < vals.size(); i += 2) {
        next.push_back(Emit(region, op, vals[i], vals[i + 1]));
      }
      if (vals.size() % 2) next.push_back(vals.back());
      vals = std::move(next);
    }
    return vals[0];
  }

  Status LowerNode(hdfg::NodeId id) {
    const hdfg::Node& n = g_.nodes[id];
    std::vector<ValueRef>& out = elems_[id];
    const uint64_t out_n = hdfg::NumElements(n.dims);

    switch (n.op) {
      case dsl::OpKind::kVarRef: {
        const std::shared_ptr<const dsl::Var> var = n.var;
        const uint64_t ne = hdfg::NumElements(var->dims);
        out.resize(ne);
        ValueRef::Kind kind;
        uint32_t var_id;
        switch (var->kind) {
          case dsl::VarKind::kModel:
            kind = ValueRef::Kind::kModel;
            var_id = VarId(var, &prog_.model_vars);
            break;
          case dsl::VarKind::kInput:
            kind = ValueRef::Kind::kInput;
            var_id = VarId(var, &prog_.input_vars);
            break;
          case dsl::VarKind::kOutput:
            kind = ValueRef::Kind::kOutput;
            var_id = VarId(var, &prog_.output_vars);
            break;
          case dsl::VarKind::kMeta:
            kind = ValueRef::Kind::kMeta;
            var_id = VarId(var, &prog_.meta_vars);
            break;
          default:
            return Status::Internal("unexpected leaf kind");
        }
        for (uint64_t i = 0; i < ne; ++i) {
          ValueRef r;
          r.kind = kind;
          r.var_id = var_id;
          r.index = static_cast<uint32_t>(i);
          out[i] = r;
        }
        break;
      }
      case dsl::OpKind::kConst:
        out = {ValueRef::Const(n.constant)};
        break;
      case dsl::OpKind::kMerge: {
        const auto& src = elems_[n.inputs[0]];
        out.resize(src.size());
        DANA_ASSIGN_OR_RETURN(engine::AluOp combine, ToAluOp(n.merge_op));
        for (size_t i = 0; i < src.size(); ++i) {
          ValueRef r;
          r.kind = ValueRef::Kind::kMergeOut;
          r.index = static_cast<uint32_t>(prog_.merge_slots.size());
          prog_.merge_slots.push_back({combine, src[i]});
          out[i] = r;
        }
        break;
      }
      case dsl::OpKind::kSigmoid:
      case dsl::OpKind::kGaussian:
      case dsl::OpKind::kSqrt: {
        const auto& in = elems_[n.inputs[0]];
        DANA_ASSIGN_OR_RETURN(engine::AluOp op, ToAluOp(n.op));
        const ValueRegion region = ToValueRegion(n.region);
        out.resize(in.size());
        for (size_t i = 0; i < in.size(); ++i) {
          out[i] = Emit(region, op, in[i], ValueRef::None());
        }
        break;
      }
      case dsl::OpKind::kSigma:
      case dsl::OpKind::kPi:
      case dsl::OpKind::kNorm: {
        const auto& in = elems_[n.inputs[0]];
        const auto& in_dims = g_.nodes[n.inputs[0]].dims;
        const ValueRegion region = ToValueRegion(n.region);
        const engine::AluOp combine = n.op == dsl::OpKind::kPi
                                          ? engine::AluOp::kMul
                                          : engine::AluOp::kAdd;
        uint64_t trail = 1;
        for (size_t i = n.axis + 1; i < in_dims.size(); ++i) {
          trail *= in_dims[i];
        }
        const uint64_t axis_n = in_dims[n.axis];
        const uint64_t lead = in.size() / (trail * axis_n);
        out.resize(out_n);
        for (uint64_t l = 0; l < lead; ++l) {
          for (uint64_t t = 0; t < trail; ++t) {
            std::vector<ValueRef> lane(axis_n);
            for (uint64_t a = 0; a < axis_n; ++a) {
              lane[a] = in[(l * axis_n + a) * trail + t];
            }
            if (n.op == dsl::OpKind::kNorm) {
              for (auto& v : lane) {
                v = Emit(region, engine::AluOp::kMul, v, v);
              }
            }
            ValueRef r = ReduceTree(region, combine, std::move(lane));
            if (n.op == dsl::OpKind::kNorm) {
              r = Emit(region, engine::AluOp::kSqrt, r, ValueRef::None());
            }
            out[l * trail + t] = r;
          }
        }
        break;
      }
      default: {
        // Elementwise binary with broadcasting.
        const auto& a = elems_[n.inputs[0]];
        const auto& b = elems_[n.inputs[1]];
        DANA_ASSIGN_OR_RETURN(engine::AluOp op, ToAluOp(n.op));
        const ValueRegion region = ToValueRegion(n.region);
        const hdfg::BroadcastIndexer idx(g_.nodes[n.inputs[0]].dims,
                                         g_.nodes[n.inputs[1]].dims);
        out.resize(out_n);
        for (uint64_t i = 0; i < out_n; ++i) {
          out[i] = Emit(region, op, a[idx.Index(true, i)],
                        b[idx.Index(false, i)]);
        }
        break;
      }
    }
    return Status::OK();
  }

  const hdfg::Graph& g_;
  ScalarProgram prog_;
  std::vector<std::vector<ValueRef>> elems_;
};

}  // namespace

Result<ScalarProgram> LowerGraph(const hdfg::Graph& graph) {
  Lowerer lowerer(graph);
  return lowerer.Run();
}

}  // namespace dana::compiler
