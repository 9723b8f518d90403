#include "compiler/serialization.h"

#include <cstring>

namespace dana::compiler {

namespace {

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  template <typename T, typename F>
  void Vec(const std::vector<T>& v, F writeElem) {
    U32(static_cast<uint32_t>(v.size()));
    for (const T& e : v) writeElem(e);
  }
  std::string Take() { return std::move(out_); }

 private:
  void Raw(const void* p, size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  std::string out_;
};

class Reader {
 public:
  explicit Reader(const std::string& in) : in_(in) {}

  Result<uint8_t> U8() {
    DANA_RETURN_NOT_OK(Need(1));
    return static_cast<uint8_t>(in_[pos_++]);
  }
  Result<uint16_t> U16() { return Fixed<uint16_t>(); }
  Result<uint32_t> U32() { return Fixed<uint32_t>(); }
  Result<uint64_t> U64() { return Fixed<uint64_t>(); }
  Result<double> F64() { return Fixed<double>(); }
  Result<std::string> Str() {
    DANA_ASSIGN_OR_RETURN(uint32_t n, U32());
    DANA_RETURN_NOT_OK(Need(n));
    std::string s = in_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  Result<uint32_t> Count(uint32_t sane_max = 1u << 26) {
    DANA_ASSIGN_OR_RETURN(uint32_t n, U32());
    if (n > sane_max) {
      return Status::Corruption("implausible element count " +
                                std::to_string(n));
    }
    return n;
  }
  bool AtEnd() const { return pos_ == in_.size(); }

 private:
  template <typename T>
  Result<T> Fixed() {
    DANA_RETURN_NOT_OK(Need(sizeof(T)));
    T v;
    std::memcpy(&v, in_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  Status Need(size_t n) {
    if (pos_ + n > in_.size()) {
      return Status::Corruption("catalog blob truncated at offset " +
                                std::to_string(pos_));
    }
    return Status::OK();
  }
  const std::string& in_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Component codecs
// ---------------------------------------------------------------------------

void PutValueRef(Writer* w, const ValueRef& r) {
  w->U8(static_cast<uint8_t>(r.kind));
  w->U8(static_cast<uint8_t>(r.region));
  w->U32(r.index);
  w->U32(r.var_id);
  w->F64(r.constant);
}

Result<ValueRef> GetValueRef(Reader* r) {
  ValueRef v;
  DANA_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
  if (kind > static_cast<uint8_t>(ValueRef::Kind::kMergeOut)) {
    return Status::Corruption("bad ValueRef kind");
  }
  v.kind = static_cast<ValueRef::Kind>(kind);
  DANA_ASSIGN_OR_RETURN(uint8_t region, r->U8());
  if (region > 2) return Status::Corruption("bad ValueRef region");
  v.region = static_cast<ValueRegion>(region);
  DANA_ASSIGN_OR_RETURN(v.index, r->U32());
  DANA_ASSIGN_OR_RETURN(v.var_id, r->U32());
  DANA_ASSIGN_OR_RETURN(v.constant, r->F64());
  return v;
}

void PutOps(Writer* w, const std::vector<ScalarOp>& ops) {
  w->Vec(ops, [&](const ScalarOp& op) {
    w->U8(static_cast<uint8_t>(op.op));
    PutValueRef(w, op.a);
    PutValueRef(w, op.b);
  });
}

Status GetOps(Reader* r, std::vector<ScalarOp>* ops) {
  DANA_ASSIGN_OR_RETURN(uint32_t n, r->Count());
  ops->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    DANA_ASSIGN_OR_RETURN(uint8_t op, r->U8());
    if (op > static_cast<uint8_t>(engine::AluOp::kMov)) {
      return Status::Corruption("bad ALU opcode in catalog blob");
    }
    (*ops)[i].op = static_cast<engine::AluOp>(op);
    DANA_ASSIGN_OR_RETURN((*ops)[i].a, GetValueRef(r));
    DANA_ASSIGN_OR_RETURN((*ops)[i].b, GetValueRef(r));
  }
  return Status::OK();
}

void PutVars(Writer* w,
             const std::vector<std::shared_ptr<const dsl::Var>>& vars) {
  w->U32(static_cast<uint32_t>(vars.size()));
  for (const auto& v : vars) {
    w->U8(static_cast<uint8_t>(v->kind));
    w->Str(v->name);
    w->U32(static_cast<uint32_t>(v->dims.size()));
    for (uint32_t d : v->dims) w->U32(d);
    w->F64(v->meta_value);
    w->U32(v->ordinal);
  }
}

Status GetVars(Reader* r,
               std::vector<std::shared_ptr<const dsl::Var>>* vars) {
  DANA_ASSIGN_OR_RETURN(uint32_t n, r->Count(1u << 16));
  vars->clear();
  for (uint32_t i = 0; i < n; ++i) {
    auto var = std::make_shared<dsl::Var>();
    DANA_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
    if (kind > static_cast<uint8_t>(dsl::VarKind::kInter)) {
      return Status::Corruption("bad var kind");
    }
    var->kind = static_cast<dsl::VarKind>(kind);
    DANA_ASSIGN_OR_RETURN(var->name, r->Str());
    DANA_ASSIGN_OR_RETURN(uint32_t rank, r->Count(8));
    var->dims.resize(rank);
    for (uint32_t d = 0; d < rank; ++d) {
      DANA_ASSIGN_OR_RETURN(var->dims[d], r->U32());
    }
    DANA_ASSIGN_OR_RETURN(var->meta_value, r->F64());
    DANA_ASSIGN_OR_RETURN(var->ordinal, r->U32());
    vars->push_back(std::move(var));
  }
  return Status::OK();
}

void PutSchedule(Writer* w, const Schedule& s) {
  w->U64(s.makespan);
  w->U64(s.op_count);
  w->U64(s.cross_ac_transfers);
  w->Vec(s.placements, [&](const OpPlacement& p) {
    w->U32(p.ac);
    w->U32(p.au);
    w->U32(p.start_cycle);
    w->U32(p.finish_cycle);
  });
}

Status GetSchedule(Reader* r, Schedule* s) {
  DANA_ASSIGN_OR_RETURN(s->makespan, r->U64());
  DANA_ASSIGN_OR_RETURN(s->op_count, r->U64());
  DANA_ASSIGN_OR_RETURN(s->cross_ac_transfers, r->U64());
  DANA_ASSIGN_OR_RETURN(uint32_t n, r->Count());
  s->placements.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    OpPlacement& p = s->placements[i];
    DANA_ASSIGN_OR_RETURN(p.ac, r->U32());
    DANA_ASSIGN_OR_RETURN(p.au, r->U32());
    DANA_ASSIGN_OR_RETURN(p.start_cycle, r->U32());
    DANA_ASSIGN_OR_RETURN(p.finish_cycle, r->U32());
  }
  return Status::OK();
}

}  // namespace

std::string SerializeUdf(const CompiledUdf& udf) {
  Writer w;
  w.Str("DANA");
  w.U32(kCatalogFormatVersion);
  w.Str(udf.udf_name);

  // --- Scalar program -----------------------------------------------------
  const ScalarProgram& p = udf.program;
  PutVars(&w, p.model_vars);
  PutVars(&w, p.input_vars);
  PutVars(&w, p.output_vars);
  PutVars(&w, p.meta_vars);
  PutOps(&w, p.tuple_ops);
  PutOps(&w, p.batch_ops);
  PutOps(&w, p.epoch_ops);
  w.Vec(p.merge_slots, [&](const MergeSlot& m) {
    w.U8(static_cast<uint8_t>(m.combine));
    PutValueRef(&w, m.src);
  });
  w.Vec(p.model_writes, [&](const ModelWrite& mw) {
    w.U32(mw.model_var);
    w.Vec(mw.elems, [&](const ValueRef& e) { PutValueRef(&w, e); });
  });
  PutValueRef(&w, p.convergence);
  w.U8(p.has_convergence ? 1 : 0);
  w.U32(p.merge_coef);
  w.U32(p.max_epochs);

  // --- Design point ---------------------------------------------------------
  const DesignPoint& d = udf.design;
  w.U32(d.num_threads);
  w.U32(d.acs_per_thread);
  w.U32(d.num_page_buffers);
  w.U32(d.tree_bus_lanes);
  w.U32(d.inter_ac_bus_lanes);
  PutSchedule(&w, d.tuple_schedule);
  PutSchedule(&w, d.batch_schedule);
  PutSchedule(&w, d.epoch_schedule);
  w.U64(d.total_aus);
  w.U64(d.dsps_used);
  w.U64(d.luts_used);
  w.U64(d.bram_used);
  w.U64(d.est_cycles_per_epoch);

  // --- Strider program -------------------------------------------------------
  w.Vec(udf.strider_program.code, [&](const strider::Instruction& ins) {
    w.U32(ins.Encode());
  });
  for (uint32_t c : udf.strider_program.config) w.U32(c);

  // --- Execution-engine streams ----------------------------------------------
  w.U32(static_cast<uint32_t>(udf.ac_programs.size()));
  for (const auto& acp : udf.ac_programs) {
    w.Vec(acp.instructions, [&](const engine::AcInstruction& instr) {
      w.U8(static_cast<uint8_t>(instr.op));
      w.U8(instr.active_mask);
      for (uint32_t l = 0; l < engine::kAusPerAc; ++l) {
        if (instr.active_mask & (1u << l)) w.U64(instr.lanes[l].Encode());
      }
    });
  }

  // --- Page layout + shape + FPGA --------------------------------------------
  const storage::PageLayout& l = udf.page_layout;
  w.U32(l.page_size);
  w.U32(l.header_size);
  w.U32(l.item_id_size);
  w.U32(l.tuple_header_size);
  w.U32(l.special_size);
  w.U32(l.lower_offset);
  w.U32(l.upper_offset);
  w.U32(l.special_offset);
  w.U64(udf.shape.num_tuples);
  w.U32(udf.shape.tuples_per_page);
  w.U64(udf.shape.num_pages);
  w.U32(udf.shape.tuple_payload_bytes);
  w.Str(udf.fpga.name);
  w.U64(udf.fpga.dsp_slices);
  w.U64(udf.fpga.bram_bytes);
  w.F64(udf.fpga.freq_hz);
  w.F64(udf.fpga.axi_bytes_per_sec);
  return w.Take();
}

Result<CompiledUdf> DeserializeUdf(const std::string& blob) {
  Reader r(blob);
  DANA_ASSIGN_OR_RETURN(std::string magic, r.Str());
  if (magic != "DANA") {
    return Status::Corruption("not a DAnA catalog blob (bad magic)");
  }
  DANA_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kCatalogFormatVersion) {
    return Status::InvalidArgument("unsupported catalog format version " +
                                   std::to_string(version));
  }

  CompiledUdf udf;
  DANA_ASSIGN_OR_RETURN(udf.udf_name, r.Str());

  ScalarProgram& p = udf.program;
  DANA_RETURN_NOT_OK(GetVars(&r, &p.model_vars));
  DANA_RETURN_NOT_OK(GetVars(&r, &p.input_vars));
  DANA_RETURN_NOT_OK(GetVars(&r, &p.output_vars));
  DANA_RETURN_NOT_OK(GetVars(&r, &p.meta_vars));
  DANA_RETURN_NOT_OK(GetOps(&r, &p.tuple_ops));
  DANA_RETURN_NOT_OK(GetOps(&r, &p.batch_ops));
  DANA_RETURN_NOT_OK(GetOps(&r, &p.epoch_ops));
  {
    DANA_ASSIGN_OR_RETURN(uint32_t n, r.Count());
    p.merge_slots.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      DANA_ASSIGN_OR_RETURN(uint8_t op, r.U8());
      p.merge_slots[i].combine = static_cast<engine::AluOp>(op);
      DANA_ASSIGN_OR_RETURN(p.merge_slots[i].src, GetValueRef(&r));
    }
  }
  {
    DANA_ASSIGN_OR_RETURN(uint32_t n, r.Count(1u << 16));
    p.model_writes.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      DANA_ASSIGN_OR_RETURN(p.model_writes[i].model_var, r.U32());
      DANA_ASSIGN_OR_RETURN(uint32_t ne, r.Count());
      p.model_writes[i].elems.resize(ne);
      for (uint32_t e = 0; e < ne; ++e) {
        DANA_ASSIGN_OR_RETURN(p.model_writes[i].elems[e], GetValueRef(&r));
      }
    }
  }
  DANA_ASSIGN_OR_RETURN(p.convergence, GetValueRef(&r));
  DANA_ASSIGN_OR_RETURN(uint8_t has_conv, r.U8());
  p.has_convergence = has_conv != 0;
  DANA_ASSIGN_OR_RETURN(p.merge_coef, r.U32());
  DANA_ASSIGN_OR_RETURN(p.max_epochs, r.U32());
  if (Status st = ValidateProgram(p); !st.ok()) {
    return Status::Corruption("invalid scalar program: " + st.message());
  }

  DesignPoint& d = udf.design;
  DANA_ASSIGN_OR_RETURN(d.num_threads, r.U32());
  DANA_ASSIGN_OR_RETURN(d.acs_per_thread, r.U32());
  DANA_ASSIGN_OR_RETURN(d.num_page_buffers, r.U32());
  DANA_ASSIGN_OR_RETURN(d.tree_bus_lanes, r.U32());
  DANA_ASSIGN_OR_RETURN(d.inter_ac_bus_lanes, r.U32());
  DANA_RETURN_NOT_OK(GetSchedule(&r, &d.tuple_schedule));
  DANA_RETURN_NOT_OK(GetSchedule(&r, &d.batch_schedule));
  DANA_RETURN_NOT_OK(GetSchedule(&r, &d.epoch_schedule));
  DANA_ASSIGN_OR_RETURN(d.total_aus, r.U64());
  DANA_ASSIGN_OR_RETURN(d.dsps_used, r.U64());
  DANA_ASSIGN_OR_RETURN(d.luts_used, r.U64());
  DANA_ASSIGN_OR_RETURN(d.bram_used, r.U64());
  DANA_ASSIGN_OR_RETURN(d.est_cycles_per_epoch, r.U64());

  {
    DANA_ASSIGN_OR_RETURN(uint32_t n, r.Count());
    udf.strider_program.code.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      DANA_ASSIGN_OR_RETURN(uint32_t word, r.U32());
      DANA_ASSIGN_OR_RETURN(udf.strider_program.code[i],
                            strider::Instruction::Decode(word));
    }
    for (auto& c : udf.strider_program.config) {
      DANA_ASSIGN_OR_RETURN(c, r.U32());
    }
  }

  {
    DANA_ASSIGN_OR_RETURN(uint32_t acs, r.Count(1u << 12));
    udf.ac_programs.resize(acs);
    for (uint32_t a = 0; a < acs; ++a) {
      DANA_ASSIGN_OR_RETURN(uint32_t n, r.Count());
      udf.ac_programs[a].instructions.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        engine::AcInstruction& instr = udf.ac_programs[a].instructions[i];
        DANA_ASSIGN_OR_RETURN(uint8_t op, r.U8());
        if (op > static_cast<uint8_t>(engine::AluOp::kMov)) {
          return Status::Corruption("bad cluster opcode");
        }
        instr.op = static_cast<engine::AluOp>(op);
        DANA_ASSIGN_OR_RETURN(instr.active_mask, r.U8());
        for (uint32_t l = 0; l < engine::kAusPerAc; ++l) {
          if (instr.active_mask & (1u << l)) {
            DANA_ASSIGN_OR_RETURN(uint64_t word, r.U64());
            DANA_ASSIGN_OR_RETURN(instr.lanes[l],
                                  engine::AuMicroOp::Decode(word));
          }
        }
      }
    }
  }

  storage::PageLayout& l = udf.page_layout;
  DANA_ASSIGN_OR_RETURN(l.page_size, r.U32());
  DANA_ASSIGN_OR_RETURN(l.header_size, r.U32());
  DANA_ASSIGN_OR_RETURN(l.item_id_size, r.U32());
  DANA_ASSIGN_OR_RETURN(l.tuple_header_size, r.U32());
  DANA_ASSIGN_OR_RETURN(l.special_size, r.U32());
  DANA_ASSIGN_OR_RETURN(l.lower_offset, r.U32());
  DANA_ASSIGN_OR_RETURN(l.upper_offset, r.U32());
  DANA_ASSIGN_OR_RETURN(l.special_offset, r.U32());
  DANA_ASSIGN_OR_RETURN(udf.shape.num_tuples, r.U64());
  DANA_ASSIGN_OR_RETURN(udf.shape.tuples_per_page, r.U32());
  DANA_ASSIGN_OR_RETURN(udf.shape.num_pages, r.U64());
  DANA_ASSIGN_OR_RETURN(udf.shape.tuple_payload_bytes, r.U32());
  DANA_ASSIGN_OR_RETURN(udf.fpga.name, r.Str());
  DANA_ASSIGN_OR_RETURN(udf.fpga.dsp_slices, r.U64());
  DANA_ASSIGN_OR_RETURN(udf.fpga.bram_bytes, r.U64());
  DANA_ASSIGN_OR_RETURN(udf.fpga.freq_hz, r.F64());
  DANA_ASSIGN_OR_RETURN(udf.fpga.axi_bytes_per_sec, r.F64());

  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after catalog blob");
  }
  return udf;
}

}  // namespace dana::compiler
