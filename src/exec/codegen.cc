#include "src/exec/codegen.h"

#include <cctype>
#include <cstdio>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "src/support/logging.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

// C++ enumerator spelling of an EngineVersion, for the generated GenModule.
const char* VersionEnumerator(EngineVersion version) {
  switch (version) {
    case EngineVersion::kV1: return "EngineVersion::kV1";
    case EngineVersion::kV2: return "EngineVersion::kV2";
    case EngineVersion::kV3: return "EngineVersion::kV3";
    case EngineVersion::kDev: return "EngineVersion::kDev";
    case EngineVersion::kGolden: return "EngineVersion::kGolden";
    case EngineVersion::kV4: return "EngineVersion::kV4";
    case EngineVersion::kV5: return "EngineVersion::kV5";
  }
  DNSV_CHECK(false);
  return "?";
}

// Escapes arbitrary text into a C++ string literal. Octal escapes are always
// three digits so they cannot swallow a following literal digit.
std::string CppStringLiteral(const std::string& text) {
  std::string out = "\"";
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20 || c >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\%03o", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += "\"";
  return out;
}

std::string IntLiteral(int64_t v) {
  // INT64_MIN has no representable positive literal; spell it as an
  // expression.
  if (v == INT64_MIN) {
    return "(-9223372036854775807LL - 1)";
  }
  return StrCat(v, "LL");
}

// Maps AbsIR function names to unique C++ identifiers (fn_resolve, ...).
class SymbolTable {
 public:
  explicit SymbolTable(const Module& module) {
    std::set<std::string> used;
    for (const auto& fn : module.functions()) {
      std::string sym = "fn_";
      for (char c : fn->name()) {
        sym += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
      }
      while (used.count(sym) != 0) {
        sym += '_';
      }
      used.insert(sym);
      by_name_.emplace(fn->name(), sym);
    }
  }

  const std::string& Symbol(const std::string& fn_name) const {
    auto it = by_name_.find(fn_name);
    DNSV_CHECK_MSG(it != by_name_.end(), "codegen: call to unknown function " + fn_name);
    return it->second;
  }

 private:
  std::unordered_map<std::string, std::string> by_name_;
};

// The Go zero value of `type` as a C++ expression (mirrors ZeroValueOf,
// unrolled at codegen time — struct shapes are static, so no runtime type
// walk is needed).
std::string ZeroExpr(const TypeTable& types, Type type) {
  switch (types.kind(type)) {
    case TypeKind::kInt:
      return "Value::Int(0)";
    case TypeKind::kBool:
      return "Value::Bool(false)";
    case TypeKind::kPtr:
      return "Value::NullPtr()";
    case TypeKind::kList:
      return "Value::List()";
    case TypeKind::kStruct: {
      const StructDef& def = types.GetStruct(type);
      std::string out = "Value::Struct(std::vector<Value>{";
      for (size_t i = 0; i < def.fields.size(); ++i) {
        if (i > 0) out += ", ";
        out += ZeroExpr(types, def.fields[i].type);
      }
      return out + "})";
    }
    case TypeKind::kVoid:
      return "Value::Unit()";
  }
  DNSV_CHECK(false);
  return "Value::Unit()";
}

// Emits the body of one AbsIR function as goto-threaded C++. The lowering is
// a statement-for-statement transliteration of Interpreter::RunFrame; any
// behavioral difference between the two is a bug the backend differential
// (src/fuzz) is designed to catch.
//
// Six wire-behavior-preserving optimizations make the generated code much
// faster than re-tracing the interpreter's exact memory traffic
// (docs/BACKEND.md §performance):
//
//   * Alloca promotion (mem2reg): a kAlloca whose pointer is used ONLY as
//     the direct address of kLoad/kStore never escapes, so its cell lives in
//     a C++ local (`aN`) instead of ConcreteMemory. No Alloc, no Resolve, no
//     null checks — and none of those checks could ever fire on such a cell
//     (a fresh block with an empty path always resolves), so no panic is
//     lost. The interpreter still heap-allocates these cells, which is why
//     the compiled backend's heap grows slower; block NUMBERING also
//     diverges, but block ids never reach wire output and kPtrEq only needs
//     distinctness, which renumbering preserves.
//   * Load forwarding: a run of single-use loads from promoted slots
//     consumed by the instruction immediately after the run reads the slots
//     in place instead of deep-copying each cell into a register. Only other
//     loads sit between the forwarded read and its original position, so the
//     observed values are identical.
//   * Append/set fusion: the load/kListAppend/kStore (and kListSet) triple
//     the frontend emits for `xs = append(xs, v)` mutates the promoted slot
//     in place — O(1) instead of copying the list twice per append. Fusion
//     is skipped when another operand reads the same slot, which keeps the
//     copy-then-mutate order observable in that (self-referential) case.
//   * Pointer projection: a single-use kLoad/kFieldGet/kListGet whose one
//     consumer is the immediately-following kFieldGet/kListGet/kListLen
//     produces a `const Value*` into the cell (or into a live local) instead
//     of deep-copying a whole struct/list just to extract one member. All
//     null/resolve/bounds checks stay at their original program points, and
//     nothing between the pointer's birth and its only use can allocate or
//     mutate, so the pointer cannot dangle and the values read are the ones
//     the interpreter's copies would have held.
//   * Last-use moves: an operand register whose structural single def and
//     single use sit in the same basic block is dead after that use, so
//     sinks (kStore, kRet, list ops, fused appends) take it by std::move —
//     turning vector<Value> deep copies into pointer swaps. kRet may move
//     any non-param register: the frame is gone after the return.
//   * Parameter copy elision: the frontend's prologue stores every
//     parameter into an alloca slot. When that promoted slot has no OTHER
//     store anywhere in the function, it holds exactly the parameter for
//     its whole lifetime — a parameter is a const reference that cannot
//     change while the frame runs, and re-executing the entry block
//     re-stores the same parameter. The slot, the prologue's deep copy,
//     and every load of the slot vanish; uses read `pK` directly. kRet
//     routes such registers through a temporary exactly like a raw
//     parameter, since `*ret` may alias the caller's value.
class FunctionEmitter {
 public:
  FunctionEmitter(const Module& module, const Function& fn, const SymbolTable& symbols,
                  std::ostream& out)
      : module_(module), fn_(fn), symbols_(symbols), out_(out) {}

  void Emit() {
    Analyze();
    out_ << Signature(symbols_.Symbol(fn_.name()), fn_) << " {\n";
    // Depth accounting: the interpreter's entry frame runs at depth 0 and a
    // callee at depth d panics when d > kMaxCallDepth; here the entry frame
    // counts as 1 live frame, so the same query panics at the same call site
    // with kGenMaxCallDepth = kMaxCallDepth + 1 (see gen_support.h).
    out_ << "  if (ctx.depth >= kGenMaxCallDepth) "
            "return GenPanic(ctx, \"call depth limit exceeded\");\n";
    out_ << "  DepthScope depth_guard(ctx);\n";
    // All registers are declared ahead of the first label: C++ forbids a
    // goto that jumps into the scope of a non-vacuously-initialized local.
    for (uint32_t i = 0; i < fn_.num_instrs(); ++i) {
      const Instr& instr = fn_.instr(i);
      if (promoted_[i]) {
        if (slot_param_alias_[i] < 0) {
          out_ << "  Value a" << i << ";\n";  // the promoted cell itself
        }
        // A param-aliased slot has no storage at all: uses read pK.
      } else if (projectable_[i]) {
        out_ << "  const Value* q" << i << " = nullptr;\n";  // projection, not a copy
      } else if (instr.ProducesValue() && param_load_[i] < 0) {
        out_ << "  Value r" << i << ";\n";
      }
    }
    for (BlockId b = 0; b < fn_.num_blocks(); ++b) {
      out_ << "bb" << b << ":  // " << fn_.block(b).label << "\n";
      EmitBlock(fn_.block(b).instrs);
    }
    out_ << "}\n";
  }

  static std::string Signature(const std::string& symbol, const Function& fn) {
    std::string out = StrCat("bool ", symbol, "(GenCtx& ctx");
    for (size_t i = 0; i < fn.params().size(); ++i) {
      out += StrCat(", const Value& p", i);
    }
    out += ", Value* ret)";
    return out;
  }

 private:
  // Per-function dataflow facts backing the three optimizations. Result
  // registers are instruction indices, so "defined once" is structural; the
  // only analysis needed is use counting and the alloca escape check.
  void Analyze() {
    use_count_.assign(fn_.num_instrs(), 0);
    single_user_.assign(fn_.num_instrs(), 0);
    promoted_.assign(fn_.num_instrs(), false);
    for (uint32_t j = 0; j < fn_.num_instrs(); ++j) {
      for (const Operand& op : fn_.instr(j).operands) {
        if (op.kind == Operand::Kind::kReg && !Function::IsParamReg(op.reg)) {
          use_count_[op.reg]++;
          single_user_[op.reg] = j;
        }
      }
    }
    for (uint32_t i = 0; i < fn_.num_instrs(); ++i) {
      if (fn_.instr(i).op != Opcode::kAlloca) {
        continue;
      }
      bool address_escapes = false;
      for (uint32_t j = 0; j < fn_.num_instrs() && !address_escapes; ++j) {
        const Instr& user = fn_.instr(j);
        for (size_t k = 0; k < user.operands.size(); ++k) {
          const Operand& op = user.operands[k];
          if (op.kind != Operand::Kind::kReg || op.reg != i) {
            continue;
          }
          bool direct_addr = (user.op == Opcode::kLoad || user.op == Opcode::kStore) && k == 0;
          if (!direct_addr) {
            address_escapes = true;
            break;
          }
        }
      }
      promoted_[i] = !address_escapes;
    }
    // Parameter copy elision (see the class comment). A promoted slot
    // qualifies when its ONLY store is `store slot, pK` in the entry block
    // and no entry-block load of the slot precedes that store positionally
    // (loads in later blocks always run after the entry block finishes, so
    // they observe the stored parameter regardless of their numbering).
    slot_param_alias_.assign(fn_.num_instrs(), -1);
    param_load_.assign(fn_.num_instrs(), -1);
    const std::vector<uint32_t>& entry = fn_.block(0).instrs;
    const std::unordered_set<uint32_t> entry_instrs(entry.begin(), entry.end());
    for (uint32_t i = 0; i < fn_.num_instrs(); ++i) {
      if (fn_.instr(i).op != Opcode::kAlloca || !promoted_[i]) {
        continue;
      }
      int store_count = 0;
      uint32_t store_idx = 0;
      for (uint32_t j = 0; j < fn_.num_instrs(); ++j) {
        const Instr& user = fn_.instr(j);
        if (user.op == Opcode::kStore && user.operands[0].kind == Operand::Kind::kReg &&
            user.operands[0].reg == i) {
          ++store_count;
          store_idx = j;
        }
      }
      if (store_count != 1) {
        continue;
      }
      const Instr& st = fn_.instr(store_idx);
      if (st.operands[1].kind != Operand::Kind::kReg ||
          !Function::IsParamReg(st.operands[1].reg) || entry_instrs.count(store_idx) == 0) {
        continue;
      }
      bool load_before_store = false;
      for (uint32_t idx : entry) {
        if (idx == store_idx) {
          break;
        }
        const Instr& user = fn_.instr(idx);
        if (user.op == Opcode::kLoad && user.operands[0].kind == Operand::Kind::kReg &&
            user.operands[0].reg == i) {
          load_before_store = true;
          break;
        }
      }
      if (load_before_store) {
        continue;
      }
      slot_param_alias_[i] = static_cast<int>(Function::ParamIndex(st.operands[1].reg));
    }
    for (uint32_t j = 0; j < fn_.num_instrs(); ++j) {
      const Instr& user = fn_.instr(j);
      if (user.op == Opcode::kLoad && user.operands[0].kind == Operand::Kind::kReg &&
          !Function::IsParamReg(user.operands[0].reg) &&
          slot_param_alias_[user.operands[0].reg] >= 0) {
        param_load_[j] = slot_param_alias_[user.operands[0].reg];
      }
    }
    // Pointer projection (see the class comment). The producer must be an
    // lvalue source: a kLoad resolves to a real cell, while kFieldGet /
    // kListGet need a register base (a literal base would make the pointer
    // point into a dead temporary).
    projectable_.assign(fn_.num_instrs(), false);
    for (BlockId b = 0; b < fn_.num_blocks(); ++b) {
      const std::vector<uint32_t>& instrs = fn_.block(b).instrs;
      for (size_t t = 0; t + 1 < instrs.size(); ++t) {
        uint32_t x = instrs[t];
        const Instr& producer = fn_.instr(x);
        bool lvalue_source =
            (producer.op == Opcode::kLoad && !IsPromotedSlotAddr(producer.operands[0])) ||
            ((producer.op == Opcode::kFieldGet || producer.op == Opcode::kListGet) &&
             producer.operands[0].kind == Operand::Kind::kReg);
        if (!lvalue_source || use_count_[x] != 1 || single_user_[x] != instrs[t + 1]) {
          continue;
        }
        const Instr& user = fn_.instr(instrs[t + 1]);
        bool projecting_user = user.op == Opcode::kFieldGet || user.op == Opcode::kListGet ||
                               user.op == Opcode::kListLen;
        if (projecting_user && user.operands[0].kind == Operand::Kind::kReg &&
            user.operands[0].reg == x) {
          projectable_[x] = true;
        }
      }
    }
  }

  // True when `op` names a register that is dead after the instruction at
  // `user` consumes it: structurally single-def (reg == defining index),
  // statically single-use, and defined in the block currently being emitted,
  // so one dynamic def precedes each dynamic use. Such operands can be
  // std::move'd into their sink. Forwarded (subst_) and projected operands
  // name live storage and are never movable.
  bool MovableInto(const Operand& op, uint32_t user) const {
    return op.kind == Operand::Kind::kReg && !Function::IsParamReg(op.reg) &&
           use_count_[op.reg] == 1 && single_user_[op.reg] == user &&
           block_instrs_.count(op.reg) != 0 && !projectable_[op.reg] &&
           subst_.count(op.reg) == 0 && !promoted_[op.reg] && param_load_[op.reg] < 0;
  }

  // ValueExpr, wrapped in std::move when the operand is provably dead after
  // `user` (or after the whole frame, for kRet).
  std::string SinkExpr(const Operand& op, uint32_t user) const {
    std::string expr = ValueExpr(op);
    if (MovableInto(op, user)) {
      return StrCat("std::move(", expr, ")");
    }
    return expr;
  }

  // A load that reads a promoted slot and feeds exactly one consumer — the
  // candidate for forwarding and fusion.
  bool IsForwardableLoad(uint32_t index) const {
    const Instr& instr = fn_.instr(index);
    return instr.op == Opcode::kLoad && instr.operands[0].kind == Operand::Kind::kReg &&
           !Function::IsParamReg(instr.operands[0].reg) &&
           promoted_[instr.operands[0].reg] && use_count_[index] == 1 &&
           param_load_[index] < 0;  // aliased loads vanish entirely instead
  }

  uint32_t SlotOf(uint32_t load_index) const {
    return fn_.instr(load_index).operands[0].reg;
  }

  // Emits one basic block. Forwardable loads are not emitted eagerly: each
  // stays pending until its single consumer arrives (the slot is then read
  // in place of the copy) or any other instruction forces a flush.
  void EmitBlock(const std::vector<uint32_t>& instrs) {
    block_instrs_.clear();
    block_instrs_.insert(instrs.begin(), instrs.end());
    std::vector<uint32_t> pending;  // forwardable loads awaiting their consumer
    size_t i = 0;
    while (i < instrs.size()) {
      uint32_t index = instrs[i];
      if (IsForwardableLoad(index)) {
        pending.push_back(index);
        ++i;
        continue;
      }
      subst_.clear();
      for (uint32_t load : pending) {
        if (single_user_[load] == index) {
          subst_[load] = StrCat("a", SlotOf(load));
        } else {
          EmitInstr(load);  // consumed later or in another block
        }
      }
      pending.clear();
      // A fused mutation writes its slot in place, which is why every
      // pending load it does not consume was flushed above: no pending read
      // can observe the mutated cell.
      if (TryEmitFusedMutation(instrs, i)) {
        subst_.clear();
        i += 2;  // the mutation consumed the op and its store
        continue;
      }
      EmitInstr(index);
      subst_.clear();
      ++i;
    }
    // Unreachable — blocks end in a terminator, which is never a load, so
    // the last iteration drained `pending` — but a dropped load would
    // silently change behavior, so flush defensively.
    for (uint32_t load : pending) {
      EmitInstr(load);
    }
  }

  // load aS; rB = listappend/listset rA, ...; store aS, rB  →  mutate the
  // slot in place. Preconditions checked here; see the class comment for why
  // this is observably identical.
  bool TryEmitFusedMutation(const std::vector<uint32_t>& instrs, size_t op_pos) {
    if (op_pos + 1 >= instrs.size()) {
      return false;
    }
    uint32_t op_index = instrs[op_pos];
    const Instr& op = fn_.instr(op_index);
    if (op.op != Opcode::kListAppend && op.op != Opcode::kListSet) {
      return false;
    }
    // The list operand must be a load forwarded from a promoted slot.
    const Operand& list_op = op.operands[0];
    if (list_op.kind != Operand::Kind::kReg || subst_.count(list_op.reg) == 0) {
      return false;
    }
    uint32_t slot = SlotOf(list_op.reg);
    // The result must feed exactly the store that writes the same slot back.
    uint32_t store_index = instrs[op_pos + 1];
    const Instr& store = fn_.instr(store_index);
    if (store.op != Opcode::kStore || use_count_[op_index] != 1 ||
        single_user_[op_index] != store_index) {
      return false;
    }
    if (store.operands[0].kind != Operand::Kind::kReg || store.operands[0].reg != slot ||
        store.operands[1].kind != Operand::Kind::kReg || store.operands[1].reg != op_index) {
      return false;
    }
    // A value/index operand forwarded from the same slot would read the cell
    // mid-mutation; keep the interpreter's copy-then-store order instead.
    for (size_t k = 1; k < op.operands.size(); ++k) {
      const Operand& other = op.operands[k];
      if (other.kind == Operand::Kind::kReg && subst_.count(other.reg) != 0 &&
          SlotOf(other.reg) == slot) {
        return false;
      }
    }
    if (op.op == Opcode::kListAppend) {
      out_ << "  a" << slot << ".elems.push_back(" << SinkExpr(op.operands[1], op_index)
           << ");\n";
    } else {
      out_ << "  {\n"
           << "    int64_t idx = " << IntExpr(op.operands[1]) << ";\n"
           << "    if (idx < 0 || static_cast<size_t>(idx) >= a" << slot
           << ".elems.size()) return GenPanic(ctx, \"index out of range\");\n"
           << "    a" << slot << ".elems[static_cast<size_t>(idx)] = "
           << ValueExpr(op.operands[2]) << ";\n"
           << "  }\n";
    }
    return true;
  }

  // The C++ variable holding a register: parameters are p<k>, instruction
  // results r<index>.
  static std::string RegName(uint32_t reg) {
    if (Function::IsParamReg(reg)) {
      return StrCat("p", Function::ParamIndex(reg));
    }
    return StrCat("r", reg);
  }

  // An operand as a Value expression (variable reference, forwarded slot, or
  // literal).
  std::string ValueExpr(const Operand& op) const {
    switch (op.kind) {
      case Operand::Kind::kReg: {
        if (!Function::IsParamReg(op.reg)) {
          if (projectable_[op.reg]) {
            return StrCat("(*q", op.reg, ")");
          }
          if (param_load_[op.reg] >= 0) {
            return StrCat("p", param_load_[op.reg]);
          }
          auto it = subst_.find(op.reg);
          if (it != subst_.end()) {
            return it->second;
          }
        }
        return RegName(op.reg);
      }
      case Operand::Kind::kIntConst:
        return StrCat("Value::Int(", IntLiteral(op.imm), ")");
      case Operand::Kind::kBoolConst:
        return op.imm != 0 ? "Value::Bool(true)" : "Value::Bool(false)";
      case Operand::Kind::kNull:
        return "Value::NullPtr()";
      case Operand::Kind::kNone:
        break;
    }
    DNSV_CHECK(false);
    return "Value::Unit()";
  }

  // An operand's integer payload (Value::i) as a plain int64_t expression —
  // the fast path for arithmetic, comparisons, and branch conditions.
  std::string IntExpr(const Operand& op) const {
    switch (op.kind) {
      case Operand::Kind::kReg: {
        if (!Function::IsParamReg(op.reg)) {
          if (param_load_[op.reg] >= 0) {
            return StrCat("p", param_load_[op.reg], ".i");
          }
          auto it = subst_.find(op.reg);
          if (it != subst_.end()) {
            return it->second + ".i";
          }
        }
        return RegName(op.reg) + ".i";
      }
      case Operand::Kind::kIntConst:
        return IntLiteral(op.imm);
      case Operand::Kind::kBoolConst:
        return op.imm != 0 ? "1LL" : "0LL";
      case Operand::Kind::kNull:
      case Operand::Kind::kNone:
        break;
    }
    DNSV_CHECK(false);
    return "0LL";
  }

  void EmitInstr(uint32_t index) {
    const Instr& instr = fn_.instr(index);
    const TypeTable& types = module_.types();
    auto val = [&](size_t k) { return ValueExpr(instr.operands[k]); };
    auto num = [&](size_t k) { return IntExpr(instr.operands[k]); };
    auto sink = [&](size_t k) { return SinkExpr(instr.operands[k], index); };
    std::string dst = StrCat("r", index);
    switch (instr.op) {
      case Opcode::kBinOp:
        EmitBinOp(index, instr);
        break;
      case Opcode::kUnOp:
        if (instr.un_op == UnOp::kNot) {
          out_ << "  " << dst << " = Value::Bool((" << num(0) << ") == 0);\n";
        } else {
          out_ << "  " << dst << " = Value::Int(-(" << num(0) << "));\n";
        }
        break;
      case Opcode::kAlloca:
      case Opcode::kNewObject:
        if (promoted_[index]) {
          if (slot_param_alias_[index] >= 0) {
            break;  // no storage: the slot is an alias for a parameter
          }
          // A re-executed site (loop body) re-zeroes the cell, exactly as a
          // fresh interpreter cell starts zeroed.
          out_ << "  a" << index << " = " << ZeroExpr(types, instr.alloc_type) << ";\n";
          break;
        }
        out_ << "  " << dst << " = Value::Ptr(ctx.memory->Alloc("
             << ZeroExpr(types, instr.alloc_type) << "));\n";
        break;
      case Opcode::kLoad:
        if (param_load_[index] >= 0) {
          break;  // uses of this register read the parameter directly
        }
        if (IsPromotedSlotAddr(instr.operands[0])) {
          out_ << "  " << dst << " = a" << instr.operands[0].reg << ";\n";
          break;
        }
        out_ << "  {\n"
             << "    const Value& ptr = " << val(0) << ";\n"
             << "    if (ptr.IsNullPtr()) return GenPanic(ctx, \"nil pointer dereference\");\n"
             << "    const Value* target = ctx.memory->Resolve(ptr.block, ptr.path);\n"
             << "    if (target == nullptr) return GenPanic(ctx, \"invalid memory access\");\n";
        if (projectable_[index]) {
          out_ << "    q" << index << " = target;\n";
        } else {
          out_ << "    " << dst << " = *target;\n";
        }
        out_ << "  }\n";
        break;
      case Opcode::kStore:
        if (IsPromotedSlotAddr(instr.operands[0])) {
          if (slot_param_alias_[instr.operands[0].reg] >= 0) {
            break;  // the elided prologue copy: the slot IS the parameter
          }
          out_ << "  a" << instr.operands[0].reg << " = " << sink(1) << ";\n";
          break;
        }
        out_ << "  {\n"
             << "    const Value& ptr = " << val(0) << ";\n"
             << "    if (ptr.IsNullPtr()) return GenPanic(ctx, \"nil pointer dereference\");\n"
             << "    Value* target = ctx.memory->Resolve(ptr.block, ptr.path);\n"
             << "    if (target == nullptr) return GenPanic(ctx, \"invalid memory access\");\n"
             << "    *target = " << sink(1) << ";\n"
             << "  }\n";
        break;
      case Opcode::kGep: {
        // GenGepInto builds the extended path in one allocation (or none,
        // when the destination register's capacity suffices); the null check
        // runs at the same program point as the interpreter's.
        out_ << "  {\n"
             << "    const Value& base = " << val(0) << ";\n"
             << "    if (base.IsNullPtr()) return GenPanic(ctx, \"nil pointer dereference\");\n";
        if (instr.operands.size() > 1) {
          out_ << "    const int64_t idxs[] = {";
          for (size_t k = 1; k < instr.operands.size(); ++k) {
            if (k > 1) out_ << ", ";
            out_ << num(k);
          }
          out_ << "};\n"
               << "    GenGepInto(&" << dst << ", base, idxs, " << instr.operands.size() - 1
               << ");\n";
        } else {
          out_ << "    GenGepInto(&" << dst << ", base, nullptr, 0);\n";
        }
        out_ << "  }\n";
        break;
      }
      case Opcode::kCall:
        EmitCall(index, instr);
        break;
      case Opcode::kListNew:
        out_ << "  " << dst << " = Value::List();\n";
        break;
      case Opcode::kListLen:
        out_ << "  " << dst << " = Value::Int(static_cast<int64_t>((" << val(0)
             << ").elems.size()));\n";
        break;
      case Opcode::kListGet:
        out_ << "  {\n"
             << "    const Value& list = " << val(0) << ";\n"
             << "    int64_t idx = " << num(1) << ";\n"
             << "    if (idx < 0 || static_cast<size_t>(idx) >= list.elems.size()) "
                "return GenPanic(ctx, \"index out of range\");\n";
        if (projectable_[index]) {
          out_ << "    q" << index << " = &list.elems[static_cast<size_t>(idx)];\n";
        } else {
          out_ << "    Value elem = list.elems[static_cast<size_t>(idx)];\n"
               << "    " << dst << " = std::move(elem);\n";
        }
        out_ << "  }\n";
        break;
      case Opcode::kListSet:
        out_ << "  {\n"
             << "    Value list = " << sink(0) << ";\n"
             << "    int64_t idx = " << num(1) << ";\n"
             << "    if (idx < 0 || static_cast<size_t>(idx) >= list.elems.size()) "
                "return GenPanic(ctx, \"index out of range\");\n"
             << "    list.elems[static_cast<size_t>(idx)] = " << val(2) << ";\n"
             << "    " << dst << " = std::move(list);\n"
             << "  }\n";
        break;
      case Opcode::kListAppend:
        out_ << "  {\n"
             << "    Value list = " << sink(0) << ";\n"
             << "    list.elems.push_back(" << val(1) << ");\n"
             << "    " << dst << " = std::move(list);\n"
             << "  }\n";
        break;
      case Opcode::kFieldGet:
        if (projectable_[index]) {
          out_ << "  q" << index << " = &(" << val(0) << ").elems[static_cast<size_t>("
               << instr.field_index << ")];\n";
          break;
        }
        out_ << "  {\n"
             << "    Value field = (" << val(0) << ").elems[static_cast<size_t>("
             << instr.field_index << ")];\n"
             << "    " << dst << " = std::move(field);\n"
             << "  }\n";
        break;
      case Opcode::kHavoc:
        // Concretely havoc is the zero value (spec-dialect behavior,
        // matching the interpreter).
        out_ << "  " << dst << " = " << ZeroExpr(types, instr.result_type) << ";\n";
        break;
      case Opcode::kBr:
        out_ << "  if ((" << num(0) << ") != 0) goto bb" << instr.target_true
             << "; else goto bb" << instr.target_false << ";\n";
        break;
      case Opcode::kJmp:
        out_ << "  goto bb" << instr.target_true << ";\n";
        break;
      case Opcode::kRet:
        if (instr.operands.empty()) {
          out_ << "  *ret = Value::Unit();\n  return true;\n";
        } else if (instr.operands[0].kind == Operand::Kind::kReg &&
                   !Function::IsParamReg(instr.operands[0].reg) &&
                   !projectable_[instr.operands[0].reg] &&
                   param_load_[instr.operands[0].reg] < 0) {
          // A callee-local register (or promoted slot) cannot alias the
          // caller's destination, and the frame dies here — move it out
          // unconditionally.
          out_ << "  *ret = std::move(" << val(0) << ");\n  return true;\n";
        } else {
          // Through a temporary: a parameter is a const ref into the caller's
          // frame, so the destination register may be the very value the
          // operand refers to.
          out_ << "  {\n    Value result = " << val(0)
               << ";\n    *ret = std::move(result);\n  }\n  return true;\n";
        }
        break;
      case Opcode::kPanic:
        out_ << "  return GenPanic(ctx, " << CppStringLiteral(instr.text) << ");\n";
        break;
    }
  }

  void EmitBinOp(uint32_t index, const Instr& instr) {
    std::string dst = StrCat("r", index);
    // Lazy: pointer comparisons take Value operands (possibly the null
    // literal), which have no integer spelling.
    std::string a, b;
    if (instr.bin_op != BinOp::kPtrEq && instr.bin_op != BinOp::kPtrNe) {
      a = IntExpr(instr.operands[0]);
      b = IntExpr(instr.operands[1]);
    }
    auto emit_int = [&](const char* op) {
      out_ << "  " << dst << " = Value::Int((" << a << ") " << op << " (" << b << "));\n";
    };
    auto emit_cmp = [&](const char* op) {
      out_ << "  " << dst << " = Value::Bool((" << a << ") " << op << " (" << b << "));\n";
    };
    switch (instr.bin_op) {
      case BinOp::kAdd: emit_int("+"); break;
      case BinOp::kSub: emit_int("-"); break;
      case BinOp::kMul: emit_int("*"); break;
      case BinOp::kDiv:
        out_ << "  if ((" << b << ") == 0) "
             << "return GenPanic(ctx, \"integer divide by zero\");\n";
        emit_int("/");
        break;
      case BinOp::kMod:
        out_ << "  if ((" << b << ") == 0) "
             << "return GenPanic(ctx, \"integer divide by zero\");\n";
        emit_int("%");
        break;
      case BinOp::kEq:
      case BinOp::kBoolEq:
        emit_cmp("==");
        break;
      case BinOp::kNe:
      case BinOp::kBoolNe:
        emit_cmp("!=");
        break;
      case BinOp::kLt: emit_cmp("<"); break;
      case BinOp::kLe: emit_cmp("<="); break;
      case BinOp::kGt: emit_cmp(">"); break;
      case BinOp::kGe: emit_cmp(">="); break;
      case BinOp::kAnd:
        out_ << "  " << dst << " = Value::Bool((" << a << ") != 0 && (" << b
             << ") != 0);\n";
        break;
      case BinOp::kOr:
        out_ << "  " << dst << " = Value::Bool((" << a << ") != 0 || (" << b
             << ") != 0);\n";
        break;
      case BinOp::kPtrEq:
      case BinOp::kPtrNe: {
        bool eq = instr.bin_op == BinOp::kPtrEq;
        out_ << "  {\n"
             << "    const Value& lhs = " << ValueExpr(instr.operands[0]) << ";\n"
             << "    const Value& rhs = " << ValueExpr(instr.operands[1]) << ";\n"
             << "    " << dst << " = Value::Bool(" << (eq ? "" : "!")
             << "(lhs.block == rhs.block && lhs.path == rhs.path));\n"
             << "  }\n";
        break;
      }
    }
  }

  void EmitCall(uint32_t index, const Instr& instr) {
    std::string dst = StrCat("r", index);
    if (instr.text == "listEq") {
      DNSV_CHECK(instr.operands.size() == 2);
      out_ << "  " << dst << " = Value::Bool((" << ValueExpr(instr.operands[0])
           << ").elems == (" << ValueExpr(instr.operands[1]) << ").elems);\n";
      return;
    }
    const Function* callee = module_.GetFunction(instr.text);
    DNSV_CHECK_MSG(callee != nullptr, "codegen: call to unknown function " + instr.text);
    DNSV_CHECK_MSG(callee->params().size() == instr.operands.size(),
                   "codegen: arity mismatch calling " + instr.text);
    out_ << "  if (!" << symbols_.Symbol(instr.text) << "(ctx";
    for (size_t k = 0; k < instr.operands.size(); ++k) {
      out_ << ", " << ValueExpr(instr.operands[k]);
    }
    out_ << ", &" << dst << ")) return false;\n";
  }

  bool IsPromotedSlotAddr(const Operand& op) const {
    return op.kind == Operand::Kind::kReg && !Function::IsParamReg(op.reg) &&
           promoted_[op.reg];
  }

  const Module& module_;
  const Function& fn_;
  const SymbolTable& symbols_;
  std::ostream& out_;
  std::vector<int> use_count_;        // operand references per result register
  std::vector<uint32_t> single_user_; // meaningful only when use_count_ == 1
  std::vector<bool> promoted_;        // kAlloca indices promoted to locals
  std::vector<bool> projectable_;     // emitted as const Value* q<i>, not a copy
  std::vector<int> slot_param_alias_; // promoted slot -> aliased param index, or -1
  std::vector<int> param_load_;       // load of an aliased slot -> param index, or -1
  std::unordered_set<uint32_t> block_instrs_;        // instrs of the current block
  std::unordered_map<uint32_t, std::string> subst_;  // forwarded load -> slot expr
};

}  // namespace

std::string VersionToken(const std::string& version_name) {
  std::string token;
  for (char c : version_name) {
    token += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  DNSV_CHECK(!token.empty());
  return token;
}

PruneStats PruneForCodegen(Module* module) {
  PruneOptions options;
  options.interproc = true;
  options.entry_points = EngineAnalysisRoots();
  AnalysisStats analysis;
  return PruneModule(module, options, &analysis);
}

void EmitGenModule(const Module& module, EngineVersion version,
                   const std::string& version_name, uint64_t fingerprint,
                   std::ostream& out) {
  SymbolTable symbols(module);
  char fp_buf[32];
  std::snprintf(fp_buf, sizeof(fp_buf), "0x%016llx",
                static_cast<unsigned long long>(fingerprint));

  out << "// Generated by absir-codegen from the post-prune AbsIR of engine "
      << version_name << ".\n"
      << "// Do not edit; regenerate via the build. IR fingerprint: " << fp_buf << ".\n"
      << "#include <utility>\n"
      << "#include <vector>\n\n"
      << "#include \"src/exec/gen_support.h\"\n\n"
      << "#if defined(__GNUC__)\n"
      << "#pragma GCC diagnostic ignored \"-Wunused-label\"\n"
      << "#pragma GCC diagnostic ignored \"-Wunused-variable\"\n"
      << "#pragma GCC diagnostic ignored \"-Wunused-but-set-variable\"\n"
      << "#endif\n\n"
      << "namespace dnsv {\n"
      << "namespace execgen {\n"
      << "namespace gen_" << VersionToken(version_name) << " {\n"
      << "namespace {\n\n";

  for (const auto& fn : module.functions()) {
    out << FunctionEmitter::Signature(symbols.Symbol(fn->name()), *fn) << ";\n";
  }
  out << "\n";
  for (const auto& fn : module.functions()) {
    FunctionEmitter(module, *fn, symbols, out).Emit();
    out << "\n";
  }
  out << "\n";

  // Uniform vector-unpacking wrappers, one per function, for the GenFnEntry
  // dispatch table.
  for (const auto& fn : module.functions()) {
    const std::string& symbol = symbols.Symbol(fn->name());
    out << "bool call_" << symbol.substr(3)
        << "(GenCtx& ctx, const std::vector<Value>& args, Value* ret) {\n"
        << "  return " << symbol << "(ctx";
    for (size_t i = 0; i < fn->params().size(); ++i) {
      out << ", args[" << i << "]";
    }
    out << ", ret);\n}\n";
  }

  out << "\nconst GenFnEntry kEntries[] = {\n";
  for (const auto& fn : module.functions()) {
    out << "    {" << CppStringLiteral(fn->name()) << ", &call_"
        << symbols.Symbol(fn->name()).substr(3) << ", "
        << fn->params().size() << "},\n";
  }
  out << "};\n\n"
      << "}  // namespace\n\n"
      << "extern const GenModule kModule;\n"
      << "const GenModule kModule = {" << VersionEnumerator(version) << ", "
      << CppStringLiteral(version_name) << ", " << fp_buf << "ull, kEntries,\n"
      << "                            sizeof(kEntries) / sizeof(kEntries[0])};\n\n"
      << "}  // namespace gen_" << VersionToken(version_name) << "\n"
      << "}  // namespace execgen\n"
      << "}  // namespace dnsv\n";
}

void EmitGenManifest(const std::vector<std::string>& version_names, std::ostream& out) {
  out << "// Generated by absir-codegen: the AllGenModules() registry over every\n"
      << "// engine version emitted in this build. Do not edit.\n"
      << "#include \"src/exec/gen_support.h\"\n\n"
      << "namespace dnsv {\n"
      << "namespace execgen {\n\n";
  for (const std::string& name : version_names) {
    out << "namespace gen_" << VersionToken(name) << " { extern const GenModule kModule; }\n";
  }
  out << "\nconst GenModule* const* AllGenModules(size_t* count) {\n"
      << "  static const GenModule* const kModules[] = {\n";
  for (const std::string& name : version_names) {
    out << "      &gen_" << VersionToken(name) << "::kModule,\n";
  }
  out << "  };\n"
      << "  *count = sizeof(kModules) / sizeof(kModules[0]);\n"
      << "  return kModules;\n"
      << "}\n\n"
      << "}  // namespace execgen\n"
      << "}  // namespace dnsv\n";
}

}  // namespace dnsv
