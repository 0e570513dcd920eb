#include "src/analysis/prune.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "src/analysis/absdomain.h"
#include "src/analysis/callgraph.h"
#include "src/analysis/cfg.h"
#include "src/analysis/dataflow.h"
#include "src/analysis/sccp.h"
#include "src/ir/validate.h"
#include "src/support/logging.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

// Rewrites `fn`'s discharged safety-check branches into jmps. Returns the
// number of rewrites.
int64_t DischargePanicGuards(const Function& const_fn, Function* fn, PruneDomain* domain,
                             const DataflowResult<PruneDomain>& solved) {
  int64_t discharged = 0;
  for (BlockId b = 0; b < const_fn.num_blocks(); ++b) {
    if (!solved.block_in[b].has_value()) continue;  // unreachable under the domain
    const BasicBlock& bb = const_fn.block(b);
    uint32_t term_index = bb.instrs.back();
    const Instr& term = const_fn.instr(term_index);
    if (term.op != Opcode::kBr || term.target_true == term.target_false) continue;
    bool panic_true = const_fn.block(term.target_true).is_panic_block;
    bool panic_false = const_fn.block(term.target_false).is_panic_block;
    if (panic_true == panic_false) continue;  // not a safety-check guard

    AbsState at_term = domain->ExecuteBody(const_fn, *solved.block_in[b], b);
    ValueId cond = domain->OperandValue(&at_term, term.operands[0]);
    Bool3 value = domain->EvalBool(at_term, cond);
    // The guard is discharged when the panic side is infeasible: either the
    // condition constant-folds to the safe side, or asserting the panic side
    // contradicts the state.
    bool panic_side_infeasible;
    if (value != Bool3::kUnknown) {
      panic_side_infeasible = (value == Bool3::kTrue) != panic_true;
    } else {
      AbsState toward_panic = at_term;
      panic_side_infeasible = !domain->Assert(&toward_panic, cond, panic_true);
    }
    if (!panic_side_infeasible) continue;

    BlockId safe_target = panic_true ? term.target_false : term.target_true;
    Instr& rewritten = fn->mutable_instr(term_index);  // aliases `term`
    rewritten.op = Opcode::kJmp;
    rewritten.operands.clear();
    rewritten.target_true = safe_target;
    rewritten.target_false = kInvalidBlock;
    ++discharged;
  }
  return discharged;
}

// Deletes CFG-unreachable blocks and compacts the function. Returns the
// number of removed blocks (panic subset in *panic_blocks_removed), or 0 if
// nothing was removed. Bails out (returns nullopt, function untouched) when a
// surviving operand references an instruction of a removed block —
// rebuilding would dangle. Reachability is recomputed here, on the CFG as it
// stands after whatever rewrites (SCCP, discharge) preceded the call; no
// traversal order from before those edge deletions is reused.
std::optional<int64_t> RemoveUnreachableBlocks(Function* fn, int64_t* panic_blocks_removed) {
  std::vector<bool> reachable = ReachableBlocks(*fn);
  int64_t removed = 0;
  for (BlockId b = 0; b < fn->num_blocks(); ++b) {
    if (!reachable[b]) ++removed;
  }
  if (removed == 0) return 0;

  std::vector<BlockId> block_map(fn->num_blocks(), kInvalidBlock);
  std::vector<uint32_t> kept_instrs;
  int64_t panic_removed = 0;
  BlockId next_block = 0;
  for (BlockId b = 0; b < fn->num_blocks(); ++b) {
    if (!reachable[b]) {
      if (fn->block(b).is_panic_block) ++panic_removed;
      continue;
    }
    block_map[b] = next_block++;
    for (uint32_t index : fn->block(b).instrs) {
      kept_instrs.push_back(index);
    }
  }
  // Renumber by ascending original index: relative order is preserved, so
  // the def-before-use invariant carries over to the new numbering.
  std::sort(kept_instrs.begin(), kept_instrs.end());
  std::vector<uint32_t> instr_map(fn->num_instrs(), UINT32_MAX);
  for (uint32_t i = 0; i < kept_instrs.size(); ++i) {
    instr_map[kept_instrs[i]] = i;
  }

  for (uint32_t index : kept_instrs) {
    for (const Operand& op : fn->instr(index).operands) {
      if (op.kind == Operand::Kind::kReg && !Function::IsParamReg(op.reg) &&
          instr_map[op.reg] == UINT32_MAX) {
        return std::nullopt;  // kept instruction uses a removed definition
      }
    }
  }

  std::vector<Instr> new_instrs;
  new_instrs.reserve(kept_instrs.size());
  for (uint32_t index : kept_instrs) {
    Instr instr = fn->instr(index);
    for (Operand& op : instr.operands) {
      if (op.kind == Operand::Kind::kReg && !Function::IsParamReg(op.reg)) {
        op.reg = instr_map[op.reg];
      }
    }
    // Every surviving edge must land in a surviving block: a reachable
    // block's successors are reachable by definition, so a kInvalidBlock
    // mapping here means the reachability sweep and the rebuild disagree.
    if (instr.target_true != kInvalidBlock) {
      instr.target_true = block_map[instr.target_true];
      DNSV_CHECK_MSG(instr.target_true != kInvalidBlock,
                     "pruned edge into a removed block in " + fn->name());
    }
    if (instr.target_false != kInvalidBlock) {
      instr.target_false = block_map[instr.target_false];
      DNSV_CHECK_MSG(instr.target_false != kInvalidBlock,
                     "pruned edge into a removed block in " + fn->name());
    }
    new_instrs.push_back(std::move(instr));
  }
  std::vector<BasicBlock> new_blocks;
  new_blocks.reserve(fn->num_blocks() - removed);
  for (BlockId b = 0; b < fn->num_blocks(); ++b) {
    if (!reachable[b]) continue;
    BasicBlock block = fn->block(b);
    for (uint32_t& index : block.instrs) {
      index = instr_map[index];
    }
    new_blocks.push_back(std::move(block));
  }
  fn->ReplaceBody(std::move(new_blocks), std::move(new_instrs));
  *panic_blocks_removed += panic_removed;
  return removed;
}

}  // namespace

PruneStats& PruneStats::operator+=(const PruneStats& other) {
  functions_analyzed += other.functions_analyzed;
  functions_skipped += other.functions_skipped;
  panics_discharged += other.panics_discharged;
  blocks_removed += other.blocks_removed;
  panic_blocks_removed += other.panic_blocks_removed;
  return *this;
}

std::string PruneStats::ToString() const {
  return StrCat("prune: ", functions_analyzed, " analyzed, ", functions_skipped, " skipped, ",
                panics_discharged, " panics discharged, ", blocks_removed,
                " blocks removed (", panic_blocks_removed, " panic)");
}

PruneStats PruneFunction(const Module& module, Function* fn) {
  return PruneFunction(module, fn, nullptr, nullptr);
}

PruneStats PruneFunction(const Module& module, Function* fn,
                         const InterprocContext* interproc, AnalysisStats* analysis) {
  PruneStats stats;

  // Phase 0 (interproc only): fold constant branches and delete the dead
  // sides up front. The fixpoint below then runs on the already-shrunk CFG —
  // its reverse postorder and reachability are computed fresh from the
  // rewritten terminators, never reusing an ordering derived before the edge
  // deletions.
  if (interproc != nullptr) {
    double sccp_start = ElapsedSeconds();
    SccpResult sccp = RunSccp(fn, interproc);
    if (analysis != nullptr) {
      analysis->sccp_seconds += ElapsedSeconds() - sccp_start;
      analysis->sccp_branches_folded += sccp.branches_folded;
    }
    if (sccp.changed) {
      std::optional<int64_t> removed =
          RemoveUnreachableBlocks(fn, &stats.panic_blocks_removed);
      if (removed.has_value()) stats.blocks_removed += *removed;
    }
  }

  // Phase 1: discharge, gated on the soundness preconditions.
  if (!PreflightAllocasDontEscape(*fn)) {
    ++stats.functions_skipped;
  } else {
    ValueTable values;
    PruneDomain domain(&values, interproc);
    DataflowResult<PruneDomain> solved = SolveForwardDataflow(*fn, &domain);
    if (!solved.converged) {
      ++stats.functions_skipped;
    } else {
      ++stats.functions_analyzed;
      stats.panics_discharged = DischargePanicGuards(*fn, fn, &domain, solved);
    }
  }

  // Phase 2: unreachable-block elimination (independent of phase 1; also
  // collects frontend-emitted dead continuations).
  std::optional<int64_t> removed = RemoveUnreachableBlocks(fn, &stats.panic_blocks_removed);
  if (removed.has_value()) stats.blocks_removed += *removed;
  ValidateOptions options;
  // The final removal pass succeeding means no unreachable block survives —
  // the invariant the validator then enforces (together with the in-range,
  // no-stale-edge terminator checks it always runs).
  options.require_reachable = removed.has_value();
  Status status = ValidateFunction(module, *fn, options);
  DNSV_CHECK_MSG(status.ok(), StrCat("pruning broke ", fn->name(), ": ", status.message()));
  return stats;
}

PruneStats PruneModule(Module* module) {
  PruneStats stats;
  for (const auto& fn : module->functions()) {
    stats += PruneFunction(*module, fn.get());
  }
  return stats;
}

PruneStats PruneModule(Module* module, const PruneOptions& options, AnalysisStats* analysis) {
  if (!options.interproc) {
    PruneStats stats;
    for (const auto& fn : module->functions()) {
      stats += PruneFunction(*module, fn.get(), nullptr, analysis);
    }
    return stats;
  }

  // Whole-module facts first. Summaries are computed on the module as
  // lifted; SCCP runs per function inside PruneFunction. A precomputed
  // context (artifact-store replay) skips the whole-module passes entirely;
  // both paths feed the loop the same facts, so the rewritten module is
  // byte-identical either way — the store cross-checks that with the
  // persisted post-prune fingerprint.
  InterprocContext ctx;
  if (options.precomputed != nullptr) {
    ctx = *options.precomputed;
  } else {
    double graph_start = ElapsedSeconds();
    CallGraph graph = CallGraph::Build(*module);
    if (analysis != nullptr) {
      analysis->callgraph_seconds += ElapsedSeconds() - graph_start;
    }
    ctx = ComputeInterprocContext(*module, graph, options.entry_points, analysis);
  }
  if (options.capture != nullptr) {
    *options.capture = ctx;
  }

  PruneStats stats;
  for (const auto& fn : module->functions()) {
    stats += PruneFunction(*module, fn.get(), &ctx, analysis);
  }
  return stats;
}

}  // namespace dnsv
