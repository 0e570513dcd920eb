#include "src/analysis/summary.h"

#include <algorithm>
#include <set>

#include "src/analysis/dataflow.h"
#include "src/support/logging.h"
#include "src/support/strings.h"

namespace dnsv {

const CalleeSummary* InterprocContext::SummaryFor(const std::string& name) const {
  auto it = summaries.find(name);
  return it == summaries.end() ? nullptr : &it->second;
}

const std::vector<AbsFacts>* InterprocContext::ParamFactsFor(const std::string& name) const {
  auto it = param_facts.find(name);
  return it == param_facts.end() ? nullptr : &it->second;
}

AnalysisStats& AnalysisStats::operator+=(const AnalysisStats& other) {
  callgraph_seconds += other.callgraph_seconds;
  summary_seconds += other.summary_seconds;
  sccp_seconds += other.sccp_seconds;
  functions += other.functions;
  pure_functions += other.pure_functions;
  nonnull_returns += other.nonnull_returns;
  const_returns += other.const_returns;
  param_fact_functions += other.param_fact_functions;
  sccp_branches_folded += other.sccp_branches_folded;
  return *this;
}

std::string AnalysisStats::ToString() const {
  return StrCat("callgraph ", callgraph_seconds, "s (", functions,
                " functions), summaries ", summary_seconds, "s (", pure_functions,
                " pure, ", nonnull_returns, " nonnull, ", const_returns, " const, ",
                param_fact_functions, " param-fact), sccp ", sccp_seconds, "s (",
                sccp_branches_folded, " branches folded)");
}

namespace {

// Joins `facts` into the per-parameter accumulator for one callee.
void JoinParamFacts(std::vector<AbsFacts>* acc, bool* first,
                    const std::vector<AbsFacts>& facts) {
  if (*first) {
    *acc = facts;
    *first = false;
    return;
  }
  if (acc->size() != facts.size()) {  // arity mismatch: go fully top
    acc->assign(std::max(acc->size(), facts.size()), AbsFacts{});
    return;
  }
  for (size_t i = 0; i < acc->size(); ++i) {
    AbsFacts& a = (*acc)[i];
    a.nullness = a.nullness == facts[i].nullness ? a.nullness : Null3::kMaybe;
    // Only the nullness channel propagates (see the header comment); keep the
    // others top so a later reader cannot rely on them by accident.
    a.range = Interval::Top();
    a.boolean = Bool3::kUnknown;
  }
}

// Per-callee accumulation of facts observed at call sites.
struct CallSiteAcc {
  std::vector<AbsFacts> facts;
  bool first = true;
  bool poisoned = false;  // some call site sits in an unanalyzed caller
};

}  // namespace

InterprocContext ComputeInterprocContext(const Module& module, const CallGraph& graph,
                                         const std::vector<std::string>& entry_points,
                                         AnalysisStats* stats) {
  double start = ElapsedSeconds();
  InterprocContext ctx;
  std::map<std::string, CallSiteAcc> call_sites;

  auto poison_callees = [&](const Function& fn) {
    for (uint32_t i = 0; i < fn.num_instrs(); ++i) {
      const Instr& instr = fn.instr(i);
      if (instr.op == Opcode::kCall) call_sites[instr.text].poisoned = true;
    }
  };

  // --- bottom-up: summaries (and, on the same walk, call-site facts) ---
  for (const std::vector<int>& scc : graph.SccsBottomUp()) {
    for (int member : scc) {
      const Function& fn = graph.function(member);
      CalleeSummary summary;  // pessimistic default
      bool analyzable = graph.SccIsTrivial(graph.SccOf(member)) &&
                        PreflightAllocasDontEscape(fn);
      if (!analyzable) {
        poison_callees(fn);
        ctx.summaries[fn.name()] = summary;
        continue;
      }
      ValueTable values;
      PruneDomain domain(&values, &ctx);
      DataflowResult<PruneDomain> flow = SolveForwardDataflow(fn, &domain);
      if (!flow.converged) {
        poison_callees(fn);
        ctx.summaries[fn.name()] = summary;
        continue;
      }
      summary.analyzed = true;
      summary.pure = true;
      summary.heap_independent = true;
      summary.may_panic = false;
      bool saw_ret_value = false;
      bool all_rets_nonnull = true;
      Interval ret_range;  // meaningful once saw_ret_value
      Bool3 ret_bool = Bool3::kUnknown;

      for (BlockId b = 0; b < fn.num_blocks(); ++b) {
        if (!flow.block_in[b].has_value()) continue;  // abstractly unreachable
        if (fn.block(b).is_panic_block) summary.may_panic = true;
        auto observer = [&](uint32_t index, AbsState* state) {
          const Instr& instr = fn.instr(index);
          switch (instr.op) {
            case Opcode::kStore: {
              ValueId addr = domain.OperandValue(state, instr.operands[0]);
              if (!domain.AddressIsLocal(*state, fn, addr)) summary.pure = false;
              break;
            }
            case Opcode::kLoad: {
              ValueId addr = domain.OperandValue(state, instr.operands[0]);
              if (!domain.AddressIsLocal(*state, fn, addr)) {
                summary.heap_independent = false;
              }
              break;
            }
            case Opcode::kHavoc:
              // Nondeterminism: two executions with equal arguments may still
              // differ, which forbids interning calls to this function.
              summary.heap_independent = false;
              break;
            case Opcode::kCall: {
              if (IsIntrinsicCallee(instr.text)) break;  // pure, total, value args
              const CalleeSummary* callee = ctx.SummaryFor(instr.text);
              if (callee == nullptr) {  // not in the module: assume the worst
                summary.pure = false;
                summary.heap_independent = false;
                summary.may_panic = true;
                break;
              }
              summary.pure = summary.pure && callee->pure;
              summary.heap_independent =
                  summary.heap_independent && callee->heap_independent;
              summary.may_panic = summary.may_panic || callee->may_panic;
              // Argument facts for the top-down pass, read in the pre-call
              // state of this caller's fixpoint.
              std::vector<AbsFacts> arg_facts;
              arg_facts.reserve(instr.operands.size());
              for (const Operand& op : instr.operands) {
                ValueId v = domain.OperandValue(state, op);
                AbsFacts facts;
                facts.nullness = domain.EvalNull(*state, v);
                arg_facts.push_back(facts);
              }
              CallSiteAcc& acc = call_sites[instr.text];
              JoinParamFacts(&acc.facts, &acc.first, arg_facts);
              break;
            }
            default:
              break;
          }
        };
        AbsState end = domain.ExecuteBodyObserved(fn, *flow.block_in[b], b, observer);
        const Instr& term = fn.instr(fn.block(b).instrs.back());
        if (term.op == Opcode::kRet && !term.operands.empty() && term.operands[0].valid()) {
          ValueId v = domain.OperandValue(&end, term.operands[0]);
          if (domain.EvalNull(end, v) != Null3::kNonNull) all_rets_nonnull = false;
          Interval range = domain.EvalInt(end, v);
          Bool3 boolean = domain.EvalBool(end, v);
          if (!saw_ret_value) {
            ret_range = range;
            ret_bool = boolean;
            saw_ret_value = true;
          } else {
            ret_range = Join(ret_range, range);
            if (boolean != ret_bool) ret_bool = Bool3::kUnknown;
          }
        }
      }
      if (saw_ret_value) {
        summary.returns_nonnull = all_rets_nonnull;
        summary.return_range = ret_range;
        summary.return_bool = ret_bool;
      }
      ctx.summaries[fn.name()] = summary;
    }
  }

  // --- top-down: entry facts for functions no driver enters directly ---
  std::set<std::string> roots(entry_points.begin(), entry_points.end());
  for (auto& [name, acc] : call_sites) {
    if (acc.poisoned || acc.first || roots.count(name) > 0) continue;
    if (module.GetFunction(name) == nullptr) continue;
    bool any = false;
    for (const AbsFacts& f : acc.facts) {
      if (!f.IsTop()) any = true;
    }
    if (any) ctx.param_facts[name] = acc.facts;
  }

  if (stats != nullptr) {
    stats->summary_seconds += ElapsedSeconds() - start;
    stats->functions += static_cast<int64_t>(graph.size());
    for (const auto& [name, s] : ctx.summaries) {
      if (s.pure) stats->pure_functions++;
      if (s.returns_nonnull) stats->nonnull_returns++;
      if (s.analyzed && (s.return_range.IsConst() || s.return_bool != Bool3::kUnknown)) {
        stats->const_returns++;
      }
    }
    stats->param_fact_functions += static_cast<int64_t>(ctx.param_facts.size());
  }
  return ctx;
}

}  // namespace dnsv
