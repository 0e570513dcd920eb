// Prove-and-prune: statically discharge GoLLVM safety checks before the
// symbolic executor sees them.
//
// Baseline mode (PR 2 behavior, the default): two passes over each function,
// both driven by the intraprocedural PruneDomain fixpoint:
//
//  1. Panic discharge — a conditional branch guarding a panic block whose
//     panic side the abstract state proves infeasible (index in [0, len),
//     divisor nonzero, pointer non-nil) is rewritten into an unconditional
//     jmp to the safe side. The symbolic executor pays two solver checks per
//     symbolic br and zero per jmp, so every discharged check saves solver
//     work on every path that crosses it — for every version x zone verified.
//     Branches whose *safe* side is infeasible (a genuinely reachable panic)
//     are left untouched: the verifier must still report them.
//
//  2. Unreachable-block elimination — blocks no terminator edge reaches
//     (orphaned panic blocks after discharge, plus frontend-emitted dead
//     continuations) are deleted and the function is compactly rebuilt.
//
// Interprocedural mode (PruneOptions::interproc) front-loads the whole-module
// analyses from callgraph.h / summary.h:
//
//  a. SCCP (sccp.h) folds every constant branch — feature gates first of
//     all — and the dead sides are deleted BEFORE the fixpoint runs, so the
//     domain never wastes precision joining states from disabled features.
//     The dataflow re-derives reverse postorder and reachability from the
//     rewritten CFG; nothing from before the edge deletion is reused.
//  b. The PruneDomain consumes callee summaries (purity, non-nil and
//     constant returns) and entry facts for functions no driver calls
//     directly — discharging strictly more guards than the baseline while
//     every verdict stays byte-identical.
//
// PruneFunction re-validates the result (with the reachability invariant on)
// before returning; soundness is additionally guarded by the differential
// interpreter tests in tests/analysis/.
#ifndef DNSV_ANALYSIS_PRUNE_H_
#define DNSV_ANALYSIS_PRUNE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/summary.h"
#include "src/ir/function.h"

namespace dnsv {

struct PruneStats {
  int64_t functions_analyzed = 0;
  int64_t functions_skipped = 0;     // escaping allocas or non-convergence
  int64_t panics_discharged = 0;     // safety-check brs rewritten into jmps
  int64_t blocks_removed = 0;        // unreachable blocks deleted
  int64_t panic_blocks_removed = 0;  // subset of blocks_removed

  // The static measure reported as `paths_pruned`: CFG exits the executor
  // will never fork into again (one per discharged guard) plus whole blocks
  // it can no longer enter.
  int64_t PathsPruned() const { return panics_discharged + blocks_removed; }

  PruneStats& operator+=(const PruneStats& other);
  std::string ToString() const;
};

struct PruneOptions {
  // Run SCCP and the interprocedural analyses before discharging. false
  // reproduces the PR 2 intraprocedural baseline exactly.
  bool interproc = false;
  // Functions external drivers may call directly (interproc mode only):
  // their parameters are never specialized to in-module call-site facts.
  // See EngineAnalysisRoots().
  std::vector<std::string> entry_points;
  // Interproc mode only: replay these whole-module facts instead of running
  // the call-graph / summary passes. Must have been computed (or
  // round-tripped, src/store/summary_io.h) from a module with the same
  // pre-prune fingerprint; the caller owns that key discipline.
  const InterprocContext* precomputed = nullptr;
  // Interproc mode only: receives a copy of the whole-module facts the prune
  // loop consumed, suitable for persisting and replaying via `precomputed`.
  InterprocContext* capture = nullptr;
};

// Prunes one function in place using the baseline intraprocedural domain.
// The module is needed for re-validation.
PruneStats PruneFunction(const Module& module, Function* fn);

// Same, consuming a precomputed interprocedural context. `interproc` may be
// null. Analysis timings/counters accumulate into `analysis` when non-null.
PruneStats PruneFunction(const Module& module, Function* fn,
                         const InterprocContext* interproc, AnalysisStats* analysis);

// Prunes every function of the module and aggregates the stats (baseline).
PruneStats PruneModule(Module* module);

// Prunes per `options`; in interproc mode builds the call graph and
// summaries for the module first. Analysis pass stats land
// in `analysis` when non-null (zero in baseline mode).
PruneStats PruneModule(Module* module, const PruneOptions& options, AnalysisStats* analysis);

}  // namespace dnsv

#endif  // DNSV_ANALYSIS_PRUNE_H_
