// Bottom-up function summaries and top-down parameter facts over one module.
//
// The interprocedural layer sits between the call graph (callgraph.h) and the
// intraprocedural PruneDomain (absdomain.h). Two passes over the SCC DAG:
//
//   Bottom-up (callee-first): per function, a CalleeSummary — purity, heap
//   independence, whether the return value is provably non-nil, and constant
//   return facts — computed by running the PruneDomain fixpoint with the
//   already-summarized callees plugged in. With a summary in hand, a call
//   site stops being a full heap clobber: pure callees preserve every memory
//   binding, heap-independent pure callees are interned like any other pure
//   operator (two calls with equal abstract arguments yield one value), and
//   `returns_nonnull` discharges the nil checks the frontend emits on every
//   dereference of the result.
//
//   Top-down (caller-first): for functions that are NOT analysis entry
//   points, the join of the argument facts observed at every call site
//   becomes the callee's entry assumption. Only the nullness channel is
//   propagated — entry points (and everything the drivers may invoke
//   directly, see EngineAnalysisRoots) stay at top, so a function the
//   verifier explores standalone is never specialized to facts that hold
//   only on in-module call paths.
//
// Soundness: a summary only ever adds facts that hold in every concrete
// execution of the callee (purity and heap independence are syntactic
// invariants of the body; return facts come from the over-approximating
// domain), and param facts are the join over ALL call sites of a function no
// driver enters directly. Functions whose dataflow does not converge, whose
// allocas escape, or that sit in a recursive SCC get the pessimistic
// default-constructed summary.
#ifndef DNSV_ANALYSIS_SUMMARY_H_
#define DNSV_ANALYSIS_SUMMARY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/absdomain.h"
#include "src/analysis/callgraph.h"
#include "src/analysis/interval.h"
#include "src/ir/function.h"

namespace dnsv {

// What one function guarantees to every caller. The default-constructed
// summary is the sound "know nothing" bottom of the lattice.
struct CalleeSummary {
  // Dataflow-backed return facts below are valid. Purity / heap independence
  // / may_panic are syntactic and valid regardless.
  bool analyzed = false;
  // No store in the body (or in any callee) targets memory the caller could
  // reach: every written location roots at an own alloca or own allocation.
  bool pure = false;
  // Additionally, no load in the body (or in any callee) reads through a
  // pointer into caller-owned memory — the result depends only on the
  // argument values, so equal arguments imply an equal result even across
  // intervening heap writes. Precondition for interning calls as pure values.
  bool heap_independent = false;
  // Some panic block is reachable in the body or in a callee.
  bool may_panic = true;
  // Return-value facts, joined over every kRet (analyzed only).
  bool returns_nonnull = false;
  Interval return_range = Interval::Top();
  Bool3 return_bool = Bool3::kUnknown;
};

// Wall-clock and outcome counters for the interprocedural passes, reported in
// VerificationReport next to SolverStats and written to BENCH_prune.json.
struct AnalysisStats {
  double callgraph_seconds = 0;
  double summary_seconds = 0;
  double sccp_seconds = 0;

  int64_t functions = 0;           // call-graph nodes
  int64_t pure_functions = 0;      // summaries with pure == true
  int64_t nonnull_returns = 0;     // summaries with returns_nonnull == true
  int64_t const_returns = 0;       // summaries with a constant return value
  int64_t param_fact_functions = 0;  // functions with a non-top entry fact
  int64_t sccp_branches_folded = 0;  // constant brs rewritten to jmps

  bool IsZero() const { return *this == AnalysisStats{}; }
  double TotalSeconds() const {
    return callgraph_seconds + summary_seconds + sccp_seconds;
  }
  AnalysisStats& operator+=(const AnalysisStats& other);
  bool operator==(const AnalysisStats&) const = default;
  // One line per pass, matching the VerificationReport stage style.
  std::string ToString() const;
};

// The module-wide result every interprocedural consumer reads. Keyed by
// function name (stable across the prune rewrites that renumber blocks).
struct InterprocContext {
  std::map<std::string, CalleeSummary> summaries;
  // Entry facts per parameter; only the nullness channel is ever non-top.
  // Absent entry = all parameters top.
  std::map<std::string, std::vector<AbsFacts>> param_facts;

  const CalleeSummary* SummaryFor(const std::string& name) const;
  const std::vector<AbsFacts>* ParamFactsFor(const std::string& name) const;
};

// Builds summaries (bottom-up) and param facts (top-down) for `module`.
// `entry_points` are the functions outside callers may invoke directly; they
// and anything unreachable from them keep top entry facts. Pass timings and
// counters are accumulated into `stats` when non-null.
InterprocContext ComputeInterprocContext(const Module& module, const CallGraph& graph,
                                         const std::vector<std::string>& entry_points,
                                         AnalysisStats* stats);

}  // namespace dnsv

#endif  // DNSV_ANALYSIS_SUMMARY_H_
