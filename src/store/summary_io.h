// Serialization of the interprocedural analysis results (src/analysis).
//
// The InterprocContext — callee summaries and per-parameter entry facts — is
// a pure function of the compiled module and the analysis roots, so it is
// stored keyed by the pre-prune ModuleFingerprint and replayed on warm runs
// instead of re-running the whole-module passes. The round-trip must be exact: the pruner consumes
// these facts to rewrite the module, and the store's prune-fingerprint
// cross-check (src/dnsv/pipeline.cc) asserts the warm rewrite produced the
// same post-prune module bytes as the cold one.
//
// The AnalysisStats outcome counters computed alongside (functions, purity,
// param facts — everything except the per-function SCCP folds, which re-run
// during pruning either way) travel with the context so replayed reports
// account identically to cold ones.
#ifndef DNSV_STORE_SUMMARY_IO_H_
#define DNSV_STORE_SUMMARY_IO_H_

#include <string>

#include "src/analysis/summary.h"

namespace dnsv {

// Encodes `ctx` plus the outcome counters of `stats` (timings excluded —
// they are run-local wall clock, not content).
std::string SerializeInterprocContext(const InterprocContext& ctx, const AnalysisStats& stats);

// Exact inverse; false (leaving outputs untouched or partially filled but
// unused) on any malformed input. `stats` receives the stored outcome
// counters with all timing fields zero.
bool ParseInterprocContext(const std::string& payload, InterprocContext* ctx,
                           AnalysisStats* stats);

}  // namespace dnsv

#endif  // DNSV_STORE_SUMMARY_IO_H_
