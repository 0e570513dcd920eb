#include "src/store/summary_io.h"

#include "src/store/codec.h"

namespace dnsv {
namespace {

void EncodeInterval(ArtifactEncoder* enc, const Interval& interval) {
  enc->Int(interval.lo);
  enc->Int(interval.hi);
}

Interval DecodeInterval(ArtifactDecoder* dec) {
  Interval interval;
  interval.lo = dec->Int();
  interval.hi = dec->Int();
  return interval;
}

void EncodeFacts(ArtifactEncoder* enc, const AbsFacts& facts) {
  EncodeInterval(enc, facts.range);
  enc->Int(static_cast<int64_t>(facts.boolean));
  enc->Int(static_cast<int64_t>(facts.nullness));
}

AbsFacts DecodeFacts(ArtifactDecoder* dec) {
  AbsFacts facts;
  facts.range = DecodeInterval(dec);
  int64_t boolean = dec->Int();
  int64_t nullness = dec->Int();
  if (boolean < 0 || boolean > 2 || nullness < 0 || nullness > 2) {
    // Force the sticky failure; AtEnd/ok checks below reject the artifact.
    dec->Tag("invalid-enum");
    return facts;
  }
  facts.boolean = static_cast<Bool3>(boolean);
  facts.nullness = static_cast<Null3>(nullness);
  return facts;
}

}  // namespace

std::string SerializeInterprocContext(const InterprocContext& ctx,
                                      const AnalysisStats& stats) {
  ArtifactEncoder enc;
  enc.Tag("interproc");
  enc.Int(static_cast<int64_t>(ctx.summaries.size()));
  for (const auto& [name, summary] : ctx.summaries) {
    enc.Str(name);
    enc.Bool(summary.analyzed);
    enc.Bool(summary.pure);
    enc.Bool(summary.heap_independent);
    enc.Bool(summary.may_panic);
    enc.Bool(summary.returns_nonnull);
    EncodeInterval(&enc, summary.return_range);
    enc.Int(static_cast<int64_t>(summary.return_bool));
  }
  enc.Int(static_cast<int64_t>(ctx.param_facts.size()));
  for (const auto& [name, facts] : ctx.param_facts) {
    enc.Str(name);
    enc.Int(static_cast<int64_t>(facts.size()));
    for (const AbsFacts& fact : facts) {
      EncodeFacts(&enc, fact);
    }
  }
  enc.Tag("analysis-counters");
  enc.Int(stats.functions);
  enc.Int(stats.pure_functions);
  enc.Int(stats.nonnull_returns);
  enc.Int(stats.const_returns);
  enc.Int(stats.param_fact_functions);
  return enc.Take();
}

bool ParseInterprocContext(const std::string& payload, InterprocContext* ctx,
                           AnalysisStats* stats) {
  InterprocContext out;
  AnalysisStats counters;
  ArtifactDecoder dec(payload);
  dec.Tag("interproc");
  int64_t num_summaries = dec.Int();
  for (int64_t i = 0; dec.ok() && i < num_summaries; ++i) {
    std::string name = dec.Str();
    CalleeSummary summary;
    summary.analyzed = dec.Bool();
    summary.pure = dec.Bool();
    summary.heap_independent = dec.Bool();
    summary.may_panic = dec.Bool();
    summary.returns_nonnull = dec.Bool();
    summary.return_range = DecodeInterval(&dec);
    int64_t return_bool = dec.Int();
    if (return_bool < 0 || return_bool > 2) return false;
    summary.return_bool = static_cast<Bool3>(return_bool);
    if (dec.ok()) out.summaries.emplace(std::move(name), summary);
  }
  int64_t num_param_facts = dec.Int();
  for (int64_t i = 0; dec.ok() && i < num_param_facts; ++i) {
    std::string name = dec.Str();
    int64_t count = dec.Int();
    if (!dec.ok() || count < 0 || count > 1024) return false;
    std::vector<AbsFacts> facts;
    facts.reserve(static_cast<size_t>(count));
    for (int64_t j = 0; dec.ok() && j < count; ++j) {
      facts.push_back(DecodeFacts(&dec));
    }
    if (dec.ok()) out.param_facts.emplace(std::move(name), std::move(facts));
  }
  dec.Tag("analysis-counters");
  counters.functions = dec.Int();
  counters.pure_functions = dec.Int();
  counters.nonnull_returns = dec.Int();
  counters.const_returns = dec.Int();
  counters.param_fact_functions = dec.Int();
  if (!dec.ok() || !dec.AtEnd()) return false;
  *ctx = std::move(out);
  *stats = counters;
  return true;
}

}  // namespace dnsv
