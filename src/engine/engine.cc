// AuthoritativeServer: one loaded zone served through an ExecutionBackend.
// (CompiledEngine itself lives in compile.cc — see the note there.)
#include "src/engine/engine.h"

#include "src/support/logging.h"

namespace dnsv {

Result<std::unique_ptr<AuthoritativeServer>> AuthoritativeServer::Create(
    EngineVersion version, const ZoneConfig& zone, BackendKind backend) {
  Result<ZoneConfig> canonical = CanonicalizeZone(zone);
  if (!canonical.ok()) {
    return Result<std::unique_ptr<AuthoritativeServer>>::Error(canonical.error());
  }
  auto server = std::unique_ptr<AuthoritativeServer>(new AuthoritativeServer());
  server->engine_ = CompiledEngine::GetCached(version);
  server->backend_kind_ = backend;
  if (backend == BackendKind::kCompiled) {
    Result<std::unique_ptr<ExecutionBackend>> compiled = MakeCompiledBackend(version);
    if (!compiled.ok()) {
      return Result<std::unique_ptr<AuthoritativeServer>>::Error(compiled.error());
    }
    server->backend_ = std::move(compiled).value();
  } else {
    server->backend_ = MakeInterpBackend(&server->engine_->module());
  }
  server->zone_ = std::move(canonical).value();
  server->image_ = BuildHeapImage(server->zone_, &server->interner_, server->engine_->types(),
                                  &server->memory_);
  server->decoder_ =
      std::make_unique<ResponseDecoder>(server->engine_->types(), server->interner_);
  return server;
}

QueryResult AuthoritativeServer::RunLookup(const Function& fn, const Value& root,
                                           const DnsName& qname, RrType qtype) {
  // Blocks allocated past this point are query-scoped: a resolve run is a
  // pure lookup over the zone image (it never stores into zone blocks), so
  // after the response is decoded into plain RrViews nothing references
  // them. Reclaiming here keeps a long-lived shard's heap flat instead of
  // growing per query until the serving shell's hygiene rebuild. The qname
  // labels the query interns are query-scoped for the same reason: once
  // the response is decoded no code of theirs is left, and forgetting them
  // keeps hostile label sequences from filling the shard's code space.
  const size_t watermark = memory_.num_blocks();
  const size_t label_watermark = interner_.size();
  QueryResult result;
  std::optional<Value> qname_value = QnameValue(qname, &interner_);
  if (!qname_value.has_value()) {
    // No order-preserving code is left for some label: the engine cannot
    // see this qname, so it is answered like an engine panic (SERVFAIL).
    interner_.TruncateTo(label_watermark);
    result.panicked = true;
    result.panic_message = "qname labels exhaust the label code space";
    return result;
  }
  ExecOutcome outcome =
      backend_->Run(fn,
                    {root, image_.origin_labels, *std::move(qname_value),
                     Value::Int(static_cast<int64_t>(qtype))},
                    &memory_);
  if (!outcome.ok()) {
    result.panicked = true;
    result.panic_message = outcome.kind == ExecOutcome::Kind::kStepLimit
                               ? "step limit exceeded"
                               : outcome.panic_message;
  } else {
    result.response = decoder_->Decode(outcome.return_value, memory_);
  }
  memory_.TruncateTo(watermark);
  interner_.TruncateTo(label_watermark);
  return result;
}

QueryResult AuthoritativeServer::Query(const DnsName& qname, RrType qtype) {
  return RunLookup(engine_->resolve_fn(), image_.apex_ptr, qname, qtype);
}

QueryResult AuthoritativeServer::QuerySpec(const DnsName& qname, RrType qtype) {
  return RunLookup(engine_->rrlookup_fn(), image_.zone_rrs, qname, qtype);
}

}  // namespace dnsv
