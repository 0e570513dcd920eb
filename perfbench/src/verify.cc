// Verification workload (README.md §verify-train).
//
// It verifies all seven engine versions, in release order, over a zone
// corpus: the two Table-2 bug-revealing zones of bench/table2_bug_finding.cc
// plus two release-gate zones, into a fresh artifact store, then re-runs the
// train in a fresh context, which must replay every report from the store. A
// run repeats whole rounds until --seconds have been spent in timed calls;
// every round starts from a fresh VerifyContext, artifact store and query
// cache, so no round reuses another's work.
//
// Correctness is checked against expectations written by hand from the
// paper's Table 2, and every counterexample is re-run by the benchmark itself
// on the reference interpreter (Query vs QuerySpec), apart from the
// pipeline's own Confirm stage.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "perfbench/src/bench.h"
#include "src/dnsv/pipeline.h"
#include "src/smt/query_cache.h"
#include "src/smt/z3_backend.h"
#include "src/store/store.h"
#include "src/support/strings.h"
#include "src/zonegen/zonegen.h"

namespace perfbench {
namespace {

using namespace dnsv;

struct CorpusZone {
  std::string name;
  ZoneConfig zone;
};

ZoneConfig ParseOrDie(const char* text) {
  Result<ZoneConfig> zone = ParseZoneText(text);
  if (!zone.ok()) {
    std::fprintf(stderr, "corpus zone does not parse: %s\n", zone.error().c_str());
    std::abort();
  }
  return std::move(zone).value();
}

// Reveals Table-2 bugs #1 AA on wildcard, #2 NS authority on positives, #3 MX
// matching, #5 wildcard glue, #6 deep wildcard search, #7 SOA-mname glue, #8
// ENT wildcard fallback.
const char kWildcardZone[] = R"(
$ORIGIN corp.test.
@        SOA  ns1 7
@        NS   ns1.corp.test.
ns1      A    198.51.100.1
shop     MX   10 ns1
shop     A    198.51.100.30
*        TXT  99
*        MX   20 ns1
deep.box A    198.51.100.40
)";

// Reveals #4 multi-NS glue and #9 the runtime error (NXDOMAIN under the apex
// with no wildcard to fall back to).
const char kDelegationZone[] = R"(
$ORIGIN corp.test.
@        SOA  ns1 7
@        NS   ns1.corp.test.
ns1      A    198.51.100.1
child    NS   ns1.child.corp.test.
child    NS   ns2.child.corp.test.
ns1.child A   198.51.100.51
ns2.child A   198.51.100.52
)";

// Release-gate zones. Verification cost depends on a zone's shape (names,
// depth, record mix) far more than on its spelling: two GenerateZone seeds
// of the same options differ by up to 2x in verify time. So the shapes come
// from GenerateZone at fixed seeds and --seed draws the spelling: every
// non-origin label is renamed through a seeded one-to-one map that keeps
// its length (Respeller) and every rdata value is redrawn. Each run then verifies the same amount of structure
// on different inputs.
constexpr uint64_t kGateShapeSeeds[] = {6, 11};

ZoneConfig RespellZone(const ZoneConfig& shape, SplitMix64* rng) {
  Respeller respell(shape.origin, rng->Next());
  ZoneConfig zone;
  zone.origin = shape.origin;
  for (const ZoneRecord& record : shape.records) {
    ZoneRecord out = record;
    out.name = respell.Name(record.name);
    if (!record.rdata.name.Empty()) out.rdata.name = respell.Name(record.rdata.name);
    switch (record.type) {
      case RrType::kA:
      case RrType::kAaaa:
        out.rdata.value = static_cast<int64_t>(rng->NextBelow(0xFFFFFFFFull));
        break;
      case RrType::kTxt:
        out.rdata.value = static_cast<int64_t>(rng->NextBelow(1000));
        break;
      case RrType::kMx:
        out.rdata.value = rng->NextInRange(1, 50);
        break;
      default:
        break;
    }
    zone.records.push_back(std::move(out));
  }
  Result<ZoneConfig> canonical = CanonicalizeZone(zone);
  if (!canonical.ok()) {
    std::fprintf(stderr, "respelled gate zone is invalid: %s\n", canonical.error().c_str());
    std::abort();
  }
  return std::move(canonical).value();
}

std::vector<CorpusZone> MakeCorpus(uint64_t seed) {
  std::vector<CorpusZone> corpus = {{"wildcard", ParseOrDie(kWildcardZone)},
                                    {"delegation", ParseOrDie(kDelegationZone)}};
  SplitMix64 rng(seed * 0xD1B54A32D192ED03ULL + 5);
  ZoneGenOptions options;
  options.max_names = 6;
  for (uint64_t shape_seed : kGateShapeSeeds) {
    corpus.push_back({StrCat("gate", shape_seed),
                      RespellZone(GenerateZone(shape_seed, options), &rng)});
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// Expected verdicts, written by hand from the paper's Table 2. A required
// class may list alternatives ("Wrong Answer|Wrong rcode": the table's
// "Wrong Answer/rcode" rows). Versions without a row for a zone must verify
// there when they are golden, v4.0 or v5.0; the buggy versions' verdicts on
// the release-gate zones depend on the drawn zone and are not pinned (their
// counterexamples are still re-run).
struct Expectation {
  EngineVersion version;
  std::string zone;
  std::vector<std::string> required;  // empty: must verify
};

std::vector<Expectation> Table2Expectations() {
  return {
      {EngineVersion::kV1, "wildcard", {"Wrong Flag", "Wrong Authority", "Wrong Answer"}},  // #1-#3
      {EngineVersion::kV1, "delegation", {"Wrong Authority"}},                    // #2
      {EngineVersion::kV2, "wildcard", {"Wrong Additional", "Wrong Answer|Wrong rcode"}},  // #5-#7
      {EngineVersion::kV2, "delegation", {"Wrong Additional"}},                   // #4
      {EngineVersion::kV3, "wildcard", {"Wrong Answer|Wrong rcode"}},             // #8
      {EngineVersion::kV3, "delegation", {}},
      {EngineVersion::kDev, "wildcard", {"Wrong Answer|Wrong rcode"}},            // #8
      {EngineVersion::kDev, "delegation", {"Runtime Error"}},                     // #9
  };
}

bool MustVerifyEverywhere(EngineVersion version) {
  return version == EngineVersion::kGolden || version == EngineVersion::kV4 ||
         version == EngineVersion::kV5;
}

// The verdict and issue list of one report, in a form two reports can be
// compared by (round to round, train to replay).
std::string VerdictText(const VerificationReport& report) {
  std::string text = StrCat(report.aborted ? "aborted" : report.verified ? "verified" : "rejected");
  for (const VerificationIssue& issue : report.issues) {
    text += StrCat(" | ", issue.qname, " ", RrTypeDisplay(issue.qtype), " ", issue.classification);
  }
  return text;
}

class VerdictChecker {
 public:
  VerdictChecker(const std::vector<CorpusZone>& corpus, std::vector<Expectation> expectations)
      : corpus_(corpus), expectations_(std::move(expectations)) {}

  // Checks one report against the expectations and re-runs each of its
  // counterexamples. Returns false (and records why) on any disagreement.
  bool Check(EngineVersion version, size_t zone_index, const VerificationReport& report,
             RunResult* result) {
    const std::string where =
        StrCat(EngineVersionName(version), " on ", corpus_[zone_index].name, ": ");
    bool ok = true;
    if (report.aborted) {
      result->Fail(where + "aborted: " + report.abort_reason);
      return false;
    }
    std::set<std::string> classes;
    for (const VerificationIssue& issue : report.issues) {
      for (const std::string& kind : SplitString(issue.classification, '/')) classes.insert(kind);
    }
    const Expectation* expectation = nullptr;
    for (const Expectation& e : expectations_) {
      if (e.version == version && e.zone == corpus_[zone_index].name) expectation = &e;
    }
    if (MustVerifyEverywhere(version) || (expectation != nullptr && expectation->required.empty())) {
      if (!report.verified) {
        result->Fail(where + "expected to verify, got " + VerdictText(report));
        ok = false;
      }
    } else if (expectation != nullptr) {
      if (report.verified) {
        result->Fail(where + "expected a rejection, got verified");
        ok = false;
      }
      for (const std::string& required : expectation->required) {
        bool found = false;
        for (const std::string& alternative : SplitString(required, '|')) {
          found = found || classes.count(alternative) != 0;
        }
        if (!found) {
          result->Fail(where + "no issue of class " + required + " in " + VerdictText(report));
          ok = false;
        }
      }
    }
    for (const VerificationIssue& issue : report.issues) {
      if (!Reproduces(version, zone_index, issue)) {
        result->Fail(where + "counterexample " + issue.qname + " " + RrTypeDisplay(issue.qtype) +
                     " does not reproduce on the interpreter");
        ok = false;
      }
    }
    return ok;
  }

 private:
  // Re-runs a counterexample: the engine must panic (a safety issue) or
  // answer differently from the specification.
  bool Reproduces(EngineVersion version, size_t zone_index, const VerificationIssue& issue) {
    auto key = std::make_pair(version, zone_index);
    auto it = servers_.find(key);
    if (it == servers_.end()) {
      Result<std::unique_ptr<AuthoritativeServer>> created =
          AuthoritativeServer::Create(version, corpus_[zone_index].zone, BackendKind::kInterp);
      if (!created.ok()) return false;
      it = servers_.emplace(key, std::move(created).value()).first;
    }
    DnsName qname;  // labels as decoded, including '*' and in-between spellings
    if (issue.qname != ".") qname.labels = SplitString(issue.qname, '.');
    QueryResult engine = it->second->Query(qname, issue.qtype);
    if (issue.kind == VerificationIssue::Kind::kSafety) return engine.panicked;
    QueryResult spec = it->second->QuerySpec(qname, issue.qtype);
    return engine.panicked != spec.panicked ||
           (!engine.panicked && !(engine.response == spec.response));
  }

  const std::vector<CorpusZone>& corpus_;
  std::vector<Expectation> expectations_;
  std::map<std::pair<EngineVersion, size_t>, std::unique_ptr<AuthoritativeServer>> servers_;
};

// ---------------------------------------------------------------------------

// Sums of one round's reports, for the per-layer metrics.
struct RoundTotals {
  double wall_s = 0;       // timed calls only
  double cpu_s = 0;
  double setup_compile_s = 0;  // GetPrunedEngine compile part
  double setup_prune_s = 0;
  double setup_lift_s = 0;
  int64_t panics_discharged = 0;
  double pipeline_s = 0;   // the train's RunVerifyPipeline calls
  double explore_engine_s = 0, explore_spec_s = 0, compare_s = 0, confirm_s = 0;
  double accounted_s = 0;  // stage time on the critical path
  int64_t engine_paths = 0, spec_paths = 0;
  int64_t z3_checks = 0;
  double solve_s = 0;
  int64_t queries = 0, presolved = 0, cache_hits = 0;
  int64_t layers_total = 0, layers_reused = 0;
  int64_t qcache_loaded = 0;
  double replay_s = 0;
  int64_t store_bytes = 0;
  int64_t verdicts = 0;
  int64_t failed = 0;
  std::vector<double> call_s;    // per computed verdict, in corpus order
  std::vector<double> replay_call_s;  // the re-run, in corpus order

  void AddReport(const VerificationReport& report) {
    double engine_s = 0, spec_s = 0;
    for (const StageStats& stage : report.stages) {
      if (stage.stage == "explore.engine") {
        engine_s = stage.seconds;
      } else if (stage.stage == "explore.spec") {
        spec_s = stage.seconds;
      } else {
        accounted_s += stage.seconds;
        if (stage.stage == "compare") compare_s += stage.seconds;
        if (stage.stage == "confirm") confirm_s += stage.seconds;
      }
    }
    explore_engine_s += engine_s;
    explore_spec_s += spec_s;
    accounted_s += report.explored_in_parallel ? std::max(engine_s, spec_s) : engine_s + spec_s;
    engine_paths += report.engine_paths;
    spec_paths += report.spec_paths;
    solve_s += report.solve_seconds;
    queries += report.solver.queries;
    presolved += report.solver.presolver_discharges;
    cache_hits += report.solver.cache_hits;
    layers_total += report.incremental.layers_total;
    layers_reused += report.incremental.layers_reused;
  }
};

// Runs the next call (and the explore workers it starts, which inherit the
// affinity) on a pair of allowed CPUs chosen by `turn`, so that across the
// rounds of a run each call meets different CPUs of the shared host
// (README.md §estimators).
void PinForCall(size_t turn) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() < 2) return;
  PinCurrentThread({cpus[turn % cpus.size()], cpus[(turn + 1) % cpus.size()]});
}

// A run makes at least this many rounds, so that every median below is taken
// over several of them; a 45 s run makes five to eight.
constexpr size_t kMinRounds = 3;

double Median(const std::vector<RoundTotals>& rounds, double RoundTotals::*field) {
  std::vector<double> values;
  for (const RoundTotals& round : rounds) values.push_back(round.*field);
  return Percentile(values, 0.5);
}

double MedianCount(const std::vector<RoundTotals>& rounds, int64_t RoundTotals::*field) {
  std::vector<double> values;
  for (const RoundTotals& round : rounds) values.push_back(static_cast<double>(round.*field));
  return Percentile(values, 0.5);
}

RunResult RunVerify(const Args& args, Clock::time_point process_start,
                    std::vector<Expectation> expectations) {
  RunResult result;
  Tracer tracer(args.trace);
  const std::vector<CorpusZone> corpus = MakeCorpus(args.seed);
  const std::vector<EngineVersion> versions = AllEngineVersions();  // release order
  VerdictChecker checker(corpus, std::move(expectations));
  const std::string store_root =
      StrCat(args.out_dir, "/verify-store-", static_cast<long long>(::getpid()));

  std::vector<RoundTotals> rounds;
  std::map<std::pair<int, size_t>, std::string> first_round_verdicts;
  double setup_s = 0;
  double timed_s = 0;
  int64_t span_count = 0;
  while (rounds.size() < kMinRounds || timed_s < args.seconds) {
    RoundTotals round;
    const bool first = rounds.empty();
    std::filesystem::remove_all(store_root);
    auto store = std::make_unique<ArtifactStore>(store_root);
    auto train_cache = std::make_unique<QueryCache>();
    QueryCache::Global()->Clear();
    VerifyOptions options;
    options.prune = true;
    options.store = store.get();
    options.solver.cache = train_cache.get();

    // Context warm-up: compile and prune every version and lift every zone.
    // In the first round this is the run's cold set-up.
    VerifyContext context;
    for (EngineVersion version : versions) {
      {
        ScopedSpan span(&tracer, "GetPrunedEngine");
        std::shared_ptr<const PrunedEngine> pruned =
            context.GetPrunedEngine(version, /*interproc=*/true, store.get());
        round.setup_compile_s += pruned->compile_seconds;
        round.setup_prune_s += pruned->prune_seconds;
        round.panics_discharged += pruned->stats.panics_discharged;
      }
      for (const CorpusZone& zone : corpus) {
        Clock::time_point lift_start = Clock::now();
        ScopedSpan span(&tracer, "GetLiftedZone");
        if (!context.GetLiftedZone(version, zone.zone, true, true).ok()) {
          result.Fail("zone " + zone.name + " does not lift");
        }
        round.setup_lift_s += SecondsSince(lift_start);
      }
    }
    if (first) setup_s = SecondsSince(process_start);

    // Timed: every version over every zone, in release order.
    std::vector<std::pair<std::string, std::string>> train_verdicts;
    const int64_t z3_before = Z3Backend::TotalChecks();
    const double cpu_before = ProcessCpuSeconds();
    const Clock::time_point round_start = Clock::now();
    std::vector<VerificationReport> reports;
    for (EngineVersion version : versions) {
      for (size_t z = 0; z < corpus.size(); ++z) {
        PinForCall(rounds.size() + round.call_s.size());
        Clock::time_point t0 = Clock::now();
        ScopedSpan span(&tracer, "RunVerifyPipeline");
        reports.push_back(RunVerifyPipeline(&context, version, corpus[z].zone, options));
        double seconds = SecondsSince(t0);
        round.call_s.push_back(seconds);
        round.pipeline_s += seconds;
        round.AddReport(reports.back());
        ++round.verdicts;
      }
    }
    round.z3_checks = Z3Backend::TotalChecks() - z3_before;

    // The whole train again in a fresh context; every report must come
    // back from the store.
    std::vector<VerificationReport> replays;
    auto replay_cache = std::make_unique<QueryCache>();
    VerifyOptions replay_options = options;
    replay_options.solver.cache = replay_cache.get();
    VerifyContext replay_context;
    Clock::time_point replay_start = Clock::now();
    for (EngineVersion version : versions) {
      for (const CorpusZone& zone : corpus) {
        PinForCall(rounds.size() + round.replay_call_s.size());
        Clock::time_point t0 = Clock::now();
        ScopedSpan span(&tracer, "RunVerifyPipeline");
        replays.push_back(RunVerifyPipeline(&replay_context, version, zone.zone, replay_options));
        round.replay_call_s.push_back(SecondsSince(t0));
        round.qcache_loaded += replays.back().incremental.qcache_entries_loaded;
        ++round.verdicts;
      }
    }
    round.replay_s = SecondsSince(replay_start);
    round.store_bytes = store->GetStats().total_bytes;
    PinCurrentThread(AllowedCpus());
    round.wall_s = SecondsSince(round_start);
    round.cpu_s = ProcessCpuSeconds() - cpu_before;
    timed_s += round.wall_s;

    // Checks (untimed).
    size_t i = 0;
    for (EngineVersion version : versions) {
      for (size_t z = 0; z < corpus.size(); ++z, ++i) {
        const VerificationReport& report = reports[i];
        if (report.aborted) ++round.failed;
        checker.Check(version, z, report, &result);
        std::string verdict = VerdictText(report);
        auto key = std::make_pair(static_cast<int>(version), z);
        if (first) {
          first_round_verdicts[key] = verdict;
        } else if (first_round_verdicts[key] != verdict) {
          result.Fail(StrCat(EngineVersionName(version), " on ", corpus[z].name,
                             ": verdict changed between rounds"));
        }
        if (!replays[i].incremental.replayed) {
          result.Fail(StrCat(EngineVersionName(version), " on ", corpus[z].name,
                             ": re-run was not replayed from the store"));
        } else if (VerdictText(replays[i]) != verdict) {
          result.Fail(StrCat(EngineVersionName(version), " on ", corpus[z].name,
                             ": replayed verdict differs from the computed one"));
        }
      }
    }
    store.reset();
    std::filesystem::remove_all(store_root);
    span_count = tracer.spans_recorded();
    rounds.push_back(round);
    std::fprintf(stderr,
                 "verify-train round %zu: %.3f s timed, %.3f CPU s, %lld Z3 checks, %lld + %lld paths\n",
                 rounds.size(), round.wall_s, round.cpu_s,
                 static_cast<long long>(round.z3_checks), static_cast<long long>(round.engine_paths),
                 static_cast<long long>(round.spec_paths));
  }
  const double peak_rss = PeakRssMb();

  int64_t verdicts = 0;
  for (const RoundTotals& round : rounds) {
    verdicts += round.verdicts;
    result.failed += round.failed;
  }
  result.attempted = verdicts;

  // Medians over the rounds (README.md §estimators). One call's time moves by
  // up to a fifth from round to round, while a round's total moves by a few
  // percent; so throughput comes from the median round, and each verdict's
  // time is its median over the rounds.
  std::vector<double> call_us;
  for (size_t i = 0; i < rounds[0].call_s.size(); ++i) {
    std::vector<double> per_round;
    for (const RoundTotals& round : rounds) per_round.push_back(round.call_s[i] * 1e6);
    call_us.push_back(Percentile(per_round, 0.5));
  }

  result.Set("setup_s", setup_s);
  result.Set("peak_rss_mb", peak_rss);
  result.Set("ops_per_s", static_cast<double>(rounds[0].verdicts) /
                              Median(rounds, &RoundTotals::wall_s));
  result.Set("op_p50_us", Percentile(call_us, 0.50));
  result.Set("op_p99_us", Percentile(call_us, 0.99));

  result.Set("frontend.compile_s", Median(rounds, &RoundTotals::setup_compile_s));
  result.Set("analysis.prune_s", Median(rounds, &RoundTotals::setup_prune_s));
  result.Set("analysis.panics_discharged", MedianCount(rounds, &RoundTotals::panics_discharged));
  result.Set("dns.lift_s", Median(rounds, &RoundTotals::setup_lift_s));
  result.Set("dnsv.pipeline_s", Median(rounds, &RoundTotals::pipeline_s));
  result.Set("sym.explore_engine_s", Median(rounds, &RoundTotals::explore_engine_s));
  result.Set("sym.explore_spec_s", Median(rounds, &RoundTotals::explore_spec_s));
  result.Set("dnsv.compare_s", Median(rounds, &RoundTotals::compare_s));
  result.Set("dnsv.confirm_s", Median(rounds, &RoundTotals::confirm_s));
  result.Set("sym.engine_paths", MedianCount(rounds, &RoundTotals::engine_paths));
  result.Set("sym.spec_paths", MedianCount(rounds, &RoundTotals::spec_paths));
  result.Set("smt.z3_checks", MedianCount(rounds, &RoundTotals::z3_checks));
  result.Set("smt.solve_s", Median(rounds, &RoundTotals::solve_s));
  const RoundTotals& last = rounds.back();
  auto ratio = [](int64_t part, int64_t whole) {
    return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
  };
  result.Set("smt.presolve_ratio", ratio(last.presolved, last.queries));
  result.Set("smt.cache_hit_ratio", ratio(last.cache_hits, last.queries));
  result.Set("store.layer_reuse_ratio", ratio(last.layers_reused, last.layers_total));
  result.Set("store.qcache_entries_loaded", MedianCount(rounds, &RoundTotals::qcache_loaded));
  result.Set("store.bytes", MedianCount(rounds, &RoundTotals::store_bytes));
  result.Set("store.replay_s", Median(rounds, &RoundTotals::replay_s));
  result.Set("process.cpu_s", Median(rounds, &RoundTotals::cpu_s));

  if (args.trace) {
    // Stage time the report accounts for on the critical path (the two
    // explore workers overlap), against the benchmark's own pipeline timing.
    double pipeline = 0, accounted = 0;
    for (const RoundTotals& round : rounds) {
      pipeline += round.pipeline_s;
      accounted += round.accounted_s;
    }
    result.Set("trace.unaccounted_ratio", pipeline == 0 ? 0 : (pipeline - accounted) / pipeline);
    // Tracing cost per verdict: what recording its spans costs, measured on
    // a separate tracer.
    Tracer probe(true);
    constexpr int kProbeSpans = 20000;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kProbeSpans; ++i) ScopedSpan span(&probe, "probe");
    double per_span_ns = static_cast<double>(NanosBetween(t0, Clock::now())) / kProbeSpans;
    result.Set("trace.overhead_ns",
               per_span_ns * static_cast<double>(span_count) / static_cast<double>(verdicts));
    std::filesystem::create_directories(args.out_dir + "/traces");
    std::string path = StrCat(args.out_dir, "/traces/verify-train-seed", args.seed, ".tsv");
    if (!tracer.Write(path)) std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
  return result;
}

}  // namespace

RunResult RunVerifyTrain(const Args& args, Clock::time_point process_start) {
  return RunVerify(args, process_start, Table2Expectations());
}

int RunVerifySelfTest(const Args& args) {
  // One wrong expectation: v3.0 is rejected on the wildcard zone (bug #8),
  // so claiming it verifies there must be reported.
  std::vector<Expectation> expectations = Table2Expectations();
  for (Expectation& e : expectations) {
    if (e.version == EngineVersion::kV3 && e.zone == "wildcard") e.required.clear();
  }
  const std::vector<CorpusZone> corpus = MakeCorpus(args.seed);
  VerdictChecker checker(corpus, expectations);
  VerifyContext context;
  RunResult result;
  VerificationReport report = RunVerifyPipeline(&context, EngineVersion::kV3, corpus[0].zone);
  bool flagged = !checker.Check(EngineVersion::kV3, 0, report, &result);
  std::fprintf(stderr, "selftest: verification check %s the wrong expectation%s\n",
               flagged ? "flagged" : "did not flag", flagged ? "" : " (MISSED)");
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "  %s\n", problem.c_str());
  }
  return flagged ? 0 : 1;
}

}  // namespace perfbench
