// Serving workload (README.md §serve-wide).
//
// One caller thread drives ServePacket in a closed loop (the next query is
// sent when the previous answer is back) over a compiled-backend shard with
// a PacketCache of the server's default capacity, exactly the pair a
// DnsServer UDP worker holds. Sockets are left out on purpose: loopback UDP
// against a one-worker DnsServer swung from 4k to 20k qps between identical
// runs on a 4-core host, while in-process ServePacket stays within a few
// percent (README.md §sockets).
//
// Correctness is checked after the timed window: the last answer served for
// every distinct query is compared byte for byte with EncodeWireResponse
// applied to an answer computed on the reference interpreter, plus the wire
// properties every answer must have (ID and question echo with the client's
// casing, QR, parseable, within the negotiated size, TC exactly when the
// full answer does not fit). A conformance pass then serves a small zone
// cold and holds every answer to the executable specification.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "perfbench/src/bench.h"
#include "src/dns/example_zones.h"
#include "src/server/serve.h"
#include "src/server/server.h"
#include "src/server/snapshot.h"
#include "src/support/strings.h"
#include "src/zonegen/zonegen.h"

namespace perfbench {
namespace {

using namespace dnsv;

constexpr EngineVersion kServeVersion = EngineVersion::kV5;
// Operations per alternating block in traced runs (untraced / traced).
constexpr int64_t kTraceBlock = 4096;
// Zipf-stream queries served after the first pass and before the clock
// starts, so the window begins with the cache in its steady state.
constexpr int64_t kWarmQueries = 50000;
// Queries per measurement slice, the reload's first answer included.
constexpr int64_t kSliceOps = 50000;
// serve-wide's shape (zone structure, name population, query mix and
// popularity order) is drawn from this fixed seed; --seed respells it
// (README.md §inputs).
constexpr uint64_t kWideShapeSeed = 1;
// Length of the precomputed Zipf index stream; the loop cycles through it.
constexpr size_t kStreamLength = size_t{1} << 20;

// One distinct query of a workload's population. `query` is built by the
// benchmark, not parsed from `wire`, so the check's expectation does not go
// through the parser under test.
struct Packet {
  WireQuery query;
  std::vector<uint8_t> wire;
  std::string folded_name;  // lowercase presentation form (the oracle key)
  size_t limit = kMaxUdpPayload;  // EDNS-negotiated response size limit
  size_t question_bytes = 0;      // wire size of QNAME + QTYPE + QCLASS
};

std::string RandomLabel(SplitMix64* rng, int min_len, int max_len) {
  static const char kChars[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  int len = static_cast<int>(rng->NextInRange(min_len, max_len));
  std::string label;
  label += static_cast<char>('a' + rng->NextBelow(26));  // start with a letter
  for (int i = 1; i < len; ++i) label += kChars[rng->NextBelow(36)];
  return label;
}

DnsName NameOf(const std::string& text) { return DnsName::Parse(text).value(); }

// Draws `count` distinct packets over `names` (presentation form, lowercase)
// with the population's type, EDNS and 0x20-casing shares. Distinctness is on
// (name, type, EDNS variant); casing is a property of each packet. Rank order
// (the Zipf popularity) is draw order.
std::vector<Packet> MakePackets(const std::vector<std::string>& names, size_t count,
                                SplitMix64* rng) {
  const std::vector<RrType> types = AllQueryTypes();
  std::set<std::tuple<size_t, int, int>> seen;
  std::vector<Packet> packets;
  while (packets.size() < count) {
    size_t name_index = rng->NextBelow(names.size());
    RrType type = types[rng->NextBelow(types.size())];
    // EDNS variant: 0 none (70%), 1 payload 1232, 2 payload 4096, 3 4096+DO.
    int edns = 0;
    if (rng->NextChance(3, 10)) edns = static_cast<int>(rng->NextInRange(1, 3));
    if (!seen.insert({name_index, static_cast<int>(type), edns}).second) continue;

    Packet packet;
    packet.folded_name = names[name_index];
    DnsName name = NameOf(names[name_index]);
    if (rng->NextChance(1, 4)) {  // 0x20 casing (draft-vixie-dnsext-dns0x20)
      for (std::string& label : name.labels) {
        for (char& c : label) {
          if (c >= 'a' && c <= 'z' && rng->NextChance(1, 2)) c = static_cast<char>(c - 32);
        }
      }
    }
    packet.query.id = static_cast<uint16_t>(rng->Next());
    packet.query.qname = name;
    packet.query.qtype = type;
    packet.query.recursion_desired = rng->NextChance(1, 2);
    if (edns != 0) {
      packet.query.edns.present = true;
      packet.query.edns.udp_payload = edns == 1 ? 1232 : 4096;
      packet.query.edns.dnssec_ok = edns == 3;
      packet.limit = packet.query.edns.udp_payload;
    }
    packet.wire = EncodeWireQuery(packet.query);
    size_t name_bytes = 1;
    for (const std::string& label : name.labels) name_bytes += 1 + label.size();
    packet.question_bytes = name_bytes + 4;
    packets.push_back(std::move(packet));
  }
  return packets;
}

// ---------------------------------------------------------------------------
// Conformance input: the repo's kitchen-sink zone (every feature in ~20
// records) and a population of 113 names. It is small enough for the
// interpreted specification to answer every query.
std::vector<std::string> ConformanceNames(SplitMix64* rng) {
  std::vector<std::string> names = {
      "example.com",      "ns1.example.com",     "ns2.example.com", "mail.example.com",
      "www.example.com",  "alias.example.com",   "chain.example.com", "sub.example.com",
      "ns1.sub.example.com", "ns2.sub.example.com", "leaf.ent.example.com",
      "ent.example.com",  "dyn.example.com"};
  std::set<std::string> seen(names.begin(), names.end());
  auto add = [&](const std::string& name) {
    if (seen.insert(name).second) names.push_back(name);
  };
  while (names.size() < 13 + 64) add(RandomLabel(rng, 3, 10) + ".dyn.example.com");  // wildcard
  while (names.size() < 13 + 64 + 24) add(RandomLabel(rng, 3, 10) + ".example.com");  // NX
  while (names.size() < 13 + 64 + 24 + 12) add(RandomLabel(rng, 3, 8) + ".sub.example.com");
  return names;
}

// ---------------------------------------------------------------------------
// serve-wide input: a zone of ~2,800 owners under 48 top labels, with
// delegations (with glue), wildcards, CNAME chains and empty non-terminals.
struct WideZone {
  ZoneConfig zone;
  std::vector<std::string> owners;       // non-wildcard owners with data
  std::vector<std::string> ents;         // empty non-terminals
  std::vector<std::string> wildcard_parents;
  std::vector<std::string> delegations;  // cut names
  std::vector<std::string> plain_tops;   // tops that are not delegations
  std::vector<size_t> a_records;         // indices of editable A records
};

WideZone MakeWideZone(SplitMix64* rng) {
  WideZone w;
  std::string text = "$ORIGIN wide.test.\n@ SOA ns1 1\n@ NS ns1.wide.test.\n@ NS ns2.wide.test.\n"
                     "@ MX 10 mail\nns1 A 192.0.2.1\nns2 A 192.0.2.2\nmail A 192.0.2.25\n";
  auto ip = [&] {
    return StrCat(rng->NextInRange(1, 223), ".", rng->NextBelow(256), ".", rng->NextBelow(256),
                  ".", rng->NextInRange(1, 254));
  };
  w.owners = {"ns1.wide.test", "ns2.wide.test", "mail.wide.test", "wide.test"};
  std::set<std::string> tops;
  while (tops.size() < 48) tops.insert(RandomLabel(rng, 3, 7));
  int index = 0;
  for (const std::string& top : tops) {
    std::string fq_top = top + ".wide.test";
    if (index++ % 8 == 7) {
      text += StrCat(top, " NS ns1.", top, ".wide.test.\n", top, " NS ns2.", top, ".wide.test.\n",
                     "ns1.", top, " A ", ip(), "\nns2.", top, " A ", ip(), "\n");
      w.delegations.push_back(fq_top);
      continue;
    }
    w.plain_tops.push_back(fq_top);
    if (index % 3 != 0) {
      text += StrCat(top, " A ", ip(), "\n");
      w.owners.push_back(fq_top);
    } else {
      w.ents.push_back(fq_top);
    }
    if (index % 4 == 1) {
      text += StrCat("*.", top, " A ", ip(), "\n*.", top, " TXT ", rng->NextBelow(1000), "\n");
      if (rng->NextChance(1, 2)) text += StrCat("*.", top, " MX 5 mail.wide.test.\n");
      w.wildcard_parents.push_back(fq_top);
    }
    std::set<std::string> hosts;
    int num_hosts = static_cast<int>(rng->NextInRange(50, 80));
    while (static_cast<int>(hosts.size()) < num_hosts) hosts.insert(RandomLabel(rng, 2, 8));
    std::vector<std::string> data_hosts;  // relative names usable as targets
    for (const std::string& host : hosts) {
      std::string rel = StrCat(host, ".", top);
      uint64_t roll = rng->NextBelow(100);
      if (roll < 8 && !data_hosts.empty()) {
        // CNAME to an earlier host of this top (which may itself be a CNAME:
        // chains emerge), or out of zone.
        std::string target = rng->NextChance(1, 5)
                                 ? std::string("www.example.net.")
                                 : data_hosts[rng->NextBelow(data_hosts.size())] + ".wide.test.";
        text += StrCat(rel, " CNAME ", target, "\n");
        w.owners.push_back(rel + ".wide.test");
        data_hosts.push_back(rel);
        continue;
      }
      std::string owner = rel;
      if (roll < 16) {  // data one level down: `rel` becomes an empty non-terminal
        owner = StrCat(RandomLabel(rng, 2, 5), ".", rel);
        w.ents.push_back(rel + ".wide.test");
      }
      text += StrCat(owner, " A ", ip(), "\n");
      if (rng->NextChance(1, 3)) text += StrCat(owner, " A ", ip(), "\n");
      if (rng->NextChance(1, 4)) text += StrCat(owner, " AAAA ", rng->NextBelow(1 << 30), "\n");
      if (rng->NextChance(1, 4)) text += StrCat(owner, " TXT ", rng->NextBelow(1000), "\n");
      if (rng->NextChance(1, 8) && !data_hosts.empty()) {
        text += StrCat(owner, " MX 10 ", data_hosts[rng->NextBelow(data_hosts.size())],
                       ".wide.test.\n");
      }
      w.owners.push_back(owner + ".wide.test");
      if (owner == rel) data_hosts.push_back(rel);
    }
  }
  Result<ZoneConfig> parsed = ParseZoneText(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "wide zone does not parse: %s\n", parsed.error().c_str());
    std::abort();
  }
  w.zone = std::move(parsed).value();
  for (size_t i = 0; i < w.zone.records.size(); ++i) {
    const ZoneRecord& record = w.zone.records[i];
    if (record.type == RrType::kA && record.name.labels.size() >= 4 &&
        record.name.labels[0] != kWildcardLabel) {
      w.a_records.push_back(i);
    }
  }
  return w;
}

// Name population for serve-wide: owners and empty non-terminals, wildcard
// instantiations, NXDOMAIN names under existing tops, names below cuts.
std::vector<std::string> WideNames(const WideZone& w, SplitMix64* rng) {
  std::vector<std::string> names;
  std::set<std::string> seen;
  auto add = [&](const std::string& name) {
    if (seen.insert(name).second) names.push_back(name);
  };
  for (const std::string& owner : w.owners) add(owner);
  for (const std::string& ent : w.ents) add(ent);
  size_t base = names.size();
  while (names.size() < base + 2400) {
    const std::string& parent = w.wildcard_parents[rng->NextBelow(w.wildcard_parents.size())];
    add(StrCat(RandomLabel(rng, 3, 9), ".", parent));
  }
  while (names.size() < base + 4400) {
    const std::string& parent = w.plain_tops[rng->NextBelow(w.plain_tops.size())];
    add(StrCat(RandomLabel(rng, 9, 12), ".", parent));  // longer than any host: NXDOMAIN
  }
  while (names.size() < base + 5400) {
    const std::string& cut = w.delegations[rng->NextBelow(w.delegations.size())];
    add(StrCat(RandomLabel(rng, 3, 9), ".", cut));
  }
  return names;
}

// One zone edit per reload: new addresses for a few A records of popular
// owners, plus one new owner. Deterministic in (seed, generation), so the
// check can rebuild the zone any generation answered from.
void ApplyEdit(ZoneConfig* zone, const std::vector<size_t>& hot_a_records, uint64_t seed,
               uint64_t generation) {
  SplitMix64 rng(seed * 0x51ed27 + generation);
  for (int i = 0; i < 4; ++i) {
    size_t index = hot_a_records[rng.NextBelow(hot_a_records.size())];
    zone->records[index].rdata.value = static_cast<int64_t>(rng.NextBelow(0xFFFFFFFFull));
  }
  ZoneRecord added;
  added.name = zone->origin;
  added.name.labels.insert(added.name.labels.begin(), StrCat("gen", generation, "-added"));
  added.type = RrType::kA;
  added.rdata.value = static_cast<int64_t>(rng.NextBelow(0xFFFFFFFFull));
  zone->records.push_back(added);
}

// ---------------------------------------------------------------------------
// The harness shared by the workload and the conformance pass.

struct ServeConfig {
  std::string name;
  ZoneConfig zone;
  std::vector<Packet> packets;
  EngineVersion version = kServeVersion;
  std::vector<size_t> hot_a_records;  // edit targets of the reloads
  // Oracle: the specification (QuerySpec) or, where the zone is too large
  // for the interpreted specification, the interpreted engine (Query).
  bool spec_oracle = true;
};

struct Served {
  std::vector<uint8_t> wire;
  uint64_t generation = 0;
  uint16_t id = 0;
};

class ServeHarness {
 public:
  ServeHarness(const ServeConfig& config, const Args& args, Tracer* tracer)
      : config_(config),
        args_(args),
        tracer_(tracer),
        packets_(config.packets),
        last_(config.packets.size()),
        cache_(ServerConfig{}.cache_entries) {}

  // Publish + BuildShard of the initial zone.
  void Start() {
    current_zone_ = config_.zone;
    PublishAndBuild();
  }

  // Serves packet `index` once; returns the service time in ns.
  int64_t ServeOne(size_t index, bool traced, int64_t request) {
    Packet& packet = packets_[index];
    // A fresh client ID per query, patched into the packet bytes and the
    // benchmark's own record of the query.
    uint16_t id = static_cast<uint16_t>(request * 0x9e37 + 1);
    packet.wire[0] = static_cast<uint8_t>(id >> 8);
    packet.wire[1] = static_cast<uint8_t>(id & 0xFF);
    packet.query.id = id;
    std::vector<uint8_t> wire;
    bool error_path = false;
    Clock::time_point start = Clock::now();
    if (traced) {
      ServeTraced(packet, request, &wire);
    } else {
      ServeOutcome outcome = ServePacket(shard_.get(), packet.wire.data(), packet.wire.size(),
                                         kMaxUdpPayload, &stats_, ServeContext{&cache_, generation_});
      error_path = outcome.parse_error || outcome.not_implemented || outcome.servfail_fallback ||
                   outcome.badvers;
      wire.swap(outcome.wire);
    }
    Clock::time_point end = Clock::now();
    if (error_path) ++error_answers_;
    response_bytes_ += static_cast<int64_t>(wire.size());
    Served& slot = last_[index];
    slot.wire.swap(wire);
    slot.generation = generation_;
    slot.id = id;
    return NanosBetween(start, end);
  }

  // Publishes the next zone edit and rebuilds the shard, as a UDP worker
  // does on a generation change.
  void Reload() {
    ApplyEdit(&current_zone_, config_.hot_a_records, args_.seed, generation_ + 1);
    PublishAndBuild();
  }

  // The last answer served for each distinct query so far.
  const std::vector<Served>& answers() const { return last_; }

  // Checks every answer in `answers` (indexed like the packets). Returns the
  // number of mismatching queries; details go to `result`.
  int64_t Check(const std::vector<Served>& answers, RunResult* result);

  const ServerStats& stats() const { return stats_; }
  int64_t response_bytes() const { return response_bytes_; }
  int64_t error_answers() const { return error_answers_; }
  uint64_t generation() const { return generation_; }
  double last_publish_ms() const { return last_publish_ms_; }
  double last_build_ms() const { return last_build_ms_; }
  size_t heap_blocks() const { return shard_->memory().num_blocks(); }

 private:
  // Checks one answer against `reference`; records why it fails.
  bool CheckAnswer(const Served& served, const Packet& packet, AuthoritativeServer* reference,
                   RunResult* result);

  void PublishAndBuild() {
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer_, "Publish");
      Status status = holder_.Publish(config_.version, current_zone_, config_.name,
                                      BackendKind::kCompiled);
      if (!status.ok()) {
        std::fprintf(stderr, "Publish failed: %s\n", status.message().c_str());
        std::abort();
      }
    }
    Clock::time_point t1 = Clock::now();
    {
      ScopedSpan span(tracer_, "BuildShard");
      std::shared_ptr<const ZoneSnapshot> snapshot = holder_.Load();
      shard_ = snapshot->BuildShard(config_.version, BackendKind::kCompiled);
      generation_ = snapshot->generation;
    }
    last_publish_ms_ = NanosBetween(t0, t1) / 1e6;
    last_build_ms_ = SecondsSince(t1) * 1e3;
  }

  // ServePacket's pipeline, re-composed from the public calls it makes so
  // each stage can be timed as its own span: ParseWireQuery, BuildCacheKey,
  // PacketCache::Lookup, AuthoritativeServer::Query, EncodeWireResponse,
  // PacketCache::Insert. It must mirror ServePacket (src/server/serve.cc)
  // step for step, counters and copies included, or the per-layer figures
  // stop describing the code the end-to-end figures time. Only the paths
  // the workloads reach are composed: well-formed QUERY-opcode packets with
  // no OPT or an EDNS-version-0 OPT. Anything else aborts the run rather
  // than be timed on a path ServePacket does not take.
  void ServeTraced(const Packet& packet, int64_t request, std::vector<uint8_t>* wire) {
    ScopedSpan root(tracer_, "serve", request);
    Result<WireQuery> query = [&] {
      ScopedSpan span(tracer_, "ParseWireQuery", request);
      return ParseWireQuery(packet.wire.data(), packet.wire.size());
    }();
    if (!query.ok() || (query.value().edns.present && query.value().edns.version != 0)) {
      std::fprintf(stderr, "ServeTraced: query outside the composed paths\n");
      std::abort();
    }
    const EdnsInfo& edns = query.value().edns;
    if (edns.present) stats_.edns_queries.fetch_add(1, std::memory_order_relaxed);
    const size_t effective = EffectivePayloadLimit(edns, kMaxUdpPayload);
    CacheKey key;
    bool cacheable = [&] {
      ScopedSpan span(tracer_, "BuildCacheKey", request);
      return BuildCacheKey(query.value(), effective, &key);
    }();
    if (cacheable) {
      ScopedSpan span(tracer_, "Lookup", request);
      if (cache_.Lookup(key, generation_, query.value().id, wire, &stats_)) {
        stats_.CountRcode((*wire)[3] & 0xF);
        return;
      }
    }
    QueryResult result = [&] {
      ScopedSpan span(tracer_, "Query", request);
      return shard_->Query(query.value().qname, query.value().qtype);
    }();
    ResponseView view;
    if (result.panicked) {
      view.rcode = Rcode::kServFail;
      stats_.engine_panics.fetch_add(1, std::memory_order_relaxed);
    } else {
      view = result.response;
    }
    Result<std::vector<uint8_t>> encoded = [&] {
      ScopedSpan span(tracer_, "EncodeWireResponse", request);
      return EncodeWireResponse(query.value(), view, effective);
    }();
    if (!encoded.ok()) {
      ++error_answers_;
      stats_.encode_failures.fetch_add(1, std::memory_order_relaxed);
      stats_.servfail_fallbacks.fetch_add(1, std::memory_order_relaxed);
      stats_.CountRcode(static_cast<uint8_t>(Rcode::kServFail));
      *wire = BuildErrorResponse(packet.wire.data(), packet.wire.size(), Rcode::kServFail, &edns);
      return;
    }
    *wire = std::move(encoded).value();
    bool truncated = ((*wire)[2] & 0x02) != 0;
    if (truncated) stats_.truncated_responses.fetch_add(1, std::memory_order_relaxed);
    stats_.CountRcode((*wire)[3] & 0xF);
    uint8_t rcode = (*wire)[3] & 0xF;
    if (cacheable && !truncated && !result.panicked &&
        (rcode == static_cast<uint8_t>(Rcode::kNoError) ||
         rcode == static_cast<uint8_t>(Rcode::kNxDomain))) {
      uint32_t ttl = MinimumResponseTtl(*wire);
      if (ttl > 0) {
        ScopedSpan span(tracer_, "Insert", request);
        cache_.Insert(key, generation_, ttl, *wire, &stats_);
      }
    }
  }

  const ServeConfig& config_;
  const Args& args_;
  Tracer* tracer_;
  std::vector<Packet> packets_;
  std::vector<Served> last_;
  // Reference answers by (generation, folded name, type), shared by checks.
  std::map<std::tuple<uint64_t, std::string, int>, ResponseView> views_;
  ZoneConfig current_zone_;
  SnapshotHolder holder_;
  std::unique_ptr<AuthoritativeServer> shard_;
  uint64_t generation_ = 0;
  PacketCache cache_;
  ServerStats stats_;
  int64_t response_bytes_ = 0;
  int64_t error_answers_ = 0;
  double last_publish_ms_ = 0;
  double last_build_ms_ = 0;
};

int64_t ServeHarness::Check(const std::vector<Served>& answers, RunResult* result) {
  // Answers grouped by the generation that served them. One reference shard
  // on the interpreter at a time, over that generation's zone (the initial
  // Publish is generation 1; each later one applied one more edit).
  std::map<uint64_t, std::vector<size_t>> by_generation;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!answers[i].wire.empty()) by_generation[answers[i].generation].push_back(i);
  }
  int64_t mismatches = 0;
  ZoneConfig zone = config_.zone;
  uint64_t zone_generation = 1;
  for (const auto& [generation, indices] : by_generation) {
    while (zone_generation < generation) {
      ApplyEdit(&zone, config_.hot_a_records, args_.seed, ++zone_generation);
    }
    Result<std::unique_ptr<AuthoritativeServer>> created =
        AuthoritativeServer::Create(config_.version, zone, BackendKind::kInterp);
    if (!created.ok()) {
      result->Fail("reference shard: " + created.error());
      mismatches += static_cast<int64_t>(indices.size());
      continue;
    }
    AuthoritativeServer& reference = *created.value();
    for (size_t i : indices) {
      mismatches += CheckAnswer(answers[i], packets_[i], &reference, result) ? 0 : 1;
    }
  }
  return mismatches;
}

bool ServeHarness::CheckAnswer(const Served& served, const Packet& packet,
                               AuthoritativeServer* reference, RunResult* result) {
  WireQuery query = packet.query;
  query.id = served.id;
  auto key = std::make_tuple(served.generation, packet.folded_name,
                             static_cast<int>(packet.query.qtype));
  auto it = views_.find(key);
  if (it == views_.end()) {
    DnsName folded = NameOf(packet.folded_name);
    QueryResult answer = config_.spec_oracle ? reference->QuerySpec(folded, packet.query.qtype)
                                             : reference->Query(folded, packet.query.qtype);
    ResponseView view;
    if (answer.panicked) {
      view.rcode = Rcode::kServFail;
    } else {
      view = std::move(answer.response);
    }
    it = views_.emplace(key, std::move(view)).first;
  }
  const std::vector<uint8_t>& got = served.wire;
  std::vector<std::string> why;
  Result<std::vector<uint8_t>> expected = EncodeWireResponse(query, it->second, packet.limit);
  Result<std::vector<uint8_t>> full = EncodeWireResponse(query, it->second, kMaxTcpPayload);
  if (!expected.ok() || !full.ok()) {
    why.push_back("reference answer does not encode");
  } else if (got != expected.value()) {
    why.push_back("bytes differ from the reference answer");
  }
  if (got.size() < 12 + packet.question_bytes) {
    why.push_back("shorter than header + question");
  } else {
    if (got[0] != (served.id >> 8) || got[1] != (served.id & 0xFF)) why.push_back("ID not echoed");
    if ((got[2] & 0x80) == 0) why.push_back("QR clear");
    if (!std::equal(packet.wire.begin() + 12, packet.wire.begin() + 12 + packet.question_bytes,
                    got.begin() + 12)) {
      why.push_back("question not echoed with the client's casing");
    }
    bool tc = (got[2] & 0x02) != 0;
    if (full.ok() && tc != (full.value().size() > packet.limit)) {
      why.push_back("TC does not match whether the full answer fits");
    }
  }
  if (got.size() > packet.limit) why.push_back("larger than the negotiated limit");
  WireQuery echoed;
  if (!ParseWireResponse(got, &echoed).ok()) why.push_back("answer does not parse");
  if (!why.empty()) {
    result->Fail(StrCat(config_.name, ": ", packet.folded_name, " ",
                        RrTypeDisplay(packet.query.qtype),
                        packet.query.edns.present ? StrCat(" edns ", packet.limit) : "",
                        " generation ", served.generation, ": ", JoinStrings(why, "; ")));
  }
  return why.empty();
}

ServeConfig ConformanceConfig(uint64_t seed) {
  ServeConfig config;
  config.name = "conformance";
  SplitMix64 rng(seed * 0x2545F4914F6CDD1DULL + 11);
  config.zone = KitchenSinkZone();
  config.packets = MakePackets(ConformanceNames(&rng), 1024, &rng);
  return config;
}

ServeConfig WideConfig(uint64_t seed) {
  ServeConfig config;
  config.name = "serve-wide";
  SplitMix64 rng(kWideShapeSeed * 0x2545F4914F6CDD1DULL + 29);
  WideZone wide = MakeWideZone(&rng);
  std::vector<std::string> names = WideNames(wide, &rng);
  Respeller respell(wide.zone.origin, seed * 0x2545F4914F6CDD1DULL + 29);
  for (ZoneRecord& record : wide.zone.records) {
    record.name = respell.Name(record.name);
    if (!record.rdata.name.Empty()) record.rdata.name = respell.Name(record.rdata.name);
  }
  for (std::string& name : names) name = respell.Name(NameOf(name)).ToString();
  config.zone = wide.zone;
  config.packets = MakePackets(names, 16384, &rng);
  config.spec_oracle = false;
  // Edit targets: A records whose owner is among the 512 most popular names.
  std::set<std::string> popular;
  for (size_t i = 0; i < 512; ++i) popular.insert(config.packets[i].folded_name);
  for (size_t index : wide.a_records) {
    if (popular.count(config.zone.records[index].name.ToString()) != 0) {
      config.hot_a_records.push_back(index);
    }
  }
  if (config.hot_a_records.empty()) config.hot_a_records = wide.a_records;
  return config;
}

// Serves every query of `config` once, through ServePacket with a cold
// cache, and checks each answer. Returns the number of mismatching answers;
// details go to `result`.
int64_t ServeOnceAndCheck(const ServeConfig& config, const Args& args, RunResult* result) {
  Tracer tracer(false);
  ServeHarness harness(config, args, &tracer);
  harness.Start();
  for (size_t i = 0; i < config.packets.size(); ++i) harness.ServeOne(i, false, -1);
  return harness.Check(harness.answers(), result);
}

}  // namespace

RunResult RunServeWide(const Args& args, Clock::time_point process_start) {
  const ServeConfig config = WideConfig(args.seed);
  RunResult result;
  Tracer tracer(args.trace);
  ServeHarness harness(config, args, &tracer);

  SplitMix64 rng(args.seed * 0x9E3779B97F4A7C15ULL + 3);
  Zipf zipf(config.packets.size(), 1.0);
  std::vector<uint32_t> stream(kStreamLength);
  for (uint32_t& index : stream) index = static_cast<uint32_t>(zipf.Sample(&rng));

  harness.Start();
  size_t heap_blocks = harness.heap_blocks();
  // Warm-up: every distinct query once (fills the cache), then a stretch of
  // the Zipf stream.
  for (size_t i = 0; i < config.packets.size(); ++i) harness.ServeOne(i, false, -1);
  for (int64_t op = 0; op < kWarmQueries; ++op) {
    harness.ServeOne(stream[(kStreamLength - 1 - op) & (kStreamLength - 1)], false, -1);
  }
  const double setup_s = SecondsSince(process_start);

  const ServerStats& stats = harness.stats();
  const uint64_t hits0 = stats.cache_hits.load(), misses0 = stats.cache_misses.load();
  const uint64_t evictions0 = stats.cache_evictions.load(), stale0 = stats.cache_stale.load();
  const int64_t bytes0 = harness.response_bytes(), errors0 = harness.error_answers();

  // The window is cut into slices of a fixed number of queries: one zone
  // reload plus the queries up to the next. Each slice
  // yields a throughput and its own p50 / p99; the end-to-end figures are
  // their medians across the slices (README.md §estimators).
  std::vector<double> slice_qps, slice_p50_us, slice_p99_us;
  std::vector<double> reload_ms, publish_ms, build_ms;
  std::vector<int64_t> samples;
  samples.reserve(static_cast<size_t>(kSliceOps));
  int64_t untraced_ops = 0, traced_ops = 0, untraced_ns = 0, traced_ns = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(args.seconds));
  int64_t ops = 0;
  const std::vector<int> cpus = AllowedCpus();
  for (size_t slice = 0; Clock::now() < deadline; ++slice) {
    // Each slice runs on the next allowed CPU in turn, so every run samples
    // every CPU of the shared host (README.md §estimators).
    if (!cpus.empty()) PinCurrentThread({cpus[slice % cpus.size()]});
    const Clock::time_point slice_start = Clock::now();
    samples.clear();
    harness.Reload();
    publish_ms.push_back(harness.last_publish_ms());
    build_ms.push_back(harness.last_build_ms());
    samples.push_back(harness.ServeOne(stream[ops & (kStreamLength - 1)], false, ops));
    reload_ms.push_back(SecondsSince(slice_start) * 1e3);
    ++ops;
    for (int64_t k = 1; k < kSliceOps; ++k, ++ops) {
      bool traced = args.trace && (ops / kTraceBlock) % 2 == 1;
      int64_t ns = harness.ServeOne(stream[ops & (kStreamLength - 1)], traced, ops);
      samples.push_back(ns);
      (traced ? traced_ops : untraced_ops) += 1;
      (traced ? traced_ns : untraced_ns) += ns;
    }
    slice_qps.push_back(static_cast<double>(kSliceOps) / SecondsSince(slice_start));
    auto quantile_us = [&](double q) {
      auto at = samples.begin() + static_cast<std::ptrdiff_t>(q * static_cast<double>(samples.size() - 1));
      std::nth_element(samples.begin(), at, samples.end());
      return static_cast<double>(*at) / 1e3;
    };
    slice_p50_us.push_back(quantile_us(0.50));
    slice_p99_us.push_back(quantile_us(0.99));
  }
  const double window_s = SecondsSince(start);
  const double peak_rss = PeakRssMb();
  PinCurrentThread(cpus);

  result.attempted = ops;
  result.failed = harness.error_answers() - errors0;
  int64_t mismatches = harness.Check(harness.answers(), &result);
  // Conformance: the wide check's oracle is the interpreted engine, so the
  // compiled engine is also held to the specification on a zone small
  // enough for the interpreted specification.
  const ServeConfig conformance = ConformanceConfig(args.seed);
  int64_t conformance_mismatches = ServeOnceAndCheck(conformance, args, &result);
  std::set<std::string> owners;
  for (const ZoneRecord& record : config.zone.records) owners.insert(record.name.ToString());
  std::fprintf(stderr, "%s: zone of %zu records at %zu owners, %zu distinct queries\n",
               config.name.c_str(), config.zone.records.size(), owners.size(),
               config.packets.size());
  std::fprintf(stderr, "%s: %lld queries in %zu slices, %.2f s, %zu generations, "
               "%lld mismatching answers\n",
               config.name.c_str(), static_cast<long long>(ops), slice_qps.size(), window_s,
               static_cast<size_t>(harness.generation()), static_cast<long long>(mismatches));
  std::fprintf(stderr, "conformance: %lld of %zu answers differ from the specification\n",
               static_cast<long long>(conformance_mismatches), conformance.packets.size());

  result.Set("setup_s", setup_s);
  result.Set("peak_rss_mb", peak_rss);
  result.Set("ops_per_s", Percentile(slice_qps, 0.5));
  result.Set("op_p50_us", Percentile(slice_p50_us, 0.5));
  result.Set("op_p99_us", Percentile(slice_p99_us, 0.5));

  const double lookups = static_cast<double>(stats.cache_hits.load() - hits0 +
                                             stats.cache_misses.load() - misses0);
  const double kq = static_cast<double>(ops) / 1e3;
  result.Set("server.cache_hit_ratio",
             lookups == 0 ? 0 : static_cast<double>(stats.cache_hits.load() - hits0) / lookups);
  result.Set("server.cache_evictions",
             static_cast<double>(stats.cache_evictions.load() - evictions0) / kq);
  result.Set("server.cache_stale", static_cast<double>(stats.cache_stale.load() - stale0) / kq);
  result.Set("server.response_bytes",
             static_cast<double>(harness.response_bytes() - bytes0) / static_cast<double>(ops));
  result.Set("snapshot.publish_ms", Percentile(publish_ms, 0.5));
  result.Set("snapshot.build_shard_ms", Percentile(build_ms, 0.5));
  result.Set("snapshot.reload_ms", Percentile(reload_ms, 0.5));
  result.Set("engine.heap_blocks", static_cast<double>(heap_blocks));

  // Per-layer self times (ns per call) from the traced blocks, and the
  // reconciliation against the untraced blocks of the same run.
  const std::pair<const char*, const char*> layers[] = {
      {"dns.parse_ns", "ParseWireQuery"},   {"server.cache_key_ns", "BuildCacheKey"},
      {"server.cache_lookup_ns", "Lookup"}, {"engine.query_ns", "Query"},
      {"dns.encode_ns", "EncodeWireResponse"}, {"server.cache_insert_ns", "Insert"}};
  double accounted_ns = 0;
  for (const auto& [metric, span] : layers) {
    result.Set(metric, tracer.MeanSelfNs(span));
    accounted_ns += static_cast<double>(tracer.totals(span).self_ns);
  }
  if (args.trace && traced_ops > 0 && untraced_ops > 0) {
    double untraced_mean = static_cast<double>(untraced_ns) / static_cast<double>(untraced_ops);
    double traced_mean = static_cast<double>(traced_ns) / static_cast<double>(traced_ops);
    result.Set("trace.overhead_ns", traced_mean - untraced_mean);
    result.Set("trace.unaccounted_ratio",
               (untraced_mean - accounted_ns / static_cast<double>(traced_ops)) / untraced_mean);
    std::filesystem::create_directories(args.out_dir + "/traces");
    std::string path = StrCat(args.out_dir, "/traces/", config.name, "-seed", args.seed, ".tsv");
    if (!tracer.Write(path)) std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
  return result;
}

int RunServeSelfTest(const Args& args) {
  // v1.0 carries Table-2 bugs #1-#3; served through the conformance pass,
  // the specification check must flag its answers.
  ServeConfig config = ConformanceConfig(args.seed);
  config.version = EngineVersion::kV1;
  config.name = "selftest conformance v1.0";
  RunResult result;
  int64_t mismatches = ServeOnceAndCheck(config, args, &result);
  std::fprintf(stderr, "selftest: serving check flagged %lld of %zu v1.0 answers%s\n",
               static_cast<long long>(mismatches), config.packets.size(),
               mismatches > 0 ? "" : " (expected some: MISSED)");
  return mismatches > 0 ? 0 : 1;
}

}  // namespace perfbench
