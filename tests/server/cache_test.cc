// The response packet cache (src/server/cache.h): unit tests for the key
// scheme / TTL walker / splice-back, ServePacket-level cacheability rules,
// loopback integration (shared cache across 4 workers, reload-under-load
// invalidation, the 0x20 mixed-case regression of ISSUE 9), and the
// differential harness proving transparency: every cached answer is
// byte-identical to what the engine would serve cold, across every engine
// version, across a mid-stream zone reload, and (ISSUE 10) across the
// EDNS-negotiated payload limits 512/1232/4096.
#include "src/server/cache.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dns/example_zones.h"
#include "src/fuzz/packet_gen.h"
#include "src/server/server.h"

namespace dnsv {
namespace {

std::unique_ptr<AuthoritativeServer> MakeShard(const ZoneConfig& zone,
                                               EngineVersion version = EngineVersion::kGolden) {
  Result<std::unique_ptr<AuthoritativeServer>> shard = AuthoritativeServer::Create(version, zone);
  EXPECT_TRUE(shard.ok()) << shard.error();
  return std::move(shard).value();
}

WireQuery MakeQuery(const std::string& qname, RrType qtype, uint16_t id, bool rd = false) {
  WireQuery query;
  query.id = id;
  query.qname = DnsName::Parse(qname).value();
  query.qtype = qtype;
  query.recursion_desired = rd;
  return query;
}

// Flips the case of every other alphabetic byte — a 0x20 case-randomizing
// client. DnsName::Parse lowercases, so the flip is applied to the parsed
// labels directly.
WireQuery FlipCase(WireQuery query) {
  size_t i = 0;
  for (std::string& label : query.qname.labels) {
    for (char& c : label) {
      bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
      if (alpha && i++ % 2 == 0) {
        c = static_cast<char>(c ^ 0x20);
      }
    }
  }
  return query;
}

// The engine-side reference bytes for `query`: what a transparent cache hit
// must reproduce exactly (the question echoes the client's casing; record
// owner names come from the zone, already case-normalized by the interner).
std::vector<uint8_t> ReferenceBytes(AuthoritativeServer* shard, const WireQuery& query,
                                    size_t max_payload) {
  QueryResult result = shard->Query(query.qname, query.qtype);
  EXPECT_FALSE(result.panicked);
  Result<std::vector<uint8_t>> encoded = EncodeWireResponse(query, result.response, max_payload);
  EXPECT_TRUE(encoded.ok()) << encoded.error();
  return std::move(encoded).value();
}

TEST(CacheKeyTest, FoldsCaseButKeepsClientCasingForSplice) {
  CacheKey lower, mixed;
  ASSERT_TRUE(BuildCacheKey(MakeQuery("www.example.com", RrType::kA, 1), kMaxUdpPayload, &lower));
  WireQuery mixed_query = FlipCase(MakeQuery("www.example.com", RrType::kA, 2));
  ASSERT_TRUE(BuildCacheKey(mixed_query, kMaxUdpPayload, &mixed));
  EXPECT_EQ(lower.key, mixed.key) << "0x20 variants must share one cache entry";
  EXPECT_NE(lower.qname_wire, mixed.qname_wire) << "splice material keeps the client's bytes";
  // The wire form is length-prefixed labels plus the root byte.
  std::vector<uint8_t> expected = {3, 'W', 'w', 'W', 7, 'e', 'X', 'a', 'M', 'p', 'L',
                                   'e', 3,   'C', 'o', 'M', 0};
  EXPECT_EQ(mixed.qname_wire, expected);
}

TEST(CacheKeyTest, SeparatesTypeClassRdBitAndPayloadLimit) {
  WireQuery base = MakeQuery("www.example.com", RrType::kA, 1);
  CacheKey a, b;
  ASSERT_TRUE(BuildCacheKey(base, kMaxUdpPayload, &a));

  WireQuery other_type = base;
  other_type.qtype = RrType::kAaaa;
  ASSERT_TRUE(BuildCacheKey(other_type, kMaxUdpPayload, &b));
  EXPECT_NE(a.key, b.key);

  WireQuery other_class = base;
  other_class.qclass = 3;  // CH
  ASSERT_TRUE(BuildCacheKey(other_class, kMaxUdpPayload, &b));
  EXPECT_NE(a.key, b.key);

  WireQuery rd = base;
  rd.recursion_desired = true;
  ASSERT_TRUE(BuildCacheKey(rd, kMaxUdpPayload, &b));
  EXPECT_NE(a.key, b.key) << "RD is reflected into response flags, so it splits the key";

  // A TCP-sized answer must never satisfy a UDP-sized lookup: the payload
  // limit decides truncation, so it is part of the key.
  ASSERT_TRUE(BuildCacheKey(base, kMaxTcpPayload, &b));
  EXPECT_NE(a.key, b.key);

  // Different IDs do NOT split the key — the ID is spliced on every hit.
  WireQuery other_id = base;
  other_id.id = 999;
  ASSERT_TRUE(BuildCacheKey(other_id, kMaxUdpPayload, &b));
  EXPECT_EQ(a.key, b.key);
}

TEST(CacheKeyTest, RejectsNamesOverTheWireLimit) {
  std::string label(63, 'a');
  WireQuery query;
  query.id = 1;
  query.qname.labels = {label, label, label, label, label};  // 5*64+1 > 255
  CacheKey key;
  EXPECT_FALSE(BuildCacheKey(query, kMaxUdpPayload, &key));
}

TEST(MinimumResponseTtlTest, WalksRealEncodedResponsesAndRejectsTheRest) {
  auto shard = MakeShard(KitchenSinkZone());
  WireQuery query = MakeQuery("www.example.com", RrType::kA, 7);
  std::vector<uint8_t> wire = ReferenceBytes(shard.get(), query, kMaxUdpPayload);
  // The encoder stamps every record with its fixed 300 s TTL (src/dns/wire.cc).
  EXPECT_EQ(MinimumResponseTtl(wire), 300u);

  // Header-only packets (the FORMERR/NOTIMP/SERVFAIL fallbacks) carry no
  // records: uncacheable.
  EXPECT_EQ(MinimumResponseTtl(BuildErrorResponse(nullptr, 0, Rcode::kServFail)), 0u);

  // A zero-TTL record pins the whole response at 0 (never cached).
  std::vector<uint8_t> zero_ttl = wire;
  size_t offset = 12 + /*question*/ (1 + 3 + 1 + 7 + 1 + 3 + 1) + 4;  // first answer record
  offset += (1 + 3 + 1 + 7 + 1 + 3 + 1) + 4;                          // its owner name + type/class
  for (int i = 0; i < 4; ++i) {
    zero_ttl[offset + i] = 0;
  }
  EXPECT_EQ(MinimumResponseTtl(zero_ttl), 0u);

  // Truncated garbage is "uncacheable", never out-of-bounds.
  std::vector<uint8_t> chopped(wire.begin(), wire.begin() + wire.size() / 2);
  EXPECT_EQ(MinimumResponseTtl(chopped), 0u);
  EXPECT_EQ(MinimumResponseTtl(std::vector<uint8_t>{}), 0u);
}

TEST(PacketCacheTest, HitSplicesClientIdAndCasing) {
  auto shard = MakeShard(KitchenSinkZone());
  PacketCache cache(64);
  ServerStats stats;

  WireQuery original = MakeQuery("www.example.com", RrType::kA, 0x1111);
  CacheKey key;
  ASSERT_TRUE(BuildCacheKey(original, kMaxUdpPayload, &key));
  std::vector<uint8_t> wire = ReferenceBytes(shard.get(), original, kMaxUdpPayload);
  cache.Insert(key, /*generation=*/1, /*ttl_seconds=*/300, wire, &stats);
  EXPECT_EQ(stats.cache_inserts.load(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  // A 0x20 client with a different ID hits the same entry and must receive
  // exactly the bytes the engine would have encoded for *its* query.
  WireQuery mixed = FlipCase(MakeQuery("www.example.com", RrType::kA, 0x2222));
  CacheKey mixed_key;
  ASSERT_TRUE(BuildCacheKey(mixed, kMaxUdpPayload, &mixed_key));
  std::vector<uint8_t> response;
  ASSERT_TRUE(cache.Lookup(mixed_key, 1, mixed.id, &response, &stats));
  EXPECT_EQ(response, ReferenceBytes(shard.get(), mixed, kMaxUdpPayload));
  EXPECT_EQ(stats.cache_hits.load(), 1u);
}

TEST(PacketCacheTest, ExpiryAndGenerationBothInvalidate) {
  PacketCache::Clock::time_point now{};
  PacketCache cache(64, [&now] { return now; });
  ServerStats stats;

  CacheKey key;
  ASSERT_TRUE(BuildCacheKey(MakeQuery("www.example.com", RrType::kA, 1), kMaxUdpPayload, &key));
  std::vector<uint8_t> wire(64, 0xAA);  // >= header + question (splice precondition)
  std::vector<uint8_t> out;

  // TTL expiry under the injected clock.
  cache.Insert(key, /*generation=*/1, /*ttl_seconds=*/5, wire, &stats);
  now += std::chrono::seconds(4);
  EXPECT_TRUE(cache.Lookup(key, 1, 1, &out, &stats));
  now += std::chrono::seconds(2);  // past the 5 s expiry
  EXPECT_FALSE(cache.Lookup(key, 1, 1, &out, &stats));
  EXPECT_EQ(stats.cache_stale.load(), 1u);
  EXPECT_EQ(cache.size(), 0u) << "the stale entry is erased, not skipped";

  // Generation mismatch: a reload bumped the snapshot counter, so an
  // un-expired entry is dead.
  cache.Insert(key, /*generation=*/1, /*ttl_seconds=*/300, wire, &stats);
  EXPECT_FALSE(cache.Lookup(key, /*generation=*/2, 1, &out, &stats));
  EXPECT_EQ(stats.cache_stale.load(), 2u);
  EXPECT_FALSE(cache.Lookup(key, /*generation=*/1, 1, &out, &stats))
      << "erased on the mismatch — even the old generation cannot resurrect it";
}

TEST(PacketCacheTest, CapacityIsBoundedByEviction) {
  PacketCache cache(8);
  ServerStats stats;
  std::vector<uint8_t> wire(64, 0xAA);
  for (int i = 0; i < 100; ++i) {
    CacheKey key;
    ASSERT_TRUE(BuildCacheKey(MakeQuery("host" + std::to_string(i) + ".example.com", RrType::kA, 1),
                              kMaxUdpPayload, &key));
    cache.Insert(key, 1, 300, wire, &stats);
  }
  EXPECT_LE(cache.size(), cache.max_entries());
  EXPECT_EQ(stats.cache_inserts.load(), 100u);
  EXPECT_GE(stats.cache_evictions.load(), 100u - cache.max_entries());
}

TEST(PacketCacheTest, FullShardKeepsMostRecentInserts) {
  // One shard: every key competes for the same capacity.
  PacketCache cache(60);
  ASSERT_EQ(cache.num_shards(), 1u);
  ServerStats stats;
  std::vector<uint8_t> wire(64, 0xAA);
  auto key_for = [](int i) {
    CacheKey key;
    EXPECT_TRUE(BuildCacheKey(
        MakeQuery("host" + std::to_string(i) + ".example.com", RrType::kA, 1), kMaxUdpPayload,
        &key));
    return key;
  };
  const int capacity = static_cast<int>(cache.max_entries());
  const int extra = 4 * capacity;
  for (int i = 0; i < capacity + extra; ++i) {
    cache.Insert(key_for(i), 1, 300, wire, &stats);
  }
  ASSERT_EQ(cache.size(), cache.max_entries());

  // Random eviction keeps a key inserted j inserts ago with probability
  // (1 - 1/capacity)^j, so ~88% of the last capacity/4 survive. A policy
  // that keeps evicting its newest entries loses most of them.
  const int recent = extra / 16;
  int cached = 0;
  std::vector<uint8_t> out;
  for (int i = capacity + extra - recent; i < capacity + extra; ++i) {
    if (cache.Lookup(key_for(i), 1, 1, &out, nullptr)) ++cached;
  }
  EXPECT_GE(cached, recent * 3 / 4) << cached << " of the last " << recent << " inserts cached";
}

// ---- ServePacket-level cacheability -------------------------------------

TEST(CachedServeTest, SecondServeIsAHitAndByteIdentical) {
  auto shard = MakeShard(KitchenSinkZone());
  PacketCache cache(64);
  ServerStats stats;
  ServeContext ctx{&cache, 1};

  WireQuery cold = MakeQuery("chain.example.com", RrType::kA, 0x0101);
  std::vector<uint8_t> cold_packet = EncodeWireQuery(cold);
  ServeOutcome first =
      ServePacket(shard.get(), cold_packet.data(), cold_packet.size(), kMaxUdpPayload, &stats, ctx);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(stats.cache_misses.load(), 1u);
  EXPECT_EQ(stats.cache_inserts.load(), 1u);

  WireQuery warm = FlipCase(MakeQuery("chain.example.com", RrType::kA, 0x0202));
  std::vector<uint8_t> warm_packet = EncodeWireQuery(warm);
  ServeOutcome second =
      ServePacket(shard.get(), warm_packet.data(), warm_packet.size(), kMaxUdpPayload, &stats, ctx);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(stats.cache_hits.load(), 1u);
  EXPECT_EQ(second.wire, ReferenceBytes(shard.get(), warm, kMaxUdpPayload));
  // Rcode accounting must not skip cache hits (the flood test's invariant
  // that rcode totals equal query totals relies on it).
  EXPECT_EQ(stats.rcodes[0].load(), 2u);
}

TEST(CachedServeTest, ErrorAndTruncatedResponsesAreNeverCached) {
  PacketCache cache(64);
  ServerStats stats;
  ServeContext ctx{&cache, 1};

  // SERVFAIL fallback (unencodable qname) — served, never stored.
  {
    auto shard = MakeShard(KitchenSinkZone());
    std::string label(63, 'a');
    std::string huge = label + "." + label + "." + label + "." + label + "." + label;
    std::vector<uint8_t> packet = EncodeWireQuery(MakeQuery(huge, RrType::kA, 1));
    ServeOutcome outcome =
        ServePacket(shard.get(), packet.data(), packet.size(), kMaxUdpPayload, &stats, ctx);
    EXPECT_TRUE(outcome.servfail_fallback);
    EXPECT_EQ(stats.cache_inserts.load(), 0u);
    EXPECT_EQ(stats.cache_misses.load(), 0u) << "over-limit qnames bypass the cache entirely";
  }

  // FORMERR (unparseable) and NOTIMP (non-QUERY opcode): the cache is not
  // even consulted — no key exists before a successful parse.
  {
    auto shard = MakeShard(KitchenSinkZone());
    std::vector<uint8_t> formerr = {0xAB, 0xCD, 0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 0};
    ServeOutcome outcome =
        ServePacket(shard.get(), formerr.data(), formerr.size(), kMaxUdpPayload, &stats, ctx);
    EXPECT_TRUE(outcome.parse_error);
    std::vector<uint8_t> notimp = {0xAB, 0xCD, 0x10, 0x00, 0, 0, 0, 0, 0, 0, 0, 0};
    outcome = ServePacket(shard.get(), notimp.data(), notimp.size(), kMaxUdpPayload, &stats, ctx);
    EXPECT_TRUE(outcome.not_implemented);
    EXPECT_EQ(stats.cache_inserts.load(), 0u);
    EXPECT_EQ(stats.cache_misses.load(), 0u);
    EXPECT_EQ(cache.size(), 0u);
  }

  // TC=1: the truncated UDP rendering is never cached (the client's TCP
  // retry is the contract), and the full TCP rendering is cached under its
  // own payload-limit key.
  {
    auto shard = MakeShard(WideRrsetZone());
    std::vector<uint8_t> packet = EncodeWireQuery(MakeQuery("www.example.com", RrType::kA, 2));
    ServeOutcome udp =
        ServePacket(shard.get(), packet.data(), packet.size(), kMaxUdpPayload, &stats, ctx);
    EXPECT_TRUE(udp.truncated);
    EXPECT_EQ(stats.cache_inserts.load(), 0u);
    EXPECT_EQ(cache.size(), 0u);

    ServeOutcome tcp =
        ServePacket(shard.get(), packet.data(), packet.size(), kMaxTcpPayload, &stats, ctx);
    EXPECT_FALSE(tcp.truncated);
    EXPECT_EQ(stats.cache_inserts.load(), 1u);

    // The warm UDP retry must still truncate — the TCP entry cannot leak in.
    udp = ServePacket(shard.get(), packet.data(), packet.size(), kMaxUdpPayload, &stats, ctx);
    EXPECT_TRUE(udp.truncated);
    EXPECT_FALSE(udp.cache_hit);
  }
}

TEST(CachedServeTest, GenerationFlipServesTheNewZoneImmediately) {
  // Same origin, different www answer (one A record vs. two + TXT).
  ZoneConfig old_zone = Figure11Zone();
  ZoneConfig new_zone = KitchenSinkZone();
  auto old_shard = MakeShard(old_zone);
  auto new_shard = MakeShard(new_zone);
  PacketCache cache(64);
  ServerStats stats;

  std::vector<uint8_t> packet = EncodeWireQuery(MakeQuery("www.example.com", RrType::kA, 9));
  ServeContext gen1{&cache, 1};
  ServeOutcome before =
      ServePacket(old_shard.get(), packet.data(), packet.size(), kMaxUdpPayload, &stats, gen1);
  EXPECT_EQ(stats.cache_inserts.load(), 1u);

  // Reload: the worker's shard and generation moved together. The cached
  // gen-1 answer must be invisible to a gen-2 lookup.
  ServeContext gen2{&cache, 2};
  ServeOutcome after =
      ServePacket(new_shard.get(), packet.data(), packet.size(), kMaxUdpPayload, &stats, gen2);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(stats.cache_stale.load(), 1u);
  EXPECT_EQ(after.wire, ReferenceBytes(new_shard.get(),
                                       MakeQuery("www.example.com", RrType::kA, 9), kMaxUdpPayload));
  EXPECT_NE(after.wire, before.wire) << "the zones answer www differently by construction";
}

// ---- Differential harness -----------------------------------------------
//
// The transparency proof the tentpole demands: for a fuzz-generated query
// stream, serving cold (no cache) and warm (cache, twice, so the second
// serve is a hit) must be byte-identical for every engine version — and stay
// so across a mid-stream zone reload. IDs are identical across the arms by
// construction, so byte equality needs no normalization; a separate
// case-flipped, re-ID'd probe exercises the splice path explicitly.
TEST(CacheDifferentialTest, ColdVsWarmByteIdenticalAcrossVersionsAndReload) {
  constexpr int kQueries = 120;  // per version, half before + half after reload
  uint64_t total_hits = 0;
  for (EngineVersion version : AllEngineVersions()) {
    SCOPED_TRACE(EngineVersionName(version));
    ZoneConfig zone = KitchenSinkZone();
    auto cold_shard = MakeShard(zone, version);
    auto warm_shard = MakeShard(zone, version);
    PacketCache cache(512);
    ServerStats stats;
    uint64_t generation = 1;
    PacketGenerator gen(/*seed=*/0x9e3779b97f4a7c15ull, zone);

    int divergences = 0;
    for (int i = 0; i < kQueries; ++i) {
      if (i == kQueries / 2) {
        // Mid-stream hot reload: new zone, new shards, bumped generation —
        // exactly what RefreshShard does to a worker. Entries from the old
        // generation must never surface again.
        zone = WideRrsetZone(8);
        cold_shard = MakeShard(zone, version);
        warm_shard = MakeShard(zone, version);
        generation = 2;
        gen = PacketGenerator(/*seed=*/0xdeadbeefcafef00dull, zone);
      }
      WireQuery query;
      GeneratedPacket packet = gen.NextQueryPacket(&query);
      if (i % 3 == 0 && !zone.records.empty()) {
        // Anchor a deterministic share of in-zone hits: purely random names
        // are mostly REFUSED/NXDOMAIN (record-free, so uncacheable), and the
        // hit-exercising floor below must not depend on generator luck.
        query.qname = zone.records[static_cast<size_t>(i) % zone.records.size()].name;
        query.qtype = RrType::kA;
        query.qclass = 1;
        query.edns.version = 0;
        packet.bytes = EncodeWireQuery(query);
      }

      ServeOutcome cold = ServePacket(cold_shard.get(), packet.bytes.data(), packet.bytes.size(),
                                      kMaxUdpPayload, nullptr);
      ServeContext ctx{&cache, generation};
      ServeOutcome warm1 = ServePacket(warm_shard.get(), packet.bytes.data(), packet.bytes.size(),
                                       kMaxUdpPayload, &stats, ctx);
      ServeOutcome warm2 = ServePacket(warm_shard.get(), packet.bytes.data(), packet.bytes.size(),
                                       kMaxUdpPayload, &stats, ctx);
      if (cold.wire != warm1.wire || cold.wire != warm2.wire) {
        ++divergences;
        ADD_FAILURE() << "divergence on query " << i << " (" << query.qname.ToString() << ")";
        continue;
      }

      // 0x20 probe: flip the casing and the ID; a hit must still reproduce
      // the cold engine bytes for the flipped query exactly.
      WireQuery flipped = FlipCase(query);
      flipped.id = static_cast<uint16_t>(query.id + 1);
      std::vector<uint8_t> flipped_packet = EncodeWireQuery(flipped);
      ServeOutcome cold_flip = ServePacket(cold_shard.get(), flipped_packet.data(),
                                           flipped_packet.size(), kMaxUdpPayload, nullptr);
      ServeOutcome warm_flip = ServePacket(warm_shard.get(), flipped_packet.data(),
                                           flipped_packet.size(), kMaxUdpPayload, &stats, ctx);
      if (cold_flip.wire != warm_flip.wire) {
        ++divergences;
        ADD_FAILURE() << "0x20 divergence on query " << i << " (" << flipped.qname.ToString()
                      << ")";
      }
    }
    EXPECT_EQ(divergences, 0);
    // Versions whose answers are cacheable must actually exercise hits. The
    // dev version panics on lookups (its seeded bug), so every answer is an
    // uncacheable SERVFAIL — transparency still holds, hits cannot.
    if (stats.cache_inserts.load() > 0) {
      EXPECT_GT(stats.cache_hits.load(), 0u) << "the warm arm must actually exercise hits";
    }
    total_hits += stats.cache_hits.load();
  }
  EXPECT_GT(total_hits, 0u);
}

// EDNS transparency: for OPT-bearing queries the cache must be byte-for-byte
// invisible at every negotiated payload limit. A wide RRset makes the limit
// decisive — the answer truncates at 512 and 1232 but fits at 4096 — so any
// key aliasing across limits (or between EDNS and plain clients at the same
// name) would replay the wrong TC bit or the wrong OPT and break equality.
TEST(CacheDifferentialTest, EdnsColdVsWarmByteIdenticalAtEveryPayload) {
  ZoneConfig zone = WideRrsetZone(48);
  DnsName www = DnsName::Parse("www.example.com").value();
  for (EngineVersion version : AllEngineVersions()) {
    SCOPED_TRACE(EngineVersionName(version));
    auto cold_shard = MakeShard(zone, version);
    auto warm_shard = MakeShard(zone, version);
    PacketCache cache(64);
    ServerStats stats;
    ServeContext ctx{&cache, 1};
    for (uint16_t payload : {uint16_t{512}, uint16_t{1232}, uint16_t{4096}}) {
      SCOPED_TRACE(payload);
      WireQuery query;
      query.id = payload;
      query.qname = www;
      query.qtype = RrType::kA;
      query.edns.present = true;
      query.edns.udp_payload = payload;
      query.edns.dnssec_ok = payload == 1232;  // one DO variant in the sweep
      std::vector<uint8_t> packet = EncodeWireQuery(query);
      ServeOutcome cold =
          ServePacket(cold_shard.get(), packet.data(), packet.size(), kMaxUdpPayload, nullptr);
      ServeOutcome warm1 = ServePacket(warm_shard.get(), packet.data(), packet.size(),
                                       kMaxUdpPayload, &stats, ctx);
      ServeOutcome warm2 = ServePacket(warm_shard.get(), packet.data(), packet.size(),
                                       kMaxUdpPayload, &stats, ctx);
      EXPECT_EQ(cold.wire, warm1.wire);
      EXPECT_EQ(cold.wire, warm2.wire);
      if (payload == 4096 && !cold.truncated && (cold.wire[3] & 0xF) == 0 &&
          !cold.servfail_fallback) {
        EXPECT_TRUE(warm2.cache_hit) << "untruncated NOERROR answers must be cache-served";
      }
      if (payload == 512) {
        EXPECT_EQ(cold.truncated, warm2.truncated);
      }
    }
    // A plain client asking the same name must never see the EDNS entries:
    // its response carries no OPT, so aliasing would be a visible wire bug.
    WireQuery plain;
    plain.id = 7;
    plain.qname = www;
    plain.qtype = RrType::kA;
    std::vector<uint8_t> packet = EncodeWireQuery(plain);
    ServeOutcome cold =
        ServePacket(cold_shard.get(), packet.data(), packet.size(), kMaxUdpPayload, nullptr);
    ServeOutcome warm = ServePacket(warm_shard.get(), packet.data(), packet.size(),
                                    kMaxUdpPayload, &stats, ctx);
    EXPECT_EQ(cold.wire, warm.wire);
    WireQuery echoed;
    ASSERT_TRUE(ParseWireResponse(warm.wire, &echoed).ok());
    EXPECT_FALSE(echoed.edns.present) << "a plain client must not be served an OPT";
  }
}

// ---- Loopback integration ------------------------------------------------

#define START_OR_SKIP(server, config, zone)                                       \
  std::unique_ptr<DnsServer> server;                                              \
  {                                                                               \
    Result<std::unique_ptr<DnsServer>> started = DnsServer::Start(config, zone);  \
    if (!started.ok()) {                                                          \
      GTEST_SKIP() << "cannot bind loopback sockets: " << started.error();        \
    }                                                                             \
    server = std::move(started).value();                                          \
  }

std::vector<uint8_t> UdpExchange(uint16_t port, const std::vector<uint8_t>& request) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return {};
  }
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ::sendto(fd, request.data(), request.size(), 0, reinterpret_cast<sockaddr*>(&addr),
           sizeof(addr));
  uint8_t buffer[65536];
  ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  ::close(fd);
  if (n <= 0) {
    return {};
  }
  return std::vector<uint8_t>(buffer, buffer + n);
}

// ISSUE 9 satellite: the 0x20 regression. A mixed-case client must get the
// engine's (case-insensitive) answer with its own casing echoed in the
// question — cold and from the cache alike.
TEST(DnsServerCacheTest, MixedCaseLoopbackEchoesClientCasing) {
  ServerConfig config;
  config.port = 0;
  config.udp_workers = 1;
  START_OR_SKIP(server, config, KitchenSinkZone());

  auto reference = MakeShard(KitchenSinkZone());
  WireQuery mixed = FlipCase(MakeQuery("www.example.com", RrType::kA, 0x5A5A));
  std::vector<uint8_t> request = EncodeWireQuery(mixed);

  // Twice: the first serve fills the cache, the second must hit it. Both
  // must equal the engine-side reference encoding for the mixed-case query.
  std::vector<uint8_t> expected = ReferenceBytes(reference.get(), mixed, kMaxUdpPayload);
  std::vector<uint8_t> first = UdpExchange(server->udp_port(), request);
  ASSERT_FALSE(first.empty()) << "no UDP reply";
  EXPECT_EQ(first, expected);
  std::vector<uint8_t> second = UdpExchange(server->udp_port(), request);
  ASSERT_FALSE(second.empty()) << "no UDP reply";
  EXPECT_EQ(second, expected);

  // The answer really is the case-insensitive lookup's answer (an A record,
  // NOERROR), not an NXDOMAIN for the funny-cased name.
  WireQuery echoed;
  Result<ResponseView> view = ParseWireResponse(second, &echoed);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_EQ(view.value().rcode, Rcode::kNoError);
  EXPECT_EQ(echoed.qname, mixed.qname) << "question must carry the client's casing";
  EXPECT_GE(server->Stats().cache_hits, 1u);
}

// Four workers share one cache: whoever misses fills it, everyone else must
// serve the exact same bytes for the same question. The kernel spreads the
// per-query sockets across SO_REUSEPORT workers, so with 64 exchanges all
// workers participate with high probability.
TEST(DnsServerCacheTest, FourWorkersShareOneConsistentCache) {
  ServerConfig config;
  config.port = 0;
  config.udp_workers = 4;
  START_OR_SKIP(server, config, KitchenSinkZone());

  auto reference = MakeShard(KitchenSinkZone());
  const char* names[] = {"www.example.com", "chain.example.com", "mail.example.com",
                         "a.dyn.example.com"};
  for (int round = 0; round < 16; ++round) {
    for (const char* name : names) {
      uint16_t id = static_cast<uint16_t>(0x4000 + round * 8 + (name[0] & 7));
      WireQuery query = MakeQuery(name, RrType::kA, id);
      if (round % 2 == 1) {
        query = FlipCase(query);
      }
      std::vector<uint8_t> reply = UdpExchange(server->udp_port(), EncodeWireQuery(query));
      ASSERT_FALSE(reply.empty()) << "no UDP reply for " << name << " round " << round;
      EXPECT_EQ(reply, ReferenceBytes(reference.get(), query, kMaxUdpPayload))
          << name << " round " << round;
    }
  }
  StatsSnapshot stats = server->Stats();
  EXPECT_GT(stats.cache_hits, 0u);
  // Every served query either hit or missed the cache — the counters, fed
  // by four workers concurrently, must balance the query count exactly.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries());
}

// Reload under load: after Reload() returns, no response may ever again
// carry the old zone's answer — the generation stamp makes every pre-reload
// cache entry invisible, with no sweep.
TEST(DnsServerCacheTest, ReloadInvalidatesWarmCacheImmediately) {
  Result<ZoneConfig> old_zone = ParseZoneText(
      "$ORIGIN example.com.\n"
      "@    SOA  ns1 1\n"
      "@    NS   ns1.example.com.\n"
      "www  A    10.0.0.1\n");
  ASSERT_TRUE(old_zone.ok()) << old_zone.error();
  Result<ZoneConfig> new_zone = ParseZoneText(
      "$ORIGIN example.com.\n"
      "@    SOA  ns1 2\n"
      "@    NS   ns1.example.com.\n"
      "www  A    10.0.0.2\n");
  ASSERT_TRUE(new_zone.ok()) << new_zone.error();

  ServerConfig config;
  config.port = 0;
  config.udp_workers = 2;
  START_OR_SKIP(server, config, old_zone.value());

  WireQuery query = MakeQuery("www.example.com", RrType::kA, 0x7777);
  std::vector<uint8_t> request = EncodeWireQuery(query);
  auto old_reference = MakeShard(old_zone.value());
  auto new_reference = MakeShard(new_zone.value());
  std::vector<uint8_t> old_bytes = ReferenceBytes(old_reference.get(), query, kMaxUdpPayload);
  std::vector<uint8_t> new_bytes = ReferenceBytes(new_reference.get(), query, kMaxUdpPayload);
  ASSERT_NE(old_bytes, new_bytes);

  // Warm the cache on the old zone.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(UdpExchange(server->udp_port(), request), old_bytes) << "warmup " << i;
  }
  EXPECT_GT(server->Stats().cache_hits, 0u);

  ASSERT_TRUE(server->Reload(new_zone.value()).ok());
  EXPECT_EQ(server->generation(), 2u);

  // Every post-reload response must be the new zone's bytes: a worker
  // refreshes its shard (and with it the generation it presents to the
  // cache) before serving each packet, so the warm gen-1 entry can never
  // satisfy a gen-2 lookup.
  for (int i = 0; i < 32; ++i) {
    std::vector<uint8_t> reply = UdpExchange(server->udp_port(), request);
    ASSERT_FALSE(reply.empty()) << "no UDP reply after reload";
    EXPECT_EQ(reply, new_bytes) << "stale pre-reload answer served on query " << i;
  }
  StatsSnapshot stats = server->Stats();
  EXPECT_GE(stats.cache_stale, 1u) << "the warm entry must have been seen and erased";
  EXPECT_GT(stats.cache_hits, 0u);
}

// A cache-off server (cache_entries = 0) serves identically and reports
// all-zero cache counters — the flag really disables the subsystem.
TEST(DnsServerCacheTest, CacheOffServesIdenticallyWithZeroCounters) {
  ServerConfig config;
  config.port = 0;
  config.udp_workers = 1;
  config.cache_entries = 0;
  START_OR_SKIP(server, config, KitchenSinkZone());

  auto reference = MakeShard(KitchenSinkZone());
  WireQuery query = MakeQuery("www.example.com", RrType::kA, 0x2468);
  std::vector<uint8_t> request = EncodeWireQuery(query);
  std::vector<uint8_t> expected = ReferenceBytes(reference.get(), query, kMaxUdpPayload);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(UdpExchange(server->udp_port(), request), expected);
  }
  StatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_inserts, 0u);
}

}  // namespace
}  // namespace dnsv
