// Front-end response packet cache (docs/SERVER.md §9).
//
// Most authoritative traffic is a small set of hot names, so the serving
// shell answers repeats without touching the verified engine at all: a
// mutex-sharded map from (case-folded wire qname, qtype, qclass, RD bit,
// effective payload limit, EDNS presence + DO bit) to the full encoded
// response. A hit splices the client's ID and the client's original qname
// casing into a copy of the cached wire bytes — no re-encoding, no engine
// run; the trailing OPT echo (when present) is identical for every client
// sharing a key, so the splice never has to touch it. The design follows
// dnsdist's packet cache (sharded hash map, TTL expiry, ID/name splice-back).
//
// The cache lives entirely outside the verified engine, so its correctness
// is established the same way the compiled backend's was: a differential
// harness (tests/server/cache_test.cc) replays fuzz-generated query streams
// cold vs. warm over all six engine versions and asserts byte-identical
// responses, including across a mid-stream zone reload.
//
// Invalidation is generation-keyed: every entry carries the zone-snapshot
// generation it was computed under, and a hit whose generation differs from
// the caller's current generation is treated as a miss (and erased). A hot
// zone reload therefore invalidates the entire cache for free through the
// existing SnapshotHolder counter — no sweep, no lock on the reload path.
//
// Never cached: truncated (TC=1) responses (they depend on the transport's
// retry contract), error-path responses (FORMERR, NOTIMP, SERVFAIL — both
// the engine-panic downgrade and the header-only fallback), and responses
// whose minimum record TTL is zero or that carry no records at all.
#ifndef DNSV_SERVER_CACHE_H_
#define DNSV_SERVER_CACHE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dns/wire.h"
#include "src/server/stats.h"

namespace dnsv {

// The lookup/insert key plus the splice material, both derived from one pass
// over the parsed query. `key` folds the qname to lowercase so 0x20
// case-randomized repeats share an entry; `qname_wire` keeps the client's
// original casing in uncompressed wire form for the splice-back (the
// response question section must echo the client's bytes, RFC 1035 §4.1.1
// — pinned by tests/server/cache_test.cc's mixed-case regressions).
struct CacheKey {
  std::string key;
  std::vector<uint8_t> qname_wire;  // length-prefixed labels + root, client casing
};

// Builds the cache key for `query` served at `max_payload`. Returns false
// (caller bypasses the cache) when the qname does not fit the wire limits —
// such queries end on the uncacheable SERVFAIL fallback path anyway.
bool BuildCacheKey(const WireQuery& query, size_t max_payload, CacheKey* out);

// Minimum TTL across every data record of an encoded response, or 0 when
// the packet carries no data records or does not have the canonical encoder
// shape. OPT pseudo-records are excluded: their TTL field holds EDNS flags,
// not a lifetime (RFC 6891 §6.1.3), and counting it would make every EDNS
// response uncacheable. 0 means "do not cache".
uint32_t MinimumResponseTtl(const std::vector<uint8_t>& wire);

class PacketCache {
 public:
  using Clock = std::chrono::steady_clock;
  // The clock is injectable so TTL expiry is testable without sleeping; the
  // default is the steady clock the serving loops already use.
  using ClockFn = std::function<Clock::time_point()>;

  // `max_entries` is the total capacity across all shards (>= 1). The shard
  // count is a power of two so the shard pick is a mask of the key hash.
  explicit PacketCache(size_t max_entries, ClockFn clock = nullptr);

  // Looks up `key` under `generation`. On a hit, fills `response` with a
  // copy of the cached wire bytes with `client_id` and the client's qname
  // casing (key.qname_wire) spliced in, bumps cache_hits, and returns true.
  // Entries that expired or were stamped under a different generation are
  // erased and counted as cache_stale + cache_misses.
  bool Lookup(const CacheKey& key, uint64_t generation, uint16_t client_id,
              std::vector<uint8_t>* response, ServerStats* stats);

  // Stores `wire` (the full encoded response) for `key` under `generation`,
  // expiring `ttl_seconds` from now. The caller has already established
  // cacheability (rcode, TC, TTL > 0). A full shard evicts an expired or
  // stale entry when one is found in a bounded probe, else a random one.
  void Insert(const CacheKey& key, uint64_t generation, uint32_t ttl_seconds,
              const std::vector<uint8_t>& wire, ServerStats* stats);

  // Entries currently resident across all shards (expired entries linger
  // until a lookup or eviction touches them — by design, like dnsdist).
  size_t size() const;

  size_t max_entries() const { return max_entries_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    std::vector<uint8_t> wire;
    uint64_t generation = 0;
    Clock::time_point expiry{};
  };
  using EntryMap = std::unordered_map<std::string, Entry>;
  struct alignas(64) Shard {
    mutable std::mutex mu;
    EntryMap entries;
  };

  Shard& ShardFor(const std::string& key);
  // The entry a full shard gives up for `incoming`: a dead entry when the
  // bounded probe finds one, else a random live one.
  static EntryMap::iterator PickVictim(EntryMap* entries, const std::string& incoming,
                                       uint64_t generation, Clock::time_point now);

  size_t max_entries_;
  size_t per_shard_capacity_;
  ClockFn clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dnsv

#endif  // DNSV_SERVER_CACHE_H_
