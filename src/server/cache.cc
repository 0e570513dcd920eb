#include "src/server/cache.h"

#include <cstring>

#include "src/support/logging.h"

namespace dnsv {
namespace {

constexpr size_t kHeaderSize = 12;
constexpr size_t kMaxNameWireBytes = 255;  // RFC 1035 §2.3.4

uint64_t Fnv1a64(const std::string& data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

char FoldCase(char c) { return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c; }

// Advances `pos` past one encoded name. Returns false on malformed input.
// The encoder only emits uncompressed names, but the walker tolerates a
// compression pointer (two bytes, terminal) so a non-canonical packet reads
// as "uncacheable" instead of tripping the bounds checks.
bool SkipName(const std::vector<uint8_t>& wire, size_t* pos) {
  while (true) {
    if (*pos >= wire.size()) {
      return false;
    }
    uint8_t len = wire[*pos];
    if (len == 0) {
      ++*pos;
      return true;
    }
    if ((len & 0xC0) == 0xC0) {
      *pos += 2;
      return *pos <= wire.size();
    }
    if ((len & 0xC0) != 0 || *pos + 1 + len > wire.size()) {
      return false;
    }
    *pos += 1 + static_cast<size_t>(len);
  }
}

bool ReadU16(const std::vector<uint8_t>& wire, size_t* pos, uint16_t* value) {
  if (*pos + 2 > wire.size()) {
    return false;
  }
  *value = static_cast<uint16_t>(wire[*pos] << 8 | wire[*pos + 1]);
  *pos += 2;
  return true;
}

bool ReadU32(const std::vector<uint8_t>& wire, size_t* pos, uint32_t* value) {
  uint16_t hi = 0, lo = 0;
  if (!ReadU16(wire, pos, &hi) || !ReadU16(wire, pos, &lo)) {
    return false;
  }
  *value = static_cast<uint32_t>(hi) << 16 | lo;
  return true;
}

size_t NextPowerOfTwo(size_t value) {
  size_t power = 1;
  while (power < value) {
    power <<= 1;
  }
  return power;
}

}  // namespace

bool BuildCacheKey(const WireQuery& query, size_t max_payload, CacheKey* out) {
  // A qname over the 255-byte wire limit cannot be answered (it ends on the
  // header-only SERVFAIL fallback), so it is never worth a cache slot.
  size_t wire_bytes = 1;
  for (const std::string& label : query.qname.labels) {
    if (label.empty() || label.size() > 63) {
      return false;
    }
    wire_bytes += 1 + label.size();
  }
  if (wire_bytes > kMaxNameWireBytes) {
    return false;
  }

  out->qname_wire.clear();
  out->qname_wire.reserve(wire_bytes);
  out->key.clear();
  out->key.reserve(wire_bytes + 10);
  for (const std::string& label : query.qname.labels) {
    out->qname_wire.push_back(static_cast<uint8_t>(label.size()));
    out->key.push_back(static_cast<char>(label.size()));
    for (char c : label) {
      out->qname_wire.push_back(static_cast<uint8_t>(c));
      out->key.push_back(FoldCase(c));  // case-insensitive per RFC 1035 §2.3.3
    }
  }
  out->qname_wire.push_back(0);
  out->key.push_back('\0');
  // qtype, qclass, and the RD bit are all echoed into the response, and the
  // payload limit decides truncation — distinct values must never share an
  // entry, so all four are part of the key.
  uint16_t qtype = static_cast<uint16_t>(query.qtype);
  out->key.push_back(static_cast<char>(qtype >> 8));
  out->key.push_back(static_cast<char>(qtype & 0xff));
  out->key.push_back(static_cast<char>(query.qclass >> 8));
  out->key.push_back(static_cast<char>(query.qclass & 0xff));
  out->key.push_back(query.recursion_desired ? '\1' : '\0');
  uint32_t limit = static_cast<uint32_t>(max_payload > 0xffffffff ? 0xffffffff : max_payload);
  for (int shift = 24; shift >= 0; shift -= 8) {
    out->key.push_back(static_cast<char>((limit >> shift) & 0xff));
  }
  // EDNS presence and the DO bit change the response bytes (OPT echo, DO
  // echo) even at the same payload limit — an EDNS and a plain client must
  // not share an entry. The advertised payload itself is already covered by
  // the limit above (EffectivePayloadLimit feeds it).
  out->key.push_back(static_cast<char>((query.edns.present ? 1 : 0) |
                                       (query.edns.dnssec_ok ? 2 : 0)));
  return true;
}

uint32_t MinimumResponseTtl(const std::vector<uint8_t>& wire) {
  if (wire.size() < kHeaderSize) {
    return 0;
  }
  size_t pos = 4;
  uint16_t qdcount = 0, ancount = 0, nscount = 0, arcount = 0;
  if (!ReadU16(wire, &pos, &qdcount) || !ReadU16(wire, &pos, &ancount) ||
      !ReadU16(wire, &pos, &nscount) || !ReadU16(wire, &pos, &arcount)) {
    return 0;
  }
  for (uint16_t q = 0; q < qdcount; ++q) {
    if (!SkipName(wire, &pos) || pos + 4 > wire.size()) {
      return 0;
    }
    pos += 4;  // qtype + qclass
  }
  uint32_t records = static_cast<uint32_t>(ancount) + nscount + arcount;
  uint32_t min_ttl = 0xffffffff;
  uint32_t data_records = 0;
  for (uint32_t r = 0; r < records; ++r) {
    uint16_t type = 0, klass = 0, rdlength = 0;
    uint32_t ttl = 0;
    if (!SkipName(wire, &pos) || !ReadU16(wire, &pos, &type) || !ReadU16(wire, &pos, &klass) ||
        !ReadU32(wire, &pos, &ttl) || !ReadU16(wire, &pos, &rdlength) ||
        pos + rdlength > wire.size()) {
      return 0;
    }
    pos += rdlength;
    if (type == 41) {
      // The OPT pseudo-record's TTL field holds EDNS flags, not a lifetime
      // (RFC 6891 §6.1.3) — folding its ~0 value into the minimum would make
      // every EDNS response uncacheable.
      continue;
    }
    ++data_records;
    if (ttl < min_ttl) {
      min_ttl = ttl;
    }
  }
  if (data_records == 0) {
    return 0;  // nothing to derive an expiry from: uncacheable
  }
  return min_ttl;
}

PacketCache::PacketCache(size_t max_entries, ClockFn clock)
    : max_entries_(max_entries < 1 ? 1 : max_entries),
      clock_(clock ? std::move(clock) : [] { return Clock::now(); }) {
  // Power-of-two shard count so the shard pick is `hash & mask`; capped so a
  // small cache still gives every shard a useful capacity.
  size_t shards = NextPowerOfTwo(max_entries_ / 64 + 1);
  if (shards > 64) {
    shards = 64;
  }
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  per_shard_capacity_ = (max_entries_ + shards - 1) / shards;
}

PacketCache::Shard& PacketCache::ShardFor(const std::string& key) {
  return *shards_[Fnv1a64(key) & (shards_.size() - 1)];
}

bool PacketCache::Lookup(const CacheKey& key, uint64_t generation, uint16_t client_id,
                         std::vector<uint8_t>* response, ServerStats* stats) {
  Shard& shard = ShardFor(key.key);
  Clock::time_point now = clock_();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key.key);
    if (it != shard.entries.end()) {
      // A generation mismatch means the zone was reloaded since this answer
      // was computed: the entry is dead no matter what its TTL says. This is
      // the whole invalidation story — the reload path never touches the
      // cache, it just bumps the counter every entry is stamped with.
      if (it->second.generation != generation || now >= it->second.expiry) {
        shard.entries.erase(it);
        if (stats != nullptr) {
          stats->cache_stale.fetch_add(1, std::memory_order_relaxed);
          stats->cache_misses.fetch_add(1, std::memory_order_relaxed);
        }
        return false;
      }
      *response = it->second.wire;  // copied under the lock; spliced outside
    } else {
      if (stats != nullptr) {
        stats->cache_misses.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
  }
  // Splice-back: the cached bytes are the verified encoder's output for the
  // case-folded key; only the ID and the question name's casing are
  // client-specific, and both live at fixed recorded offsets (ID at 0, the
  // qname at 12 — the question always directly follows the header).
  DNSV_CHECK(response->size() >= kHeaderSize + key.qname_wire.size());
  (*response)[0] = static_cast<uint8_t>(client_id >> 8);
  (*response)[1] = static_cast<uint8_t>(client_id & 0xff);
  std::memcpy(response->data() + kHeaderSize, key.qname_wire.data(), key.qname_wire.size());
  if (stats != nullptr) {
    stats->cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

PacketCache::EntryMap::iterator PacketCache::PickVictim(EntryMap* entries,
                                                       const std::string& incoming,
                                                       uint64_t generation,
                                                       Clock::time_point now) {
  // A bounded probe of kVictimProbes entries keeps a full shard O(1) per
  // insert. It prefers an entry that is already dead and otherwise takes the
  // first one probed. The probe starts at the bucket the incoming key hashes
  // to, which makes the victim a random resident (dnsdist's policy). Starting
  // at begin() would not: in libstdc++ that is usually the newest node, so a
  // full cache would keep evicting what it just stored.
  constexpr int kVictimProbes = 8;
  const size_t buckets = entries->bucket_count();
  const size_t start = entries->bucket(incoming);
  const std::string* victim = nullptr;
  int probes = 0;
  for (size_t n = 0; n < buckets && probes < kVictimProbes; ++n) {
    const size_t b = (start + n) % buckets;
    for (auto it = entries->cbegin(b); it != entries->cend(b) && probes < kVictimProbes;
         ++it, ++probes) {
      if (it->second.generation != generation || now >= it->second.expiry) {
        return entries->find(it->first);
      }
      if (victim == nullptr) {
        victim = &it->first;
      }
    }
  }
  DNSV_CHECK(victim != nullptr);  // only called on a full, hence non-empty, shard
  return entries->find(*victim);
}

void PacketCache::Insert(const CacheKey& key, uint64_t generation, uint32_t ttl_seconds,
                         const std::vector<uint8_t>& wire, ServerStats* stats) {
  DNSV_CHECK(wire.size() >= kHeaderSize + key.qname_wire.size());
  Shard& shard = ShardFor(key.key);
  Clock::time_point now = clock_();
  Entry entry;
  entry.wire = wire;
  entry.generation = generation;
  entry.expiry = now + std::chrono::seconds(ttl_seconds);
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key.key);
    if (it != shard.entries.end()) {
      it->second = std::move(entry);  // refresh (e.g. after a reload)
    } else {
      if (shard.entries.size() >= per_shard_capacity_) {
        shard.entries.erase(PickVictim(&shard.entries, key.key, generation, now));
        ++evicted;
      }
      shard.entries.emplace(key.key, std::move(entry));
    }
  }
  if (stats != nullptr) {
    stats->cache_inserts.fetch_add(1, std::memory_order_relaxed);
    if (evicted > 0) {
      stats->cache_evictions.fetch_add(evicted, std::memory_order_relaxed);
    }
  }
}

size_t PacketCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

}  // namespace dnsv
