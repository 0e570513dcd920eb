// Host-side domain names and the order-preserving label interner.
//
// The engine (MiniGo side) represents a name as a []int of interned labels in
// reversed (root-first) order, per the paper's §6.3 encoding: every label
// (<= 63 bytes) maps to an integer such that integer order equals
// lexicographic label order. The interner preserves that invariant under
// on-demand insertion by assigning midpoints between neighbors.
#ifndef DNSV_DNS_NAME_H_
#define DNSV_DNS_NAME_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/support/status.h"

namespace dnsv {

inline constexpr char kWildcardLabel[] = "*";

// A domain name in host order: labels[0] is the leftmost label, so
// "www.example.com" is {"www", "example", "com"}. Names are stored lowercase
// (DNS comparisons are case-insensitive).
struct DnsName {
  std::vector<std::string> labels;

  static Result<DnsName> Parse(const std::string& text);
  std::string ToString() const;

  bool Empty() const { return labels.empty(); }
  size_t NumLabels() const { return labels.size(); }

  // True when `this` ends with `suffix` (is equal to or inside that domain).
  bool IsSubdomainOf(const DnsName& suffix) const;
  bool operator==(const DnsName& other) const { return labels == other.labels; }
  bool operator!=(const DnsName& other) const { return !(*this == other); }

  // Labels in root-first order ("com", "example", "www") — the engine layout.
  std::vector<std::string> ReversedLabels() const;
};

// Assigns integers to labels such that label order (bytewise, lowercase)
// matches integer order, even when labels are interned incrementally: a new
// label receives the midpoint of its lexicographic neighbors' codes.
class LabelInterner {
 public:
  LabelInterner();

  // Returns the code for `label`, interning it if needed.
  int64_t Intern(const std::string& label);
  // Like Intern, but returns nullopt instead of aborting when the label's
  // interned neighbours leave no code between them. Each new label halves
  // the gap it lands in, so ~60 labels chosen to nest into one gap (one
  // qname can carry 84 of them) exhaust it.
  std::optional<int64_t> TryIntern(const std::string& label);

  // Reverse lookup; returns "<label#code>" for unknown codes (these appear
  // when a solver model picks an integer strictly between interned labels).
  std::string Decode(int64_t code) const;

  // Like Decode, but synthesizes a readable label at the right lexicographic
  // position for unknown codes (e.g. "cs0" for a code just above "cs").
  // Display-only: two distinct codes may synthesize the same string.
  std::string DecodeApprox(int64_t code) const;

  // Lowest/highest codes that any real label may take; symbolic qname labels
  // are constrained into this range.
  int64_t min_code() const { return kMinCode; }
  int64_t max_code() const { return kMaxCode; }

  // Interns every label of `name`, returning engine-order (reversed) codes.
  std::vector<int64_t> InternName(const DnsName& name);

  size_t size() const { return by_label_.size(); }

  // Forgets the most recently interned labels until size() == `size`, so
  // the next Intern of any of them assigns exactly the code a fresh
  // interner in the earlier state would. The serving path uses it to make
  // query labels query-scoped (AuthoritativeServer::RunLookup): a long-lived
  // shard's code space then never fills up, however many distinct labels
  // its clients send. No code of a forgotten label may still be in use.
  void TruncateTo(size_t size);

  // Fixed code for the wildcard label "*" (mirrored by LABEL_STAR in the
  // engine's types.mg).
  static constexpr int64_t kWildcardCode = 2;

 private:
  static constexpr int64_t kMinCode = 1;
  static constexpr int64_t kMaxCode = int64_t{1} << 60;

  std::map<std::string, int64_t> by_label_;  // ordered: neighbor lookup
  std::unordered_map<int64_t, std::string> by_code_;
  // Codes of every Intern-added label in insertion order, for TruncateTo.
  std::vector<int64_t> added_;
};

}  // namespace dnsv

#endif  // DNSV_DNS_NAME_H_
