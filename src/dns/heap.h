// Control plane: materializes a canonical ZoneConfig into concrete memory as
// (a) the engine's in-heap domain tree and (b) the specification's flat RR
// list (paper §6.5). Struct layouts are resolved by field *name* against the
// compiled engine's TypeTable, so the C++ side cannot silently diverge from
// the MiniGo struct declarations.
#ifndef DNSV_DNS_HEAP_H_
#define DNSV_DNS_HEAP_H_

#include <optional>
#include <string>
#include <vector>

#include "src/dns/name.h"
#include "src/dns/zone.h"
#include "src/interp/value.h"
#include "src/ir/type.h"
#include "src/support/status.h"

namespace dnsv {

// Engine-facing struct names (declared in src/engine/mg/types.mg).
inline constexpr char kStructRr[] = "RR";
inline constexpr char kStructRrSet[] = "RRSet";
inline constexpr char kStructTreeNode[] = "TreeNode";
inline constexpr char kStructResponse[] = "Response";

struct HeapImage {
  Value apex_ptr;       // *TreeNode — the engine's entry argument
  Value zone_rrs;       // []RR — the specification's entry argument
  Value origin_labels;  // []int — reversed interned origin labels
  int num_tree_nodes = 0;
};

// Field-index map for one struct, resolved once per TypeTable.
class StructLayout {
 public:
  StructLayout(const TypeTable& types, const std::string& struct_name);
  int index(const std::string& field) const;
  Type type() const { return type_; }
  size_t num_fields() const { return num_fields_; }

 private:
  Type type_;
  size_t num_fields_;
  std::vector<std::pair<std::string, int>> fields_;
};

// Verifies that the compiled engine module declares the four contract structs
// with the fields the control plane expects.
Status ValidateEngineLayout(const TypeTable& types);

// Builds the heap image for `zone` (which must already be canonical).
HeapImage BuildHeapImage(const ZoneConfig& zone, LabelInterner* interner,
                         const TypeTable& types, ConcreteMemory* memory);

// --- response decoding (for examples, tests, and counterexample reports) ---

struct RrView {
  std::string name;
  RrType type = RrType::kA;
  int64_t rdata_value = 0;
  std::string rdata_name;  // empty when the type has no name-valued rdata

  std::string ToString() const;
  bool operator==(const RrView& other) const = default;
};

struct ResponseView {
  Rcode rcode = Rcode::kNoError;
  bool aa = false;
  std::vector<RrView> answer;
  std::vector<RrView> authority;
  std::vector<RrView> additional;

  std::string ToString() const;
  bool operator==(const ResponseView& other) const = default;
};

// `response` is either a *Response pointer into `memory` or a Response struct
// value.
ResponseView DecodeResponse(const Value& response, const ConcreteMemory& memory,
                            const LabelInterner& interner, const TypeTable& types);

// The serving hot path decodes one response per query; resolving the struct
// layouts and field indices by name each time is measurable once the engine
// itself runs at compiled-backend speed. A ResponseDecoder does the name
// resolution once and is then reusable for every query against the same
// TypeTable + interner (both must outlive the decoder). DecodeResponse above
// is the one-shot convenience wrapper.
class ResponseDecoder {
 public:
  ResponseDecoder(const TypeTable& types, const LabelInterner& interner);

  ResponseView Decode(const Value& response, const ConcreteMemory& memory) const;

 private:
  const LabelInterner& interner_;
  StructLayout response_layout_;
  StructLayout rr_layout_;
  int f_rcode_, f_flags_, f_answer_, f_authority_, f_additional_;
  int f_rname_, f_rtype_, f_rdata_int_, f_rdata_name_;
};

// Builds the engine-order []int value for a query name, or nullopt when a
// label finds no free code between its neighbours (LabelInterner::TryIntern).
std::optional<Value> QnameValue(const DnsName& name, LabelInterner* interner);

}  // namespace dnsv

#endif  // DNSV_DNS_HEAP_H_
