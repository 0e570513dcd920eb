#include "src/dns/heap.h"

#include <algorithm>
#include <map>
#include <memory>

#include "src/support/strings.h"

namespace dnsv {
namespace {

// In-memory tree node used while assembling the domain tree, before
// allocation into ConcreteMemory.
struct BuildNode {
  int64_t label_code = 0;
  std::string label;
  std::map<int64_t, std::unique_ptr<BuildNode>> children;  // by label code
  std::vector<const ZoneRecord*> records;                  // canonical order
};

Value MakeLabelList(const std::vector<int64_t>& codes) {
  std::vector<Value> elems;
  elems.reserve(codes.size());
  for (int64_t code : codes) {
    elems.push_back(Value::Int(code));
  }
  return Value::List(std::move(elems));
}

}  // namespace

StructLayout::StructLayout(const TypeTable& types, const std::string& struct_name)
    : type_(types.StructType(struct_name)) {
  const StructDef& def = types.GetStruct(struct_name);
  num_fields_ = def.fields.size();
  for (size_t i = 0; i < def.fields.size(); ++i) {
    fields_.emplace_back(def.fields[i].name, static_cast<int>(i));
  }
}

int StructLayout::index(const std::string& field) const {
  for (const auto& [name, index] : fields_) {
    if (name == field) {
      return index;
    }
  }
  DNSV_CHECK_MSG(false, "engine layout: missing field " + field);
  return -1;
}

Status ValidateEngineLayout(const TypeTable& types) {
  struct FieldSpec {
    const char* struct_name;
    std::vector<const char*> fields;
  };
  const FieldSpec specs[] = {
      {kStructRr, {"rname", "rtype", "rdataInt", "rdataName"}},
      {kStructRrSet, {"rtype", "rrs"}},
      {kStructTreeNode, {"label", "left", "right", "down", "rrsets"}},
      {kStructResponse, {"rcode", "flags", "answer", "authority", "additional"}},
  };
  for (const FieldSpec& spec : specs) {
    if (!types.IsStructDefined(spec.struct_name)) {
      return Status::Error(StrCat("engine does not define struct ", spec.struct_name));
    }
    const StructDef& def = types.GetStruct(spec.struct_name);
    for (const char* field : spec.fields) {
      if (def.FieldIndex(field) < 0) {
        return Status::Error(StrCat("engine struct ", spec.struct_name, " lacks field ", field));
      }
    }
  }
  return Status::Ok();
}

namespace {

class HeapBuilder {
 public:
  HeapBuilder(const ZoneConfig& zone, LabelInterner* interner, const TypeTable& types,
              ConcreteMemory* memory)
      : zone_(zone),
        interner_(interner),
        types_(types),
        memory_(memory),
        rr_layout_(types, kStructRr),
        rrset_layout_(types, kStructRrSet),
        node_layout_(types, kStructTreeNode) {}

  HeapImage Build() {
    HeapImage image;
    image.origin_labels = MakeLabelList(interner_->InternName(zone_.origin));

    // Flat spec list, canonical order.
    std::vector<Value> flat;
    flat.reserve(zone_.records.size());
    for (const ZoneRecord& record : zone_.records) {
      flat.push_back(MakeRr(record));
    }
    image.zone_rrs = Value::List(std::move(flat));

    // Domain tree. The apex BuildNode represents the origin itself; records
    // are attached at their relative label paths (root-first).
    BuildNode apex;
    apex.label = zone_.origin.labels.empty() ? "" : zone_.origin.labels[0];
    apex.label_code = interner_->Intern(apex.label);
    for (const ZoneRecord& record : zone_.records) {
      BuildNode* node = &apex;
      const auto& labels = record.name.labels;
      size_t relative = labels.size() - zone_.origin.labels.size();
      // Walk root-first through the relative labels.
      for (size_t i = relative; i > 0; --i) {
        const std::string& label = labels[i - 1];
        int64_t code = interner_->Intern(label);
        auto [it, inserted] = node->children.try_emplace(code);
        if (inserted) {
          it->second = std::make_unique<BuildNode>();
          it->second->label_code = code;
          it->second->label = label;
        }
        node = it->second.get();
      }
      node->records.push_back(&record);
    }
    image.apex_ptr = AllocNode(apex);
    image.num_tree_nodes = num_nodes_;
    return image;
  }

 private:
  Value MakeRr(const ZoneRecord& record) {
    std::vector<Value> fields(rr_layout_.num_fields());
    fields[rr_layout_.index("rname")] = MakeLabelList(interner_->InternName(record.name));
    fields[rr_layout_.index("rtype")] = Value::Int(static_cast<int64_t>(record.type));
    fields[rr_layout_.index("rdataInt")] = Value::Int(record.rdata.value);
    fields[rr_layout_.index("rdataName")] =
        MakeLabelList(interner_->InternName(record.rdata.name));
    return Value::Struct(std::move(fields));
  }

  // Allocates `node` (and its subtree) into memory; returns a *TreeNode value.
  Value AllocNode(const BuildNode& node) {
    ++num_nodes_;
    // Children become a balanced BST ordered by label code.
    std::vector<const BuildNode*> ordered;
    ordered.reserve(node.children.size());
    for (const auto& [code, child] : node.children) {
      ordered.push_back(child.get());
    }
    Value down = BuildBst(ordered, 0, ordered.size());

    // RRsets: group this node's records by type, first-appearance order.
    std::vector<Value> rrsets;
    std::vector<RrType> type_order;
    for (const ZoneRecord* record : node.records) {
      if (std::find(type_order.begin(), type_order.end(), record->type) == type_order.end()) {
        type_order.push_back(record->type);
      }
    }
    for (RrType type : type_order) {
      std::vector<Value> rrs;
      for (const ZoneRecord* record : node.records) {
        if (record->type == type) {
          rrs.push_back(MakeRr(*record));
        }
      }
      std::vector<Value> set_fields(rrset_layout_.num_fields());
      set_fields[rrset_layout_.index("rtype")] = Value::Int(static_cast<int64_t>(type));
      set_fields[rrset_layout_.index("rrs")] = Value::List(std::move(rrs));
      rrsets.push_back(Value::Struct(std::move(set_fields)));
    }

    std::vector<Value> fields(node_layout_.num_fields());
    fields[node_layout_.index("label")] = Value::Int(node.label_code);
    fields[node_layout_.index("left")] = Value::NullPtr();
    fields[node_layout_.index("right")] = Value::NullPtr();
    fields[node_layout_.index("down")] = down;
    fields[node_layout_.index("rrsets")] = Value::List(std::move(rrsets));
    BlockIndex block = memory_->Alloc(Value::Struct(std::move(fields)));
    return Value::Ptr(block);
  }

  // Builds a balanced BST from children sorted by label code; left/right
  // pointers are patched after allocation.
  Value BuildBst(const std::vector<const BuildNode*>& ordered, size_t begin, size_t end) {
    if (begin >= end) {
      return Value::NullPtr();
    }
    size_t mid = begin + (end - begin) / 2;
    Value root = AllocNode(*ordered[mid]);
    Value left = BuildBst(ordered, begin, mid);
    Value right = BuildBst(ordered, mid + 1, end);
    Value* root_value = memory_->Resolve(root.block, {});
    DNSV_CHECK(root_value != nullptr);
    root_value->elems[static_cast<size_t>(node_layout_.index("left"))] = left;
    root_value->elems[static_cast<size_t>(node_layout_.index("right"))] = right;
    return root;
  }

  const ZoneConfig& zone_;
  LabelInterner* interner_;
  const TypeTable& types_;
  ConcreteMemory* memory_;
  StructLayout rr_layout_;
  StructLayout rrset_layout_;
  StructLayout node_layout_;
  int num_nodes_ = 0;
};

std::string DecodeName(const Value& labels, const LabelInterner& interner) {
  // Engine order is root-first; display order is host order. Built in one
  // string — this runs per RR on the serving path.
  if (labels.elems.empty()) {
    return ".";
  }
  std::string out;
  for (auto it = labels.elems.rbegin(); it != labels.elems.rend(); ++it) {
    if (!out.empty()) {
      out += '.';
    }
    out += interner.Decode(it->i);
  }
  return out;
}

}  // namespace

HeapImage BuildHeapImage(const ZoneConfig& zone, LabelInterner* interner,
                         const TypeTable& types, ConcreteMemory* memory) {
  DNSV_CHECK_MSG(ValidateEngineLayout(types).ok(), "engine layout mismatch");
  HeapBuilder builder(zone, interner, types, memory);
  return builder.Build();
}

std::string RrView::ToString() const {
  std::string rdata;
  switch (type) {
    case RrType::kA:
      rdata = FormatIpv4(rdata_value);
      break;
    case RrType::kNs:
    case RrType::kCname:
      rdata = rdata_name;
      break;
    case RrType::kMx:
    case RrType::kSoa:
      rdata = StrCat(rdata_value, " ", rdata_name);
      break;
    default:
      rdata = StrCat(rdata_value);
      break;
  }
  return StrCat(name, " ", RrTypeName(type), " ", rdata);
}

std::string ResponseView::ToString() const {
  std::string out = StrCat("rcode=", RcodeName(rcode), " aa=", aa ? 1 : 0, "\n");
  auto section = [&](const char* title, const std::vector<RrView>& rrs) {
    out += StrCat(";; ", title, " (", rrs.size(), ")\n");
    for (const RrView& rr : rrs) {
      out += "  " + rr.ToString() + "\n";
    }
  };
  section("ANSWER", answer);
  section("AUTHORITY", authority);
  section("ADDITIONAL", additional);
  return out;
}

ResponseDecoder::ResponseDecoder(const TypeTable& types, const LabelInterner& interner)
    : interner_(interner),
      response_layout_(types, kStructResponse),
      rr_layout_(types, kStructRr),
      f_rcode_(response_layout_.index("rcode")),
      f_flags_(response_layout_.index("flags")),
      f_answer_(response_layout_.index("answer")),
      f_authority_(response_layout_.index("authority")),
      f_additional_(response_layout_.index("additional")),
      f_rname_(rr_layout_.index("rname")),
      f_rtype_(rr_layout_.index("rtype")),
      f_rdata_int_(rr_layout_.index("rdataInt")),
      f_rdata_name_(rr_layout_.index("rdataName")) {}

ResponseView ResponseDecoder::Decode(const Value& response,
                                     const ConcreteMemory& memory) const {
  const Value* resp = &response;
  if (response.kind == Value::Kind::kPtr) {
    resp = memory.Resolve(response.block, response.path);
    DNSV_CHECK_MSG(resp != nullptr, "response pointer does not resolve");
  }
  DNSV_CHECK(resp->kind == Value::Kind::kStruct);
  ResponseView view;
  view.rcode = static_cast<Rcode>(resp->elems[f_rcode_].i);
  view.aa = (resp->elems[f_flags_].i & kFlagAa) != 0;
  auto decode_section = [&](int field) {
    std::vector<RrView> rrs;
    const std::vector<Value>& section = resp->elems[field].elems;
    rrs.reserve(section.size());
    for (const Value& rr : section) {
      RrView item;
      item.name = DecodeName(rr.elems[f_rname_], interner_);
      item.type = static_cast<RrType>(rr.elems[f_rtype_].i);
      item.rdata_value = rr.elems[f_rdata_int_].i;
      const Value& rdata_name = rr.elems[f_rdata_name_];
      item.rdata_name = rdata_name.elems.empty() ? "" : DecodeName(rdata_name, interner_);
      rrs.push_back(std::move(item));
    }
    return rrs;
  };
  view.answer = decode_section(f_answer_);
  view.authority = decode_section(f_authority_);
  view.additional = decode_section(f_additional_);
  return view;
}

ResponseView DecodeResponse(const Value& response, const ConcreteMemory& memory,
                            const LabelInterner& interner, const TypeTable& types) {
  return ResponseDecoder(types, interner).Decode(response, memory);
}

std::optional<Value> QnameValue(const DnsName& name, LabelInterner* interner) {
  std::vector<int64_t> codes;
  codes.reserve(name.labels.size());
  for (auto it = name.labels.rbegin(); it != name.labels.rend(); ++it) {
    std::optional<int64_t> code = interner->TryIntern(*it);
    if (!code.has_value()) {
      return std::nullopt;
    }
    codes.push_back(*code);
  }
  return MakeLabelList(codes);
}

}  // namespace dnsv
