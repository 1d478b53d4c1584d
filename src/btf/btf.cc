#include "src/btf/btf.h"

#include <algorithm>
#include <functional>

#include "src/util/prng.h"
#include "src/util/str_util.h"

namespace depsurf {

const char* BtfKindName(BtfKind kind) {
  switch (kind) {
    case BtfKind::kVoid:
      return "VOID";
    case BtfKind::kInt:
      return "INT";
    case BtfKind::kPtr:
      return "PTR";
    case BtfKind::kArray:
      return "ARRAY";
    case BtfKind::kStruct:
      return "STRUCT";
    case BtfKind::kUnion:
      return "UNION";
    case BtfKind::kEnum:
      return "ENUM";
    case BtfKind::kFwd:
      return "FWD";
    case BtfKind::kTypedef:
      return "TYPEDEF";
    case BtfKind::kVolatile:
      return "VOLATILE";
    case BtfKind::kConst:
      return "CONST";
    case BtfKind::kRestrict:
      return "RESTRICT";
    case BtfKind::kFunc:
      return "FUNC";
    case BtfKind::kFuncProto:
      return "FUNC_PROTO";
    case BtfKind::kFloat:
      return "FLOAT";
  }
  return "UNKNOWN";
}

TypeGraph::NameIndex::NameIndex(const NameIndex& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  built_ = other.built_;
  entries_ = other.entries_;
}

TypeGraph::NameIndex::NameIndex(NameIndex&& other) noexcept
    : built_(other.built_), entries_(std::move(other.entries_)) {
  other.built_ = false;
  other.entries_.clear();
}

TypeGraph::NameIndex& TypeGraph::NameIndex::operator=(const NameIndex& other) {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    built_ = other.built_;
    entries_ = other.entries_;
  }
  return *this;
}

TypeGraph::NameIndex& TypeGraph::NameIndex::operator=(NameIndex&& other) noexcept {
  if (this != &other) {
    built_ = other.built_;
    entries_ = std::move(other.entries_);
    other.built_ = false;
    other.entries_.clear();
  }
  return *this;
}

const std::vector<TypeGraph::IndexEntry>& TypeGraph::NameIndex::Get(
    const TypeGraph& graph) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!built_) {
    entries_.reserve(graph.types_.size());
    for (uint32_t i = 0; i < graph.types_.size(); ++i) {
      const Record& r = graph.types_[i];
      entries_.push_back(IndexEntry{r.kind, r.name_off, r.name_len, i + 1});
    }
    std::sort(entries_.begin(), entries_.end(),
              [&graph](const IndexEntry& a, const IndexEntry& b) {
                if (a.kind != b.kind) {
                  return a.kind < b.kind;
                }
                int order = graph.NameOf(a.name_off, a.name_len)
                                .compare(graph.NameOf(b.name_off, b.name_len));
                return order != 0 ? order < 0 : a.id < b.id;
              });
    built_ = true;
  }
  return entries_;
}

void TypeGraph::NameIndex::Clear() {
  if (built_) {
    built_ = false;
    entries_.clear();
  }
}

void TypeGraph::AddName(std::string_view name, uint32_t& off, uint32_t& len) {
  len = static_cast<uint32_t>(name.size());
  if (name.empty()) {
    off = 0;
    return;
  }
  // A name viewing this block is already in place; copying it in could
  // reallocate the block out from under it.
  const char* begin = strings_.data();
  if (std::less_equal<const char*>()(begin, name.data()) &&
      std::less<const char*>()(name.data(), begin + strings_.size())) {
    off = static_cast<uint32_t>(name.data() - begin);
    return;
  }
  off = static_cast<uint32_t>(strings_.size());
  strings_.insert(strings_.end(), name.begin(), name.end());
  strings_.push_back('\0');
}

template <typename Spec>
void TypeGraph::AddRun(const std::vector<Spec>& specs, Record& record) {
  record.first_entry = static_cast<uint32_t>(entries_.size());
  record.num_entries = static_cast<uint32_t>(specs.size());
  for (const Spec& spec : specs) {
    BtfEntry entry;
    AddName(spec.name, entry.name_off, entry.name_len);
    if constexpr (std::is_same_v<Spec, BtfMember>) {
      entry.type_or_value = spec.type_id;
      entry.bits_offset = spec.bits_offset;
    } else if constexpr (std::is_same_v<Spec, BtfParam>) {
      entry.type_or_value = spec.type_id;
    } else {
      entry.type_or_value = static_cast<uint32_t>(spec.value);
    }
    entries_.push_back(entry);
  }
}

BtfTypeId TypeGraph::AddRecord(const Record& record) {
  index_.Clear();
  types_.push_back(record);
  return static_cast<BtfTypeId>(types_.size());
}

BtfTypeId TypeGraph::Dedup(uint64_t key, Record record, std::string_view name) {
  auto [it, inserted] = dedup_.try_emplace(key, kBtfVoid);
  if (inserted) {
    AddName(name, record.name_off, record.name_len);
    it->second = AddRecord(record);
  }
  return it->second;
}

BtfTypeId TypeGraph::Int(std::string_view name, uint32_t byte_size) {
  Record r;
  r.kind = BtfKind::kInt;
  r.size = byte_size;
  r.int_bits = static_cast<uint8_t>(byte_size * 8);
  return Dedup(HashCombine({1, HashString(name), byte_size}), r, name);
}

BtfTypeId TypeGraph::Float(std::string_view name, uint32_t byte_size) {
  Record r;
  r.kind = BtfKind::kFloat;
  r.size = byte_size;
  return Dedup(HashCombine({16, HashString(name), byte_size}), r, name);
}

BtfTypeId TypeGraph::Ptr(BtfTypeId to) {
  Record r;
  r.kind = BtfKind::kPtr;
  r.ref_type_id = to;
  return Dedup(HashCombine({2, to}), r, {});
}

BtfTypeId TypeGraph::Const(BtfTypeId of) {
  Record r;
  r.kind = BtfKind::kConst;
  r.ref_type_id = of;
  return Dedup(HashCombine({10, of}), r, {});
}

BtfTypeId TypeGraph::Volatile(BtfTypeId of) {
  Record r;
  r.kind = BtfKind::kVolatile;
  r.ref_type_id = of;
  return Dedup(HashCombine({9, of}), r, {});
}

BtfTypeId TypeGraph::Typedef(std::string_view name, BtfTypeId of) {
  Record r;
  r.kind = BtfKind::kTypedef;
  r.ref_type_id = of;
  return Dedup(HashCombine({8, HashString(name), of}), r, name);
}

BtfTypeId TypeGraph::Array(BtfTypeId element, uint32_t nelems) {
  Record r;
  r.kind = BtfKind::kArray;
  r.ref_type_id = element;
  r.nelems = nelems;
  return Dedup(HashCombine({3, element, nelems}), r, {});
}

BtfTypeId TypeGraph::Fwd(std::string_view name) {
  Record r;
  r.kind = BtfKind::kFwd;
  return Dedup(HashCombine({7, HashString(name)}), r, name);
}

BtfTypeId TypeGraph::Struct(std::string_view name, uint32_t byte_size,
                            const std::vector<BtfMember>& members) {
  Record r;
  r.kind = BtfKind::kStruct;
  r.size = byte_size;
  AddName(name, r.name_off, r.name_len);
  AddRun(members, r);
  return AddRecord(r);
}

BtfTypeId TypeGraph::Union(std::string_view name, uint32_t byte_size,
                           const std::vector<BtfMember>& members) {
  Record r;
  r.kind = BtfKind::kUnion;
  r.size = byte_size;
  AddName(name, r.name_off, r.name_len);
  AddRun(members, r);
  return AddRecord(r);
}

BtfTypeId TypeGraph::Enum(std::string_view name, const std::vector<BtfEnumerator>& enumerators) {
  Record r;
  r.kind = BtfKind::kEnum;
  r.size = 4;
  AddName(name, r.name_off, r.name_len);
  AddRun(enumerators, r);
  return AddRecord(r);
}

BtfTypeId TypeGraph::FuncProto(BtfTypeId return_type, const std::vector<BtfParam>& params) {
  Record r;
  r.kind = BtfKind::kFuncProto;
  r.ref_type_id = return_type;
  AddRun(params, r);
  return AddRecord(r);
}

BtfTypeId TypeGraph::Func(std::string_view name, BtfTypeId proto) {
  Record r;
  r.kind = BtfKind::kFunc;
  r.ref_type_id = proto;
  AddName(name, r.name_off, r.name_len);
  return AddRecord(r);
}

bool TypeGraph::RedefineStruct(BtfTypeId id, uint32_t byte_size,
                               const std::vector<BtfMember>& members) {
  if (id == 0 || id > types_.size()) {
    return false;
  }
  Record& r = types_[id - 1];
  if (r.kind != BtfKind::kStruct && r.kind != BtfKind::kFwd) {
    return false;
  }
  index_.Clear();
  r.kind = BtfKind::kStruct;
  r.size = byte_size;
  AddRun(members, r);
  return true;
}

std::optional<BtfTypeId> TypeGraph::FindByKindAndName(BtfKind kind, std::string_view name) const {
  const std::vector<IndexEntry>& index = index_.Get(*this);
  auto it = std::lower_bound(index.begin(), index.end(), name,
                             [this, kind](const IndexEntry& e, std::string_view key) {
                               if (e.kind != kind) {
                                 return e.kind < kind;
                               }
                               return NameOf(e.name_off, e.name_len) < key;
                             });
  if (it == index.end() || it->kind != kind || NameOf(it->name_off, it->name_len) != name) {
    return std::nullopt;
  }
  return it->id;
}

std::optional<BtfTypeId> TypeGraph::FindStruct(std::string_view name) const {
  return FindByKindAndName(BtfKind::kStruct, name);
}

std::optional<BtfTypeId> TypeGraph::FindFunc(std::string_view name) const {
  return FindByKindAndName(BtfKind::kFunc, name);
}

BtfTypeId TypeGraph::ResolveAliases(BtfTypeId id) const {
  // Alias chains are finite in valid graphs; the loop bound guards against
  // cycles in malformed ones.
  for (uint32_t depth = 0; depth < 64; ++depth) {
    if (id == 0 || id > types_.size()) {
      return id;
    }
    const Record& r = types_[id - 1];
    switch (r.kind) {
      case BtfKind::kConst:
      case BtfKind::kVolatile:
      case BtfKind::kRestrict:
      case BtfKind::kTypedef:
        id = r.ref_type_id;
        break;
      default:
        return id;
    }
  }
  return id;
}

Status TypeGraph::Validate() const {
  const size_t n = types_.size();
  auto beyond = [n](uint32_t id, const char* what) {
    return Status(ErrorCode::kMalformedData,
                  StrFormat("%s references type %u beyond %zu", what, id, n));
  };
  for (const Record& r : types_) {
    switch (r.kind) {
      case BtfKind::kPtr:
      case BtfKind::kTypedef:
      case BtfKind::kConst:
      case BtfKind::kVolatile:
      case BtfKind::kRestrict:
      case BtfKind::kArray:
      case BtfKind::kFunc:
      case BtfKind::kFuncProto:
        if (r.ref_type_id > n) {
          return beyond(r.ref_type_id, BtfKindName(r.kind));
        }
        break;
      default:
        break;
    }
    // Members and parameters name types; enumerators hold values.
    const char* what = r.kind == BtfKind::kFuncProto ? "param"
                       : r.kind == BtfKind::kStruct || r.kind == BtfKind::kUnion ? "member"
                                                                                 : nullptr;
    if (what == nullptr) {
      continue;
    }
    for (uint32_t i = r.first_entry; i < r.first_entry + r.num_entries; ++i) {
      if (entries_[i].type_or_value > n) {
        return beyond(entries_[i].type_or_value, what);
      }
    }
  }
  return Status::Ok();
}

}  // namespace depsurf
