#include "src/kmodel/type_lang.h"

#include <cctype>

#include "src/util/str_util.h"

namespace depsurf {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

// Fixed widths of the base C types and common kernel typedefs (LP64 unless
// the lowering overrides `long`).
struct IntInfo {
  const char* name;
  uint32_t size;
  bool is_long;  // width follows the target's long size
};

constexpr IntInfo kIntTypes[] = {
    {"void", 0, false},
    {"char", 1, false},
    {"signed char", 1, false},
    {"unsigned char", 1, false},
    {"short", 2, false},
    {"short int", 2, false},
    {"unsigned short", 2, false},
    {"short unsigned int", 2, false},
    {"int", 4, false},
    {"unsigned int", 4, false},
    {"unsigned", 4, false},
    {"long", 0, true},
    {"long int", 0, true},
    {"unsigned long", 0, true},
    {"long unsigned int", 0, true},
    {"long long", 8, false},
    {"long long int", 8, false},
    {"unsigned long long", 8, false},
    {"long long unsigned int", 8, false},
    {"bool", 1, false},
    {"_Bool", 1, false},
};

struct TypedefInfo {
  const char* name;
  const char* underlying;
};

// Kernel typedef vocabulary used by the corpus.
constexpr TypedefInfo kTypedefs[] = {
    {"u8", "unsigned char"},       {"u16", "unsigned short"},
    {"u32", "unsigned int"},       {"u64", "unsigned long long"},
    {"s8", "signed char"},         {"s16", "short"},
    {"s32", "int"},                {"s64", "long long"},
    {"__u32", "unsigned int"},     {"__u64", "unsigned long long"},
    {"size_t", "unsigned long"},   {"ssize_t", "long"},
    {"pid_t", "int"},              {"uid_t", "unsigned int"},
    {"gid_t", "unsigned int"},     {"loff_t", "long long"},
    {"off_t", "long"},             {"dev_t", "unsigned int"},
    {"umode_t", "unsigned short"}, {"sector_t", "unsigned long long"},
    {"gfp_t", "unsigned int"},     {"fmode_t", "unsigned int"},
    {"blk_status_t", "unsigned char"},
    {"pgoff_t", "unsigned long"},  {"cputime_t", "unsigned long"},
    {"ktime_t", "long long"},      {"time_t", "long"},
    {"__kernel_time_t", "long"},   {"bool_t", "int"},
    {"uintptr_t", "unsigned long"},
};

}  // namespace

Result<BtfTypeId> TypeLowering::DefineStruct(const StructSpec& spec) {
  if (spec.name.empty()) {
    return Error(ErrorCode::kInvalidArgument, "struct spec must be named");
  }
  // Insert a forward declaration first so self-referential fields resolve.
  auto it = structs_.find(spec.name);
  bool preexisting = it != structs_.end();
  std::vector<BtfMember> members;
  members.reserve(spec.fields.size());
  uint32_t bits = 0;
  for (const FieldSpec& field : spec.fields) {
    DEPSURF_ASSIGN_OR_RETURN(type_id, Lower(field.type));
    uint32_t size = SizeOf(type_id);
    uint32_t align_bits = 8 * (size == 0 ? 1 : (size > 8 ? 8 : size));
    if (bits % align_bits != 0) {
      bits += align_bits - bits % align_bits;
    }
    members.push_back(BtfMember{field.name, type_id, bits});
    bits += 8 * size;
  }
  uint32_t byte_size = (bits + 7) / 8;
  if (preexisting) {
    // Redefine the registered id so existing references see the definition.
    if (!graph_.RedefineStruct(it->second, byte_size, members)) {
      return Error(ErrorCode::kInternal, "struct registry out of sync");
    }
    return it->second;
  }
  BtfTypeId id = graph_.Struct(spec.name, byte_size, members);
  structs_[spec.name] = id;
  return id;
}

Result<BtfTypeId> TypeLowering::Lower(const TypeStr& type) {
  std::string_view s = Trim(type);
  if (s.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty type");
  }
  // Array suffix binds last.
  if (s.back() == ']') {
    size_t open = s.rfind('[');
    if (open == std::string_view::npos) {
      return Error(ErrorCode::kInvalidArgument, "unmatched ] in type: " + type);
    }
    uint32_t n = 0;
    for (char c : s.substr(open + 1, s.size() - open - 2)) {
      if (c < '0' || c > '9') {
        return Error(ErrorCode::kInvalidArgument, "bad array length in: " + type);
      }
      n = n * 10 + static_cast<uint32_t>(c - '0');
    }
    DEPSURF_ASSIGN_OR_RETURN(elem, Lower(std::string(Trim(s.substr(0, open)))));
    return graph_.Array(elem, n);
  }
  // Pointer suffix.
  if (s.back() == '*') {
    DEPSURF_ASSIGN_OR_RETURN(inner, Lower(std::string(Trim(s.substr(0, s.size() - 1)))));
    return graph_.Ptr(inner);
  }
  // const qualifier.
  if (StartsWith(s, "const ")) {
    DEPSURF_ASSIGN_OR_RETURN(inner, Lower(std::string(Trim(s.substr(6)))));
    return graph_.Const(inner);
  }
  return LowerCore(s);
}

Result<BtfTypeId> TypeLowering::LowerCore(std::string_view core) {
  if (StartsWith(core, "struct ") || StartsWith(core, "union ") || StartsWith(core, "enum ")) {
    size_t space = core.find(' ');
    std::string_view name = Trim(core.substr(space + 1));
    if (name.empty()) {
      return Error(ErrorCode::kInvalidArgument, "aggregate without name");
    }
    if (StartsWith(core, "struct ")) {
      auto it = structs_.find(name);
      if (it != structs_.end()) {
        return it->second;
      }
      // Opaque reference: a FWD node registered so a later DefineStruct
      // upgrades it in place.
      BtfTypeId id = graph_.Fwd(name);
      structs_[std::string(name)] = id;
      return id;
    }
    if (StartsWith(core, "union ")) {
      return graph_.Union(std::string(name), 0, {});
    }
    return graph_.Enum(std::string(name), {});
  }
  // Built-in integer types.
  for (const IntInfo& info : kIntTypes) {
    if (core == info.name) {
      if (core == "void") {
        return kBtfVoid;
      }
      uint32_t size = info.is_long ? static_cast<uint32_t>(long_size_) : info.size;
      return graph_.Int(core, size);
    }
  }
  // Known typedefs.
  for (const TypedefInfo& info : kTypedefs) {
    if (core == info.name) {
      DEPSURF_ASSIGN_OR_RETURN(underlying, Lower(info.underlying));
      return graph_.Typedef(core, underlying);
    }
  }
  if (core == "double" || core == "float") {
    return graph_.Float(core, core == "double" ? 8 : 4);
  }
  // Unknown identifier: treat as an int-typedef (common for generated
  // kernel typedefs in the synthetic corpus).
  DEPSURF_ASSIGN_OR_RETURN(fallback, Lower("int"));
  return graph_.Typedef(core, fallback);
}

uint32_t TypeLowering::SizeOf(BtfTypeId id) const {
  const std::optional<BtfTypeView> t = graph_.Get(graph_.ResolveAliases(id));
  if (!t) {
    return 0;
  }
  switch (t->kind) {
    case BtfKind::kInt:
    case BtfKind::kFloat:
    case BtfKind::kStruct:
    case BtfKind::kUnion:
    case BtfKind::kEnum:
      return t->size;
    case BtfKind::kPtr:
      return static_cast<uint32_t>(pointer_size_);
    case BtfKind::kArray:
      return t->nelems * SizeOf(t->ref_type_id);
    case BtfKind::kFwd:
      return 0;  // opaque
    default:
      return 0;
  }
}

}  // namespace depsurf
