// BPF Type Format (BTF) type graph.
//
// This is a from-scratch implementation of the BTF data model: a flat arena
// of typed records referencing each other by 1-based id (id 0 is `void`),
// matching the kernel's .BTF section semantics. The binary wire format is
// implemented in btf_codec.h with the real layout (magic 0xeB9F, btf_type
// records, string section).
#ifndef DEPSURF_SRC_BTF_BTF_H_
#define DEPSURF_SRC_BTF_BTF_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/error.h"

namespace depsurf {

// BTF kind values; numerically identical to the kernel's BTF_KIND_*.
enum class BtfKind : uint8_t {
  kVoid = 0,  // only as the implicit id-0 type
  kInt = 1,
  kPtr = 2,
  kArray = 3,
  kStruct = 4,
  kUnion = 5,
  kEnum = 6,
  kFwd = 7,
  kTypedef = 8,
  kVolatile = 9,
  kConst = 10,
  kRestrict = 11,
  kFunc = 12,
  kFuncProto = 13,
  kFloat = 16,
};

const char* BtfKindName(BtfKind kind);

// Struct/union member. `bits_offset` is the bit offset from the start of the
// containing aggregate (byte-aligned fields use multiples of 8).
struct BtfMember {
  std::string name;
  uint32_t type_id = 0;
  uint32_t bits_offset = 0;

  bool operator==(const BtfMember&) const = default;
};

// Function prototype parameter.
struct BtfParam {
  std::string name;
  uint32_t type_id = 0;

  bool operator==(const BtfParam&) const = default;
};

struct BtfEnumerator {
  std::string name;
  int32_t value = 0;

  bool operator==(const BtfEnumerator&) const = default;
};

// One node in the type graph. Which fields are meaningful depends on `kind`:
//   kInt:       name, size, int_bits
//   kPtr/kTypedef/kConst/kVolatile/kRestrict: ref_type_id (+ name for typedef)
//   kArray:     ref_type_id (element), nelems
//   kStruct/kUnion: name, size, members
//   kEnum:      name, size, enumerators
//   kFwd:       name
//   kFunc:      name, ref_type_id (the FUNC_PROTO)
//   kFuncProto: ref_type_id (return type), params
//   kFloat:     name, size
struct BtfType {
  BtfKind kind = BtfKind::kVoid;
  std::string name;
  uint32_t size = 0;
  uint32_t ref_type_id = 0;
  uint32_t nelems = 0;
  uint8_t int_bits = 0;
  std::vector<BtfMember> members;
  std::vector<BtfParam> params;
  std::vector<BtfEnumerator> enumerators;
};

using BtfTypeId = uint32_t;
inline constexpr BtfTypeId kBtfVoid = 0;

// Arena of BtfTypes with builder conveniences. Ids are stable and 1-based.
class TypeGraph {
 public:
  TypeGraph() = default;

  // Number of types excluding void.
  uint32_t num_types() const { return static_cast<uint32_t>(types_.size()); }

  // Adds an arbitrary node. References to not-yet-added ids are permitted
  // (BTF allows forward references); Validate() checks them at the end.
  BtfTypeId Add(BtfType type);

  // nullptr for id 0 (void) and for out-of-range ids.
  const BtfType* Get(BtfTypeId id) const;
  BtfType* GetMutable(BtfTypeId id);

  // --- Builder conveniences (deduplicating for scalar/pointer nodes) ---
  BtfTypeId Int(std::string_view name, uint32_t byte_size);
  BtfTypeId Float(std::string_view name, uint32_t byte_size);
  BtfTypeId Ptr(BtfTypeId to);
  BtfTypeId Const(BtfTypeId of);
  BtfTypeId Volatile(BtfTypeId of);
  BtfTypeId Typedef(std::string_view name, BtfTypeId of);
  BtfTypeId Array(BtfTypeId element, uint32_t nelems);
  BtfTypeId Fwd(std::string_view name);
  BtfTypeId Struct(std::string_view name, uint32_t byte_size, std::vector<BtfMember> members);
  BtfTypeId Union(std::string_view name, uint32_t byte_size, std::vector<BtfMember> members);
  BtfTypeId Enum(std::string_view name, std::vector<BtfEnumerator> enumerators);
  BtfTypeId FuncProto(BtfTypeId return_type, std::vector<BtfParam> params);
  BtfTypeId Func(std::string_view name, BtfTypeId proto);

  // --- Lookups (first match by name) ---
  // Each is a linear scan over every type, meant for small graphs; code that
  // resolves many names in a large graph indexes it once instead.
  std::optional<BtfTypeId> FindByKindAndName(BtfKind kind, std::string_view name) const;
  std::optional<BtfTypeId> FindStruct(std::string_view name) const;
  std::optional<BtfTypeId> FindFunc(std::string_view name) const;

  // Strips CONST/VOLATILE/RESTRICT/TYPEDEF wrappers.
  BtfTypeId ResolveAliases(BtfTypeId id) const;

  // Checks every reference id is within range. Decoders call this after
  // ingesting untrusted bytes.
  Status Validate() const;

 private:
  BtfTypeId Dedup(uint64_t key, BtfType type);

  std::vector<BtfType> types_;
  std::unordered_map<uint64_t, BtfTypeId> dedup_;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_BTF_BTF_H_
