// BPF Type Format (BTF) type graph.
//
// This is a from-scratch implementation of the BTF data model: typed records
// referencing each other by 1-based id (id 0 is `void`), matching the
// kernel's .BTF section semantics. The binary wire format is implemented in
// btf_codec.h with the real layout (magic 0xeB9F, btf_type records, string
// section).
//
// A graph stores its types flat, in three arrays: one fixed-size record per
// type; one shared array of member, parameter and enumerator entries, of
// which each type owns a contiguous run; and one string block that every
// name views. Reading a type yields a BtfTypeView whose name and runs view
// those arrays.
//
// Lifetimes: a view (a BtfTypeView, its name, its runs and the names they
// yield) stays valid until its graph is modified or destroyed. Copies of a
// graph are self-contained. A move keeps the arrays' storage, so views taken
// before a move stay valid, now viewing the moved-to graph.
#ifndef DEPSURF_SRC_BTF_BTF_H_
#define DEPSURF_SRC_BTF_BTF_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/util/byte_buffer.h"
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

using BtfTypeId = uint32_t;
inline constexpr BtfTypeId kBtfVoid = 0;

// --- Builder inputs. Each owns its name; the builder call copies it. ---

// Struct/union member. `bits_offset` is the bit offset from the start of the
// containing aggregate (byte-aligned fields use multiples of 8).
struct BtfMember {
  std::string name;
  uint32_t type_id = 0;
  uint32_t bits_offset = 0;
};

// Function prototype parameter.
struct BtfParam {
  std::string name;
  uint32_t type_id = 0;
};

struct BtfEnumerator {
  std::string name;
  int32_t value = 0;
};

// --- What a graph yields. Names view the graph's string block. ---

struct BtfMemberView {
  std::string_view name;
  uint32_t type_id = 0;
  uint32_t bits_offset = 0;

  bool operator==(const BtfMemberView&) const = default;
};

struct BtfParamView {
  std::string_view name;
  uint32_t type_id = 0;

  bool operator==(const BtfParamView&) const = default;
};

struct BtfEnumeratorView {
  std::string_view name;
  int32_t value = 0;

  bool operator==(const BtfEnumeratorView&) const = default;
};

// One member, parameter or enumerator as a graph stores it: the name as an
// offset and length into the string block, then a type id (or an
// enumerator's value) and a member's bit offset.
struct BtfEntry {
  uint32_t name_off = 0;
  uint32_t name_len = 0;
  uint32_t type_or_value = 0;
  uint32_t bits_offset = 0;
};

// A type's members, parameters or enumerators: a span of the graph's entry
// array, read as T (one of the *View structs above) with its name.
template <typename T>
class BtfRun {
 public:
  BtfRun() = default;
  BtfRun(const char* strings, std::span<const BtfEntry> entries)
      : strings_(strings), entries_(entries) {}

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  T operator[](size_t i) const { return Read(strings_, entries_[i]); }

  // Holds what it reads, not the run, so it outlives a run it was taken
  // from.
  class iterator {
   public:
    using value_type = T;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const char* strings, const BtfEntry* entry) : strings_(strings), entry_(entry) {}
    T operator*() const { return Read(strings_, *entry_); }
    iterator& operator++() {
      ++entry_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++entry_;
      return old;
    }
    bool operator==(const iterator& other) const { return entry_ == other.entry_; }

   private:
    const char* strings_ = nullptr;
    const BtfEntry* entry_ = nullptr;
  };
  iterator begin() const { return iterator(strings_, entries_.data()); }
  iterator end() const { return iterator(strings_, entries_.data() + entries_.size()); }

  // By content: the same entries with the same names, in order.
  bool operator==(const BtfRun& other) const {
    if (size() != other.size()) {
      return false;
    }
    for (size_t i = 0; i < size(); ++i) {
      if (!((*this)[i] == other[i])) {
        return false;
      }
    }
    return true;
  }

 private:
  const char* strings_ = nullptr;
  std::span<const BtfEntry> entries_;

  static T Read(const char* strings, const BtfEntry& e) {
    std::string_view name(strings + e.name_off, e.name_len);
    if constexpr (std::is_same_v<T, BtfMemberView>) {
      return T{name, e.type_or_value, e.bits_offset};
    } else if constexpr (std::is_same_v<T, BtfParamView>) {
      return T{name, e.type_or_value};
    } else {
      return T{name, static_cast<int32_t>(e.type_or_value)};
    }
  }
};

// One type, read from its graph. Which fields are meaningful depends on
// `kind`:
//   kInt:       name, size, int_bits
//   kPtr/kTypedef/kConst/kVolatile/kRestrict: ref_type_id (+ name for typedef)
//   kArray:     ref_type_id (element), nelems
//   kStruct/kUnion: name, size, members
//   kEnum:      name, size, enumerators
//   kFwd:       name
//   kFunc:      name, ref_type_id (the FUNC_PROTO)
//   kFuncProto: ref_type_id (return type), params
//   kFloat:     name, size
// The runs a kind does not have are empty.
struct BtfTypeView {
  BtfKind kind = BtfKind::kVoid;
  std::string_view name;
  uint32_t size = 0;
  uint32_t ref_type_id = 0;
  uint32_t nelems = 0;
  uint8_t int_bits = 0;
  BtfRun<BtfMemberView> members;
  BtfRun<BtfParamView> params;
  BtfRun<BtfEnumeratorView> enumerators;
};

class TypeGraph;
Result<TypeGraph> DecodeBtf(ByteReader reader);

// A flat BTF type graph with builder conveniences. Ids are stable and
// 1-based.
class TypeGraph {
 public:
  TypeGraph() = default;

  // Number of types excluding void.
  uint32_t num_types() const { return static_cast<uint32_t>(types_.size()); }

  // nullopt for id 0 (void) and for out-of-range ids.
  std::optional<BtfTypeView> Get(BtfTypeId id) const;

  // --- Builder calls. Each appends (or, for the deduplicating scalar and
  // pointer builders, may return an existing id). A name may view anything
  // that outlives the call, this graph included. References to
  // not-yet-added ids are permitted (BTF allows forward references);
  // Validate() checks them at the end. ---
  BtfTypeId Int(std::string_view name, uint32_t byte_size);
  BtfTypeId Float(std::string_view name, uint32_t byte_size);
  BtfTypeId Ptr(BtfTypeId to);
  BtfTypeId Const(BtfTypeId of);
  BtfTypeId Volatile(BtfTypeId of);
  BtfTypeId Typedef(std::string_view name, BtfTypeId of);
  BtfTypeId Array(BtfTypeId element, uint32_t nelems);
  BtfTypeId Fwd(std::string_view name);
  BtfTypeId Struct(std::string_view name, uint32_t byte_size,
                   const std::vector<BtfMember>& members);
  BtfTypeId Union(std::string_view name, uint32_t byte_size,
                  const std::vector<BtfMember>& members);
  BtfTypeId Enum(std::string_view name, const std::vector<BtfEnumerator>& enumerators);
  BtfTypeId FuncProto(BtfTypeId return_type, const std::vector<BtfParam>& params);
  BtfTypeId Func(std::string_view name, BtfTypeId proto);
  // Turns the STRUCT or FWD `id` into a STRUCT of `byte_size` with
  // `members`, keeping its name, so every reference to `id` sees the new
  // definition. The members go in as a new run; the old run stays in the
  // entry array, unread. False, changing nothing, when `id` is neither.
  bool RedefineStruct(BtfTypeId id, uint32_t byte_size, const std::vector<BtfMember>& members);

  // --- Lookups: the first id of that kind and name, as a scan in id order
  // would find. They answer from one sorted (kind, name, id) index over
  // every type, built by the first lookup (O(types log types)) and kept
  // until the graph is modified; each lookup then costs O(log types). A
  // graph that is never searched never builds it. Concurrent lookups are
  // safe. ---
  std::optional<BtfTypeId> FindByKindAndName(BtfKind kind, std::string_view name) const;
  std::optional<BtfTypeId> FindStruct(std::string_view name) const;
  std::optional<BtfTypeId> FindFunc(std::string_view name) const;

  // Strips CONST/VOLATILE/RESTRICT/TYPEDEF wrappers.
  BtfTypeId ResolveAliases(BtfTypeId id) const;

  // Checks every reference id is within range. Decoders call this after
  // ingesting untrusted bytes.
  Status Validate() const;

 private:
  friend Result<TypeGraph> DecodeBtf(ByteReader reader);

  // One type: its fixed fields, its name in the string block, and its run
  // in the entry array.
  struct Record {
    BtfKind kind = BtfKind::kVoid;
    uint8_t int_bits = 0;
    uint32_t name_off = 0;
    uint32_t name_len = 0;
    uint32_t size = 0;
    uint32_t ref_type_id = 0;
    uint32_t nelems = 0;
    uint32_t first_entry = 0;
    uint32_t num_entries = 0;
  };

  struct IndexEntry {
    BtfKind kind;
    uint32_t name_off;
    uint32_t name_len;
    BtfTypeId id;
  };

  // The lazily built lookup index. A copy takes the source's index (its
  // offsets fit the copied string block); the mutex makes the first
  // lookups of concurrent readers build it once.
  class NameIndex {
   public:
    NameIndex() = default;
    NameIndex(const NameIndex& other);
    NameIndex(NameIndex&& other) noexcept;
    NameIndex& operator=(const NameIndex& other);
    NameIndex& operator=(NameIndex&& other) noexcept;

    // The sorted entries, built from `graph` on first use. They stay
    // unchanged until a non-const graph call clears them.
    const std::vector<IndexEntry>& Get(const TypeGraph& graph) const;
    // Drops the index; only from a non-const graph call.
    void Clear();

   private:
    mutable std::mutex mu_;
    mutable bool built_ = false;
    mutable std::vector<IndexEntry> entries_;
  };

  std::string_view NameOf(uint32_t off, uint32_t len) const {
    return std::string_view(strings_.data() + off, len);
  }
  // Places `name` in the string block and sets `off` and `len` to it.
  void AddName(std::string_view name, uint32_t& off, uint32_t& len);
  template <typename Spec>
  void AddRun(const std::vector<Spec>& specs, Record& record);
  BtfTypeId AddRecord(const Record& record);
  // The id stored under `key`, or `record` named `name`, added and stored.
  BtfTypeId Dedup(uint64_t key, Record record, std::string_view name);

  std::vector<Record> types_;
  std::vector<BtfEntry> entries_;
  // Never small-buffer storage: a move must keep the bytes where views
  // see them.
  std::vector<char> strings_;
  std::unordered_map<uint64_t, BtfTypeId> dedup_;
  NameIndex index_;
};

inline std::optional<BtfTypeView> TypeGraph::Get(BtfTypeId id) const {
  if (id == 0 || id > types_.size()) {
    return std::nullopt;
  }
  const Record& r = types_[id - 1];
  BtfTypeView view;
  view.kind = r.kind;
  view.name = NameOf(r.name_off, r.name_len);
  view.size = r.size;
  view.ref_type_id = r.ref_type_id;
  view.nelems = r.nelems;
  view.int_bits = r.int_bits;
  std::span<const BtfEntry> run(entries_.data() + r.first_entry, r.num_entries);
  switch (r.kind) {
    case BtfKind::kStruct:
    case BtfKind::kUnion:
      view.members = BtfRun<BtfMemberView>(strings_.data(), run);
      break;
    case BtfKind::kFuncProto:
      view.params = BtfRun<BtfParamView>(strings_.data(), run);
      break;
    case BtfKind::kEnum:
      view.enumerators = BtfRun<BtfEnumeratorView>(strings_.data(), run);
      break;
    default:
      break;
  }
  return view;
}

}  // namespace depsurf

#endif  // DEPSURF_SRC_BTF_BTF_H_
