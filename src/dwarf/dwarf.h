// DWARF-lite: a from-scratch debugging-information format modeled on DWARF.
//
// The document is a forest of DIEs (debugging information entries), each
// with a tag, attribute list, and children. Encoding follows the DWARF
// architecture: an abbreviation table describing distinct (tag, attribute
// shape) combinations, and an info stream of ULEB-coded abbrev references
// plus attribute values, with children terminated by a zero entry.
//
// DwarfDocument is the writer's model: kernelgen builds one and EncodeDwarf
// (dwarf_codec.h) serializes it. Extraction never rebuilds the tree; it
// streams the encoded sections (ReadFunctionInstances, function_view.h).
//
// The subset implemented covers what kernel-image analysis needs: compile
// units, subprograms (with inline attributes and parameters), inlined call
// sites (DW_TAG_inlined_subroutine + abstract origin), and call-site records
// (DW_TAG_call_site + origin) used to enumerate non-inlined callers.
#ifndef DEPSURF_SRC_DWARF_DWARF_H_
#define DEPSURF_SRC_DWARF_DWARF_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.h"

namespace depsurf {

// Tag values mirror real DWARF numbering where one exists.
enum class DwTag : uint16_t {
  kCompileUnit = 0x11,
  kSubprogram = 0x2e,
  kFormalParameter = 0x05,
  kInlinedSubroutine = 0x1d,
  kCallSite = 0x48,  // DWARF 5
};

// Attribute codes (subset; values mirror DWARF where applicable).
enum class DwAttr : uint16_t {
  kName = 0x03,          // string
  kDeclFile = 0x3a,      // string (we inline the path rather than a file table)
  kDeclLine = 0x3b,      // udata
  kExternal = 0x3f,      // flag
  kLowPc = 0x11,         // addr (u64)
  kInline = 0x20,        // udata (DwInl)
  kAbstractOrigin = 0x31,  // ref (global DIE index)
  kCallOrigin = 0x7f,    // ref (DW_AT_call_origin)
};

// DW_INL_* inline attribute values (DWARF spec section 3.3.8).
enum class DwInl : uint8_t {
  kNotInlined = 0,           // not declared inline, not inlined
  kInlined = 1,              // not declared inline, but inlined
  kDeclaredNotInlined = 2,   // declared inline, not inlined
  kDeclaredInlined = 3,      // declared inline and inlined
};

// Attribute forms determine the wire encoding.
enum class DwForm : uint8_t {
  kString = 1,  // inline NUL-terminated string
  kUdata = 2,   // ULEB128
  kFlag = 3,    // 1-byte 0/1
  kAddr = 4,    // fixed 8 bytes
  kRef = 5,     // ULEB128 global DIE index (1-based; 0 = null ref)
};

// Which form each attribute uses (fixed per attribute in this dialect).
DwForm FormOf(DwAttr attr);

struct DwarfAttrValue {
  DwAttr attr;
  // Exactly one of these is meaningful, per FormOf(attr).
  std::string str;
  uint64_t num = 0;

  static DwarfAttrValue String(DwAttr attr, std::string value);
  static DwarfAttrValue Number(DwAttr attr, uint64_t value);
};

// One DIE. Children are stored as indices into the owning document's arena,
// so the tree is cheap to traverse and serialize.
struct Die {
  DwTag tag;
  std::vector<DwarfAttrValue> attrs;
  std::vector<uint32_t> children;

  const DwarfAttrValue* Find(DwAttr attr) const;
  std::optional<std::string> GetString(DwAttr attr) const;
  std::optional<uint64_t> GetNumber(DwAttr attr) const;
  bool GetFlag(DwAttr attr) const;
};

// An arena of DIEs. Index 0 is reserved (null reference); real DIEs start
// at index 1. Top-level DIEs (compile units) are tracked separately.
class DwarfDocument {
 public:
  DwarfDocument() : dies_(1) {}  // slot 0 = null

  // Creates a DIE; if parent != 0 it is appended to the parent's children,
  // otherwise it becomes a root (compile unit).
  uint32_t AddDie(DwTag tag, uint32_t parent);

  Die& die(uint32_t index) { return dies_[index]; }
  const Die& die(uint32_t index) const { return dies_[index]; }
  uint32_t num_dies() const { return static_cast<uint32_t>(dies_.size()) - 1; }
  const std::vector<uint32_t>& roots() const { return roots_; }

  void SetString(uint32_t die, DwAttr attr, std::string value);
  void SetNumber(uint32_t die, DwAttr attr, uint64_t value);
  void SetFlag(uint32_t die, DwAttr attr);

  // Depth-first visit of every DIE under (and including) `index`.
  template <typename Fn>
  void Walk(uint32_t index, Fn&& fn) const {
    fn(index, dies_[index]);
    for (uint32_t child : dies_[index].children) {
      Walk(child, fn);
    }
  }

  // Visits every DIE in the document.
  template <typename Fn>
  void WalkAll(Fn&& fn) const {
    for (uint32_t root : roots_) {
      Walk(root, fn);
    }
  }

 private:
  std::vector<Die> dies_;
  std::vector<uint32_t> roots_;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_DWARF_DWARF_H_
