#include "src/dwarf/dwarf_codec.h"

#include <map>

#include "src/util/leb128.h"

namespace depsurf {

namespace {

// The shape of a DIE for abbreviation purposes.
struct AbbrevShape {
  uint16_t tag;
  bool has_children;
  std::vector<uint16_t> attrs;

  bool operator<(const AbbrevShape& other) const {
    if (tag != other.tag) {
      return tag < other.tag;
    }
    if (has_children != other.has_children) {
      return has_children < other.has_children;
    }
    return attrs < other.attrs;
  }
};

AbbrevShape ShapeOf(const Die& die) {
  AbbrevShape shape;
  shape.tag = static_cast<uint16_t>(die.tag);
  shape.has_children = !die.children.empty();
  shape.attrs.reserve(die.attrs.size());
  for (const DwarfAttrValue& v : die.attrs) {
    shape.attrs.push_back(static_cast<uint16_t>(v.attr));
  }
  return shape;
}

void WriteAttrValue(ByteWriter& w, const DwarfAttrValue& v, uint64_t ref_remap) {
  switch (FormOf(v.attr)) {
    case DwForm::kString:
      w.WriteCString(v.str);
      break;
    case DwForm::kUdata:
      WriteUleb128(w, v.num);
      break;
    case DwForm::kFlag:
      w.WriteU8(1);
      break;
    case DwForm::kAddr:
      w.WriteU64(v.num);
      break;
    case DwForm::kRef:
      WriteUleb128(w, ref_remap);
      break;
  }
}

}  // namespace

DwarfSections EncodeDwarf(const DwarfDocument& document, Endian endian) {
  // Pass 1: pre-order numbering so references are decoder-stable.
  std::vector<uint32_t> arena_to_preorder(document.num_dies() + 1, 0);
  uint32_t next = 1;
  document.WalkAll([&](uint32_t index, const Die&) { arena_to_preorder[index] = next++; });

  // Pass 2: collect abbrev shapes.
  std::map<AbbrevShape, uint64_t> abbrev_codes;
  document.WalkAll([&](uint32_t, const Die& die) {
    AbbrevShape shape = ShapeOf(die);
    if (abbrev_codes.find(shape) == abbrev_codes.end()) {
      uint64_t code = abbrev_codes.size() + 1;
      abbrev_codes[shape] = code;
    }
  });

  ByteWriter abbrev(endian);
  // Entries must appear in code order.
  std::vector<const AbbrevShape*> ordered(abbrev_codes.size());
  for (const auto& [shape, code] : abbrev_codes) {
    ordered[code - 1] = &shape;
  }
  for (size_t i = 0; i < ordered.size(); ++i) {
    WriteUleb128(abbrev, i + 1);
    WriteUleb128(abbrev, ordered[i]->tag);
    abbrev.WriteU8(ordered[i]->has_children ? 1 : 0);
    for (uint16_t attr : ordered[i]->attrs) {
      WriteUleb128(abbrev, attr);
      WriteUleb128(abbrev, static_cast<uint64_t>(FormOf(static_cast<DwAttr>(attr))));
    }
    WriteUleb128(abbrev, 0);
    WriteUleb128(abbrev, 0);
  }
  WriteUleb128(abbrev, 0);  // table terminator

  // Pass 3: emit DIEs pre-order.
  ByteWriter info(endian);
  auto emit = [&](auto&& self, uint32_t index) -> void {
    const Die& die = document.die(index);
    WriteUleb128(info, abbrev_codes[ShapeOf(die)]);
    for (const DwarfAttrValue& v : die.attrs) {
      // A reference past the last DIE is written as is, so a hostile
      // document encodes to the bytes it describes.
      uint64_t remapped = v.num;
      if (FormOf(v.attr) == DwForm::kRef && v.num != 0 && v.num < arena_to_preorder.size()) {
        remapped = arena_to_preorder[v.num];
      }
      WriteAttrValue(info, v, remapped);
    }
    if (!die.children.empty()) {
      for (uint32_t child : die.children) {
        self(self, child);
      }
      WriteUleb128(info, 0);  // end of children
    }
  };
  for (uint32_t root : document.roots()) {
    emit(emit, root);
  }

  return DwarfSections{abbrev.TakeBytes(), info.TakeBytes()};
}

}  // namespace depsurf
