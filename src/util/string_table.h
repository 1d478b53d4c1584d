// Deduplicating builder of a string table: the NUL-separated string
// sections of ELF (.strtab, .shstrtab) and BTF. Offset 0 is the empty
// string, and each distinct string is appended once, at its first Add, so
// offsets go out in first-Add order.
#ifndef DEPSURF_SRC_UTIL_STRING_TABLE_H_
#define DEPSURF_SRC_UTIL_STRING_TABLE_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace depsurf {

class StringTableBuilder {
 public:
  StringTableBuilder() { bytes_.push_back(0); }

  // The offset of `s` in the table, appending it if it is new. `s` is
  // copied into the table; the index keeps only offsets into it.
  uint32_t Add(std::string_view s);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  // One slot of the open-addressing index: a string's offset and length in
  // bytes_ (offset 0: an empty slot; the empty string is never indexed) and
  // the low 32 bits of its hash, which also place the slot.
  struct Slot {
    uint32_t off = 0;
    uint32_t len = 0;
    uint32_t tag = 0;
  };
  void Grow();

  std::vector<uint8_t> bytes_;
  std::vector<Slot> index_;  // a power of two in size, at most half full
  size_t count_ = 0;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_UTIL_STRING_TABLE_H_
