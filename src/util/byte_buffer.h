// Endian-aware binary writer/reader used by every codec in the project
// (ELF, DWARF-lite, BTF, BPF objects).
//
// The kernel-image corpus spans 32/64-bit and little/big-endian targets
// (x86/arm64/riscv are ELF64 LE, arm32 is ELF32 LE, ppc is ELF64 BE), so all
// multi-byte accesses go through these classes rather than raw memcpy.
#ifndef DEPSURF_SRC_UTIL_BYTE_BUFFER_H_
#define DEPSURF_SRC_UTIL_BYTE_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.h"

namespace depsurf {

enum class Endian : uint8_t { kLittle, kBig };

// Growable byte sink with explicit endianness.
class ByteWriter {
 public:
  explicit ByteWriter(Endian endian = Endian::kLittle) : endian_(endian) {}

  Endian endian() const { return endian_; }
  size_t size() const { return bytes_.size(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

  void WriteU8(uint8_t v) { bytes_.push_back(v); }
  void WriteU16(uint16_t v) { WriteUint(v, 2); }
  void WriteU32(uint32_t v) { WriteUint(v, 4); }
  void WriteU64(uint64_t v) { WriteUint(v, 8); }
  void WriteI64(int64_t v) { WriteUint(static_cast<uint64_t>(v), 8); }

  // Writes a pointer-sized value (4 or 8 bytes).
  void WriteAddr(uint64_t v, int pointer_size) { WriteUint(v, pointer_size); }

  void WriteBytes(const void* data, size_t len);
  void WriteString(std::string_view s) { WriteBytes(s.data(), s.size()); }
  // NUL-terminated string.
  void WriteCString(std::string_view s);
  // Appends zero bytes until size() is a multiple of `alignment`.
  void AlignTo(size_t alignment);
  void WriteZeros(size_t count);

  // Patches a previously written little/big-endian u32 at `offset`.
  // Out-of-range patches are a programming error and are checked.
  Status PatchU32(size_t offset, uint32_t v);

 private:
  void WriteUint(uint64_t v, int width);

  Endian endian_;
  std::vector<uint8_t> bytes_;
};

// Bounds-checked byte source with explicit endianness. Never throws; every
// read reports malformed input via Result.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size, Endian endian = Endian::kLittle)
      : data_(data), size_(size), endian_(endian) {}
  ByteReader(const std::vector<uint8_t>& bytes, Endian endian = Endian::kLittle)
      : ByteReader(bytes.data(), bytes.size(), endian) {}

  Endian endian() const { return endian_; }
  void set_endian(Endian endian) { endian_ = endian; }
  // The bytes read, for decoders that bounds-check a whole record once and
  // then load its fields directly.
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  size_t offset() const { return offset_; }
  size_t remaining() const { return size_ - offset_; }
  bool AtEnd() const { return offset_ >= size_; }

  Status Seek(size_t offset);
  Status Skip(size_t count);

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  // Pointer-sized read (4 or 8 bytes).
  Result<uint64_t> ReadAddr(int pointer_size);
  // Arbitrary-width read, 1..8 bytes; kInvalidArgument outside that range
  // (format decoders pass widths parsed from untrusted headers).
  Result<uint64_t> ReadUint(int width);

  // Copies `len` bytes at the cursor.
  Result<std::vector<uint8_t>> ReadBytes(size_t len);
  // Reads until NUL (consuming it).
  Result<std::string> ReadCString();
  // ReadCString without the copy: a view into the buffer, valid while the
  // buffer lives.
  Result<std::string_view> ReadCStringView();
  // Reads a NUL-terminated string at an absolute offset without moving the
  // cursor (string-table access pattern).
  Result<std::string> ReadCStringAt(size_t offset) const;

  // A sub-reader over [offset, offset+len), sharing the endianness.
  Result<ByteReader> Slice(size_t offset, size_t len) const;

 private:
  const uint8_t* data_;
  size_t size_;
  Endian endian_;
  size_t offset_ = 0;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_UTIL_BYTE_BUFFER_H_
