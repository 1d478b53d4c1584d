#include "src/util/byte_buffer.h"

#include <cstring>

namespace depsurf {

void ByteWriter::WriteUint(uint64_t v, int width) {
  if (endian_ == Endian::kLittle) {
    for (int i = 0; i < width; ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  } else {
    for (int i = width - 1; i >= 0; --i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
}

void ByteWriter::WriteBytes(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + len);
}

void ByteWriter::WriteCString(std::string_view s) {
  WriteString(s);
  WriteU8(0);
}

void ByteWriter::AlignTo(size_t alignment) {
  while (alignment != 0 && bytes_.size() % alignment != 0) {
    bytes_.push_back(0);
  }
}

void ByteWriter::WriteZeros(size_t count) { bytes_.insert(bytes_.end(), count, 0); }

Status ByteWriter::PatchU32(size_t offset, uint32_t v) {
  // Overflow-safe form: `offset + 4` wraps for offsets near SIZE_MAX.
  if (offset > bytes_.size() || bytes_.size() - offset < 4) {
    return Status(Error(ErrorCode::kOutOfRange, "PatchU32 beyond buffer").WithOffset(offset));
  }
  for (int i = 0; i < 4; ++i) {
    int shift = (endian_ == Endian::kLittle) ? 8 * i : 8 * (3 - i);
    bytes_[offset + i] = static_cast<uint8_t>(v >> shift);
  }
  return Status::Ok();
}

Status ByteReader::Seek(size_t offset) {
  if (offset > size_) {
    return Status(Error(ErrorCode::kOutOfRange, "seek beyond buffer").WithOffset(offset));
  }
  offset_ = offset;
  return Status::Ok();
}

Status ByteReader::Skip(size_t count) {
  if (count > remaining()) {
    return Status(Error(ErrorCode::kOutOfRange, "skip beyond buffer").WithOffset(offset_));
  }
  offset_ += count;
  return Status::Ok();
}

Result<uint64_t> ByteReader::ReadUint(int width) {
  if (width < 1 || width > 8) {
    return Error(ErrorCode::kInvalidArgument, "read width must be 1..8").WithOffset(offset_);
  }
  if (static_cast<size_t>(width) > remaining()) {
    return Error(ErrorCode::kOutOfRange, "read beyond buffer").WithOffset(offset_);
  }
  uint64_t v = 0;
  if (endian_ == Endian::kLittle) {
    for (int i = width - 1; i >= 0; --i) {
      v = (v << 8) | data_[offset_ + i];
    }
  } else {
    for (int i = 0; i < width; ++i) {
      v = (v << 8) | data_[offset_ + i];
    }
  }
  offset_ += width;
  return v;
}

Result<uint8_t> ByteReader::ReadU8() {
  DEPSURF_ASSIGN_OR_RETURN(v, ReadUint(1));
  return static_cast<uint8_t>(v);
}

Result<uint16_t> ByteReader::ReadU16() {
  DEPSURF_ASSIGN_OR_RETURN(v, ReadUint(2));
  return static_cast<uint16_t>(v);
}

Result<uint32_t> ByteReader::ReadU32() {
  DEPSURF_ASSIGN_OR_RETURN(v, ReadUint(4));
  return static_cast<uint32_t>(v);
}

Result<uint64_t> ByteReader::ReadU64() { return ReadUint(8); }

Result<int64_t> ByteReader::ReadI64() {
  DEPSURF_ASSIGN_OR_RETURN(v, ReadUint(8));
  return static_cast<int64_t>(v);
}

Result<uint64_t> ByteReader::ReadAddr(int pointer_size) {
  if (pointer_size != 4 && pointer_size != 8) {
    return Error(ErrorCode::kInvalidArgument, "pointer size must be 4 or 8");
  }
  return ReadUint(pointer_size);
}

Result<std::vector<uint8_t>> ByteReader::ReadBytes(size_t len) {
  if (len > remaining()) {
    return Error(ErrorCode::kOutOfRange, "ReadBytes beyond buffer").WithOffset(offset_);
  }
  std::vector<uint8_t> out(data_ + offset_, data_ + offset_ + len);
  offset_ += len;
  return out;
}

Result<std::string> ByteReader::ReadCString() {
  DEPSURF_ASSIGN_OR_RETURN(view, ReadCStringView());
  return std::string(view);
}

Result<std::string_view> ByteReader::ReadCStringView() {
  // Scan without touching the cursor so a failed read leaves the reader
  // where it was (callers may salvage by skipping the bad record).
  const void* nul = offset_ < size_ ? memchr(data_ + offset_, 0, size_ - offset_) : nullptr;
  if (nul == nullptr) {
    return Error(ErrorCode::kMalformedData, "unterminated string").WithOffset(offset_);
  }
  size_t end = static_cast<size_t>(static_cast<const uint8_t*>(nul) - data_);
  std::string_view out(reinterpret_cast<const char*>(data_ + offset_), end - offset_);
  offset_ = end + 1;  // consume NUL
  return out;
}

Result<std::string> ByteReader::ReadCStringAt(size_t offset) const {
  if (offset >= size_) {
    return Error(ErrorCode::kOutOfRange, "string offset beyond buffer").WithOffset(offset);
  }
  size_t end = offset;
  while (end < size_ && data_[end] != 0) {
    ++end;
  }
  if (end >= size_) {
    return Error(ErrorCode::kMalformedData, "unterminated string").WithOffset(offset);
  }
  return std::string(reinterpret_cast<const char*>(data_ + offset), end - offset);
}

Result<ByteReader> ByteReader::Slice(size_t offset, size_t len) const {
  if (offset > size_ || len > size_ - offset) {
    return Error(ErrorCode::kOutOfRange, "slice beyond buffer").WithOffset(offset);
  }
  return ByteReader(data_ + offset, len, endian_);
}

}  // namespace depsurf
