#include "src/util/byte_buffer.h"

#include <gtest/gtest.h>

namespace depsurf {
namespace {

TEST(ByteWriterTest, LittleEndianLayout) {
  ByteWriter w(Endian::kLittle);
  w.WriteU16(0x1234);
  w.WriteU32(0xdeadbeef);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], 0x34);
  EXPECT_EQ(b[1], 0x12);
  EXPECT_EQ(b[2], 0xef);
  EXPECT_EQ(b[3], 0xbe);
  EXPECT_EQ(b[4], 0xad);
  EXPECT_EQ(b[5], 0xde);
}

TEST(ByteWriterTest, BigEndianLayout) {
  ByteWriter w(Endian::kBig);
  w.WriteU32(0x01020304);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[3], 0x04);
}

TEST(ByteWriterTest, AlignTo) {
  ByteWriter w;
  w.WriteU8(1);
  w.AlignTo(4);
  EXPECT_EQ(w.size(), 4u);
  w.AlignTo(4);
  EXPECT_EQ(w.size(), 4u);  // already aligned, no change
}

TEST(ByteWriterTest, PatchU32) {
  ByteWriter w;
  w.WriteU32(0);
  w.WriteU32(7);
  ASSERT_TRUE(w.PatchU32(0, 0xabcd).ok());
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadU32().value(), 0xabcdu);
  EXPECT_EQ(r.ReadU32().value(), 7u);
}

TEST(ByteWriterTest, PatchOutOfRangeFails) {
  ByteWriter w;
  w.WriteU16(1);
  EXPECT_FALSE(w.PatchU32(0, 1).ok());
}

TEST(ByteReaderTest, RoundTripMixed) {
  for (Endian e : {Endian::kLittle, Endian::kBig}) {
    ByteWriter w(e);
    w.WriteU8(0xff);
    w.WriteU16(0xbeef);
    w.WriteU32(0x12345678);
    w.WriteU64(0xfedcba9876543210ull);
    w.WriteCString("vfs_fsync");

    ByteReader r(w.bytes(), e);
    EXPECT_EQ(r.ReadU8().value(), 0xff);
    EXPECT_EQ(r.ReadU16().value(), 0xbeef);
    EXPECT_EQ(r.ReadU32().value(), 0x12345678u);
    EXPECT_EQ(r.ReadU64().value(), 0xfedcba9876543210ull);
    EXPECT_EQ(r.ReadCString().value(), "vfs_fsync");
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(ByteReaderTest, AddrWidths) {
  ByteWriter w(Endian::kBig);
  w.WriteAddr(0x11223344, 4);
  w.WriteAddr(0x1122334455667788ull, 8);
  ByteReader r(w.bytes(), Endian::kBig);
  EXPECT_EQ(r.ReadAddr(4).value(), 0x11223344u);
  EXPECT_EQ(r.ReadAddr(8).value(), 0x1122334455667788ull);
  EXPECT_FALSE(ByteReader(w.bytes()).ReadAddr(3).ok());
}

TEST(ByteReaderTest, OutOfRangeReads) {
  std::vector<uint8_t> two = {1, 2};
  ByteReader r(two);
  EXPECT_TRUE(r.ReadU16().ok());
  EXPECT_FALSE(r.ReadU8().ok());
  EXPECT_FALSE(r.ReadU32().ok());
}

TEST(ByteReaderTest, UnterminatedString) {
  std::vector<uint8_t> bytes = {'a', 'b', 'c'};
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadCString().ok());
  EXPECT_FALSE(r.ReadCStringView().ok());
  ByteReader empty(nullptr, 0);
  EXPECT_FALSE(empty.ReadCStringView().ok());
  // A view points into the buffer itself.
  std::vector<uint8_t> terminated = {'a', 'b', 0};
  ByteReader t(terminated);
  auto view = t.ReadCStringView();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(*view, "ab");
  EXPECT_EQ(static_cast<const void*>(view->data()), terminated.data());
  EXPECT_TRUE(t.AtEnd());
}

TEST(ByteReaderTest, CStringAtDoesNotMoveCursor) {
  ByteWriter w;
  w.WriteCString("first");
  w.WriteCString("second");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadCStringAt(6).value(), "second");
  EXPECT_EQ(r.offset(), 0u);
  EXPECT_FALSE(r.ReadCStringAt(100).ok());
}

TEST(ByteReaderTest, SliceBounds) {
  ByteWriter w;
  w.WriteU32(0xaabbccdd);
  ByteReader r(w.bytes());
  auto slice = r.Slice(1, 2);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->size(), 2u);
  EXPECT_FALSE(r.Slice(3, 2).ok());
  EXPECT_FALSE(r.Slice(5, 0).ok());
}

TEST(ByteReaderTest, SeekSkip) {
  std::vector<uint8_t> bytes(10, 0);
  ByteReader r(bytes);
  EXPECT_TRUE(r.Seek(10).ok());
  EXPECT_FALSE(r.Seek(11).ok());
  ASSERT_TRUE(r.Seek(2).ok());
  EXPECT_TRUE(r.Skip(8).ok());
  EXPECT_FALSE(r.Skip(1).ok());
}

// ---- Bounds audit: the adversarial cases salvage-mode extraction leans
// on. Every failure must carry the byte offset where parsing died, and
// must leave the reader in a usable state.

TEST(ByteReaderTest, ErrorsCarryByteOffsets) {
  std::vector<uint8_t> bytes = {'a', 'b', 'c'};
  ByteReader r(bytes);
  ASSERT_TRUE(r.Skip(1).ok());
  Result<std::string> unterminated = r.ReadCString();
  ASSERT_FALSE(unterminated.ok());
  ASSERT_TRUE(unterminated.error().offset().has_value());
  EXPECT_EQ(*unterminated.error().offset(), 1u);

  ByteReader r2(bytes);
  ASSERT_TRUE(r2.Skip(2).ok());
  Result<uint32_t> past_end = r2.ReadU32();
  ASSERT_FALSE(past_end.ok());
  ASSERT_TRUE(past_end.error().offset().has_value());
  EXPECT_EQ(*past_end.error().offset(), 2u);
}

TEST(ByteReaderTest, FailedCStringDoesNotMoveCursor) {
  // A failed read must not corrupt the cursor: salvage loops skip the bad
  // record and keep going from a known position.
  std::vector<uint8_t> bytes = {'x', 'y', 'z'};
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadCString().ok());
  EXPECT_EQ(r.offset(), 0u);
}

TEST(ByteReaderTest, ReadUintRejectsInvalidWidths) {
  std::vector<uint8_t> bytes(16, 0x7f);
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadUint(0).ok());
  EXPECT_FALSE(r.ReadUint(9).ok());
  EXPECT_FALSE(r.ReadUint(-1).ok());
  EXPECT_TRUE(r.ReadUint(1).ok());
  EXPECT_TRUE(r.ReadUint(8).ok());
}

TEST(ByteReaderTest, SliceOverflowDoesNotWrap) {
  // offset + len computed naively wraps on hostile 64-bit values; the
  // check must reject, not wrap into an in-bounds read.
  std::vector<uint8_t> bytes(8, 0);
  ByteReader r(bytes);
  EXPECT_FALSE(r.Slice(4, UINT64_MAX).ok());
  EXPECT_FALSE(r.Slice(UINT64_MAX, 4).ok());
  EXPECT_FALSE(r.Slice(UINT64_MAX, UINT64_MAX).ok());
}

TEST(ByteReaderTest, OverlappingSlicesAreIndependent) {
  std::vector<uint8_t> bytes = {0, 1, 2, 3, 4, 5, 6, 7};
  ByteReader r(bytes);
  auto a = r.Slice(0, 6);
  auto b = r.Slice(4, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a->Skip(4).ok());
  EXPECT_EQ(a->ReadU8().value(), 4u);
  EXPECT_EQ(b->ReadU8().value(), 4u);  // b's cursor unaffected by a's
  EXPECT_EQ(b->ReadU8().value(), 5u);
}

TEST(ByteWriterTest, PatchU32OutOfRangeRejected) {
  ByteWriter w;
  w.WriteU32(0);
  EXPECT_TRUE(w.PatchU32(0, 42).ok());
  EXPECT_FALSE(w.PatchU32(1, 42).ok());  // straddles the end
  EXPECT_FALSE(w.PatchU32(UINT64_MAX - 2, 42).ok());  // offset+4 wraps
}

}  // namespace
}  // namespace depsurf
