// DecodeBtf against its oracle, the owning decoder in tests/btf_reference.h:
// on every input both must yield the same types, field for field, or fail
// with the same error code, message and offset. Inputs are the .BTF
// sections of the five LTS images, of a big-endian ppc image and of an
// arm32 image, and seeded mutations of a small section that has every
// kind the builders make. The LTS graphs also check the (kind, name)
// lookups against a scan in id order.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "src/btf/btf_codec.h"
#include "src/elf/elf_reader.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/util/prng.h"
#include "tests/btf_reference.h"

namespace depsurf {
namespace {

struct Section {
  std::vector<uint8_t> bytes;
  Endian endian = Endian::kLittle;
};

// The .BTF section of a generated image.
Section ImageBtf(KernelVersion version, Arch arch = Arch::kX86) {
  KernelModel model(2025, 0.02, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(version, arch));
  EXPECT_TRUE(kernel.ok());
  auto image = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
  EXPECT_TRUE(image.ok());
  auto reader = ElfReader::Parse(image.TakeValue());
  EXPECT_TRUE(reader.ok());
  auto data = reader->SectionDataByName(".BTF");
  EXPECT_TRUE(data.ok());
  return Section{data->ReadBytes(data->size()).TakeValue(), reader->endian()};
}

const KernelVersion kLts[] = {KernelVersion(4, 4), KernelVersion(4, 15), KernelVersion(5, 4),
                              KernelVersion(5, 15), KernelVersion(6, 8)};

// A small section with every kind the builders make, names shared between
// types and runs, and a negative enumerator.
Section SmallSection(Endian endian) {
  TypeGraph g;
  BtfTypeId i = g.Int("int", 4);
  BtfTypeId ch = g.Int("char", 1);
  BtfTypeId file = g.Struct("file", 16, {{"f_count", i, 0}, {"f_name", g.Ptr(ch), 64}});
  g.Union("", 8, {{"a", i, 0}, {"file", g.Ptr(file), 0}});
  g.Enum("state", {{"A", 0}, {"B", -1}});
  g.Fwd("sock");
  g.Typedef("u64", g.Int("long long unsigned int", 8));
  g.Volatile(g.Const(g.Array(ch, 16)));
  g.Float("double", 8);
  g.Func("vfs_fsync", g.FuncProto(i, {{"file", g.Ptr(file)}, {"datasync", i}}));
  return Section{EncodeBtf(g, endian), endian};
}

uint32_t Get32(const std::vector<uint8_t>& bytes, size_t at, Endian endian) {
  ByteReader r(bytes.data() + at, 4, endian);
  return r.ReadU32().value();
}

void Put32(std::vector<uint8_t>& bytes, size_t at, uint32_t v, Endian endian) {
  ByteWriter w(endian);
  w.WriteU32(v);
  std::copy(w.bytes().begin(), w.bytes().end(), bytes.begin() + static_cast<ptrdiff_t>(at));
}

// Header fields, by byte offset in the section.
constexpr size_t kTypeLenAt = 12;
constexpr size_t kStrOffAt = 16;
constexpr size_t kStrLenAt = 20;

// Section offsets of each record of a well-formed section, and of each
// run entry's name word.
struct Layout {
  std::vector<size_t> records;
  std::vector<size_t> entry_names;
};

Layout LayoutOf(const Section& s) {
  Layout out;
  const size_t end = kBtfHeaderLen + Get32(s.bytes, kTypeLenAt, s.endian);
  for (size_t at = kBtfHeaderLen; at < end;) {
    out.records.push_back(at);
    const uint32_t info = Get32(s.bytes, at + 4, s.endian);
    const auto kind = static_cast<BtfKind>((info >> 24) & 0x1f);
    const uint32_t vlen = info & 0xffff;
    size_t entry = 0;
    size_t bytes = 12;
    switch (kind) {
      case BtfKind::kInt:
        bytes += 4;
        break;
      case BtfKind::kArray:
        bytes += 12;
        break;
      case BtfKind::kStruct:
      case BtfKind::kUnion:
        entry = 12;
        break;
      case BtfKind::kEnum:
      case BtfKind::kFuncProto:
        entry = 8;
        break;
      default:
        break;
    }
    for (uint32_t k = 0; k < vlen && entry != 0; ++k) {
      out.entry_names.push_back(at + bytes + k * entry);
    }
    at += bytes + vlen * entry;
  }
  return out;
}

TEST(BtfDecodeOracleTest, ImageSectionsMatchReference) {
  std::vector<std::pair<std::string, Section>> inputs;
  for (KernelVersion v : kLts) {
    inputs.emplace_back(v.ToString(), ImageBtf(v));
  }
  inputs.emplace_back("ppc", ImageBtf(KernelVersion(5, 4), Arch::kPpc));
  inputs.emplace_back("arm32", ImageBtf(KernelVersion(5, 4), Arch::kArm32));
  EXPECT_EQ(inputs[5].second.endian, Endian::kBig);
  for (const auto& [label, section] : inputs) {
    ASSERT_FALSE(section.bytes.empty()) << label;
    EXPECT_EQ(DecoderVsReference(section.bytes, section.endian), "") << label;
    auto graph = DecodeBtf(section.bytes, section.endian);
    ASSERT_TRUE(graph.ok()) << label << ": " << graph.error().ToString();
    EXPECT_GT(graph->num_types(), 1000u) << label;
    // The encoder writes the decoded graph back byte for byte.
    EXPECT_EQ(EncodeBtf(*graph, section.endian), section.bytes) << label;
  }
}

// Every (kind, name) of the LTS graphs answers as a scan in id order does:
// with the first id of that kind and name.
TEST(BtfDecodeOracleTest, LtsLookupsAnswerAsALinearScan) {
  for (KernelVersion v : kLts) {
    Section section = ImageBtf(v);
    auto graph = DecodeBtf(section.bytes, section.endian);
    ASSERT_TRUE(graph.ok()) << v.ToString();
    std::map<std::pair<BtfKind, std::string>, BtfTypeId> first;
    for (BtfTypeId id = 1; id <= graph->num_types(); ++id) {
      const BtfTypeView t = *graph->Get(id);
      first.try_emplace({t.kind, std::string(t.name)}, id);
    }
    for (BtfTypeId id = 1; id <= graph->num_types(); ++id) {
      const BtfTypeView t = *graph->Get(id);
      const BtfTypeId want = first.at({t.kind, std::string(t.name)});
      ASSERT_EQ(graph->FindByKindAndName(t.kind, t.name), want)
          << v.ToString() << " id " << id << " " << BtfKindName(t.kind) << " " << t.name;
    }
    EXPECT_FALSE(graph->FindStruct("no_such_struct").has_value());
    EXPECT_FALSE(graph->FindFunc("no_such_func").has_value());
  }
}

TEST(BtfDecodeOracleTest, SingleByteFlipsMatchReference) {
  for (Endian endian : {Endian::kLittle, Endian::kBig}) {
    const Section clean = SmallSection(endian);
    ASSERT_EQ(DecoderVsReference(clean.bytes, endian), "");
    Prng prng(endian == Endian::kLittle ? 11 : 12);
    size_t failed = 0;
    for (size_t at = 0; at < clean.bytes.size(); ++at) {
      for (uint8_t mask : {uint8_t{0xff}, static_cast<uint8_t>(1u << prng.NextBelow(8))}) {
        std::vector<uint8_t> bytes = clean.bytes;
        bytes[at] ^= mask;
        ASSERT_EQ(DecoderVsReference(bytes, endian), "") << "byte " << at << " ^ " << +mask;
        failed += DecodeBtf(bytes, endian).ok() ? 0 : 1;
      }
    }
    EXPECT_GT(failed, clean.bytes.size() / 2);
  }
}

// The type section cut to every length: at each record boundary and at
// every byte inside a record, runs and fixed payloads included.
TEST(BtfDecodeOracleTest, TruncatedTypeSectionsMatchReference) {
  for (Endian endian : {Endian::kLittle, Endian::kBig}) {
    const Section clean = SmallSection(endian);
    const uint32_t type_len = Get32(clean.bytes, kTypeLenAt, endian);
    const Layout layout = LayoutOf(clean);
    ASSERT_GE(layout.records.size(), 15u);
    size_t failed = 0;
    for (uint32_t cut = 0; cut <= type_len; ++cut) {
      std::vector<uint8_t> bytes = clean.bytes;
      Put32(bytes, kTypeLenAt, cut, endian);
      ASSERT_EQ(DecoderVsReference(bytes, endian), "") << "type_len " << cut;
      failed += DecodeBtf(bytes, endian).ok() ? 0 : 1;
    }
    // Cuts at record boundaries decode (dangling references aside); the
    // rest fail.
    EXPECT_GE(failed, type_len - layout.records.size());
  }
}

TEST(BtfDecodeOracleTest, BadNamesMatchReference) {
  for (Endian endian : {Endian::kLittle, Endian::kBig}) {
    const Section clean = SmallSection(endian);
    const Layout layout = LayoutOf(clean);
    const uint32_t str_len = Get32(clean.bytes, kStrLenAt, endian);
    // Name offsets at and past the end of the string table, on each type
    // and on each run entry.
    std::vector<size_t> name_words = layout.records;
    name_words.insert(name_words.end(), layout.entry_names.begin(), layout.entry_names.end());
    for (size_t at : name_words) {
      for (uint32_t off : {str_len, str_len + 1, 0xffffffffu}) {
        std::vector<uint8_t> bytes = clean.bytes;
        Put32(bytes, at, off, endian);
        ASSERT_EQ(DecoderVsReference(bytes, endian), "") << "name word " << at << " = " << off;
        EXPECT_FALSE(DecodeBtf(bytes, endian).ok());
      }
    }
    // The last string unterminated: the table loses its final NUL, so
    // every name at that string fails.
    std::vector<uint8_t> bytes = clean.bytes;
    Put32(bytes, kStrLenAt, str_len - 1, endian);
    EXPECT_EQ(DecoderVsReference(bytes, endian), "");
    EXPECT_FALSE(DecodeBtf(bytes, endian).ok());
    // And a table with no NUL at all.
    bytes = clean.bytes;
    const size_t strings = kBtfHeaderLen + Get32(clean.bytes, kStrOffAt, endian);
    for (size_t at = strings; at < strings + str_len; ++at) {
      bytes[at] = bytes[at] == 0 ? 'x' : bytes[at];
    }
    EXPECT_EQ(DecoderVsReference(bytes, endian), "");
  }
}

TEST(BtfDecodeOracleTest, InflatedVlenAndUnknownKindsMatchReference) {
  for (Endian endian : {Endian::kLittle, Endian::kBig}) {
    const Section clean = SmallSection(endian);
    const Layout layout = LayoutOf(clean);
    for (size_t at : layout.records) {
      const uint32_t info = Get32(clean.bytes, at + 4, endian);
      for (uint32_t vlen : {(info & 0xffff) + 1, (info & 0xffff) + 2, 0xffffu}) {
        std::vector<uint8_t> bytes = clean.bytes;
        Put32(bytes, at + 4, (info & 0xffff0000u) | vlen, endian);
        ASSERT_EQ(DecoderVsReference(bytes, endian), "") << "record " << at << " vlen " << vlen;
      }
      for (uint32_t kind : {14u, 15u, 17u}) {
        std::vector<uint8_t> bytes = clean.bytes;
        Put32(bytes, at + 4, (info & ~(0x1fu << 24)) | (kind << 24), endian);
        ASSERT_EQ(DecoderVsReference(bytes, endian), "") << "record " << at << " kind " << kind;
        auto decoded = DecodeBtf(bytes, endian);
        ASSERT_FALSE(decoded.ok());
        EXPECT_EQ(decoded.error().code(), ErrorCode::kUnsupported);
        EXPECT_EQ(decoded.error().offset(), at - kBtfHeaderLen + 4);
      }
    }
  }
}

// Seeded multi-byte damage over the small section: several random bytes
// and words at once, with words biased toward the header and name words.
TEST(BtfDecodeOracleTest, SeededMutationsMatchReference) {
  for (Endian endian : {Endian::kLittle, Endian::kBig}) {
    const Section clean = SmallSection(endian);
    const Layout layout = LayoutOf(clean);
    Prng prng(endian == Endian::kLittle ? 2025 : 601);
    for (int round = 0; round < 2000; ++round) {
      std::vector<uint8_t> bytes = clean.bytes;
      const int edits = 1 + static_cast<int>(prng.NextBelow(4));
      for (int e = 0; e < edits; ++e) {
        switch (prng.NextBelow(3)) {
          case 0:
            bytes[prng.NextBelow(bytes.size())] = static_cast<uint8_t>(prng.NextBelow(256));
            break;
          case 1: {
            const size_t at = layout.entry_names[prng.NextBelow(layout.entry_names.size())];
            Put32(bytes, at, static_cast<uint32_t>(prng.NextBelow(160)), endian);
            break;
          }
          default: {
            const size_t at = 8 + 4 * prng.NextBelow(4);  // type/str offsets and lengths
            Put32(bytes, at, static_cast<uint32_t>(prng.NextBelow(bytes.size() + 8)), endian);
            break;
          }
        }
      }
      ASSERT_EQ(DecoderVsReference(bytes, endian), "") << "round " << round;
    }
  }
}

}  // namespace
}  // namespace depsurf
