// Property-based round-trip tests: randomized BTF graphs, DWARF documents,
// ELF objects, and BPF objects must survive encode/decode bit-exactly,
// across seeds (parameterized sweeps).
#include <gtest/gtest.h>

#include "src/bpf/bpf_builder.h"
#include "src/btf/btf_codec.h"
#include "src/dwarf/dwarf_codec.h"
#include "src/dwarf/function_view.h"
#include "src/elf/elf_reader.h"
#include "src/elf/elf_writer.h"
#include "src/util/prng.h"
#include "src/util/str_util.h"
#include "tests/dwarf_reference.h"

namespace depsurf {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

// ---- BTF ---------------------------------------------------------------

TypeGraph RandomGraph(Prng& prng, int num_types) {
  TypeGraph graph;
  for (int i = 0; i < num_types; ++i) {
    switch (prng.NextBelow(8)) {
      case 0:
        graph.Int(StrFormat("int%d", i), 1u << prng.NextBelow(4));
        break;
      case 1: {
        BtfTypeId to = static_cast<BtfTypeId>(prng.NextBelow(graph.num_types() + 1));
        graph.Ptr(to);
        break;
      }
      case 2: {
        std::vector<BtfMember> members;
        size_t n = prng.NextBelow(6);
        for (size_t m = 0; m < n; ++m) {
          members.push_back(BtfMember{StrFormat("f%zu", m),
                                      static_cast<BtfTypeId>(prng.NextBelow(graph.num_types() + 1)),
                                      static_cast<uint32_t>(m * 64)});
        }
        graph.Struct(StrFormat("s%d", i), static_cast<uint32_t>(n * 8), std::move(members));
        break;
      }
      case 3: {
        std::vector<BtfParam> params;
        size_t n = prng.NextBelow(5);
        for (size_t p = 0; p < n; ++p) {
          params.push_back(BtfParam{StrFormat("p%zu", p),
                                    static_cast<BtfTypeId>(prng.NextBelow(graph.num_types() + 1))});
        }
        BtfTypeId proto = graph.FuncProto(
            static_cast<BtfTypeId>(prng.NextBelow(graph.num_types() + 1)), std::move(params));
        graph.Func(StrFormat("fn%d", i), proto);
        break;
      }
      case 4:
        graph.Typedef(StrFormat("td%d", i),
                      static_cast<BtfTypeId>(prng.NextBelow(graph.num_types() + 1)));
        break;
      case 5:
        graph.Array(static_cast<BtfTypeId>(prng.NextBelow(graph.num_types() + 1)),
                    static_cast<uint32_t>(prng.NextBelow(64)));
        break;
      case 6:
        graph.Enum(StrFormat("e%d", i),
                   {{StrFormat("E%d_A", i), 0}, {StrFormat("E%d_B", i), -1}});
        break;
      default:
        graph.Fwd(StrFormat("fwd%d", i));
        break;
    }
  }
  return graph;
}

TEST_P(SeededTest, BtfRoundTripRandomGraphs) {
  Prng prng(GetParam());
  TypeGraph graph = RandomGraph(prng, 40 + static_cast<int>(prng.NextBelow(60)));
  for (Endian endian : {Endian::kLittle, Endian::kBig}) {
    auto decoded = DecodeBtf(EncodeBtf(graph, endian), endian);
    ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
    ASSERT_EQ(decoded->num_types(), graph.num_types());
    for (BtfTypeId id = 1; id <= graph.num_types(); ++id) {
      const BtfType* a = graph.Get(id);
      const BtfType* b = decoded->Get(id);
      ASSERT_EQ(a->kind, b->kind);
      ASSERT_EQ(a->name, b->name);
      ASSERT_EQ(a->ref_type_id, b->ref_type_id);
      ASSERT_EQ(a->members, b->members);
      ASSERT_EQ(a->params, b->params);
    }
  }
}

// ---- DWARF ---------------------------------------------------------------

TEST_P(SeededTest, DwarfRoundTripRandomForests) {
  Prng prng(GetParam() ^ 0xd3a);
  DwarfDocument doc = RandomDwarfForest(prng);
  for (Endian endian : {Endian::kLittle, Endian::kBig}) {
    DwarfSections sections = EncodeDwarf(doc, endian);
    auto decoded = DecodeDwarf(sections.abbrev, sections.info, endian);
    ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
    EXPECT_EQ(decoded->num_dies(), doc.num_dies());
    EXPECT_EQ(decoded->roots().size(), doc.roots().size());
    // The instance view must survive too (references intact): extraction's
    // reader on the bytes sees what the document model says.
    auto original = CollectFunctionInstances(doc);
    auto roundtrip = ToInstanceMap(ReadFunctionInstances(ByteReader(sections.abbrev, endian),
                                                         ByteReader(sections.info, endian)));
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(roundtrip.ok()) << roundtrip.error().ToString();
    EXPECT_EQ(InstanceMapDifference(original, roundtrip), "");
  }
}

// ---- ELF -------------------------------------------------------------------

TEST_P(SeededTest, ElfRoundTripRandomObjects) {
  Prng prng(GetParam() ^ 0xe1f);
  ElfIdent idents[] = {{ElfClass::k64, Endian::kLittle, ElfMachine::kX86_64},
                       {ElfClass::k32, Endian::kLittle, ElfMachine::kArm},
                       {ElfClass::k64, Endian::kBig, ElfMachine::kPpc64}};
  const ElfIdent& ident = idents[prng.NextBelow(3)];
  ElfWriter writer(ident);
  size_t num_sections = 1 + prng.NextBelow(6);
  std::vector<std::pair<std::string, size_t>> expected;
  for (size_t i = 0; i < num_sections; ++i) {
    std::vector<uint8_t> data(prng.NextBelow(512));
    for (auto& byte : data) {
      byte = static_cast<uint8_t>(prng.NextU64());
    }
    std::string name = StrFormat(".sec%zu", i);
    expected.emplace_back(name, data.size());
    writer.AddSection(name, SectionType::kProgbits, std::move(data), 0x1000 * (i + 1),
                      kShfAlloc);
  }
  size_t num_symbols = prng.NextBelow(40);
  for (size_t i = 0; i < num_symbols; ++i) {
    ElfSymbol sym;
    sym.name = StrFormat("sym%zu", i);
    sym.value = prng.NextBelow(1u << 30);
    sym.bind = prng.NextBool(0.5) ? SymBind::kLocal : SymBind::kGlobal;
    sym.type = SymType::kFunc;
    sym.shndx = 1;
    writer.AddSymbol(sym);
  }
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  auto reader = ElfReader::Parse(bytes.TakeValue());
  ASSERT_TRUE(reader.ok()) << reader.error().ToString();
  EXPECT_EQ(reader->symbols().size(), num_symbols);
  for (const auto& [name, size] : expected) {
    const ElfSectionView* section = reader->SectionByName(name);
    ASSERT_NE(section, nullptr) << name;
    EXPECT_EQ(section->size, size);
  }
}

// ---- BPF objects -----------------------------------------------------------

TEST_P(SeededTest, BpfObjectRoundTripRandomPrograms) {
  Prng prng(GetParam() ^ 0xbbf);
  BpfObjectBuilder builder(StrFormat("tool%llu", (unsigned long long)GetParam()));
  size_t num_hooks = 1 + prng.NextBelow(8);
  for (size_t i = 0; i < num_hooks; ++i) {
    std::string target = StrFormat("target_%zu", i);
    switch (prng.NextBelow(5)) {
      case 0:
        builder.AttachKprobe(target);
        break;
      case 1:
        builder.AttachKretprobe(target);
        break;
      case 2:
        builder.AttachTracepoint("cat", target);
        break;
      case 3:
        builder.AttachSyscall(target, prng.NextBool(0.5));
        break;
      default:
        builder.AttachRawTracepoint(target);
        break;
    }
  }
  size_t num_fields = prng.NextBelow(10);
  for (size_t i = 0; i < num_fields; ++i) {
    ASSERT_TRUE(builder
                    .AccessField(StrFormat("st%zu", prng.NextBelow(3)),
                                 StrFormat("fld%zu", i), prng.NextBool(0.5) ? "int" : "u64")
                    .ok());
  }
  BpfObject original = builder.Build();
  auto bytes = WriteBpfObject(original);
  ASSERT_TRUE(bytes.ok());
  auto parsed = ParseBpfObject(bytes.TakeValue());
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  ASSERT_EQ(parsed->programs.size(), original.programs.size());
  for (size_t i = 0; i < original.programs.size(); ++i) {
    EXPECT_EQ(parsed->programs[i].hook, original.programs[i].hook);
  }
  EXPECT_EQ(parsed->relocs, original.relocs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull, 21ull, 34ull,
                                           55ull, 89ull, 144ull, 233ull));

}  // namespace
}  // namespace depsurf
