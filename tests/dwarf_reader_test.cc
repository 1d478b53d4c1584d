// ReadFunctionInstances against its oracle, the DOM decoder and collector in
// tests/dwarf_reference.h: on every input the reader must return an equal
// instance map, or an error with the same Error::ToString(). Inputs are
// whole kernelgen images, seeded mutations of a small image's two sections,
// the property tests' random forests and random documents built to reach
// what kernelgen never writes (origins later in the stream, repeated
// attributes, nested sites and each structural error).
#include <gtest/gtest.h>

#include <set>

#include "src/dwarf/dwarf_codec.h"
#include "src/dwarf/function_view.h"
#include "src/elf/elf_reader.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/obs/context.h"
#include "src/obs/span.h"
#include "src/util/str_util.h"
#include "tests/dwarf_reference.h"

namespace depsurf {
namespace {

// The two DWARF sections of a generated x86 image.
DwarfSections ImageSections(uint64_t seed, double scale, KernelVersion version) {
  KernelModel model(seed, scale, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(version));
  EXPECT_TRUE(kernel.ok());
  auto image = BuildKernelImage(CompileKernel(seed, kernel.TakeValue()));
  EXPECT_TRUE(image.ok());
  auto reader = ElfReader::Parse(image.TakeValue());
  EXPECT_TRUE(reader.ok());
  DwarfSections out;
  for (auto [name, bytes] : {std::pair{".sdwarf_abbrev", &out.abbrev},
                             std::pair{".sdwarf_info", &out.info}}) {
    auto data = reader->SectionDataByName(name);
    EXPECT_TRUE(data.ok());
    *bytes = data->ReadBytes(data->size()).TakeValue();
  }
  return out;
}

// "" when the reader agrees with the reference on these bytes.
std::string ReaderVsReference(const std::vector<uint8_t>& abbrev,
                              const std::vector<uint8_t>& info,
                              Endian endian = Endian::kLittle,
                              Result<InstanceMap>* read_out = nullptr) {
  Result<InstanceMap> read =
      ToInstanceMap(ReadFunctionInstances(ByteReader(abbrev, endian), ByteReader(info, endian)));
  std::string diff =
      InstanceMapDifference(read, ReferenceFunctionInstances(abbrev, info, endian));
  if (read_out != nullptr) {
    *read_out = std::move(read);
  }
  return diff;
}

TEST(DwarfReaderOracleTest, MatchesReferenceOnKernelImages) {
  const KernelVersion kLts[] = {KernelVersion(4, 4), KernelVersion(4, 15), KernelVersion(5, 4),
                                KernelVersion(5, 15), KernelVersion(6, 8)};
  for (uint64_t seed : {2025u, 601u}) {
    for (const KernelVersion& version : kLts) {
      DwarfSections sections = ImageSections(seed, 0.05, version);
      Result<InstanceMap> read = InstanceMap();
      EXPECT_EQ(ReaderVsReference(sections.abbrev, sections.info, Endian::kLittle, &read), "")
          << "seed " << seed << " v" << version.ToString();
      ASSERT_TRUE(read.ok()) << read.error().ToString();
      EXPECT_GT(read->size(), 100u);
    }
  }
}

// Flips a bit, cuts the section short, or overwrites a byte with a small
// value (a likely abbrev code, flag, terminator or reference).
void Mutate(Prng& prng, std::vector<uint8_t>& bytes) {
  if (bytes.empty()) {
    return;
  }
  size_t pos = prng.NextBelow(bytes.size());
  switch (prng.NextBelow(3)) {
    case 0:
      bytes[pos] ^= static_cast<uint8_t>(1u << prng.NextBelow(8));
      break;
    case 1:
      bytes.resize(pos);
      break;
    default:
      bytes[pos] = static_cast<uint8_t>(prng.NextBelow(8));
      break;
  }
}

TEST(DwarfReaderOracleTest, MatchesReferenceOnMutatedSections) {
  const DwarfSections clean = ImageSections(2025, 0.005, KernelVersion(4, 4));
  size_t equal_maps = 0;
  std::set<std::string> errors;
  for (uint64_t i = 0; i < 2400; ++i) {
    Prng prng(i);
    DwarfSections mutated = clean;
    for (uint64_t n = 1 + prng.NextBelow(3); n > 0; --n) {
      Mutate(prng, prng.NextBool(0.2) ? mutated.abbrev : mutated.info);
    }
    Result<InstanceMap> read = InstanceMap();
    ASSERT_EQ(ReaderVsReference(mutated.abbrev, mutated.info, Endian::kLittle, &read), "")
        << "mutation " << i;
    if (read.ok()) {
      ++equal_maps;
    } else {
      // One kind for "attr 0x%x has unexpected form %u", whatever the codes.
      const std::string& message = read.error().message();
      errors.insert(StartsWith(message, "attr 0x") ? "attr has unexpected form" : message);
    }
  }
  // The mix must reach both outcomes and most of the reader's checks (11
  // kinds of error at this writing).
  EXPECT_GT(equal_maps, 200u);
  EXPECT_GE(errors.size(), 10u);
}

TEST(DwarfReaderOracleTest, MatchesReferenceOnRandomForests) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Prng prng(seed ^ 0xd3a);
    DwarfDocument doc = RandomDwarfForest(prng);
    for (Endian endian : {Endian::kLittle, Endian::kBig}) {
      DwarfSections sections = EncodeDwarf(doc, endian);
      ASSERT_EQ(ReaderVsReference(sections.abbrev, sections.info, endian), "")
          << "seed " << seed;
    }
  }
}

// A random document with what the forests above lack: origins later in
// the stream, repeated attributes, sites nested below sites and below
// nested subprograms, compile units without a name and shared function
// names. Some documents also get, each with its own chance, top-level DIEs
// that are not compile units, unnamed subprograms, references past the last
// DIE, origins that are not subprograms and sites without an origin.
DwarfDocument HostileDocument(Prng& prng) {
  const bool bad_roots = prng.NextBool(0.15);
  const bool unnamed = prng.NextBool(0.15);
  const bool bad_refs = prng.NextBool(0.15);
  const bool bad_origins = prng.NextBool(0.15);
  const bool no_origins = prng.NextBool(0.1);
  DwarfDocument doc;
  std::vector<uint32_t> subprograms;
  std::vector<uint32_t> sites;
  size_t num_roots = 1 + prng.NextBelow(4);
  for (size_t r = 0; r < num_roots; ++r) {
    bool is_cu = !(bad_roots && prng.NextBool(0.4));
    uint32_t root = doc.AddDie(is_cu ? DwTag::kCompileUnit : DwTag::kSubprogram, 0);
    if (prng.NextBool(0.8)) {
      doc.SetString(root, DwAttr::kName, StrFormat("dir/cu%zu.c", r));
    }
    if (prng.NextBool(0.1)) {
      doc.SetString(root, DwAttr::kName, "dir/again.c");
    }
    for (size_t c = prng.NextBelow(8); c > 0; --c) {
      bool is_sub = prng.NextBool(0.85);
      uint32_t die =
          doc.AddDie(is_sub ? DwTag::kSubprogram : DwTag::kFormalParameter, root);
      if (is_sub) {
        subprograms.push_back(die);
        if (!(unnamed && prng.NextBool(0.3))) {
          doc.SetString(die, DwAttr::kName, StrFormat("fn%u", (unsigned)prng.NextBelow(6)));
        }
        if (prng.NextBool(0.1)) {
          doc.SetString(die, DwAttr::kName, "fn_repeated");
        }
        for (int k = prng.NextBelow(3); k > 0; --k) {
          doc.SetString(die, DwAttr::kDeclFile, StrFormat("include/h%u.h", (unsigned)k));
        }
        for (int k = prng.NextBelow(3); k > 0; --k) {
          doc.SetNumber(die, DwAttr::kDeclLine, prng.NextBelow(1u << 20));
        }
        if (prng.NextBool(0.5)) {
          doc.SetFlag(die, DwAttr::kExternal);
        }
        for (int k = prng.NextBelow(3); k > 0; --k) {
          doc.SetNumber(die, DwAttr::kInline, prng.NextBelow(4));
        }
        for (int k = prng.NextBelow(3); k > 0; --k) {
          doc.SetNumber(die, DwAttr::kLowPc, prng.NextU64());
        }
      }
      uint32_t parent = die;
      for (size_t s = prng.NextBelow(5); s > 0; --s) {
        uint64_t pick = prng.NextBelow(10);
        DwTag tag = pick < 4   ? DwTag::kInlinedSubroutine
                    : pick < 8 ? DwTag::kCallSite
                    : pick < 9 ? DwTag::kFormalParameter
                               : DwTag::kSubprogram;
        uint32_t site = doc.AddDie(tag, parent);
        if (tag == DwTag::kSubprogram) {
          doc.SetString(site, DwAttr::kName, "nested");
        }
        sites.push_back(site);
        if (prng.NextBool(0.5)) {
          parent = site;
        }
      }
    }
  }
  // Origins are set once every DIE exists, so they point forward as often
  // as back.
  for (uint32_t site : sites) {
    DwTag tag = doc.die(site).tag;
    DwAttr attr = tag == DwTag::kCallSite ? DwAttr::kCallOrigin : DwAttr::kAbstractOrigin;
    if (no_origins && prng.NextBool(0.3)) {
      continue;
    }
    for (int k = prng.NextBool(0.15) ? 2 : 1; k > 0; --k) {
      uint64_t origin = 0;
      if (bad_refs && prng.NextBool(0.3)) {
        origin = doc.num_dies() + 1 + prng.NextBelow(3);
      } else if ((bad_origins && prng.NextBool(0.3)) || subprograms.empty()) {
        origin = 1 + prng.NextBelow(doc.num_dies());
      } else {
        origin = subprograms[prng.NextBelow(subprograms.size())];
      }
      doc.SetNumber(site, attr, origin);
    }
    if (prng.NextBool(0.1)) {
      // The attribute the other site kind reads: read past, never used.
      doc.SetNumber(site, tag == DwTag::kCallSite ? DwAttr::kAbstractOrigin
                                                  : DwAttr::kCallOrigin,
                    1 + prng.NextBelow(doc.num_dies()));
    }
  }
  return doc;
}

TEST(DwarfReaderOracleTest, MatchesReferenceOnHostileDocuments) {
  size_t equal_maps = 0;
  std::set<std::string> errors;
  for (uint64_t seed = 0; seed < 1500; ++seed) {
    Prng prng(seed ^ 0x4057);
    DwarfDocument doc = HostileDocument(prng);
    for (Endian endian : {Endian::kLittle, Endian::kBig}) {
      DwarfSections sections = EncodeDwarf(doc, endian);
      Result<InstanceMap> read = InstanceMap();
      ASSERT_EQ(ReaderVsReference(sections.abbrev, sections.info, endian, &read), "")
          << "seed " << seed;
      if (read.ok()) {
        ++equal_maps;
      } else {
        errors.insert(read.error().message());
      }
    }
  }
  EXPECT_GT(equal_maps, 500u);
  EXPECT_EQ(errors, (std::set<std::string>{"top-level DIE is not a compile unit",
                                           "subprogram without a name",
                                           "DIE reference out of range",
                                           "call origin is not a subprogram"}));
}

// The decode span and the dwarf.* counters describe a clean decode: they
// are recorded once the bytes, nesting and references check out, even when
// the instance-shape checks then fail.
TEST(DwarfReaderTest, RecordsDecodeBeforeShapeChecks) {
  DwarfDocument unnamed;
  uint32_t cu = unnamed.AddDie(DwTag::kCompileUnit, 0);
  unnamed.AddDie(DwTag::kSubprogram, cu);
  DwarfDocument bad_ref;
  cu = bad_ref.AddDie(DwTag::kCompileUnit, 0);
  bad_ref.SetNumber(cu, DwAttr::kAbstractOrigin, 9);
  for (const auto& [doc, decoded] : {std::pair{&unnamed, 1u}, std::pair{&bad_ref, 0u}}) {
    DwarfSections sections = EncodeDwarf(*doc);
    obs::Context context;
    {
      obs::ScopedContext scope(context);
      EXPECT_FALSE(
          ReadFunctionInstances(ByteReader(sections.abbrev), ByteReader(sections.info)).ok());
    }
    EXPECT_EQ(context.metrics().Counter("dwarf.documents_decoded")->load(), decoded);
    EXPECT_EQ(context.metrics().Counter("dwarf.dies_decoded")->load(), decoded * 2);
    std::vector<obs::SpanNode> roots = context.spans().Snapshot();
    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(roots[0].name, "dwarf.decode");
    EXPECT_EQ(roots[0].attrs.size(), decoded ? 4u : 2u);
  }
}

}  // namespace
}  // namespace depsurf
