#include <gtest/gtest.h>

#include "src/dwarf/dwarf.h"
#include "src/dwarf/dwarf_codec.h"
#include "src/dwarf/function_view.h"
#include "tests/dwarf_reference.h"

namespace depsurf {
namespace {

// What extraction reads from `doc` once kernelgen has written it.
Result<InstanceMap> ReadInstances(const DwarfDocument& doc) {
  DwarfSections sections = EncodeDwarf(doc);
  return ReadFunctionInstances(ByteReader(sections.abbrev), ByteReader(sections.info));
}

// The reader's error message for `doc`, or "ok".
std::string ReadError(const DwarfDocument& doc) {
  auto result = ReadInstances(doc);
  return result.ok() ? "ok" : result.error().message();
}

// Builds the paper's vfs_fsync example: defined in fs/sync.c, inlined into
// the fsync/fdatasync syscalls in the same TU, called out of line from
// fs/aio.c.
DwarfDocument MakeVfsFsyncDocument() {
  DwarfDocument doc;
  uint32_t cu_sync = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu_sync, DwAttr::kName, "fs/sync.c");

  uint32_t vfs_fsync = doc.AddDie(DwTag::kSubprogram, cu_sync);
  doc.SetString(vfs_fsync, DwAttr::kName, "vfs_fsync");
  doc.SetString(vfs_fsync, DwAttr::kDeclFile, "fs/sync.c");
  doc.SetNumber(vfs_fsync, DwAttr::kDeclLine, 213);
  doc.SetFlag(vfs_fsync, DwAttr::kExternal);
  doc.SetNumber(vfs_fsync, DwAttr::kInline, static_cast<uint64_t>(DwInl::kInlined));
  doc.SetNumber(vfs_fsync, DwAttr::kLowPc, 0xffffffff81234000ull);
  uint32_t param = doc.AddDie(DwTag::kFormalParameter, vfs_fsync);
  doc.SetString(param, DwAttr::kName, "file");

  uint32_t sys_fsync = doc.AddDie(DwTag::kSubprogram, cu_sync);
  doc.SetString(sys_fsync, DwAttr::kName, "__x64_sys_fsync");
  doc.SetNumber(sys_fsync, DwAttr::kLowPc, 0xffffffff81234100ull);
  uint32_t inl = doc.AddDie(DwTag::kInlinedSubroutine, sys_fsync);
  doc.SetNumber(inl, DwAttr::kAbstractOrigin, vfs_fsync);

  uint32_t cu_aio = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu_aio, DwAttr::kName, "fs/aio.c");
  uint32_t aio_fsync = doc.AddDie(DwTag::kSubprogram, cu_aio);
  doc.SetString(aio_fsync, DwAttr::kName, "aio_fsync_work");
  doc.SetNumber(aio_fsync, DwAttr::kLowPc, 0xffffffff81250000ull);
  uint32_t call = doc.AddDie(DwTag::kCallSite, aio_fsync);
  doc.SetNumber(call, DwAttr::kCallOrigin, vfs_fsync);

  return doc;
}

TEST(DwarfDocumentTest, TreeStructure) {
  DwarfDocument doc = MakeVfsFsyncDocument();
  EXPECT_EQ(doc.roots().size(), 2u);
  EXPECT_EQ(doc.num_dies(), 8u);
  const Die& cu = doc.die(doc.roots()[0]);
  EXPECT_EQ(cu.tag, DwTag::kCompileUnit);
  EXPECT_EQ(cu.children.size(), 2u);
  EXPECT_EQ(cu.GetString(DwAttr::kName).value(), "fs/sync.c");
  EXPECT_FALSE(cu.GetString(DwAttr::kDeclFile).has_value());
  EXPECT_FALSE(cu.GetNumber(DwAttr::kDeclLine).has_value());
}

TEST(DwarfCodecTest, RoundTripPreservesEverything) {
  for (Endian endian : {Endian::kLittle, Endian::kBig}) {
    DwarfDocument doc = MakeVfsFsyncDocument();
    DwarfSections sections = EncodeDwarf(doc, endian);
    EXPECT_FALSE(sections.abbrev.empty());
    EXPECT_FALSE(sections.info.empty());

    auto decoded = DecodeDwarf(sections.abbrev, sections.info, endian);
    ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
    ASSERT_EQ(decoded->num_dies(), doc.num_dies());
    ASSERT_EQ(decoded->roots().size(), doc.roots().size());

    // Arena order equals pre-order for this document, so DIEs align 1:1.
    for (uint32_t i = 1; i <= doc.num_dies(); ++i) {
      const Die& a = doc.die(i);
      const Die& b = decoded->die(i);
      EXPECT_EQ(a.tag, b.tag) << "die " << i;
      ASSERT_EQ(a.attrs.size(), b.attrs.size());
      for (size_t k = 0; k < a.attrs.size(); ++k) {
        EXPECT_EQ(a.attrs[k].attr, b.attrs[k].attr);
        EXPECT_EQ(a.attrs[k].str, b.attrs[k].str);
        if (FormOf(a.attrs[k].attr) != DwForm::kString) {
          EXPECT_EQ(a.attrs[k].num, b.attrs[k].num);
        }
      }
      EXPECT_EQ(a.children.size(), b.children.size());
    }
  }
}

TEST(DwarfCodecTest, AbbrevSharing) {
  // Two subprograms with identical attribute shapes must share one abbrev.
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  for (const char* name : {"f", "g", "h"}) {
    uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
    doc.SetString(sub, DwAttr::kName, name);
    doc.SetNumber(sub, DwAttr::kLowPc, 0x1000);
  }
  DwarfSections one = EncodeDwarf(doc);

  DwarfDocument doc_single;
  uint32_t cu2 = doc_single.AddDie(DwTag::kCompileUnit, 0);
  doc_single.SetString(cu2, DwAttr::kName, "a.c");
  uint32_t sub = doc_single.AddDie(DwTag::kSubprogram, cu2);
  doc_single.SetString(sub, DwAttr::kName, "f");
  doc_single.SetNumber(sub, DwAttr::kLowPc, 0x1000);
  DwarfSections single = EncodeDwarf(doc_single);

  EXPECT_EQ(one.abbrev.size(), single.abbrev.size());
}

TEST(DwarfCodecTest, RejectsTruncatedInfo) {
  DwarfSections sections = EncodeDwarf(MakeVfsFsyncDocument());
  std::vector<uint8_t> truncated(sections.info.begin(),
                                 sections.info.begin() + sections.info.size() - 4);
  // Either a parse error or (rarely) a clean prefix; must not crash. The
  // cut below lands mid-DIE, so it must error.
  EXPECT_FALSE(
      ReadFunctionInstances(ByteReader(sections.abbrev), ByteReader(truncated)).ok());
  EXPECT_FALSE(DecodeDwarf(sections.abbrev, truncated).ok());
}

TEST(DwarfCodecTest, RejectsBadAbbrevCode) {
  DwarfSections sections = EncodeDwarf(MakeVfsFsyncDocument());
  std::vector<uint8_t> info = {0x7f};  // abbrev code 127: out of range
  auto read = ReadFunctionInstances(ByteReader(sections.abbrev), ByteReader(info));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().ToString(), DecodeDwarf(sections.abbrev, info).error().ToString());
}

TEST(DwarfCodecTest, EmptyDocumentRoundTrips) {
  DwarfDocument doc;
  DwarfSections sections = EncodeDwarf(doc);
  auto decoded = DecodeDwarf(sections.abbrev, sections.info);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_dies(), 0u);
  auto read = ReadInstances(doc);
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_TRUE(read->empty());
}

TEST(FunctionViewTest, PaperExampleShape) {
  DwarfDocument doc = MakeVfsFsyncDocument();
  auto result = ReadInstances(doc);
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  const auto& instances = *result;
  ASSERT_EQ(instances.count("vfs_fsync"), 1u);
  const FunctionInstance& inst = instances.at("vfs_fsync")[0];
  EXPECT_EQ(inst.decl_file, "fs/sync.c");
  EXPECT_EQ(inst.decl_line, 213u);
  EXPECT_TRUE(inst.external);
  EXPECT_EQ(inst.inline_attr, DwInl::kInlined);
  EXPECT_TRUE(inst.HasCode());
  ASSERT_EQ(inst.caller_inline.size(), 1u);
  EXPECT_EQ(inst.caller_inline[0], "fs/sync.c:__x64_sys_fsync");
  ASSERT_EQ(inst.caller_func.size(), 1u);
  EXPECT_EQ(inst.caller_func[0], "fs/aio.c:aio_fsync_work");
}

TEST(FunctionViewTest, SurvivesCodecRoundTrip) {
  for (Endian endian : {Endian::kLittle, Endian::kBig}) {
    DwarfSections sections = EncodeDwarf(MakeVfsFsyncDocument(), endian);
    auto result = ReadFunctionInstances(ByteReader(sections.abbrev, endian),
                                        ByteReader(sections.info, endian));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->at("vfs_fsync")[0].caller_func[0], "fs/aio.c:aio_fsync_work");
    EXPECT_EQ(result->at("vfs_fsync")[0].low_pc, 0xffffffff81234000ull);
  }
}

TEST(FunctionViewTest, FullyInlinedInstanceHasNoCode) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "block/blk-core.c");
  uint32_t target = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(target, DwAttr::kName, "blk_account_io_start");
  doc.SetNumber(target, DwAttr::kInline, static_cast<uint64_t>(DwInl::kDeclaredInlined));
  uint32_t caller = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(caller, DwAttr::kName, "blk_mq_submit_bio");
  doc.SetNumber(caller, DwAttr::kLowPc, 0x9000);
  uint32_t site = doc.AddDie(DwTag::kInlinedSubroutine, caller);
  doc.SetNumber(site, DwAttr::kAbstractOrigin, target);

  auto result = ReadInstances(doc);
  ASSERT_TRUE(result.ok());
  const FunctionInstance& inst = result->at("blk_account_io_start")[0];
  EXPECT_FALSE(inst.HasCode());
  EXPECT_EQ(inst.inline_attr, DwInl::kDeclaredInlined);
  EXPECT_EQ(inst.caller_inline.size(), 1u);
  EXPECT_TRUE(inst.caller_func.empty());
}

TEST(FunctionViewTest, DuplicatedStaticYieldsMultipleInstances) {
  DwarfDocument doc;
  for (const char* file : {"fs/ext4/super.c", "fs/xfs/super.c"}) {
    uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
    doc.SetString(cu, DwAttr::kName, file);
    uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
    doc.SetString(sub, DwAttr::kName, "get_order");
    doc.SetString(sub, DwAttr::kDeclFile, "include/asm-generic/getorder.h");
    doc.SetNumber(sub, DwAttr::kLowPc, 0x1000);
  }
  auto result = ReadInstances(doc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->at("get_order").size(), 2u);
  EXPECT_EQ(result->at("get_order")[0].decl_file, "include/asm-generic/getorder.h");
}

TEST(FunctionViewTest, RejectsOriginPointingAtNonSubprogram) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(sub, DwAttr::kName, "f");
  uint32_t site = doc.AddDie(DwTag::kInlinedSubroutine, sub);
  doc.SetNumber(site, DwAttr::kAbstractOrigin, cu);  // bogus: CU, not subprogram
  EXPECT_EQ(ReadError(doc), "call origin is not a subprogram");
}

TEST(FunctionViewTest, RejectsOriginBeyondTheDocument) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(sub, DwAttr::kName, "f");
  uint32_t site = doc.AddDie(DwTag::kCallSite, sub);
  doc.SetNumber(site, DwAttr::kCallOrigin, doc.num_dies() + 1);
  EXPECT_EQ(ReadError(doc), "DIE reference out of range");
}

TEST(FunctionViewTest, RejectsOriginWithHighBitsSet) {
  // The low 32 bits name a real subprogram; the reference as a whole does
  // not, so it must not resolve to it.
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  uint32_t target = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(target, DwAttr::kName, "target");
  uint32_t caller = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(caller, DwAttr::kName, "caller");
  uint32_t site = doc.AddDie(DwTag::kInlinedSubroutine, caller);
  doc.SetNumber(site, DwAttr::kAbstractOrigin, (1ull << 32) | target);
  EXPECT_EQ(ReadError(doc), "DIE reference out of range");
}

TEST(FunctionViewTest, OriginLaterInTheStreamResolves) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  uint32_t caller = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(caller, DwAttr::kName, "caller");
  uint32_t inl = doc.AddDie(DwTag::kInlinedSubroutine, caller);
  uint32_t call = doc.AddDie(DwTag::kCallSite, caller);
  uint32_t target = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(target, DwAttr::kName, "target");
  doc.SetNumber(inl, DwAttr::kAbstractOrigin, target);
  doc.SetNumber(call, DwAttr::kCallOrigin, target);
  auto result = ReadInstances(doc);
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  const FunctionInstance& inst = result->at("target")[0];
  EXPECT_EQ(inst.caller_inline, std::vector<std::string>{"a.c:caller"});
  EXPECT_EQ(inst.caller_func, std::vector<std::string>{"a.c:caller"});
}

TEST(FunctionViewTest, FirstOfARepeatedAttributeCounts) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  doc.SetString(cu, DwAttr::kName, "b.c");
  uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(sub, DwAttr::kName, "first");
  doc.SetString(sub, DwAttr::kName, "second");
  doc.SetNumber(sub, DwAttr::kDeclLine, 7);
  doc.SetNumber(sub, DwAttr::kDeclLine, 9);
  doc.SetNumber(sub, DwAttr::kLowPc, 0x10);
  doc.SetNumber(sub, DwAttr::kLowPc, 0x20);
  auto result = ReadInstances(doc);
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  ASSERT_EQ(result->size(), 1u);
  const FunctionInstance& inst = result->at("first")[0];
  EXPECT_EQ(inst.decl_file, "a.c");
  EXPECT_EQ(inst.decl_line, 7u);
  EXPECT_EQ(inst.low_pc, 0x10u);
}

TEST(FunctionViewTest, RejectsAnonymousSubprogram) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  doc.AddDie(DwTag::kSubprogram, cu);
  EXPECT_EQ(ReadError(doc), "subprogram without a name");
}

}  // namespace
}  // namespace depsurf
