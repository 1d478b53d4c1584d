#include <gtest/gtest.h>

#include "src/btf/btf_print.h"
#include "src/kmodel/build_spec.h"
#include "src/kmodel/kernel_version.h"
#include "src/kmodel/spec.h"
#include "src/kmodel/type_lang.h"

namespace depsurf {
namespace {

TEST(KernelVersionTest, ParseAndFormat) {
  auto v = KernelVersion::Parse("5.15");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->major, 5);
  EXPECT_EQ(v->minor, 15);
  EXPECT_EQ(v->ToString(), "5.15");
  EXPECT_EQ(v->Tag(), "v5.15");
  EXPECT_EQ(KernelVersion::Parse("v6.8")->minor, 8);
  EXPECT_FALSE(KernelVersion::Parse("6").ok());
  EXPECT_FALSE(KernelVersion::Parse("a.b").ok());
  EXPECT_FALSE(KernelVersion::Parse("5.").ok());
  EXPECT_FALSE(KernelVersion::Parse(".5").ok());
}

TEST(KernelVersionTest, Ordering) {
  EXPECT_LT(KernelVersion(4, 15), KernelVersion(5, 4));
  EXPECT_LT(KernelVersion(5, 4), KernelVersion(5, 15));
  EXPECT_LT(KernelVersion(5, 15), KernelVersion(6, 2));
  EXPECT_EQ(KernelVersion(5, 4), KernelVersion(5, 4));
  EXPECT_NE(KernelVersion(4, 4).Key(), KernelVersion(4, 5).Key());
}

TEST(BuildSpecTest, LabelsAndKeys) {
  BuildSpec spec{KernelVersion(5, 4), Arch::kArm64, Flavor::kGeneric, 9};
  EXPECT_EQ(spec.Label(), "v5.4-arm64-generic-gcc9");
  BuildSpec other = spec;
  other.flavor = Flavor::kAws;
  EXPECT_NE(spec.Key(), other.Key());
  EXPECT_EQ(spec.Key(), BuildSpec{spec}.Key());
}

TEST(BuildSpecTest, ElfIdentPerArch) {
  EXPECT_EQ(ElfIdentFor(Arch::kX86).klass, ElfClass::k64);
  EXPECT_EQ(ElfIdentFor(Arch::kArm32).klass, ElfClass::k32);
  EXPECT_EQ(ElfIdentFor(Arch::kPpc).endian, Endian::kBig);
  EXPECT_EQ(ElfIdentFor(Arch::kRiscv).machine, ElfMachine::kRiscv);
  EXPECT_EQ(ElfIdentFor(Arch::kArm32).pointer_size(), 4);
}

TEST(BuildSpecTest, RegisterLayoutsDiffer) {
  EXPECT_EQ(ParamRegisters(Arch::kX86)[0], "di");
  EXPECT_EQ(ParamRegisters(Arch::kArm64)[0], "regs[0]");
  EXPECT_NE(ParamRegisters(Arch::kX86), ParamRegisters(Arch::kPpc));
  EXPECT_FALSE(CompatSyscallsTraceable(Arch::kX86));
  EXPECT_TRUE(CompatSyscallsTraceable(Arch::kPpc));
}

class TypeLangTest : public ::testing::Test {
 protected:
  TypeGraph graph_;
  TypeLowering lowering_{graph_};
};

TEST_F(TypeLangTest, ScalarsAndPointers) {
  auto i = lowering_.Lower("int");
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(TypeString(graph_, i.value()), "int");
  EXPECT_EQ(lowering_.SizeOf(i.value()), 4u);

  auto p = lowering_.Lower("struct file *");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(TypeString(graph_, p.value()), "struct file *");
  EXPECT_EQ(lowering_.SizeOf(p.value()), 8u);

  auto cc = lowering_.Lower("const char *");
  ASSERT_TRUE(cc.ok());
  EXPECT_EQ(TypeString(graph_, cc.value()), "const char *");

  auto arr = lowering_.Lower("char[16]");
  ASSERT_TRUE(arr.ok());
  EXPECT_EQ(lowering_.SizeOf(arr.value()), 16u);

  auto pp = lowering_.Lower("struct request **");
  ASSERT_TRUE(pp.ok());
  EXPECT_EQ(TypeString(graph_, pp.value()), "struct request **");

  EXPECT_EQ(lowering_.Lower("void").value(), kBtfVoid);
  EXPECT_FALSE(lowering_.Lower("").ok());
  EXPECT_FALSE(lowering_.Lower("int[abc]").ok());
}

TEST_F(TypeLangTest, TypedefsResolve) {
  auto u64 = lowering_.Lower("u64");
  ASSERT_TRUE(u64.ok());
  const std::optional<BtfTypeView> t = graph_.Get(u64.value());
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->kind, BtfKind::kTypedef);
  EXPECT_EQ(lowering_.SizeOf(u64.value()), 8u);
  EXPECT_EQ(lowering_.SizeOf(lowering_.Lower("umode_t").value()), 2u);
  EXPECT_EQ(lowering_.SizeOf(lowering_.Lower("loff_t").value()), 8u);
}

TEST_F(TypeLangTest, UnknownIdentifierBecomesTypedef) {
  auto t = lowering_.Lower("qstr_hash_t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(graph_.Get(t.value())->kind, BtfKind::kTypedef);
  EXPECT_EQ(lowering_.SizeOf(t.value()), 4u);
}

TEST_F(TypeLangTest, LongWidthFollowsTarget) {
  TypeGraph g32;
  TypeLowering lower32(g32, /*pointer_size=*/4, /*long_size=*/4);
  EXPECT_EQ(lower32.SizeOf(lower32.Lower("unsigned long").value()), 4u);
  EXPECT_EQ(lower32.SizeOf(lower32.Lower("struct page *").value()), 4u);
  EXPECT_EQ(lowering_.SizeOf(lowering_.Lower("unsigned long").value()), 8u);
}

TEST_F(TypeLangTest, DefineStructResolvesForwardRefs) {
  // A use site first sees an opaque pointer...
  auto ptr = lowering_.Lower("struct filename *");
  ASSERT_TRUE(ptr.ok());
  // ...then the definition arrives.
  StructSpec spec;
  spec.name = "filename";
  spec.fields = {{"name", "const char *"}, {"refcnt", "int"}};
  auto def = lowering_.DefineStruct(spec);
  ASSERT_TRUE(def.ok()) << def.error().ToString();
  // The earlier pointer now points at the full definition.
  const std::optional<BtfTypeView> pointee = graph_.Get(graph_.Get(ptr.value())->ref_type_id);
  ASSERT_TRUE(pointee.has_value());
  EXPECT_EQ(pointee->kind, BtfKind::kStruct);
  ASSERT_EQ(pointee->members.size(), 2u);
  EXPECT_EQ(pointee->members[0].name, "name");
  EXPECT_EQ(pointee->members[1].bits_offset, 64u);  // after an 8-byte pointer
}

TEST_F(TypeLangTest, StructLayoutRespectsAlignment) {
  StructSpec spec;
  spec.name = "mixed";
  spec.fields = {{"a", "char"}, {"b", "u64"}, {"c", "short"}};
  auto id = lowering_.DefineStruct(spec);
  ASSERT_TRUE(id.ok());
  const std::optional<BtfTypeView> t = graph_.Get(id.value());
  EXPECT_EQ(t->members[0].bits_offset, 0u);
  EXPECT_EQ(t->members[1].bits_offset, 64u);   // aligned to 8
  EXPECT_EQ(t->members[2].bits_offset, 128u);
  EXPECT_EQ(t->size, 18u);
}

TEST_F(TypeLangTest, RedefinitionReplacesInPlace) {
  StructSpec v1;
  v1.name = "request";
  v1.fields = {{"rq_disk", "struct gendisk *"}};
  auto id1 = lowering_.DefineStruct(v1);
  ASSERT_TRUE(id1.ok());
  StructSpec v2;
  v2.name = "request";
  v2.fields = {{"part", "struct block_device *"}, {"timeout", "unsigned int"}};
  auto id2 = lowering_.DefineStruct(v2);
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(id1.value(), id2.value());
  EXPECT_EQ(graph_.Get(id2.value())->members.size(), 2u);
  EXPECT_FALSE(lowering_.DefineStruct(StructSpec{}).ok());
}

}  // namespace
}  // namespace depsurf
