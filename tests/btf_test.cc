#include <gtest/gtest.h>

#include "src/btf/btf.h"
#include "src/btf/btf_codec.h"
#include "src/btf/btf_compare.h"
#include "src/btf/btf_print.h"

namespace depsurf {
namespace {

// Builds the running example of the paper: int vfs_fsync(struct file *, int).
TypeGraph MakeVfsFsyncGraph(BtfTypeId* func_out = nullptr) {
  TypeGraph g;
  BtfTypeId i = g.Int("int", 4);
  BtfTypeId file = g.Struct("file", 232, {{"f_count", i, 0}, {"f_flags", i, 32}});
  BtfTypeId proto = g.FuncProto(i, {{"file", g.Ptr(file)}, {"datasync", i}});
  BtfTypeId func = g.Func("vfs_fsync", proto);
  if (func_out != nullptr) {
    *func_out = func;
  }
  return g;
}

TEST(TypeGraphTest, BuilderDedupsScalars) {
  TypeGraph g;
  BtfTypeId a = g.Int("int", 4);
  BtfTypeId b = g.Int("int", 4);
  BtfTypeId c = g.Int("long", 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(g.Ptr(a), g.Ptr(b));
  EXPECT_NE(g.Ptr(a), g.Ptr(c));
}

TEST(TypeGraphTest, GetBoundary) {
  TypeGraph g;
  EXPECT_EQ(g.Get(0), nullptr);
  EXPECT_EQ(g.Get(1), nullptr);
  BtfTypeId id = g.Int("u8", 1);
  ASSERT_NE(g.Get(id), nullptr);
  EXPECT_EQ(g.Get(id)->name, "u8");
  EXPECT_EQ(g.Get(id + 1), nullptr);
}

TEST(TypeGraphTest, FindByName) {
  BtfTypeId func;
  TypeGraph g = MakeVfsFsyncGraph(&func);
  EXPECT_EQ(g.FindFunc("vfs_fsync"), func);
  EXPECT_TRUE(g.FindStruct("file").has_value());
  EXPECT_FALSE(g.FindStruct("task_struct").has_value());
  EXPECT_FALSE(g.FindFunc("file").has_value());
}

TEST(TypeGraphTest, ResolveAliases) {
  TypeGraph g;
  BtfTypeId i = g.Int("int", 4);
  BtfTypeId td = g.Typedef("s32", i);
  BtfTypeId c = g.Const(td);
  BtfTypeId v = g.Volatile(c);
  EXPECT_EQ(g.ResolveAliases(v), i);
  EXPECT_EQ(g.ResolveAliases(i), i);
}

TEST(TypeGraphTest, ValidateCatchesDanglingRefs) {
  TypeGraph g;
  BtfType bad;
  bad.kind = BtfKind::kPtr;
  bad.ref_type_id = 42;
  g.Add(bad);
  EXPECT_FALSE(g.Validate().ok());

  TypeGraph g2;
  BtfType s;
  s.kind = BtfKind::kStruct;
  s.name = "x";
  s.members.push_back({"f", 99, 0});
  g2.Add(s);
  EXPECT_FALSE(g2.Validate().ok());
}

class BtfCodecEndianTest : public ::testing::TestWithParam<Endian> {};

TEST_P(BtfCodecEndianTest, RoundTripPreservesGraph) {
  BtfTypeId func;
  TypeGraph g = MakeVfsFsyncGraph(&func);
  // Exercise the remaining kinds.
  BtfTypeId i = g.Int("int", 4);
  g.Typedef("u64", g.Int("long long unsigned int", 8));
  g.Array(i, 16);
  g.Fwd("sock");
  g.Enum("pid_type", {{"PIDTYPE_PID", 0}, {"PIDTYPE_TGID", 1}});
  g.Union("anon", 8, {{"a", i, 0}, {"b", i, 0}});
  g.Float("double", 8);

  std::vector<uint8_t> bytes = EncodeBtf(g, GetParam());
  auto decoded = DecodeBtf(bytes, GetParam());
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  ASSERT_EQ(decoded->num_types(), g.num_types());
  for (BtfTypeId id = 1; id <= g.num_types(); ++id) {
    const BtfType* a = g.Get(id);
    const BtfType* b = decoded->Get(id);
    EXPECT_EQ(a->kind, b->kind) << "id " << id;
    EXPECT_EQ(a->name, b->name);
    EXPECT_EQ(a->size, b->size);
    EXPECT_EQ(a->ref_type_id, b->ref_type_id);
    EXPECT_EQ(a->nelems, b->nelems);
    EXPECT_EQ(a->members, b->members);
    EXPECT_EQ(a->params, b->params);
    EXPECT_EQ(a->enumerators, b->enumerators);
  }
  EXPECT_TRUE(TypeEquals(g, func, *decoded, func));
}

INSTANTIATE_TEST_SUITE_P(Endians, BtfCodecEndianTest,
                         ::testing::Values(Endian::kLittle, Endian::kBig));

TEST(BtfCodecTest, EmptyGraphRoundTrips) {
  TypeGraph g;
  auto decoded = DecodeBtf(EncodeBtf(g));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_types(), 0u);
}

TEST(BtfCodecTest, RejectsBadMagic) {
  std::vector<uint8_t> bytes = EncodeBtf(MakeVfsFsyncGraph());
  bytes[0] ^= 0xff;
  EXPECT_FALSE(DecodeBtf(bytes).ok());
}

TEST(BtfCodecTest, RejectsTruncatedTypes) {
  std::vector<uint8_t> bytes = EncodeBtf(MakeVfsFsyncGraph());
  // Chop the string section off entirely: name reads must fail.
  bytes.resize(kBtfHeaderLen + 4);
  EXPECT_FALSE(DecodeBtf(bytes).ok());
}

TEST(BtfCodecTest, RejectsWrongEndianness) {
  std::vector<uint8_t> bytes = EncodeBtf(MakeVfsFsyncGraph(), Endian::kBig);
  EXPECT_FALSE(DecodeBtf(bytes, Endian::kLittle).ok());
}

TEST(BtfPrintTest, TypeStrings) {
  TypeGraph g;
  BtfTypeId i = g.Int("int", 4);
  BtfTypeId ch = g.Int("char", 1);
  BtfTypeId file = g.Fwd("file");
  EXPECT_EQ(TypeString(g, i), "int");
  EXPECT_EQ(TypeString(g, g.Ptr(file)), "struct file *");
  EXPECT_EQ(TypeString(g, g.Ptr(g.Ptr(i))), "int **");
  EXPECT_EQ(TypeString(g, g.Const(g.Ptr(ch))), "char *const");  // const pointer
  EXPECT_EQ(TypeString(g, g.Ptr(g.Const(ch))), "const char *");
  EXPECT_EQ(TypeString(g, g.Array(ch, 16)), "char[16]");
  EXPECT_EQ(TypeString(g, kBtfVoid), "void");
}

TEST(BtfPrintTest, FuncDecl) {
  BtfTypeId func;
  TypeGraph g = MakeVfsFsyncGraph(&func);
  // Matches the paper's Appendix A declaration rendering.
  EXPECT_EQ(FuncDeclString(g, func), "int vfs_fsync(struct file *file, int datasync)");
  EXPECT_EQ(FuncDeclString(g, kBtfVoid), "<not a function>");
}

// A PTR to a FUNC_PROTO whose return type and both parameters are that
// PTR: each level triples, so the depth cap alone allows 3^16 nodes (a
// 602 MB string). The node budget keeps the render small and cuts it with
// the same marker as the depth cap.
TEST(BtfPrintTest, FanOutRenderIsBounded) {
  TypeGraph g;
  BtfType ptr;
  ptr.kind = BtfKind::kPtr;
  ptr.ref_type_id = g.num_types() + 2;
  BtfTypeId fan = g.Add(ptr);
  ASSERT_EQ(g.FuncProto(fan, {{"a", fan}, {"b", fan}}), ptr.ref_type_id);
  BtfTypeId func = g.Func("fan_out", ptr.ref_type_id);

  std::string rendered = TypeString(g, fan);
  EXPECT_LT(rendered.size(), 8192u);
  EXPECT_NE(rendered.find("<cycle>"), std::string::npos);
  // Each top-level render gets the whole budget, so the memo stays exact.
  TypeStringMemo memo(g);
  EXPECT_EQ(memo.Get(fan), rendered);
  std::string decl = "stale";  // written over, not appended to
  FuncDeclString(memo, func, decl);
  EXPECT_EQ(decl, FuncDeclString(g, func));
  EXPECT_EQ(FuncDeclString(g, func), rendered + " fan_out(" + rendered + "a, " + rendered + "b)");
}

TEST(BtfCompareTest, EqualAcrossGraphs) {
  BtfTypeId fa;
  BtfTypeId fb;
  TypeGraph a = MakeVfsFsyncGraph(&fa);
  TypeGraph b = MakeVfsFsyncGraph(&fb);
  b.Int("extra", 2);  // perturb ids downstream; existing ids unaffected
  EXPECT_TRUE(TypeEquals(a, fa, b, fb));
}

TEST(BtfCompareTest, ParamTypeChangeDetected) {
  TypeGraph a;
  BtfTypeId ia = a.Int("int", 4);
  BtfTypeId pa = a.FuncProto(ia, {{"x", ia}});
  TypeGraph b;
  BtfTypeId ib = b.Int("int", 4);
  BtfTypeId lb = b.Int("long", 8);
  BtfTypeId pb = b.FuncProto(ib, {{"x", lb}});
  EXPECT_FALSE(TypeEquals(a, pa, b, pb));
  // int -> long is a silent-compatible change.
  EXPECT_TRUE(TypeCompatible(a, ia, b, lb));
}

TEST(BtfCompareTest, StructsCompareByName) {
  TypeGraph a;
  BtfTypeId ia = a.Int("int", 4);
  BtfTypeId sa = a.Struct("request", 100, {{"rq_disk", ia, 0}});
  TypeGraph b;
  BtfTypeId ib = b.Int("int", 4);
  BtfTypeId sb = b.Struct("request", 120, {{"disk", ib, 0}, {"other", ib, 32}});
  // Same name: identified as the same kernel struct (fields differ but the
  // *type identity* holds; field diffs are the differ's job).
  EXPECT_TRUE(TypeEquals(a, sa, b, sb));
  BtfTypeId sc = b.Struct("request_queue", 120, {});
  EXPECT_FALSE(TypeEquals(a, sa, b, sc));
}

TEST(BtfCompareTest, FwdMatchesNamedStruct) {
  TypeGraph a;
  BtfTypeId fwd = a.Fwd("sock");
  TypeGraph b;
  BtfTypeId st = b.Struct("sock", 760, {});
  EXPECT_TRUE(TypeEquals(a, fwd, b, st));
  EXPECT_FALSE(TypeEquals(a, fwd, b, b.Struct("socket", 10, {})));
}

TEST(BtfCompareTest, PointerVsIntegerIncompatible) {
  TypeGraph a;
  BtfTypeId i = a.Int("int", 4);
  BtfTypeId p = a.Ptr(i);
  EXPECT_FALSE(TypeCompatible(a, i, a, p));
  EXPECT_TRUE(TypeCompatible(a, p, a, a.Ptr(p)));  // pointer-to-anything stays a pointer
}

TEST(BtfCompareTest, EnumCompatibleWithInt) {
  TypeGraph g;
  BtfTypeId e = g.Enum("state", {{"A", 0}});
  BtfTypeId i = g.Int("unsigned int", 4);
  EXPECT_TRUE(TypeCompatible(g, e, g, i));
  EXPECT_FALSE(TypeEquals(g, e, g, i));
}

TEST(BtfCompareTest, AnonymousAggregatesCompareStructurally) {
  TypeGraph a;
  BtfTypeId ia = a.Int("int", 4);
  BtfTypeId ua = a.Union("", 4, {{"x", ia, 0}});
  TypeGraph b;
  BtfTypeId ib = b.Int("int", 4);
  BtfTypeId ub = b.Union("", 4, {{"x", ib, 0}});
  BtfTypeId uc = b.Union("", 4, {{"y", ib, 0}});
  EXPECT_TRUE(TypeEquals(a, ua, b, ub));
  EXPECT_FALSE(TypeEquals(a, ua, b, uc));
}

}  // namespace
}  // namespace depsurf
