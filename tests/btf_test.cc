#include <gtest/gtest.h>

#include <memory>


#include "src/btf/btf.h"
#include "src/btf/btf_codec.h"
#include "src/btf/btf_compare.h"
#include "src/btf/btf_print.h"
#include "src/util/str_util.h"

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
  EXPECT_FALSE(g.Get(0).has_value());
  EXPECT_FALSE(g.Get(1).has_value());
  BtfTypeId id = g.Int("u8", 1);
  ASSERT_TRUE(g.Get(id).has_value());
  EXPECT_EQ(g.Get(id)->name, "u8");
  EXPECT_FALSE(g.Get(id + 1).has_value());
}

TEST(TypeGraphTest, FindByName) {
  BtfTypeId func;
  TypeGraph g = MakeVfsFsyncGraph(&func);
  EXPECT_EQ(g.FindFunc("vfs_fsync"), func);
  EXPECT_TRUE(g.FindStruct("file").has_value());
  EXPECT_FALSE(g.FindStruct("task_struct").has_value());
  EXPECT_FALSE(g.FindFunc("file").has_value());
}

// Of several types sharing a kind and name, the first id answers, as a
// scan in id order would.
TEST(TypeGraphTest, FindFirstIdWinsAmongDuplicates) {
  TypeGraph g;
  BtfTypeId i = g.Int("int", 4);
  BtfTypeId first = g.Struct("dup", 4, {{"a", i, 0}});
  g.Struct("dup", 8, {});
  BtfTypeId union_dup = g.Union("dup", 4, {});
  BtfTypeId func = g.Func("f", g.FuncProto(i, {}));
  g.Func("f", g.FuncProto(kBtfVoid, {}));
  EXPECT_EQ(g.FindStruct("dup"), first);
  EXPECT_EQ(g.FindByKindAndName(BtfKind::kUnion, "dup"), union_dup);
  EXPECT_EQ(g.FindFunc("f"), func);
  // Unnamed types are indexed too: the first PTR, the first FUNC_PROTO.
  EXPECT_EQ(g.FindByKindAndName(BtfKind::kFuncProto, ""), func - 1);
  EXPECT_FALSE(g.FindByKindAndName(BtfKind::kPtr, "").has_value());
}

TEST(TypeGraphTest, FindEachKind) {
  TypeGraph g;
  const BtfTypeId i = g.Int("name", 4);
  const std::pair<BtfKind, BtfTypeId> kinds[] = {
      {BtfKind::kInt, i},
      {BtfKind::kFloat, g.Float("name", 8)},
      {BtfKind::kTypedef, g.Typedef("name", i)},
      {BtfKind::kFwd, g.Fwd("name")},
      {BtfKind::kStruct, g.Struct("name", 4, {{"name", i, 0}})},
      {BtfKind::kUnion, g.Union("name", 4, {})},
      {BtfKind::kEnum, g.Enum("name", {{"name", 1}})},
      {BtfKind::kFunc, g.Func("name", g.FuncProto(i, {{"name", i}}))},
      {BtfKind::kPtr, g.Ptr(i)},
      {BtfKind::kArray, g.Array(i, 2)},
      {BtfKind::kConst, g.Const(i)},
      {BtfKind::kVolatile, g.Volatile(i)},
  };
  for (const auto& [kind, id] : kinds) {
    const std::string_view name = g.Get(id)->name;
    EXPECT_EQ(g.FindByKindAndName(kind, name), id) << BtfKindName(kind);
    EXPECT_FALSE(g.FindByKindAndName(kind, "other").has_value()) << BtfKindName(kind);
  }
  const BtfTypeId proto = g.Get(g.FindFunc("name").value())->ref_type_id;
  EXPECT_EQ(g.FindByKindAndName(BtfKind::kFuncProto, ""), proto);
  EXPECT_FALSE(g.FindByKindAndName(BtfKind::kRestrict, "").has_value());
}

// A lookup after a builder call sees the graph as it is now: the index
// built by an earlier lookup is dropped by every change.
TEST(TypeGraphTest, FindAfterBuilderCall) {
  TypeGraph g;
  BtfTypeId fwd = g.Fwd("request");
  EXPECT_FALSE(g.FindStruct("request").has_value());
  EXPECT_EQ(g.FindByKindAndName(BtfKind::kFwd, "request"), fwd);
  BtfTypeId later = g.Struct("later", 0, {});
  EXPECT_EQ(g.FindStruct("later"), later);
  ASSERT_TRUE(g.RedefineStruct(fwd, 8, {{"rq_disk", later, 0}}));
  EXPECT_EQ(g.FindStruct("request"), fwd);
  EXPECT_FALSE(g.FindByKindAndName(BtfKind::kFwd, "request").has_value());
  EXPECT_EQ(g.Get(fwd)->members.size(), 1u);
  EXPECT_EQ(g.Get(fwd)->size, 8u);
  EXPECT_FALSE(g.RedefineStruct(g.Int("int", 4), 4, {}));
  EXPECT_FALSE(g.RedefineStruct(kBtfVoid, 4, {}));
  EXPECT_TRUE(g.Validate().ok());
}

// A builder call may name a type with a view of this very graph, even
// when appending to the string block moves it.
TEST(TypeGraphTest, BuilderAcceptsNamesViewingTheGraph) {
  TypeGraph g;
  BtfTypeId first = g.Struct("task_struct", 0, {});
  for (int k = 0; k < 200; ++k) {
    g.Func(std::string(k + 1, 'x'), kBtfVoid);  // grow the string block
    BtfTypeId copy = g.Struct(g.Get(first)->name, 0, {});
    ASSERT_EQ(g.Get(copy)->name, "task_struct");
    BtfTypeId func = g.Func(g.Get(copy)->name, copy);
    ASSERT_EQ(g.Get(func)->name, "task_struct");
    ASSERT_EQ(g.Get(g.Typedef(g.Get(func - 2)->name, func))->name, std::string(k + 1, 'x'));
  }
  EXPECT_EQ(g.FindStruct("task_struct"), first);
}

// Every field, name and run of a graph, as owned text.
std::string Dump(const TypeGraph& g) {
  std::string out;
  for (BtfTypeId id = 1; id <= g.num_types(); ++id) {
    const BtfTypeView t = *g.Get(id);
    out += StrFormat("%u %s '%s' %u %u %u %u:", id, BtfKindName(t.kind),
                     std::string(t.name).c_str(), t.size, t.ref_type_id, t.nelems, t.int_bits);
    for (const BtfMemberView m : t.members) {
      out += StrFormat(" m'%s' %u %u", std::string(m.name).c_str(), m.type_id, m.bits_offset);
    }
    for (const BtfParamView p : t.params) {
      out += StrFormat(" p'%s' %u", std::string(p.name).c_str(), p.type_id);
    }
    for (const BtfEnumeratorView e : t.enumerators) {
      out += StrFormat(" e'%s' %d", std::string(e.name).c_str(), e.value);
    }
    out += "\n";
  }
  return out;
}

TEST(TypeGraphTest, CopiesAndMovesOutliveTheOriginal) {
  BtfTypeId func;
  TypeGraph built = MakeVfsFsyncGraph(&func);
  built.Enum("pid_type", {{"PIDTYPE_PID", 0}, {"PIDTYPE_TGID", -1}});
  auto decoded = DecodeBtf(EncodeBtf(built));
  ASSERT_TRUE(decoded.ok());
  for (const TypeGraph* source : {&built, &*decoded}) {
    const std::string want = Dump(*source);
    auto original = std::make_unique<TypeGraph>(*source);
    ASSERT_EQ(original->FindFunc("vfs_fsync"), func);  // builds the index
    auto moved_from = std::make_unique<TypeGraph>(*source);
    const std::string_view before_move = moved_from->Get(func)->name;
    const BtfTypeId proto = moved_from->Get(func)->ref_type_id;
    const BtfRun<BtfParamView> params_before_move = moved_from->Get(proto)->params;

    TypeGraph copied(*original);
    TypeGraph assigned;
    assigned.Int("replaced", 1);
    assigned = *original;
    TypeGraph moved(std::move(*moved_from));
    TypeGraph move_assigned;
    move_assigned = TypeGraph(*original);
    original.reset();
    moved_from.reset();

    for (const TypeGraph* g : {&copied, &assigned, &moved, &move_assigned}) {
      EXPECT_EQ(Dump(*g), want);
      EXPECT_EQ(g->FindFunc("vfs_fsync"), func);
      EXPECT_EQ(g->FindStruct("file"), 2u);
      EXPECT_EQ(FuncDeclString(*g, func), "int vfs_fsync(struct file *file, int datasync)");
    }
    // Views taken before the move now view the moved-to graph.
    EXPECT_EQ(before_move, "vfs_fsync");
    ASSERT_EQ(params_before_move.size(), 2u);
    EXPECT_EQ(params_before_move[0].name, "file");
    EXPECT_EQ(params_before_move[1].name, "datasync");
    EXPECT_EQ(params_before_move, moved.Get(proto)->params);
  }
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
  g.Ptr(42);
  EXPECT_FALSE(g.Validate().ok());

  TypeGraph g2;
  g2.Struct("x", 0, {{"f", 99, 0}});
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
    const std::optional<BtfTypeView> a = g.Get(id);
    const std::optional<BtfTypeView> b = decoded->Get(id);
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
  const BtfTypeId proto = g.num_types() + 2;
  BtfTypeId fan = g.Ptr(proto);
  ASSERT_EQ(g.FuncProto(fan, {{"a", fan}, {"b", fan}}), proto);
  BtfTypeId func = g.Func("fan_out", proto);

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
