#include "src/btf/btf_compare.h"

namespace depsurf {

namespace {

bool EqualsDepth(const TypeGraph& ga, BtfTypeId a, const TypeGraph& gb, BtfTypeId b, int depth) {
  if (depth > 32) {
    return true;  // deep identical prefixes; treat as equal to stay total
  }
  const std::optional<BtfTypeView> ta = ga.Get(a);
  const std::optional<BtfTypeView> tb = gb.Get(b);
  if (!ta || !tb) {
    return !ta && !tb;  // both void
  }
  if (ta->kind != tb->kind) {
    // A FWD on one side matches a same-named aggregate on the other.
    bool a_fwdish = ta->kind == BtfKind::kFwd || ta->kind == BtfKind::kStruct ||
                    ta->kind == BtfKind::kUnion;
    bool b_fwdish = tb->kind == BtfKind::kFwd || tb->kind == BtfKind::kStruct ||
                    tb->kind == BtfKind::kUnion;
    if (a_fwdish && b_fwdish && (ta->kind == BtfKind::kFwd || tb->kind == BtfKind::kFwd)) {
      return ta->name == tb->name;
    }
    return false;
  }
  switch (ta->kind) {
    case BtfKind::kVoid:
      return true;
    case BtfKind::kInt:
    case BtfKind::kFloat:
      // Width is a property of the target ABI ("unsigned long" is 4 bytes
      // on arm32), not of the declaration; compare by name so cross-arch
      // diffs see the same C type.
      return ta->name == tb->name;
    case BtfKind::kStruct:
    case BtfKind::kUnion:
    case BtfKind::kEnum:
    case BtfKind::kFwd:
      // Named aggregates are identified by name across images. Anonymous
      // ones compare member-wise.
      if (!ta->name.empty() || !tb->name.empty()) {
        return ta->name == tb->name;
      }
      if (ta->members.size() != tb->members.size()) {
        return false;
      }
      for (size_t i = 0; i < ta->members.size(); ++i) {
        const BtfMemberView ma = ta->members[i];
        const BtfMemberView mb = tb->members[i];
        if (ma.name != mb.name || ma.bits_offset != mb.bits_offset ||
            !EqualsDepth(ga, ma.type_id, gb, mb.type_id, depth + 1)) {
          return false;
        }
      }
      return true;
    case BtfKind::kPtr:
    case BtfKind::kConst:
    case BtfKind::kVolatile:
    case BtfKind::kRestrict:
    case BtfKind::kTypedef:
      if (ta->kind == BtfKind::kTypedef && ta->name != tb->name) {
        return false;
      }
      return EqualsDepth(ga, ta->ref_type_id, gb, tb->ref_type_id, depth + 1);
    case BtfKind::kArray:
      return ta->nelems == tb->nelems &&
             EqualsDepth(ga, ta->ref_type_id, gb, tb->ref_type_id, depth + 1);
    case BtfKind::kFunc:
      return ta->name == tb->name &&
             EqualsDepth(ga, ta->ref_type_id, gb, tb->ref_type_id, depth + 1);
    case BtfKind::kFuncProto: {
      if (ta->params.size() != tb->params.size()) {
        return false;
      }
      if (!EqualsDepth(ga, ta->ref_type_id, gb, tb->ref_type_id, depth + 1)) {
        return false;
      }
      for (size_t i = 0; i < ta->params.size(); ++i) {
        if (!EqualsDepth(ga, ta->params[i].type_id, gb, tb->params[i].type_id, depth + 1)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

// Shape classes for compatibility analysis.
enum class Shape { kVoid, kInteger, kFloat, kPointer, kAggregate, kArray, kFunc, kOther };

Shape ShapeOf(const TypeGraph& g, BtfTypeId id) {
  const std::optional<BtfTypeView> t = g.Get(g.ResolveAliases(id));
  if (!t) {
    return Shape::kVoid;
  }
  switch (t->kind) {
    case BtfKind::kInt:
    case BtfKind::kEnum:
      return Shape::kInteger;
    case BtfKind::kFloat:
      return Shape::kFloat;
    case BtfKind::kPtr:
      return Shape::kPointer;
    case BtfKind::kStruct:
    case BtfKind::kUnion:
    case BtfKind::kFwd:
      return Shape::kAggregate;
    case BtfKind::kArray:
      return Shape::kArray;
    case BtfKind::kFunc:
    case BtfKind::kFuncProto:
      return Shape::kFunc;
    default:
      return Shape::kOther;
  }
}

}  // namespace

bool TypeEquals(const TypeGraph& graph_a, BtfTypeId a, const TypeGraph& graph_b, BtfTypeId b) {
  return EqualsDepth(graph_a, a, graph_b, b, 0);
}

bool TypeCompatible(const TypeGraph& graph_a, BtfTypeId a, const TypeGraph& graph_b,
                    BtfTypeId b) {
  Shape sa = ShapeOf(graph_a, a);
  Shape sb = ShapeOf(graph_b, b);
  if (sa != sb) {
    return false;
  }
  if (sa == Shape::kAggregate) {
    // Different aggregates are never silently interchangeable.
    return TypeEquals(graph_a, graph_a.ResolveAliases(a), graph_b, graph_b.ResolveAliases(b));
  }
  return true;
}

}  // namespace depsurf
