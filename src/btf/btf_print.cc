#include "src/btf/btf_print.h"

#include "src/util/str_util.h"

namespace depsurf {

namespace {

// Type nodes one top-level render may visit. The depth cap alone bounds a
// chain, not a tree: a FUNC_PROTO whose return type and parameters point
// back at it renders 3^16 nodes before any branch is 32 levels deep. Real
// kernel types stay far below the budget (the largest LTS render visits 16
// nodes), so it only ever cuts hostile input.
constexpr int kRenderBudget = 256;

std::string TypeStringDepth(const TypeGraph& graph, BtfTypeId id, int depth, int& budget) {
  if (depth > 32 || budget <= 0) {
    return "<cycle>";
  }
  --budget;
  const std::optional<BtfTypeView> t = graph.Get(id);
  if (!t) {
    return "void";
  }
  switch (t->kind) {
    case BtfKind::kInt:
    case BtfKind::kFloat:
    case BtfKind::kTypedef:
      return std::string(t->name);
    case BtfKind::kPtr: {
      std::string inner = TypeStringDepth(graph, t->ref_type_id, depth + 1, budget);
      if (!inner.empty() && inner.back() == '*') {
        return inner + "*";
      }
      return inner + " *";
    }
    case BtfKind::kConst: {
      std::string inner = TypeStringDepth(graph, t->ref_type_id, depth + 1, budget);
      // const-of-pointer is "T *const"; const-of-object is "const T".
      if (!inner.empty() && inner.back() == '*') {
        return inner + "const";
      }
      return "const " + inner;
    }
    case BtfKind::kVolatile:
      return "volatile " + TypeStringDepth(graph, t->ref_type_id, depth + 1, budget);
    case BtfKind::kRestrict:
      return TypeStringDepth(graph, t->ref_type_id, depth + 1, budget) + " restrict";
    case BtfKind::kArray:
      return StrFormat("%s[%u]", TypeStringDepth(graph, t->ref_type_id, depth + 1, budget).c_str(),
                       t->nelems);
    case BtfKind::kStruct:
    case BtfKind::kFwd:
      return StrCat({"struct ", t->name});
    case BtfKind::kUnion:
      return StrCat({"union ", t->name});
    case BtfKind::kEnum:
      return StrCat({"enum ", t->name});
    case BtfKind::kFunc:
      return std::string(t->name);
    case BtfKind::kFuncProto: {
      std::string out = TypeStringDepth(graph, t->ref_type_id, depth + 1, budget) + " (*)(";
      for (size_t i = 0; i < t->params.size(); ++i) {
        if (i != 0) {
          out += ", ";
        }
        if (budget <= 0) {
          out += "<cycle>";  // the rest of the list is past the budget too
          break;
        }
        out += TypeStringDepth(graph, t->params[i].type_id, depth + 1, budget);
      }
      out += ")";
      return out;
    }
    case BtfKind::kVoid:
      return "void";
  }
  return "?";
}

// The one FUNC formatter, writing over `out`; `type_string(id)` renders a
// top-level type.
template <typename TypeStringFn>
void FormatFuncDecl(const TypeGraph& graph, BtfTypeId func_id, TypeStringFn&& type_string,
                    std::string& out) {
  const std::optional<BtfTypeView> func = graph.Get(func_id);
  if (!func || func->kind != BtfKind::kFunc) {
    out = "<not a function>";
    return;
  }
  const std::optional<BtfTypeView> proto = graph.Get(func->ref_type_id);
  if (!proto || proto->kind != BtfKind::kFuncProto) {
    out = func->name;
    out += "()";
    return;
  }
  out = type_string(proto->ref_type_id);
  out += ' ';
  out += func->name;
  out += '(';
  for (size_t i = 0; i < proto->params.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    const BtfParamView param = proto->params[i];
    const std::string& type_str = type_string(param.type_id);
    out += type_str;
    if (!param.name.empty()) {
      if (type_str.empty() || type_str.back() != '*') {
        out += " ";
      }
      out += param.name;
    }
  }
  out += ")";
}

}  // namespace

std::string TypeString(const TypeGraph& graph, BtfTypeId id) {
  int budget = kRenderBudget;
  return TypeStringDepth(graph, id, 0, budget);
}

TypeStringMemo::TypeStringMemo(const TypeGraph& graph)
    : graph_(graph), renders_(static_cast<size_t>(graph.num_types()) + 1) {}

const std::string& TypeStringMemo::Get(BtfTypeId id) {
  // Ids beyond the graph have no node, which TypeString renders as void.
  static const std::string kVoid = "void";
  if (id >= renders_.size()) {
    return kVoid;
  }
  std::optional<std::string>& render = renders_[id];
  if (!render.has_value()) {
    render = TypeString(graph_, id);
  }
  return *render;
}

std::string FuncDeclString(const TypeGraph& graph, BtfTypeId func_id) {
  std::string out;
  FormatFuncDecl(
      graph, func_id, [&graph](BtfTypeId id) { return TypeString(graph, id); }, out);
  return out;
}

void FuncDeclString(TypeStringMemo& types, BtfTypeId func_id, std::string& out) {
  FormatFuncDecl(
      types.graph(), func_id,
      [&types](BtfTypeId id) -> const std::string& { return types.Get(id); }, out);
}

}  // namespace depsurf
