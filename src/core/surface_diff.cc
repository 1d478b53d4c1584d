#include "src/core/surface_diff.h"

#include <algorithm>

#include "src/btf/btf_compare.h"
#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace depsurf {

const char* FuncChangeKindName(FuncChangeKind kind) {
  switch (kind) {
    case FuncChangeKind::kParamAdded:
      return "Param added";
    case FuncChangeKind::kParamRemoved:
      return "Param removed";
    case FuncChangeKind::kParamReordered:
      return "Param reordered";
    case FuncChangeKind::kParamTypeChanged:
      return "Param type changed";
    case FuncChangeKind::kReturnTypeChanged:
      return "Return type changed";
  }
  return "?";
}

const char* StructChangeKindName(StructChangeKind kind) {
  switch (kind) {
    case StructChangeKind::kFieldAdded:
      return "Field added";
    case StructChangeKind::kFieldRemoved:
      return "Field removed";
    case StructChangeKind::kFieldTypeChanged:
      return "Field type changed";
  }
  return "?";
}

const char* TracepointChangeKindName(TracepointChangeKind kind) {
  switch (kind) {
    case TracepointChangeKind::kEventChanged:
      return "Event changed";
    case TracepointChangeKind::kFuncChanged:
      return "Func changed";
  }
  return "?";
}

namespace {

const BtfType* ProtoOf(const TypeGraph& graph, BtfTypeId func_id) {
  const BtfType* func = graph.Get(func_id);
  if (func == nullptr || func->kind != BtfKind::kFunc) {
    return nullptr;
  }
  const BtfType* proto = graph.Get(func->ref_type_id);
  if (proto == nullptr || proto->kind != BtfKind::kFuncProto) {
    return nullptr;
  }
  return proto;
}

}  // namespace

std::vector<FuncChangeKind> CompareFuncDecls(const TypeGraph& old_graph, BtfTypeId old_func,
                                             const TypeGraph& new_graph, BtfTypeId new_func) {
  std::vector<FuncChangeKind> out;
  const BtfType* old_proto = ProtoOf(old_graph, old_func);
  const BtfType* new_proto = ProtoOf(new_graph, new_func);
  if (old_proto == nullptr || new_proto == nullptr) {
    return out;
  }
  if (!TypeEquals(old_graph, old_proto->ref_type_id, new_graph, new_proto->ref_type_id)) {
    out.push_back(FuncChangeKind::kReturnTypeChanged);
  }
  // Parameters are matched by name (the kernel's refactors keep names far
  // more stable than positions).
  auto index_of = [](const BtfType* proto, const std::string& name) -> int {
    for (size_t i = 0; i < proto->params.size(); ++i) {
      if (proto->params[i].name == name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  bool added = false;
  bool removed = false;
  bool reordered = false;
  bool type_changed = false;
  for (size_t i = 0; i < old_proto->params.size(); ++i) {
    const BtfParam& p = old_proto->params[i];
    int j = index_of(new_proto, p.name);
    if (j < 0) {
      removed = true;
      continue;
    }
    if (static_cast<size_t>(j) != i) {
      reordered = true;
    }
    if (!TypeEquals(old_graph, p.type_id, new_graph, new_proto->params[j].type_id)) {
      type_changed = true;
    }
  }
  for (const BtfParam& p : new_proto->params) {
    if (index_of(old_proto, p.name) < 0) {
      added = true;
    }
  }
  if (added) {
    out.push_back(FuncChangeKind::kParamAdded);
  }
  if (removed) {
    out.push_back(FuncChangeKind::kParamRemoved);
  }
  if (reordered) {
    out.push_back(FuncChangeKind::kParamReordered);
  }
  if (type_changed) {
    out.push_back(FuncChangeKind::kParamTypeChanged);
  }
  return out;
}

std::vector<StructChangeKind> CompareStructDecls(const TypeGraph& old_graph, BtfTypeId old_id,
                                                 const TypeGraph& new_graph, BtfTypeId new_id) {
  std::vector<StructChangeKind> out;
  const BtfType* old_struct = old_graph.Get(old_id);
  const BtfType* new_struct = new_graph.Get(new_id);
  if (old_struct == nullptr || new_struct == nullptr) {
    return out;
  }
  auto find = [](const BtfType* st, const std::string& name) -> const BtfMember* {
    for (const BtfMember& m : st->members) {
      if (m.name == name) {
        return &m;
      }
    }
    return nullptr;
  };
  bool added = false;
  bool removed = false;
  bool type_changed = false;
  for (const BtfMember& m : old_struct->members) {
    const BtfMember* other = find(new_struct, m.name);
    if (other == nullptr) {
      removed = true;
    } else if (!TypeEquals(old_graph, m.type_id, new_graph, other->type_id)) {
      type_changed = true;
    }
  }
  for (const BtfMember& m : new_struct->members) {
    if (find(old_struct, m.name) == nullptr) {
      added = true;
    }
  }
  if (added) {
    out.push_back(StructChangeKind::kFieldAdded);
  }
  if (removed) {
    out.push_back(StructChangeKind::kFieldRemoved);
  }
  if (type_changed) {
    out.push_back(StructChangeKind::kFieldTypeChanged);
  }
  return out;
}

SurfaceDiff DiffSurfaces(const DependencySurface& older, const DependencySurface& newer) {
  obs::ScopedSpan span("diff.surfaces");
  SurfaceDiff diff;

  // ---- Functions. The population compared is the *attachable* surface
  // (functions with a symbol), matching Table 3's counting.
  auto attachable = [](const FunctionEntry& entry) { return entry.status.has_exact_symbol; };
  for (const FunctionEntry& entry : older.functions()) {
    if (!attachable(entry)) {
      continue;
    }
    const FunctionEntry* other = newer.FindFunction(entry.name);
    if (other == nullptr || !attachable(*other)) {
      diff.funcs.removed.emplace_back(entry.name);
      continue;
    }
    if (entry.btf_id != 0 && other->btf_id != 0) {
      auto kinds = CompareFuncDecls(older.btf(), entry.btf_id, newer.btf(), other->btf_id);
      if (!kinds.empty()) {
        diff.funcs.changed.emplace(entry.name, std::move(kinds));
      }
    }
  }
  for (const FunctionEntry& entry : newer.functions()) {
    const FunctionEntry* other = older.FindFunction(entry.name);
    if (attachable(entry) && (other == nullptr || !attachable(*other))) {
      diff.funcs.added.emplace_back(entry.name);
    }
  }

  // ---- Structs.
  for (const auto& [name, id] : older.structs()) {
    auto other = newer.FindStruct(name);
    if (!other.has_value()) {
      diff.structs.removed.push_back(name);
      continue;
    }
    auto kinds = CompareStructDecls(older.btf(), id, newer.btf(), *other);
    if (!kinds.empty()) {
      diff.structs.changed.emplace(name, std::move(kinds));
    }
  }
  for (const auto& [name, id] : newer.structs()) {
    (void)id;
    if (!older.FindStruct(name).has_value()) {
      diff.structs.added.push_back(name);
    }
  }

  // ---- Tracepoints: event struct and tracing function compared separately.
  for (const auto& [name, tp] : older.tracepoints()) {
    const TracepointEntry* other = newer.FindTracepoint(name);
    if (other == nullptr) {
      diff.tracepoints.removed.push_back(name);
      continue;
    }
    std::vector<TracepointChangeKind> kinds;
    if (tp.struct_btf_id != 0 && other->struct_btf_id != 0 &&
        !CompareStructDecls(older.btf(), tp.struct_btf_id, newer.btf(), other->struct_btf_id)
             .empty()) {
      kinds.push_back(TracepointChangeKind::kEventChanged);
    }
    if (tp.func_btf_id != 0 && other->func_btf_id != 0 &&
        !CompareFuncDecls(older.btf(), tp.func_btf_id, newer.btf(), other->func_btf_id)
             .empty()) {
      kinds.push_back(TracepointChangeKind::kFuncChanged);
    }
    if (!kinds.empty()) {
      diff.tracepoints.changed.emplace(name, std::move(kinds));
    }
  }
  for (const auto& [name, tp] : newer.tracepoints()) {
    (void)tp;
    if (older.FindTracepoint(name) == nullptr) {
      diff.tracepoints.added.push_back(name);
    }
  }

  // ---- Syscalls: presence only.
  for (const auto& [name, entry] : older.syscalls()) {
    (void)entry;
    if (!newer.HasSyscall(name)) {
      diff.syscalls.removed.push_back(name);
    }
  }
  for (const auto& [name, entry] : newer.syscalls()) {
    (void)entry;
    if (!older.HasSyscall(name)) {
      diff.syscalls.added.push_back(name);
    }
  }

  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Incr("diff.pairs_diffed");
  metrics.Incr("diff.funcs_compared", older.functions().size());
  metrics.Incr("diff.structs_compared", older.structs().size());
  metrics.Incr("diff.tracepoints_compared", older.tracepoints().size());
  metrics.Incr("diff.funcs_changed", diff.funcs.changed.size());
  metrics.Incr("diff.structs_changed", diff.structs.changed.size());
  span.AddAttr("funcs_changed", static_cast<uint64_t>(diff.funcs.changed.size()));
  span.AddAttr("structs_changed", static_cast<uint64_t>(diff.structs.changed.size()));
  span.AddAttr("tracepoints_changed",
               static_cast<uint64_t>(diff.tracepoints.changed.size()));
  return diff;
}

}  // namespace depsurf
