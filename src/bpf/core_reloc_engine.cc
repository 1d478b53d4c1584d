#include "src/bpf/core_reloc_engine.h"

#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// Byte size of a type in the kernel graph (pointers assume LP64; the value
// only feeds kFieldSize results).
uint32_t SizeOfKernelType(const TypeGraph& graph, BtfTypeId id) {
  const std::optional<BtfTypeView> t = graph.Get(graph.ResolveAliases(id));
  if (!t) {
    return 0;
  }
  switch (t->kind) {
    case BtfKind::kInt:
    case BtfKind::kFloat:
    case BtfKind::kStruct:
    case BtfKind::kUnion:
    case BtfKind::kEnum:
      return t->size;
    case BtfKind::kPtr:
      return 8;
    case BtfKind::kArray:
      return t->nelems * SizeOfKernelType(graph, t->ref_type_id);
    default:
      return 0;
  }
}

}  // namespace

Result<RelocResult> ResolveCoreReloc(const TypeGraph& local_btf, const CoreReloc& reloc,
                                     const TypeGraph& kernel_btf) {
  const std::optional<BtfTypeView> local_root =
      local_btf.Get(local_btf.ResolveAliases(reloc.root_type_id));
  if (!local_root || local_root->name.empty()) {
    return Error(ErrorCode::kMalformedData, "relocation root is not a named type");
  }
  bool is_guard = reloc.kind == CoreRelocKind::kFieldExists;

  // Step 1: match the root type in the kernel BTF by name.
  auto kernel_root = kernel_btf.FindByKindAndName(local_root->kind, local_root->name);
  if (!kernel_root.has_value()) {
    RelocResult result;
    if (reloc.kind == CoreRelocKind::kTypeExists || is_guard) {
      result.outcome = RelocOutcome::kGuardedAbsent;
      result.value = 0;
      result.detail = StrCat({local_root->name, " (absent)"});
      return result;
    }
    result.outcome = RelocOutcome::kTypeMissing;
    result.detail = StrCat({"no type named ", local_root->name, " in kernel BTF"});
    return result;
  }
  if (reloc.kind == CoreRelocKind::kTypeExists) {
    RelocResult result;
    result.value = 1;
    result.detail = StrCat({local_root->name, " (present)"});
    return result;
  }

  // Step 2: replay the access chain by *field name*. The local access
  // string gives member indices into the local type; each step is looked up
  // by name in the kernel type, accumulating the kernel byte offset.
  std::vector<std::string> indices = SplitString(reloc.access_str, ':');
  if (indices.size() < 2) {
    return Error(ErrorCode::kMalformedData, "field relocation without member steps");
  }
  BtfTypeId local_id = local_btf.ResolveAliases(reloc.root_type_id);
  BtfTypeId kernel_id = *kernel_root;
  uint64_t bit_offset = 0;
  std::string trail(local_root->name);
  BtfMemberView kernel_member;  // the last step's match

  for (size_t step = 1; step < indices.size(); ++step) {
    const std::optional<BtfTypeView> local_type = local_btf.Get(local_id);
    const std::optional<BtfTypeView> kernel_type =
        kernel_btf.Get(kernel_btf.ResolveAliases(kernel_id));
    if (!local_type ||
        (local_type->kind != BtfKind::kStruct && local_type->kind != BtfKind::kUnion)) {
      return Error(ErrorCode::kMalformedData, "local access chain leaves struct territory");
    }
    size_t index = 0;
    for (char c : indices[step]) {
      if (c < '0' || c > '9') {
        return Error(ErrorCode::kMalformedData, "bad access index " + indices[step]);
      }
      index = index * 10 + static_cast<size_t>(c - '0');
    }
    if (index >= local_type->members.size()) {
      return Error(ErrorCode::kMalformedData, "local member index out of range");
    }
    const BtfMemberView local_member = local_type->members[index];

    // Kernel side: the same struct, matched field by name.
    if (!kernel_type ||
        (kernel_type->kind != BtfKind::kStruct && kernel_type->kind != BtfKind::kUnion)) {
      RelocResult result;
      result.outcome = is_guard ? RelocOutcome::kGuardedAbsent : RelocOutcome::kTypeMissing;
      result.detail = trail + " is opaque in kernel BTF";
      return result;
    }
    bool matched = false;
    for (const BtfMemberView m : kernel_type->members) {
      if (m.name == local_member.name) {
        kernel_member = m;
        matched = true;
        break;
      }
    }
    trail += "::";
    trail += local_member.name;
    if (!matched) {
      RelocResult result;
      if (is_guard) {
        result.outcome = RelocOutcome::kGuardedAbsent;
        result.value = 0;
        result.detail = trail + " (absent)";
      } else {
        result.outcome = RelocOutcome::kFieldMissing;
        result.detail = trail + " missing in kernel";
      }
      return result;
    }
    bit_offset += kernel_member.bits_offset;
    if (step + 1 == indices.size()) {
      break;  // final member: the accumulated offset is the answer
    }

    // Descend for chained accesses: through the member type, and through
    // one pointer hop (a->b->c).
    local_id = local_btf.ResolveAliases(local_member.type_id);
    const std::optional<BtfTypeView> local_next = local_btf.Get(local_id);
    if (local_next && local_next->kind == BtfKind::kPtr) {
      local_id = local_btf.ResolveAliases(local_next->ref_type_id);
      bit_offset = 0;  // a pointer hop restarts the offset in the new object
    }
    kernel_id = kernel_btf.ResolveAliases(kernel_member.type_id);
    const std::optional<BtfTypeView> kernel_next = kernel_btf.Get(kernel_id);
    if (kernel_next && kernel_next->kind == BtfKind::kPtr) {
      kernel_id = kernel_btf.ResolveAliases(kernel_next->ref_type_id);
    }
    // Named aggregates on the kernel side may be forward declarations in
    // this compilation unit; re-resolve by name to the full definition.
    const std::optional<BtfTypeView> resolved = kernel_btf.Get(kernel_id);
    if (resolved && resolved->kind == BtfKind::kFwd) {
      if (auto full = kernel_btf.FindStruct(resolved->name); full.has_value()) {
        kernel_id = *full;
      }
    }
  }

  RelocResult result;
  switch (reloc.kind) {
    case CoreRelocKind::kFieldByteOffset:
      result.value = bit_offset / 8;
      result.detail = StrFormat("%s @ +%llu", trail.c_str(),
                                static_cast<unsigned long long>(result.value));
      break;
    case CoreRelocKind::kFieldExists:
      result.value = 1;
      result.detail = trail + " (present)";
      break;
    case CoreRelocKind::kFieldSize:
      result.value = SizeOfKernelType(kernel_btf, kernel_member.type_id);
      result.detail = StrFormat("sizeof(%s) = %llu", trail.c_str(),
                                static_cast<unsigned long long>(result.value));
      break;
    case CoreRelocKind::kTypeExists:
      result.value = 1;
      break;
  }
  return result;
}

LoadResult SimulateLoad(const BpfObject& object, const TypeGraph& kernel_btf) {
  obs::ScopedSpan span("reloc.simulate_load");
  span.AddAttr("program", object.name);
  span.AddAttr("relocs", static_cast<uint64_t>(object.relocs.size()));
  LoadResult load;
  load.loaded = true;
  load.relocs.reserve(object.relocs.size());
  for (const CoreReloc& reloc : object.relocs) {
    auto result = ResolveCoreReloc(object.btf, reloc, kernel_btf);
    if (!result.ok()) {
      load.loaded = false;
      load.failure = result.error().ToString();
      load.relocs.push_back(RelocResult{RelocOutcome::kTypeMissing, 0, load.failure});
      continue;
    }
    if (result->outcome == RelocOutcome::kFieldMissing ||
        result->outcome == RelocOutcome::kTypeMissing) {
      if (load.loaded) {
        load.failure = result->detail;
      }
      load.loaded = false;
    }
    load.relocs.push_back(result.TakeValue());
  }

  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Incr("reloc.loads_simulated");
  uint64_t resolved = 0, field_missing = 0, type_missing = 0, guarded_absent = 0;
  for (const RelocResult& r : load.relocs) {
    switch (r.outcome) {
      case RelocOutcome::kResolved:
        ++resolved;
        break;
      case RelocOutcome::kFieldMissing:
        ++field_missing;
        break;
      case RelocOutcome::kTypeMissing:
        ++type_missing;
        break;
      case RelocOutcome::kGuardedAbsent:
        ++guarded_absent;
        break;
    }
  }
  metrics.Incr("reloc.resolved", resolved);
  metrics.Incr("reloc.field_missing", field_missing);
  metrics.Incr("reloc.type_missing", type_missing);
  metrics.Incr("reloc.guarded_absent", guarded_absent);
  span.AddAttr("resolved", resolved);
  span.AddAttr("missed", field_missing + type_missing);
  span.AddAttr("loaded", load.loaded ? "true" : "false");
  return load;
}

}  // namespace depsurf
