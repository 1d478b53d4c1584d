#include "src/core/dependency_set.h"

#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace depsurf {

size_t DependencySet::NumFields() const {
  size_t n = 0;
  for (const auto& [name, field_map] : fields) {
    n += field_map.size();
  }
  return n;
}

Result<DependencySet> ExtractDependencySet(const BpfObject& object) {
  obs::ScopedSpan span("deps.extract");
  span.AddAttr("program", object.name);
  DependencySet set;
  set.program = object.name;
  for (const BpfProgram& program : object.programs) {
    switch (program.hook.kind) {
      case HookKind::kKprobe:
      case HookKind::kKretprobe:
      case HookKind::kFentry:
      case HookKind::kFexit:
        set.funcs.insert(program.hook.target);
        break;
      case HookKind::kTracepoint:
      case HookKind::kRawTracepoint:
        set.tracepoints.insert(program.hook.target);
        break;
      case HookKind::kSyscallEnter:
      case HookKind::kSyscallExit:
        set.syscalls.insert(program.hook.target);
        break;
      case HookKind::kLsm:
        set.lsm_hooks.insert(program.hook.target);
        break;
      case HookKind::kPerfEvent:
        break;
    }
  }
  for (const CoreReloc& reloc : object.relocs) {
    if (reloc.kind == CoreRelocKind::kTypeExists) {
      const std::optional<BtfTypeView> root =
          object.btf.Get(object.btf.ResolveAliases(reloc.root_type_id));
      if (!root || root->name.empty()) {
        return Error(ErrorCode::kMalformedData, "type-exists reloc without a named root");
      }
      set.fields.try_emplace(std::string(root->name));  // struct dependency, no fields
      continue;
    }
    DEPSURF_ASSIGN_OR_RETURN(chain, ResolveReloc(object.btf, reloc));
    for (const FieldAccess& access : chain) {
      FieldDep dep;
      dep.expected_type = access.field_type;
      dep.guarded = access.exists_check;
      auto [it, inserted] = set.fields[access.struct_name].emplace(access.field_name, dep);
      if (!inserted && !access.exists_check) {
        it->second.guarded = false;  // a direct read outweighs a guard
      }
    }
  }
  // Instruction-stream entries: helper ids from call sites, and loads
  // whose (program, insn_off) no relocation claims — implicit layout
  // dependencies a CO-RE loader cannot repair. Stack access (r10) is not a
  // kernel dependency.
  for (size_t p = 0; p < object.programs.size(); ++p) {
    const BpfProgram& program = object.programs[p];
    std::set<uint32_t> bound_offsets;
    for (const CoreReloc& reloc : object.relocs) {
      if (reloc.prog_index == p) {
        bound_offsets.insert(reloc.insn_off);
      }
    }
    uint32_t byte_off = 0;
    for (const BpfInsn& insn : program.insns) {
      if (insn.IsCall()) {
        set.helper_ids.insert(static_cast<uint32_t>(insn.imm));
      }
      if (insn.IsLoad() && insn.src_reg != 10 && bound_offsets.count(byte_off) == 0) {
        set.raw_offsets.insert(RawOffsetDep{program.name, byte_off, insn.offset});
      }
      byte_off += static_cast<uint32_t>(insn.Slots() * 8);
    }
  }
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Incr("deps.sets_extracted");
  metrics.Incr("deps.funcs", set.NumFuncs());
  metrics.Incr("deps.structs", set.NumStructs());
  metrics.Incr("deps.fields", set.NumFields());
  metrics.Incr("deps.tracepoints", set.NumTracepoints());
  metrics.Incr("deps.syscalls", set.NumSyscalls());
  metrics.Incr("deps.helpers", set.NumHelpers());
  metrics.Incr("deps.raw_offsets", set.NumRawOffsets());
  span.AddAttr("funcs", static_cast<uint64_t>(set.NumFuncs()));
  span.AddAttr("fields", static_cast<uint64_t>(set.NumFields()));
  return set;
}

}  // namespace depsurf
