#include "src/bpf/bpf_object.h"

#include "src/btf/btf_print.h"
#include "src/util/str_util.h"

namespace depsurf {

const char* HookKindName(HookKind kind) {
  switch (kind) {
    case HookKind::kKprobe:
      return "kprobe";
    case HookKind::kKretprobe:
      return "kretprobe";
    case HookKind::kTracepoint:
      return "tracepoint";
    case HookKind::kRawTracepoint:
      return "raw_tracepoint";
    case HookKind::kSyscallEnter:
      return "syscall_enter";
    case HookKind::kSyscallExit:
      return "syscall_exit";
    case HookKind::kFentry:
      return "fentry";
    case HookKind::kFexit:
      return "fexit";
    case HookKind::kLsm:
      return "lsm";
    case HookKind::kPerfEvent:
      return "perf_event";
  }
  return "?";
}

const char* CoreRelocKindName(CoreRelocKind kind) {
  switch (kind) {
    case CoreRelocKind::kFieldByteOffset:
      return "field_byte_offset";
    case CoreRelocKind::kFieldSize:
      return "field_size";
    case CoreRelocKind::kFieldExists:
      return "field_exists";
    case CoreRelocKind::kTypeExists:
      return "type_exists";
  }
  return "?";
}

std::optional<Hook> ParseHookSection(const std::string& section_name) {
  auto after = [&](std::string_view prefix) {
    return section_name.substr(prefix.size());
  };
  if (StartsWith(section_name, "kprobe/")) {
    return Hook{HookKind::kKprobe, after("kprobe/"), ""};
  }
  // libbpf's multi-attach variant targets the same functions.
  if (StartsWith(section_name, "kprobe.multi/")) {
    return Hook{HookKind::kKprobe, after("kprobe.multi/"), ""};
  }
  if (StartsWith(section_name, "kretprobe/")) {
    return Hook{HookKind::kKretprobe, after("kretprobe/"), ""};
  }
  if (StartsWith(section_name, "fentry/")) {
    return Hook{HookKind::kFentry, after("fentry/"), ""};
  }
  // Sleepable variant: same attach point, different program flags.
  if (StartsWith(section_name, "fentry.s/")) {
    return Hook{HookKind::kFentry, after("fentry.s/"), ""};
  }
  // fmod_ret shares fentry's attachment mechanism (function entry via the
  // BPF trampoline); for dependency purposes it is a function hook.
  if (StartsWith(section_name, "fmod_ret/")) {
    return Hook{HookKind::kFentry, after("fmod_ret/"), ""};
  }
  if (StartsWith(section_name, "fexit/")) {
    return Hook{HookKind::kFexit, after("fexit/"), ""};
  }
  if (StartsWith(section_name, "lsm/")) {
    return Hook{HookKind::kLsm, after("lsm/"), ""};
  }
  if (StartsWith(section_name, "lsm.s/")) {
    return Hook{HookKind::kLsm, after("lsm.s/"), ""};
  }
  if (StartsWith(section_name, "raw_tracepoint/") || StartsWith(section_name, "raw_tp/") ||
      StartsWith(section_name, "tp_btf/")) {
    std::string rest = section_name.substr(section_name.find('/') + 1);
    return Hook{HookKind::kRawTracepoint, rest, ""};
  }
  if (StartsWith(section_name, "tracepoint/") || StartsWith(section_name, "tp/")) {
    std::string rest = section_name.substr(section_name.find('/') + 1);
    size_t slash = rest.find('/');
    if (slash == std::string::npos) {
      return std::nullopt;  // category/event required
    }
    std::string category = rest.substr(0, slash);
    std::string event = rest.substr(slash + 1);
    if (category == "syscalls") {
      if (StartsWith(event, "sys_enter_")) {
        return Hook{HookKind::kSyscallEnter, event.substr(10), "syscalls"};
      }
      if (StartsWith(event, "sys_exit_")) {
        return Hook{HookKind::kSyscallExit, event.substr(9), "syscalls"};
      }
      return std::nullopt;
    }
    return Hook{HookKind::kTracepoint, event, category};
  }
  if (StartsWith(section_name, "perf_event")) {
    return Hook{HookKind::kPerfEvent, "", ""};
  }
  return std::nullopt;
}

std::string HookSectionName(const Hook& hook) {
  switch (hook.kind) {
    case HookKind::kKprobe:
      return "kprobe/" + hook.target;
    case HookKind::kKretprobe:
      return "kretprobe/" + hook.target;
    case HookKind::kTracepoint:
      return "tracepoint/" + hook.category + "/" + hook.target;
    case HookKind::kRawTracepoint:
      return "raw_tracepoint/" + hook.target;
    case HookKind::kSyscallEnter:
      return "tracepoint/syscalls/sys_enter_" + hook.target;
    case HookKind::kSyscallExit:
      return "tracepoint/syscalls/sys_exit_" + hook.target;
    case HookKind::kFentry:
      return "fentry/" + hook.target;
    case HookKind::kFexit:
      return "fexit/" + hook.target;
    case HookKind::kLsm:
      return "lsm/" + hook.target;
    case HookKind::kPerfEvent:
      return "perf_event";
  }
  return "?";
}

Result<std::vector<FieldAccess>> ResolveReloc(const TypeGraph& btf, const CoreReloc& reloc) {
  std::vector<FieldAccess> out;
  std::vector<std::string> indices = SplitString(reloc.access_str, ':');
  if (indices.empty()) {
    return Error(ErrorCode::kMalformedData, "empty access string");
  }
  BtfTypeId current = btf.ResolveAliases(reloc.root_type_id);
  // The first index dereferences the root (usually "0"); subsequent
  // indices select members.
  for (size_t i = 1; i < indices.size(); ++i) {
    const std::optional<BtfTypeView> t = btf.Get(current);
    if (!t || (t->kind != BtfKind::kStruct && t->kind != BtfKind::kUnion)) {
      return Error(ErrorCode::kMalformedData,
                   "access chain does not traverse a struct: " + reloc.access_str);
    }
    size_t index = 0;
    for (char c : indices[i]) {
      if (c < '0' || c > '9') {
        return Error(ErrorCode::kMalformedData, "bad access index: " + indices[i]);
      }
      index = index * 10 + static_cast<size_t>(c - '0');
    }
    if (index >= t->members.size()) {
      return Error(ErrorCode::kMalformedData,
                   StrFormat("member %zu out of range in %.*s", index,
                             static_cast<int>(t->name.size()), t->name.data()));
    }
    const BtfMemberView member = t->members[index];
    FieldAccess access;
    access.struct_name = std::string(t->name);
    access.field_name = std::string(member.name);
    access.field_type = TypeString(btf, member.type_id);
    access.exists_check = reloc.kind == CoreRelocKind::kFieldExists;
    out.push_back(std::move(access));
    // Follow pointers/aliases into the next aggregate.
    current = btf.ResolveAliases(member.type_id);
    const std::optional<BtfTypeView> next = btf.Get(current);
    if (next && next->kind == BtfKind::kPtr) {
      current = btf.ResolveAliases(next->ref_type_id);
    }
  }
  return out;
}

}  // namespace depsurf
