// eBPF object model: what DepSurf reads from a compiled eBPF .o file.
//
// Two signals matter for dependency analysis (§3.4 of the paper):
//   1. Program section names encode the hooks ("kprobe/do_unlinkat",
//      "tracepoint/block/block_rq_issue", "tracepoint/syscalls/
//      sys_enter_openat", "lsm/file_open", ...).
//   2. The .BTF/.BTF.ext sections carry the program's expected types and
//      the CO-RE field relocation records, from which struct/field
//      dependencies (including intermediate chain members) are extracted.
#ifndef DEPSURF_SRC_BPF_BPF_OBJECT_H_
#define DEPSURF_SRC_BPF_BPF_OBJECT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/bpf/bpf_insn.h"
#include "src/btf/btf.h"
#include "src/util/diagnostic_ledger.h"
#include "src/util/error.h"

namespace depsurf {

enum class HookKind : uint8_t {
  kKprobe,
  kKretprobe,
  kTracepoint,     // classic: category/event
  kRawTracepoint,  // attaches to the tracing function
  kSyscallEnter,   // tracepoint/syscalls/sys_enter_*
  kSyscallExit,
  kFentry,
  kFexit,
  kLsm,
  kPerfEvent,
};

const char* HookKindName(HookKind kind);

struct Hook {
  HookKind kind;
  // Function name, tracepoint event, or syscall name depending on kind.
  std::string target;
  // For kTracepoint: the category ("block", "sched", ...).
  std::string category;

  bool operator==(const Hook&) const = default;
};

// Parses a program section name into a hook; nullopt for non-program
// sections (".text", ".maps", licensing, ...).
std::optional<Hook> ParseHookSection(const std::string& section_name);
// Inverse of ParseHookSection (canonical spelling).
std::string HookSectionName(const Hook& hook);

// CO-RE field relocation kinds (subset of the kernel's enum bpf_core_relo_kind).
enum class CoreRelocKind : uint32_t {
  kFieldByteOffset = 0,
  kFieldExists = 3,
  kFieldSize = 1,
  kTypeExists = 8,  // struct referenced without field access
};

// "field_byte_offset" / "field_size" / "field_exists" / "type_exists".
const char* CoreRelocKindName(CoreRelocKind kind);

// prog_index value for a relocation not bound to any instruction (legacy
// objects written before instruction streams existed, or synthetic records).
inline constexpr uint32_t kRelocUnbound = 0xffffffffu;

struct CoreReloc {
  BtfTypeId root_type_id = 0;  // in the program's own BTF
  std::string access_str;      // "0:1:2": deref, then member indices
  CoreRelocKind kind = CoreRelocKind::kFieldByteOffset;
  // Instruction binding: which program, and the byte offset (into that
  // program's section) of the instruction this record patches.
  uint32_t prog_index = kRelocUnbound;
  uint32_t insn_off = 0;

  bool operator==(const CoreReloc&) const = default;
};

struct BpfProgram {
  std::string name;  // program (function) name
  Hook hook;
  std::vector<BpfInsn> insns;  // the program's instruction stream
};

struct BpfObject {
  std::string name;  // tool name ("biotop", ...)
  std::vector<BpfProgram> programs;
  TypeGraph btf;  // the program's expected kernel types
  std::vector<CoreReloc> relocs;
};

// One struct/field access recovered from a relocation: the chain of
// (struct, field) pairs traversed by the access string.
struct FieldAccess {
  std::string struct_name;
  std::string field_name;
  std::string field_type;  // rendered type, e.g. "struct gendisk *"
  bool exists_check = false;  // bpf_core_field_exists-style guard

  bool operator==(const FieldAccess&) const = default;
};

// Walks a relocation through the program BTF, returning every intermediate
// (struct, field) pair (the paper records the full chain for a[1].b->c).
Result<std::vector<FieldAccess>> ResolveReloc(const TypeGraph& btf, const CoreReloc& reloc);

// ---- Serialization to/from ELF .o bytes --------------------------------

// Section/record constants for the .BTF.ext-style relocation section.
inline constexpr char kBtfSection[] = ".BTF";
inline constexpr char kBtfExtSection[] = ".BTF.ext";
inline constexpr uint32_t kBtfExtMagic = 0xeBF1;

Result<std::vector<uint8_t>> WriteBpfObject(const BpfObject& object);
// Parses an object from ELF bytes. With a non-null `ledger`, malformed
// instruction streams degrade per program (the well-formed prefix is kept
// and a kBpf entry records the failing byte offset) instead of failing the
// whole object. Without a ledger the parse is strict: the first event the
// ledger would have recorded (an unreadable program section, a damaged
// instruction stream, a relocation bound to a missing program) is returned
// as the error. .BTF / .BTF.ext problems are fatal either way.
Result<BpfObject> ParseBpfObject(std::vector<uint8_t> bytes,
                                 DiagnosticLedger* ledger = nullptr);

}  // namespace depsurf

#endif  // DEPSURF_SRC_BPF_BPF_OBJECT_H_
