// DependencySurface: everything an eBPF program can depend on in one kernel
// image, extracted purely from the image bytes (ELF + DWARF + BTF + data
// sections) — the first stage of DepSurf (§3.1).
#ifndef DEPSURF_SRC_CORE_DEPENDENCY_SURFACE_H_
#define DEPSURF_SRC_CORE_DEPENDENCY_SURFACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/btf/btf.h"
#include "src/dwarf/function_view.h"
#include "src/elf/elf.h"
#include "src/util/diagnostic_ledger.h"
#include "src/util/error.h"

namespace depsurf {

// Per-subsystem outcome of salvage-mode extraction.
//   kClean:    decoded completely.
//   kDegraded: malformed data was skipped; results are partial.
//   kMissing:  the section/symbols are absent from the image (expected for
//              e.g. distro kernels without dbgsym DWARF).
enum class DegradationState : uint8_t { kClean, kDegraded, kMissing };

// "clean" / "degraded" / "missing".
const char* DegradationStateName(DegradationState state);

// What survived extraction, per subsystem, plus the ledger explaining every
// salvage decision. A surface with AnyDegraded() still answers queries, but
// analyses built on it must be flagged (see ProgramReport).
struct SurfaceHealth {
  DegradationState elf = DegradationState::kClean;
  DegradationState dwarf = DegradationState::kClean;
  DegradationState btf = DegradationState::kClean;
  DegradationState tracepoint = DegradationState::kClean;
  DegradationState syscall = DegradationState::kClean;
  DiagnosticLedger ledger;

  bool AnyDegraded() const;
  // "dwarf=degraded btf=clean ..." — only non-clean subsystems are listed;
  // returns "clean" when everything decoded completely.
  std::string Summary() const;
};

// How a source function shows up (or fails to) in the compiled image.
struct FunctionStatus {
  bool has_exact_symbol = false;  // attachable by name
  bool fully_inlined = false;     // exists in debug info, no code anywhere
  bool selectively_inlined = false;  // out-of-line copy plus inlined sites
  bool transformed = false;          // only suffixed symbols (.isra.0, ...)
  std::string transform_suffix;
  bool duplicated = false;  // several copies of one definition (header static)
  bool collided = false;    // unrelated definitions sharing the name
  bool external = false;    // any instance is a global

  // "Unique Global" / "Unique Static" / "Static Duplication" /
  // "Static-Static Collision" / "Static-Global Collision" (Table 6).
  std::string CollisionClass() const;
};

// One function of a surface. The name, the instances and the symbols view
// data the surface keeps (see DependencySurface), so an entry is valid while
// the surface it came from, or a copy of it, lives.
struct FunctionEntry {
  std::string_view name;
  BtfTypeId btf_id = 0;  // FUNC node in the surface's type graph (0: none)
  // Its DWARF instances in DIE order; empty without debug info.
  std::span<const FunctionInstance> instances;
  // Its FUNC symbols, exact and suffixed, in symbol-table order.
  std::span<const ElfSymbol* const> symbols;
  FunctionStatus status;

  // Dataset-style JSON (paper Appendix A.2.4 "Function Status").
  std::string StatusJson() const;
};

struct TracepointEntry {
  std::string event_name;
  std::string class_name;
  std::string func_name;    // tracing function symbol
  std::string struct_name;  // event struct in BTF
  std::string fmt;
  BtfTypeId func_btf_id = 0;    // FUNC node of the tracing function
  BtfTypeId struct_btf_id = 0;  // event struct
};

struct SyscallEntry {
  std::string name;
  int nr = -1;
};

struct SurfaceMeta {
  // False when the image has no DWARF debug sections: function declarations
  // still come from BTF and the symbol table, but inline/duplication status
  // is unavailable (the common case for distro kernels without dbgsym).
  bool has_debug_info = true;
  int version_major = 0;
  int version_minor = 0;
  std::string flavor;
  int gcc_major = 0;
  std::string arch;  // from e_machine
  int pointer_size = 8;
  Endian endian = Endian::kLittle;
  uint32_t config_options = 0;          // from the embedded .config
  bool compat_syscalls_traceable = true;
};

class DependencySurface {
 public:
  // An empty surface, as is a moved-from one: no functions, an empty graph.
  DependencySurface() = default;

  // Salvage-mode extraction from image bytes. Only an unreadable ELF
  // container is fatal; any malformed subsystem (BTF, DWARF, tracepoint
  // registry, syscall table) is skipped at section/record granularity,
  // marked in health(), and explained in health().ledger — a kernel with
  // broken DWARF still yields symbols, tracepoints, and syscalls. Callers
  // wanting strict semantics check health().AnyDegraded() themselves.
  //
  // The surface keeps the image bytes, the ELF symbol table and the type
  // graph: function names and instances view the DWARF section, symbols are
  // the symbol table's own, and fallback names view the graph or the
  // symbols. That block is immutable and shared by copies, so every view a
  // surface hands out stays valid while the surface or any copy of it lives,
  // including after the original is destroyed.
  static Result<DependencySurface> Extract(std::vector<uint8_t> image_bytes);

  const SurfaceMeta& meta() const { return meta_; }
  const TypeGraph& btf() const;
  const SurfaceHealth& health() const { return health_; }

  // Functions in name order; excludes tracepoint machinery and syscall
  // entry stubs.
  std::span<const FunctionEntry> functions() const;
  // Named struct name -> BTF id; excludes trace_event_raw_* machinery.
  const std::map<std::string, BtfTypeId>& structs() const { return structs_; }
  const std::map<std::string, TracepointEntry>& tracepoints() const { return tracepoints_; }
  const std::map<std::string, SyscallEntry>& syscalls() const { return syscalls_; }

  // kfunc names (from the image's .BTF_ids registration section).
  const std::set<std::string>& kfuncs() const { return kfuncs_; }
  // BPF helper ids this kernel exports (from the .bpf_helpers section
  // kernelgen embeds). Empty on images without the section.
  const std::set<uint32_t>& helpers() const { return helpers_; }
  // LSM hooks are identified by the security_ prefix, as in the paper.
  static bool IsLsmHook(std::string_view name);

  const FunctionEntry* FindFunction(std::string_view name) const;
  std::optional<BtfTypeId> FindStruct(const std::string& name) const;
  const TracepointEntry* FindTracepoint(const std::string& event) const;
  bool HasSyscall(const std::string& name) const;

 private:
  // What the function entries view, built once by Extract.
  struct Kept;

  std::shared_ptr<const Kept> kept_;
  SurfaceMeta meta_;
  SurfaceHealth health_;
  std::map<std::string, BtfTypeId> structs_;
  std::map<std::string, TracepointEntry> tracepoints_;
  std::map<std::string, SyscallEntry> syscalls_;
  std::set<std::string> kfuncs_;
  std::set<uint32_t> helpers_;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_CORE_DEPENDENCY_SURFACE_H_
