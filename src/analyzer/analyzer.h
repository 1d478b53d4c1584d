// Verifier-style static analysis of compiled eBPF objects.
//
// The dependency-set extractor reads only section names and CO-RE records;
// this pass reads the instruction streams. Per program it builds a CFG,
// computes reachability and an immediate-dominator tree, and runs an
// abstract interpretation tracking register provenance (ctx pointer /
// kernel pointer / scalar / guard result); field-exists facts hold exactly
// in the blocks dominated by a guard's exists-edge successor. Findings:
//
//   raw-offset-deref   load from a kernel or ctx pointer at a hardcoded
//                      displacement with no CO-RE relocation — an implicit
//                      struct-layout dependency (breaks silently).
//   unguarded-reloc    field relocation not dominated by a
//                      bpf_core_field_exists check on the same field.
//   unknown-helper     call to a helper id outside the catalog, or (with
//                      --against) one some dataset kernel predates.
//   unreachable-reloc  relocation only reachable through a guard that
//                      statically resolves false against the dataset.
//
// Guard facts also refine the mismatch report: a field-absent mismatch
// dominated by an exists-guard downgrades to "handled by program".
#ifndef DEPSURF_SRC_ANALYZER_ANALYZER_H_
#define DEPSURF_SRC_ANALYZER_ANALYZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/bpf/bpf_object.h"
#include "src/core/dataset.h"
#include "src/core/dependency_set.h"

namespace depsurf {

namespace obs {
class JsonWriter;
}  // namespace obs

inline constexpr char kAnalysisSchema[] = "depsurf.analysis.v1";

enum class FindingKind : uint8_t {
  kRawOffsetDeref,
  kUnguardedReloc,
  kUnknownHelper,
  kUnreachableReloc,
};

// "raw-offset-deref" / "unguarded-reloc" / "unknown-helper" /
// "unreachable-reloc".
const char* FindingKindName(FindingKind kind);

struct Finding {
  FindingKind kind = FindingKind::kRawOffsetDeref;
  std::string program;     // program (function) name
  uint32_t insn_off = 0;   // byte offset of the instruction in its section
  int32_t reloc_index = -1;  // index into BpfObject::relocs, when bound
  std::string detail;      // deterministic human-readable explanation
  // One-line remediation: either the concrete guard insertion the planner
  // synthesized or "not fixable: <reason>" (see src/analyzer/remediation.h).
  std::string remediation;
};

// Per-relocation verdicts (every record, finding or not).
struct RelocVerdict {
  size_t index = 0;  // into BpfObject::relocs
  CoreRelocKind kind = CoreRelocKind::kFieldByteOffset;
  std::string struct_name;  // terminal (struct, field) of the access chain
  std::string field_name;   // empty for type-exists records
  std::string expected_type;
  std::string program;  // owning program; empty when unbound
  uint32_t insn_off = 0;
  bool bound = false;
  bool reachable = true;   // insn reachable ignoring guard pruning
  bool unguarded = true;   // field reloc not dominated by a matching guard
  // With `against`: worst mismatch consequence across the dataset, already
  // guard-refined ("handled by program" when the guard covers an absence).
  std::string consequence;
};

struct ProgramAnalysis {
  std::string name;
  std::string section;
  size_t insn_count = 0;
  size_t block_count = 0;
  size_t reachable_insns = 0;
  size_t helper_calls = 0;
};

struct ObjectAnalysis {
  std::string object_name;
  std::vector<ProgramAnalysis> programs;
  std::vector<RelocVerdict> relocs;
  // Sorted by (program, insn_off, kind, detail) for deterministic output.
  std::vector<Finding> findings;
  bool against_dataset = false;
  size_t against_images = 0;

  size_t CountKind(FindingKind kind) const;
};

struct AnalyzeOptions {
  // When set, helper availability and guard truth are evaluated against
  // the dataset's images (enables unknown-helper version checks,
  // unreachable-reloc, and per-reloc consequences).
  const Dataset* against = nullptr;
  // When non-empty, takes precedence over `against`: the object is checked
  // against every dataset at once and the worst consequence across all of
  // their images wins (`depsurf analyze --against=DS,DS`).
  std::vector<const Dataset*> against_all;
};

ObjectAnalysis AnalyzeObject(const BpfObject& object, const AnalyzeOptions& opts = {});

// Folds guard dominance back into the dependency set: a field whose every
// read relocation is dominated by a matching exists-guard becomes
// guarded=true (the extractor alone cannot see dominance, only record
// kinds). Also surfaces the analyzer's implicit-layout entries.
void ApplyGuardFacts(const ObjectAnalysis& analysis, DependencySet& deps);

// Deterministic depsurf.analysis.v1 JSON document.
std::string AnalysisToJson(const ObjectAnalysis& analysis);

// What depsurf.analysis.v1 and depsurf.remediation.v1 share.
// WriteAnalysisHead opens the document and writes its schema, object and
// against members; WriteFindingMembers writes the members that name a
// finding: kind, program, insn_off, reloc and detail.
void WriteAnalysisHead(obs::JsonWriter& writer, const char* schema,
                       const ObjectAnalysis& analysis);
void WriteFindingMembers(obs::JsonWriter& writer, const Finding& finding);

}  // namespace depsurf

#endif  // DEPSURF_SRC_ANALYZER_ANALYZER_H_
