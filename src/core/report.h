// Program mismatch reports: the per-dependency × per-image matrix of
// Figure 4, with consequences (Table 1) and implications (Table 2).
#ifndef DEPSURF_SRC_CORE_REPORT_H_
#define DEPSURF_SRC_CORE_REPORT_H_

#include <string>
#include <vector>

#include "src/core/dataset.h"
#include "src/core/dependency_set.h"

namespace depsurf {

enum class DepKind : uint8_t { kFunc, kStruct, kField, kTracepoint, kSyscall };
const char* DepKindName(DepKind kind);

enum class Consequence : uint8_t {
  kNone,
  kCompilationError,  // also implies a relocation error for CO-RE binaries
  kRelocationError,
  kAttachmentError,
  kStrayRead,
  kMissingInvocation,
  // A field-missing mismatch whose access the program itself guards with a
  // bpf_core_field_exists branch: the load never executes on kernels
  // without the field, so the mismatch is benign. Assigned only via the
  // guard-aware ConsequenceOf overload (the analyzer supplies the facts).
  kHandledByProgram,
};
const char* ConsequenceName(Consequence consequence);

enum class Implication : uint8_t {
  kNone,
  kExplicitError,     // surfaces before execution
  kIncorrectResult,   // might be detectable
  kIncompleteResult,  // difficult to detect
};
const char* ImplicationName(Implication implication);

// Table 1's mapping from (construct kind, mismatch) to consequence, and
// Table 2's mapping from consequence to implication.
Consequence ConsequenceOf(DepKind kind, MismatchKind mismatch);
// Guard-aware refinement: a field-absent mismatch dominated by an
// exists-guard downgrades from load failure to kHandledByProgram; every
// other (kind, mismatch) pair is unaffected by `guarded`.
Consequence ConsequenceOf(DepKind kind, MismatchKind mismatch, bool guarded);
Implication ImplicationOf(Consequence consequence);

// Per-construct-kind unique-dependency counts (one Table 7 row segment).
struct CategoryCounts {
  int total = 0;
  int absent = 0;
  int changed = 0;
  int full_inline = 0;
  int selective = 0;
  int transformed = 0;
  int duplicated = 0;
  int collided = 0;

  bool AnyMismatch() const {
    return absent + changed + full_inline + selective + transformed + duplicated + collided > 0;
  }
};

struct ReportRow {
  DepKind kind;
  std::string name;  // "blk_account_io_start" or "request::rq_disk"
  std::vector<MismatchSet> cells;  // one per image

  bool AnyMismatch() const;
};

struct ProgramReport {
  std::string program;
  std::vector<std::string> image_labels;
  // Parallel to image_labels: health summary ("clean" or e.g.
  // "dwarf=degraded") of each image's surface at extraction time.
  // Mismatches in a degraded column may reflect extraction loss rather
  // than the kernel, so RenderMatrix and ExplainReport flag them.
  std::vector<std::string> image_health;
  std::vector<ReportRow> rows;
  CategoryCounts funcs;
  CategoryCounts structs;
  CategoryCounts fields;
  CategoryCounts tracepoints;
  CategoryCounts syscalls;

  bool AnyMismatch() const;
  // True when any column's surface was salvaged rather than clean.
  bool AnyDegradedImage() const;
  // Figure-4 style ASCII matrix (rows = dependencies, columns = images).
  std::string RenderMatrix() const;
  // Worst implication across all cells (for one-line summaries).
  Implication WorstImplication() const;
};

// Compact cell code used in report matrices and serve responses: "." for a
// clean cell, "-" when absence dominates, else concatenated mismatch codes.
std::string MismatchCellString(MismatchSet cell);

// Analysis runs against the read-side view so both a fully parsed `Dataset`
// and a zero-copy `MmapDataset` can serve as the corpus.
ProgramReport AnalyzeProgram(const DatasetView& dataset, const DependencySet& deps);

// Human-readable diagnosis of every mismatching dependency, with rendered
// declarations pulled from the dataset, e.g.
//   function blk_account_io_start
//     changed at v5.8-x86-generic-gcc10:
//       was: void blk_account_io_start(struct request *rq, bool new_io)
//       now: void blk_account_io_start(struct request *rq)
//     fully inlined from v5.19-... -> attachment error
std::string ExplainReport(const DatasetView& dataset, const ProgramReport& report);

}  // namespace depsurf

#endif  // DEPSURF_SRC_CORE_REPORT_H_
