#include "src/core/report.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/str_util.h"

namespace depsurf {

const char* DepKindName(DepKind kind) {
  switch (kind) {
    case DepKind::kFunc:
      return "function";
    case DepKind::kStruct:
      return "struct";
    case DepKind::kField:
      return "field";
    case DepKind::kTracepoint:
      return "tracepoint";
    case DepKind::kSyscall:
      return "syscall";
  }
  return "?";
}

const char* ConsequenceName(Consequence consequence) {
  switch (consequence) {
    case Consequence::kNone:
      return "none";
    case Consequence::kCompilationError:
      return "compilation error";
    case Consequence::kRelocationError:
      return "relocation error";
    case Consequence::kAttachmentError:
      return "attachment error";
    case Consequence::kStrayRead:
      return "stray read";
    case Consequence::kMissingInvocation:
      return "missing invocation";
    case Consequence::kHandledByProgram:
      return "handled by program";
  }
  return "?";
}

const char* ImplicationName(Implication implication) {
  switch (implication) {
    case Implication::kNone:
      return "none";
    case Implication::kExplicitError:
      return "explicit error (before execution)";
    case Implication::kIncorrectResult:
      return "incorrect result (might be detectable)";
    case Implication::kIncompleteResult:
      return "incomplete result (difficult to detect)";
  }
  return "?";
}

Consequence ConsequenceOf(DepKind kind, MismatchKind mismatch) {
  switch (kind) {
    case DepKind::kFunc:
      switch (mismatch) {
        case MismatchKind::kAbsent:
        case MismatchKind::kFullInline:
        case MismatchKind::kTransformed:
          return Consequence::kAttachmentError;
        case MismatchKind::kChanged:
        case MismatchKind::kCollision:
          return Consequence::kStrayRead;
        case MismatchKind::kSelectiveInline:
        case MismatchKind::kDuplicated:
          return Consequence::kMissingInvocation;
        default:
          return Consequence::kNone;
      }
    case DepKind::kStruct:
    case DepKind::kField:
      switch (mismatch) {
        case MismatchKind::kAbsent:
          return Consequence::kCompilationError;
        case MismatchKind::kChanged:
          return Consequence::kStrayRead;
        default:
          return Consequence::kNone;
      }
    case DepKind::kTracepoint:
      switch (mismatch) {
        case MismatchKind::kAbsent:
          return Consequence::kAttachmentError;
        case MismatchKind::kChanged:
          return Consequence::kStrayRead;
        default:
          return Consequence::kNone;
      }
    case DepKind::kSyscall:
      switch (mismatch) {
        case MismatchKind::kAbsent:
          return Consequence::kAttachmentError;
        case MismatchKind::kNotTraceable:
          return Consequence::kMissingInvocation;
        default:
          return Consequence::kNone;
      }
  }
  return Consequence::kNone;
}

Consequence ConsequenceOf(DepKind kind, MismatchKind mismatch, bool guarded) {
  if (guarded && (kind == DepKind::kField || kind == DepKind::kStruct) &&
      mismatch == MismatchKind::kAbsent) {
    return Consequence::kHandledByProgram;
  }
  return ConsequenceOf(kind, mismatch);
}

Implication ImplicationOf(Consequence consequence) {
  switch (consequence) {
    case Consequence::kCompilationError:
    case Consequence::kRelocationError:
    case Consequence::kAttachmentError:
      return Implication::kExplicitError;
    case Consequence::kStrayRead:
      return Implication::kIncorrectResult;
    case Consequence::kMissingInvocation:
      return Implication::kIncompleteResult;
    case Consequence::kNone:
    case Consequence::kHandledByProgram:
      return Implication::kNone;
  }
  return Implication::kNone;
}

bool ReportRow::AnyMismatch() const {
  for (const auto& cell : cells) {
    if (!cell.empty()) {
      return true;
    }
  }
  return false;
}

bool ProgramReport::AnyMismatch() const {
  return funcs.AnyMismatch() || structs.AnyMismatch() || fields.AnyMismatch() ||
         tracepoints.AnyMismatch() || syscalls.AnyMismatch();
}

namespace {

void Tally(CategoryCounts& counts, const ReportRow& row) {
  ++counts.total;
  bool absent = false;
  bool changed = false;
  bool full = false;
  bool selective = false;
  bool transformed = false;
  bool duplicated = false;
  bool collided = false;
  for (const auto& cell : row.cells) {
    absent |= cell.count(MismatchKind::kAbsent) != 0;
    changed |= cell.count(MismatchKind::kChanged) != 0;
    full |= cell.count(MismatchKind::kFullInline) != 0;
    selective |= cell.count(MismatchKind::kSelectiveInline) != 0;
    transformed |= cell.count(MismatchKind::kTransformed) != 0;
    duplicated |= cell.count(MismatchKind::kDuplicated) != 0;
    collided |= cell.count(MismatchKind::kCollision) != 0;
  }
  counts.absent += absent ? 1 : 0;
  counts.changed += changed ? 1 : 0;
  counts.full_inline += full ? 1 : 0;
  counts.selective += selective ? 1 : 0;
  counts.transformed += transformed ? 1 : 0;
  counts.duplicated += duplicated ? 1 : 0;
  counts.collided += collided ? 1 : 0;
}

}  // namespace

std::string MismatchCellString(MismatchSet cell) {
  if (cell.empty()) {
    return ".";
  }
  if (cell.count(MismatchKind::kAbsent) != 0) {
    return "-";
  }
  std::string out;
  for (MismatchKind kind : cell) {
    out += MismatchKindCode(kind);
  }
  return out;
}

std::string ProgramReport::RenderMatrix() const {
  // Column headers: version tags when available, else indexes.
  size_t name_width = 12;
  for (const ReportRow& row : rows) {
    name_width = std::max(name_width, row.name.size() + 6);  // "[F] " prefix + padding
  }
  std::string out = StrFormat("=== %s: dependency mismatches across %zu images ===\n",
                              program.c_str(), image_labels.size());
  out += "legend: '.' ok  '-' absent  C changed  F full-inline  S selective-inline"
         "  T transformed  D duplicated  N name-collision\n\n";
  // Header row with column indexes.
  out += std::string(name_width, ' ');
  for (size_t i = 0; i < image_labels.size(); ++i) {
    out += StrFormat("%4zu", i);
  }
  out += "\n";
  for (const ReportRow& row : rows) {
    std::string label = StrFormat("[%c] %s", toupper(DepKindName(row.kind)[0]), row.name.c_str());
    label.resize(name_width, ' ');
    out += label;
    for (const auto& cell : row.cells) {
      std::string code = MismatchCellString(cell);
      out += StrFormat("%4s", code.c_str());
    }
    out += "\n";
  }
  out += "\ncolumns:\n";
  for (size_t i = 0; i < image_labels.size(); ++i) {
    if (i < image_health.size() && image_health[i] != "clean") {
      out += StrFormat("  %2zu: %s  [salvaged: %s]\n", i, image_labels[i].c_str(),
                       image_health[i].c_str());
    } else {
      out += StrFormat("  %2zu: %s\n", i, image_labels[i].c_str());
    }
  }
  if (AnyDegradedImage()) {
    out += "\n!! columns marked [salvaged] were extracted from damaged images;\n"
           "!! mismatches there may reflect extraction loss, not the kernel.\n";
  }
  return out;
}

bool ProgramReport::AnyDegradedImage() const {
  for (const std::string& health : image_health) {
    if (health != "clean") {
      return true;
    }
  }
  return false;
}

Implication ProgramReport::WorstImplication() const {
  Implication worst = Implication::kNone;
  for (const ReportRow& row : rows) {
    for (const auto& cell : row.cells) {
      for (MismatchKind kind : cell) {
        Implication imp = ImplicationOf(ConsequenceOf(row.kind, kind));
        if (static_cast<int>(imp) > static_cast<int>(worst)) {
          worst = imp;
        }
      }
    }
  }
  return worst;
}

std::string ExplainReport(const DatasetView& dataset, const ProgramReport& report) {
  std::string out;
  // Conclusions resting on salvaged surfaces get a caveat up front: an
  // "absent" verdict on an image whose DWARF was skipped may just mean the
  // construct was lost with the damaged data.
  for (size_t i = 0; i < report.image_health.size(); ++i) {
    if (report.image_health[i] != "clean") {
      out += StrFormat("  caveat: %s was salvaged (%s); verdicts on that image may "
                       "reflect extraction loss\n",
                       report.image_labels[i].c_str(), report.image_health[i].c_str());
    }
  }
  auto span_note = [&](const ReportRow& row, MismatchKind kind, const char* verb) {
    // First image where the kind appears.
    for (size_t i = 0; i < row.cells.size(); ++i) {
      if (row.cells[i].count(kind) != 0) {
        Consequence consequence = ConsequenceOf(row.kind, kind);
        out += StrFormat("    %s from %s -> %s (%s)\n", verb,
                         report.image_labels[i].c_str(), ConsequenceName(consequence),
                         ImplicationName(ImplicationOf(consequence)));
        return;
      }
    }
  };
  for (const ReportRow& row : report.rows) {
    if (!row.AnyMismatch()) {
      continue;
    }
    out += StrFormat("  %s %s\n", DepKindName(row.kind), row.name.c_str());
    // Declaration transitions are reported along the version series of the
    // first image's arch/flavor; foreign-arch images would read as
    // spurious back-in-time changes.
    auto same_series = [&](size_t i) {
      SurfaceMeta a = dataset.MetaAt(i);
      SurfaceMeta b = dataset.MetaAt(0);
      return a.arch == b.arch && a.flavor == b.flavor;
    };
    if (row.kind == DepKind::kFunc) {
      std::optional<std::string_view> prev;
      for (size_t i = 0; i < row.cells.size(); ++i) {
        if (!same_series(i)) {
          continue;
        }
        std::optional<std::string_view> decl = dataset.FuncDeclAt(row.name, i);
        if (decl.has_value() && prev.has_value() && *decl != *prev) {
          out += StrFormat("    changed at %s:\n      was: %.*s\n      now: %.*s\n",
                           report.image_labels[i].c_str(), static_cast<int>(prev->size()),
                           prev->data(), static_cast<int>(decl->size()), decl->data());
        }
        if (decl.has_value()) {
          prev = decl;
        }
      }
    }
    if (row.kind == DepKind::kField) {
      size_t sep = row.name.find("::");
      if (sep != std::string::npos) {
        std::string struct_name = row.name.substr(0, sep);
        std::string field_name = row.name.substr(sep + 2);
        std::optional<std::string_view> prev;
        for (size_t i = 0; i < row.cells.size(); ++i) {
          if (!same_series(i)) {
            continue;
          }
          std::optional<std::string_view> type = dataset.FieldTypeAt(struct_name, field_name, i);
          if (type.has_value() && prev.has_value() && *type != *prev) {
            out += StrFormat("    type changed at %s: %.*s -> %.*s\n",
                             report.image_labels[i].c_str(), static_cast<int>(prev->size()),
                             prev->data(), static_cast<int>(type->size()), type->data());
          }
          if (type.has_value()) {
            prev = type;
          }
        }
      }
    }
    span_note(row, MismatchKind::kAbsent, "absent");
    span_note(row, MismatchKind::kFullInline, "fully inlined");
    span_note(row, MismatchKind::kSelectiveInline, "selectively inlined");
    span_note(row, MismatchKind::kTransformed, "transformed");
    span_note(row, MismatchKind::kDuplicated, "duplicated");
    span_note(row, MismatchKind::kCollision, "name collision");
  }
  return out;
}

ProgramReport AnalyzeProgram(const DatasetView& dataset, const DependencySet& deps) {
  obs::ScopedSpan span("report.program");
  span.AddAttr("program", deps.program);
  span.AddAttr("images", static_cast<uint64_t>(dataset.num_images()));
  ProgramReport report;
  report.program = deps.program;
  report.image_labels = dataset.labels();
  for (size_t i = 0; i < dataset.num_images(); ++i) {
    report.image_health.push_back(dataset.HealthSummaryAt(i));
  }

  for (const std::string& func : deps.funcs) {
    ReportRow row{DepKind::kFunc, func, dataset.CheckFunc(func)};
    Tally(report.funcs, row);
    report.rows.push_back(std::move(row));
  }
  // LSM hooks are functions on the surface.
  for (const std::string& hook : deps.lsm_hooks) {
    ReportRow row{DepKind::kFunc, hook, dataset.CheckFunc(hook)};
    Tally(report.funcs, row);
    report.rows.push_back(std::move(row));
  }
  for (const auto& [struct_name, field_map] : deps.fields) {
    ReportRow srow{DepKind::kStruct, struct_name, dataset.CheckStruct(struct_name)};
    // Struct-level cells report only absence; definition changes are
    // attributed to the specific fields below.
    for (auto& cell : srow.cells) {
      cell.erase(MismatchKind::kChanged);
    }
    Tally(report.structs, srow);
    report.rows.push_back(std::move(srow));
    for (const auto& [field_name, dep] : field_map) {
      ReportRow frow{DepKind::kField, struct_name + "::" + field_name,
                     dataset.CheckField(struct_name, field_name, dep.expected_type,
                                        dep.guarded)};
      Tally(report.fields, frow);
      report.rows.push_back(std::move(frow));
    }
  }
  for (const std::string& event : deps.tracepoints) {
    ReportRow row{DepKind::kTracepoint, event, dataset.CheckTracepoint(event)};
    Tally(report.tracepoints, row);
    report.rows.push_back(std::move(row));
  }
  for (const std::string& syscall : deps.syscalls) {
    ReportRow row{DepKind::kSyscall, syscall, dataset.CheckSyscall(syscall)};
    Tally(report.syscalls, row);
    report.rows.push_back(std::move(row));
  }
  uint64_t mismatching = 0;
  for (const ReportRow& row : report.rows) {
    mismatching += row.AnyMismatch() ? 1 : 0;
  }
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Incr("analyze.programs_analyzed");
  metrics.Incr("analyze.rows_checked", report.rows.size());
  metrics.Incr("analyze.rows_mismatching", mismatching);
  span.AddAttr("rows", static_cast<uint64_t>(report.rows.size()));
  span.AddAttr("rows_mismatching", mismatching);
  return report;
}

}  // namespace depsurf
