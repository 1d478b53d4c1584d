// Ablations over the design choices DESIGN.md calls out:
//   A. Inline-threshold sweep: how the attachable surface and biotop-style
//      breakage respond to the compiler's full-inline aggressiveness.
//   B. CO-RE guards: unguarded vs bpf_core_field_exists-guarded field
//      access (explicit errors vs clean degradation).
//   C. Selective-inline detection on/off: how many silently-incomplete
//      programs a naive symbol-table-only analysis would miss.
//
//   $ bench_ablation [--scale=0.25]
#include <cstdio>

#include "src/bpf/bpf_builder.h"
#include "src/obs/bench_report.h"
#include "src/study/study.h"
#include "src/util/str_util.h"
#include "src/util/table.h"

using namespace depsurf;

namespace {

Result<DependencySurface> SurfaceWithRates(const Study& study, const BuildSpec& build,
                                           const CompilationRates& rates) {
  DEPSURF_ASSIGN_OR_RETURN(kernel, study.model().Configure(build));
  DEPSURF_ASSIGN_OR_RETURN(bytes,
                           BuildKernelImage(CompileKernel(study.options().seed,
                                                          std::move(kernel), rates)));
  return DependencySurface::Extract(std::move(bytes));
}

}  // namespace

int main(int argc, char** argv) {
  Study study(StudyOptions::FromArgs(argc, argv, /*default_scale=*/0.25));
  obs::BenchReporter bench("ablation");
  bench.AddNote("scale", StrFormat("%.2f", study.options().scale));
  printf("ablations (scale %.2f)\n\n", study.options().scale);
  constexpr KernelVersion kV54{5, 4};

  // ---- A: inline-threshold sweep.
  printf("A. inline aggressiveness sweep (full_inline_static rate):\n");
  TextTable sweep({"full-inline rate", "#funcs (debug info)", "attachable", "fully inlined",
                   "selectively inlined"});
  {
    auto stage = bench.Stage("inline_sweep");
    for (double rate : {0.0, 0.25, 0.52, 0.75, 1.0}) {
      CompilationRates rates;  // defaults
      rates.full_inline_static = rate;
      auto surface = SurfaceWithRates(study, MakeBuild(kV54), rates);
      if (!surface.ok()) {
        fprintf(stderr, "%s\n", surface.error().ToString().c_str());
        return 1;
      }
      stage.add_items();
      size_t total = surface->functions().size();
      size_t attachable = 0, full = 0, selective = 0;
      for (const FunctionEntry& entry : surface->functions()) {
        attachable += entry.status.has_exact_symbol ? 1 : 0;
        full += entry.status.fully_inlined ? 1 : 0;
        selective += entry.status.selectively_inlined ? 1 : 0;
      }
      sweep.AddRow({StrFormat("%.2f", rate), FormatCount(total), FormatCount(attachable),
                    FormatPercent(static_cast<double>(full) / total),
                    FormatPercent(static_cast<double>(selective) / total)});
    }
  }
  printf("%s\n", sweep.Render().c_str());
  printf("takeaway: every extra point of inline aggressiveness directly shrinks the\n"
         "attachable surface; kprobe-based tools degrade with the compiler's mood.\n\n");

  // ---- B: guarded vs unguarded field access.
  printf("B. CO-RE field-exists guards (request_queue::disk across the x86 series):\n");
  std::vector<BuildSpec> series = X86GenericSeries();
  Result<Dataset> dataset = Error(ErrorCode::kInternal, "unbuilt");
  {
    auto stage = bench.Stage("build_dataset");
    stage.set_items(series.size());
    dataset = study.BuildDataset(series);
  }
  if (!dataset.ok()) {
    fprintf(stderr, "dataset: %s\n", dataset.error().ToString().c_str());
    return 1;
  }
  for (bool guarded : {false, true}) {
    BpfObjectBuilder builder(guarded ? "probe_guarded" : "probe_unguarded");
    builder.AttachKprobe("blk_mq_start_request");
    Status ok = guarded
                    ? builder.CheckFieldExists("request_queue", "disk", "struct gendisk *")
                    : builder.AccessField("request_queue", "disk", "struct gendisk *");
    if (!ok.ok()) {
      fprintf(stderr, "builder: %s\n", ok.ToString().c_str());
      return 1;
    }
    auto report = Study::Analyze(*dataset, builder.Build());
    if (!report.ok()) {
      fprintf(stderr, "%s\n", report.error().ToString().c_str());
      return 1;
    }
    int broken_images = 0;
    for (const ReportRow& row : report->rows) {
      if (row.kind != DepKind::kField) {
        continue;
      }
      for (const auto& cell : row.cells) {
        broken_images += cell.count(MismatchKind::kAbsent) != 0 ? 1 : 0;
      }
    }
    printf("  %-16s images with a field mismatch: %2d / 17  (worst implication: %s)\n",
           guarded ? "guarded:" : "unguarded:", broken_images,
           ImplicationName(report->WorstImplication()));
  }
  printf("takeaway: the guard turns relocation failures on 12 old kernels into a clean\n"
         "runtime fallback -- but only if the developer knew to add it (DepSurf's job).\n\n");

  // ---- C: value of selective-inline detection.
  printf("C. symbol-table-only analysis vs DWARF call-site analysis:\n");
  int with_sites = 0;
  int symbol_only = 0;
  auto analyze_stage = bench.Stage("analyze_programs");
  for (const BpfObject& object : study.programs().objects) {
    auto report = Study::Analyze(*dataset, object);
    if (!report.ok()) {
      continue;
    }
    analyze_stage.add_items();
    bool selective_only = report->funcs.selective > 0 && report->funcs.absent == 0 &&
                          report->funcs.changed == 0 && report->funcs.full_inline == 0 &&
                          report->funcs.transformed == 0 && report->structs.absent == 0 &&
                          report->fields.absent == 0 && report->fields.changed == 0 &&
                          report->tracepoints.absent == 0 && report->tracepoints.changed == 0 &&
                          report->syscalls.absent == 0;
    with_sites += report->AnyMismatch() ? 1 : 0;
    symbol_only += (report->AnyMismatch() && !selective_only) ? 1 : 0;
  }
  printf("  programs flagged with call-site analysis:    %d / 53\n", with_sites);
  printf("  programs flagged by symbol table alone:      %d / 53\n", symbol_only);
  printf("  silently-incomplete tools missed without it: %d\n", with_sites - symbol_only);
  printf("takeaway: selective inline is invisible to symbol-table checks; only the\n"
         "DWARF inline-instance analysis exposes those incomplete-result bugs.\n");
  return 0;
}
