// Regenerates Table 5: configuration differences at v5.4 relative to the
// generic x86 kernel — four architectures and four flavors.
//
//   $ bench_table5 [--scale=1.0]
#include <cstdio>

#include "src/obs/bench_report.h"
#include "src/study/study.h"
#include "src/util/str_util.h"
#include "src/util/table.h"

using namespace depsurf;

namespace {

size_t AttachableFuncs(const DependencySurface& surface) {
  size_t n = 0;
  for (const FunctionEntry& entry : surface.functions()) {
    if (entry.status.has_exact_symbol) {
      ++n;
    }
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  Study study(StudyOptions::FromArgs(argc, argv));
  printf("Table 5: configuration differences vs generic x86 at v5.4 (scale %.2f)\n",
         study.options().scale);
  printf("paper reference: arm64 +9.2k/-7.9k funcs; arm32 +12.6k/-11.8k; ppc +5.4k/-10.6k;\n"
         "riscv +2.1k/-13.5k; aws -1.8k; azure -3.5k; gcp -319; lowlat -41\n\n");

  obs::BenchReporter bench("table5");
  bench.AddNote("scale", StrFormat("%.2f", study.options().scale));
  auto stage = bench.Stage("extract_and_compare");
  constexpr KernelVersion kV54{5, 4};
  auto baseline = study.ExtractSurface(MakeBuild(kV54));
  if (!baseline.ok()) {
    fprintf(stderr, "baseline: %s\n", baseline.error().ToString().c_str());
    return 1;
  }
  stage.add_items();

  TextTable table({"build", "config", "#func", "+", "-", "d", "#struct", "+", "-", "d",
                   "#tracept", "+", "-", "#syscall", "+", "-", "reg d", "compat32"});
  auto add_row = [&](const char* label, const DependencySurface& surface, bool is_baseline) {
    SurfaceDiff diff = is_baseline ? SurfaceDiff{} : DiffSurfaces(*baseline, surface);
    Dataset pair;
    pair.AddImage("base", *baseline);
    pair.AddImage("other", surface);
    bool reg_diff = !pair.CheckRegisters()[1].empty();
    auto dash_or = [&](size_t n) { return is_baseline ? std::string("-") : FormatCount(n); };
    table.AddRow({label, FormatCount(surface.meta().config_options),
                  FormatCount(AttachableFuncs(surface)), dash_or(diff.funcs.added.size()),
                  dash_or(diff.funcs.removed.size()), dash_or(diff.funcs.changed.size()),
                  FormatCount(surface.structs().size()), dash_or(diff.structs.added.size()),
                  dash_or(diff.structs.removed.size()), dash_or(diff.structs.changed.size()),
                  std::to_string(surface.tracepoints().size()),
                  dash_or(diff.tracepoints.added.size()),
                  dash_or(diff.tracepoints.removed.size()),
                  std::to_string(surface.syscalls().size()),
                  dash_or(diff.syscalls.added.size()), dash_or(diff.syscalls.removed.size()),
                  is_baseline ? "-" : (reg_diff ? "Yes" : "-"),
                  surface.meta().compat_syscalls_traceable ? "traceable" : "blind"});
  };

  add_row("x86-generic", *baseline, true);
  for (Arch arch : {Arch::kArm64, Arch::kArm32, Arch::kPpc, Arch::kRiscv}) {
    auto surface = study.ExtractSurface(MakeBuild(kV54, arch));
    if (!surface.ok()) {
      fprintf(stderr, "%s: %s\n", ArchName(arch), surface.error().ToString().c_str());
      return 1;
    }
    stage.add_items();
    add_row(ArchName(arch), *surface, false);
  }
  for (Flavor flavor : {Flavor::kAws, Flavor::kAzure, Flavor::kGcp, Flavor::kLowLatency}) {
    auto surface = study.ExtractSurface(MakeBuild(kV54, Arch::kX86, flavor));
    if (!surface.ok()) {
      fprintf(stderr, "%s: %s\n", FlavorName(flavor), surface.error().ToString().c_str());
      return 1;
    }
    stage.add_items();
    add_row(FlavorName(flavor), *surface, false);
  }
  printf("%s", table.Render().c_str());
  printf("\n'compat32 blind': 32-bit compat syscalls exist but cannot be traced on this\n"
         "architecture (x86/arm64/riscv) -- the monitoring blind spot of the paper.\n");
  return 0;
}
