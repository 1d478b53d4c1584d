// Regenerates Figure 5: percentages of functions fully and selectively
// inlined, across the 17 kernel versions (x86) and the 4 extra
// architectures at v5.4.
//
//   $ bench_fig5 [--scale=1.0]
#include <cstdio>

#include "src/obs/bench_report.h"
#include "src/study/study.h"
#include "src/util/str_util.h"
#include "src/util/table.h"

using namespace depsurf;

namespace {

void MeasureRow(TextTable& table, const std::string& label,
                const DependencySurface& surface) {
  size_t total = surface.functions().size();
  size_t full = 0;
  size_t selective = 0;
  for (const FunctionEntry& entry : surface.functions()) {
    if (entry.status.fully_inlined) {
      ++full;
    } else if (entry.status.selectively_inlined) {
      ++selective;
    }
  }
  table.AddRow({label, FormatCount(total),
                FormatPercent(static_cast<double>(full) / total),
                FormatPercent(static_cast<double>(selective) / total)});
}

}  // namespace

int main(int argc, char** argv) {
  Study study(StudyOptions::FromArgs(argc, argv));
  printf("Figure 5: functions fully and selectively inlined (scale %.2f)\n",
         study.options().scale);
  printf("paper reference: 32-36%% fully inlined, 9-11%% selectively inlined, with only\n"
         "a few percent variation across versions and architectures\n\n");

  obs::BenchReporter bench("fig5");
  bench.AddNote("scale", StrFormat("%.2f", study.options().scale));
  TextTable table({"image", "#funcs (debug info)", "fully inlined", "selectively inlined"});
  {
    auto stage = bench.Stage("extract_versions");
    for (KernelVersion version : kStudyVersions) {
      auto surface = study.ExtractSurface(MakeBuild(version));
      if (!surface.ok()) {
        fprintf(stderr, "extract: %s\n", surface.error().ToString().c_str());
        return 1;
      }
      stage.add_items();
      MeasureRow(table, version.Tag(), *surface);
    }
  }
  table.AddSeparator();
  constexpr KernelVersion kV54{5, 4};
  {
    auto stage = bench.Stage("extract_arches");
    for (Arch arch : {Arch::kArm64, Arch::kArm32, Arch::kPpc, Arch::kRiscv}) {
      auto surface = study.ExtractSurface(MakeBuild(kV54, arch));
      if (!surface.ok()) {
        fprintf(stderr, "extract: %s\n", surface.error().ToString().c_str());
        return 1;
      }
      stage.add_items();
      MeasureRow(table, StrFormat("v5.4-%s", ArchName(arch)), *surface);
    }
  }
  printf("%s", table.Render().c_str());
  return 0;
}
