// Regenerates Figure 6: functions transformed by compiler optimizations
// (constprop / isra / part / cold suffixes), per version and architecture.
//
//   $ bench_fig6 [--scale=1.0]
#include <cstdio>

#include "src/obs/bench_report.h"
#include "src/study/study.h"
#include "src/util/str_util.h"
#include "src/util/table.h"

using namespace depsurf;

namespace {

void MeasureRow(TextTable& table, const std::string& label, int gcc,
                const DependencySurface& surface) {
  size_t with_symbol = 0;
  size_t isra = 0;
  size_t constprop = 0;
  size_t part = 0;
  size_t cold = 0;
  for (const FunctionEntry& entry : surface.functions()) {
    if (entry.symbols.empty()) {
      continue;
    }
    ++with_symbol;
    if (!entry.status.transformed) {
      continue;
    }
    const std::string& suffix = entry.status.transform_suffix;
    if (suffix.find(".isra") == 0) {
      ++isra;
    } else if (suffix.find(".constprop") == 0) {
      ++constprop;
    } else if (suffix.find(".part") == 0) {
      ++part;
    } else if (suffix.find(".cold") == 0) {
      ++cold;
    }
  }
  double base = static_cast<double>(with_symbol);
  size_t total = isra + constprop + part + cold;
  table.AddRow({label, StrFormat("gcc%d", gcc), FormatCount(with_symbol),
                FormatPercent(isra / base), FormatPercent(constprop / base),
                FormatPercent(part / base), FormatPercent(cold / base),
                FormatPercent(total / base)});
}

}  // namespace

int main(int argc, char** argv) {
  Study study(StudyOptions::FromArgs(argc, argv));
  printf("Figure 6: function transformations by the compiler (scale %.2f)\n",
         study.options().scale);
  printf("paper reference: up to 16%% of symbol-table functions transformed; '.cold'\n"
         "appears with GCC >= 8; arm32 has no '.isra' (disabled, a077224)\n\n");

  obs::BenchReporter bench("fig6");
  bench.AddNote("scale", StrFormat("%.2f", study.options().scale));
  TextTable table({"image", "gcc", "#syms", "isra", "constprop", "part", "cold", "total"});
  {
    auto stage = bench.Stage("extract_versions");
    for (KernelVersion version : kStudyVersions) {
      auto surface = study.ExtractSurface(MakeBuild(version));
      if (!surface.ok()) {
        fprintf(stderr, "extract: %s\n", surface.error().ToString().c_str());
        return 1;
      }
      stage.add_items();
      MeasureRow(table, version.Tag(), GccMajorFor(version), *surface);
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
      MeasureRow(table, StrFormat("v5.4-%s", ArchName(arch)), GccMajorFor(kV54), *surface);
    }
  }
  printf("%s", table.Render().c_str());
  return 0;
}
