// Regenerates Table 3: kernel source-code differences across the 17 study
// versions (and the LTS block), measured by diffing extracted dependency
// surfaces pairwise.
//
//   $ bench_table3 [--scale=1.0] [--seed=N]
#include <cstdio>
#include <optional>

#include "src/obs/bench_report.h"
#include "src/study/study.h"
#include "src/util/str_util.h"
#include "src/util/table.h"

using namespace depsurf;

namespace {

struct Row {
  std::string version;
  size_t funcs = 0;
  size_t structs = 0;
  size_t tracepts = 0;
  // Percentages relative to the *older* surface, paper-style.
  double f_add = -1, f_rm = -1, f_chg = -1;
  double s_add = -1, s_rm = -1, s_chg = -1;
  double t_add = -1, t_rm = -1, t_chg = -1;
};

size_t AttachableFuncs(const DependencySurface& surface) {
  size_t n = 0;
  for (const FunctionEntry& entry : surface.functions()) {
    if (entry.status.has_exact_symbol) {
      ++n;
    }
  }
  return n;
}

Row MeasureRow(const DependencySurface& surface, const DependencySurface* prev) {
  Row row;
  row.version = StrFormat("v%d.%d", surface.meta().version_major, surface.meta().version_minor);
  row.funcs = AttachableFuncs(surface);
  row.structs = surface.structs().size();
  row.tracepts = surface.tracepoints().size();
  if (prev != nullptr) {
    SurfaceDiff diff = DiffSurfaces(*prev, surface);
    double f_base = static_cast<double>(AttachableFuncs(*prev));
    double s_base = static_cast<double>(prev->structs().size());
    double t_base = static_cast<double>(prev->tracepoints().size());
    row.f_add = diff.funcs.added.size() / f_base;
    row.f_rm = diff.funcs.removed.size() / f_base;
    row.f_chg = diff.funcs.changed.size() / f_base;
    row.s_add = diff.structs.added.size() / s_base;
    row.s_rm = diff.structs.removed.size() / s_base;
    row.s_chg = diff.structs.changed.size() / s_base;
    row.t_add = diff.tracepoints.added.size() / t_base;
    row.t_rm = diff.tracepoints.removed.size() / t_base;
    row.t_chg = diff.tracepoints.changed.size() / t_base;
  }
  return row;
}

std::string Pct(double v) { return v < 0 ? "" : FormatPercent(v); }

void PrintBlock(const char* title, const std::vector<Row>& rows) {
  printf("\n%s\n", title);
  TextTable table({"ver", "#func", "+%", "-%", "d%", "#struct", "+%", "-%", "d%", "#tracept",
                   "+%", "-%", "d%"});
  for (const Row& row : rows) {
    table.AddRow({row.version, FormatCount(row.funcs), Pct(row.f_add), Pct(row.f_rm),
                  Pct(row.f_chg), FormatCount(row.structs), Pct(row.s_add), Pct(row.s_rm),
                  Pct(row.s_chg), FormatCount(row.tracepts), Pct(row.t_add), Pct(row.t_rm),
                  Pct(row.t_chg)});
  }
  printf("%s", table.Render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Study study(StudyOptions::FromArgs(argc, argv));
  obs::BenchReporter bench("table3");
  bench.AddNote("scale", StrFormat("%.2f", study.options().scale));
  printf("Table 3: kernel source code differences (scale %.2f)\n", study.options().scale);
  printf("paper reference, LTS block: funcs 36k->62k with +21..24%% / -7..10%% / d4..6%%;\n"
         "structs 6.2k->10.5k with +16..24%% / -4..6%% / d15..18%%; tracepoints 502->932\n"
         "with +14..39%% / -3..5%% / d8..16%%\n");

  auto run_series = [&](const char* stage_name, const std::vector<KernelVersion>& versions) {
    auto stage = bench.Stage(stage_name);
    std::vector<Row> rows;
    std::optional<DependencySurface> prev;
    for (KernelVersion version : versions) {
      auto surface = study.ExtractSurface(MakeBuild(version));
      if (!surface.ok()) {
        fprintf(stderr, "extract %s: %s\n", version.Tag().c_str(),
                surface.error().ToString().c_str());
        exit(1);
      }
      stage.add_items();
      rows.push_back(MeasureRow(*surface, prev.has_value() ? &*prev : nullptr));
      prev = surface.TakeValue();
    }
    return rows;
  };

  std::vector<KernelVersion> lts(kLtsVersions.begin(), kLtsVersions.end());
  PrintBlock("-- LTS versions (Ubuntu 16.04 .. 24.04) --", run_series("lts_series", lts));

  std::vector<KernelVersion> all(kStudyVersions.begin(), kStudyVersions.end());
  PrintBlock("-- all 17 versions --", run_series("all_versions", all));

  // §4.1 "special kernel functions": LSM hooks (~150, ~9% added / 2%
  // removed per LTS) and kfuncs (~100 by v6.8; removed/renamed but never
  // re-typed).
  printf("\n-- special functions (LSM hooks, kfuncs) --\n");
  TextTable special({"ver", "#lsm hooks", "#kfuncs"});
  auto special_stage = bench.Stage("special_functions");
  for (KernelVersion version : kLtsVersions) {
    auto surface = study.ExtractSurface(MakeBuild(version));
    if (!surface.ok()) {
      fprintf(stderr, "extract: %s\n", surface.error().ToString().c_str());
      return 1;
    }
    special_stage.add_items();
    size_t lsm = 0;
    for (const FunctionEntry& entry : surface->functions()) {
      lsm += DependencySurface::IsLsmHook(entry.name) ? 1 : 0;
    }
    special.AddRow({version.Tag(), std::to_string(lsm),
                    std::to_string(surface->kfuncs().size())});
  }
  printf("%s", special.Render().c_str());
  return 0;
}
