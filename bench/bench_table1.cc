// Regenerates Table 1 (summary of dependency mismatches, with measured
// maximum frequencies) and Table 2 (consequences -> implications).
//
//   $ bench_table1 [--scale=1.0]
#include <algorithm>
#include <cstdio>
#include <optional>

#include "src/obs/bench_report.h"
#include "src/study/study.h"
#include "src/util/str_util.h"
#include "src/util/table.h"

using namespace depsurf;

namespace {

size_t AttachableFuncs(const DependencySurface& surface) {
  size_t n = 0;
  for (const FunctionEntry& entry : surface.functions()) {
    n += entry.status.has_exact_symbol ? 1 : 0;
  }
  return n;
}

struct MaxRates {
  double func_add = 0, func_rm = 0, func_chg = 0;
  double struct_add = 0, struct_rm = 0, struct_chg = 0;
  double tp_add = 0, tp_rm = 0, tp_chg = 0;

  void Update(const DependencySurface& base, const SurfaceDiff& diff) {
    double f = static_cast<double>(AttachableFuncs(base));
    double s = static_cast<double>(base.structs().size());
    double t = static_cast<double>(base.tracepoints().size());
    func_add = std::max(func_add, diff.funcs.added.size() / f);
    func_rm = std::max(func_rm, diff.funcs.removed.size() / f);
    func_chg = std::max(func_chg, diff.funcs.changed.size() / f);
    struct_add = std::max(struct_add, diff.structs.added.size() / s);
    struct_rm = std::max(struct_rm, diff.structs.removed.size() / s);
    struct_chg = std::max(struct_chg, diff.structs.changed.size() / s);
    tp_add = std::max(tp_add, diff.tracepoints.added.size() / t);
    tp_rm = std::max(tp_rm, diff.tracepoints.removed.size() / t);
    tp_chg = std::max(tp_chg, diff.tracepoints.changed.size() / t);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Study study(StudyOptions::FromArgs(argc, argv));
  obs::BenchReporter bench("table1");
  bench.AddNote("scale", StrFormat("%.2f", study.options().scale));
  printf("Table 1: summary of dependency mismatches (scale %.2f)\n", study.options().scale);
  printf("frequencies: source = max diff between consecutive LTS versions; configuration\n"
         "= max diff vs generic x86 v5.4; compilation = affected fraction at v5.4\n\n");

  // ---- Source evolution: max over LTS transitions.
  MaxRates source;
  {
    auto stage = bench.Stage("source_evolution");
    std::optional<DependencySurface> prev;
    for (KernelVersion version : kLtsVersions) {
      auto surface = study.ExtractSurface(MakeBuild(version));
      if (!surface.ok()) {
        fprintf(stderr, "extract: %s\n", surface.error().ToString().c_str());
        return 1;
      }
      stage.add_items();
      if (prev.has_value()) {
        source.Update(*prev, DiffSurfaces(*prev, *surface));
      }
      prev = surface.TakeValue();
    }
  }

  // ---- Configuration: max over the 8 non-generic builds.
  constexpr KernelVersion kV54{5, 4};
  Result<DependencySurface> baseline = Error(ErrorCode::kInternal, "unbuilt");
  MaxRates config;
  {
    auto stage = bench.Stage("configuration");
    baseline = study.ExtractSurface(MakeBuild(kV54));
    if (!baseline.ok()) {
      fprintf(stderr, "baseline: %s\n", baseline.error().ToString().c_str());
      return 1;
    }
    stage.add_items();
    std::vector<BuildSpec> others;
    for (Arch arch : {Arch::kArm64, Arch::kArm32, Arch::kPpc, Arch::kRiscv}) {
      others.push_back(MakeBuild(kV54, arch));
    }
    for (Flavor flavor : {Flavor::kAws, Flavor::kAzure, Flavor::kGcp, Flavor::kLowLatency}) {
      others.push_back(MakeBuild(kV54, Arch::kX86, flavor));
    }
    for (const BuildSpec& build : others) {
      auto surface = study.ExtractSurface(build);
      if (!surface.ok()) {
        fprintf(stderr, "extract: %s\n", surface.error().ToString().c_str());
        return 1;
      }
      stage.add_items();
      config.Update(*baseline, DiffSurfaces(*baseline, *surface));
    }
  }

  // ---- Compilation effects at v5.4.
  size_t total = baseline->functions().size();
  size_t full = 0, selective = 0, transformed = 0, duplicated = 0, collided = 0;
  for (const FunctionEntry& entry : baseline->functions()) {
    full += entry.status.fully_inlined ? 1 : 0;
    selective += entry.status.selectively_inlined ? 1 : 0;
    transformed += entry.status.transformed ? 1 : 0;
    duplicated += entry.status.duplicated ? 1 : 0;
    collided += entry.status.collided ? 1 : 0;
  }
  double base = static_cast<double>(total);

  TextTable table({"origin", "type", "cause", "freq (measured)", "freq (paper)",
                   "consequence"});
  auto pct2 = [](double a, double b) {
    return FormatPercent(a) + "/" + FormatPercent(b);
  };
  table.AddRow({"source", "function", "addition/removal", pct2(source.func_add, source.func_rm),
                "24%/10%", "attachment error"});
  table.AddRow({"", "function", "change", FormatPercent(source.func_chg), "6%", "stray read"});
  table.AddRow({"", "struct", "addition/removal", pct2(source.struct_add, source.struct_rm),
                "24%/4%", "compilation error"});
  table.AddRow({"", "struct", "change", FormatPercent(source.struct_chg), "18%",
                "stray read or CE"});
  table.AddRow({"", "tracepoint", "addition/removal", pct2(source.tp_add, source.tp_rm),
                "39%/5%", "attachment error"});
  table.AddRow({"", "tracepoint", "change", FormatPercent(source.tp_chg), "16%",
                "stray read or CE"});
  table.AddSeparator();
  table.AddRow({"config", "function", "addition/removal", pct2(config.func_add, config.func_rm),
                "26%/25%", "attachment error"});
  table.AddRow({"", "function", "change", FormatPercent(config.func_chg), "0.3%",
                "stray read"});
  table.AddRow({"", "struct", "addition/removal",
                pct2(config.struct_add, config.struct_rm), "24%/22%", "compilation error"});
  table.AddRow({"", "struct", "change", FormatPercent(config.struct_chg), "1.8%",
                "stray read or CE"});
  table.AddRow({"", "tracepoint", "addition/removal", pct2(config.tp_add, config.tp_rm),
                "8%/34%", "attachment error"});
  table.AddRow({"", "syscall", "availability", "by arch", "by arch", "attachment error"});
  table.AddRow({"", "syscall", "traceability", "by arch", "by arch", "missing invocation"});
  table.AddRow({"", "register", "difference", "by arch", "by arch", "relocation error"});
  table.AddSeparator();
  table.AddRow({"compile", "function", "full inline", FormatPercent(full / base), "36%",
                "attachment error"});
  table.AddRow({"", "function", "selective inline", FormatPercent(selective / base), "11%",
                "missing invocation"});
  table.AddRow({"", "function", "transformation", FormatPercent(transformed / base), "16%",
                "attachment error"});
  table.AddRow({"", "function", "duplication", FormatPercent(duplicated / base), "12%",
                "missing invocation"});
  table.AddRow({"", "function", "name collision", FormatPercent(collided / base), "0.6%",
                "stray read"});
  printf("%s", table.Render().c_str());

  printf("\nTable 2: consequences and implications\n");
  TextTable t2({"consequence", "implication"});
  for (Consequence c :
       {Consequence::kCompilationError, Consequence::kRelocationError,
        Consequence::kAttachmentError, Consequence::kStrayRead,
        Consequence::kMissingInvocation}) {
    t2.AddRow({ConsequenceName(c), ImplicationName(ImplicationOf(c))});
  }
  printf("%s", t2.Render().c_str());
  return 0;
}
