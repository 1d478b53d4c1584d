// Regenerates Table 6: function duplication and name collisions across the
// LTS images, from the extracted function-status classifications.
//
//   $ bench_table6 [--scale=1.0]
#include <cstdio>

#include "src/obs/bench_report.h"
#include "src/study/study.h"
#include "src/util/str_util.h"
#include "src/util/table.h"

using namespace depsurf;

int main(int argc, char** argv) {
  Study study(StudyOptions::FromArgs(argc, argv));
  printf("Table 6: function duplication and name collision (scale %.2f)\n",
         study.options().scale);
  printf("paper reference at v4.4 -> v6.8: unique global 17.2k->31.5k, unique static\n"
         "35.7k->60.2k, static duplication 4.0k->7.4k, static-static collision\n"
         "404->498, static-global collision 10->29\n\n");

  TextTable table({"class", "v4.4", "v4.15", "v5.4", "v5.15", "v6.8"});
  std::vector<std::vector<std::string>> rows(5);
  const char* kClasses[] = {"Unique Global", "Unique Static", "Static Duplication",
                            "Static-Static Collision", "Static-Global Collision"};
  for (int i = 0; i < 5; ++i) {
    rows[i].push_back(kClasses[i]);
  }

  obs::BenchReporter bench("table6");
  bench.AddNote("scale", StrFormat("%.2f", study.options().scale));
  auto stage = bench.Stage("extract_lts");
  for (KernelVersion version : kLtsVersions) {
    auto surface = study.ExtractSurface(MakeBuild(version));
    if (!surface.ok()) {
      fprintf(stderr, "extract: %s\n", surface.error().ToString().c_str());
      return 1;
    }
    stage.add_items();
    size_t counts[5] = {0, 0, 0, 0, 0};
    for (const FunctionEntry& entry : surface->functions()) {
      std::string klass = entry.status.CollisionClass();
      for (int i = 0; i < 5; ++i) {
        if (klass == kClasses[i]) {
          ++counts[i];
          break;
        }
      }
    }
    for (int i = 0; i < 5; ++i) {
      rows[i].push_back(i < 3 ? FormatCount(counts[i]) : std::to_string(counts[i]));
    }
  }
  for (auto& row : rows) {
    table.AddRow(std::move(row));
  }
  printf("%s", table.Render().c_str());
  return 0;
}
