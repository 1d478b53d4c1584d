// Perf regression gate: diffs two stage-timing reports and classifies every
// stage as improved / flat / regressed, with a noise floor so sub-
// millisecond stages cannot trip the gate. This is what turns the
// BENCH_<name>.json trajectory files into an enforceable check: run the
// suite on the base commit, run it on the head, and `depsurf perf compare`
// exits nonzero when a stage slowed beyond the threshold.
//
// Inputs may be depsurf.bench_report.v1 documents (stage name -> seconds)
// or run_report.v1 / run_report_agg.v1 documents (each distinct root-span
// name contributes its summed dur_ns), so dataset-build aggregates gate the
// same way benches do.
//
// Comparison output schema (depsurf.perf_compare.v1):
//   {
//     "schema": "depsurf.perf_compare.v1",
//     "max_regress": 0.15, "noise_floor_seconds": 0.005,
//     "improved": N, "flat": N, "regressed": N, "added": N, "removed": N,
//     "stages": [ {"name": "...", "class": "flat",
//                  "base_seconds": 1.2, "head_seconds": 1.3,
//                  "delta_pct": 8.3}, ... ]
//   }
#ifndef DEPSURF_SRC_OBS_PERF_GATE_H_
#define DEPSURF_SRC_OBS_PERF_GATE_H_

#include <string>
#include <vector>

#include "src/obs/json_lint.h"
#include "src/util/error.h"

namespace depsurf {
namespace obs {

inline constexpr char kPerfCompareSchema[] = "depsurf.perf_compare.v1";

struct StageTiming {
  std::string name;
  double seconds = 0;
  uint64_t items = 0;
};

enum class StageClass : uint8_t {
  kImproved,   // head faster than base beyond the threshold
  kFlat,       // within the threshold (or both under the noise floor)
  kRegressed,  // head slower than base beyond threshold and noise floor
  kAdded,      // stage only in head
  kRemoved,    // stage only in base
};

const char* StageClassName(StageClass c);

struct StageDelta {
  std::string name;
  StageClass cls = StageClass::kFlat;
  double base_seconds = 0;
  double head_seconds = 0;
  double delta_pct = 0;  // (head - base) / base * 100; 0 for added/removed
};

struct PerfGateOptions {
  // A stage regresses when head > base * (1 + max_regress) — and improves
  // when base > head * (1 + max_regress), so the gate is symmetric.
  double max_regress = 0.15;
  // Stages where both sides are below the floor are flat regardless of
  // ratio: a 2x blowup of a 100 us stage is scheduler noise, not a
  // regression.
  double noise_floor_seconds = 0.005;
};

struct PerfComparison {
  std::vector<StageDelta> stages;  // base order, then head-only additions
  size_t regressed = 0;
  size_t improved = 0;

  bool gate_failed() const { return regressed > 0; }
};

// Extracts stage timings from a parsed bench report or run report
// (aggregate or single); errors on any other document.
Result<std::vector<StageTiming>> LoadStageTimings(const JsonValue& doc);

PerfComparison ComparePerf(const std::vector<StageTiming>& base,
                           const std::vector<StageTiming>& head,
                           const PerfGateOptions& options = {});

// Human table / machine JSON renderings of a comparison. The JSON form
// passes `depsurf metrics lint --kind=perf`.
std::string PerfComparisonText(const PerfComparison& comparison);
std::string PerfComparisonJson(const PerfComparison& comparison,
                               const PerfGateOptions& options);

// Validates a depsurf.bench_report.v1 document (what every bench binary
// emits): schema marker, bench name, stages with names and nonnegative
// numeric seconds/items.
Status ValidateBenchReport(std::string_view json);

// Validates a depsurf.perf_compare.v1 document.
Status ValidatePerfCompare(std::string_view json);

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_PERF_GATE_H_
