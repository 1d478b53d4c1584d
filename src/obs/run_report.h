// Machine-readable run reports: one JSON (or human text) document combining
// the finished span tree and the metrics registry.
//
// Schema (depsurf.run_report.v1):
//   {
//     "schema": "depsurf.run_report.v1",
//     "spans": [ {"name": "...", "dur_ns": N, "cpu_ns": N,
//                 "alloc_count": N, "alloc_bytes": N,
//                 "attrs": {"k": "v", ...}, "children": [...]}, ... ],
//     "counters": {"btf.types_decoded": N, ...},
//     "gauges": {"study.build_dataset.wall_ms": N, ...},
//     "histograms": {"elf.section_bytes":
//         {"count": N, "sum": N, "buckets": [[lower_bound, count], ...]}, ...},
//     "diagnostics": [ {"severity": "degraded", "subsystem": "dwarf",
//                       "code": "malformed_data", "offset": N,
//                       "message": "..."}, ... ]
//   }
//
// Key order is deterministic (maps are sorted, span attrs keep insertion
// order). Nondeterministic values — span "dur_ns"/"cpu_ns" fields, the
// allocator-dependent "alloc_count"/"alloc_bytes" fields, plus any metric
// or attribute whose key has a timing suffix (_ns/_us/_ms/_seconds) — are
// zeroed by serializing with mask_timings, after which two runs over the
// same inputs are byte-identical.
#ifndef DEPSURF_SRC_OBS_RUN_REPORT_H_
#define DEPSURF_SRC_OBS_RUN_REPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/diagnostic_ledger.h"
#include "src/util/error.h"

namespace depsurf {
namespace obs {

class Context;

inline constexpr char kRunReportSchema[] = "depsurf.run_report.v1";
// N merged run reports (see report_merge.h for the schema).
inline constexpr char kRunReportAggSchema[] = "depsurf.run_report_agg.v1";

struct RunReportOptions {
  bool mask_timings = false;  // zero dur/cpu/alloc and *_ns/_us/_ms/_seconds fields
};

// Serializes the given collector + registry. `diagnostics` fills the
// report's "diagnostics" section (sorted on output); pass nullptr for an
// empty section. The Global* helpers below supply the process-wide
// DiagnosticsCollector automatically.
std::string RunReportJson(const SpanCollector& spans, const MetricsRegistry& metrics,
                          const RunReportOptions& options = {},
                          const std::vector<DiagnosticEntry>* diagnostics = nullptr);
std::string RunReportText(const SpanCollector& spans, const MetricsRegistry& metrics);

// Writes one span subtree in the "spans" form above. Run reports and their
// aggregates both write spans through it.
void WriteSpanJson(JsonWriter& writer, const SpanNode& span, const RunReportOptions& options);

// Serializes one obs::Context — the spans, metrics, and diagnostics it
// collected — as a run_report.v1 document. This is how report-mode corpus
// builds turn each image's scoped context into its per-image report.
std::string ContextRunReportJson(const Context& context, const RunReportOptions& options = {});

// Globals convenience (what the CLI and benches use); equivalent to
// serializing Context::Root().
std::string GlobalRunReportJson(const RunReportOptions& options = {});
std::string GlobalRunReportText();
Status WriteGlobalRunReport(const std::string& path, const RunReportOptions& options = {});

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_RUN_REPORT_H_
