// Run-report aggregation: merges N depsurf.run_report.v1 documents (or
// previously merged aggregates) into one depsurf.run_report_agg.v1 — the
// corpus-scale view the paper's whole-table evaluations need, where each
// image contributes one per-run report.
//
// Schema (depsurf.run_report_agg.v1):
//   {
//     "schema": "depsurf.run_report_agg.v1",
//     "reports": N,                       // total v1 documents folded in
//     "sources": [ {"label": "...", "spans": n, "counters": n}, ... ],
//     "spans": [ ... ],                   // all roots, deterministically sorted
//     "counters": {...},                  // summed
//     "gauges": {...},                    // last write wins (input order)
//     "histograms": {"name": {"count": N, "sum": N,
//         "buckets": [[lower_bound, count], ...]}, ...}  // bucket-wise added
//   }
//
// The merge is commutative and associative up to masking: counters,
// histograms, and the sorted span forest are order-independent; gauges are
// last-write (order-dependent only when inputs disagree on a value, which
// for deterministic non-timing gauges they do not); timing fields differ
// run to run but are zeroed by masked canonicalization. Merging an
// aggregate folds in its sources, so merge(merge(A,B),C) == merge(A,B,C).
#ifndef DEPSURF_SRC_OBS_REPORT_MERGE_H_
#define DEPSURF_SRC_OBS_REPORT_MERGE_H_

#include <string>
#include <vector>

#include "src/util/error.h"

namespace depsurf {
namespace obs {

struct LabeledReport {
  std::string label;  // provenance shown in "sources" (file path, image label)
  std::string json;   // a run_report.v1 or run_report_agg.v1 document
};

// Merges the given documents into a run_report_agg.v1 document.
Result<std::string> MergeRunReports(const std::vector<LabeledReport>& reports);

// Validates a depsurf.run_report_agg.v1 document: schema marker, a
// "reports" count of at least 1, the "sources" provenance array (each entry
// a string label and spans/counters/diags counts), the merged spans array
// and counters/gauges/histograms objects, and labeled diagnostics.
Status ValidateAggReport(std::string_view json);

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_REPORT_MERGE_H_
