// Timeline trace export: serializes a finished span forest to the Chrome
// trace_event JSON format (the "JSON object format" with a "traceEvents"
// array of "X" complete-duration events), directly loadable in
// ui.perfetto.dev or chrome://tracing.
//
// Every SpanNode becomes exactly one "X" event — complete-event count ==
// span-node count, an invariant `depsurf metrics lint --kind=trace`
// enforces against the run report of the same run. The array additionally
// leads with one "M" (metadata) thread_name event per distinct tid, naming
// the lane "worker-<tid>" so viewers group executor tracks by worker lane.
// Timestamps are rebased so the earliest span starts at ts=0 and "X"
// events are emitted in nondecreasing ts order; `tid` is the small
// per-thread trace id spans record at open, so the worker lanes of a
// parallel BuildDatasetFromImages show up as separate timeline tracks.
#ifndef DEPSURF_SRC_OBS_TRACE_EXPORT_H_
#define DEPSURF_SRC_OBS_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "src/obs/json_lint.h"
#include "src/obs/span.h"
#include "src/util/error.h"

namespace depsurf {
namespace obs {

// Total nodes in a span forest (roots plus all descendants).
size_t CountSpanNodes(const std::vector<SpanNode>& roots);

// Chrome trace_event JSON for the given forest. Timestamps ("ts") and
// durations ("dur") are microseconds with nanosecond precision; span
// attributes become the event's "args".
std::string TraceEventJson(const std::vector<SpanNode>& roots);

// Serializes the global SpanCollector to `path` (what --trace-out does).
Status WriteGlobalTrace(const std::string& path);

// Validates a parsed trace document: a "traceEvents" array whose members
// are "X" events (name, nonnegative numeric ts/dur/pid/tid, nondecreasing
// ts across the array) or "M" metadata events (pid/tid plus args.name).
// When `expect_events` is nonnegative the "X" event count must match it
// exactly (cross-check against CountReportSpanNodes of the run report
// from the same run); metadata events are not counted.
Status ValidateTrace(const JsonValue& trace, int64_t expect_events = -1);

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_TRACE_EXPORT_H_
