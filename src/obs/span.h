// ScopedSpan: an RAII tracer producing a nested span tree over the analysis
// pipeline. Each thread maintains its own stack of active spans; a span
// opened while another is active on the same thread becomes its child, and
// a span that finishes with no parent is handed to the process-wide
// SpanCollector. Durations come from the monotonic clock; each span also
// carries its thread CPU time and (when DEPSURF_PROFILE_ALLOC is on) the
// allocation count/bytes charged to its thread while it was open, feeding
// the profile analyzer in src/obs/profile.h.
//
// Span names follow the metric convention ("surface.extract"); attributes
// carry small facts like the image label, section name, or record counts.
// Attribute keys with timing suffixes (_ns/_us/_ms/_seconds) are masked by
// deterministic serialization, everything else must be reproducible.
#ifndef DEPSURF_SRC_OBS_SPAN_H_
#define DEPSURF_SRC_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/alloc_hooks.h"

namespace depsurf {
namespace obs {

struct SpanNode {
  std::string name;
  uint64_t start_ns = 0;  // monotonic clock at open (steady_clock epoch)
  uint64_t dur_ns = 0;
  // Thread CPU time (CLOCK_THREAD_CPUTIME_ID delta) consumed between open
  // and close on the opening thread, clamped to dur_ns so the invariant
  // cpu_ns <= dur_ns holds for single-threaded spans despite clock
  // granularity skew. Inclusive of same-thread children.
  uint64_t cpu_ns = 0;
  // Allocation delta on the opening thread (see alloc_hooks.h). Always 0
  // unless the build was configured with -DDEPSURF_PROFILE_ALLOC=ON.
  // Inclusive of same-thread children, like cpu_ns.
  uint64_t alloc_count = 0;
  uint64_t alloc_bytes = 0;
  uint32_t tid = 0;  // small per-thread trace id (1, 2, ...), see ThreadTraceId
  std::vector<std::pair<std::string, std::string>> attrs;  // insertion order
  std::vector<SpanNode> children;
};

// Stable small integer identifying the calling thread in trace output:
// assigned on first use, 1-based, never reused within the process. Which
// thread gets which id depends on scheduling, so trace ids are
// nondeterministic across runs (like every timing field).
uint32_t ThreadTraceId();

// Total order over span trees ignoring every nondeterministic field
// (start_ns, dur_ns, tid, timing-suffixed attr values): name first, then
// attrs, then children recursively. Used to sort racy multi-threaded root
// finish order into a deterministic sequence for masked serialization.
int CompareSpanNodesMasked(const SpanNode& a, const SpanNode& b);

// Collects finished root spans, in finish order. Thread-safe.
class SpanCollector {
 public:
  static SpanCollector& Global();

  void AddRoot(SpanNode node);
  std::vector<SpanNode> Snapshot() const;
  void Clear();

  // When enabled, every span prints one line to stderr as it finishes
  // (leaf-first, indented by nesting depth) via the diag helper.
  void SetLiveTrace(bool enabled) { live_trace_.store(enabled, std::memory_order_relaxed); }
  bool live_trace() const { return live_trace_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mu_;
  std::vector<SpanNode> roots_;
  std::atomic<bool> live_trace_{false};
};

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddAttr(std::string key, std::string value);
  void AddAttr(std::string key, const char* value);
  void AddAttr(std::string key, uint64_t value);

  // Nesting depth of this span on its thread (0 for a root).
  int depth() const;

 private:
  friend class ScopedContext;
  // Replaces the calling thread's innermost open span, returning the old
  // one. ScopedContext clears it on push and restores it on pop, so a span
  // recorded under a pushed context is a root of that context.
  static ScopedSpan* ExchangeOpen(ScopedSpan* span);

  SpanNode node_;
  ScopedSpan* parent_;
  std::chrono::steady_clock::time_point start_;
  uint64_t cpu_start_ns_;
  [[maybe_unused]] AllocStats alloc_start_;  // only read under DEPSURF_PROFILE_ALLOC
};

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_SPAN_H_
