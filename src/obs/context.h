// obs::Context: an explicit bundle of the three observability sinks —
// MetricsRegistry, SpanCollector, DiagnosticsCollector — so collection can
// be scoped to a unit of work (one image of a corpus build) instead of
// mutating the process-wide singletons.
//
// Resolution model: every instrumented call site asks Context::Current()
// for its sinks. Current() walks a thread-local stack of active contexts;
// when the stack is empty it falls back to Context::Root(), which wraps the
// Global() singletons. Code that never pushes a context therefore behaves
// exactly as before — the globals remain the default root context — while
// a report-mode BuildDatasetFromImages gives each in-flight image its own
// Context and serializes that image's run report from it, which is what
// lets report-mode corpus builds run in the same bounded concurrent window
// as plain builds.
//
// Thread-locality rules (see docs/OBSERVABILITY.md):
//   - The stack is per thread. Pushing a context on one thread does not
//     affect work running on another; a worker that should collect into a
//     context must push it on the worker thread (ScopedContext inside the
//     task body).
//   - A ScopedSpan resolves its collector when it *finishes*, so a span
//     must close under the same context it opened under (RAII scopes
//     nested inside a ScopedContext guarantee this).
//   - A Context outlives every thread collecting into it: join or .get()
//     the workers before serializing the context.
#ifndef DEPSURF_SRC_OBS_CONTEXT_H_
#define DEPSURF_SRC_OBS_CONTEXT_H_

#include <memory>

#include "src/obs/diagnostics.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace depsurf {
namespace obs {

class Context {
 public:
  // A fresh, isolated context with empty collectors. Inherits the live
  // trace flag from the context current on the constructing thread, so
  // `--trace` keeps streaming spans from workers running under per-image
  // contexts.
  Context();
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // The default context: borrows the process-wide Global() singletons.
  // Never destroyed.
  static Context& Root();

  // Top of the calling thread's context stack, else Root().
  static Context& Current();

  MetricsRegistry& metrics() { return *metrics_; }
  SpanCollector& spans() { return *spans_; }
  DiagnosticsCollector& diagnostics() { return *diagnostics_; }
  const MetricsRegistry& metrics() const { return *metrics_; }
  const SpanCollector& spans() const { return *spans_; }
  const DiagnosticsCollector& diagnostics() const { return *diagnostics_; }

  bool is_root() const { return owned_metrics_ == nullptr; }

 private:
  struct RootTag {};
  explicit Context(RootTag);

  // Owned for fresh contexts; null for the root, which borrows the globals
  // (intentionally leaked singletons, see MetricsRegistry::Global).
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  std::unique_ptr<SpanCollector> owned_spans_;
  std::unique_ptr<DiagnosticsCollector> owned_diagnostics_;
  MetricsRegistry* metrics_;
  SpanCollector* spans_;
  DiagnosticsCollector* diagnostics_;
};

// RAII push/pop of a context on the calling thread's stack. Scopes nest:
// the previous top is restored on destruction. The thread's open span is
// saved on push and restored on pop, so spans recorded under the pushed
// context are its roots, never children of a span opened under another.
class ScopedContext {
 public:
  explicit ScopedContext(Context& context);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context* previous_;
  ScopedSpan* previous_span_;
};

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_CONTEXT_H_
