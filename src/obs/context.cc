#include "src/obs/context.h"

namespace depsurf {
namespace obs {

namespace {

thread_local Context* tls_current_context = nullptr;

}  // namespace

Context::Context()
    : owned_metrics_(std::make_unique<MetricsRegistry>()),
      owned_spans_(std::make_unique<SpanCollector>()),
      owned_diagnostics_(std::make_unique<DiagnosticsCollector>()),
      metrics_(owned_metrics_.get()),
      spans_(owned_spans_.get()),
      diagnostics_(owned_diagnostics_.get()) {
  spans_->SetLiveTrace(Current().spans().live_trace());
}

Context::Context(RootTag)
    : metrics_(&MetricsRegistry::Global()),
      spans_(&SpanCollector::Global()),
      diagnostics_(&DiagnosticsCollector::Global()) {}

Context::~Context() = default;

Context& Context::Root() {
  static Context* root = new Context(RootTag{});
  return *root;
}

Context& Context::Current() {
  return tls_current_context != nullptr ? *tls_current_context : Root();
}

ScopedContext::ScopedContext(Context& context)
    : previous_(tls_current_context), previous_span_(ScopedSpan::ExchangeOpen(nullptr)) {
  tls_current_context = &context;
}

ScopedContext::~ScopedContext() {
  tls_current_context = previous_;
  ScopedSpan::ExchangeOpen(previous_span_);
}

}  // namespace obs
}  // namespace depsurf
