#include "src/obs/span.h"

#include <ctime>
#include <utility>

#include "src/obs/context.h"
#include "src/obs/diag.h"
#include "src/obs/metrics.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

thread_local ScopedSpan* tls_current_span = nullptr;

// CPU time consumed by the calling thread, for per-span attribution.
uint64_t ThreadCpuNs() {
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

uint32_t ThreadTraceId() {
  static std::atomic<uint32_t> next_id{1};
  thread_local uint32_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

int CompareSpanNodesMasked(const SpanNode& a, const SpanNode& b) {
  if (int c = a.name.compare(b.name); c != 0) {
    return c;
  }
  size_t attrs = std::min(a.attrs.size(), b.attrs.size());
  for (size_t i = 0; i < attrs; ++i) {
    if (int c = a.attrs[i].first.compare(b.attrs[i].first); c != 0) {
      return c;
    }
    if (!IsTimingMetricName(a.attrs[i].first)) {
      if (int c = a.attrs[i].second.compare(b.attrs[i].second); c != 0) {
        return c;
      }
    }
  }
  if (a.attrs.size() != b.attrs.size()) {
    return a.attrs.size() < b.attrs.size() ? -1 : 1;
  }
  size_t children = std::min(a.children.size(), b.children.size());
  for (size_t i = 0; i < children; ++i) {
    if (int c = CompareSpanNodesMasked(a.children[i], b.children[i]); c != 0) {
      return c;
    }
  }
  if (a.children.size() != b.children.size()) {
    return a.children.size() < b.children.size() ? -1 : 1;
  }
  return 0;
}

SpanCollector& SpanCollector::Global() {
  static SpanCollector* collector = new SpanCollector;
  return *collector;
}

void SpanCollector::AddRoot(SpanNode node) {
  std::lock_guard<std::mutex> lock(mu_);
  roots_.push_back(std::move(node));
}

std::vector<SpanNode> SpanCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return roots_;
}

void SpanCollector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  roots_.clear();
}

ScopedSpan::ScopedSpan(std::string name)
    : parent_(tls_current_span),
      start_(std::chrono::steady_clock::now()),
      cpu_start_ns_(ThreadCpuNs()) {
  node_.name = std::move(name);
  node_.start_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(start_.time_since_epoch()).count());
  node_.tid = ThreadTraceId();
#ifdef DEPSURF_PROFILE_ALLOC
  alloc_start_ = ThreadAllocStats();
#endif
  tls_current_span = this;
}

ScopedSpan::~ScopedSpan() {
  node_.dur_ns = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                           std::chrono::steady_clock::now() - start_)
                                           .count());
  // The thread CPU clock and the monotonic clock tick at different
  // granularities; clamp so cpu_ns <= dur_ns is a hard invariant for
  // single-threaded spans.
  const uint64_t cpu_now = ThreadCpuNs();
  node_.cpu_ns = cpu_now > cpu_start_ns_ ? cpu_now - cpu_start_ns_ : 0;
  if (node_.cpu_ns > node_.dur_ns) {
    node_.cpu_ns = node_.dur_ns;
  }
#ifdef DEPSURF_PROFILE_ALLOC
  const AllocStats alloc_now = ThreadAllocStats();
  node_.alloc_count = alloc_now.count - alloc_start_.count;
  node_.alloc_bytes = alloc_now.bytes - alloc_start_.bytes;
#endif
  // Resolved at finish time: a span belongs to whatever context its thread
  // is running under (per-image contexts in report-mode corpus builds, the
  // root/global collector everywhere else).
  SpanCollector& collector = Context::Current().spans();
  if (collector.live_trace()) {
    std::string line(static_cast<size_t>(depth()) * 2, ' ');
    line += node_.name;
    line += StrFormat(" %.3f ms", static_cast<double>(node_.dur_ns) / 1e6);
    for (const auto& [key, value] : node_.attrs) {
      line += " " + key + "=" + value;
    }
    Diag(Severity::kTrace, line);
  }
  tls_current_span = parent_;
  if (parent_ != nullptr) {
    parent_->node_.children.push_back(std::move(node_));
  } else {
    collector.AddRoot(std::move(node_));
  }
}

void ScopedSpan::AddAttr(std::string key, std::string value) {
  node_.attrs.emplace_back(std::move(key), std::move(value));
}

void ScopedSpan::AddAttr(std::string key, const char* value) {
  node_.attrs.emplace_back(std::move(key), std::string(value));
}

void ScopedSpan::AddAttr(std::string key, uint64_t value) {
  node_.attrs.emplace_back(std::move(key),
                           StrFormat("%llu", static_cast<unsigned long long>(value)));
}

ScopedSpan* ScopedSpan::ExchangeOpen(ScopedSpan* span) {
  return std::exchange(tls_current_span, span);
}

int ScopedSpan::depth() const {
  int depth = 0;
  for (const ScopedSpan* span = parent_; span != nullptr; span = span->parent_) {
    ++depth;
  }
  return depth;
}

}  // namespace obs
}  // namespace depsurf
