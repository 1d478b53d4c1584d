// Process-wide metrics for the analysis pipeline: named counters, gauges,
// and latency/size histograms with fixed log2 buckets. Everything is
// thread-safe: registration takes a mutex, updates are lock-free atomics,
// so decoders running on the dataset build's worker lanes
// (BuildDatasetFromImages) can tally concurrently with the main thread.
//
// Naming convention: "<subsystem>.<what>" ("btf.types_decoded"). Names
// ending in one of the timing suffixes (_ns, _us, _ms, _seconds) are
// considered nondeterministic timing fields and are zeroed by the masked
// run-report serialization (see run_report.h).
#ifndef DEPSURF_SRC_OBS_METRICS_H_
#define DEPSURF_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace depsurf {
namespace obs {

// A histogram with one bucket per power of two: bucket 0 counts value 0,
// bucket i (i >= 1) counts values v with 2^(i-1) <= v < 2^i. 64-bit values
// always land in a bucket.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  void Record(uint64_t value);

  // Bucket index a value lands in (0 for value 0, else floor(log2(v)) + 1).
  static size_t BucketIndex(uint64_t value);
  // Inclusive lower bound of a bucket (0, 1, 2, 4, 8, ...).
  static uint64_t BucketLowerBound(size_t bucket);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const { return buckets_[i].load(std::memory_order_relaxed); }

  // Estimated q-quantile (q in [0, 1]) by linear interpolation within the
  // log2 bucket holding rank q*count: bucket 0 is exactly 0; bucket i >= 1
  // interpolates across [2^(i-1), 2^i), so Percentile(1.0) lands on the
  // bucket's exclusive upper bound. Returns 0 for an empty histogram.
  double Percentile(double q) const;

  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

// Registry of named metrics. Counter()/Gauge()/GetHistogram() return stable
// pointers that remain valid (and keep their identity across Reset) for the
// registry's lifetime, so hot paths can cache them in function-local
// statics.
class MetricsRegistry {
 public:
  // The process-wide registry used by the pipeline instrumentation. Never
  // destroyed (intentional leak: avoids static-destruction-order races with
  // worker threads draining at exit).
  static MetricsRegistry& Global();

  std::atomic<uint64_t>* Counter(std::string_view name);
  std::atomic<int64_t>* Gauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Convenience forms for cold paths.
  void Incr(std::string_view name, uint64_t delta = 1);
  void Set(std::string_view name, int64_t value);
  void Record(std::string_view name, uint64_t value);

  // Zeroes every value; registered names (and cached pointers) survive.
  void Reset();

  // Deterministically ordered snapshots (names sorted lexicographically).
  std::vector<std::pair<std::string, uint64_t>> CounterSnapshot() const;
  std::vector<std::pair<std::string, int64_t>> GaugeSnapshot() const;
  std::vector<std::pair<std::string, const Histogram*>> HistogramSnapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<std::atomic<uint64_t>>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<std::atomic<int64_t>>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// True when `name` denotes a timing value (suffix _ns/_us/_ms/_seconds);
// such fields are zeroed by masked serialization.
bool IsTimingMetricName(std::string_view name);

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_METRICS_H_
