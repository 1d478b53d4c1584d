// Measurement harness shared by the three workloads: CPU clocks, the
// host-speed reference kernel, the closed-loop runner, the span recorder
// used by traced runs, and the metric list a run prints.
//
// Every timing the benchmark reports is process CPU time (all threads)
// multiplied by ref_nominal_ms / median(reference-kernel ms) of the same
// run, so a host that runs 20% slower for the whole run reports the same
// numbers. See README.md in this directory.
#ifndef DEPSURF_PERFBENCH_HARNESS_H_
#define DEPSURF_PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/context.h"
#include "src/obs/span.h"

namespace perfbench {

inline constexpr uint64_t kDefaultSeed = 2025;
inline constexpr double kScale = 0.25;

// CPU time of the whole process, threads that already exited included.
uint64_t ProcessCpuNs();
// Monotonic wall clock.
uint64_t MonoNs();
// Peak resident set of this process (getrusage ru_maxrss), in MB.
double PeakRssMb();

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);
bool WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes);
// 64-bit FNV-1a; the benchmark's own digest, independent of program code.
uint64_t Fnv1a(const void* data, size_t size, uint64_t h = 0xcbf29ce484222325ull);

// SplitMix64: the benchmark's own seeded generator, so request mixes and
// object orders do not move when program code changes its PRNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ^ 0x6a09e667f3bcc909ull) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

// Fixed CPU work that tracks host speed: sorts of short strings and
// ordered-map inserts of them, into big maps and many small ones. Every
// allocation comes from the kernel's own arena, so it neither shares the
// program's heap nor depends on its state.
class RefKernel {
 public:
  RefKernel();
  // Runs once and returns its process CPU time in ms.
  double RunMs();

 private:
  std::vector<std::string> keys_;
  std::unique_ptr<std::byte[]> arena_;
  uint64_t sink_ = 0;
};

double Median(std::vector<double> v);
// Linear interpolation between closest ranks (q in [0, 1]).
double Percentile(std::vector<double> v, double q);

// One span of a traced run: a harness span around a public call, or one of
// the program's own spans gathered from an op's obs::Context.
struct SpanRecord {
  std::string name;
  uint64_t op = 0;
  int64_t id = 0;
  int64_t parent = -1;
  uint64_t start_ns = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;       // harness: process CPU; program: thread CPU
  uint64_t self_cpu_ns = 0;  // cpu_ns minus same-thread children
  uint64_t calls = 1;
  bool program = false;
};

// Keeps every span of a traced run in memory; Write() dumps them as JSON
// lines when the run ends. A disabled tracer records nothing and reads no
// clock.
class Tracer {
 public:
  struct Totals {
    uint64_t cpu_ns = 0;
    uint64_t self_cpu_ns = 0;
    uint64_t calls = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t calls);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return index_; }

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
    int64_t saved_parent_ = -1;
    uint64_t calls_ = 1;
    uint64_t cpu0_ = 0;
  };

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void set_op(uint64_t op) { op_ = op; }
  uint64_t op() const { return op_; }

  // Opens a harness span around `calls` calls of one public function (more
  // than one when calls too short to time singly run back to back); it
  // closes when the returned Scope is destroyed.
  Scope Span(const char* name, uint64_t calls = 1) { return Scope(this, name, calls); }
  // Records the program's span trees roots[from, to) as children of harness
  // span `parent`, attributed to op `op`. The analyzer's "analyze.program"
  // (child of "analyze.object") is keyed "analyze.object/analyze.program"
  // in Totals, apart from report.cc's span of the same name.
  void AddProgramSpans(const std::vector<depsurf::obs::SpanNode>& roots, size_t from, size_t to,
                       int64_t parent, uint64_t op);

  const Totals& Get(const std::string& key) const;
  uint64_t program_spans() const { return program_spans_; }
  bool Write(const std::string& path) const;

 private:
  void AddProgramSpan(const depsurf::obs::SpanNode& node, int64_t parent,
                      const std::string& parent_name);

  bool on_ = false;
  uint64_t op_ = 0;
  int64_t open_ = -1;
  uint64_t program_spans_ = 0;
  std::vector<SpanRecord> spans_;
  std::map<std::string, Totals> totals_;
};

// Runs one op's program calls under a fresh obs::Context, as the CLI does
// for one object per process. In traced runs each Call() is a harness span,
// and the program spans the call left in the context become its children.
class OpContext {
 public:
  explicit OpContext(Tracer& tracer) : tracer_(tracer), scoped_(context_) {}
  OpContext(const OpContext&) = delete;
  OpContext& operator=(const OpContext&) = delete;

  template <typename F>
  auto Call(const char* name, F&& call) {
    int64_t id = -1;
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      {
        Tracer::Scope span = tracer_.Span(name);
        id = span.id();
        call();
      }
      Adopt(id);
    } else {
      auto result = [&] {
        Tracer::Scope span = tracer_.Span(name);
        id = span.id();
        return call();
      }();
      Adopt(id);
      return result;
    }
  }

  depsurf::obs::Context& context() { return context_; }

 private:
  void Adopt(int64_t parent);

  Tracer& tracer_;
  depsurf::obs::Context context_;
  depsurf::obs::ScopedContext scoped_;
  size_t seen_ = 0;
};

// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload reports about one timed op.
struct OpResult {
  uint64_t cpu_ns = 0;        // the op itself
  uint64_t extra_cpu_ns = 0;  // program work outside ops that counts toward throughput
  bool ok = true;             // the calls succeeded and their outputs checked out
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Set-up repetitions per run; setup_s is their median.
  virtual int setup_reps() const = 0;
  // One set-up: everything from the first call into the program to the
  // first timed op (dataset open or load plus untimed warm-up ops).
  // Returns the process CPU it took; false in *ok on a failed call.
  virtual uint64_t SetUp(bool* ok) = 0;
  // One timed op, with its checks done outside the timed window.
  virtual OpResult Op(Tracer& tracer) = 0;
  // A run ends only between passes, so every run has the same op mix.
  virtual bool AtPassBoundary() const { return true; }
  // Timed ops after which peak_rss_mb is read (the run goes on at least
  // that long); 0 reads it at the end. For a workload whose memory grows
  // with the ops served, this keeps the metric independent of host speed.
  virtual uint64_t rss_checkpoint_ops() const { return 0; }
  // Called at the end of a traced run, with the tracer on.
  virtual void EndTracedRun(Tracer& tracer) { (void)tracer; }
  // Checks that need state the timed phase must not carry (e.g. a second
  // copy of the dataset, which would count in peak RSS). Runs after peak
  // RSS is read; returns how many ops it found wrong.
  virtual uint64_t Finish() { return 0; }
  // End-to-end metrics beyond the common ones (values already final).
  virtual void EndToEnd(std::vector<Metric>& out) const = 0;
  // Per-layer metrics from a traced phase of `ops` ops; `scale` converts
  // raw CPU time to normalized time.
  virtual void PerLayer(const Tracer& tracer, uint64_t ops, double scale,
                        std::vector<Metric>& out) const = 0;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  uint64_t ops = 0;  // when non-zero: run exactly this many timed ops
  double ref_nominal_ms = 10;
  std::string inputs;     // prepared input directory
  std::string trace_out;  // JSON-lines span dump of a traced run
};

// Runs set-up and the timed closed loop, then prints one summary line and
// the result line. Returns the process exit code.
int RunWorkload(Workload& workload, const RunOptions& options);

// Per-layer helpers: a timing per op (normalized), and its calls per op.
void AddLayerTiming(std::vector<Metric>& out, const std::string& metric, const char* unit,
                    const Tracer::Totals& totals, bool self, uint64_t ops, double scale);
// For calls made outside the timed loop (prepare, set-up): the mean per call
// of normalized `ms` samples, and "<stem>.calls".
void AddPerCallTiming(std::vector<Metric>& out, const std::string& metric,
                      const std::vector<double>& ms);

}  // namespace perfbench

#endif  // DEPSURF_PERFBENCH_HARNESS_H_
