// `build`: one op extracts the dependency surface of one image and distills
// it into the pass's Dataset; ops go round-robin over v4.4 .. v6.8 and each
// pass of five ends with SaveDatasetV2 (its CPU counts toward throughput,
// not toward any op). Runs every extraction layer, distill and the v2
// writer; bypasses serving, the analyzer and the bpf codec.
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/prepare.h"
#include "perfbench/workloads.h"
#include "src/core/dataset_io.h"

namespace perfbench {

using namespace depsurf;

namespace {

// FNV-1a of the v2 dataset every pass writes for the default seed.
constexpr uint64_t kPinnedV2Digest = 0x4048b3d556f4de65ull;

struct Image {
  std::string label;
  std::vector<uint8_t> bytes;
};

// The heap Dataset and the mmap view of its v2 bytes must answer a seeded
// sample of queries identically, absent names included.
bool SameAnswers(const Dataset& heap, const MmapDataset& view, Rng& rng) {
  if (heap.num_images() != view.num_images() || heap.labels() != view.labels() ||
      heap.CheckRegisters() != view.CheckRegisters()) {
    return false;
  }
  for (int i = 0; i < 24; ++i) {
    const ImageRecord& image = heap.images()[rng.Below(heap.num_images())];
    auto pick = [&](const auto& records) -> std::string {
      if (records.empty()) {
        return "perfbench_absent";
      }
      auto it = records.begin();
      std::advance(it, rng.Below(records.size()));
      return heap.StringAt(it->first);
    };
    const std::string func = pick(image.funcs);
    const std::string event = pick(image.tracepoints);
    if (heap.CheckFunc(func) != view.CheckFunc(func) ||
        heap.CheckTracepoint(event) != view.CheckTracepoint(event)) {
      return false;
    }
    if (!image.syscalls.empty()) {
      auto it = image.syscalls.begin();
      std::advance(it, rng.Below(image.syscalls.size()));
      const std::string syscall = heap.StringAt(*it);
      if (heap.CheckSyscall(syscall) != view.CheckSyscall(syscall)) {
        return false;
      }
    }
    if (!image.structs.empty()) {
      auto it = image.structs.begin();
      std::advance(it, rng.Below(image.structs.size()));
      const std::string name = heap.StringAt(it->first);
      if (heap.CheckStruct(name) != view.CheckStruct(name)) {
        return false;
      }
      const auto& fields = it->second.fields;
      const std::string field = fields.empty()
                                    ? "perfbench_absent"
                                    : heap.StringAt(fields[rng.Below(fields.size())].first);
      const bool guarded = rng.Below(2) == 1;
      if (heap.CheckField(name, field, "", guarded) != view.CheckField(name, field, "", guarded) ||
          heap.CheckField(name, field, "int", false) !=
              view.CheckField(name, field, "int", false)) {
        return false;
      }
    }
  }
  return heap.CheckFunc("perfbench_absent") == view.CheckFunc("perfbench_absent");
}

class BuildWorkload : public Workload {
 public:
  BuildWorkload(const Manifest& manifest, const RunOptions& options)
      : seed_(options.seed), rng_(options.seed) {
    for (const auto& [label, path] : manifest.images) {
      images_.push_back({label, {}});
      if (!ReadFileBytes(path, &images_.back().bytes)) {
        fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
        images_.pop_back();
      }
    }
    if (!ReadFileBytes(manifest.dataset, &expected_v2_)) {
      fprintf(stderr, "perfbench: cannot read %s\n", manifest.dataset.c_str());
    }
    build_image_ms_ = manifest.build_image_ms;
  }

  bool ok() const { return images_.size() == 5 && !expected_v2_.empty(); }

  // Set-up is a fresh Dataset plus one warm-up op on the largest image,
  // which takes the heap to its high-water mark before timing starts.
  int setup_reps() const override { return 3; }

  uint64_t SetUp(bool* ok) override {
    Tracer untraced;
    Dataset warm;
    uint64_t cpu = 0;
    *ok = ExtractAndAdd(images_.size() - 1, warm, untraced, &cpu);
    dataset_ = std::make_unique<Dataset>();
    next_ = 0;
    return cpu;
  }

  OpResult Op(Tracer& tracer) override {
    OpResult result;
    result.ok = ExtractAndAdd(next_, *dataset_, tracer, &result.cpu_ns);
    if (++next_ < images_.size()) {
      return result;
    }
    std::vector<uint8_t> v2;
    {
      OpContext op(tracer);
      const uint64_t t1 = ProcessCpuNs();
      v2 = op.Call("SaveDatasetV2", [&] { return SaveDatasetV2(*dataset_); });
      result.extra_cpu_ns = ProcessCpuNs() - t1;
    }
    result.ok = CheckPass(std::move(v2)) && result.ok;
    dataset_ = std::make_unique<Dataset>();
    next_ = 0;
    return result;
  }

  bool AtPassBoundary() const override { return next_ == 0; }

  void EndToEnd(std::vector<Metric>& out) const override {
    out.push_back({"dataset_bytes", static_cast<double>(dataset_bytes_), "bytes"});
  }

  void PerLayer(const Tracer& tracer, uint64_t ops, double scale,
                std::vector<Metric>& out) const override {
    AddLayerTiming(out, "surface.extract_ms", "ms", tracer.Get("DependencySurface::Extract"),
                   false, ops, scale);
    AddLayerTiming(out, "dataset.distill_ms", "ms", tracer.Get("Dataset::AddImage"), false, ops,
                   scale);
    AddLayerTiming(out, "dataset_io.save_v2_ms", "ms", tracer.Get("SaveDatasetV2"), false, ops,
                   scale);
    const double n = static_cast<double>(std::max<uint64_t>(ops, 1));
    const double interned = static_cast<double>(intern_hits_ + intern_misses_);
    out.push_back({"dataset.intern_hit_ratio",
                   interned > 0 ? static_cast<double>(intern_hits_) / interned : 0, "ratio"});
    out.push_back({"surface.n_functions", static_cast<double>(n_functions_) / n, "count"});
    out.push_back({"surface.n_structs", static_cast<double>(n_structs_) / n, "count"});
    out.push_back({"surface.n_tracepoints", static_cast<double>(n_tracepoints_) / n, "count"});
    out.push_back({"surface.n_syscalls", static_cast<double>(n_syscalls_) / n, "count"});
    AddPerCallTiming(out, "kernelgen.build_image_ms", build_image_ms_);
  }

 private:
  // One op: Extract then AddImage under a fresh obs::Context. `*cpu` covers
  // the calls and dropping the surface afterwards, as the CLI does.
  bool ExtractAndAdd(size_t k, Dataset& dataset, Tracer& tracer, uint64_t* cpu) {
    std::vector<uint8_t> bytes = images_[k].bytes;
    bool ok = false;
    OpContext op(tracer);
    const uint64_t t0 = ProcessCpuNs();
    {
      auto surface = op.Call("DependencySurface::Extract",
                             [&] { return DependencySurface::Extract(std::move(bytes)); });
      if (surface.ok()) {
        op.Call("Dataset::AddImage", [&] { dataset.AddImage(images_[k].label, *surface); });
        ok = !surface->health().AnyDegraded();
        if (tracer.on()) {
          n_functions_ += surface->functions().size();
          n_structs_ += surface->structs().size();
          n_tracepoints_ += surface->tracepoints().size();
          n_syscalls_ += surface->syscalls().size();
        }
      }
    }
    *cpu = ProcessCpuNs() - t0;
    if (tracer.on()) {
      intern_hits_ += op.context().metrics().Counter("dataset.intern_hits")->load();
      intern_misses_ += op.context().metrics().Counter("dataset.intern_misses")->load();
    }
    return ok;
  }

  // Every pass writes the same bytes as the prepare step did, pinned for the
  // default seed, and the mmap view of them answers like the heap Dataset.
  bool CheckPass(std::vector<uint8_t> v2) {
    dataset_bytes_ = v2.size();
    bool ok = v2 == expected_v2_;
    if (seed_ == kDefaultSeed && Fnv1a(v2.data(), v2.size()) != kPinnedV2Digest) {
      if (!reported_digest_) {
        fprintf(stderr, "perfbench: build: v2 digest %016" PRIx64 " differs from the pinned one\n",
                Fnv1a(v2.data(), v2.size()));
        reported_digest_ = true;
      }
      ok = false;
    }
    auto view = MmapDataset::FromBytes(std::move(v2));
    return ok && view.ok() && SameAnswers(*dataset_, *view, rng_);
  }

  uint64_t seed_;
  Rng rng_;
  std::vector<Image> images_;
  std::vector<uint8_t> expected_v2_;
  std::vector<double> build_image_ms_;
  std::unique_ptr<Dataset> dataset_;
  size_t next_ = 0;
  uint64_t dataset_bytes_ = 0;
  bool reported_digest_ = false;
  uint64_t intern_hits_ = 0;
  uint64_t intern_misses_ = 0;
  uint64_t n_functions_ = 0;
  uint64_t n_structs_ = 0;
  uint64_t n_tracepoints_ = 0;
  uint64_t n_syscalls_ = 0;
};

}  // namespace

int RunBuild(const Manifest& manifest, const RunOptions& options) {
  BuildWorkload workload(manifest, options);
  if (!workload.ok()) {
    return 1;
  }
  return RunWorkload(workload, options);
}

}  // namespace perfbench
