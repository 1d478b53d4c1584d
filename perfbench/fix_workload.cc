// `fix`: the `depsurf fix` path over one object file per op, against the
// LTS v2 dataset loaded as a heap Dataset: ParseBpfObject -> AnalyzeObject
// -> PlanRemediation -> InsertFieldExistsGuards -> WriteBpfObject ->
// ParseBpfObject -> AnalyzeObject -> VerifyRemediation, under a fresh
// obs::Context per op. Each pass is a seeded permutation of all 55 objects,
// so tracee (about two thirds of the CPU) is exactly 1/55 of ops: p99 lands
// on it and p90 never does. Runs the bpf codec, the analyzer, remediation,
// the rewriter and the heap Check* path; never extracts.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <tuple>

#include "perfbench/harness.h"
#include "perfbench/prepare.h"
#include "perfbench/workloads.h"
#include "src/analyzer/analyzer.h"
#include "src/analyzer/remediation.h"
#include "src/bpf/bpf_rewriter.h"
#include "src/core/dataset_io.h"

namespace perfbench {

using namespace depsurf;

namespace {

// FNV-1a over every object's (findings before, fixable, guards, findings
// after) for the default seed, in corpus order.
constexpr uint64_t kPinnedFindingsDigest = 0xbe24e94ae27a53d1ull;

struct ObjectFile {
  std::string name;
  std::vector<uint8_t> bytes;
};

// What one fix of one object produced; must repeat exactly on every pass.
struct Outcome {
  uint64_t findings_before = 0;
  uint64_t fixable = 0;
  uint64_t guards = 0;
  uint64_t findings_after = 0;

  bool operator==(const Outcome&) const = default;
};

class FixWorkload : public Workload {
 public:
  FixWorkload(const Manifest& manifest, const RunOptions& options)
      : dataset_path_(manifest.dataset),
        dataset_bytes_(manifest.dataset_bytes),
        seed_(options.seed),
        rng_(options.seed) {
    for (const std::string& path : manifest.objects) {
      ObjectFile object;
      const size_t slash = path.rfind('/');
      object.name = path.substr(slash + 4, path.size() - slash - 6);  // "/NN-name.o"
      if (!ReadFileBytes(path, &object.bytes)) {
        fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
        continue;
      }
      objects_.push_back(std::move(object));
    }
    order_.resize(objects_.size());
    for (size_t i = 0; i < order_.size(); ++i) {
      order_[i] = i;
    }
    rng_.Shuffle(order_);
    expected_.resize(objects_.size());
  }

  bool ok() const { return objects_.size() == 55 && dataset_bytes_ > 0; }

  // Set-up loads the dataset from its file, then warms up with one pass over
  // all objects, whose outcomes become the reference for every later pass.
  int setup_reps() const override { return 5; }

  uint64_t SetUp(bool* ok) override {
    dataset_.reset();
    Tracer untraced;
    const uint64_t t0 = ProcessCpuNs();
    std::vector<uint8_t> bytes;
    *ok = ReadFileBytes(dataset_path_, &bytes);
    const uint64_t load0 = ProcessCpuNs();
    auto loaded = LoadDatasetV2(bytes);
    load_ns_.push_back(ProcessCpuNs() - load0);
    bytes = {};
    if (!*ok || !loaded.ok()) {
      *ok = false;
      return ProcessCpuNs() - t0;
    }
    dataset_ = std::make_unique<Dataset>(loaded.TakeValue());
    std::vector<Outcome> outcomes(objects_.size());
    for (size_t k = 0; k < objects_.size(); ++k) {
      uint64_t cpu = 0;
      *ok = FixOne(k, untraced, &cpu, &outcomes[k]) && *ok;
    }
    const uint64_t cpu = ProcessCpuNs() - t0;
    expected_ = std::move(outcomes);
    *ok = CheckPinned() && *ok;
    return cpu;
  }

  OpResult Op(Tracer& tracer) override {
    const size_t k = order_[pos_];
    OpResult result;
    Outcome outcome;
    result.ok = FixOne(k, tracer, &result.cpu_ns, &outcome) && outcome == expected_[k];
    if (!result.ok && !reported_failure_) {
      fprintf(stderr, "perfbench: fix: %s failed its checks\n", objects_[k].name.c_str());
      reported_failure_ = true;
    }
    if (++pos_ == order_.size()) {
      rng_.Shuffle(order_);
      pos_ = 0;
    }
    return result;
  }

  bool AtPassBoundary() const override { return pos_ == 0; }

  void EndToEnd(std::vector<Metric>& out) const override {
    out.push_back({"dataset_bytes", static_cast<double>(dataset_bytes_), "bytes"});
  }

  void PerLayer(const Tracer& tracer, uint64_t ops, double scale,
                std::vector<Metric>& out) const override {
    std::vector<double> load_ms;
    for (uint64_t ns : load_ns_) {
      load_ms.push_back(static_cast<double>(ns) * scale / 1e6);
    }
    AddPerCallTiming(out, "dataset_io.load_v2_ms", load_ms);
    const std::tuple<const char*, const char*, bool> timings[] = {
        {"ParseBpfObject", "bpf.parse_us", false},
        {"AnalyzeObject", "analyzer.analyze_us", false},
        {"analyze.object/analyze.program", "analyzer.analyze_program_self_us", true},
        {"PlanRemediation", "analyzer.plan_us", false},
        {"InsertFieldExistsGuards", "bpf.rewrite_us", false},
        {"WriteBpfObject", "bpf.write_us", false},
        {"VerifyRemediation", "analyzer.verify_us", false},
        {"Dataset::CheckField", "dataset.heap_check_field_us", false},
    };
    for (const auto& [span, metric, self] : timings) {
      AddLayerTiming(out, metric, "us", tracer.Get(span), self, ops, scale);
    }
    const double n = static_cast<double>(std::max<uint64_t>(ops, 1));
    out.push_back({"analyzer.fixable_ratio",
                   traced_.findings_before > 0 ? static_cast<double>(traced_.fixable) /
                                                     static_cast<double>(traced_.findings_before)
                                               : 0,
                   "ratio"});
    out.push_back({"bpf.n_programs", static_cast<double>(n_programs_) / n, "count"});
    out.push_back({"bpf.n_insns", static_cast<double>(n_insns_) / n, "count"});
    out.push_back({"bpf.n_relocs", static_cast<double>(n_relocs_) / n, "count"});
    out.push_back(
        {"analyzer.n_findings", static_cast<double>(traced_.findings_before) / n, "count"});
    out.push_back({"analyzer.n_guards", static_cast<double>(traced_.guards) / n, "count"});
  }

 private:
  // The CLI's fix path on one object. `*cpu` covers the calls and freeing
  // what they returned; checks and traced-only measurements run outside it.
  // The fixed object must re-parse, verify, and keep no unguarded reloc.
  bool FixOne(size_t k, Tracer& tracer, uint64_t* cpu, Outcome* outcome) {
    std::vector<uint8_t> bytes = objects_[k].bytes;
    AnalyzeOptions opts;
    opts.against_all.push_back(dataset_.get());
    std::vector<RelocVerdict> traced_relocs;
    bool ok = false;
    OpContext op(tracer);
    const uint64_t t0 = ProcessCpuNs();
    {
      DiagnosticLedger ledger;
      auto object =
          op.Call("ParseBpfObject", [&] { return ParseBpfObject(std::move(bytes), &ledger); });
      if (object.ok()) {
        ObjectAnalysis before =
            op.Call("AnalyzeObject", [&] { return AnalyzeObject(*object, opts); });
        RemediationPlan plan =
            op.Call("PlanRemediation", [&] { return PlanRemediation(*object, before, opts); });
        BpfObject fixed = *object;
        Status applied = op.Call("InsertFieldExistsGuards", [&] {
          return InsertFieldExistsGuards(fixed, plan.Insertions(), &ledger);
        });
        auto encoded = op.Call("WriteBpfObject", [&] { return WriteBpfObject(fixed); });
        outcome->findings_before = before.findings.size();
        outcome->fixable = plan.FixableCount();
        outcome->guards = plan.Insertions().size();
        if (applied.ok() && encoded.ok()) {
          DiagnosticLedger reparse_ledger;
          auto reparsed = op.Call("ParseBpfObject",
                                  [&] { return ParseBpfObject(*encoded, &reparse_ledger); });
          if (reparsed.ok()) {
            ObjectAnalysis after =
                op.Call("AnalyzeObject", [&] { return AnalyzeObject(*reparsed, opts); });
            RemediationVerification verification = op.Call(
                "VerifyRemediation", [&] { return VerifyRemediation(before, plan, after); });
            outcome->findings_after = after.findings.size();
            ok = verification.ok && after.CountKind(FindingKind::kUnguardedReloc) == 0;
          }
        }
        if (tracer.on()) {
          n_programs_ += object->programs.size();
          for (const BpfProgram& program : object->programs) {
            n_insns_ += program.insns.size();
          }
          n_relocs_ += object->relocs.size();
          traced_relocs = before.relocs;
        }
      }
    }
    *cpu = ProcessCpuNs() - t0;
    if (tracer.on()) {
      traced_.findings_before += outcome->findings_before;
      traced_.fixable += outcome->fixable;
      traced_.guards += outcome->guards;
      MeasureHeapChecks(traced_relocs, tracer);
    }
    return ok;
  }

  // The heap Check* path alone: every field reloc the analysis resolved,
  // back to back, outside the op.
  void MeasureHeapChecks(const std::vector<RelocVerdict>& relocs, Tracer& tracer) {
    uint64_t fields = 0;
    for (const RelocVerdict& verdict : relocs) {
      fields += verdict.field_name.empty() ? 0 : 1;
    }
    obs::Context isolated;
    obs::ScopedContext scoped(isolated);
    Tracer::Scope span = tracer.Span("Dataset::CheckField", fields);
    for (const RelocVerdict& verdict : relocs) {
      if (!verdict.field_name.empty()) {
        dataset_->CheckField(verdict.struct_name, verdict.field_name, verdict.expected_type,
                             !verdict.unguarded);
      }
    }
  }

  // For the default seed, the per-object outcomes match the pinned digest.
  bool CheckPinned() const {
    if (seed_ != kDefaultSeed) {
      return true;
    }
    uint64_t h = Fnv1a(nullptr, 0);
    for (const Outcome& o : expected_) {
      const uint64_t fields[] = {o.findings_before, o.fixable, o.guards, o.findings_after};
      h = Fnv1a(fields, sizeof(fields), h);
    }
    if (h != kPinnedFindingsDigest) {
      fprintf(stderr,
              "perfbench: fix: findings digest %016" PRIx64 " differs from the pinned one\n", h);
      return false;
    }
    return true;
  }

  std::string dataset_path_;
  uint64_t dataset_bytes_;
  uint64_t seed_;
  Rng rng_;
  std::vector<ObjectFile> objects_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
  std::unique_ptr<Dataset> dataset_;
  std::vector<Outcome> expected_;
  std::vector<uint64_t> load_ns_;
  bool reported_failure_ = false;
  Outcome traced_;
  uint64_t n_programs_ = 0;
  uint64_t n_insns_ = 0;
  uint64_t n_relocs_ = 0;
};

}  // namespace

int RunFix(const Manifest& manifest, const RunOptions& options) {
  FixWorkload workload(manifest, options);
  if (!workload.ok()) {
    fprintf(stderr, "perfbench: fix: cannot read the prepared inputs\n");
    return 1;
  }
  return RunWorkload(workload, options);
}

}  // namespace perfbench
