// Study harness: ties the synthetic-kernel generator, the program corpus,
// and the DepSurf analyzer together for the examples and the benchmark
// binaries that regenerate the paper's tables and figures.
#ifndef DEPSURF_SRC_STUDY_STUDY_H_
#define DEPSURF_SRC_STUDY_STUDY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/bpfgen/program_corpus.h"
#include "src/core/depsurf.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"

namespace depsurf {

// Shared CLI options: --scale=<f> --seed=<n>. Benches default to paper
// scale (1.0); examples pass a smaller default for interactivity.
struct StudyOptions {
  uint64_t seed = 2025;
  double scale = 1.0;

  // The value parser behind --scale=, shared with the depsurf CLI and
  // bench_perf: a finite number in (0, 4]. The error names the value, not
  // the flag. --seed= values go through ParseUnsigned (str_util.h).
  static Result<double> ParseScale(const std::string& text);
  // Strict argument parsing for the benches and examples, which own no
  // other flags: every argument must be a valid --scale= or --seed=, and
  // anything else is an error naming it.
  static Result<StudyOptions> Parse(int argc, char** argv, double default_scale = 1.0);
  // Convenience wrapper for benches/examples: prints the parse error to
  // stderr and exits 1 instead of propagating it.
  static StudyOptions FromArgs(int argc, char** argv, double default_scale = 1.0);
};

// What a corpus build does when one image fails extraction outright.
// Salvage-mode extraction already downgrades most damage to per-subsystem
// degradation; this policy covers the residue (unreadable ELF container,
// image generation failure).
struct BuildPolicy {
  // true (the default; there is no flag for it): quarantine the failed
  // image — record its label + error, keep it out of the dataset, and
  // finish the rest of the corpus. false (`--strict`): abort the build with
  // the failed image's error, wrapped with its label.
  bool keep_going = true;
  // Width of the concurrent generate+extract window (`--jobs=N`). 0 (the
  // default) auto-sizes to min(hardware_concurrency, 8). Results are
  // byte-identical for any value: distillation and report serialization
  // stay serial in corpus order.
  int jobs = 0;
};

// One image the build gave up on under BuildPolicy{keep_going}.
struct QuarantinedImage {
  std::string label;
  Error error;
};

class Study {
 public:
  explicit Study(const StudyOptions& options);

  const StudyOptions& options() const { return options_; }
  const KernelModel& model() const { return *model_; }
  const ProgramCorpus& programs() const { return programs_; }

  // Generates the image for one build and extracts its surface (the full
  // binary round trip). ~1.5 s per image at scale 1.
  Result<std::vector<uint8_t>> BuildImage(const BuildSpec& build) const;
  Result<DependencySurface> ExtractSurface(const BuildSpec& build) const;

  // Test/diagnostic hook: runs on every generated image's bytes before
  // extraction. Fault-injection studies use this to poison one build by
  // label (see src/faultgen) and watch the quarantine machinery react.
  using ImageMutator = std::function<void(const BuildSpec&, std::vector<uint8_t>&)>;
  void SetImageMutator(ImageMutator mutator) { image_mutator_ = std::move(mutator); }

  // Per-image progress report for BuildDataset: which image just finished,
  // how long its generate+extract round trip took, and where the build
  // stands in the corpus. `seconds` is wall time inside the worker, so with
  // parallel extraction the sum exceeds the dataset wall time. Every corpus
  // entry fires exactly once, in corpus order with contiguous indices —
  // quarantined images included, flagged so callers can render them
  // distinctly instead of silently skipping a slot.
  struct ImageProgress {
    std::string label;
    double seconds = 0.0;
    size_t index = 0;  // 0-based position in the corpus
    size_t total = 0;
    bool quarantined = false;
  };

  // Builds a dataset over the given corpus. Image generation + extraction
  // run in parallel (they are pure); distillation is serial and in corpus
  // order, so results are deterministic. `progress` (optional) is called
  // once per image as its surface is distilled. Under the default policy a
  // failed image is quarantined (appended to `quarantined` when non-null)
  // and the build continues; under strict the error aborts the build.
  Result<Dataset> BuildDataset(const std::vector<BuildSpec>& corpus,
                               const std::function<void(const ImageProgress&)>& progress = {},
                               const BuildPolicy& policy = {},
                               std::vector<QuarantinedImage>* quarantined = nullptr) const;

  // Like BuildDataset, but additionally writes one depsurf.run_report.v1
  // per image into `report_dir` (report_<label>.json) plus their merged
  // depsurf.run_report_agg.v1 (report_agg.json). Per-image isolation comes
  // from obs::Context: each in-flight image generates + extracts under its
  // own context on a worker thread, so report mode runs in the same bounded
  // concurrent window as BuildDataset. Distillation and report
  // serialization stay serial in corpus order — the dataset, the per-image
  // reports (modulo live timings), and the masked aggregate are
  // byte-identical for any BuildPolicy::jobs. The paths written land in
  // `files` when non-null.
  struct DatasetReportFiles {
    std::vector<std::string> per_image;
    std::string aggregate;
  };
  // A quarantined image still gets a per-image report: its diagnostics
  // block carries one fatal entry describing why extraction died, so the
  // aggregate report lists the image alongside the survivors.
  Result<Dataset> BuildDatasetWithReports(
      const std::vector<BuildSpec>& corpus, const std::string& report_dir,
      DatasetReportFiles* files = nullptr,
      const std::function<void(const ImageProgress&)>& progress = {},
      const BuildPolicy& policy = {},
      std::vector<QuarantinedImage>* quarantined = nullptr) const;

  // Analyzes one program object (by Table 7 name) against a dataset.
  Result<ProgramReport> Analyze(const Dataset& dataset, const std::string& program) const;
  static Result<ProgramReport> Analyze(const Dataset& dataset, const BpfObject& object);

  // ---- Salvage-vs-strict differential oracle ------------------------------
  //
  // The quarantine contract (docs/ROBUSTNESS.md) documents exactly one
  // allowed disagreement between salvage-mode and strict consumers of the
  // same input: salvage may accept a degraded input that strict rejects,
  // and then the ledger must explain what was lost. The oracle runs both
  // interpretations (twice each, to catch nondeterminism) over one
  // candidate and reports every disagreement beyond that contract. The
  // fuzz campaign (src/fuzz) runs it per candidate; a violation on any
  // input — however damaged — is a bug.
  struct OracleOutcome {
    bool salvage_ok = false;  // salvage-mode extraction produced a result
    bool strict_ok = false;   // a degradation-refusing consumer accepts it
    bool degraded = false;    // salvage flagged lost data
    size_t ledger_entries = 0;
    // Contract violations, deterministic and human-readable; empty means
    // salvage and strict agree modulo the documented quarantine contract.
    std::vector<std::string> violations;
  };

  // Kernel images: DependencySurface::Extract under both policies. Strict
  // here means "reject any surface with a degraded subsystem" (the posture
  // analyses take when they refuse salvaged columns).
  static OracleOutcome RunSalvageStrictOracle(const std::vector<uint8_t>& bytes);

  // eBPF objects: ParseBpfObject with a ledger (per-program salvage of the
  // instruction streams) vs without one (strict: whatever salvage would
  // record is the error, so a strict success means an empty ledger).
  static OracleOutcome RunObjectSalvageStrictOracle(const std::vector<uint8_t>& bytes);

 private:
  StudyOptions options_;
  ProgramCorpus programs_;
  std::unique_ptr<KernelModel> model_;
  ImageMutator image_mutator_;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_STUDY_STUDY_H_
