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
// an image that cannot be loaded or generated).
struct BuildPolicy {
  // true (the default): quarantine the failed image — record its label +
  // error, keep it out of the dataset, and finish the rest of the corpus.
  // false (`study build --strict`, and always for `dataset build`): abort
  // the build with the failed image's error, wrapped with its label.
  bool keep_going = true;
  // Width of the concurrent load+extract window (`--jobs=N`). 0 (the
  // default) auto-sizes to min(hardware_concurrency, 8). Results are
  // byte-identical for any value: distillation and report serialization
  // stay serial in corpus order.
  int jobs = 0;
};

// One image a build could not distill: quarantined under the default
// policy, or the image a strict build stopped at.
struct QuarantinedImage {
  std::string label;
  Error error;
  // The image's loader failed, and its error names the source itself
  // ("cannot open PATH"); otherwise extraction rejected the bytes.
  bool load_failed = false;
};

// One image a dataset build distills: the label its record (and report)
// gets, and the loader for its bytes. Loaders run on the build's worker
// lanes, several at once.
struct ImageSource {
  std::string label;
  std::function<Result<std::vector<uint8_t>>()> load;
};

// Per-image progress report for a dataset build: which image was just
// consumed, how long its load+extract round trip took, and where the build
// stands in the corpus. `seconds` is wall time inside the worker, so with
// parallel extraction the sum exceeds the dataset wall time. Every corpus
// entry fires exactly once, in corpus order with contiguous indices —
// quarantined images included, flagged so callers can render them
// distinctly instead of silently skipping a slot. A strict build that stops
// at an image fires only for the images before it.
struct ImageProgress {
  std::string label;
  double seconds = 0.0;
  size_t index = 0;  // 0-based position in the corpus
  size_t total = 0;
  bool quarantined = false;
};

// The run reports a report-mode build wrote.
struct DatasetReportFiles {
  std::vector<std::string> per_image;  // report_<label>.json, in corpus order
  std::string aggregate;               // report_agg.json
};

// Builds a dataset over `images`, the one build loop behind `study build`,
// `dataset build` and Study::BuildDataset. Loading and extraction run on
// worker lanes in a bounded window (they are pure); distillation is serial
// and in corpus order, so results are byte-identical for any
// BuildPolicy::jobs. `progress` (optional) fires once per image as it is
// consumed. Under the default policy a failed image is quarantined
// (appended to `quarantined` when non-null) with one fatal diagnostic
// saying why, and the build continues; under strict the build drains the
// window and returns the image's error wrapped with "image LABEL",
// appending the image to `quarantined` first.
//
// With a `report_dir`, the build also writes one depsurf.run_report.v1 per
// image (report_<label>.json) and their merged depsurf.run_report_agg.v1
// (report_agg.json), listed in `files` when non-null. Per-image isolation
// comes from obs::Context: each image loads and extracts under its own
// context on its lane, and distills under it on the consuming thread, so a
// quarantined image's fatal diagnostic lands in its own report. Report
// mode first clears the caller's context, so afterwards it describes this
// build alone.
Result<Dataset> BuildDatasetFromImages(
    const std::vector<ImageSource>& images, const BuildPolicy& policy = {},
    const std::function<void(const ImageProgress&)>& progress = {},
    std::vector<QuarantinedImage>* quarantined = nullptr,
    const std::string& report_dir = "", DatasetReportFiles* files = nullptr);

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

  using ImageProgress = depsurf::ImageProgress;

  // The corpus as build sources: each spec labelled BuildSpec::Label(),
  // loaded by BuildImage. The sources refer to this Study.
  std::vector<ImageSource> ImageSources(const std::vector<BuildSpec>& corpus) const;

  // BuildDatasetFromImages over ImageSources(corpus), without reports.
  Result<Dataset> BuildDataset(const std::vector<BuildSpec>& corpus,
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
