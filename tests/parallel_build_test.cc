// Determinism of the parallel report-mode corpus build: BuildPolicy::jobs
// changes only wall time, never output. jobs=1 and jobs=8 must produce a
// byte-identical dataset, per-image run reports equal under timing masking,
// and a byte-identical masked aggregate. Runs under the robustness label so
// the TSAN configuration (DEPSURF_SANITIZE=thread) exercises the bounded
// window and the per-image obs::Context handoff between threads.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/dataset_io.h"
#include "src/faultgen/fault_injector.h"
#include "src/obs/json_lint.h"
#include "src/obs/profile.h"
#include "src/study/study.h"

namespace depsurf {
namespace {

std::string MakeReportDir() {
  char tmpl[] = "/tmp/depsurf_parallel_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir != nullptr ? dir : ".");
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string MaskedFile(const std::string& path) {
  auto json = obs::ParseJson(ReadFileOrEmpty(path));
  EXPECT_TRUE(json.ok()) << path;
  return json.ok() ? obs::CanonicalMaskedJson(*json) : std::string();
}

struct BuildOutputs {
  std::vector<uint8_t> dataset_bytes;
  std::vector<std::string> masked_reports;
  std::string masked_aggregate;
  std::string raw_aggregate;
  std::vector<Study::ImageProgress> progress;
};

BuildOutputs RunBuild(Study& study, const std::vector<BuildSpec>& corpus, int jobs) {
  BuildOutputs out;
  BuildPolicy policy;
  policy.jobs = jobs;
  Study::DatasetReportFiles files;
  std::vector<QuarantinedImage> quarantined;
  auto dataset = study.BuildDatasetWithReports(
      corpus, MakeReportDir(), &files,
      [&](const Study::ImageProgress& image) { out.progress.push_back(image); },
      policy, &quarantined);
  EXPECT_TRUE(dataset.ok()) << dataset.error().ToString();
  if (!dataset.ok()) {
    return out;
  }
  out.dataset_bytes = SaveDatasetV2(*dataset);
  for (const std::string& path : files.per_image) {
    out.masked_reports.push_back(MaskedFile(path));
  }
  out.masked_aggregate = MaskedFile(files.aggregate);
  out.raw_aggregate = ReadFileOrEmpty(files.aggregate);
  return out;
}

TEST(ParallelBuildTest, JobsOneAndEightProduceIdenticalOutputs) {
  Study study(StudyOptions{2025, 0.005});
  std::vector<BuildSpec> corpus;
  for (KernelVersion version : kLtsVersions) {
    corpus.push_back(MakeBuild(version));
  }

  BuildOutputs serial = RunBuild(study, corpus, 1);
  BuildOutputs parallel = RunBuild(study, corpus, 8);

  EXPECT_EQ(serial.dataset_bytes, parallel.dataset_bytes);
  ASSERT_EQ(serial.masked_reports.size(), corpus.size());
  ASSERT_EQ(parallel.masked_reports.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(serial.masked_reports[i], parallel.masked_reports[i])
        << "per-image report diverges at corpus index " << i;
  }
  EXPECT_FALSE(serial.masked_aggregate.empty());
  EXPECT_EQ(serial.masked_aggregate, parallel.masked_aggregate);

  // Progress stays serial in corpus order regardless of the window width.
  ASSERT_EQ(parallel.progress.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(parallel.progress[i].index, i);
    EXPECT_EQ(parallel.progress[i].label, corpus[i].Label());
    EXPECT_FALSE(parallel.progress[i].quarantined);
  }
}

// The self-profile built from a report aggregate is valid at any window
// width, keeps CPU time within wall time on every span, and — after
// masking — is byte-identical between jobs=1 and jobs=8 (the critical_path
// and executor sections are masked wholesale, so only structure remains).
TEST(ParallelBuildTest, ProfileFromAggregateIsValidAndMaskStable) {
  Study study(StudyOptions{2025, 0.005});
  std::vector<BuildSpec> corpus;
  for (KernelVersion version : kLtsVersions) {
    corpus.push_back(MakeBuild(version));
  }

  BuildOutputs serial = RunBuild(study, corpus, 1);
  BuildOutputs parallel = RunBuild(study, corpus, 8);

  std::vector<std::string> masked_profiles;
  for (const std::string& aggregate : {serial.raw_aggregate, parallel.raw_aggregate}) {
    auto profile = obs::ProfileFromReportJson(aggregate);
    ASSERT_TRUE(profile.ok()) << profile.error().ToString();
    EXPECT_GT(profile->span_nodes, 0u);
    EXPECT_FALSE(profile->critical_path.empty());
    std::string json = obs::ProfileJson(*profile);
    EXPECT_TRUE(obs::ValidateProfileDoc(json).ok()) << json;
    auto parsed = obs::ParseJson(json);
    ASSERT_TRUE(parsed.ok());
    masked_profiles.push_back(obs::CanonicalMaskedJson(*parsed));
  }
  EXPECT_EQ(masked_profiles[0], masked_profiles[1]);

  // Per-span invariant over the aggregate's forest: a span's thread CPU
  // time never exceeds its wall time.
  auto aggregate = obs::ParseJson(serial.raw_aggregate);
  ASSERT_TRUE(aggregate.ok());
  const obs::JsonValue* spans = aggregate->Find("spans");
  ASSERT_NE(spans, nullptr);
  size_t checked = 0;
  auto check_spans = [&checked](const obs::JsonValue& span, auto&& self) -> void {
    const obs::JsonValue* dur = span.Find("dur_ns");
    const obs::JsonValue* cpu = span.Find("cpu_ns");
    ASSERT_NE(dur, nullptr);
    ASSERT_NE(cpu, nullptr);
    EXPECT_LE(cpu->number, dur->number) << span.Find("name")->string;
    ++checked;
    const obs::JsonValue* children = span.Find("children");
    if (children != nullptr) {
      for (const obs::JsonValue& child : children->array) {
        self(child, self);
      }
    }
  };
  for (const obs::JsonValue& span : spans->array) {
    check_spans(span, check_spans);
  }
  EXPECT_GT(checked, 0u);
}

// Quarantine under a wide window: the poisoned image's fatal diagnostics
// must land in its own report while neighbors extract concurrently.
TEST(ParallelBuildTest, WideWindowQuarantineStaysIsolated) {
  Study study(StudyOptions{2025, 0.005});
  std::vector<BuildSpec> corpus;
  for (KernelVersion version : kLtsVersions) {
    corpus.push_back(MakeBuild(version));
  }
  const std::string victim = corpus[2].Label();
  study.SetImageMutator([&victim](const BuildSpec& build, std::vector<uint8_t>& bytes) {
    if (build.Label() == victim && bytes.size() > 16) {
      bytes.resize(16);
    }
  });

  BuildPolicy policy;
  policy.jobs = 8;
  Study::DatasetReportFiles files;
  std::vector<QuarantinedImage> quarantined;
  auto dataset =
      study.BuildDatasetWithReports(corpus, MakeReportDir(), &files, {}, policy,
                                    &quarantined);
  ASSERT_TRUE(dataset.ok()) << dataset.error().ToString();
  EXPECT_EQ(dataset->num_images(), corpus.size() - 1);
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].label, victim);

  ASSERT_EQ(files.per_image.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const std::string report = ReadFileOrEmpty(files.per_image[i]);
    EXPECT_TRUE(obs::ValidateRunReport(report).ok()) << files.per_image[i];
    const bool has_fatal = report.find("\"severity\": \"fatal\"") != std::string::npos;
    EXPECT_EQ(has_fatal, corpus[i].Label() == victim) << files.per_image[i];
  }
}

}  // namespace
}  // namespace depsurf
