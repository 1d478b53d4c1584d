// Determinism of the windowed corpus build, BuildDatasetFromImages:
// BuildPolicy::jobs changes only wall time, never output. In report mode
// jobs=1 and jobs=8 must produce a byte-identical dataset, per-image run
// reports equal under timing masking, and a byte-identical masked
// aggregate; image files give the bytes of a serial loop at any width, and
// a strict build stops cleanly at the first bad file. Runs under the
// robustness label so the TSAN configuration (DEPSURF_SANITIZE=thread)
// exercises the bounded window and the per-image obs::Context handoff
// between threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dataset_io.h"
#include "src/faultgen/fault_injector.h"
#include "src/obs/json_lint.h"
#include "src/obs/profile.h"
#include "src/study/study.h"
#include "src/util/file_util.h"

namespace depsurf {
namespace {

// A fresh directory under /tmp, removed with its contents when the test
// binary exits.
std::string MakeReportDir() {
  static struct Cleanup {
    std::vector<std::string> dirs;
    ~Cleanup() {
      for (const std::string& dir : dirs) {
        std::error_code ec;  // best effort
        std::filesystem::remove_all(dir, ec);
      }
    }
  } cleanup;
  char tmpl[] = "/tmp/depsurf_parallel_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  if (dir == nullptr) {
    return ".";
  }
  cleanup.dirs.push_back(dir);
  return dir;
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
  DatasetReportFiles files;
  std::vector<QuarantinedImage> quarantined;
  auto dataset = BuildDatasetFromImages(
      study.ImageSources(corpus), policy,
      [&](const Study::ImageProgress& image) { out.progress.push_back(image); },
      &quarantined, MakeReportDir(), &files);
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
  DatasetReportFiles files;
  std::vector<QuarantinedImage> quarantined;
  auto dataset = BuildDatasetFromImages(study.ImageSources(corpus), policy, {},
                                        &quarantined, MakeReportDir(), &files);
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

// A source that reads an image file with the loader `dataset build` uses.
ImageSource FileSource(const std::string& path) {
  return ImageSource{path, [path] { return ReadFile(path); }};
}

// Writes the five LTS images into `dir` and returns their paths.
std::vector<std::string> WriteLtsImages(const Study& study, const std::string& dir) {
  std::vector<std::string> paths;
  for (KernelVersion version : kLtsVersions) {
    const BuildSpec build = MakeBuild(version);
    auto bytes = study.BuildImage(build);
    EXPECT_TRUE(bytes.ok()) << build.Label();
    paths.push_back(dir + "/" + build.Label());
    std::ofstream out(paths.back(), std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes->data()),
              static_cast<std::streamsize>(bytes->size()));
  }
  return paths;
}

// Image files distilled through the window at jobs 1 and 4 give the bytes
// of a serial loop that reads, extracts and distills one file at a time.
TEST(ParallelBuildTest, FileSourcesMatchTheSerialLoopAtAnyWidth) {
  Study study(StudyOptions{2025, 0.005});
  const std::vector<std::string> paths = WriteLtsImages(study, MakeReportDir());
  Dataset serial;
  std::vector<ImageSource> images;
  for (const std::string& path : paths) {
    images.push_back(FileSource(path));
    auto bytes = images.back().load();
    ASSERT_TRUE(bytes.ok()) << path;
    auto surface = DependencySurface::Extract(bytes.TakeValue());
    ASSERT_TRUE(surface.ok()) << path;
    serial.AddImage(path, *surface);
  }
  const std::vector<uint8_t> reference = SaveDatasetV2(serial);

  for (int jobs : {1, 4}) {
    BuildPolicy strict;
    strict.keep_going = false;
    strict.jobs = jobs;
    auto dataset = BuildDatasetFromImages(images, strict);
    ASSERT_TRUE(dataset.ok()) << dataset.error().ToString();
    EXPECT_EQ(SaveDatasetV2(*dataset), reference) << "jobs=" << jobs;
  }
}

// A strict build over files stops at the first one that fails: the error
// names it, progress fired only for the files before it, and every load
// already launched has finished by the time the build returns.
TEST(ParallelBuildTest, StrictFileBuildStopsAtATruncatedFileWithTheWindowDrained) {
  Study study(StudyOptions{2025, 0.005});
  const std::string dir = MakeReportDir();
  std::vector<std::string> paths = WriteLtsImages(study, dir);
  const std::string truncated = dir + "/truncated";
  {
    std::ifstream in(paths[2], std::ios::binary);
    std::vector<char> head(16);
    in.read(head.data(), static_cast<std::streamsize>(head.size()));
    std::ofstream(truncated, std::ios::binary).write(head.data(), 16);
  }
  const size_t bad = 2;
  paths.insert(paths.begin() + bad, truncated);

  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::vector<ImageSource> images;
  for (size_t i = 0; i < paths.size(); ++i) {
    images.push_back(ImageSource{
        paths[i], [&started, &finished, load = FileSource(paths[i]).load, slow = i > bad] {
          ++started;
          if (slow) {
            // Still loading when the build reaches the truncated file.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
          auto bytes = load();
          ++finished;
          return bytes;
        }});
  }
  BuildPolicy strict;
  strict.keep_going = false;
  strict.jobs = 4;
  std::vector<std::string> seen;
  std::vector<QuarantinedImage> failed;
  auto dataset = BuildDatasetFromImages(
      images, strict, [&seen](const ImageProgress& image) { seen.push_back(image.label); },
      &failed);
  ASSERT_FALSE(dataset.ok());
  EXPECT_NE(dataset.error().message().find(truncated), std::string::npos)
      << dataset.error().ToString();
  EXPECT_EQ(seen, std::vector<std::string>(paths.begin(), paths.begin() + bad));
  EXPECT_GT(started.load(), static_cast<int>(bad) + 1);
  EXPECT_EQ(finished.load(), started.load());
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].label, truncated);
  EXPECT_FALSE(failed[0].load_failed);
  EXPECT_EQ(failed[0].error.code(), ErrorCode::kMalformedData);

  // A file that cannot be opened stops the build as a loader failure,
  // whose error names the file itself.
  failed.clear();
  const std::string missing = dir + "/missing";
  auto unreadable =
      BuildDatasetFromImages({FileSource(paths[0]), FileSource(missing)}, strict, {}, &failed);
  ASSERT_FALSE(unreadable.ok());
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_TRUE(failed[0].load_failed);
  EXPECT_EQ(failed[0].error.ToString(), "io_error: cannot open " + missing);

  // So does a path that opens but cannot be read, such as a directory.
  failed.clear();
  auto directory =
      BuildDatasetFromImages({FileSource(paths[0]), FileSource(dir)}, strict, {}, &failed);
  ASSERT_FALSE(directory.ok());
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_TRUE(failed[0].load_failed);
  EXPECT_EQ(failed[0].error.ToString(), "io_error: cannot read " + dir);
}

}  // namespace
}  // namespace depsurf
