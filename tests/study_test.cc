#include "src/study/study.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/faultgen/fault_injector.h"
#include "src/util/diagnostic_ledger.h"

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
  char tmpl[] = "/tmp/depsurf_study_test_XXXXXX";
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

TEST(StudyOptionsTest, ParsesFlags) {
  const char* argv[] = {"bench", "--scale=0.25", "--seed=99"};
  StudyOptions options = StudyOptions::FromArgs(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(options.scale, 0.25);
  EXPECT_EQ(options.seed, 99u);
}

TEST(StudyOptionsTest, DefaultsAndBadValues) {
  const char* argv0[] = {"bench"};
  Result<StudyOptions> defaults = StudyOptions::Parse(1, const_cast<char**>(argv0), 0.5);
  ASSERT_TRUE(defaults.ok());
  EXPECT_DOUBLE_EQ(defaults->scale, 0.5);

  // Regression: out-of-range and unparseable values used to be silently
  // replaced by the default. They must now be hard errors naming the flag.
  for (const char* bad : {"--scale=-3", "--scale=0", "--scale=99", "--scale=abc",
                          "--scale=", "--scale=1.0x", "--scale=nan"}) {
    const char* argv[] = {"bench", bad};
    Result<StudyOptions> parsed = StudyOptions::Parse(2, const_cast<char**>(argv), 0.5);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error().code(), ErrorCode::kInvalidArgument) << bad;
    EXPECT_NE(parsed.error().message().find("--scale"), std::string::npos) << bad;
  }
  for (const char* bad : {"--seed=abc", "--seed=", "--seed=-1", "--seed=12x"}) {
    const char* argv[] = {"bench", bad};
    Result<StudyOptions> parsed = StudyOptions::Parse(2, const_cast<char**>(argv), 0.5);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_NE(parsed.error().message().find("--seed"), std::string::npos) << bad;
  }

  // Valid values still parse under the strict path.
  const char* good[] = {"bench", "--scale=0.25", "--seed=99"};
  Result<StudyOptions> parsed = StudyOptions::Parse(3, const_cast<char**>(good), 0.5);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->scale, 0.25);
  EXPECT_EQ(parsed->seed, 99u);
}

// The benches and examples own no other flags, so a misspelled or
// unknown argument is an error naming it, never a run at the default scale.
TEST(StudyOptionsTest, UnknownArgumentsAreErrors) {
  for (const char* bad : {"--scael=0.02", "--scale", "--seed", "--jobs=4", "extra"}) {
    const char* argv[] = {"bench", "--scale=0.25", bad};
    Result<StudyOptions> parsed = StudyOptions::Parse(3, const_cast<char**>(argv), 0.5);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error().code(), ErrorCode::kInvalidArgument) << bad;
    EXPECT_NE(parsed.error().message().find(bad), std::string::npos)
        << bad << ": " << parsed.error().message();
  }
}

TEST(StudyTest, EndToEndSmallCorpus) {
  Study study(StudyOptions{2025, 0.005});
  std::vector<BuildSpec> corpus = {MakeBuild(KernelVersion(5, 4)),
                                   MakeBuild(KernelVersion(6, 2))};
  std::vector<Study::ImageProgress> seen;
  auto dataset = study.BuildDataset(corpus, [&](const Study::ImageProgress& image) {
    seen.push_back(image);
  });
  ASSERT_TRUE(dataset.ok()) << dataset.error().ToString();
  EXPECT_EQ(dataset->num_images(), 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].label, "v5.4-x86-generic-gcc9");
  EXPECT_EQ(seen[0].index, 0u);
  EXPECT_EQ(seen[1].index, 1u);
  EXPECT_EQ(seen[0].total, 2u);
  EXPECT_GE(seen[0].seconds, 0.0);

  auto report = study.Analyze(*dataset, "biotop");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->program, "biotop");
  EXPECT_TRUE(report->AnyMismatch());  // v6.2 breaks the accounting pair

  EXPECT_FALSE(study.Analyze(*dataset, "no_such_tool").ok());
}

TEST(StudyTest, NonStudyVersionQuarantinedByDefaultRejectedUnderStrict) {
  Study study(StudyOptions{2025, 0.005});
  BuildSpec bad = MakeBuild(KernelVersion(5, 4));
  bad.version = KernelVersion(4, 20);

  // Default policy: the unbuildable image is quarantined, not fatal.
  std::vector<QuarantinedImage> quarantined;
  auto dataset = study.BuildDataset({bad}, {}, BuildPolicy{}, &quarantined);
  ASSERT_TRUE(dataset.ok()) << dataset.error().ToString();
  EXPECT_EQ(dataset->num_images(), 0u);
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].label, bad.Label());

  // Strict policy: the same corpus aborts the build, error naming the image.
  BuildPolicy strict;
  strict.keep_going = false;
  auto failed = study.BuildDataset({bad}, {}, strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.error().message().find(bad.Label()), std::string::npos);
}

TEST(StudyTest, PoisonedImageQuarantinedOthersSurvive) {
  Study study(StudyOptions{2025, 0.005});
  std::vector<BuildSpec> corpus = {MakeBuild(KernelVersion(5, 4)),
                                   MakeBuild(KernelVersion(6, 2))};
  const std::string victim = corpus[1].Label();
  study.SetImageMutator([&victim](const BuildSpec& build, std::vector<uint8_t>& bytes) {
    if (build.Label() == victim && bytes.size() > 16) {
      bytes.resize(16);  // below the ELF header: guaranteed fatal
    }
  });
  std::vector<QuarantinedImage> quarantined;
  auto dataset = study.BuildDataset(corpus, {}, BuildPolicy{}, &quarantined);
  ASSERT_TRUE(dataset.ok()) << dataset.error().ToString();
  EXPECT_EQ(dataset->num_images(), 1u);
  EXPECT_EQ(dataset->images()[0].label, corpus[0].Label());
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].label, victim);
  EXPECT_EQ(quarantined[0].error.code(), ErrorCode::kMalformedData);
}

// Regression: quarantined images used to vanish from the progress stream,
// leaving callers with a gap in the indices. Every corpus entry must fire
// exactly once, in order, with the quarantined flag set only on the victim.
TEST(StudyTest, QuarantinedImagesFireProgressWithContiguousIndices) {
  Study study(StudyOptions{2025, 0.005});
  std::vector<BuildSpec> corpus = {MakeBuild(KernelVersion(5, 4)),
                                   MakeBuild(KernelVersion(5, 15)),
                                   MakeBuild(KernelVersion(6, 2))};
  const std::string victim = corpus[1].Label();
  study.SetImageMutator([&victim](const BuildSpec& build, std::vector<uint8_t>& bytes) {
    if (build.Label() == victim && bytes.size() > 16) {
      bytes.resize(16);  // below the ELF header: guaranteed fatal
    }
  });

  for (bool with_reports : {false, true}) {
    SCOPED_TRACE(with_reports ? "with reports" : "without reports");
    std::vector<Study::ImageProgress> seen;
    auto progress = [&](const Study::ImageProgress& image) { seen.push_back(image); };
    std::vector<QuarantinedImage> quarantined;
    Result<Dataset> dataset =
        BuildDatasetFromImages(study.ImageSources(corpus), {}, progress, &quarantined,
                               with_reports ? MakeReportDir() : "");
    ASSERT_TRUE(dataset.ok()) << dataset.error().ToString();
    EXPECT_EQ(dataset->num_images(), 2u);
    ASSERT_EQ(quarantined.size(), 1u);
    EXPECT_EQ(quarantined[0].label, victim);
    ASSERT_EQ(seen.size(), corpus.size());
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].index, i);
      EXPECT_EQ(seen[i].total, corpus.size());
      EXPECT_EQ(seen[i].label, corpus[i].Label());
      EXPECT_EQ(seen[i].quarantined, seen[i].label == victim);
    }
  }
}

// Regression: quarantine diagnostics hardcoded DiagSubsystem::kElf, so a
// fatal inside the DWARF payload read as an ELF failure in the reports.
// Poisoning .sdwarf_info's section header must attribute to kDwarf, both on
// the QuarantinedImage error and in the per-image run report JSON.
TEST(StudyTest, QuarantineAttributesFatalToOwningSubsystem) {
  Study study(StudyOptions{2025, 0.005});
  std::vector<BuildSpec> corpus = {MakeBuild(KernelVersion(5, 4))};
  study.SetImageMutator([](const BuildSpec&, std::vector<uint8_t>& bytes) {
    EXPECT_TRUE(PoisonSectionHeader(bytes, ".sdwarf_info"));
  });

  const std::string report_dir = MakeReportDir();
  DatasetReportFiles files;
  std::vector<QuarantinedImage> quarantined;
  auto dataset = BuildDatasetFromImages(study.ImageSources(corpus), {}, {}, &quarantined,
                                        report_dir, &files);
  ASSERT_TRUE(dataset.ok()) << dataset.error().ToString();
  EXPECT_EQ(dataset->num_images(), 0u);
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].error.code(), ErrorCode::kMalformedData);
  ASSERT_TRUE(quarantined[0].error.subsystem().has_value());
  EXPECT_EQ(*quarantined[0].error.subsystem(), DiagSubsystem::kDwarf);

  ASSERT_EQ(files.per_image.size(), 1u);
  const std::string report = ReadFileOrEmpty(files.per_image[0]);
  EXPECT_NE(report.find("\"severity\": \"fatal\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"subsystem\": \"dwarf\""), std::string::npos) << report;
  EXPECT_EQ(report.find("\"subsystem\": \"elf\""), std::string::npos) << report;
}

}  // namespace
}  // namespace depsurf
