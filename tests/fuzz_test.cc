// Coverage-guided fuzzing engine tests: determinism of a seeded campaign,
// the guided-beats-blind acceptance bar, the salvage-vs-strict oracle on
// clean and poisoned inputs, corpus minimization, the wall-clock guard, and
// depsurf.fuzz_campaign.v1 schema validation.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "src/bpf/bpf_builder.h"
#include "src/elf/elf_reader.h"
#include "src/faultgen/fault_injector.h"
#include "src/fuzz/fuzz_campaign.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/kernelgen/rates.h"
#include "src/obs/json_lint.h"
#include "src/study/study.h"

namespace depsurf {
namespace {

std::vector<uint8_t> SmallImage(KernelVersion version = KernelVersion(5, 4)) {
  KernelModel model(7, 0.005, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(version));
  auto image = BuildKernelImage(CompileKernel(7, kernel.TakeValue()));
  return image.TakeValue();
}

std::vector<uint8_t> SmallObject() {
  BpfObjectBuilder builder("probe");
  builder.AttachKprobe("vfs_fsync").AttachTracepoint("block", "block_rq_issue");
  Status ok = builder.AccessField("request", "rq_disk", "struct gendisk *");
  (void)ok;
  return WriteBpfObject(builder.Build()).TakeValue();
}

FuzzOptions FastOptions(uint64_t rounds, uint64_t seed) {
  FuzzOptions options;
  options.rounds = rounds;
  options.seed = seed;
  options.time_budget_ms = 0;  // inline, no detached workers in unit tests
  return options;
}

FuzzCampaignResult RunImageCampaign(uint64_t rounds, uint64_t seed) {
  std::vector<FuzzSeed> seeds;
  seeds.push_back({"img", SmallImage()});
  auto result = RunFuzzCampaign(std::move(seeds), FastOptions(rounds, seed));
  EXPECT_TRUE(result.ok()) << result.error().ToString();
  return result.TakeValue();
}

TEST(FuzzCampaignTest, SeededCampaignIsDeterministic) {
  FuzzCampaignResult a = RunImageCampaign(32, 11);
  FuzzCampaignResult b = RunImageCampaign(32, 11);
  EXPECT_EQ(RenderFuzzCampaignJson(a), RenderFuzzCampaignJson(b));
  EXPECT_EQ(a.minimized, b.minimized);
  ASSERT_EQ(a.corpus.size(), b.corpus.size());
  for (size_t i = 0; i < a.corpus.size(); ++i) {
    EXPECT_EQ(a.corpus[i].bytes, b.corpus[i].bytes) << a.corpus[i].name;
  }
}

TEST(FuzzCampaignTest, GuidedCampaignBeatsBlindSweep) {
  // The acceptance bar: same seed corpus, same 64-mutation budget, strictly
  // more distinct coverage keys than the doctor --sweep shape.
  std::vector<FuzzSeed> seeds;
  seeds.push_back({"img", SmallImage()});
  std::vector<std::string> blind =
      RunBlindSweep(seeds, SeedMode::kImage, 64, 2025);
  auto guided = RunFuzzCampaign(std::move(seeds), FastOptions(64, 2025));
  ASSERT_TRUE(guided.ok()) << guided.error().ToString();
  EXPECT_GT(guided->coverage.size(), blind.size());
}

TEST(FuzzCampaignTest, CampaignOnCleanSeedsHasNoOracleDisagreements) {
  FuzzCampaignResult result = RunImageCampaign(48, 3);
  EXPECT_TRUE(result.disagreements.empty());
  EXPECT_TRUE(result.hangs.empty());
  EXPECT_EQ(result.ExitCode(), 0);
}

TEST(FuzzCampaignTest, ObjectModeCampaignRuns) {
  std::vector<FuzzSeed> seeds;
  seeds.push_back({"probe.o", SmallObject()});
  auto result = RunFuzzCampaign(std::move(seeds), FastOptions(32, 5));
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_EQ(result->mode, SeedMode::kObject);
  EXPECT_TRUE(result->disagreements.empty());
  EXPECT_GT(result->coverage.size(), 1u);
}

// A strict parse fails wherever salvage records damage, so the object
// oracle has nothing to disagree on. biotop is the corpus object with the
// most disagreements while the strict parse still dropped damage silently.
TEST(FuzzCampaignTest, CorpusObjectCampaignHasNoOracleDisagreements) {
  std::vector<FuzzSeed> seeds;
  for (const BpfObject& object : BuildProgramCorpus().objects) {
    if (object.name == "biotop") {
      seeds.push_back({"biotop.o", WriteBpfObject(object).TakeValue()});
    }
  }
  ASSERT_EQ(seeds.size(), 1u);
  auto result = RunFuzzCampaign(std::move(seeds), FastOptions(64, 2025));
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_EQ(result->mode, SeedMode::kObject);
  for (const FuzzOracleDisagreement& d : result->disagreements) {
    ADD_FAILURE() << "round " << d.round << " " << d.kind << ": " << d.violation;
  }
}

TEST(FuzzCampaignTest, MixedImageAndObjectSeedsAreAnError) {
  std::vector<FuzzSeed> seeds;
  seeds.push_back({"img", SmallImage()});
  seeds.push_back({"probe.o", SmallObject()});
  auto result = RunFuzzCampaign(std::move(seeds), FastOptions(8, 1));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("seed 'probe.o' is an object"), std::string::npos)
      << result.error().message();
}

TEST(FuzzCampaignTest, MinimizedCorpusCoversAllCoverage) {
  FuzzCampaignResult result = RunImageCampaign(48, 17);
  std::set<std::string> covered;
  for (size_t index : result.minimized) {
    ASSERT_LT(index, result.corpus.size());
    covered.insert(result.corpus[index].tuples.begin(),
                   result.corpus[index].tuples.end());
  }
  for (const std::string& tuple : result.coverage) {
    EXPECT_TRUE(covered.count(tuple)) << "uncovered: " << tuple;
  }
  // Minimization must never keep more entries than the corpus has.
  EXPECT_LE(result.minimized.size(), result.corpus.size());
}

TEST(FuzzCampaignTest, CorpusLineageReplays) {
  // Every non-seed entry records (parent, kind, fault_seed); replaying the
  // mutation against the parent's bytes must reproduce the entry exactly.
  FuzzCampaignResult result = RunImageCampaign(48, 23);
  for (const FuzzCorpusEntry& entry : result.corpus) {
    if (entry.is_seed) continue;
    ASSERT_LT(entry.parent, entry.index);
    std::vector<uint8_t> replay = result.corpus[entry.parent].bytes;
    FaultKind kind = FaultKind::kByteFlip;
    bool found = false;
    for (int k = 0; k < kNumFaultKinds; ++k) {
      if (entry.kind == FaultKindName(static_cast<FaultKind>(k))) {
        kind = static_cast<FaultKind>(k);
        found = true;
      }
    }
    ASSERT_TRUE(found) << entry.kind;
    std::string description = ApplyFault(replay, kind, entry.fault_seed);
    EXPECT_EQ(description, entry.description);
    EXPECT_EQ(replay, entry.bytes) << entry.name;
  }
}

TEST(FuzzCampaignTest, EmptySeedListIsAnError) {
  auto result = RunFuzzCampaign({}, FastOptions(8, 1));
  EXPECT_FALSE(result.ok());
}

TEST(FuzzCampaignTest, ExitCodePriorities) {
  FuzzCampaignResult result;
  EXPECT_EQ(result.ExitCode(), 0);
  result.disagreements.push_back({0, "byte_flip", 1, "violation"});
  EXPECT_EQ(result.ExitCode(), 2);
  result.hangs.push_back({1, "truncate", 2, "hung"});
  EXPECT_EQ(result.ExitCode(), 1);  // hangs dominate disagreements
}

TEST(FuzzOracleTest, CleanLtsCorpusHasNoDisagreements) {
  for (const KernelVersion& version : kLtsVersions) {
    std::vector<uint8_t> image = SmallImage(version);
    Study::OracleOutcome outcome = Study::RunSalvageStrictOracle(image);
    EXPECT_TRUE(outcome.salvage_ok) << version.ToString();
    EXPECT_TRUE(outcome.strict_ok) << version.ToString();
    EXPECT_FALSE(outcome.degraded) << version.ToString();
    for (const std::string& violation : outcome.violations) {
      ADD_FAILURE() << version.ToString() << ": " << violation;
    }
  }
}

TEST(FuzzOracleTest, CleanObjectHasNoDisagreements) {
  Study::OracleOutcome outcome =
      Study::RunObjectSalvageStrictOracle(SmallObject());
  EXPECT_TRUE(outcome.salvage_ok);
  EXPECT_TRUE(outcome.strict_ok);
  EXPECT_EQ(outcome.ledger_entries, 0u);
  for (const std::string& violation : outcome.violations) {
    ADD_FAILURE() << violation;
  }
}

TEST(FuzzOracleTest, CorruptDwarfIsAnExplainedDisagreement) {
  // The documented quarantine contract: salvage accepts a degraded image
  // that strict rejects, and the ledger explains it — not a violation.
  std::vector<uint8_t> image = SmallImage();
  auto elf = ElfReader::Parse(image);
  ASSERT_TRUE(elf.ok());
  const ElfSectionView* info = elf->SectionByName(".sdwarf_info");
  ASSERT_NE(info, nullptr);
  ASSERT_GT(info->size, 16u);
  for (size_t i = 0; i < 16; ++i) {
    image[static_cast<size_t>(info->offset) + i] = 0xff;
  }
  Study::OracleOutcome outcome = Study::RunSalvageStrictOracle(image);
  EXPECT_TRUE(outcome.salvage_ok);
  EXPECT_FALSE(outcome.strict_ok);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_GT(outcome.ledger_entries, 0u);
  for (const std::string& violation : outcome.violations) {
    ADD_FAILURE() << violation;
  }
}

TEST(FuzzOracleTest, PoisonedSectionHeaderIsFatalForBothPolicies) {
  // sh_offset past end-of-file kills the container for salvage and strict
  // alike — agreement, not a disagreement. The error must still explain
  // itself (the oracle flags empty fatal messages).
  std::vector<uint8_t> image = SmallImage();
  ASSERT_TRUE(PoisonSectionHeader(image, ".sdwarf_info"));
  Study::OracleOutcome outcome = Study::RunSalvageStrictOracle(image);
  EXPECT_FALSE(outcome.salvage_ok);
  EXPECT_FALSE(outcome.strict_ok);
  for (const std::string& violation : outcome.violations) {
    ADD_FAILURE() << violation;
  }
}

TEST(FuzzGuardTest, WallClockGuardTripsOnSlowWork) {
  EXPECT_FALSE(RunWithWallClock(20, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }));
  bool ran = false;
  EXPECT_TRUE(RunWithWallClock(5000, [&ran] { ran = true; }));
  EXPECT_TRUE(ran);
}

TEST(FuzzGuardTest, ZeroBudgetRunsInline) {
  bool ran = false;
  EXPECT_TRUE(RunWithWallClock(0, [&ran] { ran = true; }));
  EXPECT_TRUE(ran);
}

TEST(FuzzReportTest, RenderedCampaignValidates) {
  FuzzCampaignResult result = RunImageCampaign(24, 9);
  std::string json = RenderFuzzCampaignJson(result);
  Status valid = obs::ValidateFuzzCampaignDoc(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(FuzzReportTest, LintRejectsTamperedDocuments) {
  FuzzCampaignResult result = RunImageCampaign(16, 9);
  std::string json = RenderFuzzCampaignJson(result);

  std::string wrong_schema = json;
  size_t at = wrong_schema.find("fuzz_campaign.v1");
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, 16, "fuzz_campaign.v9");
  EXPECT_FALSE(obs::ValidateFuzzCampaignDoc(wrong_schema).ok());

  // exit_code must agree with the (empty) hang/disagreement arrays.
  std::string wrong_exit = json;
  at = wrong_exit.rfind("\"exit_code\": 0");
  ASSERT_NE(at, std::string::npos);
  wrong_exit.replace(at, 14, "\"exit_code\": 2");
  EXPECT_FALSE(obs::ValidateFuzzCampaignDoc(wrong_exit).ok());

  EXPECT_FALSE(obs::ValidateFuzzCampaignDoc("{}").ok());
  EXPECT_FALSE(obs::ValidateFuzzCampaignDoc("not json").ok());
}

}  // namespace
}  // namespace depsurf
