// Edge-case coverage for the perf gate comparison itself (ComparePerf was
// previously exercised only end-to-end through bench/perf_gate.sh):
// one-sided stages, zero-duration stages, and exact noise-floor and
// threshold boundaries.
#include <gtest/gtest.h>

#include "src/obs/perf_gate.h"

namespace depsurf {
namespace {

obs::StageTiming Stage(const char* name, double seconds) {
  return obs::StageTiming{name, seconds, 1};
}

TEST(PerfGateEdgeTest, OneSidedStagesNeverTripTheGate) {
  // A stage present only in base is "removed", only in head is "added" —
  // neither counts as a regression (or an improvement).
  std::vector<obs::StageTiming> base = {Stage("only_base", 2.0), Stage("both", 1.0)};
  std::vector<obs::StageTiming> head = {Stage("both", 1.0), Stage("only_head", 9.0)};
  obs::PerfComparison cmp = obs::ComparePerf(base, head);
  ASSERT_EQ(cmp.stages.size(), 3u);
  EXPECT_EQ(cmp.stages[0].cls, obs::StageClass::kRemoved);
  EXPECT_EQ(cmp.stages[1].cls, obs::StageClass::kFlat);
  EXPECT_EQ(cmp.stages[2].cls, obs::StageClass::kAdded);
  EXPECT_EQ(cmp.regressed, 0u);
  EXPECT_EQ(cmp.improved, 0u);
  EXPECT_FALSE(cmp.gate_failed());
  // Removed rows keep their base time, added rows their head time.
  EXPECT_DOUBLE_EQ(cmp.stages[0].base_seconds, 2.0);
  EXPECT_DOUBLE_EQ(cmp.stages[0].head_seconds, 0.0);
  EXPECT_DOUBLE_EQ(cmp.stages[2].head_seconds, 9.0);
  EXPECT_DOUBLE_EQ(cmp.stages[2].delta_pct, 0.0);
}

TEST(PerfGateEdgeTest, ZeroDurationStages) {
  // base 0 -> head above the floor: a real regression (delta_pct pinned to
  // 0 because the ratio is undefined). base above the floor -> head 0: an
  // improvement. 0 -> 0: flat (both under the floor).
  std::vector<obs::StageTiming> base = {Stage("grew", 0.0), Stage("shrank", 1.0),
                                        Stage("still", 0.0)};
  std::vector<obs::StageTiming> head = {Stage("grew", 0.1), Stage("shrank", 0.0),
                                        Stage("still", 0.0)};
  obs::PerfComparison cmp = obs::ComparePerf(base, head);
  ASSERT_EQ(cmp.stages.size(), 3u);
  EXPECT_EQ(cmp.stages[0].cls, obs::StageClass::kRegressed);
  EXPECT_DOUBLE_EQ(cmp.stages[0].delta_pct, 0.0);
  EXPECT_EQ(cmp.stages[1].cls, obs::StageClass::kImproved);
  EXPECT_DOUBLE_EQ(cmp.stages[1].delta_pct, -100.0);
  EXPECT_EQ(cmp.stages[2].cls, obs::StageClass::kFlat);
  EXPECT_TRUE(cmp.gate_failed());
}

TEST(PerfGateEdgeTest, ExactNoiseFloorBoundary) {
  obs::PerfGateOptions options;  // floor 0.005
  // The floor test is strict (<): a stage sitting exactly on the floor is
  // judged by ratio, one epsilon under it is not.
  std::vector<obs::StageTiming> base = {Stage("at_floor", 0.005), Stage("under", 0.004)};
  std::vector<obs::StageTiming> head = {Stage("at_floor", 0.010), Stage("under", 0.0049)};
  obs::PerfComparison cmp = obs::ComparePerf(base, head, options);
  ASSERT_EQ(cmp.stages.size(), 2u);
  EXPECT_EQ(cmp.stages[0].cls, obs::StageClass::kRegressed);  // +100%, on the floor
  EXPECT_EQ(cmp.stages[1].cls, obs::StageClass::kFlat);       // +22.5%, sub-floor
  // One side on/above the floor is enough to judge by ratio.
  std::vector<obs::StageTiming> base2 = {Stage("spike", 0.001)};
  std::vector<obs::StageTiming> head2 = {Stage("spike", 0.006)};
  EXPECT_TRUE(obs::ComparePerf(base2, head2, options).gate_failed());
}

TEST(PerfGateEdgeTest, ExactRegressThresholdBoundary) {
  obs::PerfGateOptions options;
  options.max_regress = 0.15;
  // head == base * 1.15 exactly: strict >, so not a regression.
  std::vector<obs::StageTiming> base = {Stage("s", 1.0)};
  EXPECT_FALSE(obs::ComparePerf(base, {Stage("s", 1.0 * 1.15)}, options).gate_failed());
  EXPECT_TRUE(obs::ComparePerf(base, {Stage("s", 1.16)}, options).gate_failed());
  // Symmetric on the improvement side.
  obs::PerfComparison at = obs::ComparePerf({Stage("s", 1.0 * 1.15)}, base, options);
  EXPECT_EQ(at.improved, 0u);
  obs::PerfComparison past = obs::ComparePerf({Stage("s", 1.16)}, base, options);
  EXPECT_EQ(past.improved, 1u);
}

}  // namespace
}  // namespace depsurf
