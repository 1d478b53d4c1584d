// Static-analyzer tests: CFG construction, provenance dataflow, the four
// finding kinds, guard-refined consequences against a dataset, and the
// deterministic depsurf.analysis.v1 goldens the CLI contract is locked to.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/analyzer/analyzer.h"
#include "src/analyzer/cfg.h"
#include "src/analyzer/dominator.h"
#include "src/analyzer/liveness.h"
#include "src/bpf/bpf_builder.h"
#include "src/bpf/bpf_rewriter.h"
#include "src/bpfgen/program_corpus.h"
#include "src/core/report.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/kernelgen/scripted.h"
#include "src/obs/context.h"
#include "src/obs/json_lint.h"
#include "src/obs/span.h"

namespace depsurf {
namespace {

// ---- CFG ----------------------------------------------------------------

TEST(CfgTest, LinearProgramIsOneBlock) {
  std::vector<BpfInsn> insns = {LoadField(2, 1, 0), CallHelperInsn(6), ExitInsn()};
  Cfg cfg = BuildCfg(insns);
  ASSERT_EQ(cfg.blocks.size(), 1u);
  EXPECT_EQ(cfg.blocks[0].first, 0u);
  EXPECT_EQ(cfg.blocks[0].last, 2u);
  EXPECT_TRUE(cfg.blocks[0].succs.empty());  // ends in exit
  EXPECT_EQ(cfg.dangling_edges, 0u);

  std::vector<bool> reachable = ReachableInsns(cfg, insns);
  EXPECT_EQ(std::count(reachable.begin(), reachable.end(), true), 3);
}

TEST(CfgTest, CondJumpSplitsBlocksTakenEdgeFirst) {
  // 0: jeq r3,0,+1   1: load   2: exit
  std::vector<BpfInsn> insns = {JumpEqImm(3, 0, 1), LoadField(2, 1, 0), ExitInsn()};
  Cfg cfg = BuildCfg(insns);
  ASSERT_EQ(cfg.blocks.size(), 3u);
  // Conditional block: successor 0 is the taken edge (the exit block),
  // successor 1 the fall-through (the load).
  ASSERT_EQ(cfg.blocks[0].succs.size(), 2u);
  EXPECT_EQ(cfg.blocks[cfg.blocks[0].succs[0]].first, 2u);
  EXPECT_EQ(cfg.blocks[cfg.blocks[0].succs[1]].first, 1u);
}

TEST(CfgTest, WideInsnCountsTwoSlots) {
  // ld_imm64 occupies slots 0-1, so `goto +1` from slot 2 lands on slot 4.
  std::vector<BpfInsn> insns = {LoadImm64(3, 1), JumpAlways(1), LoadField(2, 1, 0),
                                ExitInsn()};
  Cfg cfg = BuildCfg(insns);
  std::vector<bool> reachable = ReachableInsns(cfg, insns);
  ASSERT_EQ(reachable.size(), 4u);
  EXPECT_TRUE(reachable[0]);
  EXPECT_TRUE(reachable[1]);
  EXPECT_FALSE(reachable[2]);  // jumped over
  EXPECT_TRUE(reachable[3]);
  EXPECT_EQ(cfg.insn_byte_off[2], 24u);  // after the 16-byte wide insn + jump
}

TEST(CfgTest, OutOfRangeJumpIsDangling) {
  std::vector<BpfInsn> insns = {JumpAlways(100), ExitInsn()};
  Cfg cfg = BuildCfg(insns);
  EXPECT_EQ(cfg.dangling_edges, 1u);
}

// ---- Dominator tree ------------------------------------------------------

TEST(DominatorTest, DiamondJoinsAtEntry) {
  // 0: jeq r3,0,+1   1: ja +1 (then)   2: <else falls into 3>   3: exit
  //
  //        B0 (cond)
  //        /       \
  //   B2 (else)  B1 (then)
  //        \       /
  //         B3 (exit)
  std::vector<BpfInsn> insns = {JumpEqImm(3, 0, 1), JumpAlways(1),
                                MovImm(4, 7), ExitInsn()};
  Cfg cfg = BuildCfg(insns);
  ASSERT_EQ(cfg.blocks.size(), 4u);
  DominatorTree dom = BuildDominatorTree(cfg);
  // Find the block holding the exit: neither branch arm dominates it; the
  // entry dominates everything.
  size_t exit_block = DominatorTree::kUnreachable;
  for (size_t b = 0; b < cfg.blocks.size(); ++b) {
    if (cfg.blocks[b].first == 3) exit_block = b;
  }
  ASSERT_NE(exit_block, DominatorTree::kUnreachable);
  EXPECT_EQ(dom.idom[exit_block], 0u);
  EXPECT_TRUE(dom.Dominates(0, exit_block));
  for (size_t b = 1; b < cfg.blocks.size(); ++b) {
    if (b == exit_block) continue;
    EXPECT_FALSE(dom.Dominates(b, exit_block)) << "block " << b;
  }
}

TEST(DominatorTest, ChainDominatesTransitively) {
  // Straight-line split into blocks by two jumps-of-zero.
  std::vector<BpfInsn> insns = {JumpAlways(0), JumpAlways(0), ExitInsn()};
  Cfg cfg = BuildCfg(insns);
  ASSERT_EQ(cfg.blocks.size(), 3u);
  DominatorTree dom = BuildDominatorTree(cfg);
  EXPECT_TRUE(dom.Dominates(0, 2));
  EXPECT_TRUE(dom.Dominates(1, 2));
  EXPECT_FALSE(dom.Dominates(2, 1));
  EXPECT_EQ(dom.pred_edges[2], 1u);
}

TEST(DominatorTest, UnreachableBlockHasNoIdom) {
  // 0: ja +1   1: <dead>   2: exit
  std::vector<BpfInsn> insns = {JumpAlways(1), MovImm(4, 7), ExitInsn()};
  Cfg cfg = BuildCfg(insns);
  DominatorTree dom = BuildDominatorTree(cfg);
  size_t dead = DominatorTree::kUnreachable;
  for (size_t b = 0; b < cfg.blocks.size(); ++b) {
    if (cfg.blocks[b].first == 1) dead = b;
  }
  ASSERT_NE(dead, DominatorTree::kUnreachable);
  EXPECT_EQ(dom.idom[dead], DominatorTree::kUnreachable);
  EXPECT_FALSE(dom.Dominates(0, dead));
}

// ---- Liveness ------------------------------------------------------------

TEST(LivenessTest, CallDefinesCallerSavedRegs) {
  // r0..r5 are clobbered by a call, so before the exit only r0 is live and
  // after the call site the helper arguments are dead.
  std::vector<BpfInsn> insns = {MovImm(1, 7), CallHelperInsn(6), ExitInsn()};
  Cfg cfg = BuildCfg(insns);
  std::vector<LiveMask> live = ComputeLiveness(cfg, insns);
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[2], LiveMask{1} << 0);         // exit reads r0
  EXPECT_NE(live[1] & (LiveMask{1} << 1), 0u);  // call uses r1
  EXPECT_EQ(live[0] & (LiveMask{1} << 1), 0u);  // mov defines r1
}

TEST(LivenessTest, ScratchPicksLowestDeadRegister) {
  // At insn 0 the call still needs r1..r5 and exit needs r0 via the call's
  // def, so r0 and r6 are both dead; the picker prefers r0.
  std::vector<BpfInsn> insns = {MovImm(1, 7), CallHelperInsn(6), ExitInsn()};
  Cfg cfg = BuildCfg(insns);
  std::vector<LiveMask> live = ComputeLiveness(cfg, insns);
  int scratch = PickScratchRegister(live[0]);
  EXPECT_EQ(scratch, 0);
  EXPECT_EQ(PickScratchRegister(kAllRegsLive & 0x03ff), -1)
      << "r10 is never offered even when r0..r9 are live";
}

TEST(LivenessTest, UnknownOpcodeIsAllLive) {
  BpfInsn mystery{};
  mystery.opcode = 0xfe;
  std::vector<BpfInsn> insns = {mystery, ExitInsn()};
  Cfg cfg = BuildCfg(insns);
  std::vector<LiveMask> live = ComputeLiveness(cfg, insns);
  EXPECT_EQ(live[0], kAllRegsLive);
}

// ---- Analysis without a dataset -----------------------------------------

TEST(AnalyzerTest, GuardedProbeIsClean) {
  ObjectAnalysis analysis = AnalyzeObject(BuildGuardedProbe());
  ASSERT_EQ(analysis.programs.size(), 1u);
  EXPECT_EQ(analysis.programs[0].helper_calls, 2u);

  // The exists-guard dominates the rq_disk access: unguarded=false on the
  // byte-offset reloc, and no findings at all.
  ASSERT_EQ(analysis.relocs.size(), 2u);
  EXPECT_EQ(analysis.relocs[0].kind, CoreRelocKind::kFieldExists);
  EXPECT_FALSE(analysis.relocs[0].unguarded);  // guard kinds need no guard
  EXPECT_EQ(analysis.relocs[1].kind, CoreRelocKind::kFieldByteOffset);
  EXPECT_EQ(analysis.relocs[1].struct_name, "request");
  EXPECT_EQ(analysis.relocs[1].field_name, "rq_disk");
  EXPECT_FALSE(analysis.relocs[1].unguarded);
  EXPECT_TRUE(analysis.relocs[1].reachable);
  EXPECT_TRUE(analysis.findings.empty());
}

TEST(AnalyzerTest, RawOffsetProbeFlagged) {
  ObjectAnalysis analysis = AnalyzeObject(BuildRawOffsetProbe());
  ASSERT_EQ(analysis.findings.size(), 1u);
  const Finding& finding = analysis.findings[0];
  EXPECT_EQ(finding.kind, FindingKind::kRawOffsetDeref);
  EXPECT_EQ(finding.insn_off, 0u);
  EXPECT_NE(finding.detail.find("+104"), std::string::npos);
  EXPECT_NE(finding.detail.find("no CO-RE relocation"), std::string::npos);
}

TEST(AnalyzerTest, UnguardedSiblingFlagged) {
  // The same access as the guarded probe, guard stripped.
  BpfObjectBuilder builder("unguarded_probe");
  builder.AttachKprobe("blk_account_io_start");
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  ObjectAnalysis analysis = AnalyzeObject(builder.Build());
  ASSERT_EQ(analysis.relocs.size(), 1u);
  EXPECT_TRUE(analysis.relocs[0].unguarded);
  ASSERT_EQ(analysis.findings.size(), 1u);
  EXPECT_EQ(analysis.findings[0].kind, FindingKind::kUnguardedReloc);
  EXPECT_EQ(analysis.findings[0].reloc_index, 0);
}

TEST(AnalyzerTest, UncatalogedHelperFlagged) {
  BpfObjectBuilder builder("mystery");
  builder.AttachKprobe("vfs_fsync");
  builder.CallHelper(9999);
  ObjectAnalysis analysis = AnalyzeObject(builder.Build());
  ASSERT_EQ(analysis.findings.size(), 1u);
  EXPECT_EQ(analysis.findings[0].kind, FindingKind::kUnknownHelper);
}

TEST(AnalyzerTest, GuardOnlyCoversItsOwnField) {
  // Guarding field A must not bless an access to field B.
  BpfObjectBuilder builder("crossguard");
  builder.AttachKprobe("blk_account_io_start");
  ASSERT_TRUE(builder.BeginGuard("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.AccessField("request", "start_time_ns", "u64").ok());
  ASSERT_TRUE(builder.EndGuard().ok());
  ObjectAnalysis analysis = AnalyzeObject(builder.Build());
  ASSERT_EQ(analysis.relocs.size(), 2u);
  EXPECT_TRUE(analysis.relocs[1].unguarded);
  ASSERT_EQ(analysis.findings.size(), 1u);
  EXPECT_EQ(analysis.findings[0].kind, FindingKind::kUnguardedReloc);
}

TEST(AnalyzerTest, SalvagedProgramAnalyzesDecodedPrefix) {
  BpfObject object = BuildGuardedProbe();
  // Simulate a salvaged stream: drop everything past the first two insns.
  // The rq_disk reloc now binds past the decoded prefix.
  object.programs[0].insns.resize(2);
  ObjectAnalysis analysis = AnalyzeObject(object);
  ASSERT_EQ(analysis.programs.size(), 1u);
  EXPECT_EQ(analysis.programs[0].insn_count, 2u);
  // The byte-offset reloc (insn_off=32) has no instruction: unreachable.
  ASSERT_EQ(analysis.relocs.size(), 2u);
  EXPECT_FALSE(analysis.relocs[1].reachable);
}

TEST(AnalyzerTest, LaterRecordAtSharedOffsetBinds) {
  // Two records of one program at one insn_off: the later binds the
  // instruction and gets the verdicts; the earlier keeps its skeleton.
  BpfObjectBuilder builder("shared_off");
  builder.AttachKprobe("blk_account_io_start");
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.AccessField("request", "start_time_ns", "u64").ok());
  BpfObject object = builder.Build();
  ASSERT_EQ(object.relocs.size(), 2u);
  object.relocs[1].insn_off = 0;  // both on the first load
  // A second pair inside that load's slot binds no instruction.
  object.relocs.push_back(object.relocs[0]);
  object.relocs.push_back(object.relocs[1]);
  object.relocs[2].insn_off = 4;
  object.relocs[3].insn_off = 4;

  ObjectAnalysis analysis = AnalyzeObject(object);
  ASSERT_EQ(analysis.relocs.size(), 4u);
  EXPECT_TRUE(analysis.relocs[0].reachable);
  EXPECT_TRUE(analysis.relocs[1].reachable);
  EXPECT_TRUE(analysis.relocs[2].reachable);
  EXPECT_FALSE(analysis.relocs[3].reachable);
  std::vector<const Finding*> unguarded;
  for (const Finding& finding : analysis.findings) {
    if (finding.kind == FindingKind::kUnguardedReloc) {
      unguarded.push_back(&finding);
    }
  }
  ASSERT_EQ(unguarded.size(), 1u);
  EXPECT_EQ(unguarded[0]->insn_off, 0u);
  EXPECT_EQ(unguarded[0]->reloc_index, 1);
  EXPECT_NE(unguarded[0]->detail.find("request::start_time_ns"), std::string::npos);

  // The rewriter moves every record bound to the program, both of a pair.
  object.relocs.resize(2);
  GuardInsertion guard;  // before program 0's insn_off 0
  guard.scratch_reg = 3;
  guard.reloc_index = 1;
  ASSERT_TRUE(InsertFieldExistsGuards(object, {guard}).ok());
  ASSERT_EQ(object.relocs.size(), 3u);
  EXPECT_EQ(object.relocs[0].insn_off, 24u);
  EXPECT_EQ(object.relocs[1].insn_off, 24u);
  EXPECT_EQ(object.relocs[2].insn_off, 0u);  // the new guard
}

TEST(AnalyzerTest, SpansAreNamedPerLayer) {
  // `analyze` and `fix` open analyze.object with one analyze.program per
  // program; the report matrix opens report.program, so a profile keeps
  // the two layers in separate rows.
  obs::Context context;
  {
    obs::ScopedContext scope(context);
    AnalyzeObject(BuildGuardedProbe());
    DependencySet deps;
    deps.program = "probe";
    AnalyzeProgram(Dataset(), deps);
  }
  std::vector<obs::SpanNode> roots = context.spans().Snapshot();
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0].name, "analyze.object");
  ASSERT_EQ(roots[0].children.size(), 1u);
  EXPECT_EQ(roots[0].children[0].name, "analyze.program");
  EXPECT_EQ(roots[1].name, "report.program");
  EXPECT_TRUE(roots[1].children.empty());
}

// ---- Guard facts fold back into the dependency set ----------------------

TEST(AnalyzerTest, ApplyGuardFactsMarksDominatedFields) {
  BpfObject object = BuildGuardedProbe();
  auto deps = ExtractDependencySet(object);
  ASSERT_TRUE(deps.ok());
  // The extractor sees a plain read reloc; dominance is invisible to it.
  ASSERT_NE(deps->fields.find("request"), deps->fields.end());
  ObjectAnalysis analysis = AnalyzeObject(object);
  ApplyGuardFacts(analysis, *deps);
  EXPECT_TRUE(deps->fields.at("request").at("rq_disk").guarded);
}

TEST(AnalyzerTest, ApplyGuardFactsLeavesUnguardedReadsAlone) {
  BpfObjectBuilder builder("mixed");
  builder.AttachKprobe("blk_account_io_start");
  ASSERT_TRUE(builder.BeginGuard("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.EndGuard().ok());
  // A second, unguarded read of the same field: dominance does not hold.
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  BpfObject object = builder.Build();
  auto deps = ExtractDependencySet(object);
  ASSERT_TRUE(deps.ok());
  ObjectAnalysis analysis = AnalyzeObject(object);
  ApplyGuardFacts(analysis, *deps);
  EXPECT_FALSE(deps->fields.at("request").at("rq_disk").guarded);
}

// ---- Against a dataset --------------------------------------------------

constexpr uint64_t kSeed = 2025;
constexpr double kScale = 0.02;

class AgainstFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new KernelModel(kSeed, kScale, BuildCuratedCatalog());
    old_dataset_ = new Dataset();  // rq_disk present
    old_dataset_->AddImage("v5.4", Surface(MakeBuild(KernelVersion(5, 4))));
    new_dataset_ = new Dataset();  // rq_disk absent (removed in v5.16)
    new_dataset_->AddImage("v6.8", Surface(MakeBuild(KernelVersion(6, 8))));
    mixed_dataset_ = new Dataset();
    mixed_dataset_->AddImage("v5.4", Surface(MakeBuild(KernelVersion(5, 4))));
    mixed_dataset_->AddImage("v6.8", Surface(MakeBuild(KernelVersion(6, 8))));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete old_dataset_;
    delete new_dataset_;
    delete mixed_dataset_;
    model_ = nullptr;
    old_dataset_ = new_dataset_ = mixed_dataset_ = nullptr;
  }

  static DependencySurface Surface(const BuildSpec& build) {
    auto kernel = model_->Configure(build);
    EXPECT_TRUE(kernel.ok());
    auto bytes = BuildKernelImage(CompileKernel(kSeed, kernel.TakeValue()));
    EXPECT_TRUE(bytes.ok());
    auto surface = DependencySurface::Extract(bytes.TakeValue());
    EXPECT_TRUE(surface.ok()) << surface.error().ToString();
    return surface.TakeValue();
  }

  static KernelModel* model_;
  static Dataset* old_dataset_;
  static Dataset* new_dataset_;
  static Dataset* mixed_dataset_;
};

KernelModel* AgainstFixture::model_ = nullptr;
Dataset* AgainstFixture::old_dataset_ = nullptr;
Dataset* AgainstFixture::new_dataset_ = nullptr;
Dataset* AgainstFixture::mixed_dataset_ = nullptr;

TEST_F(AgainstFixture, GuardDowngradesAbsenceToHandledByProgram) {
  ObjectAnalysis analysis =
      AnalyzeObject(BuildGuardedProbe(), AnalyzeOptions{mixed_dataset_});
  ASSERT_EQ(analysis.relocs.size(), 2u);
  EXPECT_EQ(analysis.relocs[0].consequence, "none");  // the guard itself
  // rq_disk is absent on v6.8, but the access is guard-dominated.
  EXPECT_EQ(analysis.relocs[1].consequence, "handled by program");
}

TEST_F(AgainstFixture, UnguardedSiblingFailsOutright) {
  BpfObjectBuilder builder("unguarded_probe");
  builder.AttachKprobe("blk_account_io_start");
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  ObjectAnalysis analysis =
      AnalyzeObject(builder.Build(), AnalyzeOptions{mixed_dataset_});
  ASSERT_EQ(analysis.relocs.size(), 1u);
  // Same absence, no guard: the CO-RE fixup fails the build/load.
  EXPECT_EQ(analysis.relocs[0].consequence, "compilation error");
}

TEST_F(AgainstFixture, StaticallyFalseGuardYieldsUnreachableReloc) {
  // Against new kernels only, the exists-guard is false on every image:
  // the guarded body is dead code and its reloc can never be exercised.
  ObjectAnalysis analysis =
      AnalyzeObject(BuildGuardedProbe(), AnalyzeOptions{new_dataset_});
  ASSERT_EQ(analysis.findings.size(), 1u);
  EXPECT_EQ(analysis.findings[0].kind, FindingKind::kUnreachableReloc);
  EXPECT_EQ(analysis.findings[0].reloc_index, 1);
  // Against the old kernel the guard holds and the object is clean except
  // for the ringbuf helper, which v5.4 predates.
  ObjectAnalysis old_run =
      AnalyzeObject(BuildGuardedProbe(), AnalyzeOptions{old_dataset_});
  ASSERT_EQ(old_run.findings.size(), 1u);
  EXPECT_EQ(old_run.findings[0].kind, FindingKind::kUnknownHelper);
  EXPECT_NE(old_run.findings[0].detail.find("ringbuf"), std::string::npos);
}

TEST_F(AgainstFixture, HelperAvailabilityCountsImages) {
  ObjectAnalysis analysis =
      AnalyzeObject(BuildGuardedProbe(), AnalyzeOptions{mixed_dataset_});
  const Finding* helper = nullptr;
  for (const Finding& finding : analysis.findings) {
    if (finding.kind == FindingKind::kUnknownHelper) {
      helper = &finding;
    }
  }
  ASSERT_NE(helper, nullptr);
  // bpf_ringbuf_output (v5.8) is missing on exactly one of the two images.
  EXPECT_NE(helper->detail.find("1/2 images"), std::string::npos);
}

TEST_F(AgainstFixture, AgainstAllMatchesCombinedDataset) {
  // Two single-image datasets through against_all behave exactly like the
  // one mixed dataset: worst consequence across all wins, image counts sum.
  AnalyzeOptions multi;
  multi.against_all = {old_dataset_, new_dataset_};
  ObjectAnalysis analysis = AnalyzeObject(BuildGuardedProbe(), multi);
  EXPECT_EQ(analysis.against_images, 2u);
  ASSERT_EQ(analysis.relocs.size(), 2u);
  EXPECT_EQ(analysis.relocs[1].consequence, "handled by program");
  const Finding* helper = nullptr;
  for (const Finding& finding : analysis.findings) {
    if (finding.kind == FindingKind::kUnknownHelper) helper = &finding;
  }
  ASSERT_NE(helper, nullptr);
  EXPECT_NE(helper->detail.find("1/2 images"), std::string::npos);

  // against_all takes precedence over against when both are set.
  multi.against = new_dataset_;
  ObjectAnalysis again = AnalyzeObject(BuildGuardedProbe(), multi);
  EXPECT_EQ(again.against_images, 2u);
}

// ---- Deterministic JSON goldens -----------------------------------------

TEST(AnalysisJsonTest, RawOffsetGolden) {
  ObjectAnalysis analysis = AnalyzeObject(BuildRawOffsetProbe());
  std::string json = AnalysisToJson(analysis);
  const std::string expected =
      "{\n"
      "  \"schema\": \"depsurf.analysis.v1\",\n"
      "  \"object\": \"rawoffset_probe\",\n"
      "  \"against\": null,\n"
      "  \"programs\": [\n"
      "    {\"name\": \"kprobe_blk_account_io_start\", "
      "\"section\": \"kprobe/blk_account_io_start\", \"insns\": 3, \"blocks\": 1, "
      "\"reachable_insns\": 3, \"helper_calls\": 1}\n"
      "  ],\n"
      "  \"relocs\": [],\n"
      "  \"findings\": [\n"
      "    {\"kind\": \"raw-offset-deref\", \"program\": \"kprobe_blk_account_io_start\", "
      "\"insn_off\": 0, \"detail\": \"r4 = *(u64 *)(r1 +104): load from ctx pointer at "
      "hardcoded offset +104 with no CO-RE relocation\", \"remediation\": \"not fixable: "
      "no CO-RE relocation; a guard cannot be synthesized without source-level CO-RE "
      "conversion\"}\n"
      "  ],\n"
      "  \"summary\": {\"findings\": 1, \"raw_offset_deref\": 1, \"unguarded_reloc\": 0, "
      "\"unknown_helper\": 0, \"unreachable_reloc\": 0}\n"
      "}\n";
  EXPECT_EQ(json, expected);
}

TEST(AnalysisJsonTest, DeterministicAcrossRuns) {
  std::string a = AnalysisToJson(AnalyzeObject(BuildGuardedProbe()));
  std::string b = AnalysisToJson(AnalyzeObject(BuildGuardedProbe()));
  EXPECT_EQ(a, b);
}

TEST(AnalysisJsonTest, GuardedProbeLintsAndCarriesVerdicts) {
  std::string json = AnalysisToJson(AnalyzeObject(BuildGuardedProbe()));
  EXPECT_TRUE(obs::ValidateAnalysisDoc(json).ok())
      << obs::ValidateAnalysisDoc(json).ToString();
  EXPECT_NE(json.find("\"unguarded\": false"), std::string::npos);
  EXPECT_NE(json.find("\"field\": \"rq_disk\""), std::string::npos);
}

TEST(AnalysisJsonTest, LintRejectsTamperedSummary) {
  std::string json = AnalysisToJson(AnalyzeObject(BuildRawOffsetProbe()));
  ASSERT_TRUE(obs::ValidateAnalysisDoc(json).ok());
  size_t pos = json.find("\"raw_offset_deref\": 1");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, std::string("\"raw_offset_deref\": 1").size(),
               "\"raw_offset_deref\": 2");
  EXPECT_FALSE(obs::ValidateAnalysisDoc(json).ok());
}

}  // namespace
}  // namespace depsurf
