// Tests for surface diffing, the mismatch dataset, dependency sets, and
// program reports — the full DepSurf pipeline over a generated corpus.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/bpf/bpf_builder.h"
#include "src/btf/btf_codec.h"
#include "src/btf/btf_print.h"
#include "src/core/depsurf.h"
#include "src/elf/elf_writer.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/kernelgen/scripted.h"
#include "tests/distill_reference.h"

namespace depsurf {
namespace {

constexpr uint64_t kSeed = 2025;
constexpr double kScale = 0.02;

class CorpusFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new KernelModel(kSeed, kScale, BuildCuratedCatalog());
    dataset_ = new Dataset();
    for (const BuildSpec& build : DependencyAnalysisCorpus()) {
      dataset_->AddImage(build.Label(), Surface(build));
    }
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    model_ = nullptr;
    dataset_ = nullptr;
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
  static Dataset* dataset_;
};

KernelModel* CorpusFixture::model_ = nullptr;
Dataset* CorpusFixture::dataset_ = nullptr;

TEST_F(CorpusFixture, DiffDetectsScriptedEvolution) {
  DependencySurface v44 = Surface(MakeBuild(KernelVersion(4, 4)));
  DependencySurface v415 = Surface(MakeBuild(KernelVersion(4, 15)));
  SurfaceDiff diff = DiffSurfaces(v44, v415);

  // do_unlinkat changed its second parameter type (char* -> filename*),
  // which also renames it: param added + removed.
  auto it = diff.funcs.changed.find("do_unlinkat");
  ASSERT_NE(it, diff.funcs.changed.end());
  // account_idle_time: cputime_t -> u64 parameter type change.
  auto idle = diff.funcs.changed.find("account_idle_time");
  ASSERT_NE(idle, diff.funcs.changed.end());
  EXPECT_NE(std::find(idle->second.begin(), idle->second.end(),
                      FuncChangeKind::kParamTypeChanged),
            idle->second.end());
  // security_task_alloc was added.
  EXPECT_NE(std::find(diff.funcs.added.begin(), diff.funcs.added.end(), "security_task_alloc"),
            diff.funcs.added.end());
  // task_struct changed (utime: cputime_t -> u64).
  auto ts = diff.structs.changed.find("task_struct");
  ASSERT_NE(ts, diff.structs.changed.end());
  EXPECT_NE(std::find(ts->second.begin(), ts->second.end(),
                      StructChangeKind::kFieldTypeChanged),
            ts->second.end());
  // struct filename appeared.
  EXPECT_NE(std::find(diff.structs.added.begin(), diff.structs.added.end(), "filename"),
            diff.structs.added.end());
}

TEST_F(CorpusFixture, DiffDetectsVfsRenameCollapse) {
  DependencySurface v54 = Surface(MakeBuild(KernelVersion(5, 4)));
  DependencySurface v515 = Surface(MakeBuild(KernelVersion(5, 15)));
  SurfaceDiff diff = DiffSurfaces(v54, v515);
  auto it = diff.funcs.changed.find("vfs_rename");
  ASSERT_NE(it, diff.funcs.changed.end());
  EXPECT_NE(std::find(it->second.begin(), it->second.end(), FuncChangeKind::kParamAdded),
            it->second.end());
  EXPECT_NE(std::find(it->second.begin(), it->second.end(), FuncChangeKind::kParamRemoved),
            it->second.end());
  // vfs_create gained a leading param: existing params reordered.
  auto create = diff.funcs.changed.find("vfs_create");
  ASSERT_NE(create, diff.funcs.changed.end());
  EXPECT_NE(std::find(create->second.begin(), create->second.end(),
                      FuncChangeKind::kParamReordered),
            create->second.end());
}

TEST_F(CorpusFixture, DiffDetectsTracepointChanges) {
  DependencySurface v54 = Surface(MakeBuild(KernelVersion(5, 4)));
  DependencySurface v515 = Surface(MakeBuild(KernelVersion(5, 15)));
  SurfaceDiff diff = DiffSurfaces(v54, v515);
  // block_rq_issue lost its request_queue argument in v5.11 (a54895f):
  // a tracing-function change without an event change.
  auto it = diff.tracepoints.changed.find("block_rq_issue");
  ASSERT_NE(it, diff.tracepoints.changed.end());
  EXPECT_NE(std::find(it->second.begin(), it->second.end(),
                      TracepointChangeKind::kFuncChanged),
            it->second.end());
  EXPECT_EQ(std::find(it->second.begin(), it->second.end(),
                      TracepointChangeKind::kEventChanged),
            it->second.end());
}

TEST_F(CorpusFixture, DiffRatesInPaperRange) {
  DependencySurface v54 = Surface(MakeBuild(KernelVersion(5, 4)));
  DependencySurface v515 = Surface(MakeBuild(KernelVersion(5, 15)));
  SurfaceDiff diff = DiffSurfaces(v54, v515);
  double base = static_cast<double>(v54.functions().size());
  double removed = static_cast<double>(diff.funcs.removed.size()) / base;
  double added = static_cast<double>(diff.funcs.added.size()) / base;
  double changed = static_cast<double>(diff.funcs.changed.size()) / base;
  // Paper (Table 3, 5.4 -> 5.15): +22% -10% Δ5%. Wide tolerances: the test
  // corpus is 2% scale.
  EXPECT_GT(added, 0.10);
  EXPECT_LT(added, 0.40);
  EXPECT_GT(removed, 0.04);
  EXPECT_LT(removed, 0.20);
  EXPECT_GT(changed, 0.01);
  EXPECT_LT(changed, 0.15);
}

TEST_F(CorpusFixture, DatasetFuncQueries) {
  // blk_account_io_start across the x86 series: Δ from v5.8 (param
  // removed), F from v5.19 (static inline).
  auto cells = dataset_->CheckFunc("blk_account_io_start");
  ASSERT_EQ(cells.size(), 21u);
  int v44 = VersionIndex(KernelVersion(4, 4));
  int v58 = VersionIndex(KernelVersion(5, 8));
  int v515 = VersionIndex(KernelVersion(5, 15));
  int v519 = VersionIndex(KernelVersion(5, 19));
  EXPECT_TRUE(cells[v44].empty());
  EXPECT_TRUE(cells[v58].count(MismatchKind::kChanged));
  EXPECT_TRUE(cells[v58].count(MismatchKind::kSelectiveInline));
  EXPECT_TRUE(cells[v515].count(MismatchKind::kChanged));
  EXPECT_TRUE(cells[v519].count(MismatchKind::kFullInline));

  // The worker functions are absent before v5.19 (first study version at
  // or after their v5.16 introduction).
  auto worker = dataset_->CheckFunc("__blk_account_io_start");
  EXPECT_TRUE(worker[v44].count(MismatchKind::kAbsent));
  EXPECT_TRUE(worker[v519].count(MismatchKind::kFullInline));

  // blk_mq_start_request: no mismatch anywhere on x86.
  auto stable = dataset_->CheckFunc("blk_mq_start_request");
  for (int i = 0; i < 17; ++i) {
    EXPECT_TRUE(stable[i].empty()) << i;
  }
}

TEST_F(CorpusFixture, DatasetFieldQueries) {
  // request::rq_disk disappears at v5.19 (>= v5.16 change).
  auto cells = dataset_->CheckField("request", "rq_disk", "struct gendisk *", false);
  int v44 = VersionIndex(KernelVersion(4, 4));
  int v515 = VersionIndex(KernelVersion(5, 15));
  int v519 = VersionIndex(KernelVersion(5, 19));
  EXPECT_TRUE(cells[v44].empty());
  EXPECT_TRUE(cells[v515].empty());
  EXPECT_TRUE(cells[v519].count(MismatchKind::kAbsent));
  // request_queue::disk appears at v5.15; both coexist there.
  auto disk = dataset_->CheckField("request_queue", "disk", "struct gendisk *", false);
  EXPECT_TRUE(disk[v44].count(MismatchKind::kAbsent));
  EXPECT_TRUE(disk[v515].empty());
  // Guarded access never reports absence.
  auto guarded = dataset_->CheckField("request_queue", "disk", "struct gendisk *", true);
  EXPECT_TRUE(guarded[v44].empty());
  // task_struct::state: type stays, then the field is renamed -> absent.
  auto state = dataset_->CheckField("task_struct", "state", "long", false);
  EXPECT_TRUE(state[v44].empty());
  EXPECT_TRUE(state[v515].count(MismatchKind::kAbsent));
  // utime: cputime_t -> u64 = silently-compatible change.
  auto utime = dataset_->CheckField("task_struct", "utime", "cputime_t", false);
  EXPECT_TRUE(utime[v44].empty());
  EXPECT_TRUE(utime[VersionIndex(KernelVersion(4, 15))].count(MismatchKind::kChanged));
}

TEST_F(CorpusFixture, DatasetTracepointAndSyscallQueries) {
  auto io_start = dataset_->CheckTracepoint("block_io_start");
  EXPECT_TRUE(io_start[0].count(MismatchKind::kAbsent));
  EXPECT_TRUE(io_start[VersionIndex(KernelVersion(6, 5))].empty());
  auto rq_issue = dataset_->CheckTracepoint("block_rq_issue");
  EXPECT_TRUE(rq_issue[0].empty());
  EXPECT_TRUE(rq_issue[VersionIndex(KernelVersion(5, 11))].count(MismatchKind::kChanged));

  auto openat2 = dataset_->CheckSyscall("openat2");
  EXPECT_TRUE(openat2[0].count(MismatchKind::kAbsent));
  EXPECT_TRUE(openat2[VersionIndex(KernelVersion(5, 8))].empty());
  // arm64 image (index 17) lacks legacy "open".
  auto open_call = dataset_->CheckSyscall("open");
  EXPECT_TRUE(open_call[0].empty());
  EXPECT_TRUE(open_call[17].count(MismatchKind::kAbsent));

  // Register layouts differ on every non-x86 image.
  auto regs = dataset_->CheckRegisters();
  EXPECT_TRUE(regs[0].empty());
  EXPECT_TRUE(regs[16].empty());
  for (size_t i = 17; i < 21; ++i) {
    EXPECT_TRUE(regs[i].count(MismatchKind::kChanged)) << i;
  }
}

// Distillation must render every field and declaration exactly as the
// uncached printers do, even where rendering is cut off 32 levels down
// (an inner type's text there depends on its depth) or loops.
TEST(DatasetDistillTest, ExactOnHostileBtf) {
  HostileBtf hostile = BuildHostileBtf();
  const TypeGraph& graph = hostile.graph;
  const std::vector<BtfTypeId>& chain = hostile.chain;
  ASSERT_EQ(graph.Get(hostile.loop_ptr)->ref_type_id, hostile.loop_const);
  ASSERT_TRUE(graph.Validate().ok());

  ElfWriter writer(ElfIdent{});
  writer.AddSection(".BTF", SectionType::kProgbits, EncodeBtf(graph));
  auto image = writer.Finish();
  ASSERT_TRUE(image.ok()) << image.error().ToString();
  auto surface = DependencySurface::Extract(image.TakeValue());
  ASSERT_TRUE(surface.ok()) << surface.error().ToString();
  const TypeGraph& btf = surface->btf();
  ASSERT_EQ(btf.num_types(), graph.num_types());
  EXPECT_EQ(TypeString(btf, chain[40]).find("<cycle>"), 0u);
  EXPECT_EQ(TypeString(btf, chain[30]), "int " + std::string(30, '*'));

  Dataset dataset;
  dataset.AddImage("hostile", *surface);
  for (const char* name : {"deep", "looped"}) {
    auto id = surface->FindStruct(name);
    ASSERT_TRUE(id.has_value()) << name;
    const std::optional<BtfTypeView> st = btf.Get(*id);
    for (const BtfMemberView m : st->members) {
      auto distilled = dataset.FieldTypeAt(name, std::string(m.name), 0);
      ASSERT_TRUE(distilled.has_value()) << name << "::" << m.name;
      EXPECT_EQ(*distilled, TypeString(btf, m.type_id)) << name << "::" << m.name;
    }
  }
  const FunctionEntry* fn = surface->FindFunction("hostile_fn");
  ASSERT_NE(fn, nullptr);
  ASSERT_NE(fn->btf_id, 0u);
  std::string decl = FuncDeclString(btf, fn->btf_id);
  EXPECT_EQ(decl.find("int hostile_fn(<cycle>"), 0u) << decl;
  EXPECT_NE(decl.find(", int " + std::string(30, '*') + "inner, "), std::string::npos) << decl;
  auto distilled = dataset.FuncDeclAt("hostile_fn", 0);
  ASSERT_TRUE(distilled.has_value());
  EXPECT_EQ(*distilled, decl);
}

TEST_F(CorpusFixture, BiotopReportMatchesFigure4) {
  BpfObjectBuilder builder("biotop");
  builder.AttachKprobe("blk_mq_start_request")
      .AttachKprobe("blk_account_io_start")
      .AttachKprobe("blk_account_io_done")
      .AttachKprobe("__blk_account_io_start")
      .AttachKprobe("__blk_account_io_done")
      .AttachTracepoint("block", "block_io_start")
      .AttachTracepoint("block", "block_io_done");
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.AccessField("request", "__sector", "sector_t").ok());
  ASSERT_TRUE(builder.AccessField("request_queue", "disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.AccessField("gendisk", "disk_name", "char[32]").ok());

  auto object_bytes = WriteBpfObject(builder.Build());
  ASSERT_TRUE(object_bytes.ok());
  auto object = ParseBpfObject(object_bytes.TakeValue());
  ASSERT_TRUE(object.ok());
  auto deps = ExtractDependencySet(*object);
  ASSERT_TRUE(deps.ok());
  EXPECT_EQ(deps->NumFuncs(), 5u);
  EXPECT_EQ(deps->NumTracepoints(), 2u);
  EXPECT_EQ(deps->NumStructs(), 3u);
  EXPECT_EQ(deps->NumFields(), 4u);

  ProgramReport report = AnalyzeProgram(*dataset_, *deps);
  EXPECT_TRUE(report.AnyMismatch());
  EXPECT_EQ(report.funcs.total, 5);
  EXPECT_EQ(report.funcs.absent, 2);      // __blk_account_io_{start,done} pre-5.16
  EXPECT_EQ(report.funcs.changed, 2);     // blk_account_io_{start,done} at 5.8
  EXPECT_EQ(report.funcs.full_inline, 3); // both wrappers + the worker start
  EXPECT_EQ(report.funcs.selective, 2);   // the accounting pair at 5.8-5.15
  EXPECT_EQ(report.tracepoints.total, 2);
  EXPECT_EQ(report.tracepoints.absent, 2);
  EXPECT_GE(report.fields.absent, 2);  // rq_disk (new kernels) + disk (old)

  std::string matrix = report.RenderMatrix();
  EXPECT_NE(matrix.find("blk_account_io_start"), std::string::npos);
  EXPECT_NE(matrix.find("legend"), std::string::npos);
  EXPECT_EQ(report.WorstImplication(), Implication::kIncompleteResult);
}

TEST_F(CorpusFixture, ExplainReportNarratesDeclChanges) {
  BpfObjectBuilder builder("probe");
  builder.AttachKprobe("blk_account_io_start");
  ASSERT_TRUE(builder.AccessField("request", "cmd_flags", "unsigned int").ok());
  auto deps = ExtractDependencySet(builder.Build());
  ASSERT_TRUE(deps.ok());
  ProgramReport report = AnalyzeProgram(*dataset_, *deps);
  std::string text = ExplainReport(*dataset_, report);
  EXPECT_NE(text.find("was: void blk_account_io_start(struct request *rq, bool new_io)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("now: void blk_account_io_start(struct request *rq)"),
            std::string::npos);
  EXPECT_NE(text.find("fully inlined from v5.19"), std::string::npos);
  EXPECT_NE(text.find("type changed at v5.19-x86-generic-gcc12: unsigned int -> blk_opf_t"),
            std::string::npos);
  // The clean dependency contributes nothing.
  EXPECT_EQ(text.find("blk_mq_start_request"), std::string::npos);
}

TEST_F(CorpusFixture, CleanProgramHasNoMismatch) {
  BpfObjectBuilder builder("clean");
  builder.AttachKprobe("blk_mq_start_request");
  auto deps = ExtractDependencySet(builder.Build());
  ASSERT_TRUE(deps.ok());
  // Restrict to the 17 x86 images: build a dataset without foreign arches.
  Dataset x86_only;
  for (const BuildSpec& build : X86GenericSeries()) {
    x86_only.AddImage(build.Label(), Surface(build));
  }
  ProgramReport report = AnalyzeProgram(x86_only, *deps);
  EXPECT_FALSE(report.AnyMismatch());
  EXPECT_EQ(report.WorstImplication(), Implication::kNone);
}

// MismatchSet against the std::set<MismatchKind> it replaced, on all 256
// masks: every operation callers use, and the cell rendering.
TEST(MismatchSetTest, MatchesStdSetOnEveryMask) {
  constexpr MismatchKind kKinds[] = {
      MismatchKind::kAbsent,          MismatchKind::kChanged,     MismatchKind::kFullInline,
      MismatchKind::kSelectiveInline, MismatchKind::kTransformed, MismatchKind::kDuplicated,
      MismatchKind::kCollision,       MismatchKind::kNotTraceable};
  // The rendering MismatchCellString gave std::set cells.
  auto set_cell_string = [](const std::set<MismatchKind>& cell) -> std::string {
    if (cell.empty()) {
      return ".";
    }
    if (cell.count(MismatchKind::kAbsent) != 0) {
      return "-";
    }
    std::string out;
    for (MismatchKind kind : cell) {
      out += MismatchKindCode(kind);
    }
    return out;
  };
  using Kinds = std::vector<MismatchKind>;
  std::vector<MismatchSet> masks(256);
  std::vector<std::set<MismatchKind>> references(256);
  for (unsigned mask = 0; mask < 256; ++mask) {
    MismatchSet& cell = masks[mask];
    std::set<MismatchKind>& reference = references[mask];
    // Kinds go in from the highest, and twice, so order and repeats are
    // the set's business.
    for (int round = 0; round < 2; ++round) {
      for (unsigned k = 8; k-- > 0;) {
        if ((mask & (1u << k)) != 0) {
          cell.insert(kKinds[k]);
          reference.insert(kKinds[k]);
        }
      }
    }
    EXPECT_EQ(cell.size(), reference.size()) << mask;
    EXPECT_EQ(cell.empty(), reference.empty()) << mask;
    EXPECT_EQ(Kinds(cell.begin(), cell.end()), Kinds(reference.begin(), reference.end())) << mask;
    EXPECT_EQ(MismatchCellString(cell), set_cell_string(reference)) << mask;
    for (MismatchKind kind : kKinds) {
      EXPECT_EQ(cell.count(kind), reference.count(kind)) << mask;
      MismatchSet erased = cell;
      std::set<MismatchKind> erased_reference = reference;
      EXPECT_EQ(erased.erase(kind), erased_reference.erase(kind)) << mask;
      EXPECT_EQ(Kinds(erased.begin(), erased.end()),
                Kinds(erased_reference.begin(), erased_reference.end()))
          << mask;
    }
  }
  size_t disagreements = 0;
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      disagreements += (masks[a] == masks[b]) != (references[a] == references[b]) ? 1 : 0;
    }
  }
  EXPECT_EQ(disagreements, 0u);
  EXPECT_TRUE(MismatchSet().empty());
}

TEST_F(CorpusFixture, ConsequenceAndImplicationMapping) {
  EXPECT_EQ(ConsequenceOf(DepKind::kFunc, MismatchKind::kAbsent),
            Consequence::kAttachmentError);
  EXPECT_EQ(ConsequenceOf(DepKind::kFunc, MismatchKind::kChanged), Consequence::kStrayRead);
  EXPECT_EQ(ConsequenceOf(DepKind::kFunc, MismatchKind::kSelectiveInline),
            Consequence::kMissingInvocation);
  EXPECT_EQ(ConsequenceOf(DepKind::kField, MismatchKind::kAbsent),
            Consequence::kCompilationError);
  EXPECT_EQ(ConsequenceOf(DepKind::kField, MismatchKind::kChanged), Consequence::kStrayRead);
  EXPECT_EQ(ConsequenceOf(DepKind::kTracepoint, MismatchKind::kAbsent),
            Consequence::kAttachmentError);
  EXPECT_EQ(ImplicationOf(Consequence::kAttachmentError), Implication::kExplicitError);
  EXPECT_EQ(ImplicationOf(Consequence::kStrayRead), Implication::kIncorrectResult);
  EXPECT_EQ(ImplicationOf(Consequence::kMissingInvocation), Implication::kIncompleteResult);
}

}  // namespace
}  // namespace depsurf
