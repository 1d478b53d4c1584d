#include <gtest/gtest.h>

#include <set>

#include "src/btf/btf_codec.h"
#include "src/dwarf/function_view.h"
#include "src/elf/elf_reader.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/evolution.h"
#include "src/kernelgen/image_builder.h"
#include "src/kernelgen/name_corpus.h"
#include "src/kernelgen/scripted.h"
#include "src/kernelgen/syscalls.h"

namespace depsurf {
namespace {

constexpr uint64_t kSeed = 2025;
constexpr double kTestScale = 0.02;

TEST(NameCorpusTest, UniqueAndStable) {
  NameCorpus corpus(1);
  std::set<std::string> names;
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(names.insert(corpus.Name(NameKind::kFunc, i)).second) << i;
  }
  EXPECT_EQ(corpus.Name(NameKind::kFunc, 7), NameCorpus(1).Name(NameKind::kFunc, 7));
  EXPECT_NE(corpus.Name(NameKind::kFunc, 7), NameCorpus(2).Name(NameKind::kFunc, 7));
  EXPECT_FALSE(corpus.SourceFile(3).empty());
  EXPECT_NE(corpus.SourceFile(3).find(".c"), std::string::npos);
  EXPECT_NE(corpus.HeaderFile(3).find("include/"), std::string::npos);
}

TEST(RatesTest, VersionTable) {
  EXPECT_EQ(VersionIndex(KernelVersion(4, 4)), 0);
  EXPECT_EQ(VersionIndex(KernelVersion(6, 8)), 16);
  EXPECT_EQ(VersionIndex(KernelVersion(5, 16)), -1);
  EXPECT_TRUE(IsLts(KernelVersion(5, 4)));
  EXPECT_FALSE(IsLts(KernelVersion(5, 8)));
  EXPECT_EQ(GccMajorFor(KernelVersion(4, 4)), 5);
  EXPECT_EQ(GccMajorFor(KernelVersion(6, 8)), 13);
}

TEST(EvolutionTest, PopulationsGrowLikeThePaper) {
  EvolutionModel model(kSeed, kTestScale);
  uint32_t f44 = model.FuncCount(0);
  uint32_t f68 = model.FuncCount(16);
  // Source-level populations: 54.5k -> ~94k at scale 1.
  EXPECT_NEAR(f44, 54500 * kTestScale, 54500 * kTestScale * 0.1);
  double growth = static_cast<double>(f68) / f44;
  EXPECT_GT(growth, 1.5);
  EXPECT_LT(growth, 2.1);

  uint32_t s44 = model.StructCount(0);
  uint32_t s68 = model.StructCount(16);
  EXPECT_NEAR(s44, 6200 * kTestScale, 6200 * kTestScale * 0.2);
  EXPECT_GT(s68, s44);

  uint32_t t44 = model.TracepointCount(0);
  uint32_t t68 = model.TracepointCount(16);
  EXPECT_GT(t44, 0u);
  EXPECT_GT(t68, t44);
}

TEST(EvolutionTest, DeterministicAcrossInstances) {
  EvolutionModel a(kSeed, kTestScale);
  EvolutionModel b(kSeed, kTestScale);
  for (int vi : {0, 8, 16}) {
    EXPECT_EQ(a.FuncCount(vi), b.FuncCount(vi));
    EXPECT_EQ(a.FuncAt(3, vi), b.FuncAt(3, vi));
    EXPECT_EQ(a.StructAt(3, vi), b.StructAt(3, vi));
  }
}

TEST(EvolutionTest, SpecsEvolveButIdentityPersists) {
  EvolutionModel model(kSeed, 0.05);
  int changed = 0;
  int checked = 0;
  for (uint64_t ordinal = 0; ordinal < 400; ++ordinal) {
    if (!model.FuncAlive(ordinal, 0) || !model.FuncAlive(ordinal, 16)) {
      continue;
    }
    FuncSpec early = model.FuncAt(ordinal, 0);
    FuncSpec late = model.FuncAt(ordinal, 16);
    EXPECT_EQ(early.name, late.name);  // identity: name never changes
    ++checked;
    if (early.params != late.params || early.return_type != late.return_type) {
      ++changed;
    }
  }
  ASSERT_GT(checked, 100);
  // Over 16 transitions at ~1.3%/transition, roughly 15-25% changed.
  EXPECT_GT(changed, checked / 12);
  EXPECT_LT(changed, checked / 2);
}

TEST(ScriptedTest, BiotopLineage) {
  ScriptedCatalog cat = BuildCuratedCatalog();
  const ScriptedFunc* f = cat.FindFunc("blk_account_io_start", KernelVersion(4, 4));
  ASSERT_NE(f, nullptr);
  const FuncSpec* v44 = f->SpecAt(KernelVersion(4, 4));
  ASSERT_NE(v44, nullptr);
  EXPECT_EQ(v44->params.size(), 2u);
  const FuncSpec* v58 = f->SpecAt(KernelVersion(5, 8));
  ASSERT_NE(v58, nullptr);
  EXPECT_EQ(v58->params.size(), 1u);  // b5af37a removed a parameter
  EXPECT_EQ(v58->inline_hint, InlineHint::kForceSelective);
  const FuncSpec* v519 = f->SpecAt(KernelVersion(5, 19));
  ASSERT_NE(v519, nullptr);
  EXPECT_EQ(v519->inline_hint, InlineHint::kForceFull);  // be6bfe3
  // __blk_account_io_start only exists after the refactor.
  EXPECT_EQ(cat.FindFunc("__blk_account_io_start", KernelVersion(5, 4)), nullptr);
  EXPECT_NE(cat.FindFunc("__blk_account_io_start", KernelVersion(5, 19)), nullptr);
}

TEST(ScriptedTest, ReadaheadLineage) {
  ScriptedCatalog cat = BuildCuratedCatalog();
  EXPECT_NE(cat.FindFunc("__do_page_cache_readahead", KernelVersion(4, 4)), nullptr);
  EXPECT_EQ(cat.FindFunc("__do_page_cache_readahead", KernelVersion(5, 11)), nullptr);
  EXPECT_NE(cat.FindFunc("do_page_cache_ra", KernelVersion(5, 11)), nullptr);
  const ScriptedFunc* ra = cat.FindFunc("__do_page_cache_readahead", KernelVersion(4, 4));
  EXPECT_EQ(ra->SpecAt(KernelVersion(4, 4))->return_type, "unsigned long");
  EXPECT_EQ(ra->SpecAt(KernelVersion(4, 18))->return_type, "unsigned int");  // c534aa3
  const ScriptedFunc* alloc = cat.FindFunc("__page_cache_alloc", KernelVersion(5, 4));
  ASSERT_NE(alloc, nullptr);
  EXPECT_TRUE(alloc->arch_behavior.count(Arch::kArm32));
  EXPECT_TRUE(alloc->arch_behavior.at(Arch::kRiscv).duplicate_per_tu);
}

TEST(ScriptedTest, ProfileFuncShapes) {
  ScriptedCatalog cat;
  cat.AddProfileFunc("dep_all", MismatchProfile{true, true, true, true, true, true});
  const ScriptedFunc& f = cat.funcs.back();
  EXPECT_EQ(f.SpecAt(KernelVersion(4, 4)), nullptr);  // absent before 5.8
  const FuncSpec* at58 = f.SpecAt(KernelVersion(5, 8));
  ASSERT_NE(at58, nullptr);
  EXPECT_EQ(at58->params.size(), 2u);
  const FuncSpec* at515 = f.SpecAt(KernelVersion(5, 15));
  ASSERT_NE(at515, nullptr);
  EXPECT_EQ(at515->params.size(), 3u);  // changed at 5.15 when absent-profile
  EXPECT_EQ(at515->inline_hint, InlineHint::kForceFull);
  EXPECT_TRUE(at515->defined_in_header);
  EXPECT_TRUE(f.forced_transform.has_value());
}

TEST(ScriptedTest, ProfileStructAndTracepoint) {
  ScriptedCatalog cat;
  cat.AddProfileStruct("dep_struct", 3, 2, 1, false);
  const ScriptedStruct& st = cat.structs.back();
  const StructSpec* early = st.SpecAt(KernelVersion(4, 4));
  ASSERT_NE(early, nullptr);
  EXPECT_EQ(early->fields.size(), 4u);  // 3 stable + 1 pre-change
  const StructSpec* late = st.SpecAt(KernelVersion(5, 15));
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->fields.size(), 6u);  // + 2 added
  cat.AddProfileTracepoint("dep_tp", true, true);
  EXPECT_EQ(cat.tracepoints.back().SpecAt(KernelVersion(4, 4)), nullptr);
  EXPECT_NE(cat.tracepoints.back().SpecAt(KernelVersion(5, 15)), nullptr);
}

TEST(SyscallsTest, TableShapes) {
  auto x86 = SyscallTableFor(KernelVersion(5, 4), Arch::kX86);
  auto arm64 = SyscallTableFor(KernelVersion(5, 4), Arch::kArm64);
  auto arm32 = SyscallTableFor(KernelVersion(5, 4), Arch::kArm32);
  EXPECT_GT(x86.size(), 290u);
  EXPECT_LT(x86.size(), 360u);
  EXPECT_LT(arm64.size(), x86.size());  // legacy calls dropped
  EXPECT_GT(arm32.size(), x86.size());  // OABI extras
  auto has = [](const std::vector<SyscallSpec>& table, const char* name) {
    for (const SyscallSpec& s : table) {
      if (s.name == name) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has(x86, "open"));
  EXPECT_FALSE(has(arm64, "open"));
  EXPECT_TRUE(has(arm64, "openat"));
  EXPECT_FALSE(has(x86, "openat2"));  // added in 5.8
  EXPECT_TRUE(has(SyscallTableFor(KernelVersion(5, 8), Arch::kX86), "openat2"));
  EXPECT_GT(AllSyscallNames().size(), 300u);
}

TEST(ConfiguratorTest, RejectsNonStudyVersion) {
  KernelModel model(kSeed, kTestScale, BuildCuratedCatalog());
  BuildSpec bad = MakeBuild(KernelVersion(5, 4));
  bad.version = KernelVersion(5, 16);
  EXPECT_FALSE(model.Configure(bad).ok());
}

TEST(ConfiguratorTest, ArchChangesPresence) {
  KernelModel model(kSeed, 0.05, BuildCuratedCatalog());
  auto x86 = model.Configure(MakeBuild(KernelVersion(5, 4)));
  ASSERT_TRUE(x86.ok());
  auto riscv = model.Configure(MakeBuild(KernelVersion(5, 4), Arch::kRiscv));
  ASSERT_TRUE(riscv.ok());
  // riscv removes far more than it adds (Table 5).
  EXPECT_LT(riscv->funcs.size(), x86->funcs.size());
  EXPECT_LT(riscv->structs.size(), x86->structs.size());
  EXPECT_LT(riscv->syscalls.size(), x86->syscalls.size());
  EXPECT_EQ(riscv->pt_regs.fields[0].name, "epc");
  EXPECT_EQ(x86->pt_regs.fields.back().name, "ss");
}

TEST(ConfiguratorTest, LowLatencyNearlyIdentical) {
  KernelModel model(kSeed, 0.05, BuildCuratedCatalog());
  auto generic = model.Configure(MakeBuild(KernelVersion(5, 4)));
  auto lowlat = model.Configure(MakeBuild(KernelVersion(5, 4), Arch::kX86, Flavor::kLowLatency));
  ASSERT_TRUE(generic.ok());
  ASSERT_TRUE(lowlat.ok());
  double ratio = static_cast<double>(lowlat->funcs.size()) / generic->funcs.size();
  EXPECT_GT(ratio, 0.99);
  EXPECT_LT(ratio, 1.01);
  auto azure = model.Configure(MakeBuild(KernelVersion(5, 4), Arch::kX86, Flavor::kAzure));
  ASSERT_TRUE(azure.ok());
  EXPECT_LT(azure->funcs.size(), generic->funcs.size());
}

TEST(CompilerTest, HintsHonored) {
  ConfiguredKernel kernel;
  kernel.build = MakeBuild(KernelVersion(5, 4));
  FuncSpec full = {"f_full", "void", {}, Linkage::kStatic, "a/b.c", 1, false,
                   InlineHint::kForceFull};
  FuncSpec sel = {"f_sel", "void", {}, Linkage::kGlobal, "a/b.c", 2, false,
                  InlineHint::kForceSelective};
  FuncSpec plain = {"f_plain", "void", {}, Linkage::kGlobal, "a/b.c", 3, false,
                    InlineHint::kNever};
  kernel.funcs = {full, sel, plain};
  CompiledImage image = CompileKernel(kSeed, std::move(kernel));
  ASSERT_EQ(image.funcs.size(), 3u);
  const CompiledInstance& inst_full = image.funcs[0].instances[0];
  EXPECT_FALSE(inst_full.HasCode());
  EXPECT_TRUE(inst_full.symbol_name.empty());
  EXPECT_FALSE(inst_full.inline_callers.empty());
  const CompiledInstance& inst_sel = image.funcs[1].instances[0];
  EXPECT_TRUE(inst_sel.HasCode());
  EXPECT_FALSE(inst_sel.inline_callers.empty());
  const CompiledInstance& inst_plain = image.funcs[2].instances[0];
  EXPECT_TRUE(inst_plain.HasCode());
  EXPECT_EQ(inst_plain.symbol_name, "f_plain");
  EXPECT_TRUE(inst_plain.inline_callers.empty());
}

TEST(CompilerTest, HeaderStaticsDuplicated) {
  ConfiguredKernel kernel;
  kernel.build = MakeBuild(KernelVersion(5, 4));
  FuncSpec dup;
  dup.name = "get_order";
  dup.linkage = Linkage::kStatic;
  dup.defined_in_header = true;
  dup.decl_file = "include/asm-generic/getorder.h";
  dup.inline_hint = InlineHint::kNever;
  kernel.funcs = {dup};
  CompiledImage image = CompileKernel(kSeed, std::move(kernel));
  EXPECT_GE(image.funcs[0].instances.size(), 2u);
  std::set<uint64_t> addrs;
  for (const CompiledInstance& inst : image.funcs[0].instances) {
    EXPECT_EQ(inst.symbol_name, "get_order");
    EXPECT_TRUE(inst.HasCode());
    addrs.insert(inst.address);
  }
  EXPECT_EQ(addrs.size(), image.funcs[0].instances.size());
}

TEST(CompilerTest, ForcedTransformRespectsGcc) {
  ConfiguredKernel kernel;
  kernel.build = MakeBuild(KernelVersion(4, 4));  // gcc 5
  FuncSpec f;
  f.name = "victim";
  f.linkage = Linkage::kGlobal;
  f.decl_file = "a/b.c";
  f.inline_hint = InlineHint::kNever;
  f.forced_transform = "isra";
  f.forced_transform_min_gcc = 9;
  kernel.funcs = {f};
  CompiledImage old_image = CompileKernel(kSeed, std::move(kernel));
  EXPECT_EQ(old_image.funcs[0].instances[0].symbol_name, "victim");

  ConfiguredKernel kernel9;
  kernel9.build = MakeBuild(KernelVersion(5, 4));  // gcc 9
  kernel9.funcs = {f};
  CompiledImage new_image = CompileKernel(kSeed, std::move(kernel9));
  EXPECT_EQ(new_image.funcs[0].instances[0].symbol_name, "victim.isra.0");
}

TEST(CompilerTest, AggregateInlineRates) {
  KernelModel model(kSeed, 0.05, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4)));
  ASSERT_TRUE(kernel.ok());
  CompiledImage image = CompileKernel(kSeed, kernel.TakeValue());
  int full = 0;
  int selective = 0;
  int total = 0;
  for (const CompiledFunction& func : image.funcs) {
    ++total;
    bool has_code = false;
    bool has_inline = false;
    for (const CompiledInstance& inst : func.instances) {
      has_code |= inst.HasCode();
      has_inline |= !inst.inline_callers.empty();
    }
    if (!has_code) {
      ++full;
    } else if (has_inline) {
      ++selective;
    }
  }
  double full_rate = static_cast<double>(full) / total;
  double sel_rate = static_cast<double>(selective) / total;
  EXPECT_GT(full_rate, 0.25);  // paper: 32-36%
  EXPECT_LT(full_rate, 0.45);
  EXPECT_GT(sel_rate, 0.05);  // paper: 9-11%
  EXPECT_LT(sel_rate, 0.18);
}

TEST(ImageBuilderTest, EmitsParsableImage) {
  KernelModel model(kSeed, kTestScale, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4)));
  ASSERT_TRUE(kernel.ok());
  CompiledImage compiled = CompileKernel(kSeed, kernel.TakeValue());
  auto bytes = BuildKernelImage(compiled);
  ASSERT_TRUE(bytes.ok()) << bytes.error().ToString();

  auto reader = ElfReader::Parse(bytes.TakeValue());
  ASSERT_TRUE(reader.ok()) << reader.error().ToString();
  EXPECT_NE(reader->SectionByName(kSectionBtf), nullptr);
  EXPECT_NE(reader->SectionByName(kSectionDwarfInfo), nullptr);
  EXPECT_NE(reader->SectionByName(kSectionFtraceEvents), nullptr);
  ASSERT_TRUE(reader->FindSymbol(kSymSyscallTable).has_value());
  ASSERT_TRUE(reader->FindSymbol(kSymStartFtrace).has_value());

  // BTF decodes and contains the scripted vfs_fsync declaration.
  auto btf_data = reader->SectionDataByName(kSectionBtf);
  ASSERT_TRUE(btf_data.ok());
  auto graph = DecodeBtf(*btf_data);
  ASSERT_TRUE(graph.ok()) << graph.error().ToString();
  EXPECT_TRUE(graph->FindFunc("vfs_fsync").has_value());
  EXPECT_TRUE(graph->FindStruct("task_struct").has_value());
  EXPECT_TRUE(graph->FindStruct("pt_regs").has_value());

  // DWARF decodes; vfs_fsync is selectively inlined with callers on record.
  auto abbrev = reader->SectionDataByName(kSectionDwarfAbbrev);
  auto info = reader->SectionDataByName(kSectionDwarfInfo);
  ASSERT_TRUE(abbrev.ok());
  ASSERT_TRUE(info.ok());
  auto instances = ReadFunctionInstances(*abbrev, *info);
  ASSERT_TRUE(instances.ok()) << instances.error().ToString();
  ASSERT_TRUE(instances->count("vfs_fsync"));
  const FunctionInstance& fsync = instances->at("vfs_fsync")[0];
  EXPECT_TRUE(fsync.HasCode());
  EXPECT_FALSE(fsync.caller_inline.empty());
  EXPECT_FALSE(fsync.caller_func.empty());

  // The symbol table has vfs_fsync but not the fully-inlined
  // blk_account_io_start wrapper's worker start (at 5.4 it exists).
  EXPECT_TRUE(reader->FindSymbol("vfs_fsync").has_value());

  // Tracepoint records dereference: the __start/__stop window is non-empty
  // and pointer-aligned.
  auto start = reader->FindSymbol(kSymStartFtrace);
  auto stop = reader->FindSymbol(kSymStopFtrace);
  EXPECT_GT(stop->value, start->value);
  EXPECT_EQ((stop->value - start->value) % reader->pointer_size(), 0u);
}

TEST(ImageBuilderTest, Arm32ImageIsElf32) {
  KernelModel model(kSeed, kTestScale, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4), Arch::kArm32));
  ASSERT_TRUE(kernel.ok());
  auto bytes = BuildKernelImage(CompileKernel(kSeed, kernel.TakeValue()));
  ASSERT_TRUE(bytes.ok()) << bytes.error().ToString();
  auto reader = ElfReader::Parse(bytes.TakeValue());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ident().klass, ElfClass::k32);
  EXPECT_EQ(reader->pointer_size(), 4);
}

TEST(ImageBuilderTest, PpcImageIsBigEndian) {
  KernelModel model(kSeed, kTestScale, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4), Arch::kPpc));
  ASSERT_TRUE(kernel.ok());
  auto bytes = BuildKernelImage(CompileKernel(kSeed, kernel.TakeValue()));
  ASSERT_TRUE(bytes.ok());
  auto reader = ElfReader::Parse(bytes.TakeValue());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->endian(), Endian::kBig);
  auto btf_data = reader->SectionDataByName(kSectionBtf);
  ASSERT_TRUE(btf_data.ok());
  EXPECT_TRUE(DecodeBtf(*btf_data).ok());  // BTF follows image endianness
}

TEST(CorpusTest, Shapes) {
  EXPECT_EQ(X86GenericSeries().size(), 17u);
  EXPECT_EQ(DependencyAnalysisCorpus().size(), 21u);
  EXPECT_EQ(StudyCorpus().size(), 25u);
  EXPECT_EQ(StudyCorpus()[0].gcc_major, 5);
}

}  // namespace
}  // namespace depsurf
