// End-to-end tests of surface extraction: generate an image with known
// content, extract through the full binary path, verify classifications.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/btf/btf_codec.h"
#include "src/btf/btf_print.h"
#include "src/core/dependency_surface.h"
#include "src/elf/elf_reader.h"
#include "src/elf/elf_writer.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/kernelgen/rates.h"
#include "src/kernelgen/scripted.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace {

constexpr uint64_t kSeed = 2025;
constexpr double kScale = 0.02;

DependencySurface ExtractFor(KernelVersion version, Arch arch = Arch::kX86,
                             Flavor flavor = Flavor::kGeneric) {
  static std::map<uint64_t, DependencySurface> cache;
  BuildSpec build = MakeBuild(version, arch, flavor);
  auto it = cache.find(build.Key());
  if (it != cache.end()) {
    return it->second;
  }
  KernelModel model(kSeed, kScale, BuildCuratedCatalog());
  auto kernel = model.Configure(build);
  EXPECT_TRUE(kernel.ok());
  auto bytes = BuildKernelImage(CompileKernel(kSeed, kernel.TakeValue()));
  EXPECT_TRUE(bytes.ok());
  auto surface = DependencySurface::Extract(bytes.TakeValue());
  EXPECT_TRUE(surface.ok()) << surface.error().ToString();
  cache.emplace(build.Key(), surface.value());
  return surface.TakeValue();
}

TEST(SurfaceExtractTest, MetaFromBanner) {
  DependencySurface surface = ExtractFor(KernelVersion(5, 4));
  EXPECT_EQ(surface.meta().version_major, 5);
  EXPECT_EQ(surface.meta().version_minor, 4);
  EXPECT_EQ(surface.meta().gcc_major, 9);
  EXPECT_EQ(surface.meta().flavor, "generic");
  EXPECT_EQ(surface.meta().arch, "x86");
  EXPECT_EQ(surface.meta().pointer_size, 8);
}

TEST(SurfaceExtractTest, ScriptedFunctionStatuses) {
  DependencySurface v54 = ExtractFor(KernelVersion(5, 4));
  // vfs_fsync: selectively inlined global with both caller kinds.
  const FunctionEntry* fsync = v54.FindFunction("vfs_fsync");
  ASSERT_NE(fsync, nullptr);
  EXPECT_TRUE(fsync->status.has_exact_symbol);
  EXPECT_TRUE(fsync->status.selectively_inlined);
  EXPECT_FALSE(fsync->status.fully_inlined);
  EXPECT_TRUE(fsync->status.external);
  EXPECT_EQ(fsync->status.CollisionClass(), "Unique Global");
  ASSERT_NE(fsync->btf_id, 0u);
  EXPECT_EQ(FuncDeclString(v54.btf(), fsync->btf_id),
            "int vfs_fsync(struct file *file, int datasync)");

  // blk_account_io_start at v5.4: two params, attachable.
  const FunctionEntry* acct = v54.FindFunction("blk_account_io_start");
  ASSERT_NE(acct, nullptr);
  EXPECT_TRUE(acct->status.has_exact_symbol);

  // get_order: duplicated header static.
  const FunctionEntry* order = v54.FindFunction("get_order");
  ASSERT_NE(order, nullptr);
  EXPECT_TRUE(order->status.duplicated);
  EXPECT_GE(order->instances.size(), 2u);
  EXPECT_EQ(order->status.CollisionClass(), "Static Duplication");

  // destroy_inodecache: name collision across filesystems.
  const FunctionEntry* cache_fn = v54.FindFunction("destroy_inodecache");
  ASSERT_NE(cache_fn, nullptr);
  EXPECT_TRUE(cache_fn->status.collided);
  EXPECT_EQ(cache_fn->status.CollisionClass(), "Static-Static Collision");
}

TEST(SurfaceExtractTest, FullInlineAppearsInNewKernels) {
  DependencySurface v62 = ExtractFor(KernelVersion(6, 2));
  const FunctionEntry* acct = v62.FindFunction("blk_account_io_start");
  ASSERT_NE(acct, nullptr);
  EXPECT_TRUE(acct->status.fully_inlined);
  EXPECT_FALSE(acct->status.has_exact_symbol);
  EXPECT_TRUE(acct->symbols.empty());
  // The worker is fully inlined too (the failed first fix).
  const FunctionEntry* worker = v62.FindFunction("__blk_account_io_start");
  ASSERT_NE(worker, nullptr);
  EXPECT_TRUE(worker->status.fully_inlined);
  // And __blk_account_io_done remains attachable out of line.
  const FunctionEntry* done = v62.FindFunction("__blk_account_io_done");
  ASSERT_NE(done, nullptr);
  EXPECT_TRUE(done->status.has_exact_symbol);
  EXPECT_FALSE(done->status.fully_inlined);
}

TEST(SurfaceExtractTest, StatusJsonShape) {
  DependencySurface v54 = ExtractFor(KernelVersion(5, 4));
  const FunctionEntry* fsync = v54.FindFunction("vfs_fsync");
  ASSERT_NE(fsync, nullptr);
  std::string json = fsync->StatusJson();
  EXPECT_NE(json.find("\"collision_type\": \"Unique Global\""), std::string::npos);
  EXPECT_NE(json.find("\"inline_type\": \"Partially inlined\""), std::string::npos);
  EXPECT_NE(json.find("caller_inline"), std::string::npos);
  EXPECT_NE(json.find("fs/aio.c:aio_fsync_work"), std::string::npos);
  EXPECT_NE(json.find("\"bind\": \"STB_GLOBAL\""), std::string::npos);
}

TEST(SurfaceExtractTest, StructsExtracted) {
  DependencySurface v54 = ExtractFor(KernelVersion(5, 4));
  auto request = v54.FindStruct("request");
  ASSERT_TRUE(request.has_value());
  const std::optional<BtfTypeView> st = v54.btf().Get(*request);
  bool has_rq_disk = false;
  for (const BtfMemberView m : st->members) {
    has_rq_disk |= m.name == "rq_disk";
  }
  EXPECT_TRUE(has_rq_disk);
  EXPECT_TRUE(v54.FindStruct("task_struct").has_value());
  EXPECT_TRUE(v54.FindStruct("pt_regs").has_value());
  // Tracepoint machinery structs are not part of the struct surface.
  for (const auto& [name, id] : v54.structs()) {
    (void)id;
    EXPECT_EQ(name.find("trace_event_raw_"), std::string::npos);
  }
}

TEST(SurfaceExtractTest, TracepointsViaDataSections) {
  DependencySurface v54 = ExtractFor(KernelVersion(5, 4));
  const TracepointEntry* rq = v54.FindTracepoint("block_rq_issue");
  ASSERT_NE(rq, nullptr);
  EXPECT_EQ(rq->class_name, "block_rq");
  EXPECT_EQ(rq->func_name, "trace_event_raw_event_block_rq");
  EXPECT_EQ(rq->struct_name, "trace_event_raw_block_rq");
  EXPECT_NE(rq->struct_btf_id, 0u);
  EXPECT_NE(rq->func_btf_id, 0u);
  EXPECT_FALSE(rq->fmt.empty());
  // block_io_start only exists from v6.5.
  EXPECT_EQ(v54.FindTracepoint("block_io_start"), nullptr);
  DependencySurface v65 = ExtractFor(KernelVersion(6, 5));
  EXPECT_NE(v65.FindTracepoint("block_io_start"), nullptr);
}

// The id index built during extraction answers exactly what the linear
// TypeGraph lookups answer (0 when absent).
void ExpectTracepointIdsMatchLinearLookups(const DependencySurface& surface) {
  for (const auto& [event, tp] : surface.tracepoints()) {
    auto struct_id = surface.btf().FindByKindAndName(BtfKind::kStruct, tp.struct_name);
    EXPECT_EQ(tp.struct_btf_id, struct_id.value_or(0)) << event;
    auto func_id = surface.btf().FindFunc(tp.func_name);
    EXPECT_EQ(tp.func_btf_id, func_id.value_or(0)) << event;
  }
}

TEST(SurfaceExtractTest, TracepointIdsMatchLinearLookupsOnLtsImages) {
  for (KernelVersion version : kLtsVersions) {
    DependencySurface surface = ExtractFor(version);
    ASSERT_GT(surface.tracepoints().size(), 0u) << version.ToString();
    ExpectTracepointIdsMatchLinearLookups(surface);
  }
}

TEST(SurfaceExtractTest, DuplicateTracepointStructResolvesToFirstId) {
  // Append a second STRUCT named like an existing event struct to the
  // image's .BTF; the tracepoint keeps the first one.
  KernelModel model(kSeed, kScale, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4)));
  ASSERT_TRUE(kernel.ok());
  auto bytes = BuildKernelImage(CompileKernel(kSeed, kernel.TakeValue()));
  ASSERT_TRUE(bytes.ok());
  auto full = ElfReader::Parse(*bytes);
  ASSERT_TRUE(full.ok());
  auto btf_data = full->SectionDataByName(".BTF");
  ASSERT_TRUE(btf_data.ok());
  auto graph = DecodeBtf(*btf_data);
  ASSERT_TRUE(graph.ok()) << graph.error().ToString();
  auto first = graph->FindByKindAndName(BtfKind::kStruct, "trace_event_raw_block_rq");
  ASSERT_TRUE(first.has_value());
  BtfTypeId second = graph->Struct("trace_event_raw_block_rq", 8,
                                   {{"decoy", graph->Int("u64", 8), 0}});
  ASSERT_GT(second, *first);

  ElfWriter rewritten(full->ident());
  for (const ElfSectionView& section : full->sections()) {
    if (section.type == SectionType::kNull || section.name == ".shstrtab" ||
        section.name == ".symtab" || section.name == ".strtab") {
      continue;
    }
    std::vector<uint8_t> body;
    if (section.name == ".BTF") {
      body = EncodeBtf(*graph, full->endian());
    } else {
      auto data = full->SectionData(section);
      ASSERT_TRUE(data.ok());
      auto raw = data->ReadBytes(data->size());
      ASSERT_TRUE(raw.ok());
      body = raw.TakeValue();
    }
    rewritten.AddSection(section.name, section.type, std::move(body), section.addr,
                         section.flags, section.entsize);
  }
  for (const ElfSymbol& sym : full->symbols()) {
    rewritten.AddSymbol(sym);
  }
  auto rewritten_bytes = rewritten.Finish();
  ASSERT_TRUE(rewritten_bytes.ok());

  auto surface = DependencySurface::Extract(rewritten_bytes.TakeValue());
  ASSERT_TRUE(surface.ok()) << surface.error().ToString();
  EXPECT_FALSE(surface->health().AnyDegraded()) << surface->health().Summary();
  const TracepointEntry* rq = surface->FindTracepoint("block_rq_issue");
  ASSERT_NE(rq, nullptr);
  EXPECT_EQ(rq->struct_btf_id, *first);
  ExpectTracepointIdsMatchLinearLookups(*surface);
}

TEST(SurfaceExtractTest, SyscallsViaSysCallTable) {
  DependencySurface v54 = ExtractFor(KernelVersion(5, 4));
  EXPECT_TRUE(v54.HasSyscall("openat"));
  EXPECT_TRUE(v54.HasSyscall("fsync"));
  EXPECT_TRUE(v54.HasSyscall("clone3"));
  EXPECT_FALSE(v54.HasSyscall("openat2"));  // 5.8 addition
  EXPECT_GT(v54.syscalls().size(), 290u);
  // Numbers are recovered from table slots.
  EXPECT_EQ(v54.syscalls().at("read").nr, 0);
  EXPECT_EQ(v54.syscalls().at("write").nr, 1);
}

TEST(SurfaceExtractTest, ArchSurfacesDiffer) {
  DependencySurface arm64 = ExtractFor(KernelVersion(5, 4), Arch::kArm64);
  EXPECT_EQ(arm64.meta().arch, "arm64");
  EXPECT_FALSE(arm64.HasSyscall("open"));  // legacy-only
  EXPECT_TRUE(arm64.HasSyscall("openat"));
  auto pt_regs = arm64.FindStruct("pt_regs");
  ASSERT_TRUE(pt_regs.has_value());
  EXPECT_EQ(arm64.btf().Get(*pt_regs)->members[0].name, "regs");

  // arm32: ELF32 little endian, and __page_cache_alloc is duplicated +
  // fully inlined (the !CONFIG_NUMA case from Figure 4).
  DependencySurface arm32 = ExtractFor(KernelVersion(5, 4), Arch::kArm32);
  EXPECT_EQ(arm32.meta().pointer_size, 4);
  const FunctionEntry* alloc = arm32.FindFunction("__page_cache_alloc");
  ASSERT_NE(alloc, nullptr);
  EXPECT_TRUE(alloc->status.fully_inlined);
  EXPECT_GE(alloc->instances.size(), 2u);

  // ppc: big-endian data sections still parse.
  DependencySurface ppc = ExtractFor(KernelVersion(5, 4), Arch::kPpc);
  EXPECT_EQ(ppc.meta().endian, Endian::kBig);
  EXPECT_GT(ppc.tracepoints().size(), 0u);
  EXPECT_GT(ppc.syscalls().size(), 200u);
}

TEST(SurfaceExtractTest, SpecialFunctionsLsmAndKfuncs) {
  DependencySurface v44 = ExtractFor(KernelVersion(4, 4));
  DependencySurface v68 = ExtractFor(KernelVersion(6, 8));
  auto count_lsm = [](const DependencySurface& s) {
    size_t n = 0;
    for (const FunctionEntry& entry : s.functions()) {
      n += DependencySurface::IsLsmHook(entry.name) ? 1 : 0;
    }
    return n;
  };
  // ~140 hooks at v4.4, growing ~9% per LTS (plus scripted security_*).
  size_t lsm44 = count_lsm(v44);
  size_t lsm68 = count_lsm(v68);
  EXPECT_GT(lsm44, 120u);
  EXPECT_GT(lsm68, lsm44);
  // kfuncs only exist from v5.8 and are registered via .BTF_ids.
  EXPECT_TRUE(v44.kfuncs().empty());
  EXPECT_GT(v68.kfuncs().size(), 50u);
  for (const std::string& name : v68.kfuncs()) {
    EXPECT_TRUE(name.rfind("bpf_", 0) == 0) << name;
  }
  // The scripted removed kfunc exists at 6.2 but not 6.8 (f85671c-style).
  DependencySurface v62 = ExtractFor(KernelVersion(6, 2));
  EXPECT_TRUE(v62.kfuncs().count("bpf_ct_set_timeout"));
  EXPECT_FALSE(v68.kfuncs().count("bpf_ct_set_timeout"));
}

TEST(SurfaceExtractTest, DegradesGracefullyWithoutDebugInfo) {
  // Strip the DWARF sections out of a generated image by rebuilding the
  // ELF without them, like a distro kernel without dbgsym.
  KernelModel model(kSeed, kScale, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4)));
  ASSERT_TRUE(kernel.ok());
  auto bytes = BuildKernelImage(CompileKernel(kSeed, kernel.TakeValue()));
  ASSERT_TRUE(bytes.ok());
  auto full = ElfReader::Parse(*bytes);
  ASSERT_TRUE(full.ok());
  ElfWriter stripped(full->ident());
  for (const ElfSectionView& section : full->sections()) {
    if (section.type == SectionType::kNull || section.name == ".shstrtab" ||
        section.name == ".symtab" || section.name == ".strtab" ||
        section.name.find(".sdwarf") == 0) {
      continue;
    }
    auto data = full->SectionData(section);
    ASSERT_TRUE(data.ok());
    auto body = data->ReadBytes(data->size());
    ASSERT_TRUE(body.ok());
    stripped.AddSection(section.name, section.type, body.TakeValue(), section.addr,
                        section.flags, section.entsize);
  }
  for (const ElfSymbol& sym : full->symbols()) {
    stripped.AddSymbol(sym);
  }
  auto stripped_bytes = stripped.Finish();
  ASSERT_TRUE(stripped_bytes.ok());

  auto surface = DependencySurface::Extract(stripped_bytes.TakeValue());
  ASSERT_TRUE(surface.ok()) << surface.error().ToString();
  EXPECT_FALSE(surface->meta().has_debug_info);
  // Declarations survive via BTF; status is symbol-table-only.
  const FunctionEntry* fsync = surface->FindFunction("vfs_fsync");
  ASSERT_NE(fsync, nullptr);
  EXPECT_TRUE(fsync->status.has_exact_symbol);
  EXPECT_FALSE(fsync->status.selectively_inlined);  // undetectable without DWARF
  ASSERT_NE(fsync->btf_id, 0u);
  // Tracepoints and syscalls are unaffected (data sections + symtab).
  EXPECT_NE(surface->FindTracepoint("block_rq_issue"), nullptr);
  EXPECT_TRUE(surface->HasSyscall("openat"));
  // A fully-inlined BTF function with no symbol is still flagged.
  int inlined = 0;
  for (const FunctionEntry& entry : surface->functions()) {
    inlined += entry.status.fully_inlined ? 1 : 0;
  }
  EXPECT_GT(inlined, 0);
}

// Every view a surface hands out: each function's name, BTF id, status,
// instances with their callers, and symbols, plus a lookup of each name.
std::string RenderFunctions(const DependencySurface& surface) {
  std::string out;
  for (const FunctionEntry& entry : surface.functions()) {
    out += StrFormat("%u %d ", entry.btf_id, surface.FindFunction(entry.name) == &entry);
    out += entry.StatusJson();
    out += '\n';
  }
  return out;
}

// The entries view what Extract kept. A copy shares it and a move takes it
// over, so both read the same after the original is destroyed, on a DWARF
// surface and on a BTF-only one, whose names view the type graph.
TEST(SurfaceExtractTest, CopiesAndMovesOutliveTheOriginal) {
  KernelModel model(kSeed, kScale, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4)));
  ASSERT_TRUE(kernel.ok());
  auto dwarf_image = BuildKernelImage(CompileKernel(kSeed, kernel.TakeValue()));
  ASSERT_TRUE(dwarf_image.ok());
  TypeGraph graph;
  graph.Func("btf_only_b", graph.FuncProto(graph.Int("int", 4), {}));
  graph.Func("btf_only_a", graph.FuncProto(0, {}));
  ElfWriter writer(ElfIdent{});
  writer.AddSection(".BTF", SectionType::kProgbits, EncodeBtf(graph));
  auto btf_image = writer.Finish();
  ASSERT_TRUE(btf_image.ok());

  for (std::vector<uint8_t>* bytes : {&*dwarf_image, &*btf_image}) {
    auto original = std::make_unique<DependencySurface>(
        DependencySurface::Extract(std::move(*bytes)).TakeValue());
    const std::string expected = RenderFunctions(*original);
    ASSERT_GE(original->functions().size(), 2u);
    // Each step leaves one surface as the only holder, then reads it.
    DependencySurface copy = *original;
    original.reset();
    EXPECT_EQ(RenderFunctions(copy), expected);
    DependencySurface moved = std::move(copy);
    EXPECT_TRUE(copy.functions().empty());
    EXPECT_EQ(copy.FindFunction(moved.functions().front().name), nullptr);
    EXPECT_EQ(RenderFunctions(moved), expected);
    DependencySurface assigned;
    assigned = moved;
    moved = DependencySurface();
    EXPECT_EQ(RenderFunctions(assigned), expected);
  }
}

TEST(SurfaceExtractTest, RejectsGarbageImages) {
  EXPECT_FALSE(DependencySurface::Extract({}).ok());
  EXPECT_FALSE(DependencySurface::Extract(std::vector<uint8_t>(4096, 0xab)).ok());
}

TEST(SurfaceExtractTest, TransformedFunctionDetected) {
  // __page_cache_alloc carries a forced constprop transform on gcc>=8
  // builds before v5.16.
  DependencySurface v54 = ExtractFor(KernelVersion(5, 4));
  const FunctionEntry* alloc = v54.FindFunction("__page_cache_alloc");
  ASSERT_NE(alloc, nullptr);
  EXPECT_TRUE(alloc->status.transformed);
  EXPECT_FALSE(alloc->status.has_exact_symbol);
  EXPECT_EQ(alloc->status.transform_suffix, ".constprop.0");
  // At v4.4 (gcc 5) the transform does not fire.
  DependencySurface v44 = ExtractFor(KernelVersion(4, 4));
  const FunctionEntry* alloc44 = v44.FindFunction("__page_cache_alloc");
  ASSERT_NE(alloc44, nullptr);
  EXPECT_FALSE(alloc44->status.transformed);
  EXPECT_TRUE(alloc44->status.has_exact_symbol);
}

}  // namespace
}  // namespace depsurf
