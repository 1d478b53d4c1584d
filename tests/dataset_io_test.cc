// Round-trip and robustness tests for dataset serialization (the published
// dataset artifact format): the strict load, the lazy mmap view, and the
// orders and bounds the strict load must enforce for the two to agree.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/core/dataset_io.h"
#include "src/core/depsurf.h"
#include "src/elf/elf_reader.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/kernelgen/rates.h"
#include "src/kernelgen/scripted.h"
#include "src/util/prng.h"

namespace depsurf {
namespace {

// Little-endian integer of `width` bytes, for poking at file layouts.
uint64_t LoadLe(const uint8_t* p, size_t width) {
  uint64_t value = 0;
  for (size_t i = 0; i < width; ++i) {
    value |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return value;
}

// File offset of section `kind` (1..10) of a dataset file, read from its
// section table (see docs/FORMATS.md §6).
uint64_t SectionOffset(const std::vector<uint8_t>& bytes, uint32_t kind) {
  return LoadLe(bytes.data() + 40 + (kind - 1) * 24 + 8, 8);
}

// Reverses `count` fixed-size entries starting at `base`.
void ReverseEntries(uint8_t* base, size_t count, size_t stride) {
  for (size_t i = 0; 2 * i + 1 < count; ++i) {
    std::swap_ranges(base + i * stride, base + (i + 1) * stride, base + (count - 1 - i) * stride);
  }
}

Dataset SmallDataset() {
  Dataset dataset;
  KernelModel model(2025, 0.01, BuildCuratedCatalog());
  for (KernelVersion version : {KernelVersion(5, 4), KernelVersion(6, 2)}) {
    auto kernel = model.Configure(MakeBuild(version));
    EXPECT_TRUE(kernel.ok());
    auto bytes = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
    EXPECT_TRUE(bytes.ok());
    auto surface = DependencySurface::Extract(bytes.TakeValue());
    EXPECT_TRUE(surface.ok());
    dataset.AddImage(version.Tag(), *surface);
  }
  return dataset;
}

TEST(DatasetIoTest, RoundTripPreservesQueries) {
  Dataset original = SmallDataset();
  std::vector<uint8_t> bytes = SaveDatasetV2(original);
  EXPECT_GT(bytes.size(), 1000u);
  auto loaded = LoadDatasetV2(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();

  EXPECT_EQ(loaded->num_images(), original.num_images());
  EXPECT_EQ(loaded->labels(), original.labels());
  // Query equivalence on scripted constructs with known behavior.
  for (const char* func : {"blk_account_io_start", "vfs_fsync", "__page_cache_alloc",
                           "get_order", "no_such_function"}) {
    EXPECT_EQ(loaded->CheckFunc(func), original.CheckFunc(func)) << func;
  }
  EXPECT_EQ(loaded->CheckStruct("request"), original.CheckStruct("request"));
  EXPECT_EQ(loaded->CheckField("request", "rq_disk", "struct gendisk *", false),
            original.CheckField("request", "rq_disk", "struct gendisk *", false));
  EXPECT_EQ(loaded->CheckTracepoint("block_rq_issue"), original.CheckTracepoint("block_rq_issue"));
  EXPECT_EQ(loaded->CheckSyscall("openat2"), original.CheckSyscall("openat2"));
  EXPECT_EQ(loaded->CheckRegisters(), original.CheckRegisters());

  // Metadata survives.
  EXPECT_EQ(loaded->images()[0].meta.version_minor, 4);
  EXPECT_EQ(loaded->images()[1].meta.gcc_major, 12);
  EXPECT_EQ(loaded->images()[0].meta.arch, "x86");
}

TEST(DatasetIoTest, HealthAndLedgerSurviveRoundTrip) {
  // Distill one clean image and one whose DWARF was corrupted, and check
  // the degradation provenance (states + ledger entries) round-trips.
  Dataset dataset;
  KernelModel model(2025, 0.01, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4)));
  ASSERT_TRUE(kernel.ok());
  auto bytes = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
  ASSERT_TRUE(bytes.ok());

  auto clean = DependencySurface::Extract(*bytes);
  ASSERT_TRUE(clean.ok());
  dataset.AddImage("clean", *clean);

  std::vector<uint8_t> damaged = bytes.TakeValue();
  auto elf = ElfReader::Parse(damaged);
  ASSERT_TRUE(elf.ok());
  const ElfSectionView* info = elf->SectionByName(".sdwarf_info");
  ASSERT_NE(info, nullptr);
  for (size_t i = 0; i < 16 && i < info->size; ++i) {
    damaged[static_cast<size_t>(info->offset) + i] = 0xff;
  }
  auto salvaged = DependencySurface::Extract(std::move(damaged));
  ASSERT_TRUE(salvaged.ok());
  ASSERT_EQ(salvaged->health().dwarf, DegradationState::kDegraded);
  dataset.AddImage("salvaged", *salvaged);

  auto loaded = LoadDatasetV2(SaveDatasetV2(dataset));
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  ASSERT_EQ(loaded->num_images(), 2u);
  const ImageRecord& a = loaded->images()[0];
  const ImageRecord& b = loaded->images()[1];
  EXPECT_FALSE(a.AnyDegraded());
  EXPECT_EQ(a.health.ledger.size(), 0u);
  EXPECT_TRUE(b.AnyDegraded());
  EXPECT_EQ(b.health.dwarf, DegradationState::kDegraded);
  ASSERT_EQ(b.health.ledger.size(), salvaged->health().ledger.size());
  for (size_t i = 0; i < b.health.ledger.size(); ++i) {
    const DiagnosticEntry& got = b.health.ledger.entries()[i];
    const DiagnosticEntry& want = salvaged->health().ledger.entries()[i];
    EXPECT_EQ(got.severity, want.severity);
    EXPECT_EQ(got.subsystem, want.subsystem);
    EXPECT_EQ(got.code, want.code);
    EXPECT_EQ(got.has_offset, want.has_offset);
    EXPECT_EQ(got.offset, want.offset);
    EXPECT_EQ(got.message, want.message);
  }
}

TEST(DatasetIoTest, RejectsCorruptedInput) {
  std::vector<uint8_t> bytes = SaveDatasetV2(SmallDataset());
  // Bad magic.
  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(LoadDatasetV2(bad_magic).ok());
  // Truncations at various points must error, not crash.
  for (size_t cut : {4ul, 64ul, bytes.size() / 2, bytes.size() - 3}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(LoadDatasetV2(truncated).ok()) << cut;
  }
  EXPECT_FALSE(LoadDatasetV2({}).ok());
  // A record id past the string pool: image 0's first function name.
  std::vector<uint8_t> bad_id = bytes;
  std::memset(bad_id.data() + SectionOffset(bad_id, 5), 0xfe, 4);
  auto loaded = LoadDatasetV2(bad_id);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message().find("out of range"), std::string::npos)
      << loaded.error().ToString();
}

// The full bundled LTS corpus, at a scale small enough for test time.
const Dataset& LtsDataset() {
  static const Dataset dataset = [] {
    Dataset d;
    KernelModel model(2025, 0.005, BuildCuratedCatalog());
    for (KernelVersion version : kLtsVersions) {
      auto kernel = model.Configure(MakeBuild(version));
      EXPECT_TRUE(kernel.ok());
      auto bytes = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
      EXPECT_TRUE(bytes.ok());
      auto surface = DependencySurface::Extract(bytes.TakeValue());
      EXPECT_TRUE(surface.ok());
      d.AddImage(version.Tag(), *surface);
    }
    return d;
  }();
  return dataset;
}

// Every DatasetView query the two implementations share, compared cell for
// cell: heap-vs-mmap and strict-load-vs-mmap equivalence.
void ExpectViewsAgree(const DatasetView& a, const DatasetView& b) {
  ASSERT_EQ(a.num_images(), b.num_images());
  EXPECT_EQ(a.labels(), b.labels());
  for (size_t i = 0; i < a.num_images(); ++i) {
    SurfaceMeta ma = a.MetaAt(i);
    SurfaceMeta mb = b.MetaAt(i);
    EXPECT_EQ(ma.version_major, mb.version_major);
    EXPECT_EQ(ma.version_minor, mb.version_minor);
    EXPECT_EQ(ma.arch, mb.arch);
    EXPECT_EQ(ma.flavor, mb.flavor);
    EXPECT_EQ(ma.gcc_major, mb.gcc_major);
    EXPECT_EQ(ma.config_options, mb.config_options);
    EXPECT_EQ(a.HealthSummaryAt(i), b.HealthSummaryAt(i)) << i;
    EXPECT_EQ(a.AnyDegradedAt(i), b.AnyDegradedAt(i)) << i;
  }
  for (const char* func : {"blk_account_io_start", "vfs_fsync", "__page_cache_alloc",
                           "get_order", "vfs_read", "no_such_function"}) {
    EXPECT_EQ(a.CheckFunc(func), b.CheckFunc(func)) << func;
    EXPECT_EQ(a.FuncDeclAt(func, 0), b.FuncDeclAt(func, 0)) << func;
  }
  for (const char* name : {"request", "task_struct", "no_such_struct"}) {
    EXPECT_EQ(a.CheckStruct(name), b.CheckStruct(name)) << name;
  }
  EXPECT_EQ(a.CheckField("request", "rq_disk", "struct gendisk *", false),
            b.CheckField("request", "rq_disk", "struct gendisk *", false));
  EXPECT_EQ(a.CheckField("request", "rq_disk", "", false),
            b.CheckField("request", "rq_disk", "", false));
  EXPECT_EQ(a.CheckField("request", "rq_disk", "struct gendisk *", true),
            b.CheckField("request", "rq_disk", "struct gendisk *", true));
  EXPECT_EQ(a.FieldTypeAt("request", "rq_disk", 0), b.FieldTypeAt("request", "rq_disk", 0));
  EXPECT_EQ(a.CheckTracepoint("block_rq_issue"), b.CheckTracepoint("block_rq_issue"));
  EXPECT_EQ(a.CheckTracepoint("no_such_event"), b.CheckTracepoint("no_such_event"));
  EXPECT_EQ(a.CheckSyscall("openat2"), b.CheckSyscall("openat2"));
  EXPECT_EQ(a.CheckSyscall("no_such_call"), b.CheckSyscall("no_such_call"));
  EXPECT_EQ(a.CheckRegisters(), b.CheckRegisters());
}

TEST(DatasetV2Test, MmapViewMatchesV1LoadOverLtsCorpus) {
  const Dataset& original = LtsDataset();
  std::vector<uint8_t> bytes = SaveDatasetV2(original);
  auto loaded = LoadDatasetV2(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  auto view = MmapDataset::FromBytes(bytes);
  ASSERT_TRUE(view.ok()) << view.error().ToString();
  ExpectViewsAgree(original, *view);
  ExpectViewsAgree(*loaded, *view);

  // Whole-program analysis over the three readers renders identically.
  DependencySet deps;
  deps.program = "probe";
  deps.funcs = {"blk_account_io_start", "vfs_read"};
  deps.fields["request"]["rq_disk"] = FieldDep{"struct gendisk *", false};
  deps.tracepoints = {"block_rq_issue"};
  deps.syscalls = {"openat2"};
  ProgramReport a = AnalyzeProgram(original, deps);
  for (const DatasetView* other : {static_cast<const DatasetView*>(&*loaded),
                                   static_cast<const DatasetView*>(&*view)}) {
    ProgramReport b = AnalyzeProgram(*other, deps);
    EXPECT_EQ(a.RenderMatrix(), b.RenderMatrix());
    EXPECT_EQ(a.WorstImplication(), b.WorstImplication());
  }
}

TEST(DatasetV2Test, MigrateIsByteDeterministic) {
  const Dataset& original = LtsDataset();
  std::vector<uint8_t> first = SaveDatasetV2(original);
  std::vector<uint8_t> second = SaveDatasetV2(original);
  EXPECT_EQ(first, second);

  // Load followed by save is the identity on bytes, and the loaded copy
  // answers like the original.
  auto reloaded = LoadDatasetV2(first);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().ToString();
  EXPECT_EQ(SaveDatasetV2(*reloaded), first);
  ExpectViewsAgree(original, *reloaded);
}

TEST(DatasetV2Test, HealthAndDiagnosticsSurviveV2) {
  // Same salvage scenario as the ledger round-trip test: a degraded image's
  // states and diagnostics must survive the round trip and surface through
  // the mmap view's health summary.
  Dataset dataset;
  KernelModel model(2025, 0.01, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4)));
  ASSERT_TRUE(kernel.ok());
  auto bytes = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
  ASSERT_TRUE(bytes.ok());
  std::vector<uint8_t> damaged = *bytes;
  auto elf = ElfReader::Parse(damaged);
  ASSERT_TRUE(elf.ok());
  const ElfSectionView* info = elf->SectionByName(".sdwarf_info");
  ASSERT_NE(info, nullptr);
  for (size_t i = 0; i < 16 && i < info->size; ++i) {
    damaged[static_cast<size_t>(info->offset) + i] = 0xff;
  }
  auto salvaged = DependencySurface::Extract(std::move(damaged));
  ASSERT_TRUE(salvaged.ok());
  ASSERT_EQ(salvaged->health().dwarf, DegradationState::kDegraded);
  dataset.AddImage("salvaged", *salvaged);

  std::vector<uint8_t> v2 = SaveDatasetV2(dataset);
  auto view = MmapDataset::FromBytes(v2);
  ASSERT_TRUE(view.ok()) << view.error().ToString();
  EXPECT_TRUE(view->AnyDegradedAt(0));
  EXPECT_EQ(view->HealthSummaryAt(0), dataset.HealthSummaryAt(0));

  auto reloaded = LoadDatasetV2(v2);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->images()[0].health.ledger.size(),
            dataset.images()[0].health.ledger.size());
  EXPECT_EQ(reloaded->images()[0].health.ledger.entries()[0].message,
            dataset.images()[0].health.ledger.entries()[0].message);
}

// Runs every query against a possibly-corrupt view; the only contract is
// "never crash" — results may degrade to absent.
void PokeAllQueries(const MmapDataset& view) {
  for (size_t i = 0; i < view.num_images(); ++i) {
    view.MetaAt(i);
    view.HealthSummaryAt(i);
    view.AnyDegradedAt(i);
  }
  view.labels();
  view.CheckFunc("vfs_read");
  view.FuncDeclAt("vfs_read", 0);
  view.CheckStruct("request");
  view.CheckField("request", "rq_disk", "struct gendisk *", false);
  view.FieldTypeAt("request", "rq_disk", 0);
  view.CheckTracepoint("block_rq_issue");
  view.CheckSyscall("openat2");
  view.CheckRegisters();
}

TEST(DatasetV2Test, MmapViewSurvivesTruncation) {
  std::vector<uint8_t> v2 = SaveDatasetV2(SmallDataset());
  // Truncation anywhere must be rejected at Open (the header records the
  // exact file size) — and must never crash.
  for (size_t cut : {0ul, 4ul, 39ul, 40ul, 4095ul, 4096ul, v2.size() / 2, v2.size() - 1}) {
    std::vector<uint8_t> truncated(v2.begin(), v2.begin() + cut);
    auto view = MmapDataset::FromBytes(std::move(truncated));
    EXPECT_FALSE(view.ok()) << "cut at " << cut;
  }
}

TEST(DatasetV2Test, MmapViewSurvivesHeaderAndIndexMutations) {
  std::vector<uint8_t> v2 = SaveDatasetV2(SmallDataset());
  // Seeded byte flips across the header, section table, and the first
  // pages of every index. Attach may reject the file; if it accepts,
  // every query must complete without crashing.
  Prng prng(2025);
  const size_t probe_limit = std::min(v2.size(), size_t{64} * 1024);
  for (int round = 0; round < 200; ++round) {
    std::vector<uint8_t> mutated = v2;
    size_t offset = static_cast<size_t>(prng.NextBelow(probe_limit));
    mutated[offset] ^= static_cast<uint8_t>(1 + prng.NextBelow(255));
    auto view = MmapDataset::FromBytes(std::move(mutated));
    if (view.ok()) {
      PokeAllQueries(*view);
    }
  }
  // Targeted section-table damage: huge offsets/sizes and kind renumbering
  // must be rejected outright (the table is fully validated at attach).
  for (size_t entry = 0; entry < 10; ++entry) {
    std::vector<uint8_t> mutated = v2;
    size_t base = 40 + entry * 24;
    for (size_t i = 0; i < 8; ++i) {
      mutated[base + 8 + i] = 0xff;  // offset -> ~2^64
    }
    EXPECT_FALSE(MmapDataset::FromBytes(std::move(mutated)).ok()) << entry;
  }
}

TEST(DatasetIoTest, AnalysisOnLoadedDatasetMatches) {
  Dataset original = SmallDataset();
  auto loaded = LoadDatasetV2(SaveDatasetV2(original));
  ASSERT_TRUE(loaded.ok());
  DependencySet deps;
  deps.program = "probe";
  deps.funcs = {"blk_account_io_start", "blk_mq_start_request"};
  deps.fields["request"]["rq_disk"] = FieldDep{"struct gendisk *", false};
  ProgramReport a = AnalyzeProgram(original, deps);
  ProgramReport b = AnalyzeProgram(*loaded, deps);
  EXPECT_EQ(a.RenderMatrix(), b.RenderMatrix());
}

// Each of these files opens as a lazy view whose binary searches then go
// wrong; the strict load must refuse every one.
TEST(DatasetV2Test, StrictLoadRejectsBrokenOrder) {
  const std::vector<uint8_t> bytes = SaveDatasetV2(SmallDataset());
  auto clean = MmapDataset::FromBytes(bytes);
  ASSERT_TRUE(clean.ok());
  const uint32_t task_struct = clean->LookupId("task_struct");
  ASSERT_NE(task_struct, Dataset::kNoStr);
  const uint8_t* image0 = bytes.data() + SectionOffset(bytes, 4);
  const uint32_t func_begin = static_cast<uint32_t>(LoadLe(image0 + 40, 4));
  const uint32_t func_count = static_cast<uint32_t>(LoadLe(image0 + 44, 4));
  const uint32_t struct_begin = static_cast<uint32_t>(LoadLe(image0 + 48, 4));
  const uint32_t struct_count = static_cast<uint32_t>(LoadLe(image0 + 52, 4));
  ASSERT_GT(func_count, 2u);

  std::vector<std::pair<const char*, std::vector<uint8_t>>> mutants;
  {
    std::vector<uint8_t> m = bytes;
    ReverseEntries(m.data() + SectionOffset(m, 3), clean->string_count(), 4);
    mutants.emplace_back("string index reversed", std::move(m));
  }
  {
    std::vector<uint8_t> m = bytes;
    ReverseEntries(m.data() + SectionOffset(m, 5) + func_begin * 24ull, func_count, 24);
    mutants.emplace_back("function run reversed", std::move(m));
  }
  {
    std::vector<uint8_t> m = bytes;
    uint8_t* entry = m.data() + SectionOffset(m, 5) + (func_begin + func_count / 2) * 24ull;
    std::memcpy(entry + 24, entry, 24);
    mutants.emplace_back("function entry duplicated", std::move(m));
  }
  {
    std::vector<uint8_t> m = bytes;
    const uint8_t* structs = m.data() + SectionOffset(m, 6);
    for (uint32_t i = struct_begin; i < struct_begin + struct_count; ++i) {
      const uint8_t* entry = structs + i * 12ull;
      if (LoadLe(entry, 4) == task_struct) {
        const uint64_t pair_begin = LoadLe(entry + 4, 4);
        const uint64_t pair_count = LoadLe(entry + 8, 4);
        ASSERT_GT(pair_count, 2u);
        ReverseEntries(m.data() + SectionOffset(m, 9) + pair_begin * 8, pair_count, 8);
        mutants.emplace_back("task_struct fields reversed", std::move(m));
        break;
      }
    }
  }
  ASSERT_EQ(mutants.size(), 4u);
  for (auto& [what, mutated] : mutants) {
    EXPECT_TRUE(MmapDataset::FromBytes(mutated).ok()) << what;
    auto loaded = LoadDatasetV2(mutated);
    EXPECT_FALSE(loaded.ok()) << what;
    if (!loaded.ok()) {
      EXPECT_NE(loaded.error().message().find("sorted"), std::string::npos)
          << what << ": " << loaded.error().ToString();
    }
  }
}

// The oracle for hostile dataset files: whenever the strict load accepts a
// file, the lazy view over the same bytes gives the same answers.
TEST(DatasetV2Test, StrictLoadAcceptsOnlyWhatTheViewReadsAlike) {
  const std::vector<uint8_t> bytes = SaveDatasetV2(SmallDataset());
  Prng prng(2026);
  int accepted = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> flipped = bytes;
    const size_t offset = static_cast<size_t>(prng.NextBelow(flipped.size()));
    flipped[offset] ^= static_cast<uint8_t>(1 + prng.NextBelow(255));
    auto heap = LoadDatasetV2(flipped);
    if (!heap.ok()) {
      continue;
    }
    auto view = MmapDataset::FromBytes(std::move(flipped));
    ASSERT_TRUE(view.ok()) << "byte " << offset;
    ++accepted;
    SCOPED_TRACE("flipped byte " + std::to_string(offset));
    ExpectViewsAgree(*heap, *view);
  }
  EXPECT_GT(accepted, 0);
}

// The retired "DDS1" layout is refused by name, through every reader.
TEST(DatasetV2Test, RefusesV1Files) {
  std::vector<uint8_t> v1 = {'D', 'D', 'S', '1'};
  v1.resize(64, 0);
  auto expect_v1_message = [](const Error& error) {
    EXPECT_NE(error.message().find("v1 dataset (DDS1)"), std::string::npos) << error.ToString();
    EXPECT_NE(error.message().find("depsurf dataset build"), std::string::npos)
        << error.ToString();
  };
  auto view = MmapDataset::FromBytes(v1);
  ASSERT_FALSE(view.ok());
  expect_v1_message(view.error());
  auto loaded = LoadDatasetV2(v1);
  ASSERT_FALSE(loaded.ok());
  expect_v1_message(loaded.error());

  char tmpl[] = "/tmp/depsurf_dsio_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string path = std::string(dir) + "/old.dds";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(v1.data()), static_cast<std::streamsize>(v1.size()));
  }
  auto opened = MmapDataset::Open(path);
  ASSERT_FALSE(opened.ok());
  expect_v1_message(opened.error());
  std::remove(path.c_str());
  rmdir(dir);
}

}  // namespace
}  // namespace depsurf
