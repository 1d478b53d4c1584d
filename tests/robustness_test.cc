// Failure-injection tests: the analyzer consumes untrusted binary images
// and object files; corruption at any offset must produce a structured
// error (or a benign parse), never a crash, hang, or sanitizer fault.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>

#include "src/analyzer/analyzer.h"
#include "src/analyzer/remediation.h"
#include "src/bpf/bpf_builder.h"
#include "src/bpf/bpf_rewriter.h"
#include "src/btf/btf_codec.h"
#include "src/core/depsurf.h"
#include "src/elf/elf_reader.h"
#include "src/elf/elf_writer.h"
#include "src/faultgen/fault_injector.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/kernelgen/scripted.h"
#include "src/util/prng.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace {

std::vector<uint8_t> SmallImage() {
  static std::vector<uint8_t> bytes = [] {
    KernelModel model(7, 0.005, BuildCuratedCatalog());
    auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4)));
    auto image = BuildKernelImage(CompileKernel(7, kernel.TakeValue()));
    return image.TakeValue();
  }();
  return bytes;
}

std::vector<uint8_t> SmallObject() {
  static std::vector<uint8_t> bytes = [] {
    BpfObjectBuilder builder("probe");
    builder.AttachKprobe("vfs_fsync").AttachTracepoint("block", "block_rq_issue");
    Status ok = builder.AccessField("request", "rq_disk", "struct gendisk *");
    (void)ok;
    return WriteBpfObject(builder.Build()).TakeValue();
  }();
  return bytes;
}

class TruncationTest : public ::testing::TestWithParam<int> {};

TEST_P(TruncationTest, TruncatedImageNeverCrashes) {
  std::vector<uint8_t> bytes = SmallImage();
  // Truncate at a pseudo-random fraction derived from the parameter.
  Prng prng(static_cast<uint64_t>(GetParam()));
  size_t cut = prng.NextBelow(bytes.size());
  bytes.resize(cut);
  auto result = DependencySurface::Extract(std::move(bytes));
  if (result.ok()) {
    if (result->health().AnyDegraded()) {
      // Salvage mode may recover a partial surface, but never silently:
      // anything lost must be on the ledger.
      EXPECT_FALSE(result->health().ledger.empty());
    } else {
      // A fully clean prefix parse is acceptable only for near-full cuts.
      EXPECT_GT(cut, SmallImage().size() / 2);
    }
  }
}

TEST_P(TruncationTest, TruncatedObjectNeverCrashes) {
  std::vector<uint8_t> bytes = SmallObject();
  Prng prng(static_cast<uint64_t>(GetParam()) ^ 0x0b);
  bytes.resize(prng.NextBelow(bytes.size()));
  auto result = ParseBpfObject(std::move(bytes));
  // ok-or-error; never a crash.
  (void)result.ok();
}

INSTANTIATE_TEST_SUITE_P(Cuts, TruncationTest, ::testing::Range(0, 24));

class CorruptionTest : public ::testing::TestWithParam<int> {};

TEST_P(CorruptionTest, BitFlippedImageNeverCrashes) {
  std::vector<uint8_t> bytes = SmallImage();
  Prng prng(static_cast<uint64_t>(GetParam()) * 7919);
  // Flip a burst of bytes at a random position.
  size_t pos = prng.NextBelow(bytes.size() - 16);
  for (size_t i = 0; i < 16; ++i) {
    bytes[pos + i] ^= static_cast<uint8_t>(prng.NextU64());
  }
  auto result = DependencySurface::Extract(std::move(bytes));
  if (result.ok()) {
    // Corruption in padding or unused regions can legitimately parse; the
    // surface must still be internally consistent.
    std::span<const FunctionEntry> functions = result->functions();
    for (size_t i = 0; i < functions.size(); ++i) {
      if (i != 0) {
        EXPECT_LT(functions[i - 1].name, functions[i].name);
      }
      EXPECT_EQ(result->FindFunction(functions[i].name), &functions[i]);
    }
  }
}

TEST_P(CorruptionTest, BitFlippedObjectNeverCrashes) {
  std::vector<uint8_t> bytes = SmallObject();
  Prng prng(static_cast<uint64_t>(GetParam()) * 104729);
  size_t pos = prng.NextBelow(bytes.size() - 8);
  for (size_t i = 0; i < 8; ++i) {
    bytes[pos + i] ^= static_cast<uint8_t>(prng.NextU64());
  }
  auto parsed = ParseBpfObject(std::move(bytes));
  if (parsed.ok()) {
    auto deps = ExtractDependencySet(*parsed);
    (void)deps.ok();  // either way, no crash
  }
}

INSTANTIATE_TEST_SUITE_P(Flips, CorruptionTest, ::testing::Range(0, 24));

// Seeded faultgen sweeps, cycling through all four fault kinds (byte flip,
// zero window, section-header mutation, truncation) over both the kernel
// image and the BPF object. The contract under every mutation: no crash,
// no hang, and any degradation lands on the ledger.
class FaultSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultSweepTest, MutatedImageSalvagesOrFailsLoudly) {
  std::vector<uint8_t> bytes = SmallImage();
  const uint64_t index = static_cast<uint64_t>(GetParam());
  std::string what = ApplyFault(bytes, FaultKindForIndex(index), 1000 + index);
  SCOPED_TRACE(what);
  auto result = DependencySurface::Extract(std::move(bytes));
  if (result.ok() && result->health().AnyDegraded()) {
    const DiagnosticLedger& ledger = result->health().ledger;
    ASSERT_FALSE(ledger.empty());
    for (const DiagnosticEntry& entry : ledger.entries()) {
      EXPECT_FALSE(entry.message.empty());
    }
  }
}

TEST_P(FaultSweepTest, MutatedObjectNeverCrashes) {
  std::vector<uint8_t> bytes = SmallObject();
  const uint64_t index = static_cast<uint64_t>(GetParam());
  std::string what = ApplyFault(bytes, FaultKindForIndex(index), 2000 + index);
  SCOPED_TRACE(what);
  auto parsed = ParseBpfObject(std::move(bytes));
  if (parsed.ok()) {
    (void)ExtractDependencySet(*parsed);  // either way, no crash
  }
}

// Mutations aimed squarely at the instruction stream. The insn decoder is
// salvage-mode: whatever prefix survives is analyzable, the static
// analyzer must never crash on it, and every degradation lands on the
// ledger as a bpf entry carrying the failing byte offset.
TEST_P(FaultSweepTest, MutatedInsnStreamDegradesToSalvage) {
  std::vector<uint8_t> bytes = SmallObject();
  auto elf = ElfReader::Parse(bytes);
  ASSERT_TRUE(elf.ok());
  const ElfSectionView* section = elf->SectionByName("kprobe/vfs_fsync");
  ASSERT_NE(section, nullptr);
  ASSERT_GT(section->size, 0u);
  const uint64_t index = static_cast<uint64_t>(GetParam());
  Prng prng(3000 + index);
  // Half the sweep scribbles over instruction bytes, half truncates the
  // section mid-slot (both classic loader-fuzzing shapes).
  if (index % 2 == 0) {
    size_t pos = section->offset + prng.NextBelow(section->size);
    for (size_t i = 0; i < 4 && pos + i < bytes.size(); ++i) {
      bytes[pos + i] ^= static_cast<uint8_t>(prng.NextU64() | 1);
    }
  } else {
    size_t keep = prng.NextBelow(section->size);
    bytes.resize(section->offset + keep);
  }
  DiagnosticLedger ledger;
  auto parsed = ParseBpfObject(std::move(bytes), &ledger);
  if (parsed.ok()) {
    ObjectAnalysis analysis = AnalyzeObject(*parsed);
    // Per-program salvage: analysis covers exactly the decoded programs.
    EXPECT_EQ(analysis.programs.size(), parsed->programs.size());
    (void)ExtractDependencySet(*parsed);
  }
  for (const DiagnosticEntry& entry : ledger.entries()) {
    EXPECT_FALSE(entry.message.empty());
    if (entry.subsystem == DiagSubsystem::kBpf &&
        entry.code == ErrorCode::kMalformedData) {
      EXPECT_TRUE(entry.has_offset) << entry.ToString();
    }
  }
}

// The remediation pipeline rides on salvaged parses: whatever the planner
// decides on a mutated object — synthesize guards or refuse — applying and
// re-analyzing the result must never crash, and a rewriter refusal lands
// on the ledger instead of corrupting the object.
TEST_P(FaultSweepTest, MutatedObjectRemediationSalvagesOrRefuses) {
  std::vector<uint8_t> bytes = SmallObject();
  const uint64_t index = static_cast<uint64_t>(GetParam());
  std::string what = ApplyFault(bytes, FaultKindForIndex(index), 4000 + index);
  SCOPED_TRACE(what);
  DiagnosticLedger ledger;
  auto parsed = ParseBpfObject(std::move(bytes), &ledger);
  if (!parsed.ok()) {
    return;  // loud structured failure is an acceptable outcome
  }
  ObjectAnalysis analysis = AnalyzeObject(*parsed);
  RemediationPlan plan = PlanRemediation(*parsed, analysis);
  ASSERT_EQ(plan.items.size(), analysis.findings.size());
  if (plan.FixableCount() == 0) {
    return;  // refusal: every item carries a reason
  }
  BpfObject fixed = *parsed;
  size_t ledger_before = ledger.entries().size();
  Status applied = InsertFieldExistsGuards(fixed, plan.Insertions(), &ledger);
  if (!applied.ok()) {
    EXPECT_GT(ledger.entries().size(), ledger_before)
        << "rewriter refusal must leave a ledger entry";
    return;
  }
  auto encoded = WriteBpfObject(fixed);
  ASSERT_TRUE(encoded.ok()) << encoded.error().ToString();
  auto reparsed = ParseBpfObject(encoded.TakeValue(), &ledger);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().ToString();
  (void)AnalyzeObject(*reparsed);  // either way, no crash
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaultSweepTest, ::testing::Range(0, 32));

// The headline salvage guarantee: an image whose DWARF is malformed still
// yields symbols, tracepoints, and syscalls; the dwarf subsystem is marked
// degraded and the ledger pinpoints the damage (subsystem, code, offset).
TEST(SalvageTest, CorruptDwarfStillYieldsSymbolsTracepointsSyscalls) {
  std::vector<uint8_t> bytes = SmallImage();
  auto elf = ElfReader::Parse(bytes);
  ASSERT_TRUE(elf.ok());
  const ElfSectionView* info = elf->SectionByName(".sdwarf_info");
  ASSERT_NE(info, nullptr);
  ASSERT_GT(info->size, 16u);
  // 0xff over the first 16 bytes of the DIE stream: the first DIE's abbrev
  // code is a ULEB128 past 64 bits, the reader fails, and all DWARF is
  // dropped (DWARF-lite has no unit headers to resync on).
  for (size_t i = 0; i < 16; ++i) {
    bytes[static_cast<size_t>(info->offset) + i] = 0xff;
  }
  auto surface = DependencySurface::Extract(std::move(bytes));
  ASSERT_TRUE(surface.ok());
  const SurfaceHealth& health = surface->health();
  EXPECT_EQ(health.dwarf, DegradationState::kDegraded);
  // Functions then come from the BTF+symtab fallback, as without DWARF.
  EXPECT_FALSE(surface->meta().has_debug_info);
  ASSERT_GE(health.ledger.size(), 1u);
  bool found = false;
  for (const DiagnosticEntry& entry : health.ledger.entries()) {
    if (entry.subsystem == DiagSubsystem::kDwarf) {
      found = true;
      EXPECT_EQ(entry.severity, DiagSeverity::kDegraded);
      EXPECT_TRUE(entry.has_offset);
      EXPECT_FALSE(entry.message.empty());
    }
  }
  EXPECT_TRUE(found);
  // Broken DWARF must not take the rest of the surface with it.
  EXPECT_FALSE(surface->functions().empty());
  EXPECT_FALSE(surface->tracepoints().empty());
  EXPECT_FALSE(surface->syscalls().empty());
}

// Same idea for BTF: a clobbered .BTF section degrades the btf subsystem
// while ELF symbols, tracepoints, and syscalls survive.
TEST(SalvageTest, CorruptBtfDegradesOnlyBtf) {
  std::vector<uint8_t> bytes = SmallImage();
  auto elf = ElfReader::Parse(bytes);
  ASSERT_TRUE(elf.ok());
  const ElfSectionView* btf = elf->SectionByName(".BTF");
  ASSERT_NE(btf, nullptr);
  ASSERT_GT(btf->size, 8u);
  for (size_t i = 0; i < 8; ++i) {
    bytes[static_cast<size_t>(btf->offset) + i] = 0xa5;
  }
  auto surface = DependencySurface::Extract(std::move(bytes));
  ASSERT_TRUE(surface.ok());
  EXPECT_EQ(surface->health().btf, DegradationState::kDegraded);
  EXPECT_GE(surface->health().ledger.CountSubsystem(DiagSubsystem::kBtf), 1u);
  EXPECT_FALSE(surface->tracepoints().empty());
  EXPECT_FALSE(surface->syscalls().empty());
}

// `bytes` with the bodies of the named sections replaced. Sections keep
// their indexes, so the symbol table carries over unchanged.
std::vector<uint8_t> WithSectionBodies(
    const std::vector<uint8_t>& bytes,
    const std::map<std::string, std::vector<uint8_t>>& bodies) {
  auto full = ElfReader::Parse(bytes);
  EXPECT_TRUE(full.ok());
  ElfWriter rewritten(full->ident());
  for (const ElfSectionView& section : full->sections()) {
    if (section.type == SectionType::kNull || section.name == ".shstrtab" ||
        section.name == ".symtab" || section.name == ".strtab") {
      continue;
    }
    auto it = bodies.find(section.name);
    std::vector<uint8_t> body = it != bodies.end()
                                    ? it->second
                                    : full->SectionData(section)->ReadBytes(section.size).TakeValue();
    rewritten.AddSection(section.name, section.type, std::move(body), section.addr,
                         section.flags, section.entsize);
  }
  for (const ElfSymbol& sym : full->symbols()) {
    rewritten.AddSymbol(sym);
  }
  return rewritten.Finish().TakeValue();
}

// DWARF nesting is data, not call depth: 200,000 nested compile units, and
// a subprogram whose inlined_subroutine chain is 200,000 deep, both in the
// seed-2025 v4.4 image, extract cleanly. The bytes are written by hand
// because EncodeDwarf recurses too.
TEST(HostileDwarfTest, DeepNestingExtractsWithoutRecursion) {
  constexpr size_t kDepth = 200000;
  KernelModel model(2025, 0.02, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(4, 4)));
  ASSERT_TRUE(kernel.ok());
  auto image = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
  ASSERT_TRUE(image.ok());

  // {code 1: compile_unit, has children, no attributes}
  std::vector<uint8_t> cu_abbrev = {1, 0x11, 1, 0, 0, 0};
  std::vector<uint8_t> nested_cus(kDepth, 0x01);
  nested_cus.insert(nested_cus.end(), kDepth, 0x00);
  auto surface = DependencySurface::Extract(WithSectionBodies(
      *image, {{".sdwarf_abbrev", cu_abbrev}, {".sdwarf_info", nested_cus}}));
  ASSERT_TRUE(surface.ok()) << surface.error().ToString();
  EXPECT_EQ(surface->health().dwarf, DegradationState::kClean);
  EXPECT_TRUE(surface->functions().empty());
  EXPECT_FALSE(surface->tracepoints().empty());

  // {1: compile_unit + name}, {2: subprogram + name}, {3: inlined_subroutine
  // + abstract_origin}, each with children. DIE 2 is the subprogram "f".
  std::vector<uint8_t> chain_abbrev = {1, 0x11, 1, 0x03, 1, 0, 0,     //
                                       2, 0x2e, 1, 0x03, 1, 0, 0,     //
                                       3, 0x1d, 1, 0x31, 5, 0, 0, 0};
  std::vector<uint8_t> chain = {1, 'a', '.', 'c', 0, 2, 'f', 0};
  for (size_t i = 0; i < kDepth; ++i) {
    chain.insert(chain.end(), {3, 2});
  }
  chain.insert(chain.end(), kDepth + 2, 0x00);
  surface = DependencySurface::Extract(WithSectionBodies(
      *image, {{".sdwarf_abbrev", chain_abbrev}, {".sdwarf_info", chain}}));
  ASSERT_TRUE(surface.ok()) << surface.error().ToString();
  EXPECT_EQ(surface->health().dwarf, DegradationState::kClean);
  const FunctionEntry* f = surface->FindFunction("f");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->instances.size(), 1u);
  EXPECT_EQ(f->instances[0].caller_inline.size(), kDepth);
  EXPECT_EQ(f->instances[0].caller_inline.front(), "a.c:f");
}

// ParseBpfObject names each program in one pass over the symbols: 60,000
// program sections (a 7 MB object) parse well inside a second, and each
// program takes its section's first FUNC symbol, past an OBJECT symbol
// before it and a second FUNC symbol after it.
TEST(HostileObjectTest, ManyProgramSectionsParseInLinearTime) {
  constexpr size_t kPrograms = 60000;
  ElfWriter writer(ElfIdent{ElfClass::k64, Endian::kLittle, ElfMachine::kX86_64});
  const std::vector<uint8_t> exit_only = EncodeInsns({ExitInsn()});
  for (size_t p = 0; p < kPrograms; ++p) {
    uint32_t section = writer.AddSection(StrFormat("kprobe/fn%zu", p), SectionType::kProgbits,
                                         exit_only, 0, kShfAlloc | kShfExecinstr);
    ElfSymbol sym;
    sym.bind = SymBind::kGlobal;
    sym.shndx = static_cast<uint16_t>(section);
    sym.type = SymType::kObject;
    sym.name = StrFormat("data%zu", p);
    writer.AddSymbol(sym);
    sym.type = SymType::kFunc;
    sym.name = StrFormat("prog%zu", p);
    writer.AddSymbol(sym);
    sym.name = StrFormat("alias%zu", p);
    writer.AddSymbol(sym);
  }
  writer.AddSection(kBtfSection, SectionType::kProgbits, EncodeBtf(TypeGraph()));
  ByteWriter no_relocs;
  no_relocs.WriteU32(kBtfExtMagic);
  no_relocs.WriteU32(0);  // records
  no_relocs.WriteU32(1);  // string bytes: the empty string
  no_relocs.WriteU8(0);
  writer.AddSection(kBtfExtSection, SectionType::kProgbits, no_relocs.TakeBytes());
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok()) << bytes.error().ToString();

  auto start = std::chrono::steady_clock::now();
  auto parsed = ParseBpfObject(bytes.TakeValue());
  double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
                  .count();
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  ASSERT_EQ(parsed->programs.size(), kPrograms);
  size_t misnamed = 0;
  for (size_t p = 0; p < kPrograms; ++p) {
    misnamed += parsed->programs[p].name != StrFormat("prog%zu", p) ? 1 : 0;
  }
  EXPECT_EQ(misnamed, 0u);
  EXPECT_LT(ms, 1000.0);
}

TEST(RobustnessTest, RelocAgainstForeignBtfIsRejectedNotCrashed) {
  // A reloc referencing a type id beyond the program's BTF must error.
  BpfObject object;
  object.name = "weird";
  object.relocs.push_back(CoreReloc{999, "0:1", CoreRelocKind::kFieldByteOffset});
  object.btf.Int("int", 4);
  EXPECT_FALSE(ExtractDependencySet(object).ok());
}

TEST(RobustnessTest, DatasetQueriesOnUnknownNamesAreAbsentEverywhere) {
  Dataset dataset;
  KernelModel model(7, 0.005, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4)));
  auto image = BuildKernelImage(CompileKernel(7, kernel.TakeValue()));
  auto surface = DependencySurface::Extract(image.TakeValue());
  ASSERT_TRUE(surface.ok());
  dataset.AddImage("v5.4", *surface);
  for (const auto& cells :
       {dataset.CheckFunc("no_such_function"), dataset.CheckStruct("no_such_struct"),
        dataset.CheckTracepoint("no_such_event"), dataset.CheckSyscall("no_such_call"),
        dataset.CheckField("no_such_struct", "f", "int", false)}) {
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_TRUE(cells[0].count(MismatchKind::kAbsent));
  }
  // Guarded unknown field: silent.
  EXPECT_TRUE(dataset.CheckField("no_such_struct", "f", "int", true)[0].empty());
}

TEST(RobustnessTest, EmptyDatasetAnalysisIsWellFormed) {
  Dataset dataset;
  DependencySet deps;
  deps.program = "empty";
  deps.funcs.insert("anything");
  ProgramReport report = AnalyzeProgram(dataset, deps);
  EXPECT_EQ(report.image_labels.size(), 0u);
  EXPECT_EQ(report.rows.size(), 1u);
  EXPECT_FALSE(report.AnyMismatch());  // no images, no mismatch evidence
}


// ---- Guard facts: linear at scale, exact against a brute-force oracle ----

// Wall time of one AnalyzeObject call, in milliseconds.
ObjectAnalysis TimedAnalyze(const BpfObject& object, double* ms) {
  const auto t0 = std::chrono::steady_clock::now();
  ObjectAnalysis analysis = AnalyzeObject(object);
  *ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return analysis;
}

// 2,000 distinct (struct, field) pairs, 50 fields per struct.
constexpr size_t kScaleGuards = 2000;
std::string ScaleStruct(size_t k) { return StrFormat("scale_s%zu", k / 50); }
std::string ScaleField(size_t k) { return StrFormat("f%zu", k % 50); }

void ExpectEveryReadGuarded(const ObjectAnalysis& analysis) {
  EXPECT_TRUE(analysis.findings.empty())
      << analysis.findings.size() << " findings, first: " << analysis.findings[0].detail;
  size_t reads = 0;
  for (const RelocVerdict& verdict : analysis.relocs) {
    if (verdict.kind == CoreRelocKind::kFieldByteOffset) {
      ++reads;
      EXPECT_FALSE(verdict.unguarded) << verdict.struct_name << "::" << verdict.field_name;
    }
  }
  EXPECT_EQ(reads, kScaleGuards);
}

// One guard per read, one after another: the dominator tree is a chain
// about 2 x 2,000 blocks deep, and one dominance query per (guard, block)
// would take seconds.
TEST(GuardScalingTest, SequentialGuardsAnalyzeInLinearTime) {
  BpfObjectBuilder builder("sequential");
  builder.AttachKprobe("vfs_read");
  for (size_t k = 0; k < kScaleGuards; ++k) {
    ASSERT_TRUE(builder.BeginGuard(ScaleStruct(k), ScaleField(k), "u64").ok());
    ASSERT_TRUE(builder.AccessField(ScaleStruct(k), ScaleField(k), "u64").ok());
    ASSERT_TRUE(builder.EndGuard().ok());
  }
  BpfObject object = builder.Build();
  double ms = 0;
  ObjectAnalysis analysis = TimedAnalyze(object, &ms);
  EXPECT_LT(ms, 1000.0);
  ExpectEveryReadGuarded(analysis);
}

// Each read inside every guard opened before it: 2,000 facts nest, and the
// innermost read sees all of them.
TEST(GuardScalingTest, NestedGuardsAnalyzeInLinearTime) {
  BpfObjectBuilder builder("nested");
  builder.AttachKprobe("vfs_read");
  for (size_t k = 0; k < kScaleGuards; ++k) {
    ASSERT_TRUE(builder.BeginGuard(ScaleStruct(k), ScaleField(k), "u64").ok());
    ASSERT_TRUE(builder.AccessField(ScaleStruct(k), ScaleField(k), "u64").ok());
  }
  for (size_t k = 0; k < kScaleGuards; ++k) {
    ASSERT_TRUE(builder.EndGuard().ok());
  }
  BpfObject object = builder.Build();
  double ms = 0;
  ObjectAnalysis analysis = TimedAnalyze(object, &ms);
  EXPECT_LT(ms, 1000.0);
  ExpectEveryReadGuarded(analysis);
}

// 20,000 programs with one unguarded read each: the `depsurf fix` path
// (analyze, plan, rewrite, re-encode, re-analyze, verify) binds every
// program's relocations without a scan of the whole object per program.
// Outcomes only; the time bound lives in the two tests above.
TEST(GuardScalingTest, ManyProgramsFixEndToEnd) {
  constexpr size_t kPrograms = 20000;
  BpfObjectBuilder builder("spread");
  for (size_t p = 0; p < kPrograms; ++p) {
    builder.AttachKprobe(StrFormat("fn%zu", p));
    ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  }
  BpfObject object = builder.Build();
  ObjectAnalysis before = AnalyzeObject(object);
  ASSERT_EQ(before.programs.size(), kPrograms);
  ASSERT_EQ(before.CountKind(FindingKind::kUnguardedReloc), kPrograms);
  RemediationPlan plan = PlanRemediation(object, before);
  ASSERT_EQ(plan.FixableCount(), kPrograms);

  BpfObject fixed = object;
  ASSERT_TRUE(InsertFieldExistsGuards(fixed, plan.Insertions()).ok());
  ASSERT_EQ(fixed.relocs.size(), 2 * kPrograms);
  for (size_t r = 0; r < kPrograms; ++r) {
    // The read moved past its guard; the guard's record binds the guard.
    EXPECT_EQ(fixed.relocs[r].prog_index, r);
    EXPECT_EQ(fixed.relocs[r].insn_off, 24u);
    EXPECT_EQ(fixed.relocs[kPrograms + r].prog_index, r);
    EXPECT_EQ(fixed.relocs[kPrograms + r].insn_off, 0u);
  }
  auto encoded = WriteBpfObject(fixed);
  ASSERT_TRUE(encoded.ok()) << encoded.error().ToString();
  auto reparsed = ParseBpfObject(encoded.TakeValue());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().ToString();
  ObjectAnalysis after = AnalyzeObject(*reparsed);
  EXPECT_TRUE(after.findings.empty());
  EXPECT_TRUE(VerifyRemediation(before, plan, after).ok);
}

// A seeded random single-program stream over kOracleFields fields, built
// from units that never split: a guard (ld_imm64 rG; jeq/jne rG,0), a
// read, a jump (ja, or jeq/jne on the ctx register r1, never a guard), or
// an exit. Jumps land on unit starts anywhere in the stream, so loops and
// side entries into guarded regions are common.
constexpr size_t kOracleFields = 3;

struct OracleUnit {
  enum Kind { kGuard, kRead, kJump, kExit } kind = kExit;
  size_t field = 0;
  uint8_t opcode = 0;  // the jump's opcode (kGuard, kJump)
  uint8_t reg = 0;     // kGuard: the register holding the probe result
  size_t target = 0;   // unit index the jump lands on
};

std::vector<OracleUnit> RandomUnits(Prng& prng) {
  const size_t n = 4 + prng.NextBelow(28);
  std::vector<OracleUnit> units(n);
  for (size_t u = 0; u + 1 < n; ++u) {
    OracleUnit& unit = units[u];
    const uint64_t roll = prng.NextBelow(20);
    unit.kind = roll < 7    ? OracleUnit::kGuard
                : roll < 14 ? OracleUnit::kRead
                : roll < 18 ? OracleUnit::kJump
                            : OracleUnit::kExit;
    unit.field = prng.NextBelow(kOracleFields);
    unit.reg = static_cast<uint8_t>(3 + prng.NextBelow(4));
    const uint64_t op = prng.NextBelow(unit.kind == OracleUnit::kJump ? 3 : 2);
    unit.opcode = op == 0 ? kOpJeqImm : op == 1 ? kOpJneImm : kOpJa;
    // Mostly a short hop forward (a guarded body), sometimes anywhere.
    unit.target = prng.NextBelow(4) != 0
                      ? std::min(n - 1, u + 1 + prng.NextBelow(4))
                      : prng.NextBelow(n);
  }
  return units;  // the last unit is an exit
}

struct OracleStream {
  std::vector<BpfInsn> insns;
  std::vector<size_t> unit_insn;  // first instruction of each unit
  std::vector<size_t> unit_slot;  // and its slot; one past the end last
};

OracleStream LowerUnits(const std::vector<OracleUnit>& units) {
  OracleStream stream;
  stream.unit_slot.assign(units.size() + 1, 0);
  for (size_t u = 0; u < units.size(); ++u) {
    stream.unit_slot[u + 1] =
        stream.unit_slot[u] + (units[u].kind == OracleUnit::kGuard ? 3 : 1);
  }
  for (size_t u = 0; u < units.size(); ++u) {
    const OracleUnit& unit = units[u];
    stream.unit_insn.push_back(stream.insns.size());
    // The jump is the unit's last slot; deltas count from the slot after it.
    const int16_t delta =
        static_cast<int16_t>(static_cast<int64_t>(stream.unit_slot[unit.target]) -
                             static_cast<int64_t>(stream.unit_slot[u + 1]));
    auto jump = [&](uint8_t reg) {
      return unit.opcode == kOpJa        ? JumpAlways(delta)
             : unit.opcode == kOpJeqImm ? JumpEqImm(reg, 0, delta)
                                        : JumpNeImm(reg, 0, delta);
    };
    switch (unit.kind) {
      case OracleUnit::kGuard:
        stream.insns.push_back(LoadImm64(unit.reg, 1));
        stream.insns.push_back(jump(unit.reg));
        break;
      case OracleUnit::kRead:
        stream.insns.push_back(LoadField(2, 1, 0));
        break;
      case OracleUnit::kJump:
        stream.insns.push_back(jump(1));
        break;
      case OracleUnit::kExit:
        stream.insns.push_back(ExitInsn());
        break;
    }
  }
  return stream;
}

// Instruction-level successors, independent of BuildCfg: each entry is one
// edge, so a conditional jump to the next instruction yields two.
std::vector<std::vector<size_t>> InsnSuccessors(const std::vector<BpfInsn>& insns) {
  std::vector<size_t> insn_at_slot;
  for (size_t i = 0; i < insns.size(); ++i) {
    insn_at_slot.resize(insn_at_slot.size() + insns[i].Slots(), i);
  }
  std::vector<std::vector<size_t>> succs(insns.size());
  size_t slot = 0;
  for (size_t i = 0; i < insns.size(); ++i) {
    slot += insns[i].Slots();
    if (insns[i].IsJump()) {
      succs[i].push_back(insn_at_slot[slot + insns[i].offset]);
    }
    if (!insns[i].IsExit() && !insns[i].IsUncondJump() && i + 1 < insns.size()) {
      succs[i].push_back(i + 1);
    }
  }
  return succs;
}

// Instructions reachable from the entry without executing `removed`.
std::vector<bool> ReachableAvoiding(const std::vector<std::vector<size_t>>& succs,
                                    size_t removed) {
  std::vector<bool> seen(succs.size(), false);
  std::vector<size_t> work;
  if (!succs.empty() && removed != 0) {
    seen[0] = true;
    work.push_back(0);
  }
  while (!work.empty()) {
    const size_t i = work.back();
    work.pop_back();
    for (size_t s : succs[i]) {
      if (s != removed && !seen[s]) {
        seen[s] = true;
        work.push_back(s);
      }
    }
  }
  return seen;
}

TEST(GuardOracleTest, VerdictsMatchBruteForceDominance) {
  // Exists and read records for each field, bound to one program; each
  // stream rebinds copies of them to its own instructions.
  BpfObjectBuilder builder("oracle");
  builder.AttachKprobe("vfs_read");
  for (size_t f = 0; f < kOracleFields; ++f) {
    ASSERT_TRUE(builder.CheckFieldExists("task_struct", StrFormat("f%zu", f), "u64").ok());
    ASSERT_TRUE(builder.AccessField("task_struct", StrFormat("f%zu", f), "u64").ok());
  }
  const BpfObject base = builder.Build();
  ASSERT_EQ(base.relocs.size(), 2 * kOracleFields);

  size_t guarded_reads = 0;
  size_t unguarded_reads = 0;
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    Prng prng(seed);
    const std::vector<OracleUnit> units = RandomUnits(prng);
    const OracleStream stream = LowerUnits(units);
    BpfObject object = base;
    object.programs[0].insns = stream.insns;
    object.relocs.clear();
    std::vector<size_t> reloc_unit;
    for (size_t u = 0; u < units.size(); ++u) {
      if (units[u].kind == OracleUnit::kGuard || units[u].kind == OracleUnit::kRead) {
        CoreReloc reloc = base.relocs[2 * units[u].field + (units[u].kind == OracleUnit::kRead)];
        reloc.insn_off = static_cast<uint32_t>(8 * stream.unit_slot[u]);
        object.relocs.push_back(reloc);
        reloc_unit.push_back(u);
      }
    }
    ObjectAnalysis analysis = AnalyzeObject(object);

    const std::vector<std::vector<size_t>> succs = InsnSuccessors(stream.insns);
    const std::vector<bool> reachable = ReachableAvoiding(succs, succs.size());
    std::vector<size_t> inbound(succs.size(), 0);
    for (size_t i = 0; i < succs.size(); ++i) {
      for (size_t s : succs[i]) {
        inbound[s] += reachable[i] ? 1 : 0;
      }
    }
    for (size_t r = 0; r < object.relocs.size(); ++r) {
      const size_t u = reloc_unit[r];
      if (units[u].kind != OracleUnit::kRead) {
        continue;
      }
      const size_t at = stream.unit_insn[u];
      bool expect_guarded = false;
      for (size_t g = 0; g < units.size() && reachable[at]; ++g) {
        const size_t jump = stream.unit_insn[g] + 1;
        if (units[g].kind != OracleUnit::kGuard || units[g].field != units[u].field ||
            !reachable[jump]) {
          continue;
        }
        // jeq r,0 falls through when the field exists; jne r,0 jumps.
        const size_t exists = units[g].opcode == kOpJeqImm ? succs[jump][1] : succs[jump][0];
        const size_t other = units[g].opcode == kOpJeqImm ? succs[jump][0] : succs[jump][1];
        if (exists != other && inbound[exists] == 1 &&
            (at == exists || !ReachableAvoiding(succs, exists)[at])) {
          expect_guarded = true;
        }
      }
      EXPECT_EQ(analysis.relocs[r].unguarded, !expect_guarded)
          << "seed " << seed << ", read unit " << u;
      ++(expect_guarded ? guarded_reads : unguarded_reads);
    }
  }
  // The streams exercise both verdicts, not just one.
  EXPECT_GT(guarded_reads, 100u);
  EXPECT_GT(unguarded_reads, 100u);
}

}  // namespace
}  // namespace depsurf
