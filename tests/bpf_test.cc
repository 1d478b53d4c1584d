#include <gtest/gtest.h>

#include "src/bpf/bpf_builder.h"
#include "src/bpf/bpf_object.h"
#include "src/elf/elf_reader.h"

namespace depsurf {
namespace {

TEST(HookSectionTest, ParseKnownForms) {
  auto k = ParseHookSection("kprobe/do_unlinkat");
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ(k->kind, HookKind::kKprobe);
  EXPECT_EQ(k->target, "do_unlinkat");

  auto kr = ParseHookSection("kretprobe/vfs_read");
  ASSERT_TRUE(kr.has_value());
  EXPECT_EQ(kr->kind, HookKind::kKretprobe);

  auto tp = ParseHookSection("tracepoint/block/block_rq_issue");
  ASSERT_TRUE(tp.has_value());
  EXPECT_EQ(tp->kind, HookKind::kTracepoint);
  EXPECT_EQ(tp->category, "block");
  EXPECT_EQ(tp->target, "block_rq_issue");

  auto tp2 = ParseHookSection("tp/sched/sched_switch");
  ASSERT_TRUE(tp2.has_value());
  EXPECT_EQ(tp2->target, "sched_switch");

  auto raw = ParseHookSection("raw_tracepoint/sched_switch");
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(raw->kind, HookKind::kRawTracepoint);

  auto sc = ParseHookSection("tracepoint/syscalls/sys_enter_openat");
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->kind, HookKind::kSyscallEnter);
  EXPECT_EQ(sc->target, "openat");

  auto sx = ParseHookSection("tp/syscalls/sys_exit_close");
  ASSERT_TRUE(sx.has_value());
  EXPECT_EQ(sx->kind, HookKind::kSyscallExit);
  EXPECT_EQ(sx->target, "close");

  EXPECT_TRUE(ParseHookSection("lsm/file_open").has_value());
  EXPECT_TRUE(ParseHookSection("fentry/vfs_fsync").has_value());
  EXPECT_FALSE(ParseHookSection(".maps").has_value());
  EXPECT_FALSE(ParseHookSection("license").has_value());
  EXPECT_FALSE(ParseHookSection("tracepoint/onlyonepart").has_value());
  EXPECT_FALSE(ParseHookSection("tracepoint/syscalls/unrelated").has_value());
}

TEST(HookSectionTest, ParseModernSpellings) {
  // libbpf section spellings newer tools emit: multi-attach kprobes,
  // sleepable fentry/lsm variants, and fmod_ret (which attaches at function
  // entry via the same trampoline as fentry).
  auto multi = ParseHookSection("kprobe.multi/vfs_*");
  ASSERT_TRUE(multi.has_value());
  EXPECT_EQ(multi->kind, HookKind::kKprobe);
  EXPECT_EQ(multi->target, "vfs_*");

  auto sleepable = ParseHookSection("fentry.s/vfs_fsync");
  ASSERT_TRUE(sleepable.has_value());
  EXPECT_EQ(sleepable->kind, HookKind::kFentry);
  EXPECT_EQ(sleepable->target, "vfs_fsync");

  auto fmod = ParseHookSection("fmod_ret/security_file_open");
  ASSERT_TRUE(fmod.has_value());
  EXPECT_EQ(fmod->kind, HookKind::kFentry);
  EXPECT_EQ(fmod->target, "security_file_open");

  auto lsm_s = ParseHookSection("lsm.s/bprm_check_security");
  ASSERT_TRUE(lsm_s.has_value());
  EXPECT_EQ(lsm_s->kind, HookKind::kLsm);
  EXPECT_EQ(lsm_s->target, "bprm_check_security");
}

TEST(HookSectionTest, FexitObjectRoundTrip) {
  BpfObjectBuilder builder("exitprobe");
  builder.AttachFexit("vfs_read");
  BpfObject original = builder.Build();
  ASSERT_EQ(original.programs.size(), 1u);
  EXPECT_EQ(HookSectionName(original.programs[0].hook), "fexit/vfs_read");

  auto bytes = WriteBpfObject(original);
  ASSERT_TRUE(bytes.ok()) << bytes.error().ToString();
  auto parsed = ParseBpfObject(bytes.TakeValue());
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  ASSERT_EQ(parsed->programs.size(), 1u);
  EXPECT_EQ(parsed->programs[0].hook.kind, HookKind::kFexit);
  EXPECT_EQ(parsed->programs[0].hook.target, "vfs_read");
}

TEST(HookSectionTest, RoundTripNames) {
  for (const char* name :
       {"kprobe/do_unlinkat", "kretprobe/vfs_read", "tracepoint/block/block_rq_issue",
        "raw_tracepoint/sched_switch", "tracepoint/syscalls/sys_enter_openat",
        "tracepoint/syscalls/sys_exit_close", "fentry/vfs_fsync", "lsm/file_open"}) {
    auto hook = ParseHookSection(name);
    ASSERT_TRUE(hook.has_value()) << name;
    EXPECT_EQ(HookSectionName(*hook), name);
  }
}

TEST(BpfBuilderTest, BuildsBiotopLikeObject) {
  BpfObjectBuilder builder("biotop");
  builder.AttachKprobe("blk_account_io_start")
      .AttachKprobe("blk_account_io_done")
      .AttachKprobe("blk_mq_start_request");
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder
                  .AccessChain({{"request", "rq_disk", "struct gendisk *"},
                                {"gendisk", "disk_name", "char[32]"}})
                  .ok());
  BpfObject object = builder.Build();
  EXPECT_EQ(object.programs.size(), 3u);
  EXPECT_EQ(object.relocs.size(), 2u);

  // The chained access resolves to both links.
  auto chain = ResolveReloc(object.btf, object.relocs[1]);
  ASSERT_TRUE(chain.ok()) << chain.error().ToString();
  ASSERT_EQ(chain->size(), 2u);
  EXPECT_EQ((*chain)[0].struct_name, "request");
  EXPECT_EQ((*chain)[0].field_name, "rq_disk");
  EXPECT_EQ((*chain)[0].field_type, "struct gendisk *");
  EXPECT_EQ((*chain)[1].struct_name, "gendisk");
  EXPECT_EQ((*chain)[1].field_name, "disk_name");
}

TEST(BpfBuilderTest, FieldExistsCheck) {
  BpfObjectBuilder builder("probe");
  ASSERT_TRUE(builder.CheckFieldExists("request_queue", "disk", "struct gendisk *").ok());
  BpfObject object = builder.Build();
  ASSERT_EQ(object.relocs.size(), 1u);
  EXPECT_EQ(object.relocs[0].kind, CoreRelocKind::kFieldExists);
  auto access = ResolveReloc(object.btf, object.relocs[0]);
  ASSERT_TRUE(access.ok());
  EXPECT_TRUE((*access)[0].exists_check);
}

TEST(BpfBuilderTest, RepeatedAccessReusesFieldIndex) {
  BpfObjectBuilder builder("tool");
  ASSERT_TRUE(builder.AccessField("task_struct", "pid", "pid_t").ok());
  ASSERT_TRUE(builder.AccessField("task_struct", "comm", "char[16]").ok());
  ASSERT_TRUE(builder.AccessField("task_struct", "pid", "pid_t").ok());
  BpfObject object = builder.Build();
  ASSERT_EQ(object.relocs.size(), 3u);
  EXPECT_EQ(object.relocs[0].access_str, "0:0");
  EXPECT_EQ(object.relocs[1].access_str, "0:1");
  EXPECT_EQ(object.relocs[2].access_str, "0:0");
}

TEST(BpfCodecTest, ObjectRoundTrip) {
  BpfObjectBuilder builder("opensnoop");
  builder.AttachSyscall("openat").AttachSyscall("openat", /*exit=*/true);
  builder.AttachTracepoint("sched", "sched_process_exit");
  ASSERT_TRUE(builder.AccessField("task_struct", "pid", "pid_t").ok());
  BpfObject original = builder.Build();

  auto bytes = WriteBpfObject(original);
  ASSERT_TRUE(bytes.ok()) << bytes.error().ToString();
  auto parsed = ParseBpfObject(bytes.TakeValue());
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();

  EXPECT_EQ(parsed->name, "opensnoop");
  ASSERT_EQ(parsed->programs.size(), original.programs.size());
  for (size_t i = 0; i < original.programs.size(); ++i) {
    EXPECT_EQ(parsed->programs[i].hook, original.programs[i].hook);
    EXPECT_EQ(parsed->programs[i].name, original.programs[i].name);
  }
  EXPECT_EQ(parsed->relocs, original.relocs);
  EXPECT_EQ(parsed->btf.num_types(), original.btf.num_types());
  auto access = ResolveReloc(parsed->btf, parsed->relocs[0]);
  ASSERT_TRUE(access.ok());
  EXPECT_EQ((*access)[0].struct_name, "task_struct");
}

TEST(BpfCodecTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseBpfObject({1, 2, 3}).ok());
}

TEST(BpfInsnTest, EncodeDecodeRoundTrip) {
  std::vector<BpfInsn> insns = {
      LoadImm64(3, 0x1122334455667788),
      LoadField(2, 1, 0),
      LoadField(4, 1, 104, kOpLdxMemW),
      MovImm(0, -1),
      JumpEqImm(3, 0, 2),
      CallHelperInsn(25),
      JumpAlways(-3),
      ExitInsn(),
  };
  std::vector<uint8_t> bytes = EncodeInsns(insns);
  EXPECT_EQ(bytes.size(), EncodedSize(insns));
  // ld_imm64 occupies two 8-byte slots.
  EXPECT_EQ(bytes.size(), (insns.size() + 1) * 8);

  ByteReader reader(bytes, Endian::kLittle);
  std::vector<BpfInsn> decoded = DecodeInsns(reader, nullptr);
  ASSERT_EQ(decoded.size(), insns.size());
  for (size_t i = 0; i < insns.size(); ++i) {
    EXPECT_EQ(decoded[i], insns[i]) << "insn " << i << ": " << insns[i].ToString();
  }
  EXPECT_EQ(decoded[0].Imm64(), 0x1122334455667788);
}

TEST(BpfInsnTest, DecodeSalvagesTruncatedStream) {
  std::vector<BpfInsn> insns = {LoadField(2, 1, 0), ExitInsn()};
  std::vector<uint8_t> bytes = EncodeInsns(insns);
  bytes.resize(bytes.size() - 3);  // cut mid-slot

  DiagnosticLedger ledger;
  ByteReader reader(bytes, Endian::kLittle);
  std::vector<BpfInsn> decoded = DecodeInsns(reader, &ledger);
  ASSERT_EQ(decoded.size(), 1u);  // prefix survives
  EXPECT_EQ(decoded[0], insns[0]);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.entries()[0].subsystem, DiagSubsystem::kBpf);
  EXPECT_TRUE(ledger.entries()[0].has_offset);
  EXPECT_EQ(ledger.entries()[0].offset, 8u);
}

TEST(BpfInsnTest, DecodeSalvagesUnknownOpcode) {
  std::vector<BpfInsn> insns = {MovImm(0, 0), ExitInsn()};
  std::vector<uint8_t> bytes = EncodeInsns(insns);
  bytes[8] = 0xff;  // clobber the second opcode

  DiagnosticLedger ledger;
  ByteReader reader(bytes, Endian::kLittle);
  std::vector<BpfInsn> decoded = DecodeInsns(reader, &ledger);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], insns[0]);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.entries()[0].offset, 8u);
}

TEST(BpfInsnTest, DecodeSalvagesWideInsnMissingSecondSlot) {
  std::vector<BpfInsn> insns = {ExitInsn(), LoadImm64(1, 42)};
  std::vector<uint8_t> bytes = EncodeInsns(insns);
  bytes.resize(16);  // keep exit + the first slot of the ld_imm64 only

  DiagnosticLedger ledger;
  ByteReader reader(bytes, Endian::kLittle);
  std::vector<BpfInsn> decoded = DecodeInsns(reader, &ledger);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_TRUE(decoded[0].IsExit());
  EXPECT_EQ(ledger.size(), 1u);
}

TEST(BpfBuilderTest, EmitsInsnStreamWithRelocBindings) {
  BpfObjectBuilder builder("probe");
  builder.AttachKprobe("vfs_fsync");
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  builder.CallHelper(6);
  BpfObject object = builder.Build();

  ASSERT_EQ(object.programs.size(), 1u);
  const std::vector<BpfInsn>& insns = object.programs[0].insns;
  // load (reloc), call, synthesized exit
  ASSERT_EQ(insns.size(), 3u);
  EXPECT_TRUE(insns[0].IsLoad());
  EXPECT_TRUE(insns[1].IsCall());
  EXPECT_TRUE(insns[2].IsExit());

  ASSERT_EQ(object.relocs.size(), 1u);
  EXPECT_EQ(object.relocs[0].prog_index, 0u);
  EXPECT_EQ(object.relocs[0].insn_off, 0u);
}

TEST(BpfBuilderTest, GuardEmitsPatchedBranch) {
  BpfObjectBuilder builder("probe");
  builder.AttachKprobe("vfs_fsync");
  ASSERT_TRUE(builder.BeginGuard("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.EndGuard().ok());
  BpfObject object = builder.Build();

  const std::vector<BpfInsn>& insns = object.programs[0].insns;
  // ld_imm64 (exists probe), jeq, load, exit
  ASSERT_EQ(insns.size(), 4u);
  EXPECT_EQ(insns[0].opcode, kOpLdImm64);
  EXPECT_EQ(insns[1].opcode, kOpJeqImm);
  // The branch skips the guarded body: from the slot after the jeq (slot 3,
  // since ld_imm64 is two slots) to the end-of-guard slot (4).
  EXPECT_EQ(insns[1].offset, 1);
  EXPECT_TRUE(insns[2].IsLoad());

  // Both relocs bound; the exists probe binds at byte 0, the load after the
  // two-slot ld_imm64 + jeq at byte 24.
  ASSERT_EQ(object.relocs.size(), 2u);
  EXPECT_EQ(object.relocs[0].kind, CoreRelocKind::kFieldExists);
  EXPECT_EQ(object.relocs[0].insn_off, 0u);
  EXPECT_EQ(object.relocs[1].kind, CoreRelocKind::kFieldByteOffset);
  EXPECT_EQ(object.relocs[1].insn_off, 24u);
}

TEST(BpfCodecTest, InsnStreamRoundTrip) {
  BpfObjectBuilder builder("probe");
  builder.AttachKprobe("vfs_fsync");
  ASSERT_TRUE(builder.BeginGuard("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.EndGuard().ok());
  builder.CallHelper(25).RawOffsetDeref(104);
  BpfObject original = builder.Build();

  auto bytes = WriteBpfObject(original);
  ASSERT_TRUE(bytes.ok());
  auto parsed = ParseBpfObject(bytes.TakeValue());
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  ASSERT_EQ(parsed->programs.size(), 1u);
  EXPECT_EQ(parsed->programs[0].insns, original.programs[0].insns);
  EXPECT_EQ(parsed->relocs, original.relocs);
}

TEST(BpfCodecTest, DanglingProgIndexClampedToUnbound) {
  BpfObjectBuilder builder("probe");
  builder.AttachKprobe("vfs_fsync");
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  BpfObject object = builder.Build();
  object.relocs[0].prog_index = 7;  // no such program

  auto bytes = WriteBpfObject(object);
  ASSERT_TRUE(bytes.ok());
  DiagnosticLedger ledger;
  auto parsed = ParseBpfObject(bytes.TakeValue(), &ledger);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->relocs[0].prog_index, kRelocUnbound);
  EXPECT_FALSE(ledger.empty());
}

// A one-program object (kprobe/vfs_fsync: a field load, then exit).
BpfObject ProbeObject() {
  BpfObjectBuilder builder("probe");
  builder.AttachKprobe("vfs_fsync");
  Status ok = builder.AccessField("request", "rq_disk", "struct gendisk *");
  EXPECT_TRUE(ok.ok());
  return builder.Build();
}

// Overwrites `width` bytes at `field` in the header of the object's program
// section (64-bit little-endian ELF, as WriteBpfObject emits).
void PatchProgramSectionHeader(std::vector<uint8_t>& bytes, size_t field, size_t width,
                               uint64_t value) {
  auto elf = ElfReader::Parse(bytes);
  ASSERT_TRUE(elf.ok());
  size_t index = 0;
  while (elf->sections()[index].name != "kprobe/vfs_fsync") {
    ++index;
  }
  uint64_t shoff = 0;
  for (int b = 7; b >= 0; --b) {
    shoff = shoff << 8 | bytes[0x28 + b];
  }
  const size_t at = shoff + index * 64 + field;
  for (size_t b = 0; b < width; ++b) {
    bytes[at + b] = static_cast<uint8_t>(value >> (8 * b));
  }
}

constexpr size_t kShType = 0x04;
constexpr size_t kShSize = 0x20;

// Without a ledger the parse is strict: the damage a salvage parse records
// as its one ledger entry is the strict parse's error instead.
void ExpectStrictParseFailsAsSalvageRecords(const std::vector<uint8_t>& bytes) {
  DiagnosticLedger ledger;
  auto salvaged = ParseBpfObject(bytes, &ledger);
  ASSERT_TRUE(salvaged.ok()) << salvaged.error().ToString();
  ASSERT_EQ(ledger.size(), 1u);
  auto strict = ParseBpfObject(bytes);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.error().message(), ledger.entries()[0].message);
  EXPECT_EQ(strict.error().code(), ledger.entries()[0].code);
}

TEST(BpfCodecTest, StrictParseRejectsUnreadableProgramSection) {
  // A NOBITS body passes the ELF bounds check; only reading it fails.
  std::vector<uint8_t> bytes = WriteBpfObject(ProbeObject()).TakeValue();
  PatchProgramSectionHeader(bytes, kShType, 4, static_cast<uint64_t>(SectionType::kNobits));
  PatchProgramSectionHeader(bytes, kShSize, 8, uint64_t{1} << 30);
  ExpectStrictParseFailsAsSalvageRecords(bytes);
}

TEST(BpfCodecTest, StrictParseRejectsTrailingPartialSlot) {
  std::vector<uint8_t> bytes = WriteBpfObject(ProbeObject()).TakeValue();
  PatchProgramSectionHeader(bytes, kShSize, 8, 13);  // two slots, cut mid-second
  ExpectStrictParseFailsAsSalvageRecords(bytes);
}

TEST(BpfCodecTest, StrictParseRejectsUnknownOpcode) {
  std::vector<uint8_t> bytes = WriteBpfObject(ProbeObject()).TakeValue();
  auto elf = ElfReader::Parse(bytes);
  ASSERT_TRUE(elf.ok());
  const ElfSectionView* section = elf->SectionByName("kprobe/vfs_fsync");
  ASSERT_NE(section, nullptr);
  bytes[section->offset + 8] = 0xff;  // the exit's opcode
  ExpectStrictParseFailsAsSalvageRecords(bytes);
}

TEST(BpfCodecTest, StrictParseRejectsLdImm64MissingSecondSlot) {
  BpfObject object = ProbeObject();
  object.programs[0].insns = {ExitInsn(), LoadImm64(1, 42)};
  std::vector<uint8_t> bytes = WriteBpfObject(object).TakeValue();
  PatchProgramSectionHeader(bytes, kShSize, 8, 16);  // drop the ld_imm64's second slot
  ExpectStrictParseFailsAsSalvageRecords(bytes);
}

TEST(BpfCodecTest, StrictParseRejectsRelocBoundToMissingProgram) {
  BpfObject object = ProbeObject();
  object.relocs[0].prog_index = 7;  // no such program
  ExpectStrictParseFailsAsSalvageRecords(WriteBpfObject(object).TakeValue());
}

TEST(ResolveRelocTest, ErrorsOnBadAccess) {
  TypeGraph btf;
  BtfTypeId i = btf.Int("int", 4);
  BtfTypeId st = btf.Struct("s", 4, {{"x", i, 0}});
  CoreReloc reloc{st, "0:7", CoreRelocKind::kFieldByteOffset};
  EXPECT_FALSE(ResolveReloc(btf, reloc).ok());  // index out of range
  CoreReloc through_int{st, "0:0:0", CoreRelocKind::kFieldByteOffset};
  EXPECT_FALSE(ResolveReloc(btf, through_int).ok());  // int is not a struct
  CoreReloc empty{st, "", CoreRelocKind::kFieldByteOffset};
  auto result = ResolveReloc(btf, empty);
  EXPECT_TRUE(!result.ok() || result->empty());
  CoreReloc bad_index{st, "0:x", CoreRelocKind::kFieldByteOffset};
  EXPECT_FALSE(ResolveReloc(btf, bad_index).ok());
}

// Object BTF is request input for `serve`, `analyze` and `fix`: a member
// whose type fans out (a PTR to a FUNC_PROTO returning and taking that PTR)
// must render in bounded time and size.
TEST(ResolveRelocTest, FanOutMemberTypeRendersBounded) {
  TypeGraph btf;
  const BtfTypeId proto = btf.num_types() + 2;
  BtfTypeId fan = btf.Ptr(proto);
  ASSERT_EQ(btf.FuncProto(fan, {{"a", fan}, {"b", fan}}), proto);
  BtfTypeId st = btf.Struct("ops", 8, {{"cb", fan, 0}});
  CoreReloc reloc{st, "0:0", CoreRelocKind::kFieldByteOffset};
  auto chain = ResolveReloc(btf, reloc);
  ASSERT_TRUE(chain.ok()) << chain.error().ToString();
  ASSERT_EQ(chain->size(), 1u);
  EXPECT_EQ((*chain)[0].field_name, "cb");
  EXPECT_LT((*chain)[0].field_type.size(), 8192u);
  EXPECT_NE((*chain)[0].field_type.find("<cycle>"), std::string::npos);
}

}  // namespace
}  // namespace depsurf
