#include "src/core/dataset_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/util/byte_buffer.h"
#include "src/util/leb128.h"

namespace depsurf {

namespace {

constexpr uint8_t kFlagExactSymbol = 1 << 0;
constexpr uint8_t kFlagFullInline = 1 << 1;
constexpr uint8_t kFlagSelective = 1 << 2;
constexpr uint8_t kFlagTransformed = 1 << 3;
constexpr uint8_t kFlagDuplicated = 1 << 4;
constexpr uint8_t kFlagCollided = 1 << 5;
constexpr uint8_t kFlagExternal = 1 << 6;

uint8_t PackStatus(const FunctionStatus& status) {
  uint8_t flags = 0;
  flags |= status.has_exact_symbol ? kFlagExactSymbol : 0;
  flags |= status.fully_inlined ? kFlagFullInline : 0;
  flags |= status.selectively_inlined ? kFlagSelective : 0;
  flags |= status.transformed ? kFlagTransformed : 0;
  flags |= status.duplicated ? kFlagDuplicated : 0;
  flags |= status.collided ? kFlagCollided : 0;
  flags |= status.external ? kFlagExternal : 0;
  return flags;
}

FunctionStatus UnpackStatus(uint8_t flags, std::string suffix) {
  FunctionStatus status;
  status.has_exact_symbol = (flags & kFlagExactSymbol) != 0;
  status.fully_inlined = (flags & kFlagFullInline) != 0;
  status.selectively_inlined = (flags & kFlagSelective) != 0;
  status.transformed = (flags & kFlagTransformed) != 0;
  status.duplicated = (flags & kFlagDuplicated) != 0;
  status.collided = (flags & kFlagCollided) != 0;
  status.external = (flags & kFlagExternal) != 0;
  status.transform_suffix = std::move(suffix);
  return status;
}

void WritePairs(ByteWriter& w, const std::vector<std::pair<StrId, StrId>>& pairs) {
  WriteUleb128(w, pairs.size());
  for (const auto& [a, b] : pairs) {
    WriteUleb128(w, a);
    WriteUleb128(w, b);
  }
}

Result<std::vector<std::pair<StrId, StrId>>> ReadPairs(ByteReader& r, size_t max_id) {
  DEPSURF_ASSIGN_OR_RETURN(count, ReadUleb128(r));
  if (count > r.remaining()) {
    return Error(ErrorCode::kMalformedData, "pair count beyond buffer");
  }
  std::vector<std::pair<StrId, StrId>> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    DEPSURF_ASSIGN_OR_RETURN(a, ReadUleb128(r));
    DEPSURF_ASSIGN_OR_RETURN(b, ReadUleb128(r));
    if (a >= max_id || b >= max_id) {
      return Error(ErrorCode::kMalformedData, "string id out of range");
    }
    out.emplace_back(static_cast<StrId>(a), static_cast<StrId>(b));
  }
  return out;
}

}  // namespace

std::vector<uint8_t> SaveDataset(const Dataset& dataset) {
  ByteWriter w(Endian::kLittle);
  w.WriteU32(kDatasetMagic);
  WriteUleb128(w, dataset.pool_size());
  WriteUleb128(w, dataset.num_images());
  for (size_t i = 0; i < dataset.pool_size(); ++i) {
    w.WriteCString(dataset.StringAt(static_cast<StrId>(i)));
  }
  // Suffix strings are interned too; record a suffix id per function. Any
  // suffix seen must already be in the pool (AddImage interned names/types
  // only), so serialize suffixes inline as cstrings instead.
  for (const ImageRecord& image : dataset.images()) {
    w.WriteCString(image.label);
    w.WriteU16(static_cast<uint16_t>(image.meta.version_major));
    w.WriteU16(static_cast<uint16_t>(image.meta.version_minor));
    w.WriteCString(image.meta.flavor);
    w.WriteCString(image.meta.arch);
    w.WriteU8(static_cast<uint8_t>(image.meta.gcc_major));
    w.WriteU8(static_cast<uint8_t>(image.meta.pointer_size));
    w.WriteU8(image.meta.endian == Endian::kBig ? 1 : 0);
    w.WriteU32(image.meta.config_options);
    w.WriteU8(image.meta.compat_syscalls_traceable ? 1 : 0);
    w.WriteU64(image.pt_regs_hash);

    WriteUleb128(w, image.funcs.size());
    for (const auto& [name, record] : image.funcs) {
      WriteUleb128(w, name);
      w.WriteU8(PackStatus(record.status));
      w.WriteCString(record.status.transform_suffix);
      w.WriteU64(record.decl_hash);
      // kNoStr sentinel encodes as pool_size (never a valid id).
      WriteUleb128(w, record.decl == Dataset::kNoStr ? dataset.pool_size() : record.decl);
    }
    WriteUleb128(w, image.structs.size());
    for (const auto& [name, record] : image.structs) {
      WriteUleb128(w, name);
      WritePairs(w, record.fields);
    }
    WriteUleb128(w, image.tracepoints.size());
    for (const auto& [name, record] : image.tracepoints) {
      WriteUleb128(w, name);
      WritePairs(w, record.func_params);
      WritePairs(w, record.event_fields);
    }
    WriteUleb128(w, image.syscalls.size());
    for (StrId id : image.syscalls) {
      WriteUleb128(w, id);
    }

    // Salvage provenance: per-subsystem degradation states, then the
    // diagnostic ledger (messages inline; they are rare and unpooled).
    w.WriteU8(static_cast<uint8_t>(image.health.elf));
    w.WriteU8(static_cast<uint8_t>(image.health.dwarf));
    w.WriteU8(static_cast<uint8_t>(image.health.btf));
    w.WriteU8(static_cast<uint8_t>(image.health.tracepoint));
    w.WriteU8(static_cast<uint8_t>(image.health.syscall));
    const auto& entries = image.health.ledger.entries();
    WriteUleb128(w, entries.size());
    for (const DiagnosticEntry& entry : entries) {
      w.WriteU8(static_cast<uint8_t>(entry.severity));
      w.WriteU8(static_cast<uint8_t>(entry.subsystem));
      w.WriteU8(static_cast<uint8_t>(entry.code));
      w.WriteU8(entry.has_offset ? 1 : 0);
      w.WriteU64(entry.offset);
      w.WriteCString(entry.message);
    }
  }
  return w.TakeBytes();
}

Result<Dataset> LoadDataset(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes, Endian::kLittle);
  DEPSURF_ASSIGN_OR_RETURN(magic, r.ReadU32());
  if (magic != kDatasetMagic) {
    return Error(ErrorCode::kMalformedData, "not a depsurf dataset (bad magic)");
  }
  DEPSURF_ASSIGN_OR_RETURN(num_strings, ReadUleb128(r));
  DEPSURF_ASSIGN_OR_RETURN(num_images, ReadUleb128(r));
  if (num_strings > bytes.size() || num_images > bytes.size()) {
    return Error(ErrorCode::kMalformedData, "counts beyond buffer");
  }
  Dataset dataset;
  for (uint64_t i = 0; i < num_strings; ++i) {
    DEPSURF_ASSIGN_OR_RETURN(s, r.ReadCString());
    // Fresh interning assigns sequential ids, so saved ids stay valid.
    StrId id = dataset.Intern(s);
    if (id != i) {
      return Error(ErrorCode::kMalformedData, "duplicate string in pool");
    }
  }
  dataset.FlushInternMetrics();
  for (uint64_t image_index = 0; image_index < num_images; ++image_index) {
    ImageRecord image;
    DEPSURF_ASSIGN_OR_RETURN(label, r.ReadCString());
    image.label = std::move(label);
    DEPSURF_ASSIGN_OR_RETURN(major, r.ReadU16());
    image.meta.version_major = major;
    DEPSURF_ASSIGN_OR_RETURN(minor, r.ReadU16());
    image.meta.version_minor = minor;
    DEPSURF_ASSIGN_OR_RETURN(flavor, r.ReadCString());
    image.meta.flavor = std::move(flavor);
    DEPSURF_ASSIGN_OR_RETURN(arch, r.ReadCString());
    image.meta.arch = std::move(arch);
    DEPSURF_ASSIGN_OR_RETURN(gcc, r.ReadU8());
    image.meta.gcc_major = gcc;
    DEPSURF_ASSIGN_OR_RETURN(pointer_size, r.ReadU8());
    image.meta.pointer_size = pointer_size;
    DEPSURF_ASSIGN_OR_RETURN(endian, r.ReadU8());
    image.meta.endian = endian == 1 ? Endian::kBig : Endian::kLittle;
    DEPSURF_ASSIGN_OR_RETURN(config, r.ReadU32());
    image.meta.config_options = config;
    DEPSURF_ASSIGN_OR_RETURN(compat, r.ReadU8());
    image.meta.compat_syscalls_traceable = compat != 0;
    image.compat_syscalls_traceable = image.meta.compat_syscalls_traceable;
    DEPSURF_ASSIGN_OR_RETURN(pt_regs_hash, r.ReadU64());
    image.pt_regs_hash = pt_regs_hash;

    DEPSURF_ASSIGN_OR_RETURN(num_funcs, ReadUleb128(r));
    if (num_funcs > r.remaining()) {
      return Error(ErrorCode::kMalformedData, "function count beyond buffer");
    }
    for (uint64_t i = 0; i < num_funcs; ++i) {
      DEPSURF_ASSIGN_OR_RETURN(name, ReadUleb128(r));
      if (name >= num_strings) {
        return Error(ErrorCode::kMalformedData, "function name id out of range");
      }
      DEPSURF_ASSIGN_OR_RETURN(flags, r.ReadU8());
      DEPSURF_ASSIGN_OR_RETURN(suffix, r.ReadCString());
      DEPSURF_ASSIGN_OR_RETURN(decl_hash, r.ReadU64());
      DEPSURF_ASSIGN_OR_RETURN(decl, ReadUleb128(r));
      if (decl > num_strings) {
        return Error(ErrorCode::kMalformedData, "decl id out of range");
      }
      FuncRecord record;
      record.status = UnpackStatus(flags, std::move(suffix));
      record.decl_hash = decl_hash;
      record.decl = decl == num_strings ? Dataset::kNoStr : static_cast<StrId>(decl);
      image.funcs.emplace(static_cast<StrId>(name), std::move(record));
    }
    DEPSURF_ASSIGN_OR_RETURN(num_structs, ReadUleb128(r));
    if (num_structs > r.remaining()) {
      return Error(ErrorCode::kMalformedData, "struct count beyond buffer");
    }
    for (uint64_t i = 0; i < num_structs; ++i) {
      DEPSURF_ASSIGN_OR_RETURN(name, ReadUleb128(r));
      if (name >= num_strings) {
        return Error(ErrorCode::kMalformedData, "struct name id out of range");
      }
      StructRecord record;
      DEPSURF_ASSIGN_OR_RETURN(fields, ReadPairs(r, num_strings));
      record.fields = std::move(fields);
      image.structs.emplace(static_cast<StrId>(name), std::move(record));
    }
    DEPSURF_ASSIGN_OR_RETURN(num_tracepoints, ReadUleb128(r));
    if (num_tracepoints > r.remaining()) {
      return Error(ErrorCode::kMalformedData, "tracepoint count beyond buffer");
    }
    for (uint64_t i = 0; i < num_tracepoints; ++i) {
      DEPSURF_ASSIGN_OR_RETURN(name, ReadUleb128(r));
      if (name >= num_strings) {
        return Error(ErrorCode::kMalformedData, "tracepoint name id out of range");
      }
      TracepointRecord record;
      DEPSURF_ASSIGN_OR_RETURN(params, ReadPairs(r, num_strings));
      record.func_params = std::move(params);
      DEPSURF_ASSIGN_OR_RETURN(fields, ReadPairs(r, num_strings));
      record.event_fields = std::move(fields);
      image.tracepoints.emplace(static_cast<StrId>(name), std::move(record));
    }
    DEPSURF_ASSIGN_OR_RETURN(num_syscalls, ReadUleb128(r));
    if (num_syscalls > r.remaining()) {
      return Error(ErrorCode::kMalformedData, "syscall count beyond buffer");
    }
    for (uint64_t i = 0; i < num_syscalls; ++i) {
      DEPSURF_ASSIGN_OR_RETURN(id, ReadUleb128(r));
      if (id >= num_strings) {
        return Error(ErrorCode::kMalformedData, "syscall id out of range");
      }
      image.syscalls.insert(static_cast<StrId>(id));
    }

    auto read_state = [&r]() -> Result<DegradationState> {
      DEPSURF_ASSIGN_OR_RETURN(raw, r.ReadU8());
      if (raw > static_cast<uint8_t>(DegradationState::kMissing)) {
        return Error(ErrorCode::kMalformedData, "bad degradation state");
      }
      return static_cast<DegradationState>(raw);
    };
    DEPSURF_ASSIGN_OR_RETURN(elf_state, read_state());
    image.health.elf = elf_state;
    DEPSURF_ASSIGN_OR_RETURN(dwarf_state, read_state());
    image.health.dwarf = dwarf_state;
    DEPSURF_ASSIGN_OR_RETURN(btf_state, read_state());
    image.health.btf = btf_state;
    DEPSURF_ASSIGN_OR_RETURN(tracepoint_state, read_state());
    image.health.tracepoint = tracepoint_state;
    DEPSURF_ASSIGN_OR_RETURN(syscall_state, read_state());
    image.health.syscall = syscall_state;
    DEPSURF_ASSIGN_OR_RETURN(num_diags, ReadUleb128(r));
    if (num_diags > r.remaining()) {
      return Error(ErrorCode::kMalformedData, "diagnostic count beyond buffer");
    }
    for (uint64_t i = 0; i < num_diags; ++i) {
      DEPSURF_ASSIGN_OR_RETURN(severity, r.ReadU8());
      if (severity > static_cast<uint8_t>(DiagSeverity::kFatal)) {
        return Error(ErrorCode::kMalformedData, "bad diagnostic severity");
      }
      DEPSURF_ASSIGN_OR_RETURN(subsystem, r.ReadU8());
      if (subsystem > static_cast<uint8_t>(DiagSubsystem::kBpf)) {
        return Error(ErrorCode::kMalformedData, "bad diagnostic subsystem");
      }
      DEPSURF_ASSIGN_OR_RETURN(code, r.ReadU8());
      if (code > static_cast<uint8_t>(ErrorCode::kIoError)) {
        return Error(ErrorCode::kMalformedData, "bad diagnostic error code");
      }
      DEPSURF_ASSIGN_OR_RETURN(has_offset, r.ReadU8());
      DEPSURF_ASSIGN_OR_RETURN(offset, r.ReadU64());
      DEPSURF_ASSIGN_OR_RETURN(message, r.ReadCString());
      if (has_offset != 0) {
        image.health.ledger.AddAt(static_cast<DiagSeverity>(severity),
                                  static_cast<DiagSubsystem>(subsystem),
                                  static_cast<ErrorCode>(code), offset,
                                  std::move(message));
      } else {
        image.health.ledger.Add(static_cast<DiagSeverity>(severity),
                                static_cast<DiagSubsystem>(subsystem),
                                static_cast<ErrorCode>(code), std::move(message));
      }
    }
    dataset.RestoreImage(std::move(image));
  }
  return dataset;
}

// ---------------------------------------------------------------------------
// `.dds` v2: page-aligned sections + flat sorted record arrays (mmap path).
// ---------------------------------------------------------------------------

namespace {

// Section kinds, also the section-table order. sections_ is indexed by kind.
constexpr uint32_t kSecStringOffsets = 1;  // u64[string_count + 1]
constexpr uint32_t kSecStringBlob = 2;     // NUL-terminated string bodies
constexpr uint32_t kSecStringSorted = 3;   // u32[string_count], lexicographic
constexpr uint32_t kSecImages = 4;         // fixed 88-byte image headers
constexpr uint32_t kSecFuncs = 5;          // 24-byte entries, sorted by name
constexpr uint32_t kSecStructs = 6;        // 12-byte entries, sorted by name
constexpr uint32_t kSecTracepoints = 7;    // 20-byte entries, sorted by name
constexpr uint32_t kSecSyscalls = 8;       // u32 name ids, ascending
constexpr uint32_t kSecPairs = 9;          // (u32, u32) flattened field lists
constexpr uint32_t kSecDiags = 10;         // 16-byte ledger entries
constexpr uint32_t kV2SectionCount = 10;

constexpr size_t kV2HeaderSize = 40;
constexpr size_t kV2SectionEntrySize = 24;
constexpr size_t kV2ImageHeaderSize = 88;
constexpr size_t kV2FuncEntrySize = 24;
constexpr size_t kV2StructEntrySize = 12;
constexpr size_t kV2TracepointEntrySize = 20;
constexpr size_t kV2PairSize = 8;
constexpr size_t kV2DiagEntrySize = 16;

// Offsets of the begin/count range pairs inside an image header.
constexpr size_t kImgFuncRange = 40;
constexpr size_t kImgStructRange = 48;
constexpr size_t kImgTracepointRange = 56;
constexpr size_t kImgSyscallRange = 64;
constexpr size_t kImgDiagRange = 72;

uint16_t LoadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) | static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

DegradationState ClampState(uint8_t raw) {
  return raw > static_cast<uint8_t>(DegradationState::kMissing)
             ? DegradationState::kClean
             : static_cast<DegradationState>(raw);
}

SurfaceHealth HealthFromHeader(const uint8_t* img) {
  SurfaceHealth health;
  health.elf = ClampState(img[32]);
  health.dwarf = ClampState(img[33]);
  health.btf = ClampState(img[34]);
  health.tracepoint = ClampState(img[35]);
  health.syscall = ClampState(img[36]);
  return health;
}

}  // namespace

std::vector<uint8_t> SaveDatasetV2(const Dataset& dataset) {
  // v2 pool = the v1 pool with every id preserved, then transform suffixes
  // and diagnostic messages appended in first-use order. Keeping v1 ids
  // intact is what makes `dataset migrate` byte-deterministic and lets the
  // two formats share query semantics (ids compare within the same pool).
  // The dataset's own index resolves pool strings (its pool holds no
  // duplicates); only the appended strings get a side table, whose views
  // point into `dataset`.
  const uint32_t pool_size = static_cast<uint32_t>(dataset.pool_size());
  std::vector<std::string_view> appended;
  std::unordered_map<std::string_view, uint32_t> appended_index;
  auto intern = [&](const std::string& s) -> uint32_t {
    StrId id = dataset.Lookup(s);
    if (id != Dataset::kNoStr) {
      return id;
    }
    auto [it, inserted] =
        appended_index.try_emplace(s, pool_size + static_cast<uint32_t>(appended.size()));
    if (inserted) {
      appended.push_back(s);
    }
    return it->second;
  };

  ByteWriter images_w(Endian::kLittle);
  ByteWriter funcs_w(Endian::kLittle);
  ByteWriter structs_w(Endian::kLittle);
  ByteWriter tps_w(Endian::kLittle);
  ByteWriter sys_w(Endian::kLittle);
  ByteWriter pairs_w(Endian::kLittle);
  ByteWriter diags_w(Endian::kLittle);
  uint32_t func_cursor = 0;
  uint32_t struct_cursor = 0;
  uint32_t tp_cursor = 0;
  uint32_t sys_cursor = 0;
  uint32_t pair_cursor = 0;
  uint32_t diag_cursor = 0;
  auto write_pairs = [&pairs_w, &pair_cursor](const std::vector<std::pair<StrId, StrId>>& pairs) {
    uint32_t begin = pair_cursor;
    for (const auto& [a, b] : pairs) {
      pairs_w.WriteU32(a);
      pairs_w.WriteU32(b);
    }
    pair_cursor += static_cast<uint32_t>(pairs.size());
    return begin;
  };

  for (const ImageRecord& image : dataset.images()) {
    uint32_t func_begin = func_cursor;
    // std::map iteration is ascending by name id: exactly the order the
    // mmap-side binary search requires.
    for (const auto& [name, record] : image.funcs) {
      funcs_w.WriteU32(name);
      funcs_w.WriteU32(record.decl);  // Dataset::kNoStr doubles as "no decl"
      funcs_w.WriteU64(record.decl_hash);
      funcs_w.WriteU32(record.status.transform_suffix.empty()
                           ? Dataset::kNoStr
                           : intern(record.status.transform_suffix));
      funcs_w.WriteU8(PackStatus(record.status));
      funcs_w.WriteZeros(3);
      ++func_cursor;
    }
    uint32_t struct_begin = struct_cursor;
    for (const auto& [name, record] : image.structs) {
      structs_w.WriteU32(name);
      structs_w.WriteU32(write_pairs(record.fields));
      structs_w.WriteU32(static_cast<uint32_t>(record.fields.size()));
      ++struct_cursor;
    }
    uint32_t tp_begin = tp_cursor;
    for (const auto& [name, record] : image.tracepoints) {
      tps_w.WriteU32(name);
      tps_w.WriteU32(write_pairs(record.func_params));
      tps_w.WriteU32(static_cast<uint32_t>(record.func_params.size()));
      tps_w.WriteU32(write_pairs(record.event_fields));
      tps_w.WriteU32(static_cast<uint32_t>(record.event_fields.size()));
      ++tp_cursor;
    }
    uint32_t sys_begin = sys_cursor;
    for (StrId id : image.syscalls) {
      sys_w.WriteU32(id);
      ++sys_cursor;
    }
    uint32_t diag_begin = diag_cursor;
    for (const DiagnosticEntry& entry : image.health.ledger.entries()) {
      diags_w.WriteU32(intern(entry.message));
      diags_w.WriteU8(static_cast<uint8_t>(entry.severity));
      diags_w.WriteU8(static_cast<uint8_t>(entry.subsystem));
      diags_w.WriteU8(static_cast<uint8_t>(entry.code));
      diags_w.WriteU8(entry.has_offset ? 1 : 0);
      diags_w.WriteU64(entry.offset);
      ++diag_cursor;
    }

    images_w.WriteU32(intern(image.label));
    images_w.WriteU32(intern(image.meta.flavor));
    images_w.WriteU32(intern(image.meta.arch));
    images_w.WriteU16(static_cast<uint16_t>(image.meta.version_major));
    images_w.WriteU16(static_cast<uint16_t>(image.meta.version_minor));
    images_w.WriteU8(static_cast<uint8_t>(image.meta.gcc_major));
    images_w.WriteU8(static_cast<uint8_t>(image.meta.pointer_size));
    images_w.WriteU8(image.meta.endian == Endian::kBig ? 1 : 0);
    images_w.WriteU8(image.meta.compat_syscalls_traceable ? 1 : 0);
    images_w.WriteU32(image.meta.config_options);
    images_w.WriteU64(image.pt_regs_hash);
    images_w.WriteU8(static_cast<uint8_t>(image.health.elf));
    images_w.WriteU8(static_cast<uint8_t>(image.health.dwarf));
    images_w.WriteU8(static_cast<uint8_t>(image.health.btf));
    images_w.WriteU8(static_cast<uint8_t>(image.health.tracepoint));
    images_w.WriteU8(static_cast<uint8_t>(image.health.syscall));
    images_w.WriteZeros(3);
    images_w.WriteU32(func_begin);
    images_w.WriteU32(func_cursor - func_begin);
    images_w.WriteU32(struct_begin);
    images_w.WriteU32(struct_cursor - struct_begin);
    images_w.WriteU32(tp_begin);
    images_w.WriteU32(tp_cursor - tp_begin);
    images_w.WriteU32(sys_begin);
    images_w.WriteU32(sys_cursor - sys_begin);
    images_w.WriteU32(diag_begin);
    images_w.WriteU32(diag_cursor - diag_begin);
    images_w.WriteU64(0);  // reserved
  }

  // String table: cumulative offsets + NUL-terminated blob + sorted index.
  std::vector<std::string_view> pool;
  pool.reserve(pool_size + appended.size());
  for (uint32_t i = 0; i < pool_size; ++i) {
    pool.push_back(dataset.StringAt(i));
  }
  pool.insert(pool.end(), appended.begin(), appended.end());
  ByteWriter str_offsets_w(Endian::kLittle);
  ByteWriter str_blob_w(Endian::kLittle);
  ByteWriter str_sorted_w(Endian::kLittle);
  uint64_t blob_cursor = 0;
  for (std::string_view s : pool) {
    str_offsets_w.WriteU64(blob_cursor);
    str_blob_w.WriteCString(s);
    blob_cursor += s.size() + 1;
  }
  str_offsets_w.WriteU64(blob_cursor);
  std::vector<uint32_t> sorted_ids(pool.size());
  for (uint32_t i = 0; i < sorted_ids.size(); ++i) {
    sorted_ids[i] = i;
  }
  std::sort(sorted_ids.begin(), sorted_ids.end(),
            [&pool](uint32_t a, uint32_t b) { return pool[a] < pool[b]; });
  for (uint32_t id : sorted_ids) {
    str_sorted_w.WriteU32(id);
  }

  struct SectionPayload {
    uint32_t kind;
    std::vector<uint8_t> bytes;
    uint64_t offset = 0;
  };
  SectionPayload payloads[kV2SectionCount] = {
      {kSecStringOffsets, str_offsets_w.TakeBytes()},
      {kSecStringBlob, str_blob_w.TakeBytes()},
      {kSecStringSorted, str_sorted_w.TakeBytes()},
      {kSecImages, images_w.TakeBytes()},
      {kSecFuncs, funcs_w.TakeBytes()},
      {kSecStructs, structs_w.TakeBytes()},
      {kSecTracepoints, tps_w.TakeBytes()},
      {kSecSyscalls, sys_w.TakeBytes()},
      {kSecPairs, pairs_w.TakeBytes()},
      {kSecDiags, diags_w.TakeBytes()},
  };
  uint64_t cursor = kV2HeaderSize + kV2SectionCount * kV2SectionEntrySize;
  for (SectionPayload& payload : payloads) {
    cursor = (cursor + kDatasetV2PageSize - 1) / kDatasetV2PageSize * kDatasetV2PageSize;
    payload.offset = cursor;
    cursor += payload.bytes.size();
  }
  uint64_t file_size = cursor;

  ByteWriter out(Endian::kLittle);
  out.WriteU32(kDatasetMagicV2);
  out.WriteU32(2);  // version
  out.WriteU32(kDatasetV2PageSize);
  out.WriteU32(kV2SectionCount);
  out.WriteU64(file_size);
  out.WriteU32(static_cast<uint32_t>(dataset.num_images()));
  out.WriteU32(static_cast<uint32_t>(pool.size()));
  out.WriteU64(0);  // reserved
  for (const SectionPayload& payload : payloads) {
    out.WriteU32(payload.kind);
    out.WriteU32(0);  // reserved
    out.WriteU64(payload.offset);
    out.WriteU64(payload.bytes.size());
  }
  for (const SectionPayload& payload : payloads) {
    out.WriteZeros(payload.offset - out.size());
    out.WriteBytes(payload.bytes.data(), payload.bytes.size());
  }
  return out.TakeBytes();
}

Result<int> DatasetFormatVersion(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4) {
    return Error(ErrorCode::kMalformedData, "not a depsurf dataset (too short)");
  }
  uint32_t magic = LoadU32(bytes.data());
  if (magic == kDatasetMagic) {
    return 1;
  }
  if (magic == kDatasetMagicV2) {
    return 2;
  }
  return Error(ErrorCode::kMalformedData, "not a depsurf dataset (bad magic)");
}

Result<Dataset> LoadAnyDataset(const std::vector<uint8_t>& bytes) {
  DEPSURF_ASSIGN_OR_RETURN(format, DatasetFormatVersion(bytes));
  return format == 2 ? LoadDatasetV2(bytes) : LoadDataset(bytes);
}

// ---------------------------------------------------------------------------
// MmapDataset
// ---------------------------------------------------------------------------

Status MmapDataset::Attach(const uint8_t* data, size_t size) {
  data_ = data;
  size_ = size;
  if (size < kV2HeaderSize) {
    return Status(ErrorCode::kMalformedData, "v2 dataset shorter than its header");
  }
  if (LoadU32(data) != kDatasetMagicV2) {
    return Status(ErrorCode::kMalformedData, "not a v2 depsurf dataset (bad magic)");
  }
  if (LoadU32(data + 4) != 2) {
    return Status(ErrorCode::kMalformedData, "unsupported v2 dataset version");
  }
  if (LoadU32(data + 8) != kDatasetV2PageSize) {
    return Status(ErrorCode::kMalformedData, "v2 dataset has unexpected page size");
  }
  if (LoadU32(data + 12) != kV2SectionCount) {
    return Status(ErrorCode::kMalformedData, "v2 dataset has unexpected section count");
  }
  // file_size doubles as the truncation oracle: a file cut short (or a
  // header bit flip) fails here before any record is trusted.
  if (LoadU64(data + 16) != size) {
    return Status(ErrorCode::kMalformedData, "v2 dataset truncated (recorded size mismatch)");
  }
  image_count_ = LoadU32(data + 24);
  string_count_ = LoadU32(data + 28);
  size_t table_end = kV2HeaderSize + kV2SectionCount * kV2SectionEntrySize;
  if (table_end > size) {
    return Status(ErrorCode::kMalformedData, "v2 section table beyond buffer");
  }
  sections_.assign(kV2SectionCount + 1, Section{});
  for (uint32_t i = 0; i < kV2SectionCount; ++i) {
    const uint8_t* entry = data + kV2HeaderSize + i * kV2SectionEntrySize;
    uint32_t kind = LoadU32(entry);
    if (kind != i + 1) {
      return Status(ErrorCode::kMalformedData, "v2 section table out of order");
    }
    uint64_t offset = LoadU64(entry + 8);
    uint64_t sec_size = LoadU64(entry + 16);
    if (offset > size || sec_size > size - offset) {
      return Status(ErrorCode::kMalformedData, "v2 section beyond buffer");
    }
    sections_[kind] = Section{offset, sec_size};
  }
  // Structural invariants between counts and section sizes; everything past
  // this point is lazily bounds-checked per access instead.
  if (string_count_ >= Dataset::kNoStr ||
      sections_[kSecStringOffsets].size != (static_cast<uint64_t>(string_count_) + 1) * 8) {
    return Status(ErrorCode::kMalformedData, "v2 string offset table size mismatch");
  }
  if (sections_[kSecStringSorted].size != static_cast<uint64_t>(string_count_) * 4) {
    return Status(ErrorCode::kMalformedData, "v2 sorted string index size mismatch");
  }
  if (sections_[kSecImages].size !=
      static_cast<uint64_t>(image_count_) * kV2ImageHeaderSize) {
    return Status(ErrorCode::kMalformedData, "v2 image section size mismatch");
  }
  if (sections_[kSecFuncs].size % kV2FuncEntrySize != 0 ||
      sections_[kSecStructs].size % kV2StructEntrySize != 0 ||
      sections_[kSecTracepoints].size % kV2TracepointEntrySize != 0 ||
      sections_[kSecSyscalls].size % 4 != 0 || sections_[kSecPairs].size % kV2PairSize != 0 ||
      sections_[kSecDiags].size % kV2DiagEntrySize != 0) {
    return Status(ErrorCode::kMalformedData, "v2 record section size not entry-aligned");
  }
  return Status::Ok();
}

Result<MmapDataset> MmapDataset::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Error(ErrorCode::kIoError, "cannot open " + path);
  }
  struct stat st;
  if (fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return Error(ErrorCode::kIoError, "cannot stat " + path);
  }
  size_t len = static_cast<size_t>(st.st_size);
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Error(ErrorCode::kIoError, "mmap failed for " + path);
  }
  MmapDataset dataset;
  dataset.map_base_ = base;
  dataset.map_len_ = len;
  Status status = dataset.Attach(static_cast<const uint8_t*>(base), len);
  if (!status.ok()) {
    return status.TakeError();  // dataset's destructor unmaps
  }
  return dataset;
}

Result<MmapDataset> MmapDataset::FromBytes(std::vector<uint8_t> bytes) {
  MmapDataset dataset;
  dataset.owned_ = std::move(bytes);
  Status status = dataset.Attach(dataset.owned_.data(), dataset.owned_.size());
  if (!status.ok()) {
    return status.TakeError();
  }
  return dataset;
}

MmapDataset::MmapDataset(MmapDataset&& other) noexcept { *this = std::move(other); }

MmapDataset& MmapDataset::operator=(MmapDataset&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  if (map_base_ != nullptr) {
    ::munmap(map_base_, map_len_);
  }
  data_ = other.data_;
  size_ = other.size_;
  map_base_ = other.map_base_;
  map_len_ = other.map_len_;
  owned_ = std::move(other.owned_);
  image_count_ = other.image_count_;
  string_count_ = other.string_count_;
  sections_ = std::move(other.sections_);
  // Re-point at the moved-in buffer when the view owns its bytes.
  if (!owned_.empty()) {
    data_ = owned_.data();
  }
  other.data_ = nullptr;
  other.size_ = 0;
  other.map_base_ = nullptr;
  other.map_len_ = 0;
  other.image_count_ = 0;
  other.string_count_ = 0;
  return *this;
}

MmapDataset::~MmapDataset() {
  if (map_base_ != nullptr) {
    ::munmap(map_base_, map_len_);
  }
}

std::optional<std::string_view> MmapDataset::StringViewAt(StrId id) const {
  if (id >= string_count_) {
    return std::nullopt;
  }
  const Section& offsets = sections_[kSecStringOffsets];
  const Section& blob = sections_[kSecStringBlob];
  uint64_t begin = LoadU64(data_ + offsets.offset + static_cast<uint64_t>(id) * 8);
  uint64_t end = LoadU64(data_ + offsets.offset + (static_cast<uint64_t>(id) + 1) * 8);
  if (begin >= end || end > blob.size) {
    return std::nullopt;
  }
  const char* base = reinterpret_cast<const char*>(data_ + blob.offset);
  if (base[end - 1] != '\0') {
    return std::nullopt;
  }
  return std::string_view(base + begin, end - begin - 1);
}

StrId MmapDataset::LookupId(std::string_view s) const {
  const Section& sorted = sections_[kSecStringSorted];
  uint64_t lo = 0;
  uint64_t hi = string_count_;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    StrId id = LoadU32(data_ + sorted.offset + mid * 4);
    std::optional<std::string_view> candidate = StringViewAt(id);
    if (!candidate.has_value()) {
      return Dataset::kNoStr;  // corrupt index entry: degrade to "absent"
    }
    if (*candidate < s) {
      lo = mid + 1;
    } else if (*candidate == s) {
      return id;
    } else {
      hi = mid;
    }
  }
  return Dataset::kNoStr;
}

const uint8_t* MmapDataset::ImageHeader(size_t image_index) const {
  return data_ + sections_[kSecImages].offset + image_index * kV2ImageHeaderSize;
}

namespace {

// Binary search for `name_id` over the image's [begin, begin+count) slice of
// a fixed-stride record section whose first field is the name id. Returns
// nullptr when absent or when the recorded range exceeds the section (a
// corrupt file answers "absent", it never faults).
const uint8_t* FindNamedEntry(const uint8_t* section_base, uint64_t section_entries,
                              size_t stride, uint32_t begin, uint32_t count,
                              uint32_t name_id) {
  if (begin > section_entries || count > section_entries - begin) {
    return nullptr;
  }
  uint64_t lo = begin;
  uint64_t hi = static_cast<uint64_t>(begin) + count;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    uint32_t mid_name = LoadU32(section_base + mid * stride);
    if (mid_name < name_id) {
      lo = mid + 1;
    } else if (mid_name == name_id) {
      return section_base + mid * stride;
    } else {
      hi = mid;
    }
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> MmapDataset::labels() const {
  std::vector<std::string> out;
  out.reserve(image_count_);
  for (size_t i = 0; i < image_count_; ++i) {
    std::optional<std::string_view> label = StringViewAt(LoadU32(ImageHeader(i)));
    out.emplace_back(label.value_or(std::string_view()));
  }
  return out;
}

SurfaceMeta MmapDataset::MetaAt(size_t image_index) const {
  SurfaceMeta meta;
  if (image_index >= image_count_) {
    return meta;
  }
  const uint8_t* img = ImageHeader(image_index);
  meta.flavor = std::string(StringViewAt(LoadU32(img + 4)).value_or(std::string_view()));
  meta.arch = std::string(StringViewAt(LoadU32(img + 8)).value_or(std::string_view()));
  meta.version_major = LoadU16(img + 12);
  meta.version_minor = LoadU16(img + 14);
  meta.gcc_major = img[16];
  meta.pointer_size = img[17];
  meta.endian = img[18] == 1 ? Endian::kBig : Endian::kLittle;
  meta.compat_syscalls_traceable = img[19] != 0;
  meta.config_options = LoadU32(img + 20);
  return meta;
}

std::string MmapDataset::HealthSummaryAt(size_t image_index) const {
  if (image_index >= image_count_) {
    return "clean";
  }
  return HealthFromHeader(ImageHeader(image_index)).Summary();
}

bool MmapDataset::AnyDegradedAt(size_t image_index) const {
  if (image_index >= image_count_) {
    return false;
  }
  return HealthFromHeader(ImageHeader(image_index)).AnyDegraded();
}

std::vector<std::set<MismatchKind>> MmapDataset::CheckFunc(const std::string& name) const {
  std::vector<std::set<MismatchKind>> out(image_count_);
  StrId id = LookupId(name);
  const Section& sec = sections_[kSecFuncs];
  const uint8_t* base = data_ + sec.offset;
  uint64_t entries = sec.size / kV2FuncEntrySize;
  bool have_baseline = false;
  uint64_t baseline_hash = 0;
  for (size_t i = 0; i < image_count_; ++i) {
    const uint8_t* img = ImageHeader(i);
    const uint8_t* entry =
        id == Dataset::kNoStr
            ? nullptr
            : FindNamedEntry(base, entries, kV2FuncEntrySize, LoadU32(img + kImgFuncRange),
                             LoadU32(img + kImgFuncRange + 4), id);
    if (entry == nullptr) {
      out[i].insert(MismatchKind::kAbsent);
      continue;
    }
    uint64_t decl_hash = LoadU64(entry + 8);
    if (!have_baseline) {
      have_baseline = true;
      baseline_hash = decl_hash;
    } else if (decl_hash != baseline_hash) {
      out[i].insert(MismatchKind::kChanged);
    }
    uint8_t flags = entry[20];
    if ((flags & kFlagFullInline) != 0) {
      out[i].insert(MismatchKind::kFullInline);
    }
    if ((flags & kFlagSelective) != 0) {
      out[i].insert(MismatchKind::kSelectiveInline);
    }
    if ((flags & kFlagTransformed) != 0) {
      out[i].insert(MismatchKind::kTransformed);
    }
    if ((flags & kFlagDuplicated) != 0) {
      out[i].insert(MismatchKind::kDuplicated);
    }
    if ((flags & kFlagCollided) != 0) {
      out[i].insert(MismatchKind::kCollision);
    }
  }
  return out;
}

std::vector<std::set<MismatchKind>> MmapDataset::CheckStruct(const std::string& name) const {
  std::vector<std::set<MismatchKind>> out(image_count_);
  StrId id = LookupId(name);
  const Section& sec = sections_[kSecStructs];
  const Section& pairs = sections_[kSecPairs];
  const uint8_t* base = data_ + sec.offset;
  uint64_t entries = sec.size / kV2StructEntrySize;
  uint64_t pair_entries = pairs.size / kV2PairSize;
  const uint8_t* baseline = nullptr;
  uint32_t baseline_count = 0;
  for (size_t i = 0; i < image_count_; ++i) {
    const uint8_t* img = ImageHeader(i);
    const uint8_t* entry =
        id == Dataset::kNoStr
            ? nullptr
            : FindNamedEntry(base, entries, kV2StructEntrySize, LoadU32(img + kImgStructRange),
                             LoadU32(img + kImgStructRange + 4), id);
    const uint8_t* fields = nullptr;
    uint32_t count = 0;
    if (entry != nullptr) {
      uint32_t begin = LoadU32(entry + 4);
      count = LoadU32(entry + 8);
      if (begin <= pair_entries && count <= pair_entries - begin) {
        fields = data_ + pairs.offset + static_cast<uint64_t>(begin) * kV2PairSize;
      }
    }
    if (fields == nullptr) {
      out[i].insert(MismatchKind::kAbsent);
      continue;
    }
    if (baseline == nullptr) {
      baseline = fields;
      baseline_count = count;
    } else if (count != baseline_count ||
               std::memcmp(fields, baseline, static_cast<size_t>(count) * kV2PairSize) != 0) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

std::vector<std::set<MismatchKind>> MmapDataset::CheckField(const std::string& struct_name,
                                                            const std::string& field_name,
                                                            const std::string& expected_type,
                                                            bool guarded) const {
  std::vector<std::set<MismatchKind>> out(image_count_);
  StrId sid = LookupId(struct_name);
  StrId fid = LookupId(field_name);
  StrId expected = expected_type.empty() ? Dataset::kNoStr : LookupId(expected_type);
  bool expectation_fixed = !expected_type.empty();
  const Section& sec = sections_[kSecStructs];
  const Section& pairs = sections_[kSecPairs];
  const uint8_t* base = data_ + sec.offset;
  uint64_t entries = sec.size / kV2StructEntrySize;
  uint64_t pair_entries = pairs.size / kV2PairSize;
  for (size_t i = 0; i < image_count_; ++i) {
    const uint8_t* img = ImageHeader(i);
    const uint8_t* entry =
        sid == Dataset::kNoStr || fid == Dataset::kNoStr
            ? nullptr
            : FindNamedEntry(base, entries, kV2StructEntrySize, LoadU32(img + kImgStructRange),
                             LoadU32(img + kImgStructRange + 4), sid);
    const uint8_t* field = nullptr;
    if (entry != nullptr) {
      uint32_t begin = LoadU32(entry + 4);
      uint32_t count = LoadU32(entry + 8);
      if (begin <= pair_entries && count <= pair_entries - begin) {
        // Field pairs are sorted by name id inside the struct's slice.
        field = FindNamedEntry(data_ + pairs.offset, pair_entries, kV2PairSize, begin, count,
                               fid);
      }
    }
    if (field == nullptr) {
      if (!guarded) {
        out[i].insert(MismatchKind::kAbsent);
      }
      continue;
    }
    uint32_t actual = LoadU32(field + 4);
    if (expected == Dataset::kNoStr && !expectation_fixed) {
      expected = actual;  // baseline fallback
    } else if (actual != expected) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

std::vector<std::set<MismatchKind>> MmapDataset::CheckTracepoint(const std::string& event) const {
  std::vector<std::set<MismatchKind>> out(image_count_);
  StrId id = LookupId(event);
  const Section& sec = sections_[kSecTracepoints];
  const Section& pairs = sections_[kSecPairs];
  const uint8_t* base = data_ + sec.offset;
  uint64_t entries = sec.size / kV2TracepointEntrySize;
  uint64_t pair_entries = pairs.size / kV2PairSize;
  auto pair_range = [&](uint32_t begin, uint32_t count) -> const uint8_t* {
    if (begin > pair_entries || count > pair_entries - begin) {
      return nullptr;
    }
    return data_ + pairs.offset + static_cast<uint64_t>(begin) * kV2PairSize;
  };
  const uint8_t* baseline_params = nullptr;
  const uint8_t* baseline_fields = nullptr;
  uint32_t baseline_params_count = 0;
  uint32_t baseline_fields_count = 0;
  for (size_t i = 0; i < image_count_; ++i) {
    const uint8_t* img = ImageHeader(i);
    const uint8_t* entry =
        id == Dataset::kNoStr
            ? nullptr
            : FindNamedEntry(base, entries, kV2TracepointEntrySize,
                             LoadU32(img + kImgTracepointRange),
                             LoadU32(img + kImgTracepointRange + 4), id);
    const uint8_t* params = nullptr;
    const uint8_t* fields = nullptr;
    uint32_t params_count = 0;
    uint32_t fields_count = 0;
    if (entry != nullptr) {
      params_count = LoadU32(entry + 8);
      fields_count = LoadU32(entry + 16);
      params = pair_range(LoadU32(entry + 4), params_count);
      fields = pair_range(LoadU32(entry + 12), fields_count);
    }
    if (params == nullptr || fields == nullptr) {
      out[i].insert(MismatchKind::kAbsent);
      continue;
    }
    if (baseline_params == nullptr) {
      baseline_params = params;
      baseline_fields = fields;
      baseline_params_count = params_count;
      baseline_fields_count = fields_count;
    } else if (params_count != baseline_params_count || fields_count != baseline_fields_count ||
               std::memcmp(params, baseline_params,
                           static_cast<size_t>(params_count) * kV2PairSize) != 0 ||
               std::memcmp(fields, baseline_fields,
                           static_cast<size_t>(fields_count) * kV2PairSize) != 0) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

std::vector<std::set<MismatchKind>> MmapDataset::CheckSyscall(const std::string& name) const {
  std::vector<std::set<MismatchKind>> out(image_count_);
  StrId id = LookupId(name);
  const Section& sec = sections_[kSecSyscalls];
  const uint8_t* base = data_ + sec.offset;
  uint64_t entries = sec.size / 4;
  for (size_t i = 0; i < image_count_; ++i) {
    const uint8_t* img = ImageHeader(i);
    bool present =
        id != Dataset::kNoStr &&
        FindNamedEntry(base, entries, 4, LoadU32(img + kImgSyscallRange),
                       LoadU32(img + kImgSyscallRange + 4), id) != nullptr;
    if (!present) {
      out[i].insert(MismatchKind::kAbsent);
    }
    // Compat (32-bit) traceability is a per-image property reported by the
    // configuration analysis (Table 5), not a per-dependency mismatch.
  }
  return out;
}

std::vector<std::set<MismatchKind>> MmapDataset::CheckRegisters() const {
  std::vector<std::set<MismatchKind>> out(image_count_);
  if (image_count_ == 0) {
    return out;
  }
  uint64_t baseline = LoadU64(ImageHeader(0) + 24);
  for (size_t i = 1; i < image_count_; ++i) {
    if (LoadU64(ImageHeader(i) + 24) != baseline) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

std::optional<std::string_view> MmapDataset::FuncDeclAt(const std::string& name,
                                                        size_t image_index) const {
  if (image_index >= image_count_) {
    return std::nullopt;
  }
  StrId id = LookupId(name);
  if (id == Dataset::kNoStr) {
    return std::nullopt;
  }
  const Section& sec = sections_[kSecFuncs];
  const uint8_t* img = ImageHeader(image_index);
  const uint8_t* entry =
      FindNamedEntry(data_ + sec.offset, sec.size / kV2FuncEntrySize, kV2FuncEntrySize,
                     LoadU32(img + kImgFuncRange), LoadU32(img + kImgFuncRange + 4), id);
  if (entry == nullptr) {
    return std::nullopt;
  }
  uint32_t decl = LoadU32(entry + 4);
  if (decl == Dataset::kNoStr) {
    return std::nullopt;
  }
  return StringViewAt(decl);
}

std::optional<std::string_view> MmapDataset::FieldTypeAt(const std::string& struct_name,
                                                         const std::string& field_name,
                                                         size_t image_index) const {
  if (image_index >= image_count_) {
    return std::nullopt;
  }
  StrId sid = LookupId(struct_name);
  StrId fid = LookupId(field_name);
  if (sid == Dataset::kNoStr || fid == Dataset::kNoStr) {
    return std::nullopt;
  }
  const Section& sec = sections_[kSecStructs];
  const Section& pairs = sections_[kSecPairs];
  const uint8_t* img = ImageHeader(image_index);
  const uint8_t* entry =
      FindNamedEntry(data_ + sec.offset, sec.size / kV2StructEntrySize, kV2StructEntrySize,
                     LoadU32(img + kImgStructRange), LoadU32(img + kImgStructRange + 4), sid);
  if (entry == nullptr) {
    return std::nullopt;
  }
  uint64_t pair_entries = pairs.size / kV2PairSize;
  uint32_t begin = LoadU32(entry + 4);
  uint32_t count = LoadU32(entry + 8);
  if (begin > pair_entries || count > pair_entries - begin) {
    return std::nullopt;
  }
  const uint8_t* field =
      FindNamedEntry(data_ + pairs.offset, pair_entries, kV2PairSize, begin, count, fid);
  if (field == nullptr) {
    return std::nullopt;
  }
  return StringViewAt(LoadU32(field + 4));
}

// ---------------------------------------------------------------------------
// Full strict v2 parse (dataset info / migrate round-trips).
// ---------------------------------------------------------------------------

Result<Dataset> LoadDatasetV2(const std::vector<uint8_t>& bytes) {
  DEPSURF_ASSIGN_OR_RETURN(view, MmapDataset::FromBytes(bytes));
  uint32_t num_strings = view.string_count();
  Dataset dataset;
  for (uint32_t i = 0; i < num_strings; ++i) {
    std::optional<std::string_view> s = view.StringViewAt(i);
    if (!s.has_value()) {
      return Error(ErrorCode::kMalformedData, "v2 string table entry corrupt");
    }
    StrId id = dataset.Intern(std::string(*s));
    if (id != i) {
      return Error(ErrorCode::kMalformedData, "duplicate string in pool");
    }
  }
  dataset.FlushInternMetrics();

  // Strict re-walk of the raw sections (the lazy accessors above degrade on
  // corruption; a full parse must reject it instead).
  const uint8_t* data = bytes.data();
  const uint8_t* table = data + kV2HeaderSize;
  auto section = [&](uint32_t kind) {
    const uint8_t* entry = table + (kind - 1) * kV2SectionEntrySize;
    return std::make_pair(LoadU64(entry + 8), LoadU64(entry + 16));
  };
  auto [funcs_off, funcs_size] = section(kSecFuncs);
  auto [structs_off, structs_size] = section(kSecStructs);
  auto [tps_off, tps_size] = section(kSecTracepoints);
  auto [sys_off, sys_size] = section(kSecSyscalls);
  auto [pairs_off, pairs_size] = section(kSecPairs);
  auto [diags_off, diags_size] = section(kSecDiags);
  uint64_t pair_entries = pairs_size / kV2PairSize;
  auto read_pairs = [&](uint32_t begin, uint32_t count,
                        std::vector<std::pair<StrId, StrId>>* out) -> Status {
    if (begin > pair_entries || count > pair_entries - begin) {
      return Status(ErrorCode::kMalformedData, "v2 pair range beyond section");
    }
    out->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      const uint8_t* p = data + pairs_off + (static_cast<uint64_t>(begin) + i) * kV2PairSize;
      uint32_t a = LoadU32(p);
      uint32_t b = LoadU32(p + 4);
      if (a >= num_strings || b >= num_strings) {
        return Status(ErrorCode::kMalformedData, "string id out of range");
      }
      out->emplace_back(a, b);
    }
    return Status::Ok();
  };
  auto check_range = [](uint32_t begin, uint32_t count, uint64_t total,
                        const char* what) -> Status {
    if (begin > total || count > total - begin) {
      return Status(ErrorCode::kMalformedData,
                    std::string("v2 ") + what + " range beyond section");
    }
    return Status::Ok();
  };

  for (uint32_t image_index = 0; image_index < view.num_images(); ++image_index) {
    const uint8_t* img =
        data + section(kSecImages).first + static_cast<uint64_t>(image_index) * kV2ImageHeaderSize;
    ImageRecord image;
    auto required_string = [&](uint32_t id, const char* what) -> Result<std::string> {
      if (id >= num_strings) {
        return Error(ErrorCode::kMalformedData, std::string("v2 ") + what + " id out of range");
      }
      return dataset.StringAt(id);
    };
    DEPSURF_ASSIGN_OR_RETURN(label, required_string(LoadU32(img), "label"));
    image.label = std::move(label);
    DEPSURF_ASSIGN_OR_RETURN(flavor, required_string(LoadU32(img + 4), "flavor"));
    image.meta.flavor = std::move(flavor);
    DEPSURF_ASSIGN_OR_RETURN(arch, required_string(LoadU32(img + 8), "arch"));
    image.meta.arch = std::move(arch);
    image.meta.version_major = LoadU16(img + 12);
    image.meta.version_minor = LoadU16(img + 14);
    image.meta.gcc_major = img[16];
    image.meta.pointer_size = img[17];
    image.meta.endian = img[18] == 1 ? Endian::kBig : Endian::kLittle;
    image.meta.compat_syscalls_traceable = img[19] != 0;
    image.compat_syscalls_traceable = image.meta.compat_syscalls_traceable;
    image.meta.config_options = LoadU32(img + 20);
    image.pt_regs_hash = LoadU64(img + 24);
    for (size_t h = 0; h < 5; ++h) {
      if (img[32 + h] > static_cast<uint8_t>(DegradationState::kMissing)) {
        return Error(ErrorCode::kMalformedData, "bad degradation state");
      }
    }
    image.health.elf = static_cast<DegradationState>(img[32]);
    image.health.dwarf = static_cast<DegradationState>(img[33]);
    image.health.btf = static_cast<DegradationState>(img[34]);
    image.health.tracepoint = static_cast<DegradationState>(img[35]);
    image.health.syscall = static_cast<DegradationState>(img[36]);

    uint32_t func_begin = LoadU32(img + kImgFuncRange);
    uint32_t func_count = LoadU32(img + kImgFuncRange + 4);
    DEPSURF_RETURN_IF_ERROR(
        check_range(func_begin, func_count, funcs_size / kV2FuncEntrySize, "function"));
    for (uint32_t i = 0; i < func_count; ++i) {
      const uint8_t* e =
          data + funcs_off + (static_cast<uint64_t>(func_begin) + i) * kV2FuncEntrySize;
      uint32_t name = LoadU32(e);
      if (name >= num_strings) {
        return Error(ErrorCode::kMalformedData, "function name id out of range");
      }
      uint32_t decl = LoadU32(e + 4);
      if (decl != Dataset::kNoStr && decl >= num_strings) {
        return Error(ErrorCode::kMalformedData, "decl id out of range");
      }
      uint32_t suffix = LoadU32(e + 16);
      if (suffix != Dataset::kNoStr && suffix >= num_strings) {
        return Error(ErrorCode::kMalformedData, "suffix id out of range");
      }
      FuncRecord record;
      record.status = UnpackStatus(
          e[20], suffix == Dataset::kNoStr ? std::string() : dataset.StringAt(suffix));
      record.decl_hash = LoadU64(e + 8);
      record.decl = decl;
      image.funcs.emplace(static_cast<StrId>(name), std::move(record));
    }

    uint32_t struct_begin = LoadU32(img + kImgStructRange);
    uint32_t struct_count = LoadU32(img + kImgStructRange + 4);
    DEPSURF_RETURN_IF_ERROR(
        check_range(struct_begin, struct_count, structs_size / kV2StructEntrySize, "struct"));
    for (uint32_t i = 0; i < struct_count; ++i) {
      const uint8_t* e =
          data + structs_off + (static_cast<uint64_t>(struct_begin) + i) * kV2StructEntrySize;
      uint32_t name = LoadU32(e);
      if (name >= num_strings) {
        return Error(ErrorCode::kMalformedData, "struct name id out of range");
      }
      StructRecord record;
      DEPSURF_RETURN_IF_ERROR(read_pairs(LoadU32(e + 4), LoadU32(e + 8), &record.fields));
      image.structs.emplace(static_cast<StrId>(name), std::move(record));
    }

    uint32_t tp_begin = LoadU32(img + kImgTracepointRange);
    uint32_t tp_count = LoadU32(img + kImgTracepointRange + 4);
    DEPSURF_RETURN_IF_ERROR(
        check_range(tp_begin, tp_count, tps_size / kV2TracepointEntrySize, "tracepoint"));
    for (uint32_t i = 0; i < tp_count; ++i) {
      const uint8_t* e =
          data + tps_off + (static_cast<uint64_t>(tp_begin) + i) * kV2TracepointEntrySize;
      uint32_t name = LoadU32(e);
      if (name >= num_strings) {
        return Error(ErrorCode::kMalformedData, "tracepoint name id out of range");
      }
      TracepointRecord record;
      DEPSURF_RETURN_IF_ERROR(read_pairs(LoadU32(e + 4), LoadU32(e + 8), &record.func_params));
      DEPSURF_RETURN_IF_ERROR(
          read_pairs(LoadU32(e + 12), LoadU32(e + 16), &record.event_fields));
      image.tracepoints.emplace(static_cast<StrId>(name), std::move(record));
    }

    uint32_t sys_begin = LoadU32(img + kImgSyscallRange);
    uint32_t sys_count = LoadU32(img + kImgSyscallRange + 4);
    DEPSURF_RETURN_IF_ERROR(check_range(sys_begin, sys_count, sys_size / 4, "syscall"));
    for (uint32_t i = 0; i < sys_count; ++i) {
      uint32_t id = LoadU32(data + sys_off + (static_cast<uint64_t>(sys_begin) + i) * 4);
      if (id >= num_strings) {
        return Error(ErrorCode::kMalformedData, "syscall id out of range");
      }
      image.syscalls.insert(static_cast<StrId>(id));
    }

    uint32_t diag_begin = LoadU32(img + kImgDiagRange);
    uint32_t diag_count = LoadU32(img + kImgDiagRange + 4);
    DEPSURF_RETURN_IF_ERROR(
        check_range(diag_begin, diag_count, diags_size / kV2DiagEntrySize, "diagnostic"));
    for (uint32_t i = 0; i < diag_count; ++i) {
      const uint8_t* e =
          data + diags_off + (static_cast<uint64_t>(diag_begin) + i) * kV2DiagEntrySize;
      uint32_t message = LoadU32(e);
      if (message >= num_strings) {
        return Error(ErrorCode::kMalformedData, "diagnostic message id out of range");
      }
      uint8_t severity = e[4];
      if (severity > static_cast<uint8_t>(DiagSeverity::kFatal)) {
        return Error(ErrorCode::kMalformedData, "bad diagnostic severity");
      }
      uint8_t subsystem = e[5];
      if (subsystem > static_cast<uint8_t>(DiagSubsystem::kBpf)) {
        return Error(ErrorCode::kMalformedData, "bad diagnostic subsystem");
      }
      uint8_t code = e[6];
      if (code > static_cast<uint8_t>(ErrorCode::kIoError)) {
        return Error(ErrorCode::kMalformedData, "bad diagnostic error code");
      }
      if (e[7] != 0) {
        image.health.ledger.AddAt(static_cast<DiagSeverity>(severity),
                                  static_cast<DiagSubsystem>(subsystem),
                                  static_cast<ErrorCode>(code), LoadU64(e + 8),
                                  dataset.StringAt(message));
      } else {
        image.health.ledger.Add(static_cast<DiagSeverity>(severity),
                                static_cast<DiagSubsystem>(subsystem),
                                static_cast<ErrorCode>(code), dataset.StringAt(message));
      }
    }
    dataset.RestoreImage(std::move(image));
  }
  return dataset;
}

Result<OpenedDataset> OpenDatasetView(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error(ErrorCode::kIoError, "cannot open " + path);
  }
  uint8_t magic_bytes[4] = {0, 0, 0, 0};
  in.read(reinterpret_cast<char*>(magic_bytes), 4);
  if (in.gcount() != 4) {
    return Error(ErrorCode::kMalformedData, path + ": not a depsurf dataset (too short)");
  }
  uint32_t magic = LoadU32(magic_bytes);
  OpenedDataset opened;
  if (magic == kDatasetMagicV2) {
    in.close();
    DEPSURF_ASSIGN_OR_RETURN(view, MmapDataset::Open(path));
    opened.format = 2;
    opened.images = view.num_images();
    opened.view = std::make_unique<MmapDataset>(std::move(view));
    return opened;
  }
  if (magic != kDatasetMagic) {
    return Error(ErrorCode::kMalformedData, path + ": not a depsurf dataset (bad magic)");
  }
  in.seekg(0, std::ios::end);
  std::streamoff len = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<uint8_t> bytes(static_cast<size_t>(len));
  in.read(reinterpret_cast<char*>(bytes.data()), len);
  if (!in) {
    return Error(ErrorCode::kIoError, "short read on " + path);
  }
  DEPSURF_ASSIGN_OR_RETURN(dataset, LoadDataset(bytes));
  opened.format = 1;
  opened.images = dataset.num_images();
  opened.view = std::make_unique<Dataset>(std::move(dataset));
  return opened;
}

}  // namespace depsurf
