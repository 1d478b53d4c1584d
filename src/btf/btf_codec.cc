#include "src/btf/btf_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/str_util.h"
#include "src/util/string_table.h"

namespace depsurf {

namespace {

constexpr uint32_t MakeInfo(BtfKind kind, uint32_t vlen) {
  return (static_cast<uint32_t>(kind) << 24) | (vlen & 0xffff);
}

// Bytes of a record's fixed head: name offset, info, size or type.
constexpr size_t kRecordHead = 12;

uint32_t Load32(const uint8_t* p, bool swap) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return swap ? __builtin_bswap32(v) : v;
}

bool IsKnownKind(uint32_t kind_raw) {
  // VAR (14) and DATASEC (15) are not produced by us; 17 and up are newer.
  return kind_raw <= static_cast<uint32_t>(BtfKind::kFloat) && kind_raw != 14 &&
         kind_raw != 15;
}

// Bytes of one run entry for the kinds that have runs, else 0.
size_t EntryBytes(BtfKind kind) {
  switch (kind) {
    case BtfKind::kStruct:
    case BtfKind::kUnion:
      return 12;  // name, type, bit offset
    case BtfKind::kEnum:
    case BtfKind::kFuncProto:
      return 8;  // name, then value or type
    default:
      return 0;
  }
}

// Bytes after the head for the kinds without runs.
size_t FixedPayloadBytes(BtfKind kind) {
  switch (kind) {
    case BtfKind::kInt:
      return 4;  // encoding and bits
    case BtfKind::kArray:
      return 12;  // element type, index type, nelems
    default:
      return 0;
  }
}

Error ReadBeyond(size_t offset) {
  return Error(ErrorCode::kOutOfRange, "read beyond buffer").WithOffset(offset);
}

// Resolves name offsets against a string section: offset 0 is the empty
// name, any other must start a NUL-terminated string inside the section.
class NameReader {
 public:
  NameReader(const char* strings, size_t size) : strings_(strings), size_(size) {
    // Every offset before the last NUL reaches a NUL; none after it does.
    terminated_ = size;
    while (terminated_ > 0 && strings[terminated_ - 1] != 0) {
      --terminated_;
    }
  }

  // Sets `len` to the length of the name at `off`; false when it cannot be
  // read (Fail says why).
  bool Read(uint32_t off, uint32_t& len) const {
    if (off == 0) {
      len = 0;
      return true;
    }
    if (off >= terminated_) {
      return false;
    }
    len = static_cast<uint32_t>(std::strlen(strings_ + off));
    return true;
  }

  Error Fail(uint32_t off) const {
    if (off >= size_) {
      return Error(ErrorCode::kOutOfRange, "string offset beyond buffer").WithOffset(off);
    }
    return Error(ErrorCode::kMalformedData, "unterminated string").WithOffset(off);
  }

 private:
  const char* strings_;
  size_t size_;
  size_t terminated_;
};

}  // namespace

std::vector<uint8_t> EncodeBtf(const TypeGraph& graph, Endian endian) {
  StringTableBuilder strtab;
  ByteWriter types(endian);

  for (BtfTypeId id = 1; id <= graph.num_types(); ++id) {
    const BtfTypeView t = *graph.Get(id);
    uint32_t vlen = 0;
    switch (t.kind) {
      case BtfKind::kStruct:
      case BtfKind::kUnion:
        vlen = static_cast<uint32_t>(t.members.size());
        break;
      case BtfKind::kEnum:
        vlen = static_cast<uint32_t>(t.enumerators.size());
        break;
      case BtfKind::kFuncProto:
        vlen = static_cast<uint32_t>(t.params.size());
        break;
      default:
        break;
    }
    types.WriteU32(strtab.Add(t.name));
    types.WriteU32(MakeInfo(t.kind, vlen));
    // The third word is size for sized kinds, a type reference otherwise.
    switch (t.kind) {
      case BtfKind::kInt:
      case BtfKind::kFloat:
      case BtfKind::kStruct:
      case BtfKind::kUnion:
      case BtfKind::kEnum:
        types.WriteU32(t.size);
        break;
      default:
        types.WriteU32(t.ref_type_id);
        break;
    }
    // Kind-specific payload.
    switch (t.kind) {
      case BtfKind::kInt:
        types.WriteU32(static_cast<uint32_t>(t.int_bits));
        break;
      case BtfKind::kArray:
        types.WriteU32(t.ref_type_id);  // element type
        types.WriteU32(0);              // index type (unused by us)
        types.WriteU32(t.nelems);
        break;
      case BtfKind::kStruct:
      case BtfKind::kUnion:
        for (const BtfMemberView m : t.members) {
          types.WriteU32(strtab.Add(m.name));
          types.WriteU32(m.type_id);
          types.WriteU32(m.bits_offset);
        }
        break;
      case BtfKind::kEnum:
        for (const BtfEnumeratorView e : t.enumerators) {
          types.WriteU32(strtab.Add(e.name));
          types.WriteU32(static_cast<uint32_t>(e.value));
        }
        break;
      case BtfKind::kFuncProto:
        for (const BtfParamView p : t.params) {
          types.WriteU32(strtab.Add(p.name));
          types.WriteU32(p.type_id);
        }
        break;
      default:
        break;
    }
  }

  std::vector<uint8_t> type_bytes = types.TakeBytes();
  ByteWriter out(endian);
  out.WriteU16(kBtfMagic);
  out.WriteU8(kBtfVersion);
  out.WriteU8(0);  // flags
  out.WriteU32(kBtfHeaderLen);
  out.WriteU32(0);  // type_off (relative to end of header)
  out.WriteU32(static_cast<uint32_t>(type_bytes.size()));
  out.WriteU32(static_cast<uint32_t>(type_bytes.size()));  // str_off
  out.WriteU32(static_cast<uint32_t>(strtab.bytes().size()));
  out.WriteBytes(type_bytes.data(), type_bytes.size());
  out.WriteBytes(strtab.bytes().data(), strtab.bytes().size());
  return out.TakeBytes();
}

Result<TypeGraph> DecodeBtf(const std::vector<uint8_t>& bytes, Endian endian) {
  return DecodeBtf(ByteReader(bytes, endian));
}

Result<TypeGraph> DecodeBtf(ByteReader reader) {
  obs::ScopedSpan span("btf.decode");
  span.AddAttr("bytes", static_cast<uint64_t>(reader.size()));
  DEPSURF_ASSIGN_OR_RETURN(magic, reader.ReadU16());
  if (magic != kBtfMagic) {
    return Error(ErrorCode::kMalformedData, "BTF magic mismatch").WithOffset(0);
  }
  DEPSURF_ASSIGN_OR_RETURN(version, reader.ReadU8());
  if (version != kBtfVersion) {
    return Error(ErrorCode::kUnsupported, "unsupported BTF version").WithOffset(2);
  }
  DEPSURF_RETURN_IF_ERROR(reader.Skip(1));  // flags
  DEPSURF_ASSIGN_OR_RETURN(hdr_len, reader.ReadU32());
  if (hdr_len != kBtfHeaderLen) {
    return Error(ErrorCode::kMalformedData, "unexpected BTF header length").WithOffset(4);
  }
  DEPSURF_ASSIGN_OR_RETURN(type_off, reader.ReadU32());
  DEPSURF_ASSIGN_OR_RETURN(type_len, reader.ReadU32());
  DEPSURF_ASSIGN_OR_RETURN(str_off, reader.ReadU32());
  DEPSURF_ASSIGN_OR_RETURN(str_len, reader.ReadU32());

  DEPSURF_ASSIGN_OR_RETURN(types,
                           reader.Slice(static_cast<size_t>(hdr_len) + type_off, type_len));
  DEPSURF_ASSIGN_OR_RETURN(strs,
                           reader.Slice(static_cast<size_t>(hdr_len) + str_off, str_len));

  const bool swap = (reader.endian() == Endian::kBig) != (std::endian::native == std::endian::big);
  const uint8_t* data = types.data();
  const size_t size = types.size();
  const char* strings = reinterpret_cast<const char*>(strs.data());
  const NameReader names(strings, strs.size());

  // Sizing pass: the records and run entries that fit, so the arrays are
  // allocated once. Errors are left to the decoding pass.
  size_t num_records = 0;
  size_t num_entries = 0;
  for (size_t off = 0; size - off >= kRecordHead;) {
    const uint32_t info = Load32(data + off + 4, swap);
    const uint32_t kind_raw = (info >> 24) & 0x1f;
    if (!IsKnownKind(kind_raw)) {
      break;
    }
    const BtfKind kind = static_cast<BtfKind>(kind_raw);
    const size_t vlen = EntryBytes(kind) != 0 ? (info & 0xffff) : 0;
    const size_t bytes = kRecordHead + FixedPayloadBytes(kind) + vlen * EntryBytes(kind);
    if (bytes > size - off) {
      break;
    }
    ++num_records;
    num_entries += vlen;
    off += bytes;
  }

  TypeGraph graph;
  graph.strings_.assign(strings, strings + strs.size());
  graph.types_.reserve(num_records);
  graph.entries_.reserve(num_entries);

  // Each record is bounds-checked once and its fields loaded directly. A
  // record that does not fit fails at the offset of its first field that
  // does not, after the names before that field were checked, as reading
  // field by field in order would.
  size_t off = 0;
  while (off < size) {
    const size_t left = size - off;
    if (left < kRecordHead) {
      return ReadBeyond(off + left / 4 * 4);
    }
    const uint8_t* p = data + off;
    const uint32_t name_off = Load32(p, swap);
    const uint32_t info = Load32(p + 4, swap);
    const uint32_t size_or_type = Load32(p + 8, swap);
    const uint32_t kind_raw = (info >> 24) & 0x1f;
    if (!IsKnownKind(kind_raw)) {
      return Error(ErrorCode::kUnsupported, StrFormat("BTF kind %u", kind_raw))
          .WithOffset(off + 4);  // the info word of this entry
    }
    TypeGraph::Record r;
    r.kind = static_cast<BtfKind>(kind_raw);
    if (!names.Read(name_off, r.name_len)) {
      return names.Fail(name_off);
    }
    r.name_off = name_off;
    switch (r.kind) {
      case BtfKind::kInt:
      case BtfKind::kFloat:
      case BtfKind::kStruct:
      case BtfKind::kUnion:
      case BtfKind::kEnum:
        r.size = size_or_type;
        break;
      default:
        r.ref_type_id = size_or_type;
        break;
    }
    const size_t entry_bytes = EntryBytes(r.kind);
    if (entry_bytes == 0) {
      const size_t payload = FixedPayloadBytes(r.kind);
      if (left - kRecordHead < payload) {
        const size_t missing = off + kRecordHead + (left - kRecordHead) / 4 * 4;
        // An array skips its index type rather than reading it.
        if (r.kind == BtfKind::kArray && missing == off + 16) {
          return Error(ErrorCode::kOutOfRange, "skip beyond buffer").WithOffset(missing);
        }
        return ReadBeyond(missing);
      }
      if (r.kind == BtfKind::kInt) {
        r.int_bits = static_cast<uint8_t>(Load32(p + 12, swap) & 0xff);
      } else if (r.kind == BtfKind::kArray) {
        r.ref_type_id = Load32(p + 12, swap);
        r.nelems = Load32(p + 20, swap);
      }
      graph.types_.push_back(r);
      off += kRecordHead + payload;
      continue;
    }

    const uint32_t vlen = info & 0xffff;
    const size_t avail = left - kRecordHead;
    const size_t fit = std::min<size_t>(vlen, avail / entry_bytes);
    r.first_entry = static_cast<uint32_t>(graph.entries_.size());
    r.num_entries = vlen;
    for (size_t i = 0; i < fit; ++i) {
      const uint8_t* q = p + kRecordHead + i * entry_bytes;
      BtfEntry e;
      e.name_off = Load32(q, swap);
      if (!names.Read(e.name_off, e.name_len)) {
        return names.Fail(e.name_off);
      }
      e.type_or_value = Load32(q + 4, swap);
      if (entry_bytes == 12) {
        e.bits_offset = Load32(q + 8, swap);
      }
      graph.entries_.push_back(e);
    }
    if (fit < vlen) {
      // The first entry that does not fit: its name word, if present, is
      // read (and its name checked) before the word that is missing.
      const size_t at = off + kRecordHead + fit * entry_bytes;
      const size_t rem = avail - fit * entry_bytes;
      if (rem < 4) {
        return ReadBeyond(at);
      }
      const uint32_t entry_name = Load32(data + at, swap);
      uint32_t len = 0;
      if (!names.Read(entry_name, len)) {
        return names.Fail(entry_name);
      }
      return ReadBeyond(rem < 8 ? at + 4 : at + 8);
    }
    graph.types_.push_back(r);
    off += kRecordHead + static_cast<size_t>(vlen) * entry_bytes;
  }
  DEPSURF_RETURN_IF_ERROR(graph.Validate());
  span.AddAttr("types", static_cast<uint64_t>(graph.num_types()));
  // No static counter caching: the current context differs per image in
  // report-mode builds, so pointers must be re-resolved each decode.
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Counter("btf.sections_decoded")->fetch_add(1, std::memory_order_relaxed);
  metrics.Counter("btf.types_decoded")
      ->fetch_add(graph.num_types(), std::memory_order_relaxed);
  metrics.Counter("btf.bytes_decoded")->fetch_add(reader.size(), std::memory_order_relaxed);
  return graph;
}

}  // namespace depsurf
