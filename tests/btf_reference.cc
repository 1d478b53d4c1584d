#include "tests/btf_reference.h"

#include "src/btf/btf_codec.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

Status ValidateReference(const std::vector<ReferenceBtfType>& types) {
  auto check = [&](uint32_t id, const char* what) -> Status {
    if (id > types.size()) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("%s references type %u beyond %zu", what, id, types.size()));
    }
    return Status::Ok();
  };
  for (const ReferenceBtfType& t : types) {
    switch (t.kind) {
      case BtfKind::kPtr:
      case BtfKind::kTypedef:
      case BtfKind::kConst:
      case BtfKind::kVolatile:
      case BtfKind::kRestrict:
      case BtfKind::kArray:
      case BtfKind::kFunc:
      case BtfKind::kFuncProto:
        DEPSURF_RETURN_IF_ERROR(check(t.ref_type_id, BtfKindName(t.kind)));
        break;
      default:
        break;
    }
    for (const BtfMember& m : t.members) {
      DEPSURF_RETURN_IF_ERROR(check(m.type_id, "member"));
    }
    for (const BtfParam& p : t.params) {
      DEPSURF_RETURN_IF_ERROR(check(p.type_id, "param"));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<ReferenceBtfType>> ReferenceDecodeBtf(ByteReader reader) {
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

  auto read_name = [&](uint32_t off) -> Result<std::string> {
    if (off == 0) {
      return std::string();
    }
    return strs.ReadCStringAt(off);
  };

  std::vector<ReferenceBtfType> out;
  while (!types.AtEnd()) {
    DEPSURF_ASSIGN_OR_RETURN(name_off, types.ReadU32());
    DEPSURF_ASSIGN_OR_RETURN(info, types.ReadU32());
    DEPSURF_ASSIGN_OR_RETURN(size_or_type, types.ReadU32());
    ReferenceBtfType t;
    uint32_t kind_raw = (info >> 24) & 0x1f;
    uint32_t vlen = info & 0xffff;
    if (kind_raw > static_cast<uint32_t>(BtfKind::kFloat) ||
        kind_raw == 14 || kind_raw == 15) {  // VAR/DATASEC not produced by us
      return Error(ErrorCode::kUnsupported, StrFormat("BTF kind %u", kind_raw))
          .WithOffset(types.offset() - 8);  // the info word of this entry
    }
    t.kind = static_cast<BtfKind>(kind_raw);
    DEPSURF_ASSIGN_OR_RETURN(name, read_name(name_off));
    t.name = std::move(name);
    switch (t.kind) {
      case BtfKind::kInt:
      case BtfKind::kFloat:
      case BtfKind::kStruct:
      case BtfKind::kUnion:
      case BtfKind::kEnum:
        t.size = size_or_type;
        break;
      default:
        t.ref_type_id = size_or_type;
        break;
    }
    switch (t.kind) {
      case BtfKind::kInt: {
        DEPSURF_ASSIGN_OR_RETURN(int_data, types.ReadU32());
        t.int_bits = static_cast<uint8_t>(int_data & 0xff);
        break;
      }
      case BtfKind::kArray: {
        DEPSURF_ASSIGN_OR_RETURN(elem, types.ReadU32());
        DEPSURF_RETURN_IF_ERROR(types.Skip(4));  // index type
        DEPSURF_ASSIGN_OR_RETURN(nelems, types.ReadU32());
        t.ref_type_id = elem;
        t.nelems = nelems;
        break;
      }
      case BtfKind::kStruct:
      case BtfKind::kUnion: {
        for (uint32_t i = 0; i < vlen; ++i) {
          BtfMember m;
          DEPSURF_ASSIGN_OR_RETURN(mname_off, types.ReadU32());
          DEPSURF_ASSIGN_OR_RETURN(mname, read_name(mname_off));
          m.name = std::move(mname);
          DEPSURF_ASSIGN_OR_RETURN(mtype, types.ReadU32());
          m.type_id = mtype;
          DEPSURF_ASSIGN_OR_RETURN(moff, types.ReadU32());
          m.bits_offset = moff;
          t.members.push_back(std::move(m));
        }
        break;
      }
      case BtfKind::kEnum: {
        for (uint32_t i = 0; i < vlen; ++i) {
          BtfEnumerator e;
          DEPSURF_ASSIGN_OR_RETURN(ename_off, types.ReadU32());
          DEPSURF_ASSIGN_OR_RETURN(ename, read_name(ename_off));
          e.name = std::move(ename);
          DEPSURF_ASSIGN_OR_RETURN(eval, types.ReadU32());
          e.value = static_cast<int32_t>(eval);
          t.enumerators.push_back(std::move(e));
        }
        break;
      }
      case BtfKind::kFuncProto: {
        for (uint32_t i = 0; i < vlen; ++i) {
          BtfParam p;
          DEPSURF_ASSIGN_OR_RETURN(pname_off, types.ReadU32());
          DEPSURF_ASSIGN_OR_RETURN(pname, read_name(pname_off));
          p.name = std::move(pname);
          DEPSURF_ASSIGN_OR_RETURN(ptype, types.ReadU32());
          p.type_id = ptype;
          t.params.push_back(std::move(p));
        }
        break;
      }
      default:
        break;
    }
    out.push_back(std::move(t));
  }
  DEPSURF_RETURN_IF_ERROR(ValidateReference(out));
  return out;
}

std::string GraphDifference(const TypeGraph& graph, const std::vector<ReferenceBtfType>& types) {
  if (graph.num_types() != types.size()) {
    return StrFormat("%u types, reference %zu", graph.num_types(), types.size());
  }
  for (BtfTypeId id = 1; id <= graph.num_types(); ++id) {
    const BtfTypeView t = *graph.Get(id);
    const ReferenceBtfType& r = types[id - 1];
    std::string what;
    if (t.kind != r.kind) {
      what = "kind";
    } else if (t.name != r.name) {
      what = "name";
    } else if (t.size != r.size || t.ref_type_id != r.ref_type_id || t.nelems != r.nelems ||
               t.int_bits != r.int_bits) {
      what = "size, ref, nelems or int_bits";
    } else if (t.members.size() != r.members.size() || t.params.size() != r.params.size() ||
               t.enumerators.size() != r.enumerators.size()) {
      what = "run length";
    }
    for (size_t i = 0; what.empty() && i < r.members.size(); ++i) {
      const BtfMemberView m = t.members[i];
      if (m.name != r.members[i].name || m.type_id != r.members[i].type_id ||
          m.bits_offset != r.members[i].bits_offset) {
        what = StrFormat("member %zu", i);
      }
    }
    for (size_t i = 0; what.empty() && i < r.params.size(); ++i) {
      const BtfParamView p = t.params[i];
      if (p.name != r.params[i].name || p.type_id != r.params[i].type_id) {
        what = StrFormat("param %zu", i);
      }
    }
    for (size_t i = 0; what.empty() && i < r.enumerators.size(); ++i) {
      const BtfEnumeratorView e = t.enumerators[i];
      if (e.name != r.enumerators[i].name || e.value != r.enumerators[i].value) {
        what = StrFormat("enumerator %zu", i);
      }
    }
    if (!what.empty()) {
      return StrFormat("type %u (%s %s): %s differs", id, BtfKindName(r.kind), r.name.c_str(),
                       what.c_str());
    }
  }
  return "";
}

std::string DecoderVsReference(const std::vector<uint8_t>& bytes, Endian endian) {
  Result<TypeGraph> graph = DecodeBtf(bytes, endian);
  Result<std::vector<ReferenceBtfType>> reference =
      ReferenceDecodeBtf(ByteReader(bytes, endian));
  if (graph.ok() != reference.ok()) {
    return StrFormat("DecodeBtf %s, reference %s",
                     graph.ok() ? "ok" : graph.error().ToString().c_str(),
                     reference.ok() ? "ok" : reference.error().ToString().c_str());
  }
  if (!graph.ok()) {
    const Error& a = graph.error();
    const Error& b = reference.error();
    if (a.code() != b.code() || a.message() != b.message() || a.offset() != b.offset() ||
        a.ToString() != b.ToString()) {
      return StrFormat("DecodeBtf %s, reference %s", a.ToString().c_str(),
                       b.ToString().c_str());
    }
    return "";
  }
  return GraphDifference(*graph, *reference);
}

}  // namespace depsurf
