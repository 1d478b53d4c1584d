// The owning BTF decoder that DecodeBtf used before the type graph went
// flat: every type its own struct owning its name and its member,
// parameter or enumerator vector, and every field read through its own
// Result. Kept in the test tree as the oracle for DecodeBtf: on any input
// both must produce the same types, field for field, or fail with the same
// error code, message and offset.
#ifndef DEPSURF_TESTS_BTF_REFERENCE_H_
#define DEPSURF_TESTS_BTF_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/btf/btf.h"
#include "src/util/byte_buffer.h"
#include "src/util/error.h"

namespace depsurf {

struct ReferenceBtfType {
  BtfKind kind = BtfKind::kVoid;
  std::string name;
  uint32_t size = 0;
  uint32_t ref_type_id = 0;
  uint32_t nelems = 0;
  uint8_t int_bits = 0;
  std::vector<BtfMember> members;
  std::vector<BtfParam> params;
  std::vector<BtfEnumerator> enumerators;
};

// Parses and validates a .BTF section; element i is type id i + 1.
Result<std::vector<ReferenceBtfType>> ReferenceDecodeBtf(ByteReader reader);

// "" when `graph` holds exactly `types`, else the first difference.
std::string GraphDifference(const TypeGraph& graph, const std::vector<ReferenceBtfType>& types);

// "" when DecodeBtf and the reference agree on `bytes`: equal types, or
// errors with the same code, message and offset. Else what differs.
std::string DecoderVsReference(const std::vector<uint8_t>& bytes, Endian endian);

}  // namespace depsurf

#endif  // DEPSURF_TESTS_BTF_REFERENCE_H_
