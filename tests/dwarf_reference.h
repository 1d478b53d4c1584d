// The DWARF-lite document decoder and instance collector that extraction
// used before ReadFunctionInstances (src/dwarf/function_view.h) replaced
// them: decode the sections into a DwarfDocument, then walk it. Kept in the
// test tree as the reader's oracle and as the decoder behind the codec
// round-trip tests. Both recurse on the DIE tree (DwarfDocument::Walk), so
// they are for documents of ordinary depth only.
#ifndef DEPSURF_TESTS_DWARF_REFERENCE_H_
#define DEPSURF_TESTS_DWARF_REFERENCE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/dwarf/dwarf.h"
#include "src/dwarf/function_view.h"
#include "src/util/byte_buffer.h"
#include "src/util/error.h"
#include "src/util/prng.h"

namespace depsurf {

// Parses the two sections back into a document (indices in pre-order).
Result<DwarfDocument> DecodeDwarf(const std::vector<uint8_t>& abbrev,
                                  const std::vector<uint8_t>& info,
                                  Endian endian = Endian::kLittle);

// A FunctionInstance that owns its strings, so it outlives the bytes it
// was read from.
struct OwnedInstance {
  std::string name;
  std::string decl_file;
  uint32_t decl_line = 0;
  bool external = false;
  DwInl inline_attr = DwInl::kNotInlined;
  std::optional<uint64_t> low_pc;
  std::vector<std::string> caller_inline;
  std::vector<std::string> caller_func;

  bool HasCode() const { return low_pc.has_value(); }
};

// Instances grouped by function name, in DIE order within a name.
using InstanceMap = std::map<std::string, std::vector<OwnedInstance>>;

// All instances in a document, grouped by function name, in DIE order.
// Fails on structurally invalid documents (e.g., an inlined_subroutine
// whose origin is not a subprogram).
Result<InstanceMap> CollectFunctionInstances(const DwarfDocument& document);

// The reader's flat result as a map, call while the bytes it views live.
// Instances keep their order within a name; a result whose instances are
// not in name order fails, so the conversion hides no ordering fault.
Result<InstanceMap> ToInstanceMap(const Result<FunctionInstances>& flat);

// DecodeDwarf, then CollectFunctionInstances: what ReadFunctionInstances
// must answer for the same bytes, error text included.
Result<InstanceMap> ReferenceFunctionInstances(const std::vector<uint8_t>& abbrev,
                                               const std::vector<uint8_t>& info,
                                               Endian endian = Endian::kLittle);

// "" when both results are equal instance maps or errors with the same
// Error::ToString(); otherwise the first difference, for a failure message.
std::string InstanceMapDifference(const Result<InstanceMap>& a, const Result<InstanceMap>& b);

// A well-formed random forest: 1-4 named compile units of up to 11
// subprograms each, with inlined and call sites whose origins are earlier
// subprograms.
DwarfDocument RandomDwarfForest(Prng& prng);

}  // namespace depsurf

#endif  // DEPSURF_TESTS_DWARF_REFERENCE_H_
