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

// All instances in a document, grouped by function name, in DIE order.
// Fails on structurally invalid documents (e.g., an inlined_subroutine
// whose origin is not a subprogram).
Result<std::map<std::string, std::vector<FunctionInstance>>> CollectFunctionInstances(
    const DwarfDocument& document);

using InstanceMap = std::map<std::string, std::vector<FunctionInstance>>;

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
