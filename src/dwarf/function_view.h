// Extraction of function instances and call-site relations from the encoded
// DWARF-lite sections. Produces the data behind the paper's function-status
// records (Appendix A.2.4): per-instance name/location/inline attribute, plus
// the lists of callers that inlined the function and callers that call it
// out of line.
#ifndef DEPSURF_SRC_DWARF_FUNCTION_VIEW_H_
#define DEPSURF_SRC_DWARF_FUNCTION_VIEW_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/dwarf/dwarf.h"
#include "src/util/byte_buffer.h"
#include "src/util/error.h"

namespace depsurf {

// One DW_TAG_subprogram instance (a source function compiled into one
// translation unit; a header-defined static appears once per including TU).
struct FunctionInstance {
  std::string name;
  std::string decl_file;
  uint32_t decl_line = 0;
  bool external = false;
  DwInl inline_attr = DwInl::kNotInlined;
  // Set when the instance has an out-of-line copy.
  std::optional<uint64_t> low_pc;
  // "file:caller" for each caller that inlined this instance.
  std::vector<std::string> caller_inline;
  // "file:caller" for each caller with an out-of-line call.
  std::vector<std::string> caller_func;

  // An instance is "out of line" iff it has code of its own.
  bool HasCode() const { return low_pc.has_value(); }
};

// Every instance in the `abbrev` and `info` sections (the readers' endianness
// applies), grouped by function name, in DIE order. An instance is a named
// subprogram whose parent is a top-level compile unit; its sites are the
// inlined_subroutine and call_site DIEs at any depth below it, attributed to
// their origin instance in DIE order. When an attribute repeats, the first
// one counts.
//
// The sections are streamed once in place: no DIE tree is built, strings are
// read as views, nesting is a depth count and site origins are resolved after
// the pass, so neither deep nesting nor forward references recurse. Fails on
// malformed bytes and on invalid structure (a top-level DIE that is not a
// compile unit, an unnamed subprogram, a reference past the last DIE, a site
// whose origin is not an instance).
Result<std::map<std::string, std::vector<FunctionInstance>>> ReadFunctionInstances(
    ByteReader abbrev, ByteReader info);

}  // namespace depsurf

#endif  // DEPSURF_SRC_DWARF_FUNCTION_VIEW_H_
