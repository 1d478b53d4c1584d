// One-pass reader for `depsurf serve` request lines (wire format: serve.h).
//
// The reader walks a line's bytes once, straight into a RequestLine; it
// builds no JSON tree. It accepts exactly the grammar of the lint parser
// (obs::ParseJson), with the same error texts and offsets: its whitespace
// set, the lenient number run checked by strtod, \u escapes at 0x80 or
// above read as '?', and "trailing characters after document". Key rules:
//   - the first "id", "object", "program", list and "fields" member wins;
//     later ones are only validated;
//   - inside "fields", repeated struct entries merge and a repeated field's
//     last entry wins; in an expectation object the first "type" and the
//     first "guarded" win, and a value of the wrong kind is ignored;
//   - when "object" is present the inline keys are ignored, even malformed
//     ones;
//   - errors are reported in this order: JSON syntax, non-object, object,
//     program, funcs, tracepoints, syscalls, lsm_hooks, fields.
// Values the request does not use are validated by an iterative skip with
// an explicit stack, so no request byte drives recursion and a line costs
// work in proportion to its length.
#ifndef DEPSURF_SRC_SERVE_REQUEST_READER_H_
#define DEPSURF_SRC_SERVE_REQUEST_READER_H_

#include <string>
#include <string_view>

#include "src/core/dependency_set.h"

namespace depsurf {

struct RequestLine {
  // The first "id" member rendered back to JSON: a string is escaped, a
  // number prints as %lld when integral and %g otherwise, a bool as itself,
  // anything else (or no id, or a line that is not an object) as null.
  std::string id_json = "null";
  std::string error;  // non-empty: the text of the error response
  // Set when the line names an object file; `deps` is then not used.
  bool has_object = false;
  std::string object_path;
  DependencySet deps;  // the inline dependency set ("query" when unnamed)
};

RequestLine ReadRequestLine(std::string_view line);

}  // namespace depsurf

#endif  // DEPSURF_SRC_SERVE_REQUEST_READER_H_
