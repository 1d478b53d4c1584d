// One-pass reader for `depsurf serve` request lines (wire format: serve.h).
//
// The reader walks a line's bytes once, straight into a RequestLine; it
// builds no JSON tree. The grammar, its error texts and offsets are
// obs::JsonReader's (src/obs/json_reader.h), the one obs::ParseJson reads
// too; a syntax error is answered as "bad request JSON: " and the reader's
// text. On top of it the reader keeps only the request's key rules:
//   - the first "id", "object", "program", list and "fields" member wins;
//     later ones are only validated;
//   - inside "fields", repeated struct entries merge and a repeated field's
//     last entry wins; in an expectation object the first "type" and the
//     first "guarded" win, and a value of the wrong kind is ignored;
//   - when "object" is present the inline keys are ignored, even malformed
//     ones;
//   - errors are reported in this order: JSON syntax, non-object, object,
//     program, funcs, tracepoints, syscalls, lsm_hooks, fields.
// Values the request does not use are validated by the reader's iterative
// skip, so no request byte drives recursion and a line costs work in
// proportion to its length.
#ifndef DEPSURF_SRC_SERVE_REQUEST_READER_H_
#define DEPSURF_SRC_SERVE_REQUEST_READER_H_

#include <string>
#include <string_view>

#include "src/core/dependency_set.h"

namespace depsurf {

struct RequestLine {
  // The first "id" member rendered back to JSON: a string is escaped, a
  // number prints as %lld when it is an integer inside long long's range
  // and %g otherwise (1e300 as 1e+300), a bool as itself, and anything else
  // (an infinite number such as 1e999, no id, or a line that is not an
  // object) as null.
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
