// depsurf_perfbench: the measuring side of the build/query/fix benchmark.
//
//   depsurf_perfbench prepare --seed N --ref-nominal-ms X --out DIR
//   depsurf_perfbench run --workload build|query|fix --inputs DIR --seed N
//       --seconds S --trace 0|1 --ref-nominal-ms X [--ops N] [--trace-out FILE]
//
// run.py in this directory builds it, prepares inputs once per seed and
// invokes `run`; see README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/prepare.h"
#include "perfbench/workloads.h"

namespace {

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  *out = strtod(text, &end);
  return end != text && *end == '\0';
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  *out = strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

int Usage() {
  fprintf(stderr,
          "usage: depsurf_perfbench prepare --seed N --ref-nominal-ms X --out DIR\n"
          "       depsurf_perfbench run --workload build|query|fix --inputs DIR --seed N\n"
          "           --seconds S --trace 0|1 --ref-nominal-ms X [--ops N] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string mode = argv[1];
  perfbench::RunOptions options;
  std::string out_dir;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t trace = 0;
    bool ok = true;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--inputs") {
      options.inputs = value;
    } else if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--seed") {
      ok = ParseU64(value, &options.seed);
    } else if (flag == "--ops") {
      ok = ParseU64(value, &options.ops);
    } else if (flag == "--seconds") {
      ok = ParseDouble(value, &options.seconds) && options.seconds > 0;
    } else if (flag == "--ref-nominal-ms") {
      ok = ParseDouble(value, &options.ref_nominal_ms) && options.ref_nominal_ms > 0;
    } else if (flag == "--trace") {
      ok = ParseU64(value, &trace) && trace <= 1;
      options.trace = trace == 1;
    } else {
      ok = false;
    }
    if (!ok) {
      fprintf(stderr, "depsurf_perfbench: bad flag %s %s\n", flag.c_str(), value);
      return Usage();
    }
  }
  if (argc % 2 != 0) {
    return Usage();
  }
  if (mode == "prepare" && !out_dir.empty()) {
    return perfbench::Prepare(options.seed, options.ref_nominal_ms, out_dir);
  }
  if (mode != "run" || options.inputs.empty()) {
    return Usage();
  }
  perfbench::Manifest manifest;
  if (!perfbench::LoadManifest(options.inputs, &manifest)) {
    fprintf(stderr, "depsurf_perfbench: no prepared inputs in %s\n", options.inputs.c_str());
    return 1;
  }
  if (options.workload == "build") {
    return perfbench::RunBuild(manifest, options);
  }
  if (options.workload == "query") {
    return perfbench::RunQuery(manifest, options);
  }
  if (options.workload == "fix") {
    return perfbench::RunFix(manifest, options);
  }
  return Usage();
}
