// Input generation, run in its own process before any measuring process:
// from the seed, the five LTS x86-generic images (kernelgen), the 55-object
// eBPF corpus, one inline request line per object for `query`, and the v2
// dataset over the five images that `query` and `fix` read. kernelgen's
// cost is recorded (normalized) in the manifest, and counts as input
// generation, not as system time.
#include "perfbench/prepare.h"

#include <sys/stat.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/bpfgen/program_corpus.h"
#include "src/core/dataset_io.h"
#include "src/core/dependency_set.h"
#include "src/kernelgen/corpus.h"
#include "src/obs/run_report.h"
#include "src/study/study.h"
#include "src/util/str_util.h"

namespace perfbench {

using namespace depsurf;

namespace {

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  out += obs::JsonEscape(s);
  out += '"';
  return out;
}

std::string NameArray(const std::set<std::string>& names) {
  std::string out = "[";
  for (const std::string& name : names) {
    out += (out.size() > 1 ? ", " : "") + Quoted(name);
  }
  return out + "]";
}

// The inline NDJSON request for a dependency set, without an "id".
std::string RequestBody(const DependencySet& deps) {
  // "funcs" comes first: the query workload splices an absent name in
  // right after `"funcs": [`.
  std::string out = "{\"program\": " + Quoted(deps.program) + ", \"funcs\": " +
                    NameArray(deps.funcs) + ", \"tracepoints\": " + NameArray(deps.tracepoints) +
                    ", \"syscalls\": " + NameArray(deps.syscalls) +
                    ", \"lsm_hooks\": " + NameArray(deps.lsm_hooks) + ", \"fields\": {";
  bool first_struct = true;
  for (const auto& [struct_name, fields] : deps.fields) {
    out += (first_struct ? "" : ", ") + Quoted(struct_name) + ": {";
    first_struct = false;
    bool first_field = true;
    for (const auto& [field_name, dep] : fields) {
      out += (first_field ? "" : ", ") + Quoted(field_name) +
             ": {\"type\": " + Quoted(dep.expected_type) +
             ", \"guarded\": " + (dep.guarded ? "true" : "false") + "}";
      first_field = false;
    }
    out += "}";
  }
  return out + "}}";
}

}  // namespace

bool LoadManifest(const std::string& dir, Manifest* manifest) {
  std::ifstream in(dir + "/manifest.txt");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key, a, b;
    fields >> key >> a >> b;
    if (key == "image") {
      manifest->images.push_back({a, dir + "/" + b});
    } else if (key == "kernelgen.build_image_ms") {
      manifest->build_image_ms.push_back(std::stod(b));
    } else if (key == "dataset") {
      manifest->dataset = dir + "/" + a;
      manifest->dataset_bytes = std::stoull(b);
    } else if (key == "object") {
      manifest->objects.push_back(dir + "/" + a);
    }
  }
  manifest->requests = dir + "/requests.ndjson";
  return manifest->images.size() == kLtsVersions.size() &&
         manifest->build_image_ms.size() == kLtsVersions.size() &&
         !manifest->dataset.empty() && !manifest->objects.empty();
}

int Prepare(uint64_t seed, double ref_nominal_ms, const std::string& out_dir) {
  if (mkdir(out_dir.c_str(), 0755) != 0 || mkdir((out_dir + "/objects").c_str(), 0755) != 0) {
    fprintf(stderr, "prepare: cannot create %s\n", out_dir.c_str());
    return 1;
  }
  RefKernel kernel;
  kernel.RunMs();
  std::vector<double> ref_ms;
  std::string manifest = StrFormat("seed %" PRIu64 "\nscale %.2f\n", seed, kScale);

  Study study(StudyOptions{seed, kScale});
  Dataset dataset;
  std::vector<std::pair<std::string, double>> build_ms;
  for (KernelVersion version : kLtsVersions) {
    ref_ms.push_back(kernel.RunMs());
    const std::string label = version.Tag();
    const uint64_t t0 = ProcessCpuNs();
    auto bytes = study.BuildImage(MakeBuild(version));
    const uint64_t t1 = ProcessCpuNs();
    if (!bytes.ok()) {
      fprintf(stderr, "prepare: %s: %s\n", label.c_str(), bytes.error().ToString().c_str());
      return 1;
    }
    build_ms.emplace_back(label, static_cast<double>(t1 - t0) / 1e6);
    if (!WriteFileBytes(out_dir + "/" + label + ".img", *bytes)) {
      fprintf(stderr, "prepare: cannot write %s.img\n", label.c_str());
      return 1;
    }
    auto surface = DependencySurface::Extract(bytes.TakeValue());
    if (!surface.ok()) {
      fprintf(stderr, "prepare: %s: %s\n", label.c_str(), surface.error().ToString().c_str());
      return 1;
    }
    dataset.AddImage(label, *surface);
    manifest += "image " + label + " " + label + ".img\n";
  }
  ref_ms.push_back(kernel.RunMs());
  const double scale = ref_nominal_ms / Median(ref_ms);
  for (const auto& [label, ms] : build_ms) {
    manifest += StrFormat("kernelgen.build_image_ms %s %.6f\n", label.c_str(), ms * scale);
  }

  const std::vector<uint8_t> v2 = SaveDatasetV2(dataset);
  if (!WriteFileBytes(out_dir + "/lts.dds", v2)) {
    fprintf(stderr, "prepare: cannot write lts.dds\n");
    return 1;
  }
  manifest += StrFormat("dataset lts.dds %zu\n", v2.size());

  std::vector<BpfObject> objects = study.programs().objects;
  objects.push_back(BuildGuardedProbe());
  objects.push_back(BuildRawOffsetProbe());
  std::string requests;
  for (size_t i = 0; i < objects.size(); ++i) {
    const std::string file = StrFormat("objects/%02zu-%s.o", i, objects[i].name.c_str());
    // The request line carries the dependency set of the bytes on disk, so
    // inline and {"object": PATH} requests describe the same program.
    auto encoded = WriteBpfObject(objects[i]);
    auto parsed = encoded.ok() ? ParseBpfObject(*encoded) : Result<BpfObject>(encoded.error());
    auto deps = parsed.ok() ? ExtractDependencySet(*parsed) : Result<DependencySet>(parsed.error());
    if (!deps.ok() || !WriteFileBytes(out_dir + "/" + file, *encoded)) {
      fprintf(stderr, "prepare: cannot stage object %s\n", objects[i].name.c_str());
      return 1;
    }
    manifest += "object " + file + "\n";
    requests += RequestBody(*deps) + "\n";
  }
  if (!WriteFileBytes(out_dir + "/requests.ndjson",
                      std::vector<uint8_t>(requests.begin(), requests.end())) ||
      !WriteFileBytes(out_dir + "/manifest.txt",
                      std::vector<uint8_t>(manifest.begin(), manifest.end()))) {
    fprintf(stderr, "prepare: cannot write the manifest\n");
    return 1;
  }
  return 0;
}

}  // namespace perfbench
