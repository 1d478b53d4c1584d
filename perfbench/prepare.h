// The prepare step (see prepare.cc) and the manifest it leaves behind.
#ifndef DEPSURF_PERFBENCH_PREPARE_H_
#define DEPSURF_PERFBENCH_PREPARE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Manifest {
  std::vector<std::pair<std::string, std::string>> images;  // (label, path), v4.4 .. v6.8
  std::vector<double> build_image_ms;  // kernelgen, normalized, per image
  std::string dataset;                 // v2 dataset over the five images
  uint64_t dataset_bytes = 0;
  std::vector<std::string> objects;  // the 55 object files, corpus order
  std::string requests;              // one inline request body per object
};

// Writes every input of the three workloads into `out_dir` (which must not
// exist yet). Returns a process exit code.
int Prepare(uint64_t seed, double ref_nominal_ms, const std::string& out_dir);

bool LoadManifest(const std::string& dir, Manifest* manifest);

}  // namespace perfbench

#endif  // DEPSURF_PERFBENCH_PREPARE_H_
