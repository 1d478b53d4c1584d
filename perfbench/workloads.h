// Entry points of the three workloads; each returns a process exit code.
#ifndef DEPSURF_PERFBENCH_WORKLOADS_H_
#define DEPSURF_PERFBENCH_WORKLOADS_H_

#include "perfbench/harness.h"
#include "perfbench/prepare.h"

namespace perfbench {

int RunBuild(const Manifest& manifest, const RunOptions& options);
int RunQuery(const Manifest& manifest, const RunOptions& options);
int RunFix(const Manifest& manifest, const RunOptions& options);

}  // namespace perfbench

#endif  // DEPSURF_PERFBENCH_WORKLOADS_H_
