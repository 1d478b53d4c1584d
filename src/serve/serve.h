// Dataset-as-a-service: a long-lived query engine over N opened datasets.
//
// `depsurf serve` is the shape the ROADMAP north star asks for: datasets are
// opened once through a zero-copy mmap, and each batch of dependency-set
// queries is answered in three passes. The first reads every line in
// request order and classifies it as an error, a hit in the result cache,
// a duplicate of an earlier miss in the batch, or a new miss. The second
// answers each distinct miss once: the calling thread and up to jobs - 1
// threads of a persistent pool, made when the engine opens, claim misses
// from one shared counter. The third assembles the responses and admits
// answers to the cache, again in request order. Since every decision is
// taken in request order, responses are byte-identical at any --jobs value.
// The content-hash result cache answers repeated queries without
// re-analysis; an object line whose bytes hash to a known key is answered
// without parsing the object again.
//
// Wire format: newline-delimited JSON. One request per line:
//   {"id": 1, "program": "biotop", "funcs": ["vfs_read"],
//    "fields": {"request": {"rq_disk": {"type": "struct gendisk *",
//                                        "guarded": false}}},
//    "tracepoints": ["block_rq_issue"], "syscalls": ["openat2"],
//    "lsm_hooks": []}
// or, to analyze an on-disk eBPF object instead of inline lists:
//   {"id": "obj-1", "object": "prog.o"}
// One response per line, in request order:
//   {"id": 1, "cache": "miss", "ok": true, "results": [...]}
//   {"id": 2, "ok": false, "error": "..."}
// Lines are read in one pass by ReadRequestLine (request_reader.h), which
// also defines the key rules and the order errors are reported in.
#ifndef DEPSURF_SRC_SERVE_SERVE_H_
#define DEPSURF_SRC_SERVE_SERVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/dataset_io.h"
#include "src/core/dependency_set.h"
#include "src/util/worker_pool.h"

namespace depsurf {

inline constexpr char kServeReportSchema[] = "depsurf.serve_report.v1";

struct ServeOptions {
  // How many threads answer a batch's misses: the calling thread plus
  // jobs - 1 pool threads, which persist from Open until the engine is
  // destroyed (none at 1). 0 auto-sizes like study builds:
  // min(hardware_concurrency, 8). Responses, counters and cache entries are
  // byte-identical for any value.
  int jobs = 0;
  // Result-cache admission bound: once this many distinct results are
  // cached, later misses are computed but not admitted.
  size_t cache_capacity = 4096;
};

class ServeEngine {
 public:
  // Opens every dataset up front; any failure aborts the whole open.
  static Result<ServeEngine> Open(const std::vector<std::string>& dataset_paths,
                                  const ServeOptions& options);

  ServeEngine(ServeEngine&&) = default;
  ServeEngine& operator=(ServeEngine&&) = default;
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  // Answers one batch of request lines. The returned vector is parallel to
  // `lines`. Misses are answered under per-request obs::Contexts, on the
  // calling thread and the pool's; request reading, object parsing,
  // summary counters and one "serve.batch" root span stay on the calling
  // thread, in its context. If answering a miss throws, the exception
  // reaches the caller once every pool thread has stopped, and the batch
  // changes no counter and no cache entry. Not re-entrant: call from one
  // thread at a time.
  std::vector<std::string> HandleBatch(const std::vector<std::string>& lines);

  // Deterministic depsurf.serve_report.v1 summary of everything served so
  // far (no timing fields; see docs/FORMATS.md §7).
  std::string ReportJson() const;

  uint64_t requests() const { return requests_; }
  uint64_t ok_responses() const { return ok_; }
  uint64_t error_responses() const { return errors_; }
  uint64_t cache_hits() const { return hits_; }
  uint64_t cache_misses() const { return misses_; }
  size_t cache_entries() const { return cache_.size(); }
  size_t num_datasets() const { return datasets_.size(); }

 private:
  struct DatasetEntry {
    std::string path;
    MmapDataset view;
  };
  struct RequestOutcome {
    std::string body;  // response fragment after the cache marker
    uint64_t rows = 0;
    uint64_t mismatch_rows = 0;
  };

  ServeEngine() = default;
  RequestOutcome Answer(const DependencySet& deps) const;

  ServeOptions options_;
  std::vector<DatasetEntry> datasets_;
  // jobs - 1 helper threads. Declared after datasets_ so the threads join
  // before the views their tasks read are unmapped; a pointer so the engine
  // stays movable.
  std::unique_ptr<WorkerPool> pool_;
  std::unordered_map<uint64_t, std::string> cache_;
  uint64_t requests_ = 0;
  uint64_t ok_ = 0;
  uint64_t errors_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Serves `engine` on a unix stream socket at `path`. Each connection is one
// batch: the client writes request lines and shuts down its write side; the
// server answers every line, then closes. A client that hangs up before
// reading its answers loses them, and the loop goes on to the next one.
// `listening` runs once the socket is bound. Returns after
// `max_connections` connections (0: never), or on a socket, bind, listen
// or accept error, with the message the CLI prints.
Status ServeUnixSocket(ServeEngine& engine, const std::string& path, uint64_t max_connections,
                       const std::function<void()>& listening);

}  // namespace depsurf

#endif  // DEPSURF_SRC_SERVE_SERVE_H_
