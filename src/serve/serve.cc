#include "src/serve/serve.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "src/bpf/bpf_object.h"
#include "src/core/report.h"
#include "src/obs/context.h"
#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/serve/request_reader.h"
#include "src/util/prng.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// Same auto-sizing rule as the study build executor: surfaces/queries are
// memory-heavy, so the default window is bounded even on wide machines.
size_t EffectiveWindow(int jobs) {
  if (jobs > 0) {
    return static_cast<size_t>(jobs);
  }
  size_t window = std::max<unsigned>(1, std::thread::hardware_concurrency());
  return std::min(window, size_t{8});
}

// Reads a whole file. Any open, stat or read error, a directory's EISDIR
// included, returns false.
bool ReadObjectFile(const std::string& path, std::vector<uint8_t>* bytes) {
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  struct stat st {};
  bool ok = fstat(fd, &st) == 0;
  // One byte past the stat size, so a regular file reads in one call plus
  // the one that sees end of file.
  bytes->resize(ok && st.st_size > 0 ? static_cast<size_t>(st.st_size) + 1 : 4096);
  size_t got = 0;
  while (ok) {
    if (got == bytes->size()) {
      bytes->resize(bytes->size() * 2);
    }
    const ssize_t n = read(fd, bytes->data() + got, bytes->size() - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      ok = false;
    }
  }
  close(fd);
  bytes->resize(got);
  return ok;
}

// Canonical form for the content hash: every container is sorted
// (std::set/std::map), so equal dependency sets hash equal regardless of
// the JSON spelling that produced them. The form is streamed into the hash,
// never built as a string.
uint64_t DependencySetKey(const DependencySet& deps) {
  StringHasher canonical;
  canonical.Add("p\x01").Add(deps.program);
  for (const std::string& name : deps.funcs) {
    canonical.Add("\x02f").Add(name);
  }
  for (const std::string& name : deps.lsm_hooks) {
    canonical.Add("\x02l").Add(name);
  }
  for (const std::string& name : deps.tracepoints) {
    canonical.Add("\x02t").Add(name);
  }
  for (const std::string& name : deps.syscalls) {
    canonical.Add("\x02s").Add(name);
  }
  for (const auto& [struct_name, field_map] : deps.fields) {
    canonical.Add("\x02S").Add(struct_name);
    for (const auto& [field_name, dep] : field_map) {
      canonical.Add("\x03").Add(field_name).Add("\x01").Add(dep.expected_type);
      canonical.Add(dep.guarded ? "\x01g" : "\x01u");
    }
  }
  return HashCombine({HashString("serve.deps"), canonical.Finish()});
}

struct ParsedRequest {
  std::string id_json = "null";
  std::string error;  // non-empty: malformed request (bypasses the cache)
  uint64_t key = 0;
  DependencySet deps;
};

// Reads one request line into its dependency set and cache key. An object
// line stops after hashing its bytes when `known(key)`, i.e. the key is
// cached or already dispatched in this batch: a key gets there only after
// its bytes parsed and extracted cleanly, so the answer cannot change.
template <typename Known>
ParsedRequest ParseRequest(const std::string& line, const Known& known) {
  RequestLine request = ReadRequestLine(line);
  ParsedRequest out;
  out.id_json = std::move(request.id_json);
  if (!request.error.empty()) {
    out.error = std::move(request.error);
    return out;
  }
  if (!request.has_object) {
    out.deps = std::move(request.deps);
    out.key = DependencySetKey(out.deps);
    return out;
  }
  std::vector<uint8_t> bytes;
  if (!ReadObjectFile(request.object_path, &bytes)) {
    out.error = "cannot read object file: " + request.object_path;
    return out;
  }
  // Admission key: the object's content hash, not its path — re-uploads
  // of the same bytes hit regardless of filename.
  out.key = HashCombine(
      {HashString("serve.object"),
       HashString(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()))});
  if (known(out.key)) {
    return out;
  }
  Result<BpfObject> obj = ParseBpfObject(std::move(bytes));
  if (!obj.ok()) {
    out.error = "bad eBPF object: " + obj.error().message();
    return out;
  }
  Result<DependencySet> deps = ExtractDependencySet(obj.value());
  if (!deps.ok()) {
    out.error = "cannot extract dependency set: " + deps.error().message();
    return out;
  }
  out.deps = deps.TakeValue();
  return out;
}

}  // namespace

Result<ServeEngine> ServeEngine::Open(const std::vector<std::string>& dataset_paths,
                                      const ServeOptions& options) {
  if (dataset_paths.empty()) {
    return Error(ErrorCode::kInvalidArgument, "serve needs at least one dataset");
  }
  ServeEngine engine;
  engine.options_ = options;
  for (const std::string& path : dataset_paths) {
    auto opened = MmapDataset::Open(path);
    if (!opened.ok()) {
      return opened.TakeError().Wrap("opening " + path);
    }
    engine.datasets_.push_back(DatasetEntry{path, opened.TakeValue()});
  }
  // The calling thread answers misses too, so the pool holds the rest of
  // the window: none at --jobs=1.
  engine.pool_ = std::make_unique<WorkerPool>(EffectiveWindow(options.jobs) - 1);
  return engine;
}

ServeEngine::RequestOutcome ServeEngine::Answer(const DependencySet& deps) const {
  // Each request runs under a fresh isolated context: its spans/metrics
  // stay per-request instead of flooding the server's own collectors, and
  // helper threads never race on the global registries.
  obs::Context context;
  obs::ScopedContext scoped(context);
  // The body is built by hand, not through obs::JsonWriter: it is the only
  // JSON on a timed path (perfbench `query`), where a writer's separator and
  // key logic cost more than these appends. Every string from outside still
  // goes through AppendJsonEscaped.
  RequestOutcome outcome;
  std::string& body = outcome.body;
  body += "\"ok\": true, \"results\": [";
  {
    obs::ScopedSpan span("serve.request");
    span.AddAttr("program", deps.program);
    span.AddAttr("datasets", static_cast<uint64_t>(datasets_.size()));
    for (size_t d = 0; d < datasets_.size(); ++d) {
      const DatasetEntry& entry = datasets_[d];
      ProgramReport report = AnalyzeProgram(entry.view, deps);
      size_t estimate = entry.path.size() + 160;
      for (const ReportRow& row : report.rows) {
        estimate += row.name.size() + 48 + 4 * row.cells.size();
      }
      body.reserve(body.size() + estimate);
      if (d != 0) {
        body += ',';
      }
      body += "{\"dataset\": \"";
      obs::AppendJsonEscaped(body, entry.path);
      body += "\", \"format\": \"v2\", \"images\": ";
      body += std::to_string(entry.view.num_images());
      body += ", \"any_mismatch\": ";
      body += report.AnyMismatch() ? "true" : "false";
      body += ", \"worst_implication\": \"";
      obs::AppendJsonEscaped(body, ImplicationName(report.WorstImplication()));
      body += "\", \"rows\": [";
      for (size_t r = 0; r < report.rows.size(); ++r) {
        const ReportRow& row = report.rows[r];
        if (r != 0) {
          body += ',';
        }
        body += "{\"kind\": \"";
        body += DepKindName(row.kind);
        body += "\", \"name\": \"";
        obs::AppendJsonEscaped(body, row.name);
        body += "\", \"cells\": [";
        for (size_t c = 0; c < row.cells.size(); ++c) {
          if (c != 0) {
            body += ',';
          }
          body += '"';
          body += MismatchCellString(row.cells[c]);
          body += '"';
        }
        body += "]}";
        outcome.rows += 1;
        outcome.mismatch_rows += row.AnyMismatch() ? 1 : 0;
      }
      body += "]}";
    }
    span.AddAttr("rows", outcome.rows);
    span.AddAttr("rows_mismatching", outcome.mismatch_rows);
  }
  body += ']';
  return outcome;
}

std::vector<std::string> ServeEngine::HandleBatch(const std::vector<std::string>& lines) {
  obs::ScopedSpan batch_span("serve.batch");
  batch_span.AddAttr("requests", static_cast<uint64_t>(lines.size()));

  // Pass 1, in request order: each line is an error, a hit in the result
  // cache, a duplicate of an earlier miss in this batch, or the first miss
  // of its key. Deciding this before anything is answered keeps markers and
  // counters independent of how the misses are scheduled.
  enum class Class : uint8_t { kError, kCached, kDuplicate, kMiss };
  struct Classified {
    Class is = Class::kError;
    std::string id_json;
    std::string error;
    uint64_t key = 0;
    const std::string* cached = nullptr;  // kCached: the body, read in place
    size_t miss = 0;                      // kDuplicate, kMiss: index into misses
  };
  std::vector<Classified> classified(lines.size());
  std::vector<DependencySet> miss_deps;
  std::unordered_map<uint64_t, size_t> miss_by_key;
  auto known = [&](uint64_t key) {
    return cache_.count(key) != 0 || miss_by_key.count(key) != 0;
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    ParsedRequest parsed = ParseRequest(lines[i], known);
    Classified& line = classified[i];
    line.id_json = std::move(parsed.id_json);
    line.key = parsed.key;
    if (!parsed.error.empty()) {
      line.error = std::move(parsed.error);
    } else if (auto cached = cache_.find(parsed.key); cached != cache_.end()) {
      line.is = Class::kCached;
      line.cached = &cached->second;
    } else if (auto [entry, first] = miss_by_key.emplace(parsed.key, miss_deps.size()); !first) {
      line.is = Class::kDuplicate;
      line.miss = entry->second;
    } else {
      line.is = Class::kMiss;
      line.miss = miss_deps.size();
      miss_deps.push_back(std::move(parsed.deps));
    }
  }

  // Pass 2: answer each distinct miss once, on this thread and the pool's.
  std::vector<RequestOutcome> outcomes(miss_deps.size());
  pool_->ForEachIndex(miss_deps.size(), [&](size_t m) { outcomes[m] = Answer(miss_deps[m]); });

  // Pass 3, in request order: responses, counters and cache admissions.
  // Admitting cannot move a cached body `cached` points at: unordered_map
  // keeps its elements in place when it rehashes. Each response splices its
  // id and body by hand, as Answer builds the body.
  std::vector<std::string> responses(lines.size());
  uint64_t batch_hits = 0;
  uint64_t batch_misses = 0;
  uint64_t batch_errors = 0;
  uint64_t batch_rows = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    const Classified& line = classified[i];
    std::string& response = responses[i];
    ++requests_;
    if (line.is == Class::kError) {
      ++errors_;
      ++batch_errors;
      response.reserve(line.id_json.size() + line.error.size() + 40);
      response += "{\"id\": ";
      response += line.id_json;
      response += ", \"ok\": false, \"error\": \"";
      obs::AppendJsonEscaped(response, line.error);
      response += "\"}";
      continue;
    }
    const bool hit = line.is != Class::kMiss;
    const std::string& body = line.is == Class::kCached ? *line.cached : outcomes[line.miss].body;
    if (hit) {
      ++hits_;
      ++batch_hits;
    } else {
      ++misses_;
      ++batch_misses;
      batch_rows += outcomes[line.miss].rows;
      if (cache_.size() < options_.cache_capacity) {
        cache_.emplace(line.key, body);
      }
    }
    ++ok_;
    response.reserve(line.id_json.size() + body.size() + 32);
    response += "{\"id\": ";
    response += line.id_json;
    response += hit ? ", \"cache\": \"hit\", " : ", \"cache\": \"miss\", ";
    response += body;
    response += '}';
  }

  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Incr("serve.requests", lines.size());
  metrics.Incr("serve.cache_hits", batch_hits);
  metrics.Incr("serve.cache_misses", batch_misses);
  metrics.Incr("serve.request_errors", batch_errors);
  metrics.Incr("serve.rows_checked", batch_rows);
  batch_span.AddAttr("cache_hits", batch_hits);
  batch_span.AddAttr("cache_misses", batch_misses);
  batch_span.AddAttr("errors", batch_errors);
  return responses;
}

std::string ServeEngine::ReportJson() const {
  std::string out;
  obs::JsonWriter writer(out);
  writer.BeginObject().Break(0).Key("schema").String(kServeReportSchema);
  writer.Break(0).Key("jobs").Int(options_.jobs);
  writer.Break(0).Key("datasets").BeginArray();
  for (const DatasetEntry& entry : datasets_) {
    writer.Break(2).BeginObject().Key("path").String(entry.path).Key("format").String("v2");
    writer.Key("images").Uint(entry.view.num_images()).EndObject();
  }
  writer.Break(0).EndArray().Break(0).Key("requests").Uint(requests_);
  writer.Break(0).Key("ok").Uint(ok_);
  writer.Break(0).Key("errors").Uint(errors_);
  writer.Break(0).Key("cache").BeginObject().Key("hits").Uint(hits_).Key("misses").Uint(misses_);
  writer.Key("entries").Uint(cache_.size()).Key("capacity").Uint(options_.cache_capacity);
  writer.EndObject().Break(0).EndObject();
  out += '\n';
  return out;
}

Status ServeUnixSocket(ServeEngine& engine, const std::string& path, uint64_t max_connections,
                       const std::function<void()>& listening) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status(ErrorCode::kInvalidArgument, "--socket: path longer than sockaddr_un allows");
  }
  memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int listener = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    return Status(ErrorCode::kIoError, StrFormat("socket: %s", strerror(errno)));
  }
  unlink(path.c_str());
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listener, 8) != 0) {
    const int saved = errno;
    close(listener);
    return Status(ErrorCode::kIoError,
                  StrFormat("cannot listen on %s: %s", path.c_str(), strerror(saved)));
  }
  if (listening) {
    listening();
  }
  for (uint64_t served = 0; max_connections == 0 || served < max_connections; ++served) {
    const int conn = accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        continue;
      }
      const int saved = errno;
      close(listener);
      return Status(ErrorCode::kIoError, StrFormat("accept: %s", strerror(saved)));
    }
    std::string incoming;
    char buffer[4096];
    ssize_t n;
    while ((n = read(conn, buffer, sizeof(buffer))) > 0) {
      incoming.append(buffer, static_cast<size_t>(n));
    }
    std::vector<std::string> lines;
    for (const std::string& request : SplitString(incoming, '\n')) {
      if (!request.empty()) {
        lines.push_back(request);
      }
    }
    std::string out;
    for (const std::string& response : engine.HandleBatch(lines)) {
      out += response;
      out += '\n';
    }
    // MSG_NOSIGNAL: a client that hung up gets EPIPE here, not a SIGPIPE
    // that would kill the server.
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t wrote = send(conn, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (wrote <= 0) {
        break;  // client hung up; drop the rest of this batch
      }
      sent += static_cast<size_t>(wrote);
    }
    close(conn);
  }
  close(listener);
  unlink(path.c_str());
  return Status::Ok();
}

}  // namespace depsurf
