// The serving workloads (serve-cold, serve-warm): pivotscale_served at its
// default flags, driven closed-loop by this process over kConnections
// connections, one single-line batch per request.
//
// serve-cold: --cache-bytes 1 (below every artifact) and each connection
// cycles through its own copies of the artifacts, so every request pays
// an artifact read and a count. serve-warm: one shared set of artifacts,
// --preload, and an untimed warm-up over every (artifact, k, per_vertex)
// the stream can ask for, so every timed request is a memo hit.
//
// Traced run: an untraced and a traced segment against the same server,
// a third segment against a server with --telemetry-json, then an
// in-process replay of every (artifact, k, mode) of the stream through
// ReadArtifact and CountCliques.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "graph/dag.h"
#include "pivot/count.h"
#include "store/artifact.h"
#include "util/telemetry.h"

namespace perfbench {

namespace ps = pivotscale;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// The server process

class Server {
 public:
  Server(const Options& options, std::vector<std::string> args)
      : options_(options), args_(std::move(args)) {}
  ~Server() { Stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void Start() {
    const std::string port_file = options_.work_dir + "/port";
    const std::string log = options_.work_dir + "/served.log";
    fs::remove(port_file);
    std::vector<std::string> argv = {options_.served, "--port", "0",
                                     "--port-file", port_file};
    argv.insert(argv.end(), args_.begin(), args_.end());
    // Built before fork: the child of a multithreaded process may only
    // make async-signal-safe calls until exec, so no allocation there.
    std::vector<char*> raw;
    for (std::string& a : argv) raw.push_back(a.data());
    raw.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execv(raw[0], raw.data());
      ::_exit(127);
    }
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (Clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("pivotscale_served exited during start; "
                                 "see " + log);
      }
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<std::uint16_t>(port);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    throw std::runtime_error("pivotscale_served did not start in 60 s");
  }

  // Graceful drain (SIGTERM), so a --telemetry-json report is written;
  // SIGKILL if the drain takes longer than 30 s.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

  int pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  const Options& options_;
  std::vector<std::string> args_;
  int pid_ = -1;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Client connection: one blocking socket with at most one request in
// flight (each request is its own single-line batch).

class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Open(std::uint16_t port, std::string* error) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return Error("socket", error);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0)
      return Error("connect", error);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{60, 0};  // a stuck server must not hang the run
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    return true;
  }

  // Sends `line` followed by a blank line: one batch of one request.
  bool Send(const std::string& line, std::string* error) {
    const std::string payload = line + "\n\n";
    std::size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n = ::send(fd_, payload.data() + off,
                               payload.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return Error("send", error);
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  // One recv; appends every completed line to `lines`.
  bool Receive(std::vector<std::string>* lines, std::string* error) {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      *error = "connection closed by server";
      return false;
    }
    if (n < 0) return Error("recv", error);
    buffer_.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buffer_.find('\n')) != std::string::npos) {
      lines->push_back(buffer_.substr(0, nl));
      buffer_.erase(0, nl + 1);
    }
    return true;
  }

  bool RoundTrip(const std::string& line, std::string* response,
                 std::string* error) {
    if (!Send(line, error)) return false;
    std::vector<std::string> lines;
    while (lines.empty())
      if (!Receive(&lines, error)) return false;
    *response = lines.front();
    return true;
  }

  int fd() const { return fd_; }

 private:
  static bool Error(const char* what, std::string* error) {
    *error = std::string(what) + ": " + std::strerror(errno);
    return false;
  }

  int fd_ = -1;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// Set-up: artifacts and the answers to check against.

struct Request {
  std::size_t artifact = 0;
  std::uint32_t k = 3;
  bool per_vertex = false;
};

struct Expected {
  std::map<std::uint32_t, std::string> total;  // k -> reference count
  // k -> top kTopVertices (vertex, count) by per-vertex participation
  std::map<std::uint32_t, std::vector<std::pair<ps::NodeId, std::string>>>
      top;
};

struct Prepared {
  std::vector<std::string> shared;              // one artifact per analog
  std::vector<std::vector<std::string>> copies;  // cold: per connection
  std::vector<Expected> expected;
  std::uint64_t min_artifact_bytes = 0;

  const std::string& Path(std::size_t connection, std::size_t artifact,
                          bool cold) const {
    return cold ? copies[connection][artifact] : shared[artifact];
  }
};

std::vector<std::pair<ps::NodeId, std::string>> TopVertices(
    const std::vector<ps::BigCount>& counts) {
  std::vector<ps::NodeId> order;
  for (ps::NodeId v = 0; v < counts.size(); ++v)
    if (counts[v] != ps::BigCount{}) order.push_back(v);
  const std::size_t top = std::min<std::size_t>(kTopVertices, order.size());
  std::partial_sort(order.begin(), order.begin() + top, order.end(),
                    [&](ps::NodeId a, ps::NodeId b) {
                      if (counts[a] != counts[b]) return counts[b] < counts[a];
                      return a < b;
                    });
  std::vector<std::pair<ps::NodeId, std::string>> out;
  for (std::size_t i = 0; i < top; ++i)
    out.push_back({order[i], counts[order[i]].ToString()});
  return out;
}

// Generates every analog, relabels it with the seed, builds and writes its
// artifact, and makes the per-connection copies when cold. The expected
// answers are filled in separately (ExpectedAnswers), outside set-up.
Prepared Prepare(const WorkloadSpec& spec, const Options& options,
                 Tracer* tracer, Tracer::Id parent) {
  Prepared p;
  const std::string dir = options.work_dir + "/artifacts";
  fs::create_directories(dir);
  for (const GraphSpec& g : spec.graphs) {
    const ps::Graph graph = RelabeledGraph(g, options.seed);
    const std::string path = dir + "/" + g.analog + ".psx";
    ps::ArtifactBuildOptions artifact_options;
    artifact_options.heuristic.min_nodes = kHeuristicMinNodes;
    Tracer::Scope build_span(tracer, "store.build", parent);
    const ps::GraphArtifact artifact =
        ps::BuildArtifact(graph, artifact_options);
    ps::WriteArtifact(path, artifact);
    build_span.Stop();
    p.shared.push_back(path);
    const std::uint64_t bytes = artifact.HeapBytes();
    p.min_artifact_bytes = p.min_artifact_bytes == 0
                               ? bytes
                               : std::min(p.min_artifact_bytes, bytes);
  }
  if (spec.cold) {
    p.copies.resize(kConnections);
    for (int c = 0; c < kConnections; ++c) {
      const std::string cdir = dir + "/conn" + std::to_string(c);
      fs::create_directories(cdir);
      for (std::size_t a = 0; a < p.shared.size(); ++a) {
        const std::string copy =
            cdir + "/" + spec.graphs[a].analog + ".psx";
        fs::copy_file(p.shared[a], copy,
                      fs::copy_options::overwrite_existing);
        p.copies[c].push_back(copy);
      }
    }
  }
  return p;
}

// The answers to check against: the reference totals, and the top
// vertices of an in-process per-vertex count of each written artifact.
// This is the checker's own work, so it runs once per run and outside the
// timed set-up (the artifacts depend only on the seed).
std::vector<Expected> ExpectedAnswers(const WorkloadSpec& spec,
                                      const Prepared& prepared,
                                      const References& refs,
                                      RunOutput* out) {
  std::vector<Expected> expected;
  for (std::size_t a = 0; a < spec.graphs.size(); ++a) {
    const GraphSpec& g = spec.graphs[a];
    const ps::GraphArtifact artifact = ps::ReadArtifact(prepared.shared[a]);
    Expected e;
    for (std::uint32_t k : kSingleKs) e.total[k] = refs.Count(g, k);
    for (std::uint32_t k : kPerVertexKs) {
      ps::CountOptions per_vertex;
      per_vertex.k = k;
      per_vertex.per_vertex = true;
      per_vertex.num_threads = kThreads;
      const ps::CountResult r = ps::CountCliques(artifact.dag, per_vertex);
      e.top[k] = TopVertices(r.per_vertex);
      if (r.total.ToString() != e.total[k])
        out->Fail(References::Key(g) + " k=" + std::to_string(k) +
                      ": in-process per-vertex total " + r.total.ToString() +
                      ", reference " + e.total[k],
                  true);
    }
    expected.push_back(std::move(e));
  }
  return expected;
}

std::string RequestLine(std::int64_t id, const std::string& path,
                        const Request& r) {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"graph\":" + JsonWriter::Escape(path) +
                     ",\"k\":" + std::to_string(r.k);
  if (r.per_vertex)
    line += ",\"per_vertex\":true,\"top\":" + std::to_string(kTopVertices);
  return line + "}";
}

struct Response {
  bool ok = false;
  bool cache_hit = false;
  bool memo_hit = false;
  double engine_s = 0;
};

// Parses and checks one response; failures go to `out`.
Response Check(const std::string& line, const Request& req,
               const std::string& what, const Expected* expected,
               RunOutput* out) {
  Response r;
  JsonValue doc;
  try {
    doc = ParseJson(line);
  } catch (const std::exception& e) {
    out->Fail(what + ": unparseable response: " + e.what(), false);
    return r;
  }
  const JsonValue* ok = doc.Find("ok");
  if (ok == nullptr || !ok->bool_value) {
    const JsonValue* error = doc.Find("error");
    out->Fail(what + ": error response: " +
                  (error != nullptr ? error->string_value : line),
              false);
    return r;
  }
  const JsonValue* cache = doc.Find("cache_hit");
  const JsonValue* memo = doc.Find("memo_hit");
  const JsonValue* seconds = doc.Find("seconds");
  r.cache_hit = cache != nullptr && cache->bool_value;
  r.memo_hit = memo != nullptr && memo->bool_value;
  r.engine_s = seconds != nullptr ? seconds->number : 0;

  const JsonValue* count = doc.Find("count");
  const std::string want =
      expected != nullptr ? expected->total.at(req.k) : std::string();
  if (count == nullptr || count->string_value != want || want.empty()) {
    out->Fail(what + ": count " + (count ? count->string_value : "missing") +
                  ", reference " + want,
              true);
    return r;
  }
  if (req.per_vertex) {
    const auto& top = expected->top.at(req.k);
    const JsonValue* got = doc.Find("top_vertices");
    bool match = got != nullptr && got->array.size() == top.size();
    for (std::size_t i = 0; match && i < top.size(); ++i) {
      const JsonValue* v = got->array[i].Find("vertex");
      const JsonValue* c = got->array[i].Find("count");
      match = v != nullptr && c != nullptr &&
              static_cast<ps::NodeId>(v->number) == top[i].first &&
              c->string_value == top[i].second;
    }
    if (!match) {
      out->Fail(what + ": top_vertices differ from the in-process count",
                true);
      return r;
    }
  }
  r.ok = true;
  return r;
}

// ---------------------------------------------------------------------------
// The request stream

// One connection's seeded stream: the artifacts in a fresh random order
// every cycle, never the same artifact twice in a row; each request is
// single-k with probability kSingleKShare, per-vertex otherwise.
class Stream {
 public:
  Stream(std::uint64_t seed, int connection, std::size_t artifacts)
      : state_(ShuffleSeed(seed, "stream" + std::to_string(connection))),
        artifacts_(artifacts) {}

  Request Next() {
    if (pos_ == cycle_.size()) NewCycle();
    Request r;
    r.artifact = cycle_[pos_++];
    last_ = r.artifact;
    r.per_vertex = Uniform() >= kSingleKShare;
    const auto& ks = r.per_vertex ? kPerVertexKs : kSingleKs;
    r.k = ks[Below(ks.size())];
    return r;
  }

  std::size_t cycle_length() const { return artifacts_; }

 private:
  std::uint64_t NextU64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(NextU64() >> 11) * 0x1p-53; }
  std::size_t Below(std::size_t n) { return NextU64() % n; }

  void NewCycle() {
    cycle_.resize(artifacts_);
    for (std::size_t i = 0; i < artifacts_; ++i) cycle_[i] = i;
    for (std::size_t i = artifacts_; i > 1; --i)
      std::swap(cycle_[i - 1], cycle_[Below(i)]);
    if (artifacts_ > 1 && cycle_[0] == last_)
      std::swap(cycle_[0], cycle_[1 + Below(artifacts_ - 1)]);
    pos_ = 0;
  }

  std::uint64_t state_;
  std::size_t artifacts_;
  std::vector<std::size_t> cycle_;
  std::size_t pos_ = 0;
  std::size_t last_ = static_cast<std::size_t>(-1);
};

struct Segment {
  std::vector<double> latency_s, engine_s, outside_s, cycle_s;
  std::uint64_t responses = 0, ok = 0, cache_hits = 0, memo_hits = 0;
  double elapsed_s = 0;
};

// Closed loop over kConnections connections for `seconds`, driven from
// one thread: each connection sends its next request as soon as the
// previous response arrives. With a tracer, every request gets a
// "client.request" span (request id = protocol id) and a child
// "service.engine" span of the engine's reported seconds, placed at the
// end of the request.
Segment Drive(const WorkloadSpec& spec, const Prepared& prepared,
              std::vector<Stream>* streams, std::uint16_t port,
              double seconds, int inject_errors, Tracer* tracer,
              RunOutput* out) {
  struct Slot {
    Connection conn;
    bool busy = false;
    int to_inject = 0;
    bool injected = false;
    Request req;
    std::string what;
    std::int64_t next_id = 0;
    std::int64_t request_id = 0;
    Tracer::Id span = Tracer::kNone;
    Clock::time_point sent, cycle_start;
    std::size_t in_cycle = 0;
  };
  Segment seg;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  std::vector<Slot> slots(kConnections);
  std::string error;

  // Sends the slot's next request; false once the run is over or the
  // connection broke.
  const auto send_next = [&](std::size_t c) {
    Slot& s = slots[c];
    std::string path;
    s.injected = s.to_inject > 0;
    if (s.injected) {
      // Injected fault: a request for an artifact that does not exist.
      --s.to_inject;
      s.req = Request{};
      path = prepared.shared[0] + ".missing";
      s.what = "injected";
    } else {
      if (Clock::now() >= deadline) return false;
      s.req = (*streams)[c].Next();
      path = prepared.Path(c, s.req.artifact, spec.cold);
      s.what = References::Key(spec.graphs[s.req.artifact]) + " k=" +
               std::to_string(s.req.k) +
               (s.req.per_vertex ? " per_vertex" : "");
    }
    s.request_id = s.next_id++;
    ++out->attempted;
    if (tracer != nullptr && !s.injected)
      s.span = tracer->Begin("client.request", Tracer::kNone, s.request_id);
    s.sent = Clock::now();
    if (!s.conn.Send(RequestLine(s.request_id, path, s.req), &error)) {
      out->Fail("connection dropped: " + error, false);
      return false;
    }
    return true;
  };

  const auto on_response = [&](std::size_t c, const std::string& line) {
    Slot& s = slots[c];
    const auto now = Clock::now();
    const double latency = Seconds(s.sent, now);
    const Response r =
        Check(line, s.req, s.what,
              s.injected ? nullptr : &prepared.expected[s.req.artifact], out);
    if (s.injected) return;
    if (tracer != nullptr) {
      tracer->End(s.span);
      const std::int64_t end = tracer->NowNs();
      tracer->Add("service.engine",
                  end - static_cast<std::int64_t>(r.engine_s * 1e9), end,
                  s.span, s.request_id);
    }
    ++seg.responses;
    seg.latency_s.push_back(latency);
    if (r.ok) {
      ++seg.ok;
      seg.engine_s.push_back(r.engine_s);
      seg.outside_s.push_back(std::max(0.0, latency - r.engine_s));
      if (r.cache_hit) ++seg.cache_hits;
      if (r.memo_hit) ++seg.memo_hits;
    }
    if (++s.in_cycle == (*streams)[c].cycle_length()) {
      seg.cycle_s.push_back(Seconds(s.cycle_start, now));
      s.cycle_start = now;
      s.in_cycle = 0;
    }
  };

  for (std::size_t c = 0; c < slots.size(); ++c) {
    Slot& s = slots[c];
    s.next_id = static_cast<std::int64_t>(c) * 1'000'000'000;
    s.to_inject = c == 0 ? inject_errors : 0;
    if (!s.conn.Open(port, &error)) {
      ++out->attempted;
      out->Fail("connection " + std::to_string(c) + ": " + error, false);
      continue;
    }
    s.cycle_start = Clock::now();
    s.busy = send_next(c);
  }
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t c = 0; c < slots.size(); ++c) {
      if (!slots[c].busy) continue;
      fds.push_back({slots[c].conn.fd(), POLLIN, 0});
      owner.push_back(c);
    }
    if (fds.empty()) break;
    const int ready = ::poll(fds.data(), fds.size(), 60'000);
    if (ready <= 0) {
      for (std::size_t c : owner) {
        out->Fail("no response within 60 s", false);
        slots[c].busy = false;
      }
      break;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const std::size_t c = owner[i];
      std::vector<std::string> lines;
      if (!slots[c].conn.Receive(&lines, &error)) {
        out->Fail("connection dropped: " + error, false);
        slots[c].busy = false;
        continue;
      }
      for (const std::string& line : lines) {
        on_response(c, line);
        slots[c].busy = send_next(c);
      }
    }
  }
  seg.elapsed_s = Seconds(start, Clock::now());
  return seg;
}

// Untimed pass over every (artifact, k, per_vertex) the stream can ask for,
// largest single k first so one per-size run covers the smaller ones.
// Returns how many of its requests ran a count (not memo hits).
std::uint64_t WarmUp(const WorkloadSpec& spec, const Prepared& prepared,
                     std::uint16_t port, RunOutput* out) {
  Connection conn;
  std::string error, response;
  if (!conn.Open(port, &error))
    throw std::runtime_error("warm-up connection: " + error);
  std::vector<Request> requests;
  for (std::size_t a = 0; a < prepared.shared.size(); ++a) {
    for (auto k = kSingleKs.rbegin(); k != kSingleKs.rend(); ++k)
      requests.push_back({a, *k, false});
    for (std::uint32_t k : kPerVertexKs) requests.push_back({a, k, true});
  }
  std::uint64_t runs = 0;
  std::int64_t id = 0;
  for (const Request& req : requests) {
    ++out->attempted;
    if (!conn.RoundTrip(RequestLine(id++, prepared.shared[req.artifact], req),
                        &response, &error))
      throw std::runtime_error("warm-up: " + error);
    const Response r = Check(response, req,
                             "warm-up " +
                                 References::Key(spec.graphs[req.artifact]),
                             &prepared.expected[req.artifact], out);
    if (r.ok && !r.memo_hit) ++runs;
  }
  return runs;
}

std::vector<std::string> ServerArgs(const WorkloadSpec& spec,
                                    const Prepared& prepared,
                                    const std::string& telemetry_json) {
  std::vector<std::string> args;
  if (spec.cold) {
    // Below the smallest artifact: nothing but the newest entry stays.
    args = {"--cache-bytes", "1"};
  } else {
    std::string preload;
    for (const std::string& p : prepared.shared)
      preload += (preload.empty() ? "" : ",") + p;
    args = {"--preload", preload};
  }
  if (!telemetry_json.empty()) {
    args.push_back("--telemetry-json");
    args.push_back(telemetry_json);
  }
  return args;
}

std::vector<Stream> Streams(const Options& options, std::size_t artifacts) {
  std::vector<Stream> streams;
  for (int c = 0; c < kConnections; ++c)
    streams.emplace_back(options.seed, c, artifacts);
  return streams;
}

void ReportLatency(const Segment& seg, RunOutput* out) {
  auto& m = out->metrics;
  m["latency_p50_ms"] = HarrellDavisQuantile(seg.latency_s, 0.50) * 1e3;
  m["latency_p90_ms"] = HarrellDavisQuantile(seg.latency_s, 0.90) * 1e3;
  m["latency_p99_ms"] = HarrellDavisQuantile(seg.latency_s, 0.99) * 1e3;
  m["served_rps"] = static_cast<double>(seg.responses) / seg.elapsed_s;
  m["pipeline_s"] = Median(seg.cycle_s);
  out->detail["latency_samples"] = static_cast<double>(seg.latency_s.size());
  out->detail["cycles"] = static_cast<double>(seg.cycle_s.size());
  out->detail["elapsed_s"] = seg.elapsed_s;
}

RunOutput TimedRun(const WorkloadSpec& spec, const Options& options,
                   const References& refs) {
  RunOutput out;
  std::vector<double> setups;
  Prepared prepared;
  std::unique_ptr<Server> server;
  std::vector<Expected> expected;
  for (int r = 0; r < options.setup_repeats; ++r) {
    server.reset();
    const auto t0 = Clock::now();
    prepared = Prepare(spec, options, nullptr, Tracer::kNone);
    const double prepare_s = Seconds(t0, Clock::now());
    if (expected.empty())
      expected = ExpectedAnswers(spec, prepared, refs, &out);
    prepared.expected = expected;
    const auto t1 = Clock::now();
    server = std::make_unique<Server>(options,
                                      ServerArgs(spec, prepared, ""));
    server->Start();
    if (!spec.cold) WarmUp(spec, prepared, server->port(), &out);
    setups.push_back(prepare_s + Seconds(t1, Clock::now()));
  }
  ResetPeakRss(server->pid());
  std::vector<Stream> streams = Streams(options, spec.graphs.size());
  const Segment seg = Drive(spec, prepared, &streams, server->port(),
                            options.seconds, options.inject_errors, nullptr,
                            &out);
  const double rss = static_cast<double>(PeakRssBytes(server->pid()));
  server.reset();

  out.metrics["setup_s"] = Median(setups);
  out.metrics["peak_rss_mb"] = rss / (1 << 20);
  ReportLatency(seg, &out);
  out.detail["setup_repeats"] = static_cast<double>(setups.size());
  out.detail["cache_hits"] = static_cast<double>(seg.cache_hits);
  out.detail["memo_hits"] = static_cast<double>(seg.memo_hits);
  out.detail["min_artifact_bytes"] =
      static_cast<double>(prepared.min_artifact_bytes);
  return out;
}

// In-process replay of every (artifact, k, mode) the stream asks for:
// ReadArtifact, then CountCliques in the engine's mode (production, and
// with op counters) and in kSingleK (op counters) for the mode ratio.
void Replay(const WorkloadSpec& spec, const Prepared& prepared,
            Tracer* tracer, RunOutput* out) {
  Tracer::Scope replay(tracer, "replay");
  double bytes = 0, count_s = 0, telemetry_s = 0, busy = 0, team_seconds = 0,
         cov_weighted = 0, workspace = 0, max_out = 0;
  double weighted_engine = 0, weighted_single = 0;
  std::uint64_t edge_ops = 0, calls = 0;
  int team = kThreads;
  std::int64_t request = 0;
  for (std::size_t a = 0; a < prepared.shared.size(); ++a) {
    const GraphSpec& g = spec.graphs[a];
    std::map<std::uint32_t, std::uint64_t> single_ops;
    std::vector<Request> combos;
    for (std::uint32_t k : kSingleKs) combos.push_back({a, k, false});
    for (std::uint32_t k : kPerVertexKs) combos.push_back({a, k, true});
    for (const Request& c : combos) {
      Tracer::Scope combo(tracer, "replay.request", replay.id(), request++);
      const std::string& path = prepared.shared[a];
      Tracer::Scope read(tracer, "store.read", combo.id());
      const ps::GraphArtifact artifact = ps::ReadArtifact(path);
      read.Stop();
      bytes += static_cast<double>(fs::file_size(path));
      if (c.k == kSingleKs.front() && !c.per_vertex) {
        Tracer::Scope mod(tracer, "graph.max_out_degree", combo.id());
        max_out += static_cast<double>(ps::MaxOutDegree(artifact.dag));
      }

      ps::CountOptions engine;
      engine.k = c.k;
      engine.mode = c.per_vertex ? ps::CountMode::kSingleK
                                 : ps::CountMode::kAllUpToK;
      engine.per_vertex = c.per_vertex;
      engine.num_threads = kThreads;
      Tracer::Scope count(tracer, "pivot.count", combo.id());
      const ps::CountResult r = ps::CountCliques(artifact.dag, engine);
      const double seconds = count.Stop();
      ++out->attempted;
      const ps::BigCount got = !c.per_vertex && c.k < r.per_size.size()
                                   ? r.per_size[c.k]
                                   : r.total;
      if (got.ToString() != prepared.expected[a].total.at(c.k))
        out->Fail("replay " + References::Key(g) + " k=" +
                      std::to_string(c.k) + ": counted " + got.ToString(),
                  true);
      const auto& b = r.thread_busy_seconds;
      const int size = static_cast<int>(b.size());
      team = std::min(team, size);
      count_s += seconds;
      busy += Sum(b);
      team_seconds += size * seconds;
      cov_weighted += CoefficientOfVariation(b) * seconds;
      workspace = std::max(workspace, static_cast<double>(r.workspace_bytes));

      ps::TelemetryRegistry registry;
      engine.telemetry = &registry;
      engine.collect_op_stats = true;
      Tracer::Scope traced(tracer, "pivot.count.telemetry", combo.id());
      const ps::CountResult rt = ps::CountCliques(artifact.dag, engine);
      telemetry_s += traced.Stop();
      edge_ops += rt.ops.edge_ops;
      calls += rt.ops.calls;

      if (single_ops.count(c.k) == 0) {
        ps::CountOptions single;
        single.k = c.k;
        single.num_threads = kThreads;
        single.collect_op_stats = true;
        Tracer::Scope s(tracer, "pivot.count.single_k", combo.id());
        single_ops[c.k] = ps::CountCliques(artifact.dag, single).ops.edge_ops;
      }
      const double ratio =
          single_ops[c.k] > 0 ? static_cast<double>(rt.ops.edge_ops) /
                                    static_cast<double>(single_ops[c.k])
                              : 0;
      out->metrics["pivot.serve_mode_ops_ratio." + g.analog + ".k" +
                   std::to_string(c.k) + (c.per_vertex ? "pv" : "")] = ratio;
      // Weighted by how often the stream asks for this combination.
      const double weight =
          c.per_vertex ? (1 - kSingleKShare) / kPerVertexKs.size()
                       : kSingleKShare / kSingleKs.size();
      weighted_engine += weight * static_cast<double>(rt.ops.edge_ops);
      weighted_single += weight * static_cast<double>(single_ops[c.k]);
    }
  }
  const std::vector<double> reads =
      tracer != nullptr ? tracer->Durations("store.read")
                        : std::vector<double>{};
  auto& m = out->metrics;
  m["store.read_s"] = Median(reads);
  m["store.read_mb_per_s"] =
      Sum(reads) > 0 ? bytes / (1 << 20) / Sum(reads) : 0;
  m["graph.max_out_degree"] = max_out;
  m["pivot.count_s"] = count_s;
  m["pivot.edge_ops"] = static_cast<double>(edge_ops);
  m["pivot.calls"] = static_cast<double>(calls);
  m["pivot.ns_per_edge_op"] =
      edge_ops > 0 ? team_seconds * 1e9 / static_cast<double>(edge_ops) : 0;
  m["pivot.workspace_bytes"] = workspace;
  m["pivot.serve_mode_ops_ratio"] =
      weighted_single > 0 ? weighted_engine / weighted_single : 0;
  m["exec.busy_cov"] = count_s > 0 ? cov_weighted / count_s : 0;
  m["exec.idle_frac"] = team_seconds > 0 ? 1 - busy / team_seconds : 0;
  m["telemetry.overhead_ratio"] = count_s > 0 ? telemetry_s / count_s : 0;
  out->detail["replay_team_min"] = team;
}

double ReportNumber(const JsonValue& report, const char* section,
                    const char* name) {
  const JsonValue* s = report.Find(section);
  const JsonValue* v = s != nullptr ? s->Find(name) : nullptr;
  return v != nullptr ? v->number : 0;
}

RunOutput TracedRun(const WorkloadSpec& spec, const Options& options,
                    const References& refs) {
  RunOutput out;
  Tracer tracer;
  Prepared prepared;
  std::unique_ptr<Server> server;
  {
    // Set-up is two "setup" spans with the checker's work between them,
    // which TimedRun leaves out of setup_s too.
    Tracer::Scope artifacts(&tracer, "setup");
    prepared = Prepare(spec, options, &tracer, artifacts.id());
    artifacts.Stop();
    {
      Tracer::Scope check(&tracer, "check.expected_answers");
      prepared.expected = ExpectedAnswers(spec, prepared, refs, &out);
    }
    Tracer::Scope setup(&tracer, "setup");
    server = std::make_unique<Server>(options,
                                      ServerArgs(spec, prepared, ""));
    Tracer::Scope start(&tracer, "server.start", setup.id());
    server->Start();
    start.Stop();
    if (!spec.cold) {
      Tracer::Scope warm(&tracer, "service.warm_up", setup.id());
      WarmUp(spec, prepared, server->port(), &out);
    }
  }
  std::vector<Stream> streams = Streams(options, spec.graphs.size());
  const double third = options.seconds / 3;
  const Segment untraced = Drive(spec, prepared, &streams, server->port(),
                                 third, 0, nullptr, &out);
  const Segment traced = Drive(spec, prepared, &streams, server->port(),
                               third, 0, &tracer, &out);
  server.reset();

  // Third segment against a server that writes its telemetry report.
  const std::string report_path = options.work_dir + "/served-telemetry.json";
  server = std::make_unique<Server>(
      options, ServerArgs(spec, prepared, report_path));
  server->Start();
  const std::uint64_t warm_runs =
      spec.cold ? 0 : WarmUp(spec, prepared, server->port(), &out);
  const Segment reported = Drive(spec, prepared, &streams, server->port(),
                                 third, 0, nullptr, &out);
  server.reset();
  const JsonValue report = ParseJson(ReadFile(report_path));

  Replay(spec, prepared, &tracer, &out);

  auto& m = out.metrics;
  m["store.build_s"] = tracer.Total("store.build");
  m["exec.team"] = ReportNumber(report, "gauges", "exec.team");
  m["exec.region_us"] = ProbeRegionMicros(&tracer);
  const double answered = static_cast<double>(traced.ok);
  m["service.cache_hit_ratio"] =
      answered > 0 ? static_cast<double>(traced.cache_hits) / answered : 0;
  m["service.memo_hit_ratio"] =
      answered > 0 ? static_cast<double>(traced.memo_hits) / answered : 0;
  m["service.engine_ms_p50"] = Quantile(traced.engine_s, 0.5) * 1e3;
  m["service.count_runs"] =
      ReportNumber(report, "counters", "service.count_runs") +
      ReportNumber(report, "counters", "service.per_vertex_runs") -
      static_cast<double>(warm_runs);
  m["net.outside_engine_ms_p50"] = Quantile(traced.outside_s, 0.5) * 1e3;
  m["net.outside_engine_ms_p99"] = Quantile(traced.outside_s, 0.99) * 1e3;
  m["net.queue_depth_high_water"] =
      ReportNumber(report, "gauges", "net.queue_depth_high_water");
  const double untraced_p50 = Quantile(untraced.latency_s, 0.5);
  const double traced_p50 = Quantile(traced.latency_s, 0.5);
  m["trace.overhead_ratio"] =
      untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0;

  out.detail["untraced.latency_p50_ms"] = untraced_p50 * 1e3;
  out.detail["untraced.served_rps"] =
      static_cast<double>(untraced.responses) / untraced.elapsed_s;
  out.detail["traced.latency_p50_ms"] = traced_p50 * 1e3;
  out.detail["traced.served_rps"] =
      static_cast<double>(traced.responses) / traced.elapsed_s;
  out.detail["traced.requests"] = static_cast<double>(traced.responses);
  out.detail["reported.latency_p50_ms"] =
      Quantile(reported.latency_s, 0.5) * 1e3;
  out.detail["reported.requests"] = static_cast<double>(reported.responses);
  out.detail["net.outside_share_of_latency_p50"] =
      traced_p50 > 0 ? Quantile(traced.outside_s, 0.5) / traced_p50 : 0;
  if (!options.trace_out.empty()) tracer.Write(options.trace_out);
  for (const auto& [name, s] : tracer.Summarize()) {
    out.detail["span." + name + ".total_s"] = s.total_s;
    out.detail["span." + name + ".self_s"] = s.self_s;
  }
  return out;
}

}  // namespace

RunOutput RunServe(const WorkloadSpec& spec, const Options& options,
                   const References& refs) {
  return options.trace ? TracedRun(spec, options, refs)
                       : TimedRun(spec, options, refs);
}

}  // namespace perfbench
