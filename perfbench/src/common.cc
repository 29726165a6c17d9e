#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/generators.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Workloads

std::vector<WorkloadSpec> Workloads(bool quick) {
  const std::vector<std::string> analogs = {
      "dblp-like",        "skitter-like", "baidu-like",  "wikitalk-like",
      "orkut-like",       "livejournal-like", "webedu-like",
      "friendster-like"};
  const double serve_scale = quick ? 0.1 : 0.5;
  std::vector<GraphSpec> served;
  for (const std::string& a : analogs) served.push_back({a, serve_scale});

  std::vector<WorkloadSpec> w;
  w.push_back({"pipeline-rich", WorkloadKind::kPipeline,
               quick ? std::vector<GraphSpec>{{"livejournal-like", 0.5},
                                              {"orkut-like", 0.25},
                                              {"skitter-like", 0.25}}
                     : std::vector<GraphSpec>{{"livejournal-like", 0.7},
                                              {"orkut-like", 1.0},
                                              {"skitter-like", 1.0}},
               quick ? 6u : 8u, false,
               "clique-rich graphs at k=8: counting is ~95% of a pass "
               "(pivot and exec layers)"});
  const double poor_scale = quick ? 0.25 : 2.0;
  w.push_back({"pipeline-poor", WorkloadKind::kPipeline,
               {{"friendster-like", poor_scale},
                {"baidu-like", poor_scale},
                {"webedu-like", poor_scale},
                {"wikitalk-like", poor_scale}},
               4, false,
               "large clique-poor graphs at k=4: heuristic, ordering and "
               "directionalize are about half a pass (order and graph "
               "layers)"});
  w.push_back({"serve-cold", WorkloadKind::kServe, served, 0, true,
               "every request misses cache and memo: artifact read plus a "
               "count in the engine's per-size or per-vertex mode"});
  w.push_back({"serve-warm", WorkloadKind::kServe, served, 0, false,
               "every timed request is a memo hit: protocol, queue, "
               "lookup and loopback only (net and service layers)"});
  return w;
}

const WorkloadSpec* FindWorkload(const std::string& name, bool quick) {
  static const std::vector<WorkloadSpec> full = Workloads(false);
  static const std::vector<WorkloadSpec> small = Workloads(true);
  for (const WorkloadSpec& w : quick ? small : full)
    if (w.name == name) return &w;
  return nullptr;
}

namespace {

std::uint64_t Mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t ShuffleSeed(std::uint64_t seed, const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : name) h = (h ^ c) * 1099511628211ULL;
  return Mix64(seed ^ Mix64(h));
}

pivotscale::Graph RelabeledGraph(const GraphSpec& graph, std::uint64_t seed) {
  namespace ps = pivotscale;
  ps::EdgeList edges;
  ps::NodeId n = 0;
  {
    const ps::Graph generated =
        ps::MakeDataset(graph.analog, graph.scale).graph;
    n = generated.NumNodes();
    edges.reserve(generated.NumUndirectedEdges());
    for (ps::NodeId u = 0; u < n; ++u)
      for (const ps::NodeId v : generated.Neighbors(u))
        if (u < v) edges.emplace_back(u, v);
  }
  ps::ShuffleVertexIds(&edges, n, ShuffleSeed(seed, graph.analog));
  ps::BuildOptions build;
  build.num_nodes = n;
  return ps::BuildGraph(std::move(edges), build);
}

void RunOutput::Fail(const std::string& why, bool wrong_answer) {
  ++failed;
  if (wrong_answer) answers_ok = false;
  if (notes.size() < 8) notes.push_back(why);
}

// ---------------------------------------------------------------------------
// References

std::string References::Key(const GraphSpec& graph) {
  char scale[32];
  std::snprintf(scale, sizeof(scale), "%g", graph.scale);
  return graph.analog + "@" + scale;
}

void References::Load(const std::string& path) {
  const JsonValue doc = ParseJson(ReadFile(path));
  const JsonValue* counts = doc.Find("counts");
  if (counts == nullptr || !counts->IsObject())
    throw std::runtime_error(path + ": no \"counts\" object");
  for (const auto& [graph, by_k] : counts->object)
    for (const auto& [k, count] : by_k.object)
      counts_[graph][static_cast<std::uint32_t>(std::stoul(k))] =
          count.string_value;
}

std::string References::Count(const GraphSpec& graph,
                              std::uint32_t k) const {
  const auto g = counts_.find(Key(graph));
  if (g == counts_.end()) return "";
  const auto c = g->second.find(k);
  return c == g->second.end() ? "" : c->second;
}

// ---------------------------------------------------------------------------
// Statistics

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

double Median(const std::vector<double>& xs) { return Quantile(xs, 0.5); }

namespace {

// Continued fraction of the incomplete beta function (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto guard = [](double v) {
    return std::fabs(v) < kTiny ? kTiny : v;
  };
  double c = 1;
  double d = 1 / guard(1 - (a + b) * x / (a + 1));
  double h = d;
  for (int m = 1; m <= 1000; ++m) {
    const double m2 = 2.0 * m;
    const double even = m * (b - m) * x / ((a - 1 + m2) * (a + m2));
    d = 1 / guard(1 + even * d);
    c = guard(1 + even / c);
    h *= d * c;
    const double odd = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2));
    d = 1 / guard(1 + odd * d);
    c = guard(1 + odd / c);
    h *= d * c;
    if (std::fabs(d * c - 1) < 1e-13) break;
  }
  return h;
}

// Regularized incomplete beta function I_x(a, b).
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2))
    return front * BetaContinuedFraction(a, b, x) / a;
  return 1 - front * BetaContinuedFraction(b, a, 1 - x) / b;
}

}  // namespace

double HarrellDavisQuantile(std::vector<double> xs, double q) {
  const std::size_t n = xs.size();
  if (n < 2 || n > 2000) return Quantile(std::move(xs), q);
  std::sort(xs.begin(), xs.end());
  const double a = q * static_cast<double>(n + 1);
  const double b = (1 - q) * static_cast<double>(n + 1);
  double estimate = 0, below = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const double cdf =
        IncompleteBeta(a, b, static_cast<double>(i) / static_cast<double>(n));
    estimate += (cdf - below) * xs[i - 1];
    below = cdf;
  }
  return estimate;
}

double Sum(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s;
}

double CoefficientOfVariation(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0;
  const double mean = Sum(xs) / static_cast<double>(xs.size());
  if (mean == 0) return 0;
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  return std::sqrt(var / static_cast<double>(xs.size())) / mean;
}

std::uint64_t PeakRssBytes(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stoull(line.substr(6)) * 1024;
  return 0;
}

void ResetPeakRss(int pid) {
  std::ofstream clear("/proc/" + std::to_string(pid) + "/clear_refs");
  clear << "5";
}

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Id Tracer::Begin(const std::string& name, Id parent,
                         std::int64_t request) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, now, -1, parent, request});
  return static_cast<Id>(spans_.size() - 1);
}

double Tracer::End(Id id) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_ns = now;
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

Tracer::Id Tracer::Add(const std::string& name, std::int64_t start_ns,
                       std::int64_t end_ns, Id parent,
                       std::int64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<Id>(spans_.size() - 1);
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent != kNone && s.end_ns >= 0)
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
  std::vector<double> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0, run_start = 0, run_end = -1;
    for (const auto& [b, e] : kids) {
      const std::int64_t cb = std::max(b, s.start_ns);
      const std::int64_t ce = std::min(e, s.end_ns);
      if (ce <= cb) continue;
      if (cb > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = cb;
        run_end = ce;
      } else {
        run_end = std::max(run_end, ce);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = SelfTimes();
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    Summary& sum = out[s.name];
    ++sum.count;
    sum.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    sum.self_s += self[i];
  }
  return out;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.end_ns >= 0)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

double Tracer::Total(const std::string& name) const {
  return Sum(Durations(name));
}

void Tracer::Write(const std::string& path) const {
  const std::map<std::string, Summary> summary = Summarize();
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = SelfTimes();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"summary\": {";
  bool first = true;
  for (const auto& [name, s] : summary) {
    out << (first ? "" : ", ") << JsonWriter::Escape(name)
        << ": {\"count\": " << s.count
        << ", \"total_s\": " << JsonNumber(s.total_s)
        << ", \"self_s\": " << JsonNumber(s.self_s) << "}";
    first = false;
  }
  out << "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << i
        << ", \"name\": " << JsonWriter::Escape(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"self_s\": " << JsonNumber(self[i]) << "}";
  }
  out << "\n]}\n";
}

Tracer::Scope::Scope(Tracer* tracer, const std::string& name, Id parent,
                     std::int64_t request)
    : tracer_(tracer),
      id_(tracer != nullptr ? tracer->Begin(name, parent, request) : kNone) {}

Tracer::Scope::~Scope() { Stop(); }

double Tracer::Scope::Stop() {
  if (seconds_ < 0 && tracer_ != nullptr) seconds_ = tracer_->End(id_);
  return seconds_;
}

// ---------------------------------------------------------------------------
// Files and numbers

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
