// Shared pieces of the perfbench driver: the workload table, run options,
// the per-run output, reference answers, order statistics and the span
// tracer that times calls into the library's layers from outside.
//
// The driver links only the library's public per-layer API (graph, order,
// pivot, exec, store, service wire format, util/telemetry), so a refactor
// behind those calls is measured rather than broken by the benchmark.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/json_writer.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Workloads

struct GraphSpec {
  std::string analog;  // a graph/datasets.h name, e.g. "orkut-like"
  double scale = 1.0;
};

enum class WorkloadKind { kPipeline, kServe };

struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kPipeline;
  std::vector<GraphSpec> graphs;  // pipeline inputs / served artifacts
  std::uint32_t k = 0;            // pipeline clique size
  bool cold = false;              // serve: every request misses cache+memo
  std::string why;
};

// Load limits of the host: one process drives at most 4 threads and at
// most 4 connections.
inline constexpr int kThreads = 4;
inline constexpr int kConnections = 4;
// Serve request mix: 75% single-k at k in {3,4,5}; the rest per-vertex at
// k in {3,4} asking for the top kTopVertices vertices.
inline constexpr double kSingleKShare = 0.75;
inline const std::vector<std::uint32_t> kSingleKs = {3, 4, 5};
inline const std::vector<std::uint32_t> kPerVertexKs = {3, 4};
inline constexpr std::uint32_t kTopVertices = 3;
// The pipeline's heuristic threshold, as pivotscale_cli and
// pivotscale_prep default it for the synthetic suite.
inline constexpr std::uint32_t kHeuristicMinNodes = 15'000;

// The four workloads; `quick` shrinks every input for smoke tests.
std::vector<WorkloadSpec> Workloads(bool quick);
const WorkloadSpec* FindWorkload(const std::string& name, bool quick);

// A 64-bit seed derived from the run's seed and a name.
std::uint64_t ShuffleSeed(std::uint64_t seed, const std::string& name);

// One input graph: the analog with its vertex ids relabeled through
// ShuffleVertexIds under the run's seed. Relabeling changes layout and
// ordering tie-breaks, never a clique count.
pivotscale::Graph RelabeledGraph(const GraphSpec& graph, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Options and output

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setup_repeats = 3;     // set-ups per timed run (1 in quick mode)
  int inject_errors = 0;     // serve: requests aimed at a missing artifact
  std::string served;        // pivotscale_served binary
  std::string work_dir;      // scratch directory inside the checkout
  std::string reference;     // reference_counts.json
  std::string trace_out;     // spans file (traced runs)
};

struct RunOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool answers_ok = true;
  std::map<std::string, double> metrics;  // reported metrics
  std::map<std::string, double> detail;   // sample counts, traced e2e, ...
  std::vector<std::string> notes;         // first few failure reasons

  // One failed operation; `wrong_answer` also clears answers_ok.
  void Fail(const std::string& why, bool wrong_answer);
};

// ---------------------------------------------------------------------------
// Reference answers: committed exact clique counts per (analog, scale, k).

class References {
 public:
  void Load(const std::string& path);
  // Decimal count, or "" when the file holds no entry.
  std::string Count(const GraphSpec& graph, std::uint32_t k) const;
  static std::string Key(const GraphSpec& graph);

 private:
  std::map<std::string, std::map<std::uint32_t, std::string>> counts_;
};

// ---------------------------------------------------------------------------
// Statistics

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> xs, double q);
double Median(const std::vector<double>& xs);
// Harrell-Davis estimate of the q-quantile: the mean of all order
// statistics weighted by a Beta((n+1)q, (n+1)(1-q)) distribution. A tail
// quantile with few samples beyond it then rests on several order
// statistics instead of one. Above 2000 samples, where the two agree,
// it is the plain Quantile.
double HarrellDavisQuantile(std::vector<double> xs, double q);
double Sum(const std::vector<double>& xs);
double CoefficientOfVariation(const std::vector<double>& xs);

// Peak resident set of a process (VmHWM), in bytes, and its reset
// (clear_refs 5) so set-up does not count towards the peak.
std::uint64_t PeakRssBytes(int pid);
void ResetPeakRss(int pid);

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to);

// ---------------------------------------------------------------------------
// Spans

// In-memory spans (name, start, end, parent, request id), written once at
// the end of a traced run together with each span's self time: its
// duration minus the part of it its children cover. Thread-safe.
class Tracer {
 public:
  using Id = std::int64_t;
  static constexpr Id kNone = -1;

  Tracer();

  Id Begin(const std::string& name, Id parent = kNone,
           std::int64_t request = -1);
  // Ends a span and returns its duration in seconds.
  double End(Id id);
  // Records a finished span with explicit bounds (ns since the epoch).
  Id Add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
         Id parent, std::int64_t request);
  std::int64_t NowNs() const;

  struct Summary {
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Summary> Summarize() const;
  // Durations of every span called `name`, in record order.
  std::vector<double> Durations(const std::string& name) const;
  double Total(const std::string& name) const;

  void Write(const std::string& path) const;

  // RAII span: the scope's duration, also readable via seconds().
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name, Id parent = kNone,
          std::int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Id id() const { return id_; }
    double Stop();

   private:
    Tracer* tracer_;
    Id id_;
    double seconds_ = -1;
  };

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    Id parent = kNone;
    std::int64_t request = -1;
  };
  std::vector<double> SelfTimes() const;  // requires mutex_ held

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// JSON: reading (server responses, run reports, reference file) and string
// escaping come from the library's util/json_writer.h.

using pivotscale::JsonValue;
using pivotscale::JsonWriter;
using pivotscale::ParseJson;

std::string ReadFile(const std::string& path);
// A double with all its digits; 0 for NaN or infinity.
std::string JsonNumber(double v);

// ---------------------------------------------------------------------------
// Workload runners (pipeline.cc, serve.cc).

RunOutput RunPipeline(const WorkloadSpec& spec, const Options& options,
                      const References& refs);
RunOutput RunServe(const WorkloadSpec& spec, const Options& options,
                   const References& refs);

// Per-region cost of an exec-layer ParallelFor over trivial items at the
// full team, in microseconds (median over many regions).
double ProbeRegionMicros(Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
