// The one-shot pipeline workloads (pipeline-rich, pipeline-poor).
//
// Timed run: set-up (generate, relabel with the seed, write .psg,
// LoadGraph) several times, then whole passes of CountKCliques over the
// workload's graphs until --seconds is used up. Every total is checked
// against the committed reference count.
//
// Traced run: one untraced CountKCliques pass, then the pipeline's phases
// called one by one under a "pipeline.pass" span, once in the production
// configuration and once with the library's telemetry (op counters) on,
// then a 1-thread count of every DAG for the scaling baseline.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "bench.h"
#include "exec/executor.h"
#include "graph/dag.h"
#include "graph/io.h"
#include "order/heuristic.h"
#include "order/ordering.h"
#include "pivot/count.h"
#include "pivot/pivotscale.h"
#include "util/telemetry.h"

namespace perfbench {

namespace ps = pivotscale;

namespace {

using Clock = std::chrono::steady_clock;

struct Input {
  GraphSpec spec;
  ps::Graph graph;
  std::string expected;  // reference count at the workload's k
};

// One set-up: generate each analog, relabel its vertices with the seed,
// build the CSR, write it as .psg and read it back through LoadGraph.
std::vector<Input> SetUp(const WorkloadSpec& spec, const Options& options,
                         const References& refs, Tracer* tracer,
                         Tracer::Id parent) {
  std::vector<Input> inputs;
  for (const GraphSpec& g : spec.graphs) {
    const std::string path = options.work_dir + "/" + g.analog + ".psg";
    ps::WriteBinaryGraph(path, RelabeledGraph(g, options.seed));
    Input in{g, {}, refs.Count(g, spec.k)};
    {
      Tracer::Scope load(tracer, "graph.load", parent);
      in.graph = ps::LoadGraph(path);
    }
    inputs.push_back(std::move(in));
  }
  return inputs;
}

void CheckTotal(const Input& in, std::uint32_t k, const ps::BigCount& got,
                RunOutput* out) {
  const std::string what =
      References::Key(in.spec) + " k=" + std::to_string(k);
  if (in.expected.empty())
    out->Fail(what + ": no reference count", true);
  else if (got.ToString() != in.expected)
    out->Fail(what + ": counted " + got.ToString() + ", reference " +
                  in.expected,
              true);
}

ps::PivotScaleOptions PipelineOptions(std::uint32_t k) {
  ps::PivotScaleOptions o;
  o.k = k;
  o.count.num_threads = kThreads;
  o.heuristic.min_nodes = kHeuristicMinNodes;
  return o;
}

// One CountKCliques call, timed from outside and checked. Returns its
// wall seconds, or a negative value when the call threw.
double CountOne(const Input& in, std::uint32_t k, RunOutput* out) {
  ++out->attempted;
  const auto t0 = Clock::now();
  try {
    const ps::PivotScaleResult r = ps::CountKCliques(in.graph,
                                                     PipelineOptions(k));
    const double seconds = Seconds(t0, Clock::now());
    CheckTotal(in, k, r.total, out);
    return seconds;
  } catch (const std::exception& e) {
    out->Fail(References::Key(in.spec) + ": " + e.what(), false);
    return -1;
  }
}

RunOutput TimedRun(const WorkloadSpec& spec, const Options& options,
                   const References& refs) {
  RunOutput out;
  std::vector<double> setups;
  std::vector<Input> inputs;
  for (int r = 0; r < options.setup_repeats; ++r) {
    inputs.clear();
    const auto t0 = Clock::now();
    inputs = SetUp(spec, options, refs, nullptr, Tracer::kNone);
    setups.push_back(Seconds(t0, Clock::now()));
  }
  ResetPeakRss(getpid());

  // calls[g]: every call's wall time on graph g.
  std::vector<std::vector<double>> calls(inputs.size());
  std::vector<double> passes;
  std::size_t completed = 0;
  const auto start = Clock::now();
  do {
    double pass = 0;
    for (std::size_t g = 0; g < inputs.size(); ++g) {
      const double s = CountOne(inputs[g], spec.k, &out);
      if (s < 0) continue;
      calls[g].push_back(s);
      pass += s;
      ++completed;
    }
    passes.push_back(pass);
  } while (Seconds(start, Clock::now()) + passes.back() <= options.seconds);
  const double elapsed = Seconds(start, Clock::now());

  // A call's latency distribution weighs every graph equally, each at its
  // median over the passes: the graphs differ by up to 10x, so quantiles
  // over raw calls would sit between two graphs' extremes.
  std::vector<double> per_graph;
  for (const std::vector<double>& c : calls)
    if (!c.empty()) per_graph.push_back(Median(c));
  out.metrics["setup_s"] = Median(setups);
  out.metrics["pipeline_s"] = Median(passes);
  out.metrics["served_rps"] = static_cast<double>(completed) / elapsed;
  out.metrics["latency_p50_ms"] = Quantile(per_graph, 0.50) * 1e3;
  out.metrics["latency_p90_ms"] = Quantile(per_graph, 0.90) * 1e3;
  out.metrics["latency_p99_ms"] = Quantile(per_graph, 0.99) * 1e3;
  out.metrics["peak_rss_mb"] =
      static_cast<double>(PeakRssBytes(getpid())) / (1 << 20);
  out.detail["passes"] = static_cast<double>(passes.size());
  out.detail["latency_samples"] = static_cast<double>(completed);
  out.detail["setup_repeats"] = static_cast<double>(setups.size());
  out.detail["elapsed_s"] = elapsed;
  return out;
}

// The pipeline's four phases called one by one, as CountKCliques runs
// them (heuristic-selected ordering), each under its own span.
struct PhaseTimes {
  double heuristic_s = 0, ordering_s = 0, directionalize_s = 0,
         max_out_degree_s = 0, count_s = 0;
  ps::EdgeId max_out_degree = 0;
  ps::CountResult count;
  ps::Graph dag;
};

PhaseTimes RunPhases(const Input& in, std::uint32_t k, Tracer* tracer,
                     Tracer::Id parent, ps::TelemetryRegistry* telemetry) {
  PhaseTimes t;
  ps::HeuristicConfig config;
  config.min_nodes = kHeuristicMinNodes;
  Tracer::Scope heuristic(tracer, "order.heuristic", parent);
  const ps::HeuristicDecision decision =
      ps::SelectOrdering(in.graph, config, telemetry);
  t.heuristic_s = heuristic.Stop();

  ps::OrderingSpec ordering_spec;
  ordering_spec.kind = decision.use_core_approx
                           ? ps::OrderingKind::kApproxCore
                           : ps::OrderingKind::kDegree;
  ordering_spec.epsilon = config.epsilon;
  Tracer::Scope ordering_span(tracer, "order.ordering", parent);
  const ps::Ordering ordering =
      ps::ComputeOrdering(in.graph, ordering_spec, telemetry);
  t.ordering_s = ordering_span.Stop();

  Tracer::Scope directionalize(tracer, "graph.directionalize", parent);
  t.dag = ps::Directionalize(in.graph, ordering.ranks, telemetry);
  t.directionalize_s = directionalize.Stop();

  Tracer::Scope max_out(tracer, "graph.max_out_degree", parent);
  t.max_out_degree = ps::MaxOutDegree(t.dag);
  t.max_out_degree_s = max_out.Stop();

  ps::CountOptions count_options;
  count_options.k = k;
  count_options.num_threads = kThreads;
  count_options.telemetry = telemetry;
  count_options.collect_op_stats = telemetry != nullptr;
  Tracer::Scope count(tracer, "pivot.count", parent);
  t.count = ps::CountCliques(t.dag, count_options);
  t.count_s = count.Stop();
  return t;
}

RunOutput TracedRun(const WorkloadSpec& spec, const Options& options,
                    const References& refs) {
  RunOutput out;
  Tracer tracer;
  std::vector<Input> inputs;
  {
    Tracer::Scope setup(&tracer, "setup");
    inputs = SetUp(spec, options, refs, &tracer, setup.id());
  }

  // The untraced reference pass, timed exactly as the timed run times it.
  double untraced_pass = 0;
  for (const Input& in : inputs) untraced_pass += std::max(0.0,
      CountOne(in, spec.k, &out));

  // Production configuration, phase by phase.
  std::vector<PhaseTimes> production;
  Tracer::Scope pass(&tracer, "pipeline.pass");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ++out.attempted;
    Tracer::Scope graph(&tracer, "pipeline.graph", pass.id(),
                        static_cast<std::int64_t>(i));
    production.push_back(
        RunPhases(inputs[i], spec.k, &tracer, graph.id(), nullptr));
    CheckTotal(inputs[i], spec.k, production.back().count.total, &out);
  }
  const double traced_pass = pass.Stop();

  // Library telemetry on: op counters (OpCountStats) and exec/count
  // series. Only the count time is compared against production.
  double telemetry_count_s = 0;
  std::uint64_t edge_ops = 0, calls = 0;
  Tracer::Scope telemetry_pass(&tracer, "pipeline.pass.telemetry");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ++out.attempted;
    ps::TelemetryRegistry registry;
    Tracer::Scope graph(&tracer, "pipeline.graph", telemetry_pass.id(),
                        static_cast<std::int64_t>(i));
    const PhaseTimes t =
        RunPhases(inputs[i], spec.k, &tracer, graph.id(), &registry);
    CheckTotal(inputs[i], spec.k, t.count.total, &out);
    telemetry_count_s += t.count_s;
    edge_ops += t.count.ops.edge_ops;
    calls += t.count.ops.calls;
  }
  telemetry_pass.Stop();

  // Single-thread baseline on the same DAGs.
  double single_thread_s = 0;
  Tracer::Scope scaling(&tracer, "exec.scaling");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ++out.attempted;
    ps::CountOptions one;
    one.k = spec.k;
    one.num_threads = 1;
    Tracer::Scope count(&tracer, "pivot.count.1thread", scaling.id(),
                        static_cast<std::int64_t>(i));
    const ps::CountResult r = ps::CountCliques(production[i].dag, one);
    single_thread_s += count.Stop();
    CheckTotal(inputs[i], spec.k, r.total, &out);
  }
  scaling.Stop();

  double heuristic_s = 0, ordering_s = 0, directionalize_s = 0, count_s = 0,
         busy = 0, team_seconds = 0, cov_weighted = 0;
  double max_out_degree = 0, workspace = 0;
  int team = kThreads;
  for (const PhaseTimes& t : production) {
    heuristic_s += t.heuristic_s;
    ordering_s += t.ordering_s;
    directionalize_s += t.directionalize_s;
    count_s += t.count_s;
    max_out_degree += static_cast<double>(t.max_out_degree);
    workspace = std::max(workspace,
                         static_cast<double>(t.count.workspace_bytes));
    const auto& b = t.count.thread_busy_seconds;
    const int size = static_cast<int>(b.size());
    team = std::min(team, size);
    busy += Sum(b);
    team_seconds += size * t.count_s;
    cov_weighted += CoefficientOfVariation(b) * t.count_s;
  }

  auto& m = out.metrics;
  m["graph.load_s"] = tracer.Total("graph.load");
  m["graph.directionalize_s"] = directionalize_s;
  m["graph.max_out_degree"] = max_out_degree;
  m["order.heuristic_s"] = heuristic_s;
  m["order.ordering_s"] = ordering_s;
  m["pivot.count_s"] = count_s;
  m["pivot.edge_ops"] = static_cast<double>(edge_ops);
  m["pivot.calls"] = static_cast<double>(calls);
  m["pivot.ns_per_edge_op"] =
      edge_ops > 0 ? team_seconds * 1e9 / static_cast<double>(edge_ops) : 0;
  m["pivot.workspace_bytes"] = workspace;
  m["exec.team"] = team;
  m["exec.busy_cov"] = count_s > 0 ? cov_weighted / count_s : 0;
  m["exec.idle_frac"] = team_seconds > 0 ? 1 - busy / team_seconds : 0;
  m["exec.region_us"] = ProbeRegionMicros(&tracer);
  m["exec.scaling_eff"] =
      count_s > 0 ? single_thread_s / (kThreads * count_s) : 0;
  m["telemetry.overhead_ratio"] = count_s > 0 ? telemetry_count_s / count_s
                                              : 0;
  m["trace.overhead_ratio"] =
      untraced_pass > 0 ? traced_pass / untraced_pass : 0;
  out.detail["untraced_pass_s"] = untraced_pass;
  out.detail["traced_pass_s"] = traced_pass;
  out.detail["single_thread_count_s"] = single_thread_s;
  out.detail["telemetry_count_s"] = telemetry_count_s;
  if (!options.trace_out.empty()) tracer.Write(options.trace_out);
  for (const auto& [name, s] : tracer.Summarize()) {
    out.detail["span." + name + ".total_s"] = s.total_s;
    out.detail["span." + name + ".self_s"] = s.self_s;
  }
  return out;
}

}  // namespace

RunOutput RunPipeline(const WorkloadSpec& spec, const Options& options,
                      const References& refs) {
  return options.trace ? TracedRun(spec, options, refs)
                       : TimedRun(spec, options, refs);
}

double ProbeRegionMicros(Tracer* tracer) {
  constexpr int kWarmup = 100;
  constexpr int kRegions = 2000;
  constexpr std::size_t kItems = 64;
  Tracer::Scope probe(tracer, "exec.region_probe");
  ps::ExecOptions exec_options;
  exec_options.num_threads = kThreads;
  std::vector<std::size_t> slots(kItems);
  std::vector<double> micros;
  for (int r = 0; r < kWarmup + kRegions; ++r) {
    const auto t0 = Clock::now();
    ps::ParallelFor(kItems, exec_options,
                    [&slots](std::size_t i) { slots[i] = i; });
    if (r >= kWarmup) micros.push_back(Seconds(t0, Clock::now()) * 1e6);
  }
  return Median(micros);
}

}  // namespace perfbench
