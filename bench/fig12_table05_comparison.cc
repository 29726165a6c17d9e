// Figure 12 + Table V: total execution time for counting k-cliques
// (k = 6..13) with each algorithm on each graph (LiveJournal handled
// separately, as in the paper):
//   Pivoter      — naive-parallel baseline (sequential core ordering +
//                  dense structure + static schedule)
//   Arb-Count    — enumeration baseline (time grows steeply with k; runs
//                  over the budget are reported as "> Bs" and larger k for
//                  that graph are skipped, like the paper's "> 2h")
//   GPU-Pivot    — bit-matrix rebuild-per-level model (the paper stops
//                  reporting GPU numbers at k = 11; we run all k)
//   PivotScale   — this work, heuristic-selected ordering + the default
//                  (bitmap) structure
//
// Measured columns are single-core wall times. The @64sim columns replay
// the same runs' work traces through the scaling simulator (sequential
// ordering + static schedule + dense footprint for Pivoter; parallel
// ordering + dynamic schedule + its own footprint for PivotScale),
// reproducing the paper's 64-thread relationship. Expected shape:
// enumeration wins tiny k, pivoting flat in k, PivotScale the fastest
// pivoting implementation at scale, crossover near k = 8.
#include <iostream>

#include "baselines/enumeration.h"
#include "baselines/gpu_pivot_model.h"
#include "bench_common.h"
#include "graph/dag.h"
#include "order/core_order.h"
#include "pivot/count.h"
#include "pivot/pivotscale.h"
#include "sim/scaling_sim.h"
#include "util/ascii_chart.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

using namespace pivotscale;

namespace {

constexpr int kSimThreads = 64;
// The @64sim columns use the same scaled-LLC machine model as Figure 11
// (12 MB; see docs/simulation.md): the analogs are ~100x smaller than the
// paper's graphs, so the dense structure's footprint is judged against a
// proportionally scaled cache.
constexpr std::size_t kScaledLlcBytes = std::size_t{12} << 20;

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  std::vector<Dataset> suite = bench::LoadSuite(args);
  // LiveJournal gets its own deep-dive bench (fig13), mirroring the paper.
  if (!args.Has("datasets")) {
    std::erase_if(suite, [](const Dataset& d) {
      return d.name == "livejournal-like";
    });
  }
  const auto ks = args.GetIntList("ks", {6, 7, 8, 9, 10, 11, 12, 13});
  const double budget = args.GetDouble("budget", 5.0);
  const HeuristicConfig config = bench::SuiteHeuristicConfig();

  std::vector<double> sim_speedups;  // PivotScale@64 vs Pivoter@64
  for (const Dataset& d : suite) {
    TablePrinter table("Table V / Figure 12 series: " + d.name +
                           " (seconds; enumeration budget " +
                           TablePrinter::Cell(budget, 0) + "s)",
                       {"k", "Pivoter", "Arb-Count", "GPU-Pivot(model)",
                        "PivotScale", "Pivoter@64sim", "PivotScale@64sim",
                        "k-cliques"});

    // The DAG-based baselines share one core ordering per graph.
    Timer core_timer;
    const Ordering core = CoreOrdering(d.graph);
    const double core_order_seconds = core_timer.Seconds();
    const Graph core_dag = Directionalize(d.graph, core.ranks);

    std::vector<std::string> xs;
    std::vector<ChartSeries> chart = {{"Pivoter", {}},
                                      {"Arb-Count", {}},
                                      {"GPU-Pivot", {}},
                                      {"PivotScale", {}}};
    bool enum_dead = false;
    for (std::int64_t k64 : ks) {
      const auto k = static_cast<std::uint32_t>(k64);

      // Naive Pivoter: sequential core ordering + dense counting; the same
      // traced run feeds the static-schedule 64-thread simulation.
      CountOptions dense_options;
      dense_options.k = k;
      dense_options.structure = SubgraphKind::kDense;
      dense_options.collect_work_trace = true;
      dense_options.num_threads = 1;
      Timer naive_timer;
      const CountResult naive = CountCliques(core_dag, dense_options);
      const double naive_seconds = core_order_seconds + naive_timer.Seconds();
      ScalingSimConfig naive_sim;
      naive_sim.num_threads = kSimThreads;
      naive_sim.static_schedule = true;
      naive_sim.cache_capacity_bytes = kScaledLlcBytes;
      naive_sim.per_thread_footprint_bytes = naive.workspace_bytes;
      const double naive_sim64 =
          core_order_seconds +
          SimulateScaling(naive.work_trace, naive_sim).makespan_seconds;

      std::string enum_cell;
      double enum_seconds_chart = budget;  // timed-out cells plot at budget
      if (enum_dead) {
        enum_cell = "> " + TablePrinter::Cell(budget, 0) + "s";
      } else {
        EnumerationOptions enum_options;
        enum_options.k = k;
        enum_options.time_budget_seconds = budget;
        Timer enum_timer;
        const EnumerationResult er =
            CountCliquesEnumeration(core_dag, enum_options);
        enum_dead = er.timed_out;
        if (!er.timed_out)
          enum_seconds_chart = core_order_seconds + enum_timer.Seconds();
        enum_cell = bench::TimeCell(core_order_seconds + enum_timer.Seconds(),
                                    er.timed_out, budget);
      }

      Timer gpu_timer;
      CountCliquesGpuPivotModel(core_dag, k);
      const double gpu_seconds = core_order_seconds + gpu_timer.Seconds();

      // PivotScale: one traced run gives both the measured total and the
      // dynamic-schedule 64-thread simulation.
      PivotScaleOptions ps_options;
      ps_options.k = k;
      ps_options.heuristic = config;
      ps_options.count.collect_work_trace = true;
      ps_options.count.num_threads = 1;
      const PivotScaleResult ps = CountKCliques(d.graph, ps_options);
      ScalingSimConfig ps_sim;
      ps_sim.num_threads = kSimThreads;
      ps_sim.cache_capacity_bytes = kScaledLlcBytes;
      ps_sim.per_thread_footprint_bytes = ps.count.workspace_bytes;
      const double ps_sim64 =
          ps.heuristic_seconds +
          (ps.ordering_seconds + ps.directionalize_seconds) / kSimThreads +
          SimulateScaling(ps.count.work_trace, ps_sim).makespan_seconds;
      if (ps_sim64 > 0) sim_speedups.push_back(naive_sim64 / ps_sim64);

      xs.push_back(std::to_string(k64));
      chart[0].values.push_back(naive_seconds);
      chart[1].values.push_back(enum_seconds_chart);
      chart[2].values.push_back(gpu_seconds);
      chart[3].values.push_back(ps.total_seconds);
      table.AddRow({TablePrinter::Cell(k64),
                    TablePrinter::Cell(naive_seconds, 3), enum_cell,
                    TablePrinter::Cell(gpu_seconds, 3),
                    TablePrinter::Cell(ps.total_seconds, 3),
                    TablePrinter::Cell(naive_sim64, 4),
                    TablePrinter::Cell(ps_sim64, 4), ps.total.ToString()});
    }
    table.Print();
    ChartOptions chart_options;
    chart_options.log_y = true;
    chart_options.y_label =
        "seconds (log; Arb-Count clipped at the budget)";
    std::cout << RenderChart(xs, chart, chart_options) << "\n";
  }
  if (!sim_speedups.empty())
    std::cout << "PivotScale@64sim speedup over Pivoter@64sim geomean: "
              << TablePrinter::Cell(GeoMean(sim_speedups), 2)
              << "x  (paper: 47.05x over 25.66-110.58x)\n";
  return 0;
}
