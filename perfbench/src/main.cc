// perfbench_driver: runs one workload once and prints one JSON object.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --served PATH --work-dir DIR --reference FILE
//                    [--trace-out FILE] [--quick] [--inject-errors N]
//   perfbench_driver --describe [--quick]
//   perfbench_driver --make-reference FILE
//
// perfbench/run.py builds the repository, invokes this binary and turns
// its output into the benchmark's result line; see perfbench/README.md.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>

#include "bench.h"
#include "graph/datasets.h"
#include "pivot/pivotscale.h"

namespace {

using namespace perfbench;

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw std::runtime_error("unexpected argument " + arg);
    const bool has_value =
        i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
    flags.emplace(arg.substr(2), has_value ? argv[++i] : "1");
  }
  return flags;
}

std::string Get(const std::map<std::string, std::string>& flags,
                const std::string& name, const std::string& def) {
  const auto it = flags.find(name);
  return it == flags.end() ? def : it->second;
}

void Describe(bool quick) {
  std::cout << "{";
  bool first_w = true;
  for (const WorkloadSpec& w : Workloads(quick)) {
    std::cout << (first_w ? "" : ", ") << JsonWriter::Escape(w.name) << ": {"
              << "\"kind\": "
              << (w.kind == WorkloadKind::kPipeline ? "\"pipeline\""
                                                    : "\"serve\"")
              << ", \"k\": " << w.k
              << ", \"cold\": " << (w.cold ? "true" : "false")
              << ", \"threads\": " << kThreads
              << ", \"connections\": " << kConnections << ", \"graphs\": [";
    for (std::size_t i = 0; i < w.graphs.size(); ++i)
      std::cout << (i ? ", " : "")
                << JsonWriter::Escape(References::Key(w.graphs[i]));
    std::cout << "], \"why\": " << JsonWriter::Escape(w.why) << "}";
    first_w = false;
  }
  std::cout << "}\n";
}

// Exact counts for every (analog, scale, k) any workload checks, quick
// variants included, counted on the unrelabeled graphs (relabeling never
// changes a count).
void MakeReference(const std::string& path) {
  std::map<std::string, std::set<std::uint32_t>> needed;
  std::map<std::string, GraphSpec> specs;
  for (bool quick : {false, true}) {
    for (const WorkloadSpec& w : Workloads(quick)) {
      for (const GraphSpec& g : w.graphs) {
        specs[References::Key(g)] = g;
        if (w.kind == WorkloadKind::kPipeline)
          needed[References::Key(g)].insert(w.k);
        else
          needed[References::Key(g)].insert(kSingleKs.begin(),
                                            kSingleKs.end());
      }
    }
  }
  std::string out = "{\"counts\": {";
  bool first = true;
  for (const auto& [key, ks] : needed) {
    const GraphSpec& g = specs[key];
    const pivotscale::Graph graph =
        pivotscale::MakeDataset(g.analog, g.scale).graph;
    out += std::string(first ? "\n  " : ",\n  ") + JsonWriter::Escape(key) +
           ": {";
    bool first_k = true;
    for (std::uint32_t k : ks) {
      pivotscale::PivotScaleOptions options;
      options.k = k;
      options.count.num_threads = kThreads;
      options.heuristic.min_nodes = kHeuristicMinNodes;
      const std::string count =
          pivotscale::CountKCliques(graph, options).total.ToString();
      out += std::string(first_k ? "" : ", ") + "\"" + std::to_string(k) +
             "\": \"" + count + "\"";
      first_k = false;
      std::cerr << key << " k=" << k << ": " << count << "\n";
    }
    out += "}";
    first = false;
  }
  out += "\n}}\n";
  std::ofstream file(path);
  file << out;
  if (!file) throw std::runtime_error("cannot write " + path);
}

void PrintOutput(const RunOutput& out) {
  std::cout << "{\"correct\": "
            << (out.answers_ok && out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    std::cout << (first ? "" : ", ") << JsonWriter::Escape(name) << ": "
              << JsonNumber(value);
    first = false;
  }
  std::cout << "}, \"detail\": {";
  first = true;
  for (const auto& [name, value] : out.detail) {
    std::cout << (first ? "" : ", ") << JsonWriter::Escape(name) << ": "
              << JsonNumber(value);
    first = false;
  }
  std::cout << "}, \"notes\": [";
  for (std::size_t i = 0; i < out.notes.size(); ++i)
    std::cout << (i ? ", " : "") << JsonWriter::Escape(out.notes[i]);
  std::cout << "]}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = ParseArgs(argc, argv);
    const bool quick = flags.count("quick") != 0;
    if (flags.count("describe")) {
      Describe(quick);
      return 0;
    }
    if (flags.count("make-reference")) {
      MakeReference(flags.at("make-reference"));
      return 0;
    }

    Options options;
    options.workload = Get(flags, "workload", "");
    options.seed = std::stoull(Get(flags, "seed", "1"));
    options.seconds = std::stod(Get(flags, "seconds", "10"));
    options.trace = Get(flags, "trace", "0") == "1";
    options.setup_repeats = quick ? 1 : 3;
    options.inject_errors = std::stoi(Get(flags, "inject-errors", "0"));
    options.served = Get(flags, "served", "");
    options.work_dir = Get(flags, "work-dir", "");
    options.reference = Get(flags, "reference", "");
    options.trace_out = Get(flags, "trace-out", "");

    const WorkloadSpec* spec = FindWorkload(options.workload, quick);
    if (spec == nullptr)
      throw std::runtime_error("unknown workload '" + options.workload + "'");
    if (options.work_dir.empty() || options.reference.empty())
      throw std::runtime_error("--work-dir and --reference are required");
    if (spec->kind == WorkloadKind::kServe && options.served.empty())
      throw std::runtime_error("--served is required for " + spec->name);
    std::filesystem::create_directories(options.work_dir);

    References refs;
    refs.Load(options.reference);
    const RunOutput out = spec->kind == WorkloadKind::kPipeline
                              ? RunPipeline(*spec, options, refs)
                              : RunServe(*spec, options, refs);
    PrintOutput(out);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
