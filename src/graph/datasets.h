// The evaluation dataset suite: deterministic analogs of the paper's
// Table I graphs.
//
// The original suite (DBLP ... Friendster) is not redistributable inside
// this environment, so each entry here is a seeded synthetic graph built to
// exercise the same topology class as its namesake (see DESIGN.md):
//
//   dblp-like        co-authorship: thousands of small overlapping cliques
//   skitter-like     power-law internet topology with mid-size cliques
//   baidu-like       web-link graph: skewed but clique-poor (degree wins)
//   wikitalk-like    hub-dominated broadcast graph, moderate cliques
//   orkut-like       dense social network with community structure
//   livejournal-like clique-rich social network (combinatorial explosion)
//   webedu-like      very sparse web graph with a single huge clique
//   friendster-like  largest graph; high degree, relatively clique-poor
//
// `scale` multiplies vertex counts (1.0 is the default bench size; tests use
// smaller scales). All generation is deterministic per (name, scale).
#ifndef PIVOTSCALE_GRAPH_DATASETS_H_
#define PIVOTSCALE_GRAPH_DATASETS_H_

#include <string>
#include <vector>

#include "graph/graph.h"

namespace pivotscale {

struct Dataset {
  std::string name;          // e.g. "dblp-like"
  std::string paper_analog;  // e.g. "DBLP"
  std::string description;
  Graph graph;               // undirected, simple
};

// Names in the canonical (Table I) order.
const std::vector<std::string>& DatasetNames();

// Builds one dataset by name; throws std::invalid_argument on unknown
// names. scale in (0, 4] multiplies the vertex count.
Dataset MakeDataset(const std::string& name, double scale = 1.0);

}  // namespace pivotscale

#endif  // PIVOTSCALE_GRAPH_DATASETS_H_
