// Global optimization-scheme search (paper §3.3.2).
//
// Builds the layout-and-algorithm-choice problem from a (simplified + fused) graph: one
// variable per convolution whose options are the per-(algo, ic_bn, oc_bn) best schedules
// from local search (direct-NCHWc blocking tuples plus im2col), producer→consumer
// edges charging a layout transform when the producer's output block differs from the
// consumer's input block (im2col counts as block 0), and sibling edges (from fused
// residual adds, standalone elementwise adds and concats) charging a transform when two
// producers that must agree pick different output blocks.
//
// SolveGlobal first attempts the exact DP (variable elimination); when the state space
// explodes (SSD's concatenation blocks) it falls back to the PBQP heuristic — exactly
// the policy the paper describes.
#ifndef NEOCPU_SRC_TUNING_GLOBAL_SEARCH_H_
#define NEOCPU_SRC_TUNING_GLOBAL_SEARCH_H_

#include <map>
#include <vector>

#include "src/graph/graph.h"
#include "src/tuning/local_search.h"
#include "src/tuning/pbqp.h"

namespace neocpu {

enum class LayoutEdgeKind {
  kProducerConsumer,  // cost when oc_bn(producer) != ic_bn(consumer)
  kSibling,           // cost when oc_bn(a) != oc_bn(b) (add/concat/residual agreement)
};

struct LayoutEdge {
  int var_a = 0;  // indices into GlobalProblem::conv_ids
  int var_b = 0;
  double transform_ms = 0.0;
  LayoutEdgeKind kind = LayoutEdgeKind::kProducerConsumer;
};

struct GlobalProblem {
  std::vector<int> conv_ids;                         // variable -> conv node id
  std::vector<std::vector<ScheduleCost>> options;    // per-variable candidate schemes
  std::vector<LayoutEdge> edges;

  PbqpProblem ToPbqp() const;
  double Evaluate(const std::vector<int>& selection) const;
};

// `locals` maps conv node id to its local-search result.
GlobalProblem ExtractGlobalProblem(const Graph& graph, const LocalSearchMap& locals);

struct GlobalSolution {
  std::map<int, ConvSchedule> assignment;  // conv node id -> schedule
  double cost_ms = 0.0;
  bool exact = false;       // solved by DP (true) or PBQP heuristic (false)
  double solve_seconds = 0.0;
};

GlobalSolution SolveGlobal(const GlobalProblem& problem,
                           std::size_t max_dp_table_entries = 1 << 22);

// Forces one solver (benchmarking / the DP-vs-PBQP quality comparison).
GlobalSolution SolveGlobalExactOnly(const GlobalProblem& problem,
                                    std::size_t max_dp_table_entries, bool* ok);
GlobalSolution SolveGlobalPbqpOnly(const GlobalProblem& problem);

}  // namespace neocpu

#endif  // NEOCPU_SRC_TUNING_GLOBAL_SEARCH_H_
