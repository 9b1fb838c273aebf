// Annotated Graphviz DOT export of a compiled executable graph.
//
// The chainer computational_graph idiom (SNIPPETS.md) grown to carry everything this
// compiler decides per node: op kind, convolution algorithm + schedule blocking +
// execution dtype, logical dims + physical layout, the memory plan's arena placement
// (offset/bytes, alias, in-place), and — when a NodeProfileSnapshot is supplied — the
// node's measured time share rendered as heat-map coloring. `dot -Tsvg model.dot` then
// shows at a glance which layers run im2col vs direct, where the int8 region starts
// and ends, how the arena is carved up, and where the milliseconds actually go.
//
// The first line of the output is a machine-readable summary comment
// (`/* neocpu-dot nodes=N edges=M */`) so CI can validate structural integrity (brace
// balance, one `nI [` line per exported node) without a graphviz install.
#ifndef NEOCPU_SRC_OBS_GRAPH_DOT_H_
#define NEOCPU_SRC_OBS_GRAPH_DOT_H_

#include <string>

#include "src/core/compiler.h"
#include "src/core/memory_plan.h"
#include "src/graph/graph.h"
#include "src/obs/node_profiler.h"

namespace neocpu {

struct GraphDotOptions {
  // Weight/BN constants triple the node count and say nothing about execution;
  // excluded by default (their consumers still list shapes).
  bool include_constants = false;
  // Arena annotations (offset/bytes/alias) come from here when non-null.
  const ExecutionPlan* plan = nullptr;
  // Per-node time + heat coloring come from here when non-null and non-empty.
  const NodeProfileSnapshot* profile = nullptr;
  std::string graph_name = "neocpu";
};

std::string GraphToDot(const Graph& graph, const GraphDotOptions& options = {});

// Convenience for a compiled model: executable graph + its memory plan, with optional
// profile overlay (pass the model's profiler snapshot, or null).
std::string CompiledModelToDot(const CompiledModel& model,
                               const NodeProfileSnapshot* profile = nullptr);

}  // namespace neocpu

#endif  // NEOCPU_SRC_OBS_GRAPH_DOT_H_
