// Ahead-of-time static memory planning (the compile-time side of the paper's §3.3
// "graph-level optimization decides data placement ahead of execution").
//
// PlanMemory runs liveness analysis over an executable graph — generalizing the
// executor's use-count logic to full def/last-use intervals with alias tracking — sizes
// every intermediate tensor and per-op kernel workspace (im2col column buffers), and
// greedily assigns byte offsets into ONE contiguous arena, reusing the space of buffers
// whose last consumer has already run (best-fit over freed intervals, with coalescing).
// The executor then runs the whole graph inside a single pooled, pre-faulted arena
// (runtime/arena_pool): steady-state inference performs zero heap allocations for
// intermediates and workspaces.
//
// Every node executes the same way (core/op_dispatch ExecuteNodeInto); the plan only
// decides where each output lives:
//   kArena — an intermediate: a view at a fixed offset of the arena.
//   kAlias — the output is a view of an input's buffer (reshape/flatten/dropout,
//            identity layout transforms); shares the producer's placement and extends
//            its live interval.
//   kHeap  — an escaping graph output (or a buffer one aliases): it outlives the Run
//            and the arena lease, so it owns a fresh heap buffer per Run. Inputs and
//            constants are also kHeap (externally owned, not counted).
// Kernel workspaces are arena slots for every materializing node, kHeap outputs
// included, so a planned Run's only heap allocations are its escaping outputs.
//
// PlanHeapOnly is the arena-free counterpart the executor uses when it is given no plan:
// every materializing node is kHeap, and outputs and workspaces are allocated per Run
// and released by liveness — the per-buffer reference behaviour.
//
// The plan is a pure function of the graph: every batch variant gets its own plan, and
// module loading recomputes plans rather than trusting serialized offsets (the artifact
// carries only summary metadata as a cross-check).
#ifndef NEOCPU_SRC_CORE_MEMORY_PLAN_H_
#define NEOCPU_SRC_CORE_MEMORY_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/tensor/layout.h"
#include "src/tensor/tensor.h"

namespace neocpu {

enum class BufferPlacement : std::uint8_t { kHeap, kArena, kAlias };

struct NodePlan {
  BufferPlacement placement = BufferPlacement::kHeap;
  int alias_of = -1;                 // kAlias: node id whose buffer this output shares
  // kArena: node id whose arena bytes this output REUSES in place (an elementwise op
  // writing over its dying input: ReLU/ScaleShift/ElemAdd with a last-use first input
  // of identical size). -1 for ordinary arena placements. Unlike kAlias the node still
  // executes; it just writes where it read.
  int in_place_of = -1;
  std::size_t offset = 0;            // kArena: byte offset of the output in the arena
  std::size_t size_bytes = 0;        // kArena: aligned output size
  // Kernel scratch of a materializing node: an arena slot when the plan has an arena
  // (arena_bytes > 0), else allocated per execution.
  std::size_t workspace_offset = 0;
  std::size_t workspace_bytes = 0;
  // Physical dims/layout/dtype of a materializing node's output (kArena view or kHeap
  // buffer), precomputed and immutable-shared so every Run builds its arena views
  // without re-deriving shapes OR allocating a dims vector (Tensor::FromExternal adopts
  // the SharedDims by refcount).
  SharedDims dims;
  Layout layout;
  DType dtype = DType::kF32;
};

struct ExecutionPlan {
  std::vector<NodePlan> nodes;    // indexed by node id
  std::size_t arena_bytes = 0;    // peak arena footprint (what the executor reserves)
  std::size_t naive_bytes = 0;    // sum of all arena buffers + workspaces: the bytes a
                                  // heap-only plan mallocs per Run for the same set
  int arena_nodes = 0;            // outputs placed in the arena
  int alias_nodes = 0;
  int heap_nodes = 0;             // materializing nodes owning a heap buffer per Run
  int in_place_nodes = 0;         // arena nodes that overwrite their dying input

  std::string ToString() const;  // human-readable placement table (debugging)
};

// Plans `graph`: arena offsets for every non-escaping materializing node and every
// workspace. Always succeeds.
ExecutionPlan PlanMemory(const Graph& graph);

// PlanMemory's placement without the arena: arena_bytes == 0 and every materializing
// node is kHeap. What an Executor built without a plan runs.
ExecutionPlan PlanHeapOnly(const Graph& graph);

// Validation used by tests: true iff no two concurrently-live arena intervals overlap,
// every interval fits in arena_bytes, escaping outputs stay off the arena, and alias
// and in-place claims match liveness. Appends human-readable problems to `errors` if
// non-null.
bool ValidatePlan(const Graph& graph, const ExecutionPlan& plan,
                  std::vector<std::string>* errors = nullptr);

}  // namespace neocpu

#endif  // NEOCPU_SRC_CORE_MEMORY_PLAN_H_
