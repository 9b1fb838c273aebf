// Single-node execution dispatch: maps a graph node (plus resolved input tensors) to the
// kernel library. Layout-tolerant operations pick their NCHW / NCHW[x]c variant from the
// incoming tensor's rank, so the same dispatch serves the reference executor and every
// optimized configuration.
//
// One execution form: ExecuteNodeInto writes a node's result into an output tensor the
// executor already placed (an arena slice or an owning heap buffer, per core/memory_plan)
// and runs kernel scratch in a caller-provided workspace. Nodes whose output is a view of
// an input (AliasedInput) run no kernel; AliasView builds that view. The planner-facing
// queries below are the single source of truth for which nodes materialize, which alias
// an input's buffer, and how much scratch each kernel needs.
#ifndef NEOCPU_SRC_CORE_OP_DISPATCH_H_
#define NEOCPU_SRC_CORE_OP_DISPATCH_H_

#include <cstddef>
#include <vector>

#include "src/graph/graph.h"
#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// Executes `node` writing its result into `*out` (a preallocated tensor whose physical
// dims/layout match PlannedOutputDims/node.out_layout) using `workspace` for kernel
// scratch (null iff NodeWorkspaceBytes(node) == 0). `workspace_bytes` is the workspace's
// capacity: the packed GEMM uses it only when it holds the packed-A panels of the
// executing row count. Dies for inputs, constants and aliasing nodes, which have no
// kernel.
void ExecuteNodeInto(const Node& node, const std::vector<Tensor>& inputs, Tensor* out,
                     float* workspace, std::size_t workspace_bytes, ThreadEngine* engine);

// If the node's output shares its input's buffer (reshape, flatten, dropout, identity
// layout transforms), the index into node.inputs of the aliased producer; -1 otherwise.
int AliasedInput(const Node& node, const Graph& graph);

// The output of an aliasing node (AliasedInput >= 0): a view of the aliased input's
// bytes under the node's output dims and layout. Runs no kernel and allocates no buffer.
Tensor AliasView(const Node& node, const std::vector<Tensor>& inputs);

// Bytes of kernel scratch one execution of `node` needs: the im2col column buffer, the
// packed GEMM's packed-A panels, attention score tiles; 0 for everything else on the
// dispatch path.
std::size_t NodeWorkspaceBytes(const Node& node);

// Physical dims of the node's output tensor: node.out_dims reinterpreted under
// node.out_layout (NCHW[x]c feature maps materialize as 5-D {N, C/x, H, W, x}).
std::vector<std::int64_t> PlannedOutputDims(const Node& node);

// Layout tag the node's kernel actually produces. node.out_layout is authoritative for
// feature maps (4-D+), but flat outputs (dense, softmax rows, flattened heads) keep the
// Node-default NCHW tag — the kernels label those Flat, and the planner's views must
// match what the kernels check.
Layout PlannedOutputLayout(const Node& node);

}  // namespace neocpu

#endif  // NEOCPU_SRC_CORE_OP_DISPATCH_H_
