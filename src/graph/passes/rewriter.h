// Helper for passes that rebuild a graph in topological order with id remapping.
#ifndef NEOCPU_SRC_GRAPH_PASSES_REWRITER_H_
#define NEOCPU_SRC_GRAPH_PASSES_REWRITER_H_

#include <vector>

#include "src/base/logging.h"
#include "src/graph/graph.h"

namespace neocpu {

// Constants are copied on demand: a source constant enters the output graph when the
// first rewritten node (or graph output) looks it up, so weights a pass folds or
// re-lays out leave no unread original behind.
class GraphRewriter {
 public:
  explicit GraphRewriter(const Graph& src) : src_(src), map_(src.num_nodes(), -1) {
    dst_.name = src.name;
    for (int id = 0; id < src.num_nodes(); ++id) {
      if (src.node(id).type == OpType::kConstant) {
        MapTo(id, kPendingConstant);
      }
    }
  }

  const Graph& src() const { return src_; }
  Graph& dst() { return dst_; }

  // New id for an already-processed source node; copies a constant on its first lookup.
  int Lookup(int orig_id) {
    int& mapped = map_[static_cast<std::size_t>(orig_id)];
    if (mapped == kPendingConstant) {
      const Node& node = src_.node(orig_id);
      mapped = dst_.AddConstant(node.payload, node.name);
      dst_.node(mapped).out_layout = node.out_layout;
    }
    NEOCPU_CHECK_GE(mapped, 0) << "source node " << orig_id << " not yet rewritten";
    return mapped;
  }

  void MapTo(int orig_id, int new_id) { map_[static_cast<std::size_t>(orig_id)] = new_id; }

  // Copies `node` verbatim (inputs remapped); maps it and returns the new id. A
  // constant is left to its first Lookup and returns -1.
  int CopyNode(const Node& node) {
    if (node.type == OpType::kConstant) {
      return -1;
    }
    std::vector<int> inputs;
    inputs.reserve(node.inputs.size());
    for (int input : node.inputs) {
      inputs.push_back(Lookup(input));
    }
    int id;
    if (node.type == OpType::kInput) {
      id = dst_.AddInput(node.out_dims, node.name);
    } else {
      id = dst_.AddNode(node.type, std::move(inputs), node.attrs, node.name);
    }
    dst_.node(id).out_layout = node.out_layout;
    MapTo(node.id, id);
    return id;
  }

  // Remaps the source outputs and finalizes.
  Graph Finish() {
    std::vector<int> outputs;
    outputs.reserve(src_.outputs().size());
    for (int out : src_.outputs()) {
      outputs.push_back(Lookup(out));
    }
    dst_.SetOutputs(std::move(outputs));
    return std::move(dst_);
  }

 private:
  static constexpr int kPendingConstant = -2;

  const Graph& src_;
  Graph dst_;
  std::vector<int> map_;
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_GRAPH_PASSES_REWRITER_H_
