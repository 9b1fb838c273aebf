#include "src/runtime/partition.h"

#include <algorithm>
#include <utility>

#include "src/base/cpu_info.h"

namespace neocpu {
namespace {

// Per-node cpu pool in planner preference order: primary cpus first, HT siblings
// after, both ascending — slices take a prefix, so siblings are only used once every
// physical core on the node is taken.
std::vector<int> NodePool(const TopologyNode& node) {
  std::vector<int> pool = node.primary_cpus;
  for (int cpu : node.cpus) {
    if (std::find(node.primary_cpus.begin(), node.primary_cpus.end(), cpu) ==
        node.primary_cpus.end()) {
      pool.push_back(cpu);
    }
  }
  return pool;
}

// Largest-remainder apportionment of `count` items across weights `sizes`, capped at
// cap[i] per bucket. Deterministic: remainder ties break toward the lower index.
std::vector<int> Apportion(int count, const std::vector<int>& sizes,
                           const std::vector<int>& caps) {
  const std::size_t n = sizes.size();
  int total_size = 0;
  for (int s : sizes) {
    total_size += s;
  }
  std::vector<int> out(n, 0);
  if (total_size <= 0) {
    return out;
  }
  int assigned = 0;
  std::vector<std::pair<double, std::size_t>> remainders;  // (-frac, index) for sorting
  for (std::size_t i = 0; i < n; ++i) {
    const double exact =
        static_cast<double>(count) * static_cast<double>(sizes[i]) / total_size;
    out[i] = std::min(static_cast<int>(exact), caps[i]);
    assigned += out[i];
    remainders.emplace_back(-(exact - static_cast<int>(exact)), i);
  }
  std::sort(remainders.begin(), remainders.end());
  // Hand out the rounding leftovers by remainder, then round-robin any still left
  // (possible when caps bit); stop when every bucket is at its cap.
  while (assigned < count) {
    bool progressed = false;
    for (const auto& [neg_frac, i] : remainders) {
      if (assigned >= count) {
        break;
      }
      if (out[i] < caps[i]) {
        ++out[i];
        ++assigned;
        progressed = true;
      }
    }
    if (!progressed) {
      break;  // every bucket capped: count was larger than total capacity
    }
  }
  return out;
}

std::vector<CorePartition> SliceNode(const TopologyNode& node,
                                     const std::vector<int>& pool, int num_partitions,
                                     int num_workers) {
  std::vector<CorePartition> slices;
  const int base = num_workers / num_partitions;
  const int remainder = num_workers % num_partitions;
  int offset = 0;
  for (int p = 0; p < num_partitions; ++p) {
    const int width = base + (p < remainder ? 1 : 0);
    CorePartition part;
    part.home_node = node.id;
    part.cpus.assign(pool.begin() + offset, pool.begin() + offset + width);
    slices.push_back(std::move(part));
    offset += width;
  }
  return slices;
}

}  // namespace

std::vector<CorePartition> PlanCorePartitions(int num_partitions, int total_workers) {
  return PlanCorePartitions(num_partitions, total_workers, HostTopology());
}

std::vector<CorePartition> PlanCorePartitions(int num_partitions, int total_workers,
                                              const CpuTopology& topology) {
  int total = std::max(1, total_workers > 0 ? total_workers : HostCpuInfo().physical_cores);
  if (topology.nodes().empty()) {
    // A tree with no online cpus (unreadable sysfs) plans as one node of the budget.
    return PlanCorePartitions(num_partitions, total, CpuTopology::SingleNode(total));
  }
  num_partitions = std::max(num_partitions, 1);

  // Build per-node pools (primaries first), clamp the worker budget to the cpus the
  // topology actually has online, and keep every slice inside one node.
  const std::vector<TopologyNode>& nodes = topology.nodes();
  std::vector<std::vector<int>> pools;
  int capacity = 0;
  for (const TopologyNode& node : nodes) {
    pools.push_back(NodePool(node));
    capacity += static_cast<int>(pools.back().size());
  }
  total = std::min(total, capacity);
  num_partitions = std::min(num_partitions, total);

  if (num_partitions == 1) {
    // One partition: keep it on the biggest node when it fits, span the host only
    // when it cannot — the documented single-spanning-partition exception.
    std::size_t best = 0;
    for (std::size_t i = 1; i < pools.size(); ++i) {
      if (pools[i].size() > pools[best].size()) {
        best = i;
      }
    }
    CorePartition part;
    if (total <= static_cast<int>(pools[best].size())) {
      part.home_node = nodes[best].id;
      part.cpus.assign(pools[best].begin(), pools[best].begin() + total);
    } else {
      part.home_node = nodes.front().id;
      for (const std::vector<int>& pool : pools) {
        for (int cpu : pool) {
          if (static_cast<int>(part.cpus.size()) < total) {
            part.cpus.push_back(cpu);
          }
        }
      }
    }
    return {part};
  }

  std::vector<int> sizes;
  std::vector<int> caps;
  for (const std::vector<int>& pool : pools) {
    sizes.push_back(static_cast<int>(pool.size()));
    caps.push_back(static_cast<int>(pool.size()));
  }
  // Partitions per node, by capacity; then workers per node, at least one cpu per
  // partition, the rest by capacity.
  const std::vector<int> parts = Apportion(num_partitions, sizes, caps);
  std::vector<int> workers = parts;  // floor: every partition gets >= 1 cpu
  int assigned = 0;
  for (int w : workers) {
    assigned += w;
  }
  while (assigned < total) {
    // One worker at a time to the node with the most spare capacity relative to its
    // share — keeps the split proportional and deterministic.
    std::size_t best = pools.size();
    double best_deficit = 0.0;
    for (std::size_t i = 0; i < pools.size(); ++i) {
      if (parts[i] == 0 || workers[i] >= static_cast<int>(pools[i].size())) {
        continue;  // only nodes that host partitions get workers
      }
      const double share = static_cast<double>(total) * sizes[i] / capacity;
      const double deficit = share - workers[i];
      if (best == pools.size() || deficit > best_deficit) {
        best = i;
        best_deficit = deficit;
      }
    }
    if (best == pools.size()) {
      break;  // every partition-hosting node is full
    }
    ++workers[best];
    ++assigned;
  }

  std::vector<CorePartition> plan;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (parts[i] == 0) {
      continue;
    }
    std::vector<CorePartition> slices = SliceNode(nodes[i], pools[i], parts[i], workers[i]);
    for (CorePartition& slice : slices) {
      plan.push_back(std::move(slice));
    }
  }
  return plan;
}

}  // namespace neocpu
