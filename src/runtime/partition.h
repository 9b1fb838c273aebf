// Disjoint core partitions over the custom thread pool.
//
// The paper's Figure 4 shows that thread-pool scalability flattens well before the full
// core count for small inputs: two model instances each on half the cores deliver more
// aggregate throughput than one instance spanning every core. This module carves the
// host's cpus into N disjoint partitions, so N executors can run concurrently without
// oversubscribing or cross-talking on shared cache lines. A partition is its cpu list:
// each consumer builds a NeoThreadPool bound to `cpus` on the thread that will drive
// it (the serving executor pool in src/serve/ and the fig4 NUMA leg).
//
// Partitions are topology-aware (src/runtime/topology.h): a single-node host is a
// one-node topology, a partition never straddles a NUMA boundary (unless a single
// partition must span the host), physical cores are preferred over hyperthread
// siblings, only online cpus are handed out, and every partition reports its home
// node so arenas and weight replicas can be bound to match.
#ifndef NEOCPU_SRC_RUNTIME_PARTITION_H_
#define NEOCPU_SRC_RUNTIME_PARTITION_H_

#include <vector>

#include "src/runtime/topology.h"

namespace neocpu {

// One slice of the host's cpus; its width is cpus.size().
struct CorePartition {
  int home_node = 0;      // NUMA node every cpu of this slice lives on
  std::vector<int> cpus;  // the cpu ids worker i of the slice's pool binds to, in order
};

// Splits `total_workers` cpus (<= 0 selects the physical core count) of the host
// topology into `num_partitions` disjoint slices (see the topology overload).
std::vector<CorePartition> PlanCorePartitions(int num_partitions, int total_workers = 0);

// Same, planned against an explicit topology (tests plan against fixture trees). The
// worker budget is clamped to the topology's online cpus and `num_partitions` to
// [1, budget], so every partition has at least one cpu. Partitions are apportioned to
// nodes by capacity (largest remainder); each node's share is sliced from its primary
// cpus before its HT siblings, earlier slices absorbing the remainder, and no slice
// crosses nodes — except when num_partitions == 1 and the single partition needs more
// cpus than the largest node holds, in which case it spans the host.
std::vector<CorePartition> PlanCorePartitions(int num_partitions, int total_workers,
                                              const CpuTopology& topology);

}  // namespace neocpu

#endif  // NEOCPU_SRC_RUNTIME_PARTITION_H_
