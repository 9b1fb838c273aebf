// The paper's custom fork-join thread pool (§3.1.2).
//
// Design points reproduced from the paper:
//  * one persistent worker per physical core, bound to disjoint cores (best effort);
//  * a lock-free SPSC queue from the scheduler to every worker for task handoff;
//  * C++11 atomics for fork-join coordination (no mutex/cond-var on the fast path);
//  * cache-line padding on shared state to avoid false sharing;
//  * no hyper-threading: default worker count is the physical core count.
//
// Workers spin briefly waiting for work before yielding, which keeps the per-region
// launch overhead far below a wake-from-sleep pool (measured in bench/threadpool_micro).
#ifndef NEOCPU_SRC_RUNTIME_THREAD_POOL_H_
#define NEOCPU_SRC_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/base/align.h"
#include "src/runtime/spsc_queue.h"
#include "src/runtime/thread_engine.h"

namespace neocpu {

class NeoThreadPool final : public ThreadEngine {
 public:
  // num_workers <= 0 selects the physical core count. Worker 0 is the calling thread
  // (the scheduler participates in the work), so only num_workers-1 threads are spawned.
  // With bind_threads, worker i binds to bind_cpus[i] when that list is given, else to
  // cpu i — how a core partition (src/runtime/partition.h) hands a pool its exact cpu
  // set, so several pools coexist on disjoint cpus. A bound pool pins its constructing
  // thread (worker 0; a pool of width 1 runs every region inline on it) only while it
  // lives: destroyed on that thread, it restores the thread's earlier affinity mask, so
  // threads the caller starts later are not confined to the pool's cpu.
  explicit NeoThreadPool(int num_workers = 0, bool bind_threads = true,
                         std::vector<int> bind_cpus = {});
  ~NeoThreadPool() override;

  NeoThreadPool(const NeoThreadPool&) = delete;
  NeoThreadPool& operator=(const NeoThreadPool&) = delete;

  void ParallelRun(int num_tasks, const std::function<void(int, int)>& fn) override;
  int NumWorkers() const override { return num_workers_; }
  const char* Name() const override { return "neocpu-threadpool"; }

 private:
  struct Task {
    const std::function<void(int, int)>* fn = nullptr;
    int task_index = 0;
    int num_tasks = 0;
    std::uint64_t epoch = 0;
  };

  // Per-worker state, padded so adjacent workers never share a cache line.
  struct alignas(kCacheLineBytes) Worker {
    SpscQueue<Task> queue{64};
    std::thread thread;
    char padding[kCacheLineBytes];
  };

  void WorkerLoop(int worker_index);
  void RunTask(const Task& task);

  // The cpu worker i binds to (bind_cpus_[i] when given, else i).
  int BindCpuOf(int worker_index) const;

  int num_workers_ = 1;
  bool bind_threads_ = true;
  std::vector<int> bind_cpus_;
  // The constructing thread and its mask before the pool pinned it (bound pools only).
  std::thread::id builder_;
  std::vector<int> builder_cpus_;
  std::vector<std::unique_ptr<Worker>> workers_;
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> pending_{0};
  alignas(kCacheLineBytes) std::atomic<bool> shutdown_{false};
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_RUNTIME_THREAD_POOL_H_
