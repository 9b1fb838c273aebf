#include "src/runtime/thread_pool.h"

#include "src/base/cpu_info.h"
#include "src/runtime/topology.h"

namespace neocpu {

// Binding is best effort: BindCurrentThreadToCpu leaves a thread floating when the
// kernel refuses (e.g. a cpuset-restricted process).
NeoThreadPool::NeoThreadPool(int num_workers, bool bind_threads, std::vector<int> bind_cpus)
    : bind_threads_(bind_threads), bind_cpus_(std::move(bind_cpus)) {
  num_workers_ = num_workers > 0 ? num_workers : HostCpuInfo().physical_cores;
  workers_.reserve(static_cast<std::size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  if (bind_threads_) {
    BindCurrentThreadToCpu(BindCpuOf(0));
  }
  for (int i = 1; i < num_workers_; ++i) {
    workers_[static_cast<std::size_t>(i)]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

NeoThreadPool::~NeoThreadPool() {
  shutdown_.store(true, std::memory_order_release);
  for (int i = 1; i < num_workers_; ++i) {
    auto& w = *workers_[static_cast<std::size_t>(i)];
    if (w.thread.joinable()) {
      w.thread.join();
    }
  }
}

void NeoThreadPool::RunTask(const Task& task) { (*task.fn)(task.task_index, task.num_tasks); }

int NeoThreadPool::BindCpuOf(int worker_index) const {
  if (worker_index < static_cast<int>(bind_cpus_.size())) {
    return bind_cpus_[static_cast<std::size_t>(worker_index)];
  }
  return worker_index;
}

void NeoThreadPool::WorkerLoop(int worker_index) {
  if (bind_threads_) {
    BindCurrentThreadToCpu(BindCpuOf(worker_index));
  }
  auto& queue = workers_[static_cast<std::size_t>(worker_index)]->queue;
  int idle_spins = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    Task task;
    if (queue.TryPop(task)) {
      idle_spins = 0;
      RunTask(task);
      pending_.fetch_sub(1, std::memory_order_acq_rel);
    } else if (++idle_spins < 4096) {
      // Spin: the common case between two back-to-back parallel regions.
    } else {
      std::this_thread::yield();
    }
  }
}

void NeoThreadPool::ParallelRun(int num_tasks, const std::function<void(int, int)>& fn) {
  if (num_tasks <= 0) {
    return;
  }
  if (num_tasks == 1 || num_workers_ == 1) {
    for (int i = 0; i < num_tasks; ++i) {
      fn(i, num_tasks);
    }
    return;
  }

  // Fork: hand tasks 1..n-1 to workers round-robin; task 0 runs on this thread.
  int dispatched = 0;
  for (int t = 1; t < num_tasks; ++t) {
    Task task{&fn, t, num_tasks, 0};
    int target = 1 + (t - 1) % (num_workers_ - 1);
    if (workers_[static_cast<std::size_t>(target)]->queue.TryPush(task)) {
      ++dispatched;
    } else {
      // Queue full (more tasks than slots): run inline rather than block.
      fn(t, num_tasks);
    }
  }
  pending_.fetch_add(static_cast<std::uint64_t>(dispatched), std::memory_order_acq_rel);

  fn(0, num_tasks);

  // Join: spin briefly (regions are short and workers run on their own cores), then
  // yield so oversubscribed configurations cannot burn a scheduler quantum.
  int spins = 0;
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (++spins >= 2048) {
      spins = 0;
      std::this_thread::yield();
    }
  }
}

}  // namespace neocpu
