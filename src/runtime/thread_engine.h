// Abstract parallel-execution engine.
//
// The executor and all kernels parallelize through this interface, so the same compiled
// module can run on the paper's custom thread pool, on the OpenMP-style baseline pool
// (Figure 4 comparison), or serially.
#ifndef NEOCPU_SRC_RUNTIME_THREAD_ENGINE_H_
#define NEOCPU_SRC_RUNTIME_THREAD_ENGINE_H_

#include <cstdint>
#include <functional>

namespace neocpu {

class ThreadEngine {
 public:
  virtual ~ThreadEngine() = default;

  // Invokes fn(task_index, num_tasks) for task_index in [0, num_tasks), potentially
  // concurrently, and returns after all invocations complete (fork-join semantics).
  // num_tasks is typically the worker count; each task processes a disjoint chunk.
  virtual void ParallelRun(int num_tasks,
                           const std::function<void(int task, int num_tasks)>& fn) = 0;

  virtual int NumWorkers() const = 0;
  virtual const char* Name() const = 0;
};

// Executes everything inline on the calling thread.
class SerialEngine final : public ThreadEngine {
 public:
  void ParallelRun(int num_tasks,
                   const std::function<void(int, int)>& fn) override {
    for (int i = 0; i < num_tasks; ++i) {
      fn(i, num_tasks);
    }
  }
  int NumWorkers() const override { return 1; }
  const char* Name() const override { return "serial"; }
};

// `engine`, or a process-wide SerialEngine when it is null: the one place a kernel's
// optional engine argument falls back to inline execution.
ThreadEngine& EngineOrSerial(ThreadEngine* engine);

// Splits the half-open range [0, total) into NumWorkers() even chunks and runs them as
// one fork-join region on `engine`.
void ParallelFor(ThreadEngine& engine, std::int64_t total,
                 const std::function<void(std::int64_t begin, std::int64_t end)>& body);

}  // namespace neocpu

#endif  // NEOCPU_SRC_RUNTIME_THREAD_ENGINE_H_
