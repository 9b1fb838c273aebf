#include "src/runtime/thread_engine.h"

#include <algorithm>

namespace neocpu {

ThreadEngine& EngineOrSerial(ThreadEngine* engine) {
  // Stateless, so one instance serves every thread.
  static SerialEngine serial;
  return engine != nullptr ? *engine : serial;
}

void ParallelFor(ThreadEngine& engine, std::int64_t total,
                 const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (total <= 0) {
    return;
  }
  const int workers = std::max(1, engine.NumWorkers());
  const std::int64_t chunks = std::min<std::int64_t>(workers, total);
  engine.ParallelRun(static_cast<int>(chunks), [&](int task, int num_tasks) {
    const std::int64_t begin = total * task / num_tasks;
    const std::int64_t end = total * (task + 1) / num_tasks;
    if (begin < end) {
      body(begin, end);
    }
  });
}

}  // namespace neocpu
