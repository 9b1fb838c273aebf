// Opt-in chrome://tracing timeline recorder for the request lifecycle.
//
// A TraceRecorder collects complete-duration spans ("ph":"X") and instant events
// ("ph":"i") from every thread that touches a request — submit, queue wait, batch
// formation, executor dispatch, per-node execution — and serializes them as the Trace
// Event Format JSON that chrome://tracing / Perfetto load directly. Tail-latency
// anomalies (a straggler batch, a node suddenly 10x slower on one partition) become a
// picture instead of a guess.
//
// The buffer is bounded: once max_events is reached new events are counted as dropped
// rather than grown into unbounded memory — a recorder left attached to a production
// server degrades to a ring of the first N events, never to an OOM. All entry points
// are thread-safe.
#ifndef NEOCPU_SRC_OBS_TRACE_H_
#define NEOCPU_SRC_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace neocpu {

class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TraceRecorder(std::size_t max_events = 1 << 20);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  struct Event {
    std::string name;
    const char* category = "";
    double ts_us = 0.0;   // relative to the recorder's epoch
    double dur_us = 0.0;  // 0 for instants
    int tid = 0;
    char phase = 'X';
    std::string args;  // preformatted JSON object body, may be empty
  };

  // Records a [begin, end) span on the calling thread's timeline. `args_json`, when
  // non-empty, is a preformatted JSON object body ("\"model\":\"x\",\"batch\":4")
  // attached as the event's args.
  void RecordSpan(const char* category, std::string name, Clock::time_point begin,
                  Clock::time_point end, std::string args_json = {});
  // As above but attributed to an explicit virtual thread lane (e.g. a request's
  // submitting thread observed from a worker).
  void RecordInstant(const char* category, std::string name, std::string args_json = {});

  std::size_t size() const;
  std::uint64_t dropped() const;
  void Clear();

  // The steady_clock origin all ts_us values are relative to.
  Clock::time_point epoch() const { return epoch_; }
  // Copy of the recorded events, in record order (tests and offline analysis).
  std::vector<Event> events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

  // Trace Event Format: {"traceEvents": [...], "displayTimeUnit": "ms"}.
  std::string ToJson() const;
  bool WriteFile(const std::string& path) const;

 private:
  // Small stable ids instead of raw std::thread::id hashes keep the timeline readable.
  int TidForLocked(std::thread::id id);
  double MicrosSinceEpoch(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  const Clock::time_point epoch_;
  const std::size_t max_events_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::map<std::thread::id, int> tids_;
  std::uint64_t dropped_ = 0;
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_OBS_TRACE_H_
