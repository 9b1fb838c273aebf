// Local search (paper §3.3.1): rank every candidate schedule of one convolution
// workload by (measured or modelled) execution time, ascending.
//
// Results are memoized in the shared TuningCache (src/tuning/tuning_cache.h) keyed by
// WorkloadKey — the full workload identity including the batch size, target ISA, cost
// mode and space mode.
#ifndef NEOCPU_SRC_TUNING_LOCAL_SEARCH_H_
#define NEOCPU_SRC_TUNING_LOCAL_SEARCH_H_

#include <map>
#include <memory>
#include <vector>

#include "src/tuning/cost_model.h"
#include "src/tuning/schedule_space.h"

namespace neocpu {

class TuningCache;

struct ScheduleCost {
  ConvSchedule schedule;
  double ms = 0.0;
};

struct DenseScheduleCost {
  GemmSchedule schedule;
  double ms = 0.0;
};

struct LocalSearchResult {
  std::vector<ScheduleCost> ranked;  // ascending by ms; never empty after a conv search
  // Dense (tuned GEMM) workloads rank here instead; ascending by ms. Exactly one of
  // `ranked` / `dense_ranked` is populated per result — the WorkloadKey knows which.
  std::vector<DenseScheduleCost> dense_ranked;

  const ScheduleCost& best() const { return ranked.front(); }
  // Cheapest fp32 direct-NCHWc schedule for a given (ic_bn, oc_bn) pair; nullptr if the
  // pair is absent. Non-direct algorithm entries (zeroed blocks) and quantized entries
  // (merged candidate lists) never match.
  const ScheduleCost* BestForPair(std::int64_t ic_bn, std::int64_t oc_bn) const;
  // Cheapest fp32 entry computed with `algo`; nullptr if none was ranked (e.g. direct
  // for a conv whose output channels have no templated block).
  const ScheduleCost* BestForAlgo(ConvAlgo algo) const;
  // Cheapest quantized (u8) entry; nullptr when the list carries none (pure fp32
  // searches).
  const ScheduleCost* BestQuantized() const;
  // Cheapest dense entry of the given dtype; nullptr when none was ranked.
  const DenseScheduleCost* BestDense(DType dtype = DType::kF32) const;
};

// Conv node id -> its local-search result (the compiler's and global search's working
// set; shared_ptr so cache hits are pointer copies, never ranked-list copies).
using LocalSearchMap = std::map<int, std::shared_ptr<const LocalSearchResult>>;

// Walks the §3.3.1 candidate space for one workload. `dtype` selects the space: kF32
// ranks the fp32 blockings plus im2col; kU8 ranks the quantized direct-NCHWc space
// (EnumerateS8Schedules) and caches under the u8-tagged WorkloadKey. `cache` (optional) is consulted first and populated with the result on a
// miss. `cache_hit` (optional) reports whether this call was served from the cache —
// callers attribute cache traffic to themselves through it, since the cache's own
// counters are shared across concurrent searches. A hit hands back the cache's own
// immutable result; no copy is made.
std::shared_ptr<const LocalSearchResult> LocalSearchConvShared(
    const Conv2dParams& params, const Target& target, CostMode mode, bool quick_space,
    ThreadEngine* engine = nullptr, TuningCache* cache = nullptr,
    bool* cache_hit = nullptr, DType dtype = DType::kF32);

// Walks EnumerateDenseSchedules for one tuned-GEMM workload and ranks it into
// dense_ranked, caching under the dense-spelled WorkloadKey ("dense:M_N_K" shape
// token). `dtype` is kF32 or kU8.
std::shared_ptr<const LocalSearchResult> LocalSearchDenseShared(
    const DenseParams& params, const Target& target, CostMode mode, bool quick_space,
    ThreadEngine* engine = nullptr, TuningCache* cache = nullptr,
    bool* cache_hit = nullptr, DType dtype = DType::kF32);

// Convenience by-value form for standalone callers (examples, tests).
LocalSearchResult LocalSearchConv(const Conv2dParams& params, const Target& target,
                                  CostMode mode, bool quick_space,
                                  ThreadEngine* engine = nullptr,
                                  TuningCache* cache = nullptr,
                                  bool* cache_hit = nullptr, DType dtype = DType::kF32);

}  // namespace neocpu

#endif  // NEOCPU_SRC_TUNING_LOCAL_SEARCH_H_
