#include "src/tuning/local_search.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/tuning/tuning_cache.h"

namespace neocpu {

const ScheduleCost* LocalSearchResult::BestForPair(std::int64_t ic_bn,
                                                   std::int64_t oc_bn) const {
  for (const ScheduleCost& sc : ranked) {
    if (!sc.schedule.IsQuantized() && sc.schedule.IsDirect() &&
        sc.schedule.ic_bn == ic_bn && sc.schedule.oc_bn == oc_bn) {
      return &sc;  // ranked ascending: first hit is the pair's best
    }
  }
  return nullptr;
}

const ScheduleCost* LocalSearchResult::BestForAlgo(ConvAlgo algo) const {
  for (const ScheduleCost& sc : ranked) {
    if (!sc.schedule.IsQuantized() && sc.schedule.algo == algo) {
      return &sc;
    }
  }
  return nullptr;
}

const ScheduleCost* LocalSearchResult::BestQuantized() const {
  for (const ScheduleCost& sc : ranked) {
    if (sc.schedule.IsQuantized()) {
      return &sc;
    }
  }
  return nullptr;
}

const DenseScheduleCost* LocalSearchResult::BestDense(DType dtype) const {
  for (const DenseScheduleCost& sc : dense_ranked) {
    if (sc.schedule.dtype == dtype) {
      return &sc;  // ranked ascending: first hit is the dtype's best
    }
  }
  return nullptr;
}

std::shared_ptr<const LocalSearchResult> LocalSearchDenseShared(
    const DenseParams& params, const Target& target, CostMode mode, bool quick_space,
    ThreadEngine* engine, TuningCache* cache, bool* cache_hit, DType dtype) {
  const WorkloadKey key = WorkloadKey::OfDense(params, target, mode, quick_space, dtype);
  if (cache_hit != nullptr) {
    *cache_hit = false;
  }
  if (cache != nullptr) {
    if (std::shared_ptr<const LocalSearchResult> cached = cache->Find(key)) {
      if (cache_hit != nullptr) {
        *cache_hit = true;
      }
      return cached;
    }
  }
  LocalSearchResult result;
  const std::vector<GemmSchedule> candidates =
      EnumerateDenseSchedules(params, quick_space, dtype);
  for (const GemmSchedule& schedule : candidates) {
    const double ms = mode == CostMode::kAnalytic
                          ? AnalyticDenseMs(params, schedule, target)
                          : MeasureDenseMs(params, schedule, engine);
    result.dense_ranked.push_back(DenseScheduleCost{schedule, ms});
  }
  std::stable_sort(result.dense_ranked.begin(), result.dense_ranked.end(),
                   [](const DenseScheduleCost& a, const DenseScheduleCost& b) {
                     return a.ms < b.ms;
                   });
  auto shared = std::make_shared<const LocalSearchResult>(std::move(result));
  if (cache != nullptr) {
    cache->Insert(key, shared);
  }
  return shared;
}

std::shared_ptr<const LocalSearchResult> LocalSearchConvShared(
    const Conv2dParams& params, const Target& target, CostMode mode, bool quick_space,
    ThreadEngine* engine, TuningCache* cache, bool* cache_hit, DType dtype) {
  const WorkloadKey key = WorkloadKey::Of(params, target, mode, quick_space, dtype);
  if (cache_hit != nullptr) {
    *cache_hit = false;
  }
  if (cache != nullptr) {
    if (std::shared_ptr<const LocalSearchResult> cached = cache->Find(key)) {
      if (cache_hit != nullptr) {
        *cache_hit = true;
      }
      return cached;
    }
  }
  NEOCPU_CHECK(dtype == DType::kF32 || dtype == DType::kU8);
  LocalSearchResult result;
  std::vector<ConvSchedule> candidates;
  if (dtype == DType::kU8) {
    candidates = EnumerateS8Schedules(params, target, quick_space);
    NEOCPU_CHECK(!candidates.empty())
        << "int8 search found no candidates (no legal u8 blocking) for "
        << params.ToString();
  } else {
    candidates = EnumerateSchedules(params, target, quick_space);
    // im2col is ranked in the same list: the local search scores *how to compute* the
    // conv, not just how to block it, and it is the only candidate of a conv whose
    // output channels have no templated block.
    candidates.push_back(AlgoSchedule(ConvAlgo::kIm2col));
  }
  for (const ConvSchedule& schedule : candidates) {
    const double ms = mode == CostMode::kAnalytic
                          ? AnalyticConvMs(params, schedule, target)
                          : MeasureConvMs(params, schedule, engine);
    result.ranked.push_back(ScheduleCost{schedule, ms});
  }
  NEOCPU_CHECK(!result.ranked.empty()) << "empty schedule space for " << params.ToString();
  std::stable_sort(result.ranked.begin(), result.ranked.end(),
                   [](const ScheduleCost& a, const ScheduleCost& b) { return a.ms < b.ms; });
  auto shared = std::make_shared<const LocalSearchResult>(std::move(result));
  if (cache != nullptr) {
    cache->Insert(key, shared);
  }
  return shared;
}

LocalSearchResult LocalSearchConv(const Conv2dParams& params, const Target& target,
                                  CostMode mode, bool quick_space, ThreadEngine* engine,
                                  TuningCache* cache, bool* cache_hit, DType dtype) {
  return *LocalSearchConvShared(params, target, mode, quick_space, engine, cache,
                                cache_hit, dtype);
}

}  // namespace neocpu
