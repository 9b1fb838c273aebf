// Convolution and layout-transform cost estimation.
//
// Two modes back the local search (§3.3.1):
//  * kMeasured — run the actual NCHWc template on synthetic tensors and time it. This is
//    what the paper does ("walk through the defined space to measure the execution time
//    of all combinations"); it is exact but slow (the paper quotes ~6 hours for
//    ResNet-50's 20 workloads on an 18-core machine).
//  * kAnalytic — a calibrated machine model over the same schedule space: peak-FMA
//    baseline adjusted for vector-lane utilization, register pressure, loop overheads,
//    out_width tail fractions and cache footprints. Orders of magnitude faster; used by
//    default so compiling all 15 zoo models stays CI-friendly. Benches and tests verify
//    the two modes agree on the ranking's head.
#ifndef NEOCPU_SRC_TUNING_COST_MODEL_H_
#define NEOCPU_SRC_TUNING_COST_MODEL_H_

#include "src/core/target.h"
#include "src/kernels/conv_params.h"
#include "src/kernels/conv_schedule.h"
#include "src/kernels/dense_params.h"
#include "src/kernels/gemm_schedule.h"
#include "src/runtime/thread_engine.h"

namespace neocpu {

enum class CostMode { kAnalytic, kMeasured };

const char* CostModeName(CostMode mode);

// Single-core execution-time estimate in milliseconds.
double AnalyticConvMs(const Conv2dParams& params, const ConvSchedule& schedule,
                      const Target& target);

// Work factor of the int8 row driver's block rounding: a row of `out_w` positions runs
// ceil(out_w / reg_n) whole reg_n blocks, so it computes ceil(out_w / reg_n) * reg_n
// positions and stores out_w of them.
double S8BlockRoundingFactor(std::int64_t out_w, std::int64_t reg_n);

// Times the real kernel on deterministic synthetic tensors (min of `runs`).
double MeasureConvMs(const Conv2dParams& params, const ConvSchedule& schedule,
                     ThreadEngine* engine = nullptr, int runs = 2);

// Single-core execution-time estimate for one tuned packed-GEMM (Dense) workload under
// `schedule`: peak-FMA baseline adjusted for register-kernel vector fill, accumulator
// pressure, m/n tail fractions and the L1/L2 residency of the packed panels — the GEMM
// analogue of AnalyticConvMs. schedule.dtype == kU8 models the u8*s8 kernel (VNNI fast
// path vs the slower portable quad fallback).
double AnalyticDenseMs(const DenseParams& params, const GemmSchedule& schedule,
                       const Target& target);

// Times the real packed GEMM on deterministic synthetic operands (min of `runs`).
// B is packed outside the timed region — it is a compile-time constant in the real
// flow — while the per-call A packing is timed, exactly as execution pays it.
double MeasureDenseMs(const DenseParams& params, const GemmSchedule& schedule,
                      ThreadEngine* engine = nullptr, int runs = 2);

// Estimated milliseconds to relayout a feature map of `bytes` bytes (read + write),
// using the host's measured copy bandwidth (calibrated once per process).
double TransformMs(std::int64_t tensor_bytes);

// Estimated milliseconds for a quantize or dequantize pass over a feature map whose
// fp32 representation is `f32_bytes`: one f32-side stream plus one quarter-size u8-side
// stream, with convert overhead folded in. These are the boundary costs the global
// search charges when adjacent convs disagree on dtype (the fp32<->int8 analogue of a
// layout transform).
double QdqMs(std::int64_t f32_bytes);

// Measured host bandwidth in bytes/ms (exposed for tests/benches).
double CalibratedCopyBytesPerMs();

}  // namespace neocpu

#endif  // NEOCPU_SRC_TUNING_COST_MODEL_H_
