// Direct convolution in the blocked NCHW[x]c layout — the paper's Algorithm 1.
//
// The computation is organized exactly as published: the output is partitioned into
// disjoint chunks processed in parallel; within a chunk, out_width is split by reg_n and
// a register block of reg_n × oc_bn accumulators is kept live across the whole reduction
// (in_channel × kernel_h × kernel_w); one vector of oc_bn kernel values is loaded per
// reduction step and FMA-ed against reg_n broadcast input values (Figure 1).
//
// The template is "high level": schedules select among C++ template instantiations whose
// inner loops GCC auto-vectorizes into broadcast-FMA sequences — no intrinsics, no
// assembly — which is what makes the same code retargetable across ISAs (§3.1.1). The
// retargeting is done per tier at build time and picked at run time: the body
// (conv_nchwc_impl.h) is compiled at the portable baseline ISA and again under AVX2+FMA
// and AVX-512 flags, and ConvNCHWc dispatches to the widest tier the CPU supports.
#ifndef NEOCPU_SRC_KERNELS_CONV_NCHWC_H_
#define NEOCPU_SRC_KERNELS_CONV_NCHWC_H_

#include "src/base/cpu_info.h"
#include "src/kernels/conv_params.h"
#include "src/kernels/conv_schedule.h"
#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// input:    NCHW[ic_bn]c, dims {N, IC/ic_bn, IH, IW, ic_bn}
// weight:   OIHW[ic_bn]i[oc_bn]o, dims {OC/oc_bn, IC/ic_bn, KH, KW, ic_bn, oc_bn}
// bias:     flat {OC} (required iff epilogue.bias)
// residual: same layout/dims as output (required iff epilogue.residual_add)
// output:   preallocated NCHW[oc_bn]c, dims {N, OC/oc_bn, OH, OW, oc_bn}
void ConvNCHWc(const Conv2dParams& params, const ConvSchedule& schedule, const Tensor& input,
               const Tensor& weight, const Tensor* bias, const Tensor* residual,
               const ConvEpilogue& epilogue, Tensor* output, ThreadEngine* engine = nullptr);

// Name of the tier ConvNCHWc runs on: "avx512", "avx2" or "baseline".
const char* ConvNCHWcIsaName();

// Pins ConvNCHWc to the named tier (parity tests, bench ablations); nullptr or ""
// restores the automatic pick. Returns false when the tier is not compiled in or the
// running CPU lacks it. Tiers differ only in FMA contraction, so results agree within
// fp32 rounding, not bitwise.
bool SetConvNCHWcIsaOverride(const char* name);

// The tier ConvNCHWc picks when nothing is pinned: the widest one that is both compiled
// in and supported by the running CPU. Target::Host() describes this tier.
IsaTier ConvNCHWcHostTier();

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_NCHWC_H_
