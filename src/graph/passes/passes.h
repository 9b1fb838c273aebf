// Graph-level optimization passes.
//
// Pipeline (paper §3 + Figure 2):
//   1. SimplifyInference — drop Dropout, lower BatchNorm to per-channel ScaleShift with
//      compile-time-folded constants, then fold ScaleShift into the producing
//      convolution when the convolution has no other consumer.
//   2. FuseOps — fuse ReLU / residual-add(+ReLU) epilogues into convolutions and ReLU
//      into remaining ScaleShift nodes, raising arithmetic intensity (§2.2).
//   3. AlterConvLayout — lower each convolution to the kernel its schedule names
//      (the NCHW[x]c template, or an NCHW-layout algorithm), pre-transform weight
//      constants (OIHW[x]i[y]o, Winograd domain) at compile time, propagate layouts
//      through layout-oblivious / layout-tolerant operations, and insert
//      LayoutTransform nodes only where layouts genuinely change (§3.2).
//
// Every pass returns a new Graph (nodes are rebuilt in topological order); shape
// inference is re-run internally.
#ifndef NEOCPU_SRC_GRAPH_PASSES_PASSES_H_
#define NEOCPU_SRC_GRAPH_PASSES_PASSES_H_

#include <map>

#include "src/graph/graph.h"
#include "src/kernels/conv_schedule.h"
#include "src/kernels/gemm_schedule.h"

namespace neocpu {

Graph SimplifyInference(const Graph& graph);

Graph FuseOps(const Graph& graph);

// Observed activation range of one tensor (node output), recorded by the executor's
// CalibrationObserver on sample inputs and consumed by QuantizeGraph.
struct TensorRange {
  float min = 0.0f;
  float max = 0.0f;

  void Merge(const TensorRange& other) {
    min = other.min < min ? other.min : min;
    max = other.max > max ? other.max : max;
  }
};

// Node id (in the fused pre-layout source graph) -> observed output range.
using CalibrationTable = std::map<int, TensorRange>;

// How the calibration observer reduces observed activations to a quantization range.
// Enumerator values appear in serialized modules — append only.
enum class CalibrationPolicy {
  kMinMax = 0,      // exact observed min/max (one pass; outlier-sensitive)
  kPercentile = 1,  // clip to the central 99.9% of observed mass (histogram pass)
  kEntropy = 2,     // KL-divergence-minimizing clip (TensorRT-style; histogram pass)
};

const char* CalibrationPolicyName(CalibrationPolicy policy);

// True when `node` (a conv in the fused source graph) can execute the quantized int8
// kernel: constant weight and calibrated ranges for both its data input and its output.
// A fused residual add is legal: the u8 epilogue adds it (sum fusion). A conv whose
// in_c is not a multiple of 4 is legal only on a graph input: it runs quad-padded
// (Conv2dParams::QuadPadded), and the quantize of the image writes the pad channels.
bool QuantizeLegal(const Graph& graph, int id, const CalibrationTable& calibration);

// Post-training quantization rewrite. `schedules` maps conv node id -> chosen schedule
// (keyed against `graph`); convs whose schedule carries the integer dtype (u8) are
// rewritten to the quantized form:
//   * a kQuantize node (affine u8, range from the calibrated input) feeds the conv
//     unless the producer already yields an integer tensor — chains of
//     quantized convs stay integer with no Q/DQ pair between them (the DQ->Q
//     cancellation, done constructively). The quantize of a graph input (the image)
//     reads it as NCHW and writes the conv's NCHW[ic_bn]c blocks directly
//     (attrs.dst_layout), its channels padded at the zero point to the quad the conv
//     runs on, so the image needs no separate relayout;
//   * pooling and concat between quantized convs execute natively in the integer
//     domain (max pool compares raw codes — quantization is monotonic; avg pool
//     accumulates in s32; concat rescales each input to the concat's own calibrated range
//     while copying), so chains survive structural ops instead of bouncing through
//     DQ->Q pairs. An integer pool/concat is emitted only when an integer consumer
//     actually follows — otherwise the producing conv keeps its free fused-dequantize
//     epilogue;
//   * the conv keeps its fp32 weight constant but gains ConvQuant attrs (in/out
//     scale/zero-point/dtype) and its quad-padded params; AlterConvLayout later pads
//     the weight's input channels with zeros, pre-quantizes the weights per
//     output channel, VNNI-packs them, and folds the bias (and the zero-point
//     correction) to s32;
//   * consumers that need fp32 read a kDequantize of the conv's integer output; when
//     NO consumer stays integer the dequantization fuses into the conv epilogue
//     instead (ConvQuant::requant = false) and no kDequantize node is emitted;
//   * a quantized conv's fused residual (IntelCaffe's sum fusion) reads the
//     producer's integer tensor when there is one, with its (scale, zero point) on
//     qin_scales/qin_zeros, else the codes of an existing quantize of the f32 source,
//     else the f32 tensor. An f32 conv reads its residual in f32, through the shared
//     kDequantize like any other f32 reader. A residual read is not integer demand: it
//     never makes its producer requantize.
// On return *schedules is re-keyed to the rewritten graph's conv ids, and
// *dense_schedules (optional; dense node id -> tuned GEMM schedule) likewise.
Graph QuantizeGraph(const Graph& graph, const CalibrationTable& calibration,
                    std::map<int, ConvSchedule>* schedules,
                    std::map<int, GemmSchedule>* dense_schedules = nullptr);

// Layout placement strategy for AlterConvLayout.
enum class LayoutPlacement {
  kPerOp,       // every conv transforms NCHW -> NCHW[x]c -> NCHW around itself
                // (framework + fixed-library behaviour; Table 3 row "Layout Opt.")
  kPropagate,   // keep the blocked layout flowing between convs; insert transforms only
                // on mismatch (Table 3 rows "Transform Elim." and "Global Search")
};

// `schedules` maps conv node id (in `graph`) to its chosen schedule, which the
// rewritten conv carries and dispatch runs. Convs not in the map keep their own
// schedule (an unlowered conv: the reference loop). Weight constants are
// pre-transformed in the result.
// `dense_schedules` maps dense node id to its GEMM schedule: those dense nodes get
// their weight constant pre-packed into the kernel's panel layout (f32, or the
// QuantizeOperands of a u8 schedule) and execute through the packed GEMM family. A
// dense not in the map runs Dense(), the reference an unlowered graph runs.
Graph AlterConvLayout(const Graph& graph, const std::map<int, ConvSchedule>& schedules,
                      LayoutPlacement placement,
                      const std::map<int, GemmSchedule>& dense_schedules = {});

}  // namespace neocpu

#endif  // NEOCPU_SRC_GRAPH_PASSES_PASSES_H_
