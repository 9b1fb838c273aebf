// Named compiler configurations for the paper's comparisons.
//
// The paper's baselines are closed or third-party stacks (MXNet+MKL-DNN, TensorFlow+
// Eigen/ngraph, OpenVINO). This repository reproduces their *structure* on identical
// kernels (see DESIGN.md §1):
//
//   NeoCpuOptions          — the full system: global search, transform elimination,
//                            custom thread pool at run time.
//   FrameworkLibOptions    — "framework + vendor library": each conv runs the blocked
//                            template at the ISA's fixed block, but pays NCHW→NCHW[x]c→
//                            NCHW transforms around every call (MXNet+MKL-DNN-like).
//   FrameworkDefaultOptions— "framework default": im2col+GEMM in NCHW (TensorFlow/
//                            Eigen-like), no layout optimization.
//
// The framework presets (and every unsearched Table 3 row) run each dense on the
// packed GEMM at the fixed blocking GemmSchedule{} — the library's one blocking, the
// one their im2col convs run — where NeoCpuOptions searches it per layer.
//
// Run-time thread engines are chosen by the caller: NeoThreadPool for NeoCPU,
// OmpStylePool for the framework baselines (Figure 4).
#ifndef NEOCPU_SRC_CORE_PRESETS_H_
#define NEOCPU_SRC_CORE_PRESETS_H_

#include "src/core/compiler.h"

namespace neocpu {

inline CompileOptions NeoCpuOptions(const Target& target) {
  CompileOptions opts;
  opts.layout_mode = LayoutMode::kNCHWcGlobal;
  opts.target = target;
  return opts;
}

inline CompileOptions FrameworkLibOptions(const Target& target) {
  CompileOptions opts;
  opts.layout_mode = LayoutMode::kNCHWcPerOp;
  opts.target = target;
  return opts;
}

inline CompileOptions FrameworkDefaultOptions(const Target& target) {
  CompileOptions opts;
  opts.layout_mode = LayoutMode::kNCHW;
  opts.force_algo = true;
  opts.forced_algo = ConvAlgo::kIm2col;
  opts.target = target;
  return opts;
}

// Table 3 ablation rows (cumulative, top to bottom).
inline CompileOptions AblationBaselineNchw(const Target& target) {
  CompileOptions opts;
  opts.layout_mode = LayoutMode::kNCHW;
  opts.target = target;
  return opts;
}

inline CompileOptions AblationLayoutOpt(const Target& target) {
  return FrameworkLibOptions(target);
}

inline CompileOptions AblationTransformElim(const Target& target) {
  CompileOptions opts;
  opts.layout_mode = LayoutMode::kNCHWcFixed;
  opts.target = target;
  return opts;
}

inline CompileOptions AblationGlobalSearch(const Target& target) {
  return NeoCpuOptions(target);
}

}  // namespace neocpu

#endif  // NEOCPU_SRC_CORE_PRESETS_H_
