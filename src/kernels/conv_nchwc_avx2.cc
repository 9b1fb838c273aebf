// AVX2+FMA instantiation of the fp32 NCHWc convolution row driver. Compiled with
// -mavx2 -mfma (CMake sets the per-file flags and skips this TU on toolchains without
// them); selected at runtime only when the host CPU reports AVX2 and FMA.
#define NEOCPU_CONV_VARIANT_NS conv_f32_avx2
#define NEOCPU_CONV_ROWS_FN ConvF32RowsAvx2
#include "src/kernels/conv_nchwc_impl.h"
