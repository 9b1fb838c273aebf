// AVX-512 instantiation of the fp32 NCHWc convolution row driver. Compiled with
// -mavx512f -mavx512bw -mavx512vl -mavx512dq -mfma (CMake sets the per-file flags and
// skips this TU on toolchains without them); selected at runtime only when the host CPU
// reports AVX-512 F/BW/VL/DQ.
#define NEOCPU_CONV_VARIANT_NS conv_f32_avx512
#define NEOCPU_CONV_ROWS_FN ConvF32RowsAvx512
#include "src/kernels/conv_nchwc_impl.h"
