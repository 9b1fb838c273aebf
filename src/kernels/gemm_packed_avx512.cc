// AVX-512 instantiation of the packed fp32 GEMM tile driver. This TU is compiled with
// -mavx512{f,bw,vl,dq} -mfma (see CMakeLists.txt) and only ever entered after the
// dispatcher's cpuid check.
#define NEOCPU_GEMM_VARIANT_NS gemm_f32_avx512
#define NEOCPU_GEMM_TILE_FN GemmF32TileAvx512
#include "src/kernels/gemm_packed_impl.h"
