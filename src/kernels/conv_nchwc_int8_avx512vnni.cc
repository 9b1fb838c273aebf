// AVX-512 VNNI instantiation of the int8 NCHWc row driver. Compiled with
// -mavx512{f,bw,vl,dq,vnni} (see CMakeLists per-file flags); the u8 interior
// micro-kernel lowers each 4-channel group to one vpdpbusd. Only the dispatcher
// calls into this TU, and only after cpuid confirms avx512vnni.
#define NEOCPU_CONV_VARIANT_NS s8_avx512vnni
#define NEOCPU_S8_ROW_FN ConvS8RowAvx512Vnni
#include "src/kernels/conv_nchwc_int8_impl.h"
