// Tuned, packed u8·s8→s32 GEMM with the fused integer epilogue (zero-point-folded s32
// bias, integer ReLU, per-column multiplier, optional requantizing u8 store) — the
// quantized counterpart of gemm_packed.h for the tuned Dense path. Operands are
// quad-packed ([..][ceil(k/4)][..][4]) so both ISA tiers — portable s32 quads and
// AVX-512 VNNI vpdpbusd — accumulate identically (bitwise-equal outputs). The whole K reduction stays in registers, so there is no s32 staging
// buffer and the schedule's kc is ignored (clamped to k).
#ifndef NEOCPU_SRC_KERNELS_GEMM_PACKED_INT8_H_
#define NEOCPU_SRC_KERNELS_GEMM_PACKED_INT8_H_

#include <cstddef>
#include <cstdint>

#include "src/kernels/gemm_schedule.h"
#include "src/runtime/thread_engine.h"

namespace neocpu {

// Packed-operand sizes in bytes. Panels are zero-padded to full mr/nr and k to quads;
// pad bytes multiply pad bytes, so they contribute nothing to the s32 accumulators.
std::size_t PackedAU8Bytes(std::int64_t m, std::int64_t k, const GemmSchedule& s);
std::size_t PackedBS8Bytes(std::int64_t n, std::int64_t k, const GemmSchedule& s);

// Packs row-major u8 A[m][k] into quad panels [ceil(m/mr)][ceil(k/4)][mr][4].
void PackAU8(const std::uint8_t* a, std::int64_t m, std::int64_t k,
             const GemmSchedule& s, std::uint8_t* out, ThreadEngine* engine = nullptr);
// Packs the transposed s8 source W[n][k] (a dense layer's quantized {Out, In} weight)
// into quad panels [ceil(n/nr)][ceil(k/4)][nr][4].
void PackBS8FromTransposed(const std::int8_t* w, std::int64_t n, std::int64_t k,
                           const GemmSchedule& s, std::int8_t* out);

// Active ISA tier name ("baseline" or "avx512vnni") and the override hook (parity
// tests, bench ablations). Empty/null resets to auto.
const char* GemmPackedS8IsaName();
bool SetGemmPackedS8IsaOverride(const char* name);

// C[m][n] from u8 A[m][k] (raw rows, packed internally into `workspace`) and packed s8
// B. bias is the zero-point-folded s32 bias (null for none); mult the per-column
// multiplier (length n). requant=false stores f32; requant=true stores u8 offset by
// out_zero. `workspace` holds the packed A quads (PackedAU8Bytes);
// null allocates internally (bench/test convenience).
void GemmPackedU8S8(std::int64_t m, std::int64_t n, std::int64_t k,
                    const std::uint8_t* a, const std::int8_t* packed_b,
                    const std::int32_t* bias, const float* mult, bool relu,
                    bool requant, std::int32_t out_zero, void* c,
                    const GemmSchedule& s, std::uint8_t* workspace = nullptr,
                    ThreadEngine* engine = nullptr);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_GEMM_PACKED_INT8_H_
