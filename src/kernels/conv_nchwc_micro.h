// What the f32 and u8·s8 NCHW[x]c templates share: the input columns of one reg_n
// register block (Figure 1) and the table of micro-kernel instantiations. The two
// templates differ only in the MAC step and the epilogue.
//
// Included by conv_nchwc_impl.h and conv_nchwc_int8_impl.h, whose translation units
// define NEOCPU_CONV_VARIANT_NS, so each ISA tier instantiates its own copy in its own
// namespace and wide code never leaks into a vague-linkage symbol another tier's TU
// also emits. Raw-pointer code only, for the same reason.
#ifndef NEOCPU_SRC_KERNELS_CONV_NCHWC_MICRO_H_
#define NEOCPU_SRC_KERNELS_CONV_NCHWC_MICRO_H_

#include <cstdint>

namespace neocpu {
namespace detail {
namespace NEOCPU_CONV_VARIANT_NS {

// Input columns of the REGN positions of a block at one kernel tap, starting at input
// column `iw_first` of `row`. A block runs one of two instantiations of the same
// micro-kernel: the interior one (GUARD = false) when every column lies inside
// [0, iw), which is one strided pointer, and the guarded one for image edges and the
// row's last block, which resolves each column once per tap and points a column
// outside [0, iw), or every column of a padded row (`row` null), at `pad`: the column a
// padded position reads. Both keep the MAC loops branch-free and read the same values
// for every in-bounds column, so a position's result does not depend on its block.
template <typename T, int REGN, bool GUARD>
class Columns {
 public:
  Columns(const T* row, std::int64_t iw_first, std::int64_t iw, std::int64_t icb,
          std::int64_t sw, const T* pad) {
    if constexpr (GUARD) {
      for (int r = 0; r < REGN; ++r) {
        const std::int64_t c = iw_first + r * sw;
        col_[r] = row != nullptr && c >= 0 && c < iw ? row + c * icb : pad;
      }
    } else {
      base_ = row != nullptr ? row + iw_first * icb : pad;
      step_ = row != nullptr ? sw * icb : 0;
    }
  }

  const T* operator[](int r) const {
    if constexpr (GUARD) {
      return col_[r];
    } else {
      return base_ + r * step_;
    }
  }

 private:
  const T* col_[GUARD ? REGN : 1];
  const T* base_ = nullptr;
  std::int64_t step_ = 0;
};

// Micro<OCB, REGN, UNROLL, GUARD>::Run is one template's micro-kernel; a row driver
// runs `interior` on blocks inside [ow_lo, ow_hi) and `guarded` on every other block.
template <template <int, int, bool, bool> class Micro>
struct MicroPair {
  using Fn = decltype(&Micro<4, 2, true, false>::Run);
  Fn interior = nullptr;
  Fn guarded = nullptr;
};

template <template <int, int, bool, bool> class Micro, int OCB, bool UNROLL>
MicroPair<Micro> SelectByRegN(std::int64_t reg_n) {
  switch (reg_n) {
    case 2:
      return {&Micro<OCB, 2, UNROLL, false>::Run, &Micro<OCB, 2, UNROLL, true>::Run};
    case 4:
      return {&Micro<OCB, 4, UNROLL, false>::Run, &Micro<OCB, 4, UNROLL, true>::Run};
    case 8:
      return {&Micro<OCB, 8, UNROLL, false>::Run, &Micro<OCB, 8, UNROLL, true>::Run};
    case 16:
      return {&Micro<OCB, 16, UNROLL, false>::Run, &Micro<OCB, 16, UNROLL, true>::Run};
    case 32:
      return {&Micro<OCB, 32, UNROLL, false>::Run, &Micro<OCB, 32, UNROLL, true>::Run};
    default:
      return {};
  }
}

template <template <int, int, bool, bool> class Micro, int OCB>
MicroPair<Micro> SelectByUnroll(std::int64_t reg_n, bool unroll) {
  return unroll ? SelectByRegN<Micro, OCB, true>(reg_n)
                : SelectByRegN<Micro, OCB, false>(reg_n);
}

// The instantiations for one block shape: exactly the shapes IsTemplated admits.
template <template <int, int, bool, bool> class Micro>
MicroPair<Micro> SelectMicro(std::int64_t ocb, std::int64_t reg_n, bool unroll) {
  switch (ocb) {
    case 4:
      return SelectByUnroll<Micro, 4>(reg_n, unroll);
    case 8:
      return SelectByUnroll<Micro, 8>(reg_n, unroll);
    case 16:
      return SelectByUnroll<Micro, 16>(reg_n, unroll);
    case 32:
      return SelectByUnroll<Micro, 32>(reg_n, unroll);
    case 64:
      return SelectByUnroll<Micro, 64>(reg_n, unroll);
    default:
      return {};
  }
}

}  // namespace NEOCPU_CONV_VARIANT_NS
}  // namespace detail
}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_NCHWC_MICRO_H_
