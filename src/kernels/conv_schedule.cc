#include "src/kernels/conv_schedule.h"

#include "src/base/string_util.h"

namespace neocpu {

const char* ConvAlgoName(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kDirectNCHWc:
      return "direct";
    case ConvAlgo::kIm2col:
      return "im2col";
    case ConvAlgo::kReference:
      return "reference";
    default:
      break;
  }
  return "?";
}

ConvSchedule AlgoSchedule(ConvAlgo algo) {
  ConvSchedule s;
  s.ic_bn = 0;
  s.oc_bn = 0;
  s.reg_n = 0;
  s.unroll_ker = false;
  s.algo = algo;
  return s;
}

std::string ConvSchedule::ToString() const {
  if (!IsDirect()) {
    return StrFormat("(%s)", ConvAlgoName(algo));
  }
  return StrFormat("(ic_bn=%lld oc_bn=%lld reg_n=%lld unroll=%s%s%s)",
                   static_cast<long long>(ic_bn), static_cast<long long>(oc_bn),
                   static_cast<long long>(reg_n), unroll_ker ? "T" : "F",
                   IsQuantized() ? " " : "", IsQuantized() ? DTypeName(dtype) : "");
}

}  // namespace neocpu
