#include "src/tuning/workload_key.h"

#include "src/base/string_util.h"

namespace neocpu {

std::string WorkloadKey::ToString() const {
  const std::string shape = is_dense ? dense.CacheKey() : conv.CacheKey();
  std::string text = StrFormat("%s|%s|%s|%s", target.c_str(), shape.c_str(),
                               CostModeName(cost_mode), quick_space ? "quick" : "full");
  if (dtype != DType::kF32) {
    // fp32 keys keep the historical 4-token form (pre-dtype caches keep hitting); only
    // quantized keys carry the fifth token.
    text += StrFormat("|%s", DTypeName(dtype));
  }
  return text;
}

bool WorkloadKey::Parse(const std::string& text, WorkloadKey* key) {
  // target|conv-cache-key|mode|space[|dtype] — target names never contain '|'.
  const std::size_t a = text.find('|');
  const std::size_t b = a == std::string::npos ? a : text.find('|', a + 1);
  const std::size_t c = b == std::string::npos ? b : text.find('|', b + 1);
  if (c == std::string::npos) {
    return false;
  }
  const std::size_t d = text.find('|', c + 1);
  if (d != std::string::npos && text.find('|', d + 1) != std::string::npos) {
    return false;
  }
  WorkloadKey parsed;
  parsed.target = text.substr(0, a);
  const std::string conv_text = text.substr(a + 1, b - a - 1);
  const std::string mode_text = text.substr(b + 1, c - b - 1);
  const std::string space_text =
      d == std::string::npos ? text.substr(c + 1) : text.substr(c + 1, d - c - 1);
  if (d != std::string::npos) {
    if (text.substr(d + 1) != "u8") {
      return false;  // f32 keys never spell the dtype token; u8 is the only int8 one
    }
    parsed.dtype = DType::kU8;
  }

  if (conv_text.rfind("dense:", 0) == 0) {
    if (!DenseParams::ParseCacheKey(conv_text, &parsed.dense)) {
      return false;
    }
    parsed.is_dense = true;
  } else if (!Conv2dParams::ParseCacheKey(conv_text, &parsed.conv)) {
    return false;
  }

  if (mode_text == "analytic") {
    parsed.cost_mode = CostMode::kAnalytic;
  } else if (mode_text == "measured") {
    parsed.cost_mode = CostMode::kMeasured;
  } else {
    return false;
  }
  if (space_text == "quick") {
    parsed.quick_space = true;
  } else if (space_text == "full") {
    parsed.quick_space = false;
  } else {
    return false;
  }
  if (parsed.target.empty()) {
    return false;
  }
  *key = std::move(parsed);
  return true;
}

}  // namespace neocpu
