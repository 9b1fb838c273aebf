// Property-based testing: randomly generated CNN graphs, compiled under every layout
// mode and architecture profile, must be numerically equivalent to the reference
// executor. This sweeps combinations of structure (branches, residuals, concats,
// pooling, pre/post-activation BN) that the hand-written tests cannot enumerate.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/base/string_util.h"
#include "src/core/compiler.h"
#include "src/core/presets.h"
#include "src/graph/builder.h"
#include "src/kernels/quantize.h"
#include "src/serve/frontend/wire_protocol.h"

namespace neocpu {
namespace {

// Generates a random CNN: a chain of feature-map stages with occasional residual
// diamonds and two-branch concats, closed by a classifier head. All channel counts are
// multiples of 4 so every ISA profile has valid blocks (the paper's divisibility rule).
Graph RandomCnn(std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(StrFormat("fuzz_%llu", static_cast<unsigned long long>(seed)), seed);
  std::int64_t channels = 4 * (1 + static_cast<std::int64_t>(rng.NextBounded(4)));  // 4..16
  int x = b.Input({1, channels, 24, 24});
  const int depth = 3 + static_cast<int>(rng.NextBounded(4));  // 3..6 structure steps

  for (int step = 0; step < depth; ++step) {
    const std::uint64_t kind = rng.NextBounded(6);
    const auto& dims = b.graph().node(x).out_dims;
    const std::int64_t h = dims[2];
    switch (kind) {
      case 0: {  // plain conv (+optional BN/ReLU)
        const std::int64_t out_c = 4 * (1 + static_cast<std::int64_t>(rng.NextBounded(8)));
        const std::int64_t k = rng.NextBounded(2) == 0 ? 1 : 3;
        x = b.Conv(x, out_c, k, 1, k / 2, rng.NextBounded(2) == 0);
        if (rng.NextBounded(2) == 0) {
          x = b.BatchNorm(x);
        }
        if (rng.NextBounded(2) == 0) {
          x = b.Relu(x);
        }
        break;
      }
      case 1: {  // residual diamond
        const std::int64_t c = dims[1];
        int main = b.Conv(x, c, 3, 1, 1);
        main = b.BatchNorm(main);
        if (rng.NextBounded(2) == 0) {
          main = b.Relu(main);
          main = b.Conv(main, c, 1, 1, 0);
        }
        x = b.Add(main, x);
        x = b.Relu(x);
        break;
      }
      case 2: {  // two-branch concat
        const std::int64_t c1 = 4 * (1 + static_cast<std::int64_t>(rng.NextBounded(4)));
        const std::int64_t c2 = 4 * (1 + static_cast<std::int64_t>(rng.NextBounded(4)));
        int a = b.Conv(x, c1, 1, 1, 0);
        int c = b.Conv(x, c2, 3, 1, 1);
        x = b.Concat({a, c});
        break;
      }
      case 3: {  // pooling (only while the map is big enough)
        if (h >= 8) {
          x = rng.NextBounded(2) == 0 ? b.MaxPool(x, 2, 2, 0) : b.AvgPool(x, 3, 2, 1);
        } else {
          x = b.Relu(x);
        }
        break;
      }
      case 4: {  // pre-activation stack (DenseNet style)
        x = b.BatchNorm(x);
        x = b.Relu(x);
        x = b.Conv(x, 4 * (1 + static_cast<std::int64_t>(rng.NextBounded(6))), 3, 1, 1);
        break;
      }
      default: {  // strided conv (downsample)
        if (h >= 8) {
          x = b.Conv(x, 4 * (1 + static_cast<std::int64_t>(rng.NextBounded(8))), 3, 2, 1);
        } else {
          x = b.Conv(x, dims[1], 1, 1, 0);
        }
        break;
      }
    }
  }
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  x = b.Dense(x, 10);
  x = b.Softmax(x);
  return b.Finish({x});
}

class FuzzEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, LayoutMode>> {};

TEST_P(FuzzEquivalence, CompiledMatchesReference) {
  const auto [seed, mode] = GetParam();
  Graph model = RandomCnn(seed);
  Rng rng(seed ^ 0xabcdef);
  Tensor input = Tensor::Random(model.node(0).out_dims, rng, -1.0f, 1.0f, Layout::NCHW());
  Tensor expected = Executor(&model).Run(input);

  CompileOptions opts;
  opts.layout_mode = mode;
  opts.target = Target::Host();
  CompiledModel compiled = Compile(model, opts);
  Tensor got = compiled.Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(got, expected, 5e-3, 5e-3), 0.0)
      << "seed=" << seed << " mode=" << LayoutModeName(mode) << "\n"
      << model.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzEquivalence,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 5, 8, 13, 21, 34, 55, 89),
                       ::testing::Values(LayoutMode::kNCHW, LayoutMode::kNCHWcPerOp,
                                         LayoutMode::kNCHWcFixed,
                                         LayoutMode::kNCHWcGlobal)));

class FuzzProfileEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzProfileEquivalence, NeonProfileMatchesReference) {
  // The most restrictive profile (4-lane blocks) on random structures.
  Graph model = RandomCnn(GetParam());
  Rng rng(GetParam() * 31);
  Tensor input = Tensor::Random(model.node(0).out_dims, rng, -1.0f, 1.0f, Layout::NCHW());
  Tensor expected = Executor(&model).Run(input);
  CompiledModel compiled = Compile(model, NeoCpuOptions(Target::ArmA72Neon()));
  Tensor got = compiled.Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(got, expected, 5e-3, 5e-3), 0.0)
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProfileEquivalence,
                         ::testing::Values<std::uint64_t>(7, 11, 17, 23, 29, 41));

// Quantize/dequantize round-trip properties on random tensors: the reconstruction
// error of one Q->DQ pass is bounded by half a quantization step (plus range clamping,
// which the scale choice rules out here), and a second pass is exact — DQ(Q(x)) is a
// fixed point, the property the graph-level DQ->Q cancellation relies on.
class FuzzQdqRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzQdqRoundTrip, ReconstructionWithinHalfStepAndIdempotent) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 977);
  const std::int64_t n = 64 + static_cast<std::int64_t>(rng.NextBounded(2000));
  const float amax = 0.05f + 8.0f * rng.NextFloat(0.0f, 1.0f);
  Tensor x = Tensor::Random({n}, rng, -amax, amax);
  // 127 steps either side of the zero point: [-amax, amax] maps into [1, 255].
  const float scale = amax / 127.0f;
  const std::int32_t zero_point = 128;

  Tensor q = Tensor::Empty({n}, Layout::Flat(), DType::kU8);
  Quantize(x, scale, zero_point, &q);
  Tensor back = Tensor::Empty({n});
  Dequantize(q, scale, zero_point, &back);
  // |x - DQ(Q(x))| <= scale/2 everywhere (no clamping: scale covers [-amax, amax]).
  EXPECT_LE(Tensor::MaxAbsDiff(x, back), scale * 0.5 + 1e-7) << "seed=" << seed;
  // Idempotence: re-quantizing the dequantized tensor reproduces q bit for bit.
  Tensor q2 = Tensor::Empty({n}, Layout::Flat(), DType::kU8);
  Quantize(back, scale, zero_point, &q2);
  EXPECT_EQ(std::memcmp(q.data(), q2.data(), static_cast<std::size_t>(n)), 0)
      << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzQdqRoundTrip,
                         ::testing::Values<std::uint64_t>(3, 9, 27, 81, 243, 729));

// Quantized compilation on random structures: forced-int8 compiles of random CNNs stay
// within a loose-but-meaningful tolerance of the fp32 reference (int8 error compounds
// through depth; the bound here is the per-layer-calibrated regime's, not fp32's).
class FuzzQuantized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzQuantized, ForcedInt8TracksReference) {
  Graph model = RandomCnn(GetParam());
  Rng rng(GetParam() * 131);
  Tensor input = Tensor::Random(model.node(0).out_dims, rng, -1.0f, 1.0f, Layout::NCHW());
  Tensor expected = Executor(&model).Run(input);

  CompileOptions opts = NeoCpuOptions(Target::SkylakeAvx512());
  opts.quantize = true;
  opts.force_quantize = true;
  opts.calibration_inputs = {input};
  CompiledModel compiled = Compile(model, opts);
  Tensor got = compiled.Run(input);
  // The classifier head ends in a softmax, so outputs are probabilities: an absolute
  // tolerance is the meaningful comparison.
  EXPECT_LE(Tensor::MaxAbsDiff(got, expected), 0.05)
      << "seed=" << GetParam() << " quantized " << compiled.stats().num_quantized_convs
      << "/" << compiled.stats().num_convs << "\n"
      << model.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzQuantized,
                         ::testing::Values<std::uint64_t>(1, 2, 5, 13, 34, 89));

// ---------------------------------------------------------------------------
// Wire-frame fuzzing: the front end's decoders on hostile bytes.
//
// The decoders (src/serve/frontend/wire_protocol) are the first thing untrusted
// network bytes hit, so the property here is absolute: ANY byte string produces
// either a successful parse with internally consistent output or a typed error —
// never UB, never a crash. The suite runs under the ASan CI job, so out-of-bounds
// reads and overflows in the length arithmetic fail loudly.
// ---------------------------------------------------------------------------

// Internal-consistency check on a successfully decoded request.
void CheckDecodedRequest(const WireRequest& decoded, std::uint64_t seed) {
  EXPECT_GE(decoded.model.size(), 1u) << "seed=" << seed;
  EXPECT_LE(decoded.model.size(), kWireMaxModelLen) << "seed=" << seed;
  EXPECT_GE(decoded.input.ndim(), 1) << "seed=" << seed;
  EXPECT_LE(static_cast<std::size_t>(decoded.input.ndim()), kWireMaxDims)
      << "seed=" << seed;
  EXPECT_LE(decoded.input.SizeBytes(), kWireMaxFrameBytes * 4u) << "seed=" << seed;
}

class FuzzWireDecoder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzWireDecoder, RandomBytesDecodeOrTypedError) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t size = static_cast<std::size_t>(rng.NextBounded(512));
    std::vector<std::uint8_t> bytes(size);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.NextBounded(256));
    }
    WireRequest request;
    const WireError req_err = DecodeRequestBody(bytes.data(), bytes.size(), &request);
    if (req_err.ok()) {
      CheckDecodedRequest(request, GetParam());
    }
    WireResponse response;
    const WireError resp_err = DecodeResponseBody(bytes.data(), bytes.size(), &response);
    if (resp_err.ok() && response.ok()) {
      EXPECT_GE(response.result.ndim(), 1);
    }
  }
}

TEST_P(FuzzWireDecoder, MutatedValidFramesDecodeOrTypedError) {
  Rng rng(GetParam() * 977);
  // Start from a valid frame so mutations explore the near-valid space where parsers
  // break: flipped length fields, corrupted dims, truncated payloads.
  WireRequest seed_request;
  seed_request.model = "fuzz-model";
  seed_request.lane = RequestLane::kThroughput;
  seed_request.input =
      Tensor::Random({1, 3, 6, 6}, rng, -1.0f, 1.0f, Layout::NCHW());
  const std::vector<std::uint8_t> valid = EncodeRequestFrame(seed_request);
  for (int iter = 0; iter < 400; ++iter) {
    // Drop the length prefix: the server reads it separately; decoders see the body.
    std::vector<std::uint8_t> body(valid.begin() + 4, valid.end());
    const std::uint64_t mutations = 1 + rng.NextBounded(8);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      switch (rng.NextBounded(4)) {
        case 0:  // flip a byte
          body[static_cast<std::size_t>(rng.NextBounded(body.size()))] ^=
              static_cast<std::uint8_t>(1 + rng.NextBounded(255));
          break;
        case 1:  // truncate
          body.resize(static_cast<std::size_t>(rng.NextBounded(body.size() + 1)));
          break;
        case 2:  // extend with junk
          body.push_back(static_cast<std::uint8_t>(rng.NextBounded(256)));
          break;
        default:  // overwrite a random u16-aligned header field with an extreme value
          if (body.size() >= 12) {
            const std::size_t off = 8 + 2 * static_cast<std::size_t>(rng.NextBounded(2));
            body[off] = 0xFF;
            body[off + 1] = 0xFF;
          }
          break;
      }
      if (body.empty()) {
        break;
      }
    }
    WireRequest request;
    const WireError err = DecodeRequestBody(body.data(), body.size(), &request);
    if (err.ok()) {
      CheckDecodedRequest(request, GetParam());
    }
  }
}

TEST_P(FuzzWireDecoder, EncodeDecodeRoundTripIsExact) {
  Rng rng(GetParam() * 31337);
  for (int iter = 0; iter < 32; ++iter) {
    WireRequest request;
    request.model = StrFormat("m%llu", static_cast<unsigned long long>(rng.NextU64()));
    request.lane =
        rng.NextBounded(2) == 0 ? RequestLane::kLatency : RequestLane::kThroughput;
    std::vector<std::int64_t> dims;
    const std::uint64_t ndim = 1 + rng.NextBounded(4);
    for (std::uint64_t d = 0; d < ndim; ++d) {
      dims.push_back(1 + static_cast<std::int64_t>(rng.NextBounded(6)));
    }
    request.input = Tensor::Random(dims, rng, -1.0f, 1.0f, Layout::Flat());
    const std::vector<std::uint8_t> frame = EncodeRequestFrame(request);
    WireRequest decoded;
    const WireError err =
        DecodeRequestBody(frame.data() + 4, frame.size() - 4, &decoded);
    ASSERT_TRUE(err.ok()) << err.message;
    EXPECT_EQ(decoded.model, request.model);
    EXPECT_EQ(decoded.lane, request.lane);
    EXPECT_EQ(decoded.input.dims(), request.input.dims());
    EXPECT_EQ(Tensor::MaxAbsDiff(decoded.input, request.input), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzWireDecoder,
                         ::testing::Values<std::uint64_t>(7, 42, 1009, 65537));

}  // namespace
}  // namespace neocpu
