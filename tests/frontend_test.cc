// Wire-protocol conformance tests for the socket front end (src/serve/frontend/).
//
// Two layers: pure codec tests that drive the frame encoders/decoders on crafted byte
// strings (no sockets), and loopback tests that run a real FrontendServer over
// 127.0.0.1 — happy-path round trips, every typed error the server can emit, the
// HTTP surface, many concurrent clients, and clean shutdown with requests in flight.
// The invariant throughout: hostile or ill-timed input produces a typed error or a
// closed connection, never a hang and never a crash.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/models/model_zoo.h"
#include "src/neocpu.h"
#include "src/serve/frontend/frontend_server.h"
#include "src/serve/frontend/wire_client.h"
#include "src/serve/frontend/wire_protocol.h"

namespace neocpu {
namespace {

Tensor SampleInput(std::uint64_t seed, std::vector<std::int64_t> dims = {1, 3, 32, 32}) {
  Rng rng(seed);
  return Tensor::Random(std::move(dims), rng, 0.0f, 1.0f, Layout::NCHW());
}

std::vector<std::uint8_t> Body(const std::vector<std::uint8_t>& frame) {
  return std::vector<std::uint8_t>(frame.begin() + 4, frame.end());
}

// ---------------------------------------------------------------------------
// Codec layer (no sockets).
// ---------------------------------------------------------------------------

TEST(WireProtocol, RequestFrameRoundTrips) {
  WireRequest request;
  request.model = "tiny";
  request.lane = RequestLane::kThroughput;
  request.input = SampleInput(7, {1, 3, 8, 8});
  const std::vector<std::uint8_t> frame = EncodeRequestFrame(request);
  // Length prefix covers exactly the body.
  std::uint32_t body_len = 0;
  std::memcpy(&body_len, frame.data(), 4);
  ASSERT_EQ(static_cast<std::size_t>(body_len), frame.size() - 4);

  const std::vector<std::uint8_t> body = Body(frame);
  WireRequest decoded;
  const WireError err = DecodeRequestBody(body.data(), body.size(), &decoded);
  ASSERT_TRUE(err.ok()) << err.message;
  EXPECT_EQ(decoded.model, "tiny");
  EXPECT_EQ(decoded.lane, RequestLane::kThroughput);
  EXPECT_EQ(decoded.input.dims(), request.input.dims());
  EXPECT_EQ(Tensor::MaxAbsDiff(decoded.input, request.input), 0.0);
}

TEST(WireProtocol, ResultFrameRoundTrips) {
  Tensor result = SampleInput(9, {1, 10});
  const std::vector<std::uint8_t> body = Body(EncodeResultFrame(result));
  WireResponse decoded;
  const WireError err = DecodeResponseBody(body.data(), body.size(), &decoded);
  ASSERT_TRUE(err.ok()) << err.message;
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.result.dims(), result.dims());
  EXPECT_EQ(Tensor::MaxAbsDiff(decoded.result, result), 0.0);
}

TEST(WireProtocol, ErrorFrameRoundTrips) {
  WireError error;
  error.code = WireErrorCode::kOverloaded;
  error.retry_after_ms = 25;
  error.message = "shed: admission queue full";
  const std::vector<std::uint8_t> body = Body(EncodeErrorFrame(error));
  WireResponse decoded;
  const WireError err = DecodeResponseBody(body.data(), body.size(), &decoded);
  ASSERT_TRUE(err.ok()) << err.message;
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error.code, WireErrorCode::kOverloaded);
  EXPECT_EQ(decoded.error.retry_after_ms, 25u);
  EXPECT_EQ(decoded.error.message, "shed: admission queue full");
}

TEST(WireProtocol, DecodeRejectsBadMagic) {
  WireRequest request{"m", RequestLane::kLatency, SampleInput(1, {1, 4})};
  std::vector<std::uint8_t> body = Body(EncodeRequestFrame(request));
  body[0] ^= 0xFF;
  WireRequest decoded;
  EXPECT_EQ(DecodeRequestBody(body.data(), body.size(), &decoded).code,
            WireErrorCode::kBadMagic);
}

TEST(WireProtocol, DecodeRejectsBadVersion) {
  WireRequest request{"m", RequestLane::kLatency, SampleInput(1, {1, 4})};
  std::vector<std::uint8_t> body = Body(EncodeRequestFrame(request));
  body[4] = 99;
  WireRequest decoded;
  EXPECT_EQ(DecodeRequestBody(body.data(), body.size(), &decoded).code,
            WireErrorCode::kBadVersion);
}

TEST(WireProtocol, DecodeRejectsTruncationAtEveryLength) {
  WireRequest request{"tiny", RequestLane::kLatency, SampleInput(2, {1, 3, 4, 4})};
  const std::vector<std::uint8_t> body = Body(EncodeRequestFrame(request));
  // Every proper prefix must come back as a typed error — never OOB, never success.
  for (std::size_t len = 0; len < body.size(); ++len) {
    WireRequest decoded;
    const WireError err = DecodeRequestBody(body.data(), len, &decoded);
    EXPECT_FALSE(err.ok()) << "prefix of " << len << " bytes decoded successfully";
  }
}

TEST(WireProtocol, DecodeRejectsPayloadDimsMismatch) {
  WireRequest request{"tiny", RequestLane::kLatency, SampleInput(3, {1, 8})};
  std::vector<std::uint8_t> body = Body(EncodeRequestFrame(request));
  body.push_back(0);  // one trailing byte the dims don't account for
  WireRequest decoded;
  EXPECT_EQ(DecodeRequestBody(body.data(), body.size(), &decoded).code,
            WireErrorCode::kMalformedFrame);
}

TEST(WireProtocol, DecodeRejectsHugeDimsWithoutOverflow) {
  // ndim=2 with dims that would overflow a naive i64 product. Bytes: preamble + lane +
  // dtype + model_len=1 + ndim=2 + two huge dims + 'm'.
  std::vector<std::uint8_t> body;
  auto u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) body.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) body.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  u32(kWireMagic);
  body.push_back(kWireVersion);
  body.push_back(static_cast<std::uint8_t>(WireType::kInferRequest));
  body.push_back(0);  // lane
  body.push_back(0);  // dtype f32
  body.push_back(1);  // model_len lo
  body.push_back(0);  // model_len hi
  body.push_back(2);  // ndim lo
  body.push_back(0);  // ndim hi
  u64(0xFFFFFFFFFFFFull);
  u64(0xFFFFFFFFFFFFull);
  body.push_back('m');
  WireRequest decoded;
  EXPECT_EQ(DecodeRequestBody(body.data(), body.size(), &decoded).code,
            WireErrorCode::kMalformedFrame);
}

TEST(WireProtocol, RecoverabilityClassification) {
  EXPECT_TRUE(WireErrorIsRecoverable(WireErrorCode::kUnknownModel));
  EXPECT_TRUE(WireErrorIsRecoverable(WireErrorCode::kShapeMismatch));
  EXPECT_TRUE(WireErrorIsRecoverable(WireErrorCode::kOverloaded));
  EXPECT_FALSE(WireErrorIsRecoverable(WireErrorCode::kBadMagic));
  EXPECT_FALSE(WireErrorIsRecoverable(WireErrorCode::kBadVersion));
  EXPECT_FALSE(WireErrorIsRecoverable(WireErrorCode::kMalformedFrame));
  EXPECT_FALSE(WireErrorIsRecoverable(WireErrorCode::kFrameTooLarge));
  EXPECT_FALSE(WireErrorIsRecoverable(WireErrorCode::kShuttingDown));
}

// ---------------------------------------------------------------------------
// Loopback server.
// ---------------------------------------------------------------------------

class FrontendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CompiledModel compiled = Compile(BuildTinyCnn());
    reference_ = std::make_unique<CompiledModel>(Compile(BuildTinyCnn()));
    ServerOptions options;
    options.num_executors = 1;
    options.bind_threads = false;
    options.background_retune = false;
    options.batching.max_batch_size = 4;
    options.batching.max_delay_ms = 1.0;
    server_ = std::make_unique<InferenceServer>(options);
    server_->RegisterModel("tiny", std::move(compiled));
    frontend_ = std::make_unique<FrontendServer>(server_.get());
    ASSERT_TRUE(frontend_->Start()) << frontend_->last_error();
    ASSERT_GT(frontend_->port(), 0);
  }

  WireClient Connected() {
    WireClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", frontend_->port()))
        << client.last_error();
    return client;
  }

  std::string HttpGet(const std::string& path) {
    WireClient client = Connected();
    const std::string request = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
    EXPECT_TRUE(client.SendRaw(reinterpret_cast<const std::uint8_t*>(request.data()),
                               request.size()));
    std::string response;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(client.fd(), buf, sizeof(buf), 0);
      if (n <= 0) {
        break;
      }
      response.append(buf, static_cast<std::size_t>(n));
    }
    return response;
  }

  std::unique_ptr<CompiledModel> reference_;
  std::unique_ptr<InferenceServer> server_;
  std::unique_ptr<FrontendServer> frontend_;
};

TEST_F(FrontendTest, LoopbackRoundTripMatchesDirectRun) {
  WireClient client = Connected();
  Tensor input = SampleInput(42);
  const Tensor expected = reference_->Run(input);
  WireResponse response = client.Call({"tiny", RequestLane::kLatency, std::move(input)});
  ASSERT_TRUE(response.ok()) << response.error.message;
  EXPECT_EQ(response.result.dims(), expected.dims());
  EXPECT_EQ(Tensor::MaxAbsDiff(response.result, expected), 0.0);
}

TEST_F(FrontendTest, ManyFramesOnOneConnection) {
  WireClient client = Connected();
  for (std::uint64_t i = 0; i < 4; ++i) {
    Tensor input = SampleInput(100 + i);
    const Tensor expected = reference_->Run(input);
    WireResponse response =
        client.Call({"tiny", RequestLane::kLatency, std::move(input)});
    ASSERT_TRUE(response.ok()) << response.error.message;
    EXPECT_EQ(Tensor::MaxAbsDiff(response.result, expected), 0.0);
  }
}

TEST_F(FrontendTest, BadMagicGetsTypedErrorAndCloses) {
  WireClient client = Connected();
  std::vector<std::uint8_t> frame =
      EncodeRequestFrame({"tiny", RequestLane::kLatency, SampleInput(1)});
  frame[4] ^= 0xFF;  // corrupt the magic inside the body
  ASSERT_TRUE(client.SendRaw(frame));
  WireResponse response = client.ReceiveResponse();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error.code, WireErrorCode::kBadMagic);
  // The stream is poisoned: the server must close; the next read sees EOF.
  WireResponse after = client.ReceiveResponse();
  EXPECT_EQ(after.error.code, WireErrorCode::kInternal);
}

TEST_F(FrontendTest, BadVersionGetsTypedError) {
  WireClient client = Connected();
  std::vector<std::uint8_t> frame =
      EncodeRequestFrame({"tiny", RequestLane::kLatency, SampleInput(1)});
  frame[8] = 99;  // version byte (after 4-byte prefix + 4-byte magic)
  ASSERT_TRUE(client.SendRaw(frame));
  WireResponse response = client.ReceiveResponse();
  EXPECT_EQ(response.error.code, WireErrorCode::kBadVersion);
}

TEST_F(FrontendTest, OversizedFrameRejectedWithoutReadingBody) {
  WireClient client = Connected();
  // Prefix claims a body far over the cap; no body follows. The server must answer
  // from the prefix alone.
  const std::uint64_t huge = kWireMaxFrameBytes + 1;
  std::uint8_t prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  ASSERT_TRUE(client.SendRaw(prefix, sizeof(prefix)));
  WireResponse response = client.ReceiveResponse();
  EXPECT_EQ(response.error.code, WireErrorCode::kFrameTooLarge);
}

TEST_F(FrontendTest, ZeroLengthFrameRejected) {
  WireClient client = Connected();
  const std::uint8_t prefix[4] = {0, 0, 0, 0};
  ASSERT_TRUE(client.SendRaw(prefix, sizeof(prefix)));
  WireResponse response = client.ReceiveResponse();
  EXPECT_EQ(response.error.code, WireErrorCode::kMalformedFrame);
}

TEST_F(FrontendTest, TruncatedFrameThenDisconnectIsHarmless) {
  {
    WireClient client = Connected();
    // Prefix promises 1000 bytes; send 10 and vanish.
    const std::uint8_t prefix[4] = {0xE8, 0x03, 0, 0};
    ASSERT_TRUE(client.SendRaw(prefix, sizeof(prefix)));
    const std::uint8_t junk[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    ASSERT_TRUE(client.SendRaw(junk, sizeof(junk)));
  }
  // The server must survive and keep serving fresh connections.
  WireClient client = Connected();
  WireResponse response = client.Call({"tiny", RequestLane::kLatency, SampleInput(5)});
  EXPECT_TRUE(response.ok()) << response.error.message;
}

TEST_F(FrontendTest, UnknownModelIsRecoverable) {
  WireClient client = Connected();
  WireResponse bad = client.Call({"no-such-model", RequestLane::kLatency, SampleInput(1)});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error.code, WireErrorCode::kUnknownModel);
  // Same connection keeps working — the error was semantic, not framing.
  WireResponse good = client.Call({"tiny", RequestLane::kLatency, SampleInput(2)});
  EXPECT_TRUE(good.ok()) << good.error.message;
}

TEST_F(FrontendTest, ShapeMismatchIsRecoverable) {
  WireClient client = Connected();
  WireResponse bad =
      client.Call({"tiny", RequestLane::kLatency, SampleInput(1, {1, 3, 16, 16})});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error.code, WireErrorCode::kShapeMismatch);
  WireResponse good = client.Call({"tiny", RequestLane::kLatency, SampleInput(2)});
  EXPECT_TRUE(good.ok()) << good.error.message;
}

TEST_F(FrontendTest, HttpSurface) {
  EXPECT_NE(HttpGet("/healthz").find("200 OK"), std::string::npos);
  const std::string metrics = HttpGet("/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("neocpu_serve_queue_depth"), std::string::npos);
  const std::string stats = HttpGet("/stats");
  EXPECT_NE(stats.find("200 OK"), std::string::npos);
  EXPECT_NE(stats.find("\"requests_shed\""), std::string::npos);
  EXPECT_NE(HttpGet("/nope").find("404"), std::string::npos);
}

TEST_F(FrontendTest, ConcurrentClients) {
  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 3;
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  for (int i = 0; i < kClients * kCallsPerClient; ++i) {
    inputs.push_back(SampleInput(static_cast<std::uint64_t>(500 + i)));
    expected.push_back(reference_->Run(inputs.back()));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      WireClient client;
      if (!client.Connect("127.0.0.1", frontend_->port())) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kCallsPerClient; ++r) {
        const int i = c * kCallsPerClient + r;
        WireResponse response = client.Call(
            {"tiny", RequestLane::kLatency,
             inputs[static_cast<std::size_t>(i)].Clone()});
        if (!response.ok() ||
            Tensor::MaxAbsDiff(response.result,
                               expected[static_cast<std::size_t>(i)]) != 0.0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const FrontendStats stats = frontend_->Stats();
  EXPECT_GE(stats.connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_GE(stats.frames_ok, static_cast<std::uint64_t>(kClients * kCallsPerClient));
}

TEST_F(FrontendTest, CleanShutdownWithClientsInFlight) {
  // Clients hammer the server while Stop() lands. Every call must resolve — a valid
  // result, a typed error, or a closed connection — and nothing may hang or crash.
  std::atomic<bool> go{true};
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      WireClient client;
      if (!client.Connect("127.0.0.1", frontend_->port())) {
        return;
      }
      std::uint64_t seed = static_cast<std::uint64_t>(c) * 1000;
      while (go.load(std::memory_order_relaxed)) {
        WireResponse response =
            client.Call({"tiny", RequestLane::kLatency, SampleInput(seed++)});
        completed.fetch_add(1, std::memory_order_relaxed);
        if (!response.ok() && !WireErrorIsRecoverable(response.error.code)) {
          return;  // shutdown reached this connection
        }
      }
    });
  }
  // Let traffic build, then stop the front end under the clients' feet.
  while (completed.load(std::memory_order_relaxed) < 3) {
    std::this_thread::yield();
  }
  frontend_->Stop();
  go.store(false, std::memory_order_relaxed);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(frontend_->running());
  // The inference server behind the front end is still healthy.
  SubmitTicket ticket = server_->TrySubmit("tiny", SampleInput(9999));
  ASSERT_TRUE(ticket.ok()) << SubmitStatusName(ticket.status);
  EXPECT_TRUE(ticket.result.get().defined());
}

TEST_F(FrontendTest, StopIsIdempotentAndRestartable) {
  frontend_->Stop();
  frontend_->Stop();
  EXPECT_TRUE(frontend_->Start()) << frontend_->last_error();
  WireClient client = Connected();
  WireResponse response = client.Call({"tiny", RequestLane::kLatency, SampleInput(1)});
  EXPECT_TRUE(response.ok()) << response.error.message;
}

}  // namespace
}  // namespace neocpu
