// Tests for the transport boundary: wire-format encode/decode hardening,
// framed dispatch against real providers, remote stubs, the TCP loopback
// deployment (bit-exact with the scaled plain reference), and the privacy
// separation (plaintext never reaches the model provider's side of the
// wire; weights never reach the data provider).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/protocol.h"
#include "net/server.h"
#include "net/session.h"
#include "net/transport.h"
#include "net/wire.h"
#include "nn/layers.h"
#include "stream/engine.h"
#include "stream/message.h"
#include "util/rng.h"

namespace ppstream {
namespace {

// ----------------------------------------------------------------- wire

WireFrame SampleRequest() {
  return MakeRequestFrame(WireMethod::kMpProcessRound, /*request_id=*/42,
                          /*round=*/3, {1, 2, 3, 4, 5});
}

TEST(WireTest, RequestFrameRoundTrip) {
  const WireFrame frame = SampleRequest();
  const auto bytes = EncodeFrame(frame);
  EXPECT_EQ(bytes.size(), frame.WireSize());
  auto back = DecodeFrame(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->version, kWireVersion);
  EXPECT_EQ(back->method, WireMethod::kMpProcessRound);
  EXPECT_FALSE(back->is_response);
  EXPECT_EQ(back->status, StatusCode::kOk);
  EXPECT_EQ(back->request_id, 42u);
  EXPECT_EQ(back->round, 3u);
  EXPECT_EQ(back->payload, frame.payload);
}

TEST(WireTest, ErrorFrameCarriesStatus) {
  const WireFrame request = SampleRequest();
  const WireFrame error =
      MakeErrorFrame(request, Status::DeadlineExceeded("too slow"));
  auto back = DecodeFrame(EncodeFrame(error));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->is_response);
  const Status status = FrameStatus(*back);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(status.message(), "too slow");
}

TEST(WireTest, RejectsForeignAndMalformedHeaders) {
  const auto bytes = EncodeFrame(SampleRequest());

  auto corrupted = [&](size_t offset, uint8_t value) {
    std::vector<uint8_t> copy = bytes;
    copy[offset] = value;
    return DecodeFrame(copy);
  };

  // magic (offset 0), version (offset 4), method (offset 6), flags
  // (offset 8), status (offset 9) — each validated by name.
  EXPECT_EQ(corrupted(0, 'X').status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(corrupted(4, 0xEE).status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(corrupted(6, 0xEE).status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(corrupted(8, 0xF0).status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(corrupted(9, 0xEE).status().code(), StatusCode::kProtocolError);

  // A request frame must not carry an error status.
  EXPECT_EQ(corrupted(9, 1).status().code(), StatusCode::kProtocolError);

  // Trailing garbage after the announced payload.
  std::vector<uint8_t> extended = bytes;
  extended.push_back(0);
  EXPECT_FALSE(DecodeFrame(extended).ok());
}

TEST(WireTest, TruncationAtEveryLengthFails) {
  const auto bytes = EncodeFrame(SampleRequest());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(DecodeFrame(prefix).ok()) << "prefix " << len;
  }
}

TEST(WireTest, BitFlipsNeverCrash) {
  const auto bytes = EncodeFrame(SampleRequest());
  // Flip every bit of the encoded frame one at a time; decode must return
  // a Status each time (possibly OK for opaque payload bits) — never UB.
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> copy = bytes;
      copy[byte] ^= static_cast<uint8_t>(1u << bit);
      (void)DecodeFrame(copy);
    }
  }
}

// ------------------------------------------------- wire revision 3

WireFrame SampleSessionedRequest() {
  WireFrame frame = SampleRequest();
  frame.session_id = 0x1122334455667788ULL;
  frame.sequence = 9;
  frame.deadline_micros = 250'000;
  return frame;
}

TEST(WireTest, SessionedFrameRoundTripV3) {
  const WireFrame frame = SampleSessionedRequest();
  const auto bytes = EncodeFrame(frame);
  EXPECT_EQ(bytes.size(),
            FrameHeaderBytesFor(kWireVersionSession) + frame.payload.size());
  auto back = DecodeFrame(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->version, kWireVersionSession);
  EXPECT_EQ(back->session_id, frame.session_id);
  EXPECT_EQ(back->sequence, frame.sequence);
  EXPECT_EQ(back->deadline_micros, frame.deadline_micros);
  EXPECT_EQ(back->payload, frame.payload);
  // The trace block is present but zero for an untraced sessioned frame.
  EXPECT_EQ(back->trace_id, 0u);
  EXPECT_EQ(back->parent_span_id, 0u);
}

TEST(WireTest, SessionBlockIsOptInPerFrame) {
  // Session-off frames stay bit-identical to the pre-session encoding:
  // stamping all-zero session state must not change a single byte.
  const WireFrame untraced = SampleRequest();
  EXPECT_EQ(EncodeFrame(untraced), EncodeFrameStamped(untraced, {}));
  EXPECT_EQ(EncodeFrame(untraced).size(),
            kFrameHeaderBytes + untraced.payload.size());

  WireFrame traced = SampleRequest();
  traced.trace_id = 5;
  traced.parent_span_id = 6;
  EXPECT_EQ(traced.EncodedVersion(), kWireVersionTraced);
  EXPECT_EQ(EncodeFrame(traced).size(),
            FrameHeaderBytesFor(kWireVersionTraced) + traced.payload.size());

  // A session-requesting handshake encodes at revision 3 even with all
  // numeric session fields still zero.
  WireFrame hello = MakeRequestFrame(WireMethod::kHandshake, 0, 0, {});
  hello.session_request = true;
  auto back = DecodeFrame(EncodeFrame(hello));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->version, kWireVersionSession);
  EXPECT_TRUE(back->session_request);
}

TEST(WireTest, SessionedFrameTruncationAtEveryLengthFails) {
  const auto bytes = EncodeFrame(SampleSessionedRequest());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(DecodeFrame(prefix).ok()) << "prefix " << len;
  }
}

TEST(WireTest, SessionedFrameBitFlipsNeverCrash) {
  const auto bytes = EncodeFrame(SampleSessionedRequest());
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> copy = bytes;
      copy[byte] ^= static_cast<uint8_t>(1u << bit);
      (void)DecodeFrame(copy);
    }
  }
}

TEST(WireTest, SessionRequestFlagOnlyValidOnHandshakeRequests) {
  // On a non-handshake request the flag is a protocol violation.
  WireFrame request = SampleSessionedRequest();
  request.session_request = true;
  EXPECT_EQ(DecodeFrame(EncodeFrame(request)).status().code(),
            StatusCode::kProtocolError);

  // On a response it is too (the server issues ids in the body of the
  // handshake response, never via the flag).
  WireFrame response =
      MakeResponseFrame(MakeRequestFrame(WireMethod::kHandshake, 0, 0, {}),
                        {});
  response.session_request = true;
  EXPECT_EQ(DecodeFrame(EncodeFrame(response)).status().code(),
            StatusCode::kProtocolError);
}

TEST(WireTest, ResponseMustNotCarryDeadline) {
  // Deadlines propagate client → server only; a response claiming one is
  // malformed.
  WireFrame response = MakeResponseFrame(SampleSessionedRequest(), {1, 2});
  response.deadline_micros = 77;
  EXPECT_EQ(DecodeFrame(EncodeFrame(response)).status().code(),
            StatusCode::kProtocolError);
}

TEST(WireTest, ResponsesEchoSessionIdAndSequence) {
  const WireFrame request = SampleSessionedRequest();
  const WireFrame response = MakeResponseFrame(request, {9});
  EXPECT_EQ(response.session_id, request.session_id);
  EXPECT_EQ(response.sequence, request.sequence);
  EXPECT_EQ(response.deadline_micros, 0u);
  const WireFrame error = MakeErrorFrame(request, Status::Internal("x"));
  EXPECT_EQ(error.session_id, request.session_id);
  EXPECT_EQ(error.sequence, request.sequence);
}

TEST(WireTest, HostilePayloadLengthIsBoundedBeforeAllocation) {
  WireFrame frame = SampleRequest();
  auto bytes = EncodeFrame(frame);
  // payload_len lives at offset 26; write an absurd value.
  const uint64_t huge = ~0ULL;
  std::memcpy(bytes.data() + 26, &huge, sizeof(huge));
  uint64_t payload_len = 0;
  auto header =
      DecodeFrameHeader(bytes.data(), kFrameHeaderBytes, &payload_len);
  EXPECT_EQ(header.status().code(), StatusCode::kOutOfRange);
}

// ------------------------------------------------- fixture (tiny model)

class NetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(7);
    auto pair = Paillier::GenerateKeyPair(256, rng);
    ASSERT_TRUE(pair.ok());
    keys_ = new PaillierKeyPair(std::move(pair).value());

    Rng mrng(8);
    Model model(Shape{4}, "net");
    PPS_CHECK_OK(model.Add(DenseLayer::Random(4, 6, mrng)));
    PPS_CHECK_OK(model.Add(std::make_unique<ReluLayer>()));
    PPS_CHECK_OK(model.Add(DenseLayer::Random(6, 3, mrng)));
    PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
    auto plan = CompilePlan(model, 1000);
    ASSERT_TRUE(plan.ok());
    plan_ = new std::shared_ptr<const InferencePlan>(
        std::make_shared<const InferencePlan>(std::move(plan).value()));
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete plan_;
  }

  static DoubleTensor MakeInput(uint64_t seed) {
    Rng rng(seed);
    DoubleTensor x{Shape{4}};
    for (int64_t j = 0; j < 4; ++j) x[j] = rng.NextUniform(-2, 2);
    return x;
  }

  /// A channel whose far end is a real ModelProvider behind the server
  /// dispatcher — the full wire path without sockets.
  static std::shared_ptr<InProcessFrameChannel> ChannelTo(
      std::shared_ptr<ModelProvider> mp) {
    return std::make_shared<InProcessFrameChannel>(
        [mp](const WireFrame& request) {
          return DispatchModelProviderFrame(*mp, request);
        });
  }

  static PaillierKeyPair* keys_;
  static std::shared_ptr<const InferencePlan>* plan_;
};

PaillierKeyPair* NetTest::keys_ = nullptr;
std::shared_ptr<const InferencePlan>* NetTest::plan_ = nullptr;

// ----------------------------------------------- serialization hardening

TEST_F(NetTest, DataProviderViewTruncationFails) {
  BufferWriter writer;
  (*plan_)->SerializeDataProviderView(&writer);
  const auto bytes = writer.TakeBytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    BufferReader reader(bytes.data(), len);
    EXPECT_FALSE(InferencePlan::DeserializeDataProviderView(&reader).ok())
        << "prefix " << len;
  }
}

TEST_F(NetTest, DataProviderViewBitFlipsNeverCrash) {
  BufferWriter writer;
  (*plan_)->SerializeDataProviderView(&writer);
  const auto bytes = writer.TakeBytes();
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    std::vector<uint8_t> copy = bytes;
    copy[byte] ^= 0x40;
    BufferReader reader(copy);
    (void)InferencePlan::DeserializeDataProviderView(&reader);
  }
}

// --------------------------------------------------- dispatch and stubs

TEST_F(NetTest, FramedProtocolMatchesPlainReference) {
  auto local_mp =
      std::make_shared<ModelProvider>(*plan_, keys_->public_key, 21);
  RemoteModelProvider mp(ChannelTo(local_mp), *plan_);
  DataProvider dp(*plan_, *keys_, 23);

  const DoubleTensor input = MakeInput(31);
  auto output = RunProtocolInference(mp, dp, /*request_id=*/1, input);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  auto expected = RunScaledPlainInference(**plan_, input);
  ASSERT_TRUE(expected.ok());
  for (int64_t j = 0; j < expected->NumElements(); ++j) {
    EXPECT_DOUBLE_EQ(output.value()[j], expected.value()[j]);
  }
  // The completion release crossed the wire too.
  EXPECT_EQ(local_mp->PendingRequestsForTesting(), 0u);
}

TEST_F(NetTest, ObfuscateRefusesRoundsPastThePlan) {
  // The round comes off the frame header: Obfuscate range-checks it
  // before it indexes the plan or stores a permutation under it.
  auto local_mp =
      std::make_shared<ModelProvider>(*plan_, keys_->public_key, 33);
  RemoteModelProvider remote(ChannelTo(local_mp), *plan_);
  const size_t rounds = (*plan_)->NumRounds();
  const std::vector<Ciphertext> words(
      6, Paillier::EncryptZeroDeterministic(keys_->public_key));
  for (size_t round : {rounds, rounds + 3}) {
    EXPECT_EQ(local_mp->Obfuscate(1, round, words).status().code(),
              StatusCode::kOutOfRange)
        << "in-process, round " << round;
    EXPECT_EQ(remote.Obfuscate(2, round, words).status().code(),
              StatusCode::kOutOfRange)
        << "kMpObfuscate frame, round " << round;
  }
  EXPECT_EQ(local_mp->PendingRequestsForTesting(), 0u);
}

TEST_F(NetTest, EngineRunsOverFramedChannel) {
  auto local_mp =
      std::make_shared<ModelProvider>(*plan_, keys_->public_key, 41);
  auto mp = std::make_shared<RemoteModelProvider>(ChannelTo(local_mp),
                                                  *plan_);
  auto dp = std::make_shared<DataProvider>(*plan_, *keys_, 43);

  EngineConfig config;
  config.stage_threads = {1, 1, 1, 1, 1};
  PpStreamEngine engine(mp, dp, config);
  ASSERT_TRUE(engine.Start().ok());

  std::vector<DoubleTensor> inputs;
  for (uint64_t i = 0; i < 4; ++i) {
    inputs.push_back(MakeInput(100 + i));
    ASSERT_TRUE(engine.Submit(i, inputs.back()).ok());
  }
  for (int i = 0; i < 4; ++i) {
    auto result = engine.NextResult();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto expected =
        RunScaledPlainInference(**plan_, inputs[result->request_id]);
    ASSERT_TRUE(expected.ok());
    for (int64_t j = 0; j < expected->NumElements(); ++j) {
      EXPECT_DOUBLE_EQ(result->output[j], expected.value()[j]);
    }
  }
  engine.Shutdown();
}

TEST_F(NetTest, RemoteDataProviderMatchesLocal) {
  // Reverse deployment: the model-provider side drives a remote DP.
  auto local_dp = std::make_shared<DataProvider>(*plan_, *keys_, 53);
  auto channel = std::make_shared<InProcessFrameChannel>(
      [local_dp](const WireFrame& request) {
        return DispatchDataProviderFrame(*local_dp, request);
      });
  RemoteDataProvider dp(channel, keys_->public_key);
  ModelProvider mp(*plan_, keys_->public_key, 51);

  const DoubleTensor input = MakeInput(61);
  auto output = RunProtocolInference(mp, dp, /*request_id=*/1, input);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  auto expected = RunScaledPlainInference(**plan_, input);
  ASSERT_TRUE(expected.ok());
  for (int64_t j = 0; j < expected->NumElements(); ++j) {
    EXPECT_DOUBLE_EQ(output.value()[j], expected.value()[j]);
  }

  // Leakage views would pull plaintext across the wire; refused.
  std::vector<double> view;
  auto ct = dp.EncryptInput(input);
  ASSERT_TRUE(ct.ok());
  auto stage0 = mp.ProcessRound(2, 0, ct.value());
  ASSERT_TRUE(stage0.ok());
  EXPECT_EQ(dp.ProcessIntermediate(1, stage0.value(), &view, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(mp.ReleaseRequestState(2).ok());
}

TEST_F(NetTest, ModelProviderDispatchRejectsPlaintextMethods) {
  // The privacy separation, enforced at the dispatch layer: a model
  // provider refuses every method whose payload is a plaintext tensor.
  auto local_mp =
      std::make_shared<ModelProvider>(*plan_, keys_->public_key, 71);
  const DoubleTensor input = MakeInput(73);
  const WireFrame request = MakeRequestFrame(
      WireMethod::kDpEncryptInput, 1, 0, SerializeDoubleTensor(input));
  const WireFrame response = DispatchModelProviderFrame(*local_mp, request);
  EXPECT_EQ(FrameStatus(response).code(), StatusCode::kProtocolError);
}

TEST_F(NetTest, DispatchSurvivesCorruptedPayloads) {
  auto local_mp =
      std::make_shared<ModelProvider>(*plan_, keys_->public_key, 81);
  DataProvider dp(*plan_, *keys_, 83);
  auto ct = dp.EncryptInput(MakeInput(85));
  ASSERT_TRUE(ct.ok());

  BufferWriter writer;
  WriteCiphertexts(&writer, ct.value());
  const auto clean = writer.TakeBytes();

  FaultInjector injector(/*seed=*/87);
  FaultRule rule;
  rule.site_pattern = "net.recv";
  rule.kind = FaultKind::kCorruption;
  rule.every_nth = 1;
  rule.corrupt_bytes = 2;
  injector.AddRule(rule);

  for (int round = 0; round < 32; ++round) {
    std::vector<uint8_t> payload = clean;
    ASSERT_TRUE(injector.Corrupt("net.recv", payload));
    const WireFrame request = MakeRequestFrame(
        WireMethod::kMpProcessRound, 1000 + round, 0, std::move(payload));
    // Must produce a response frame (success or error) — never crash.
    const WireFrame response = DispatchModelProviderFrame(*local_mp, request);
    EXPECT_TRUE(response.is_response);
    (void)local_mp->ReleaseRequestState(1000 + round);
  }
}

TEST_F(NetTest, ChannelFaultInjectionSurfacesAsStatus) {
  auto local_mp =
      std::make_shared<ModelProvider>(*plan_, keys_->public_key, 91);
  auto channel = ChannelTo(local_mp);

  auto injector = std::make_shared<FaultInjector>(93);
  FaultRule rule;
  rule.site_pattern = "net.send";
  rule.kind = FaultKind::kError;
  rule.error_code = StatusCode::kIoError;
  rule.every_nth = 1;
  injector->AddRule(rule);
  channel->SetFaultInjector(injector);

  RemoteModelProvider mp(channel, *plan_);
  DataProvider dp(*plan_, *keys_, 95);
  auto ct = dp.EncryptInput(MakeInput(97));
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(mp.ProcessRound(1, 0, ct.value()).status().code(),
            StatusCode::kIoError);

  // Corruption of the response bytes must fail decode, not crash.
  injector->Clear();
  rule.site_pattern = "net.recv";
  rule.kind = FaultKind::kCorruption;
  rule.corrupt_bytes = 4;
  injector->AddRule(rule);
  for (int i = 0; i < 16; ++i) {
    (void)mp.ProcessRound(2 + i, 0, ct.value());
    (void)mp.ReleaseRequestState(2 + i);
  }
  EXPECT_GT(injector->stats().corruptions, 0u);
}

// ----------------------------------------------------------- TCP loopback

/// Little-endian byte pattern of each tensor element, for scanning frame
/// payloads for plaintext leaks.
std::vector<std::vector<uint8_t>> DoublePatterns(const DoubleTensor& t) {
  std::vector<std::vector<uint8_t>> patterns;
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    std::vector<uint8_t> p(sizeof(double));
    const double v = t[i];
    std::memcpy(p.data(), &v, sizeof(double));
    patterns.push_back(std::move(p));
  }
  return patterns;
}

bool Contains(const std::vector<uint8_t>& haystack,
              const std::vector<uint8_t>& needle) {
  return std::search(haystack.begin(), haystack.end(), needle.begin(),
                     needle.end()) != haystack.end();
}

TEST_F(NetTest, TcpLoopbackInferenceIsBitExactAndLeakFree) {
  ModelProviderServerOptions server_options;
  server_options.worker_threads = 2;
  ModelProviderTcpServer server(*plan_, server_options);
  ASSERT_TRUE(server.Listen(0).ok());

  std::thread server_thread(
      [&server] { ASSERT_TRUE(server.ServeOne(10.0).ok()); });

  auto transport = TcpTransport::Connect("127.0.0.1", server.port(),
                                         keys_->public_key);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();

  // The handshake delivered a weight-free view, not the model.
  auto view = transport.value()->view_plan();
  EXPECT_TRUE(view->is_data_provider_view);
  EXPECT_EQ(view->NumRounds(), (*plan_)->NumRounds());

  // Capture everything this side puts on (and gets off) the wire.
  std::vector<WireFrame> outbound;
  transport.value()->channel().SetFrameObserver(
      [&outbound](const WireFrame& frame, bool out) {
        if (out) outbound.push_back(frame);
      });

  DataProvider dp(view, *keys_, 103);
  ModelProviderApi& mp = *transport.value()->model_provider();

  std::vector<DoubleTensor> inputs = {MakeInput(111), MakeInput(112)};
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto output = RunProtocolInference(mp, dp, i + 1, inputs[i]);
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    auto expected = RunScaledPlainInference(**plan_, inputs[i]);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(output->NumElements(), expected->NumElements());
    for (int64_t j = 0; j < expected->NumElements(); ++j) {
      EXPECT_DOUBLE_EQ(output.value()[j], expected.value()[j])
          << "request " << i + 1 << " element " << j;
    }

    // Frame inspection: every model-provider-bound frame is either the
    // handshake (public key only) or an Mp method whose payload is
    // ciphertexts; no frame contains the plaintext input or output bytes.
    ASSERT_FALSE(outbound.empty());
    const auto in_patterns = DoublePatterns(inputs[i]);
    const auto out_patterns = DoublePatterns(expected.value());
    for (const WireFrame& frame : outbound) {
      EXPECT_FALSE(frame.is_response);
      EXPECT_TRUE(frame.method == WireMethod::kHandshake ||
                  (frame.method >= WireMethod::kMpProcessRound &&
                   frame.method <= WireMethod::kMpReleaseRequestState))
          << WireMethodToString(frame.method);
      for (const auto& p : in_patterns) {
        EXPECT_FALSE(Contains(frame.payload, p)) << "plaintext input leaked";
      }
      for (const auto& p : out_patterns) {
        EXPECT_FALSE(Contains(frame.payload, p)) << "plaintext output leaked";
      }
    }
  }

  const TransportStats stats = transport.value()->stats();
  EXPECT_GT(stats.frames_sent, 0u);
  EXPECT_EQ(stats.frames_sent, stats.frames_received);

  transport.value()->Close();
  server_thread.join();
  EXPECT_EQ(server.connections_served(), 1u);
}

TEST_F(NetTest, TcpConnectToClosedPortFails) {
  // Bind then immediately close to obtain a port that refuses connections.
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener->port();
  listener->Close();

  auto transport = TcpTransport::Connect("127.0.0.1", port,
                                         keys_->public_key);
  EXPECT_FALSE(transport.ok());
}

TEST_F(NetTest, TcpAcceptTimeoutIsDeadlineExceeded) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto socket = listener->Accept(/*timeout_seconds=*/0.05);
  EXPECT_EQ(socket.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(NetTest, TcpRecvTimeoutIsDeadlineExceeded) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto client = TcpSocket::Connect("127.0.0.1", listener->port(), 1.0);
  ASSERT_TRUE(client.ok());
  auto accepted = listener->Accept(1.0);
  ASSERT_TRUE(accepted.ok());
  // Nobody sends: the read must give up with DeadlineExceeded.
  uint8_t byte = 0;
  EXPECT_EQ(client->RecvAll(&byte, 1, /*timeout_seconds=*/0.05).code(),
            StatusCode::kDeadlineExceeded);
}

TEST_F(NetTest, ServerRejectsGarbageHandshake) {
  ModelProviderTcpServer server(*plan_);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread server_thread([&server] {
    // The connection errors out server-side; that must not crash Serve.
    EXPECT_FALSE(server.ServeOne(10.0).ok());
  });

  auto socket = TcpSocket::Connect("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok());
  // A frame that is valid at the wire level but not a handshake.
  const auto bytes =
      EncodeFrame(MakeRequestFrame(WireMethod::kMpProcessRound, 1, 0, {}));
  ASSERT_TRUE(socket->SendAll(bytes.data(), bytes.size(), 5.0).ok());
  auto reply = RecvFrame(*socket, 5.0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(FrameStatus(*reply).code(), StatusCode::kProtocolError);
  socket->Close();
  server_thread.join();
}

// --------------------------------------------------------- session layer

TEST(SessionTest, RequestDeadlinePassedSemantics) {
  // 0 means "no deadline" — it never expires.
  EXPECT_FALSE(RequestDeadlinePassed(0, 100.0, 500.0));
  // 1s budget, 0.5s elapsed since the frame arrived: still live.
  EXPECT_FALSE(RequestDeadlinePassed(1'000'000, 100.0, 100.5));
  // 1s budget, 1.5s elapsed: shed.
  EXPECT_TRUE(RequestDeadlinePassed(1'000'000, 100.0, 101.5));
}

TEST(DeadlineScopeTest, NestsToTightestAndClampsExpired) {
  EXPECT_FALSE(DeadlineScope::active());
  EXPECT_EQ(DeadlineScope::RemainingMicros(), 0u);  // no deadline on wire
  {
    DeadlineScope outer(10.0);
    EXPECT_TRUE(DeadlineScope::active());
    EXPECT_GT(DeadlineScope::RemainingMicros(), 1'000'000u);
    {
      DeadlineScope inner(0.5);  // tighter wins
      EXPECT_LE(DeadlineScope::RemainingMicros(), 500'000u);
      DeadlineScope inherit(0);  // 0 inherits the enclosing deadline
      EXPECT_LE(DeadlineScope::RemainingMicros(), 500'000u);
    }
    // Popping the inner scopes restores the outer deadline.
    EXPECT_GT(DeadlineScope::RemainingMicros(), 1'000'000u);
  }
  EXPECT_FALSE(DeadlineScope::active());
  {
    DeadlineScope tiny(1e-9);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(DeadlineScope::Expired());
    // Expired-but-active must still read as "has a deadline" on the wire,
    // never as "no deadline".
    EXPECT_EQ(DeadlineScope::RemainingMicros(), 1u);
  }
}

TEST_F(NetTest, SessionRegistryReplayAndStaleSequence) {
  SessionLayerOptions bounds;
  bounds.reply_cache_entries = 2;
  SessionRegistry registry(bounds);
  auto session = registry.Create(
      std::make_unique<ModelProvider>(*plan_, keys_->public_key, 7),
      {1, 2, 3});
  ASSERT_NE(session, nullptr);
  EXPECT_NE(session->id(), 0u);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(session->view_payload(), (std::vector<uint8_t>{1, 2, 3}));

  session->StoreReply(1, {10}, bounds);
  session->StoreReply(2, {20}, bounds);
  ASSERT_NE(session->CachedReply(2), nullptr);
  EXPECT_EQ(*session->CachedReply(2), (std::vector<uint8_t>{20}));
  EXPECT_FALSE(session->IsStaleSequence(3));  // never served: not stale
  session->StoreReply(3, {30}, bounds);       // evicts sequence 1
  EXPECT_EQ(session->CachedReply(1), nullptr);
  EXPECT_TRUE(session->IsStaleSequence(1));  // served, reply evicted
  EXPECT_EQ(session->last_sequence(), 3u);

  session->Detach();  // the creating connection hangs up
  EXPECT_TRUE(registry.Resume(session->id()).ok());
  EXPECT_EQ(registry.Resume(session->id() ^ 1).status().code(),
            StatusCode::kNotFound);
  registry.Remove(session->id());
  EXPECT_EQ(registry.size(), 0u);
}

TEST_F(NetTest, SessionRegistryResumeIsExclusiveWhileAttached) {
  SessionRegistry registry;
  auto session = registry.Create(
      std::make_unique<ModelProvider>(*plan_, keys_->public_key, 9), {});
  // Created sessions come attached to the creating connection; a resume
  // from a second connection must be refused (never handing the same
  // provider/reply cache to two threads) and must kick the holder.
  EXPECT_TRUE(session->attached());
  EXPECT_FALSE(session->kicked());
  EXPECT_EQ(registry.Resume(session->id()).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(session->kicked());
  // Once the holder detaches, the retry succeeds and re-attaches with a
  // clean kick flag.
  session->Detach();
  ASSERT_TRUE(registry.Resume(session->id()).ok());
  EXPECT_TRUE(session->attached());
  EXPECT_FALSE(session->kicked());
}

TEST_F(NetTest, SessionRegistryEvictsLeastRecentlyResumed) {
  SessionLayerOptions bounds;
  bounds.max_sessions = 2;
  SessionRegistry registry(bounds);
  auto make_mp = [this](uint64_t seed) {
    return std::make_unique<ModelProvider>(*plan_, keys_->public_key, seed);
  };
  auto a = registry.Create(make_mp(1), {});
  auto b = registry.Create(make_mp(2), {});
  a->Detach();
  b->Detach();
  ASSERT_TRUE(registry.Resume(a->id()).ok());  // a is now most recent
  a->Detach();
  auto c = registry.Create(make_mp(3), {});    // evicts b, not a
  c->Detach();
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.Resume(a->id()).ok());
  a->Detach();
  EXPECT_TRUE(registry.Resume(c->id()).ok());
  EXPECT_EQ(registry.Resume(b->id()).status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------- TCP resilience

TEST_F(NetTest, ConcurrentResumeKicksHalfOpenConnection) {
  ModelProviderServerOptions options;
  options.max_concurrent_connections = 2;
  options.accept_poll_seconds = 0.05;
  ModelProviderTcpServer server(*plan_, options);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread server_thread([&server] { EXPECT_TRUE(server.Serve().ok()); });

  BufferWriter key;
  keys_->public_key.Serialize(&key);
  const std::vector<uint8_t> key_bytes = key.TakeBytes();

  // Connection A: sessioned handshake, then go silent — from the
  // server's point of view, a half-open connection still attached to
  // its session.
  auto a = TcpSocket::Connect("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(a.ok());
  WireFrame hello = MakeRequestFrame(WireMethod::kHandshake, 0, 0, key_bytes);
  hello.session_request = true;
  const auto hello_bytes = EncodeFrame(hello);
  ASSERT_TRUE(a->SendAll(hello_bytes.data(), hello_bytes.size(), 5.0).ok());
  auto a_resp = RecvFrame(*a, 5.0);
  ASSERT_TRUE(a_resp.ok()) << a_resp.status().ToString();
  ASSERT_TRUE(FrameStatus(*a_resp).ok());
  const uint64_t session_id = a_resp->session_id;
  ASSERT_NE(session_id, 0u);

  // Connection B resumes the same session while A is attached: the
  // registry must refuse (kUnavailable) rather than hand the same
  // provider to a second thread, and must kick A so a retry succeeds.
  Status resume_status = Status::IoError("never attempted");
  bool saw_busy = false;
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto b = TcpSocket::Connect("127.0.0.1", server.port(), 5.0);
    ASSERT_TRUE(b.ok());
    WireFrame resume =
        MakeRequestFrame(WireMethod::kHandshake, 0, 0, key_bytes);
    resume.session_id = session_id;
    const auto resume_bytes = EncodeFrame(resume);
    ASSERT_TRUE(
        b->SendAll(resume_bytes.data(), resume_bytes.size(), 5.0).ok());
    auto b_resp = RecvFrame(*b, 5.0);
    ASSERT_TRUE(b_resp.ok()) << b_resp.status().ToString();
    resume_status = FrameStatus(*b_resp);
    if (resume_status.ok()) break;
    ASSERT_EQ(resume_status.code(), StatusCode::kUnavailable)
        << resume_status.ToString();
    saw_busy = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(resume_status.ok()) << resume_status.ToString();
  EXPECT_TRUE(saw_busy);  // the attach gate refused at least once

  // The kicked connection was closed by the server, not left serving.
  uint8_t byte = 0;
  EXPECT_FALSE(a->RecvAll(&byte, 1, 2.0).ok());

  server.Shutdown();
  server_thread.join();
}

TEST_F(NetTest, TcpSessionResumeSurvivesSocketResets) {
  ModelProviderTcpServer server(*plan_);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread server_thread([&server] { EXPECT_TRUE(server.Serve().ok()); });

  auto transport = TcpTransport::Connect("127.0.0.1", server.port(),
                                         keys_->public_key);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  auto* channel =
      dynamic_cast<ResilientTcpChannel*>(&transport.value()->channel());
  ASSERT_NE(channel, nullptr);
  const uint64_t session_id = channel->session_id();
  EXPECT_NE(session_id, 0u);

  // Tear the connection down below every other frame: each reset forces
  // a redial + session resume mid-inference.
  auto injector = std::make_shared<FaultInjector>(171);
  FaultRule rule;
  rule.site_pattern = "net.sock.reset";
  rule.kind = FaultKind::kError;
  rule.error_code = StatusCode::kIoError;
  rule.every_nth = 2;
  injector->AddRule(rule);
  transport.value()->channel().SetFaultInjector(injector);

  std::vector<WireFrame> outbound;
  std::vector<WireFrame> inbound;
  transport.value()->channel().SetFrameObserver(
      [&](const WireFrame& frame, bool out) {
        (out ? outbound : inbound).push_back(frame);
      });

  DataProvider dp(transport.value()->view_plan(), *keys_, 173);
  ModelProviderApi& mp = *transport.value()->model_provider();

  for (uint64_t request = 1; request <= 2; ++request) {
    const DoubleTensor input = MakeInput(175 + request);
    auto output = RunProtocolInference(mp, dp, request, input);
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    auto expected = RunScaledPlainInference(**plan_, input);
    ASSERT_TRUE(expected.ok());
    for (int64_t j = 0; j < expected->NumElements(); ++j) {
      EXPECT_DOUBLE_EQ(output.value()[j], expected.value()[j])
          << "request " << request << " element " << j;
    }
    // Resume is transparent: no plaintext crossed the wire around the
    // reconnects.
    for (const WireFrame& frame : outbound) {
      for (const auto& p : DoublePatterns(input)) {
        EXPECT_FALSE(Contains(frame.payload, p)) << "plaintext input leaked";
      }
      for (const auto& p : DoublePatterns(expected.value())) {
        EXPECT_FALSE(Contains(frame.payload, p)) << "plaintext output leaked";
      }
    }
  }

  EXPECT_GT(injector->stats().errors, 0u) << "no resets actually fired";
  EXPECT_GE(channel->reconnects(), 1u);
  EXPECT_EQ(channel->session_id(), session_id) << "session must survive";
  // The server echoes the session id on every served reply.
  ASSERT_FALSE(inbound.empty());
  for (const WireFrame& frame : inbound) {
    EXPECT_EQ(frame.session_id, session_id);
  }

  transport.value()->Close();
  server.Shutdown();
  server_thread.join();
  EXPECT_GE(server.connections_served(), 2u) << "resets never reconnected";
}

TEST_F(NetTest, TcpServerRestartLosesSessionButInferenceRecovers) {
  auto server_a = std::make_unique<ModelProviderTcpServer>(*plan_);
  ASSERT_TRUE(server_a->Listen(0).ok());
  const uint16_t port = server_a->port();
  std::thread thread_a([&] { EXPECT_TRUE(server_a->Serve().ok()); });

  auto transport =
      TcpTransport::Connect("127.0.0.1", port, keys_->public_key);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  auto* channel =
      dynamic_cast<ResilientTcpChannel*>(&transport.value()->channel());
  ASSERT_NE(channel, nullptr);
  const uint64_t first_session = channel->session_id();
  EXPECT_NE(first_session, 0u);

  DataProvider dp(transport.value()->view_plan(), *keys_, 183);
  ModelProviderApi& mp = *transport.value()->model_provider();
  const DoubleTensor input = MakeInput(185);
  auto expected = RunScaledPlainInference(**plan_, input);
  ASSERT_TRUE(expected.ok());

  auto first = RunResilientInference(mp, dp, 1, input);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Kill server A (drain cuts the idle connection loose) and start a
  // replacement on the same port. All session state dies with A.
  server_a->BeginDrain(0);
  thread_a.join();
  server_a.reset();

  ModelProviderTcpServer server_b(*plan_);
  ASSERT_TRUE(server_b.Listen(port).ok());
  std::thread thread_b([&] { EXPECT_TRUE(server_b.Serve().ok()); });

  // B answers the resume with kNotFound; the resilient driver restarts
  // the whole inference on a fresh session — bit-exact, because the
  // protocol output is invariant to permutation/randomizer choices.
  auto second = RunResilientInference(mp, dp, 2, input);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  for (int64_t j = 0; j < expected->NumElements(); ++j) {
    EXPECT_DOUBLE_EQ(first.value()[j], expected.value()[j]);
    EXPECT_DOUBLE_EQ(second.value()[j], expected.value()[j]);
  }
  EXPECT_NE(channel->session_id(), 0u);
  EXPECT_NE(channel->session_id(), first_session)
      << "the lost session must not be reused";
  EXPECT_GE(channel->reconnects(), 1u);

  transport.value()->Close();
  server_b.Shutdown();
  thread_b.join();
}

TEST_F(NetTest, ShutdownWakesBlockedAcceptImmediately) {
  ModelProviderServerOptions options;
  options.accept_poll_seconds = 30.0;  // shutdown must not wait this out
  ModelProviderTcpServer server(*plan_, options);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread thread([&server] { EXPECT_TRUE(server.Serve().ok()); });
  // Let Serve() commit to its long accept wait before signalling.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto begin = std::chrono::steady_clock::now();
  server.Shutdown();
  thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  EXPECT_LT(elapsed, 2.0) << "shutdown rode out the accept poll";
}

TEST_F(NetTest, BeginDrainCutsOffIdleConnectionPromptly) {
  ModelProviderTcpServer server(*plan_);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread thread([&server] { EXPECT_TRUE(server.ServeOne(10.0).ok()); });
  auto transport = TcpTransport::Connect("127.0.0.1", server.port(),
                                         keys_->public_key);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  // The connection is established and idle; its io timeout (30s) is far
  // away. Drain must cut it off at the grace deadline instead.
  const auto begin = std::chrono::steady_clock::now();
  server.BeginDrain(0.1);
  thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  EXPECT_LT(elapsed, 2.0) << "drain did not interrupt the idle wait";
  EXPECT_TRUE(server.stopping());
  transport.value()->Close();
}

TEST_F(NetTest, PingIsServedBeforeHandshakeAndDuringSession) {
  ModelProviderTcpServer server(*plan_);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread server_thread([&server] { EXPECT_TRUE(server.Serve().ok()); });

  // Pre-handshake, credential-free ping: what a liveness probe sends.
  auto socket = TcpSocket::Connect("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok());
  const auto ping = EncodeFrame(MakeRequestFrame(WireMethod::kPing, 0, 0, {}));
  ASSERT_TRUE(socket->SendAll(ping.data(), ping.size(), 5.0).ok());
  auto pong = RecvFrame(*socket, 5.0);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->is_response);
  EXPECT_EQ(pong->method, WireMethod::kPing);
  EXPECT_TRUE(FrameStatus(*pong).ok());
  socket->Close();

  // Mid-session ping through the resilient channel.
  auto transport = TcpTransport::Connect("127.0.0.1", server.port(),
                                         keys_->public_key);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  auto* channel =
      dynamic_cast<ResilientTcpChannel*>(&transport.value()->channel());
  ASSERT_NE(channel, nullptr);
  EXPECT_TRUE(channel->Ping().ok());

  transport.value()->Close();
  server.Shutdown();
  server_thread.join();
}

TEST_F(NetTest, UnknownSessionResumeIsCleanNotFound) {
  ModelProviderTcpServer server(*plan_);
  ASSERT_TRUE(server.Listen(0).ok());
  // A resume miss is the client's problem, not a server error.
  std::thread server_thread(
      [&server] { EXPECT_TRUE(server.ServeOne(10.0).ok()); });

  auto socket = TcpSocket::Connect("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok());
  BufferWriter writer;
  keys_->public_key.Serialize(&writer);
  WireFrame hello =
      MakeRequestFrame(WireMethod::kHandshake, 0, 0, writer.TakeBytes());
  hello.session_id = 0xDEADBEEFULL;  // no server ever issued this
  const auto bytes = EncodeFrame(hello);
  ASSERT_TRUE(socket->SendAll(bytes.data(), bytes.size(), 5.0).ok());
  auto reply = RecvFrame(*socket, 5.0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(FrameStatus(*reply).code(), StatusCode::kNotFound);
  socket->Close();
  server_thread.join();
}

TEST_F(NetTest, ServerShedsRequestsWhoseDeadlineExpiredInFlight) {
  ModelProviderTcpServer server(*plan_);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread server_thread(
      [&server] { EXPECT_TRUE(server.ServeOne(10.0).ok()); });

  auto socket = TcpSocket::Connect("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok());
  BufferWriter writer;
  keys_->public_key.Serialize(&writer);
  const auto hello = EncodeFrame(
      MakeRequestFrame(WireMethod::kHandshake, 0, 0, writer.TakeBytes()));
  ASSERT_TRUE(socket->SendAll(hello.data(), hello.size(), 5.0).ok());
  auto view = RecvFrame(*socket, 5.0);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_TRUE(FrameStatus(*view).ok());

  // A frame with a 1ms budget that takes ~50ms to arrive: the server
  // must shed it instead of dispatching.
  WireFrame late = MakeRequestFrame(WireMethod::kMpProcessRound, 9, 0,
                                    std::vector<uint8_t>(64, 0));
  late.deadline_micros = 1000;
  const auto bytes = EncodeFrame(late);
  ASSERT_TRUE(socket->SendAll(bytes.data(), 10, 5.0).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(
      socket->SendAll(bytes.data() + 10, bytes.size() - 10, 5.0).ok());
  auto reply = RecvFrame(*socket, 5.0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(FrameStatus(*reply).code(), StatusCode::kDeadlineExceeded);

  // Shedding refuses the request, not the connection.
  const auto ping = EncodeFrame(MakeRequestFrame(WireMethod::kPing, 0, 0, {}));
  ASSERT_TRUE(socket->SendAll(ping.data(), ping.size(), 5.0).ok());
  auto pong = RecvFrame(*socket, 5.0);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(FrameStatus(*pong).ok());
  socket->Close();
  server_thread.join();
}

TEST_F(NetTest, SessionResumeDisabledKeepsLegacyWire) {
  ModelProviderTcpServer server(*plan_);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread server_thread(
      [&server] { EXPECT_TRUE(server.ServeOne(10.0).ok()); });

  TcpTransportOptions options;
  options.enable_session_resume = false;
  auto transport = TcpTransport::Connect("127.0.0.1", server.port(),
                                         keys_->public_key, options);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  // The legacy transport is the plain channel, not the resilient one.
  EXPECT_EQ(dynamic_cast<ResilientTcpChannel*>(&transport.value()->channel()),
            nullptr);

  std::vector<WireFrame> inbound;
  transport.value()->channel().SetFrameObserver(
      [&inbound](const WireFrame& frame, bool out) {
        if (!out) inbound.push_back(frame);
      });

  DataProvider dp(transport.value()->view_plan(), *keys_, 193);
  ModelProviderApi& mp = *transport.value()->model_provider();
  const DoubleTensor input = MakeInput(195);
  auto output = RunProtocolInference(mp, dp, 1, input);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  auto expected = RunScaledPlainInference(**plan_, input);
  ASSERT_TRUE(expected.ok());
  for (int64_t j = 0; j < expected->NumElements(); ++j) {
    EXPECT_DOUBLE_EQ(output.value()[j], expected.value()[j]);
  }

  // Nothing session-shaped reached the wire: every response decoded at a
  // pre-session revision with an empty session block.
  ASSERT_FALSE(inbound.empty());
  for (const WireFrame& frame : inbound) {
    EXPECT_LT(frame.version, kWireVersionSession);
    EXPECT_EQ(frame.session_id, 0u);
    EXPECT_EQ(frame.sequence, 0u);
    EXPECT_FALSE(frame.session_request);
  }

  transport.value()->Close();
  server_thread.join();
}

}  // namespace
}  // namespace ppstream
