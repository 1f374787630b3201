#include "net/transport.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/message.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ppstream {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Channel-level registry metrics, shared by every FrameChannel in the
/// process (per-channel numbers stay available via FrameChannel::stats).
/// The resilience counters (reconnects, pings, restarts, replays) are
/// registered here too, so every process that opens a channel exports
/// the full family at 0 — chaos dashboards never miss a series.
struct NetMetrics {
  obs::Counter* frames_sent;
  obs::Counter* frames_received;
  obs::Counter* bytes_sent;
  obs::Counter* bytes_received;
  obs::Histogram* roundtrip_seconds;
  obs::Counter* reconnects;
  obs::Histogram* reconnect_seconds;
  obs::Counter* pings;
  obs::Counter* inference_restarts;
  /// Physical wire attempts by the resilient channel — one logical round
  /// trip can burn several. attempts / frames_sent is the retry-storm
  /// amplification the chaos bench reports.
  obs::Counter* exchange_attempts;

  static const NetMetrics& Get() {
    static const NetMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return NetMetrics{registry.GetCounter("net.frames_sent"),
                        registry.GetCounter("net.frames_received"),
                        registry.GetCounter("net.bytes_sent"),
                        registry.GetCounter("net.bytes_received"),
                        registry.GetHistogram("net.roundtrip_seconds"),
                        registry.GetCounter("net.reconnects"),
                        registry.GetHistogram("net.reconnect_seconds"),
                        registry.GetCounter("net.pings"),
                        registry.GetCounter("net.inference.restarts"),
                        registry.GetCounter("net.exchange.attempts")};
    }();
    return metrics;
  }
};

Status CheckPayloadConsumed(const BufferReader& reader, WireMethod method) {
  if (!reader.AtEnd()) {
    return Status::ProtocolError(internal::StrCat(
        "trailing bytes after ", WireMethodToString(method), " payload"));
  }
  return Status::OK();
}

std::vector<uint8_t> CiphertextPayload(const std::vector<Ciphertext>& v) {
  BufferWriter writer;
  WriteCiphertexts(&writer, v);
  return writer.TakeBytes();
}

/// Absolute monotonic deadline of the innermost active DeadlineScope on
/// this thread; 0 = none.
thread_local double tls_deadline_seconds = 0;

}  // namespace

// -------------------------------------------------------- deadline scope

DeadlineScope::DeadlineScope(double budget_seconds)
    : previous_deadline_(tls_deadline_seconds) {
  if (budget_seconds <= 0) return;  // inherit the enclosing scope
  const double candidate = MonotonicSeconds() + budget_seconds;
  tls_deadline_seconds = previous_deadline_ == 0
                             ? candidate
                             : std::min(previous_deadline_, candidate);
}

DeadlineScope::~DeadlineScope() { tls_deadline_seconds = previous_deadline_; }

bool DeadlineScope::active() { return tls_deadline_seconds != 0; }

double DeadlineScope::RemainingSeconds() {
  if (!active()) return std::numeric_limits<double>::infinity();
  return tls_deadline_seconds - MonotonicSeconds();
}

uint64_t DeadlineScope::RemainingMicros() {
  if (!active()) return 0;
  const double remaining = RemainingSeconds();
  if (remaining <= 1e-6) return 1;  // expired still reads as "a deadline"
  return static_cast<uint64_t>(remaining * 1e6);
}

bool DeadlineScope::Expired() { return active() && RemainingSeconds() <= 0; }

// -------------------------------------------------------------- channels

FrameStamp FrameChannel::Stamp(const WireFrame& request) {
  // Pass the frame's own session fields through; trace ids are resolved
  // by RoundTrip (ambient context wins over an untraced frame).
  return FrameStamp{0, 0, request.session_id, request.sequence,
                    request.deadline_micros};
}

Result<WireFrame> FrameChannel::RoundTrip(const WireFrame& request) {
  // The span is the caller-visible round trip; its (trace, span) pair is
  // stamped into the frame header, so the server's rpc.<Method> span
  // parents to it across the process boundary.
  obs::ScopedSpan span("net.", "net", request.request_id,
                       WireMethodToString(request.method));
  const NetMetrics& net = NetMetrics::Get();
  const double start = MonotonicSeconds();

  std::lock_guard<std::mutex> lock(mutex_);
  const obs::TraceContext ctx = span.context();
  FrameStamp stamp = Stamp(request);
  if (ctx.active() && !request.traced()) {
    stamp.trace_id = ctx.trace_id;
    stamp.parent_span_id = ctx.span_id;
  } else {
    stamp.trace_id = request.trace_id;
    stamp.parent_span_id = request.parent_span_id;
  }
  std::vector<uint8_t> encoded = EncodeFrameStamped(request, stamp);
  if (fault_ && fault_->enabled()) {
    PPS_RETURN_IF_ERROR(fault_->Fail("net.send"));
    fault_->Corrupt("net.send", encoded);
  }
  if (observer_) observer_(request, /*outbound=*/true);
  stats_.frames_sent++;
  stats_.bytes_sent += encoded.size();
  net.frames_sent->Increment();
  net.bytes_sent->Increment(encoded.size());

  // Deliberately blocking under the channel lock: a FrameChannel is one
  // logical wire, and serializing round trips end-to-end is what keeps
  // responses from interleaving across threads. Concurrency comes from
  // using multiple channels, not from pipelining one.
  PPS_ASSIGN_OR_RETURN(std::vector<uint8_t> response_bytes,
                       // ppslint:allow(R8 one in-flight exchange per channel by design; callers needing concurrency open more channels)
                       Exchange(std::move(encoded)));
  stats_.frames_received++;
  stats_.bytes_received += response_bytes.size();
  net.frames_received->Increment();
  net.bytes_received->Increment(response_bytes.size());
  net.roundtrip_seconds->Record(MonotonicSeconds() - start);
  if (fault_ && fault_->enabled()) {
    PPS_RETURN_IF_ERROR(fault_->Fail("net.recv"));
    fault_->Corrupt("net.recv", response_bytes);
  }

  PPS_ASSIGN_OR_RETURN(WireFrame response, DecodeFrame(response_bytes));
  if (observer_) observer_(response, /*outbound=*/false);
  if (!response.is_response || response.method != request.method ||
      response.request_id != request.request_id) {
    return Status::ProtocolError(internal::StrCat(
        "mismatched response: sent ", WireMethodToString(request.method),
        " for request ", request.request_id, ", got ",
        WireMethodToString(response.method), " for request ",
        response.request_id, response.is_response ? "" : " (a request frame)"));
  }
  return response;
}

TransportStats FrameChannel::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

Result<std::vector<uint8_t>> InProcessFrameChannel::Exchange(
    std::vector<uint8_t> encoded_request) {
  // The full wire path in memory: a corrupted request fails decode here,
  // exactly where a TCP server would reject it.
  PPS_ASSIGN_OR_RETURN(WireFrame request, DecodeFrame(encoded_request));
  return EncodeFrame(handler_(request));
}

namespace {

/// Reads one whole frame (revision 1 or 2 header + payload) into a
/// contiguous buffer: the fixed 34-byte prefix first, then — once the
/// validated version says so — the trace block, then the payload.
Result<std::vector<uint8_t>> RecvFrameBytes(TcpSocket& socket,
                                            double timeout_seconds) {
  std::vector<uint8_t> bytes(kFrameHeaderBytes);
  PPS_RETURN_IF_ERROR(
      socket.RecvAll(bytes.data(), kFrameHeaderBytes, timeout_seconds));
  PPS_ASSIGN_OR_RETURN(uint16_t version,
                       PeekFrameVersion(bytes.data(), bytes.size()));
  const size_t header_bytes = FrameHeaderBytesFor(version);
  if (header_bytes > kFrameHeaderBytes) {
    bytes.resize(header_bytes);
    PPS_RETURN_IF_ERROR(socket.RecvAll(bytes.data() + kFrameHeaderBytes,
                                       header_bytes - kFrameHeaderBytes,
                                       timeout_seconds));
  }
  uint64_t payload_len = 0;
  PPS_RETURN_IF_ERROR(
      DecodeFrameHeader(bytes.data(), bytes.size(), &payload_len).status());
  bytes.resize(header_bytes + payload_len);
  if (payload_len > 0) {
    PPS_RETURN_IF_ERROR(socket.RecvAll(bytes.data() + header_bytes,
                                       payload_len, timeout_seconds));
  }
  return bytes;
}

}  // namespace

Result<std::vector<uint8_t>> TcpFrameChannel::Exchange(
    std::vector<uint8_t> encoded_request) {
  {
    obs::ScopedSpan send_span("net.send", "net");
    PPS_RETURN_IF_ERROR(socket_.SendAll(encoded_request.data(),
                                        encoded_request.size(),
                                        io_timeout_seconds_));
  }
  obs::ScopedSpan recv_span("net.recv", "net");
  return RecvFrameBytes(socket_, io_timeout_seconds_);
}

// ---------------------------------------------------------------- server

Status SendFrameBytes(TcpSocket& socket, const std::vector<uint8_t>& bytes,
                      double timeout_seconds) {
  return socket.SendAll(bytes.data(), bytes.size(), timeout_seconds);
}

Result<WireFrame> RecvFrame(TcpSocket& socket, double timeout_seconds) {
  PPS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       RecvFrameBytes(socket, timeout_seconds));
  return DecodeFrame(bytes);
}

namespace {

Result<std::vector<uint8_t>> DispatchModelProviderPayload(
    ModelProviderApi& mp, const WireFrame& request, ThreadPool* pool) {
  BufferReader reader(request.payload);
  switch (request.method) {
    case WireMethod::kMpProcessRound: {
      PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> in,
                           ReadCiphertexts(&reader));
      PPS_RETURN_IF_ERROR(CheckPayloadConsumed(reader, request.method));
      PPS_ASSIGN_OR_RETURN(
          std::vector<Ciphertext> out,
          mp.ProcessRound(request.request_id, request.round, in));
      return CiphertextPayload(out);
    }
    case WireMethod::kMpInverseObfuscate: {
      PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> in,
                           ReadCiphertexts(&reader));
      PPS_RETURN_IF_ERROR(CheckPayloadConsumed(reader, request.method));
      PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> out,
                           mp.InverseObfuscate(request.request_id,
                                               request.round, std::move(in)));
      return CiphertextPayload(out);
    }
    case WireMethod::kMpApplyLinearStage: {
      PPS_ASSIGN_OR_RETURN(uint8_t partitioning, reader.ReadU8());
      PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> in,
                           ReadCiphertexts(&reader));
      PPS_RETURN_IF_ERROR(CheckPayloadConsumed(reader, request.method));
      PPS_ASSIGN_OR_RETURN(
          std::vector<Ciphertext> out,
          mp.ApplyLinearStage(request.round, in, pool, partitioning != 0));
      return CiphertextPayload(out);
    }
    case WireMethod::kMpObfuscate: {
      PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> in,
                           ReadCiphertexts(&reader));
      PPS_RETURN_IF_ERROR(CheckPayloadConsumed(reader, request.method));
      PPS_ASSIGN_OR_RETURN(
          std::vector<Ciphertext> out,
          mp.Obfuscate(request.request_id, request.round, std::move(in)));
      return CiphertextPayload(out);
    }
    case WireMethod::kMpReleaseRequestState: {
      PPS_RETURN_IF_ERROR(CheckPayloadConsumed(reader, request.method));
      PPS_RETURN_IF_ERROR(mp.ReleaseRequestState(request.request_id));
      return std::vector<uint8_t>{};
    }
    default:
      // Includes every Dp* method: the model provider refuses calls that
      // would put plaintext tensors in its hands.
      return Status::ProtocolError(internal::StrCat(
          WireMethodToString(request.method),
          " is not served by a model provider"));
  }
}

Result<std::vector<uint8_t>> DispatchDataProviderPayload(
    DataProviderApi& dp, const WireFrame& request, ThreadPool* pool) {
  BufferReader reader(request.payload);
  switch (request.method) {
    case WireMethod::kDpEncryptInput: {
      PPS_ASSIGN_OR_RETURN(DoubleTensor input,
                           DeserializeDoubleTensor(request.payload));
      PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> out,
                           dp.EncryptInputParallel(input, pool));
      return CiphertextPayload(out);
    }
    case WireMethod::kDpProcessIntermediate: {
      PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> in,
                           ReadCiphertexts(&reader));
      PPS_RETURN_IF_ERROR(CheckPayloadConsumed(reader, request.method));
      PPS_ASSIGN_OR_RETURN(
          std::vector<Ciphertext> out,
          dp.ProcessIntermediate(request.round, in, nullptr, pool));
      return CiphertextPayload(out);
    }
    case WireMethod::kDpProcessFinal: {
      PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> in,
                           ReadCiphertexts(&reader));
      PPS_RETURN_IF_ERROR(CheckPayloadConsumed(reader, request.method));
      PPS_ASSIGN_OR_RETURN(DoubleTensor out, dp.ProcessFinal(in, pool));
      return SerializeDoubleTensor(out);
    }
    default:
      return Status::ProtocolError(internal::StrCat(
          WireMethodToString(request.method),
          " is not served by a data provider"));
  }
}

}  // namespace

WireFrame DispatchModelProviderFrame(ModelProviderApi& mp,
                                     const WireFrame& request,
                                     ThreadPool* pool) {
  if (request.is_response) {
    return MakeErrorFrame(request,
                          Status::ProtocolError("expected a request frame"));
  }
  // Resume the caller's trace from the wire-carried trace block: this
  // server-side span (and any crypto spans nested inside the provider)
  // parents to the client's in-flight net.<Method> span.
  obs::ScopedSpan span(
      obs::TraceContext{request.trace_id, request.parent_span_id}, "rpc.",
      "rpc", request.request_id, WireMethodToString(request.method));
  Result<std::vector<uint8_t>> payload =
      DispatchModelProviderPayload(mp, request, pool);
  if (!payload.ok()) return MakeErrorFrame(request, payload.status());
  return MakeResponseFrame(request, std::move(payload).value());
}

WireFrame DispatchDataProviderFrame(DataProviderApi& dp,
                                    const WireFrame& request,
                                    ThreadPool* pool) {
  if (request.is_response) {
    return MakeErrorFrame(request,
                          Status::ProtocolError("expected a request frame"));
  }
  obs::ScopedSpan span(
      obs::TraceContext{request.trace_id, request.parent_span_id}, "rpc.",
      "rpc", request.request_id, WireMethodToString(request.method));
  Result<std::vector<uint8_t>> payload =
      DispatchDataProviderPayload(dp, request, pool);
  if (!payload.ok()) return MakeErrorFrame(request, payload.status());
  return MakeResponseFrame(request, std::move(payload).value());
}

// ---------------------------------------------------------------- stubs

namespace {

/// Round-trips a request whose response payload is a ciphertext vector.
Result<std::vector<Ciphertext>> CallForCiphertexts(FrameChannel& channel,
                                                   WireFrame request) {
  PPS_ASSIGN_OR_RETURN(WireFrame response,
                       channel.RoundTrip(std::move(request)));
  PPS_RETURN_IF_ERROR(FrameStatus(response));
  return DeserializeCiphertexts(response.payload);
}

}  // namespace

RemoteModelProvider::RemoteModelProvider(
    std::shared_ptr<FrameChannel> channel,
    std::shared_ptr<const InferencePlan> view_plan)
    : channel_(std::move(channel)), view_plan_(std::move(view_plan)) {
  PPS_CHECK(channel_ != nullptr);
  PPS_CHECK(view_plan_ != nullptr);
}

Result<std::vector<Ciphertext>> RemoteModelProvider::ProcessRound(
    uint64_t request_id, size_t round, const std::vector<Ciphertext>& in) {
  return CallForCiphertexts(
      *channel_, MakeRequestFrame(WireMethod::kMpProcessRound, request_id,
                                  round, CiphertextPayload(in)));
}

Result<std::vector<Ciphertext>> RemoteModelProvider::InverseObfuscate(
    uint64_t request_id, size_t round, std::vector<Ciphertext> in) {
  return CallForCiphertexts(
      *channel_, MakeRequestFrame(WireMethod::kMpInverseObfuscate, request_id,
                                  round, CiphertextPayload(in)));
}

Result<std::vector<Ciphertext>> RemoteModelProvider::ApplyLinearStage(
    size_t round, const std::vector<Ciphertext>& in, ThreadPool* pool,
    bool input_partitioning) {
  // `pool` is the caller's local parallelism; the remote provider computes
  // with its own worker pool, so only the partitioning hint crosses.
  (void)pool;
  BufferWriter writer;
  writer.WriteU8(input_partitioning ? 1 : 0);
  WriteCiphertexts(&writer, in);
  return CallForCiphertexts(
      *channel_, MakeRequestFrame(WireMethod::kMpApplyLinearStage, 0, round,
                                  writer.TakeBytes()));
}

Result<std::vector<Ciphertext>> RemoteModelProvider::Obfuscate(
    uint64_t request_id, size_t round, std::vector<Ciphertext> in) {
  return CallForCiphertexts(
      *channel_, MakeRequestFrame(WireMethod::kMpObfuscate, request_id, round,
                                  CiphertextPayload(in)));
}

Status RemoteModelProvider::ReleaseRequestState(uint64_t request_id) {
  PPS_ASSIGN_OR_RETURN(
      WireFrame response,
      channel_->RoundTrip(MakeRequestFrame(WireMethod::kMpReleaseRequestState,
                                           request_id, 0, {})));
  return FrameStatus(response);
}

RemoteDataProvider::RemoteDataProvider(std::shared_ptr<FrameChannel> channel,
                                       PaillierPublicKey public_key)
    : channel_(std::move(channel)), pk_(std::move(public_key)) {
  PPS_CHECK(channel_ != nullptr);
}

Result<std::vector<Ciphertext>> RemoteDataProvider::EncryptInput(
    const DoubleTensor& input) {
  return CallForCiphertexts(
      *channel_, MakeRequestFrame(WireMethod::kDpEncryptInput, 0, 0,
                                  SerializeDoubleTensor(input)));
}

Result<std::vector<Ciphertext>> RemoteDataProvider::EncryptInputParallel(
    const DoubleTensor& input, ThreadPool* pool) {
  (void)pool;  // the remote data provider parallelizes with its own pool
  return EncryptInput(input);
}

Result<std::vector<Ciphertext>> RemoteDataProvider::ProcessIntermediate(
    size_t round, const std::vector<Ciphertext>& in,
    std::vector<double>* decrypted_view, ThreadPool* pool) {
  if (decrypted_view != nullptr) {
    return Status::InvalidArgument(
        "leakage views require an in-process data provider: plaintext "
        "never crosses the wire");
  }
  (void)pool;
  return CallForCiphertexts(
      *channel_, MakeRequestFrame(WireMethod::kDpProcessIntermediate, 0,
                                  round, CiphertextPayload(in)));
}

Result<DoubleTensor> RemoteDataProvider::ProcessFinal(
    const std::vector<Ciphertext>& in, ThreadPool* pool) {
  (void)pool;
  PPS_ASSIGN_OR_RETURN(
      WireFrame response,
      channel_->RoundTrip(MakeRequestFrame(WireMethod::kDpProcessFinal, 0, 0,
                                           CiphertextPayload(in))));
  PPS_RETURN_IF_ERROR(FrameStatus(response));
  return DeserializeDoubleTensor(response.payload);
}

// ------------------------------------------------------------- transport

InProcessTransport::InProcessTransport(std::shared_ptr<ModelProvider> mp)
    : mp_(std::move(mp)) {
  PPS_CHECK(mp_ != nullptr);
  // Round-trip the weight-free view even in-process, so both deployments
  // construct their DataProvider from byte-identical plans.
  BufferWriter writer;
  mp_->plan().SerializeDataProviderView(&writer);
  const std::vector<uint8_t> bytes = writer.TakeBytes();
  BufferReader reader(bytes);
  Result<InferencePlan> view = InferencePlan::DeserializeDataProviderView(
      &reader);
  PPS_CHECK(view.ok()) << view.status().ToString();
  view_plan_ =
      std::make_shared<const InferencePlan>(std::move(view).value());
}

Result<std::shared_ptr<const InferencePlan>> ParseDataProviderView(
    const std::vector<uint8_t>& payload) {
  BufferReader reader(payload);
  PPS_ASSIGN_OR_RETURN(InferencePlan view,
                       InferencePlan::DeserializeDataProviderView(&reader));
  PPS_RETURN_IF_ERROR(CheckPayloadConsumed(reader, WireMethod::kHandshake));
  return std::make_shared<const InferencePlan>(std::move(view));
}

Result<std::shared_ptr<const InferencePlan>> HandshakeAsDataProvider(
    FrameChannel& channel, const PaillierPublicKey& pk) {
  BufferWriter writer;
  pk.Serialize(&writer);
  PPS_ASSIGN_OR_RETURN(
      WireFrame response,
      channel.RoundTrip(MakeRequestFrame(WireMethod::kHandshake, 0, 0,
                                         writer.TakeBytes())));
  PPS_RETURN_IF_ERROR(FrameStatus(response));
  return ParseDataProviderView(response.payload);
}

// ----------------------------------------------------- resilient channel

namespace {

std::vector<uint8_t> SerializePublicKey(const PaillierPublicKey& pk) {
  BufferWriter writer;
  pk.Serialize(&writer);
  return writer.TakeBytes();
}

/// Sleep bounded by the active DeadlineScope (never sleeps past it).
void BackoffSleep(double seconds) {
  seconds = std::min(seconds, std::max(0.0, DeadlineScope::RemainingSeconds()));
  if (seconds <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

Result<std::shared_ptr<ResilientTcpChannel>> ResilientTcpChannel::Dial(
    const std::string& host, uint16_t port, const PaillierPublicKey& pk,
    const TcpTransportOptions& options) {
  std::shared_ptr<ResilientTcpChannel> channel(
      // ppslint:allow(R5 make_shared cannot reach the private ctor; ownership transfers to the shared_ptr on the same line)
      new ResilientTcpChannel(host, port, pk, options));
  if (options.fault) channel->SetFaultInjector(options.fault);

  // Initial dial, paced by connect_retry — lets a client start before
  // its server finishes binding (reconnect_retry takes over once a
  // connection has ever been established).
  Rng rng(options.retry_seed);
  const double start = MonotonicSeconds();
  Status status = channel->EnsureConnected();
  for (int retry = 1; !status.ok() && retry <= options.connect_retry.max_retries;
       ++retry) {
    if (options.connect_retry.deadline_seconds > 0 &&
        MonotonicSeconds() - start >= options.connect_retry.deadline_seconds) {
      return Status::DeadlineExceeded(internal::StrCat(
          "could not connect to ", host, ":", port, " within ",
          options.connect_retry.deadline_seconds, "s: ", status.message()));
    }
    const double backoff = options.connect_retry.BackoffSeconds(retry, rng);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    status = channel->EnsureConnected();
  }
  PPS_RETURN_IF_ERROR(status);
  return channel;
}

ResilientTcpChannel::ResilientTcpChannel(std::string host, uint16_t port,
                                         PaillierPublicKey pk,
                                         const TcpTransportOptions& options)
    : host_(std::move(host)),
      port_(port),
      pk_(std::move(pk)),
      options_(options),
      breaker_(options.breaker),
      backoff_rng_(options.retry_seed ^ 0x5E55C4A1ULL) {}

void ResilientTcpChannel::Close() {
  socket_.Close();
  connected_ = false;
}

FrameStamp ResilientTcpChannel::Stamp(const WireFrame& request) {
  FrameStamp stamp;
  stamp.session_id = session_id_;
  // Pings are liveness probes, not protocol calls: they skip the
  // sequence stream so they never occupy reply-cache slots.
  if (!request.is_response && request.method != WireMethod::kPing) {
    stamp.sequence = ++next_sequence_;
  }
  stamp.deadline_micros = DeadlineScope::RemainingMicros();
  return stamp;
}

Status ResilientTcpChannel::HandshakeOnSocket(bool initial_dial) {
  WireFrame hello =
      MakeRequestFrame(WireMethod::kHandshake, 0, 0, SerializePublicKey(pk_));
  hello.session_id = session_id_;
  hello.session_request = session_id_ == 0;
  PPS_RETURN_IF_ERROR(SendFrameBytes(socket_, EncodeFrame(hello),
                                     options_.io_timeout_seconds));
  PPS_ASSIGN_OR_RETURN(WireFrame response,
                       RecvFrame(socket_, options_.io_timeout_seconds));
  if (!response.is_response || response.method != WireMethod::kHandshake) {
    return Status::ProtocolError("peer did not answer the handshake");
  }
  const Status status = FrameStatus(response);
  if (!status.ok()) {
    if (status.code() == StatusCode::kNotFound && session_id_ != 0) {
      // The server no longer knows our session (restart or eviction):
      // its permutations and our sequence history are gone. Clear the id
      // so the next handshake starts fresh, and tell the caller to
      // restart the inference.
      session_id_ = 0;
      session_id_atomic_.store(0, std::memory_order_relaxed);
      obs::MetricsRegistry::Global()
          .GetCounter("net.session.lost")
          ->Increment();
      return Status::NotFound(internal::StrCat(
          "session lost, restart the inference: ", status.message()));
    }
    return status;
  }
  if (view_payload_.empty()) {
    view_payload_ = response.payload;
  } else if (view_payload_ != response.payload) {
    // A resumed or re-handshaken connection must serve the same model.
    return Status::ProtocolError(
        "plan view changed across reconnect; refusing to resume");
  }
  session_id_ = response.session_id;
  session_id_atomic_.store(session_id_, std::memory_order_relaxed);
  if (!initial_dial) {
    // The resume-gating session id stays out of logs; whether a session
    // was resumed at all is the operationally interesting bit.
    PPS_SLOG(Info, "net.reconnected")
        .Kv("resumed", response.session_id != 0);
  }
  return Status::OK();
}

Status ResilientTcpChannel::EnsureConnected() {
  if (connected_) return Status::OK();
  if (DeadlineScope::Expired()) {
    return Status::DeadlineExceeded("request deadline expired before redial");
  }
  const double start = MonotonicSeconds();
  const bool initial_dial = !ever_connected_;
  PPS_ASSIGN_OR_RETURN(
      socket_,
      TcpSocket::Connect(host_, port_, options_.connect_timeout_seconds));
  const Status handshake = HandshakeOnSocket(initial_dial);
  if (!handshake.ok()) {
    socket_.Close();
    return handshake;
  }
  connected_ = true;
  ever_connected_ = true;
  if (!initial_dial) {
    reconnects_atomic_.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::Get().reconnects->Increment();
    NetMetrics::Get().reconnect_seconds->Record(MonotonicSeconds() - start);
    // A successful reconnect marks the end of an incident window — worth
    // a flight-recorder breadcrumb next to the failure that caused it.
    obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
    if (recorder.enabled()) {
      recorder.RecordEvent("net.reconnect", session_id_ != 0
                                                ? "session resumed"
                                                : "fresh handshake");
    }
  }
  return Status::OK();
}

bool ResilientTcpChannel::PeerAlive() {
  // Bounded and out-of-band: a throwaway connection and a ping frame.
  // The server answers pings before any handshake, so this works even
  // while our half-open session sits in its accept backlog.
  const double timeout = std::min(2.0, options_.connect_timeout_seconds);
  Result<TcpSocket> probe = TcpSocket::Connect(host_, port_, timeout);
  if (!probe.ok()) return false;
  NetMetrics::Get().pings->Increment();
  const WireFrame ping = MakeRequestFrame(WireMethod::kPing, 0, 0, {});
  if (!SendFrameBytes(*probe, EncodeFrame(ping),
                      std::min(2.0, options_.io_timeout_seconds))
           .ok()) {
    return false;
  }
  Result<WireFrame> pong =
      RecvFrame(*probe, std::min(2.0, options_.io_timeout_seconds));
  return pong.ok() && pong->is_response &&
         pong->method == WireMethod::kPing;
}

Status ResilientTcpChannel::Ping() {
  PPS_ASSIGN_OR_RETURN(
      WireFrame pong,
      RoundTrip(MakeRequestFrame(WireMethod::kPing, 0, 0, {})));
  NetMetrics::Get().pings->Increment();
  return FrameStatus(pong);
}

Result<std::vector<uint8_t>> ResilientTcpChannel::Exchange(
    std::vector<uint8_t> encoded_request) {
  Status last = Status::IoError("exchange never attempted");
  const int max_attempts = std::max(0, options_.reconnect_retry.max_retries);
  for (int attempt = 0; attempt <= max_attempts; ++attempt) {
    if (attempt > 0) {
      BackoffSleep(
          options_.reconnect_retry.BackoffSeconds(attempt, backoff_rng_));
    }
    if (DeadlineScope::Expired()) {
      return Status::DeadlineExceeded(internal::StrCat(
          "request deadline expired mid-call: ", last.message()));
    }
    if (!breaker_.Allow()) {
      return Status::Unavailable(internal::StrCat(
          "circuit breaker open to ", host_, ":", port_, " after: ",
          last.message()));
    }

    const Status conn = EnsureConnected();
    if (!conn.ok()) {
      if (conn.code() == StatusCode::kNotFound) {
        // Session lost is not retryable at this layer: the inference
        // must restart. The peer answered, so the breaker is healthy.
        breaker_.RecordSuccess();
        return conn;
      }
      breaker_.RecordFailure();
      last = conn;
      continue;
    }

    // Connected: everything past here is one physical wire attempt
    // (injected resets/truncations model that attempt dying on the wire).
    NetMetrics::Get().exchange_attempts->Increment();

    // Socket-level chaos, injected below the frame layer: stalls, RSTs,
    // and truncated frames the reconnect path must absorb.
    bool truncate = false;
    if (fault_ && fault_->enabled()) {
      fault_->Delay("net.sock.stall");
      const Status reset = fault_->Fail("net.sock.reset");
      if (!reset.ok()) {
        Close();
        breaker_.RecordFailure();
        last = Status::IoError(internal::StrCat(
            "injected connection reset: ", reset.message()));
        continue;
      }
      std::vector<uint8_t> coin{0};
      truncate = fault_->Corrupt("net.sock.truncate", coin);
    }
    if (truncate) {
      const size_t half = encoded_request.size() / 2;
      (void)socket_.SendAll(encoded_request.data(), half,
                            options_.io_timeout_seconds);
      Close();  // the peer sees a frame cut off mid-stream
      breaker_.RecordFailure();
      last = Status::IoError("injected truncated frame");
      continue;
    }

    const Status sent = SendFrameBytes(socket_, encoded_request,
                                       options_.io_timeout_seconds);
    if (!sent.ok()) {
      Close();
      breaker_.RecordFailure();
      last = sent;
      continue;
    }
    Result<std::vector<uint8_t>> response =
        RecvFrameBytes(socket_, options_.io_timeout_seconds);
    if (response.ok()) {
      breaker_.RecordSuccess();
      return response;
    }
    last = response.status();
    Close();
    if (last.code() == StatusCode::kDeadlineExceeded && PeerAlive()) {
      // Slow, not dead: keep the breaker closed and let the retry loop
      // (and the caller's deadline) decide how long to keep waiting.
      continue;
    }
    breaker_.RecordFailure();
  }
  return Status(last.code(),
                internal::StrCat(last.message(), " (after ", max_attempts + 1,
                                 " attempts)"));
}

// ------------------------------------------------------------- transport

TcpTransport::TcpTransport(std::shared_ptr<FrameChannel> channel,
                           std::shared_ptr<const InferencePlan> view_plan)
    : channel_(std::move(channel)), view_plan_(std::move(view_plan)) {
  mp_ = std::make_shared<RemoteModelProvider>(channel_, view_plan_);
}

Result<std::unique_ptr<TcpTransport>> TcpTransport::Connect(
    const std::string& host, uint16_t port, const PaillierPublicKey& pk,
    const TcpTransportOptions& options) {
  if (options.enable_session_resume) {
    PPS_ASSIGN_OR_RETURN(std::shared_ptr<ResilientTcpChannel> channel,
                         ResilientTcpChannel::Dial(host, port, pk, options));
    PPS_ASSIGN_OR_RETURN(std::shared_ptr<const InferencePlan> view,
                         ParseDataProviderView(channel->view_payload()));
    return std::unique_ptr<TcpTransport>(
        // ppslint:allow(R5 make_unique cannot reach the private ctor; ownership transfers to the unique_ptr on the same line)
        new TcpTransport(std::move(channel), std::move(view)));
  }

  Rng rng(options.retry_seed);
  const double start = MonotonicSeconds();
  Result<TcpSocket> sock =
      TcpSocket::Connect(host, port, options.connect_timeout_seconds);
  for (int retry = 1;
       !sock.ok() && retry <= options.connect_retry.max_retries; ++retry) {
    if (options.connect_retry.deadline_seconds > 0 &&
        MonotonicSeconds() - start >= options.connect_retry.deadline_seconds) {
      return Status::DeadlineExceeded(internal::StrCat(
          "could not connect to ", host, ":", port, " within ",
          options.connect_retry.deadline_seconds, "s: ",
          sock.status().message()));
    }
    const double backoff = options.connect_retry.BackoffSeconds(retry, rng);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    sock = TcpSocket::Connect(host, port, options.connect_timeout_seconds);
  }
  if (!sock.ok()) return sock.status();

  auto channel = std::make_shared<TcpFrameChannel>(std::move(sock).value(),
                                                   options.io_timeout_seconds);
  if (options.fault) channel->SetFaultInjector(options.fault);
  PPS_ASSIGN_OR_RETURN(std::shared_ptr<const InferencePlan> view,
                       HandshakeAsDataProvider(*channel, pk));
  return std::unique_ptr<TcpTransport>(
      // ppslint:allow(R5 make_unique cannot reach the private ctor; ownership transfers to the unique_ptr on the same line)
      new TcpTransport(std::move(channel), std::move(view)));
}

// ----------------------------------------------------- resilient driver

namespace {

/// Failures worth a whole-inference restart: the transport (or the
/// peer's session state) died, not the computation itself.
bool RestartableFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kIoError:      // connection died past resume retries
    case StatusCode::kUnavailable:  // breaker open / server draining
    case StatusCode::kNotFound:     // session lost (server restarted)
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<DoubleTensor> RunResilientInference(
    ModelProviderApi& mp, DataProviderApi& dp, uint64_t request_id,
    const DoubleTensor& input, const ResilientInferenceOptions& options) {
  Rng rng(options.retry_seed ^ request_id);
  const double start = MonotonicSeconds();
  Status last = Status::OK();
  const int max_restarts = std::max(0, options.restart.max_retries);
  for (int attempt = 0; attempt <= max_restarts; ++attempt) {
    if (attempt > 0) {
      NetMetrics::Get().inference_restarts->Increment();
      const double backoff = options.restart.BackoffSeconds(attempt, rng);
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
    }
    double budget = 0;
    if (options.deadline_seconds > 0) {
      budget = options.deadline_seconds - (MonotonicSeconds() - start);
      if (budget <= 0) {
        return Status::DeadlineExceeded(internal::StrCat(
            "inference deadline of ", options.deadline_seconds,
            "s expired after ", attempt, " attempt(s): ", last.message()));
      }
    }
    DeadlineScope scope(budget);
    // Restarts run under a derived request id: the failed attempt's
    // release (RunProtocolInference drops state on failure) may not have
    // reached a surviving server, and the two must never alias. Bit-exactness is unaffected — the output
    // is invariant to permutation and randomizer choices.
    const uint64_t effective_id =
        attempt == 0 ? request_id
                     : request_id ^ (0xA77E000000000000ULL +
                                     (static_cast<uint64_t>(attempt) << 48));
    Result<DoubleTensor> out =
        RunProtocolInference(mp, dp, effective_id, input);
    if (out.ok()) return out;
    last = out.status();
    if (!RestartableFailure(last)) return last;
    PPS_SLOG(Warn, "net.inference_restart")
        .Kv("request", request_id)
        .Kv("attempt", attempt + 1)
        .Kv("error", last.ToString());
  }
  return Status(last.code(),
                internal::StrCat(last.message(), " (after ", max_restarts + 1,
                                 " inference attempts)"));
}

}  // namespace ppstream
