// Tests for the observability layer (src/obs/): histogram bucket and
// quantile math, concurrent metric updates, trace-context propagation
// across the in-process and TCP transports (client and server spans must
// stitch into one trace with correct parenting), exporter output, the
// Prometheus linter, and the randomizer pool's refill accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/protocol.h"
#include "crypto/randomizer_pool.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"
#include "nn/layers.h"
#include "nn/model_zoo.h"
#include "obs/admin.h"
#include "obs/cost.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/engine.h"
#include "util/rng.h"

namespace ppstream {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::ScopedSpan;
using obs::SpanRecord;
using obs::TraceContext;
using obs::Tracer;

// ----------------------------------------------------------- histograms

TEST(HistogramTest, BucketBoundariesAreExactPowersOfTwo) {
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), obs::kHistogramMinBound);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(1),
                   2 * obs::kHistogramMinBound);
  EXPECT_TRUE(
      std::isinf(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1)));

  for (size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    const double bound = Histogram::BucketUpperBound(i);
    // Upper bounds are inclusive; the next representable value above the
    // bound belongs to the next bucket.
    EXPECT_EQ(Histogram::BucketIndex(bound), i) << "bound " << bound;
    EXPECT_EQ(Histogram::BucketIndex(std::nextafter(bound, 1e300)), i + 1)
        << "just above bound " << bound;
  }
}

TEST(HistogramTest, TinyZeroAndNegativeLandInFirstBucket) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-1.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(obs::kHistogramMinBound / 2), 0u);
}

TEST(HistogramTest, OverflowLandsInLastBucket) {
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
  Histogram h;
  h.Record(1e9);
  EXPECT_EQ(h.BucketCount(Histogram::kNumBuckets - 1), 1u);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1e9);  // clamped to the exact max
}

TEST(HistogramTest, QuantilesResolveToBucketBoundsClampedToMax) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0);  // empty
  EXPECT_DOUBLE_EQ(h.Mean(), 0);

  for (int i = 0; i < 50; ++i) h.Record(1e-3);
  for (int i = 0; i < 50; ++i) h.Record(1e-1);
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Max(), 1e-1);
  EXPECT_NEAR(h.Mean(), (50 * 1e-3 + 50 * 1e-1) / 100.0, 1e-12);

  // p50 is the upper bound of 1e-3's bucket: 1e-7 * 2^14 = 1.6384e-3.
  const double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 1e-3);
  EXPECT_DOUBLE_EQ(p50, Histogram::BucketUpperBound(
                            Histogram::BucketIndex(1e-3)));
  // p95 falls in 1e-1's bucket, clamped to the exact max.
  EXPECT_DOUBLE_EQ(h.Quantile(0.95), 1e-1);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1e-1);
  // q=0 still returns the first sample's bucket, never a negative rank.
  EXPECT_GT(h.Quantile(0.0), 0);
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram h;
  h.Record(0.5);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0);
  EXPECT_DOUBLE_EQ(h.Max(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0);
}

// ---------------------------------------------------------- concurrency

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Handle lookup races with other threads' lookups of the same name.
      obs::Counter* c = registry.GetCounter("test.contended");
      obs::Histogram* h = registry.GetHistogram("test.contended_hist");
      for (int i = 0; i < kIncrements; ++i) {
        c->Increment();
        h->Record(1e-4);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("test.contended")->Value(),
            uint64_t{kThreads} * kIncrements);
  EXPECT_EQ(registry.GetHistogram("test.contended_hist")->Count(),
            uint64_t{kThreads} * kIncrements);
}

TEST(MetricsRegistryTest, HandlesAreStableAndResetKeepsThem) {
  MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("a.b");
  c->Increment(3);
  EXPECT_EQ(registry.GetCounter("a.b"), c);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  EXPECT_EQ(registry.GetCounter("a.b")->Value(), 1u);
}

TEST(MetricsRegistryTest, PrefixFilteringAndSorting) {
  MetricsRegistry registry;
  registry.GetCounter("stage.b.messages")->Increment(2);
  registry.GetCounter("stage.a.messages")->Increment(1);
  registry.GetCounter("crypto.encrypts")->Increment(9);
  const auto stage = registry.CounterValues("stage.");
  ASSERT_EQ(stage.size(), 2u);
  EXPECT_EQ(stage[0].first, "stage.a.messages");
  EXPECT_EQ(stage[1].first, "stage.b.messages");
}

// ------------------------------------------------------------ exporters

TEST(PrometheusTest, MetricNameSanitization) {
  EXPECT_EQ(obs::PrometheusMetricName("stage.dp-encrypt.attempt_seconds"),
            "pps_stage_dp_encrypt_attempt_seconds");
  EXPECT_EQ(obs::PrometheusMetricName("net.bytes_sent"),
            "pps_net_bytes_sent");
}

TEST(PrometheusTest, ExportIsWellFormedAndCompleteForAllKinds) {
  MetricsRegistry registry;
  registry.GetCounter("crypto.encrypts")->Increment(7);
  registry.GetGauge("crypto.pool.available")->Set(12.5);
  registry.GetHistogram("stage.s.attempt_seconds")->Record(2e-3);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE pps_crypto_encrypts counter"),
            std::string::npos);
  EXPECT_NE(text.find("pps_crypto_encrypts 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pps_crypto_pool_available gauge"),
            std::string::npos);
  EXPECT_NE(text.find("pps_crypto_pool_available 12.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pps_stage_s_attempt_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("pps_stage_s_attempt_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pps_stage_s_attempt_seconds_count 1"),
            std::string::npos);

  const Status lint = obs::CheckPrometheusText(text);
  EXPECT_TRUE(lint.ok()) << lint.ToString();
}

TEST(PrometheusTest, LinterRejectsMalformedExpositions) {
  // Sample without a preceding # TYPE.
  EXPECT_FALSE(obs::CheckPrometheusText("pps_orphan 1\n").ok());
  // Bad metric name (leading digit).
  EXPECT_FALSE(
      obs::CheckPrometheusText("# TYPE 9bad counter\n9bad 1\n").ok());
  // Non-numeric value.
  EXPECT_FALSE(obs::CheckPrometheusText(
                   "# TYPE pps_x counter\npps_x banana\n")
                   .ok());
  // Unterminated label set.
  EXPECT_FALSE(obs::CheckPrometheusText(
                   "# TYPE pps_x counter\npps_x{le=\"1\" 3\n")
                   .ok());
  // Unknown type keyword.
  EXPECT_FALSE(
      obs::CheckPrometheusText("# TYPE pps_x matrix\npps_x 1\n").ok());
  // Valid +Inf value passes.
  EXPECT_TRUE(obs::CheckPrometheusText(
                  "# TYPE pps_h histogram\npps_h_bucket{le=\"+Inf\"} 2\n"
                  "pps_h_sum 0.5\npps_h_count 2\n")
                  .ok());
}

TEST(ChromeTraceTest, JsonCarriesSpanIdentityAndTiming) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  uint64_t trace_id = 0;
  {
    ScopedSpan root = ScopedSpan::Root("request", "request", 42);
    trace_id = root.context().trace_id;
    ScopedSpan child("crypto.encrypt_batch", "crypto", 42);
  }
  tracer.SetEnabled(false);

  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);  // child recorded first (inner scope)
  EXPECT_EQ(spans[0].name, "crypto.encrypt_batch");
  EXPECT_EQ(spans[1].name, "request");
  EXPECT_EQ(spans[0].trace_id, trace_id);
  EXPECT_EQ(spans[0].parent_span_id, spans[1].span_id);
  EXPECT_EQ(spans[1].parent_span_id, 0u);

  std::ostringstream out;
  tracer.WriteChromeJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"crypto.encrypt_batch\""),
            std::string::npos);
  EXPECT_NE(json.find("\"request_id\":42"), std::string::npos);
  tracer.Clear();
}

TEST(TracerTest, DisabledSpansAreInertAndIdsAreNonzero) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(false);
  {
    ScopedSpan root = ScopedSpan::Root("request");
    EXPECT_FALSE(root.active());
    EXPECT_FALSE(obs::CurrentTraceContext().active());
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(tracer.NewTraceId(), 0u);
  }
}

TEST(TracerTest, CapacityBoundsBufferAndCountsDrops) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.SetCapacity(4);
  tracer.SetEnabled(true);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan root = ScopedSpan::Root("burst");
  }
  tracer.SetEnabled(false);
  EXPECT_EQ(tracer.Snapshot().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  tracer.Clear();
  tracer.SetCapacity(size_t{1} << 16);
}

// --------------------------------------- trace propagation (transports)

class ObsNetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(7);
    auto pair = Paillier::GenerateKeyPair(256, rng);
    ASSERT_TRUE(pair.ok());
    keys_ = new PaillierKeyPair(std::move(pair).value());

    Rng mrng(8);
    Model model(Shape{4}, "obs-net");
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

  void SetUp() override {
    Tracer::Global().Clear();
    Tracer::Global().SetEnabled(true);
  }
  void TearDown() override {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Clear();
  }

  static DoubleTensor MakeInput(uint64_t seed) {
    Rng rng(seed);
    DoubleTensor x{Shape{4}};
    for (int64_t j = 0; j < 4; ++j) x[j] = rng.NextUniform(-2, 2);
    return x;
  }

  /// Asserts the collected spans form ONE stitched trace: a single trace
  /// id, exactly one root, and every parent id resolving to a recorded
  /// span of the same trace.
  static void CheckSingleStitchedTrace(const std::vector<SpanRecord>& spans) {
    ASSERT_FALSE(spans.empty());
    std::set<uint64_t> trace_ids;
    std::set<uint64_t> span_ids;
    for (const SpanRecord& s : spans) {
      trace_ids.insert(s.trace_id);
      EXPECT_NE(s.span_id, 0u);
      EXPECT_TRUE(span_ids.insert(s.span_id).second)
          << "duplicate span id for " << s.name;
    }
    EXPECT_EQ(trace_ids.size(), 1u) << "spans split across traces";
    size_t roots = 0;
    for (const SpanRecord& s : spans) {
      if (s.parent_span_id == 0) {
        ++roots;
        continue;
      }
      EXPECT_TRUE(span_ids.count(s.parent_span_id))
          << s.name << " has an unresolved parent";
    }
    EXPECT_EQ(roots, 1u);
  }

  static size_t CountByName(const std::vector<SpanRecord>& spans,
                            std::string_view prefix) {
    size_t n = 0;
    for (const SpanRecord& s : spans) {
      if (s.name.compare(0, prefix.size(), prefix) == 0) ++n;
    }
    return n;
  }

  static PaillierKeyPair* keys_;
  static std::shared_ptr<const InferencePlan>* plan_;
};

PaillierKeyPair* ObsNetTest::keys_ = nullptr;
std::shared_ptr<const InferencePlan>* ObsNetTest::plan_ = nullptr;

TEST_F(ObsNetTest, InProcessChannelStitchesClientAndServerSpans) {
  auto local_mp =
      std::make_shared<ModelProvider>(*plan_, keys_->public_key, 21);
  auto channel = std::make_shared<InProcessFrameChannel>(
      [local_mp](const WireFrame& request) {
        return DispatchModelProviderFrame(*local_mp, request);
      });
  RemoteModelProvider mp(channel, *plan_);
  DataProvider dp(*plan_, *keys_, 23);

  auto output = RunProtocolInference(mp, dp, /*request_id=*/1,
                                     MakeInput(31));
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  const auto spans = Tracer::Global().Snapshot();
  CheckSingleStitchedTrace(spans);
  // Client-side net spans and dispatcher-side rpc spans both present, and
  // every rpc span's parent is the matching net span.
  EXPECT_GT(CountByName(spans, "net."), 0u);
  EXPECT_GT(CountByName(spans, "rpc."), 0u);
  EXPECT_GT(CountByName(spans, "crypto."), 0u);
  std::set<uint64_t> net_ids;
  for (const SpanRecord& s : spans) {
    if (s.name.compare(0, 4, "net.") == 0) net_ids.insert(s.span_id);
  }
  for (const SpanRecord& s : spans) {
    if (s.name.compare(0, 4, "rpc.") == 0) {
      EXPECT_TRUE(net_ids.count(s.parent_span_id))
          << s.name << " does not parent under a net span";
    }
  }
}

TEST_F(ObsNetTest, TcpLoopbackInferenceProducesOneStitchedTrace) {
  ModelProviderServerOptions server_options;
  server_options.worker_threads = 2;
  ModelProviderTcpServer server(*plan_, server_options);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread server_thread(
      [&server] { ASSERT_TRUE(server.ServeOne(10.0).ok()); });

  auto transport = TcpTransport::Connect("127.0.0.1", server.port(),
                                         keys_->public_key);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();

  DataProvider dp(transport.value()->view_plan(), *keys_, 103);
  auto output = RunProtocolInference(*transport.value()->model_provider(),
                                     dp, /*request_id=*/7, MakeInput(111));
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  transport.value().reset();  // hang up so the server thread exits
  server_thread.join();

  // Both processes' worth of spans land in the same (process-shared)
  // tracer here; the trace block in the wire header is what connects the
  // server-side rpc spans to the client's net spans.
  const auto spans = Tracer::Global().Snapshot();
  CheckSingleStitchedTrace(spans);
  EXPECT_GT(CountByName(spans, "net."), 0u);
  EXPECT_GT(CountByName(spans, "rpc."), 0u);
}

TEST_F(ObsNetTest, UntracedTcpFramesAreBitIdenticalToWireV1) {
  Tracer::Global().SetEnabled(false);  // this test wants v1 frames
  const WireFrame frame = MakeRequestFrame(WireMethod::kMpProcessRound,
                                           /*request_id=*/5, /*round=*/0,
                                           {1, 2, 3});
  const auto bytes = EncodeFrame(frame);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + 3);
  auto version = PeekFrameVersion(bytes.data(), bytes.size());
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), kWireVersion);

  // Traced frames grow by exactly the 16-byte trace block and decode back
  // to the same logical frame plus trace identity.
  const auto traced = EncodeFrameWithTrace(frame, 0xAAAA, 0xBBBB);
  EXPECT_EQ(traced.size(), bytes.size() + kFrameTraceBytes);
  // The v1 prefix up to the version field and after it is unchanged.
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.begin() + 4, traced.begin()));
  auto back = DecodeFrame(traced);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->version, kWireVersionTraced);
  EXPECT_EQ(back->trace_id, 0xAAAAu);
  EXPECT_EQ(back->parent_span_id, 0xBBBBu);
  EXPECT_EQ(back->payload, frame.payload);

  // Responses echo the request's trace block.
  auto request = DecodeFrame(traced);
  ASSERT_TRUE(request.ok());
  const WireFrame response = MakeResponseFrame(*request, {9});
  EXPECT_EQ(response.trace_id, 0xAAAAu);
  EXPECT_EQ(response.parent_span_id, 0xBBBBu);
}

TEST_F(ObsNetTest, EngineTraceRootsEveryStageSpan) {
  auto mp = std::make_shared<ModelProvider>(*plan_, keys_->public_key, 41);
  auto dp = std::make_shared<DataProvider>(*plan_, *keys_, 43);
  EngineConfig config;
  config.stage_threads = {1, 1, 1, 1, 1};
  PpStreamEngine engine(mp, dp, config);
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.Submit(1, MakeInput(100)).ok());
  ASSERT_TRUE(engine.NextResult().ok());
  engine.Shutdown();

  const auto spans = Tracer::Global().Snapshot();
  CheckSingleStitchedTrace(spans);
  // One "request" root plus one span per pipeline stage, each a direct
  // child of the root.
  uint64_t root_span = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "request") root_span = s.span_id;
  }
  ASSERT_NE(root_span, 0u);
  size_t stage_spans = 0;
  for (const SpanRecord& s : spans) {
    if (s.name.compare(0, 6, "stage.") == 0) {
      ++stage_spans;
      EXPECT_EQ(s.parent_span_id, root_span) << s.name;
    }
  }
  EXPECT_EQ(stage_spans, 5u);
}

// -------------------------------------------------- stage metric deltas

TEST(StageMetricsTest, SequentialStagesWithSameNameSeeOwnCounts) {
  auto passthrough = [](StreamMessage msg, ThreadPool&)
      -> Result<StreamMessage> { return msg; };
  for (int run = 0; run < 2; ++run) {
    Stage stage("obs-delta-stage", 1, passthrough);
    Channel<StreamMessage> in(4);
    Channel<StreamMessage> out(4);
    stage.Start(&in, &out);
    const int n = 2 + run;
    for (int i = 0; i < n; ++i) {
      StreamMessage msg;
      msg.request_id = static_cast<uint64_t>(i);
      msg.payload = {1, 2, 3};
      ASSERT_TRUE(in.Send(std::move(msg)));
    }
    in.Close();
    stage.Join();
    // The registry accumulates across runs; metrics() reports only this
    // instance's delta.
    EXPECT_EQ(stage.metrics().messages_processed, static_cast<uint64_t>(n));
    EXPECT_EQ(stage.metrics().errors, 0u);
  }
}

// ----------------------------------------------- randomizer pool refill

TEST(RandomizerPoolObsTest, BackgroundRefillKeepsPoolAboveLowWater) {
  Rng rng(5);
  auto pair = Paillier::GenerateKeyPair(256, rng);
  ASSERT_TRUE(pair.ok());

  RandomizerPool::Options options;
  options.capacity = 16;
  options.low_water = 8;
  options.background_refill = true;
  RandomizerPool pool(pair->public_key, /*seed=*/77, options);
  pool.Fill();
  ASSERT_EQ(pool.available(), 16u);

  // Sustained draw: drain below low-water repeatedly; the background
  // thread must top the pool back up each time.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 12; ++i) (void)pool.Take();
    const double deadline = obs::MonotonicSeconds() + 30.0;
    while (pool.available() < options.low_water &&
           obs::MonotonicSeconds() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(pool.available(), options.low_water)
        << "refill thread never restored low water (round " << round << ")";
  }

  // A refill pass only counts once it tops the pool up to full capacity,
  // which can land well after available() crosses low-water when the
  // modexp is slow (sanitizer builds) — wait for the pass, not the level.
  const double refill_deadline = obs::MonotonicSeconds() + 30.0;
  while (pool.stats().refills == 0 &&
         obs::MonotonicSeconds() < refill_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const RandomizerPool::Stats stats = pool.stats();
  EXPECT_GT(stats.refills, 0u);
  EXPECT_GT(stats.hits, 0u);
  // The registry mirror aggregates across pools, so it is at least this
  // instance's totals.
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_GE(registry.GetCounter("crypto.pool.refills")->Value(),
            stats.refills);
  EXPECT_GE(registry.GetCounter("crypto.pool.hits")->Value(), stats.hits);
  EXPECT_GE(registry.GetCounter("crypto.pool.produced")->Value(),
            stats.produced);
}

// ------------------------------------------- per-request cost attribution

TEST(CostIntervalTest, DisjointComponentsNestWithoutContention) {
  // The loopback topology: a client-side interval mutating only encrypts
  // encloses a server-side dispatch interval mutating only scalar muls.
  obs::CostInterval outer(obs::kCostEncrypts);
  {
    obs::CostInterval inner(obs::kCostScalarMuls);
    inner.End();
    EXPECT_EQ(inner.contended_mask(), 0u);
  }
  outer.End();
  EXPECT_EQ(outer.contended_mask(), 0u);
  EXPECT_FALSE(outer.contended());
}

TEST(CostIntervalTest, SameComponentOverlapMarksBothContended) {
  obs::CostInterval first(obs::kCostScalarMuls);
  obs::CostInterval second(obs::kCostScalarMuls);
  second.End();
  first.End();
  EXPECT_EQ(first.contended_mask(), obs::kCostScalarMuls);
  EXPECT_EQ(second.contended_mask(), obs::kCostScalarMuls);
  // A later interval with the sets drained again is clean.
  obs::CostInterval third(obs::kCostScalarMuls);
  third.End();
  EXPECT_EQ(third.contended_mask(), 0u);
}

TEST(CostLedgerTest, OverrunFiresOnMispricedBudget) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Counter* overrun = registry.GetCounter("cost.overrun");
  obs::Counter* reconciled = registry.GetCounter("cost.reconciled");
  const uint64_t overrun0 = overrun->Value();
  const uint64_t reconciled0 = reconciled->Value();
  {
    // A plan that claims 10 scalar muls against work that does 100: the
    // mispriced-plan negative case.
    obs::RequestCostLedger ledger(/*request_id=*/71,
                                  obs::RequestCostBudget{0, 10});
    registry.GetCounter("crypto.scalar_muls")->Increment(100);
    ledger.Finish(/*success=*/true);
    EXPECT_FALSE(ledger.contended());
    EXPECT_NEAR(ledger.scalar_mul_ratio(), 10.0, 1e-9);
  }
  EXPECT_EQ(overrun->Value(), overrun0 + 1);
  EXPECT_EQ(reconciled->Value(), reconciled0 + 1);
}

TEST(CostLedgerTest, FailedRequestRecordsNothing) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Counter* reconciled = registry.GetCounter("cost.reconciled");
  obs::Counter* overrun = registry.GetCounter("cost.overrun");
  const uint64_t reconciled0 = reconciled->Value();
  const uint64_t overrun0 = overrun->Value();
  {
    obs::RequestCostLedger ledger(/*request_id=*/72,
                                  obs::RequestCostBudget{0, 1});
    registry.GetCounter("crypto.scalar_muls")->Increment(50);
    // No Finish(true): the destructor finishes as a failure.
  }
  EXPECT_EQ(reconciled->Value(), reconciled0);
  EXPECT_EQ(overrun->Value(), overrun0);
}

TEST(CostLedgerTest, ContendedSampleIsSkippedNotMispriced) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Counter* skips = registry.GetCounter("cost.contended_skips");
  obs::Counter* reconciled = registry.GetCounter("cost.reconciled");
  const uint64_t skips0 = skips->Value();
  const uint64_t reconciled0 = reconciled->Value();
  {
    obs::RequestCostLedger a(/*request_id=*/73,
                             obs::RequestCostBudget{0, 10});
    obs::RequestCostLedger b(/*request_id=*/74,
                             obs::RequestCostBudget{0, 10});
    registry.GetCounter("crypto.scalar_muls")->Increment(20);
    b.Finish(/*success=*/true);
    a.Finish(/*success=*/true);
    EXPECT_TRUE(a.contended());
    EXPECT_TRUE(b.contended());
  }
  EXPECT_EQ(skips->Value(), skips0 + 2);
  EXPECT_EQ(reconciled->Value(), reconciled0);
}

/// MNIST-2, trained and compiled once: the acceptance model for the
/// measured-vs-expected reconciliation band.
class CostMnist2Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSplit data = MakeZooDataset(ZooModelId::kMnist2,
                                       /*size_scale=*/0.005, /*seed=*/3);
    auto model = MakeTrainedZooModel(ZooModelId::kMnist2, data.train, 4);
    PPS_CHECK_OK(model.status());
    input_ = new DoubleTensor(data.test.samples.at(0));

    Rng rng(11);
    auto pair = Paillier::GenerateKeyPair(256, rng);
    PPS_CHECK_OK(pair.status());
    keys_ = new PaillierKeyPair(std::move(pair).value());

    auto plan = CompilePlan(model.value(), /*scale=*/10000);
    PPS_CHECK_OK(plan.status());
    plan_ = new std::shared_ptr<const InferencePlan>(
        std::make_shared<const InferencePlan>(std::move(plan).value()));
    PPS_CHECK_OK((*plan_)->CheckFitsKey(keys_->public_key.n()));

    CompileOptions pack_opts;
    pack_opts.packing = planner::PackingSpec{};
    pack_opts.packing->key_bits = 256;
    auto packed = CompilePlan(model.value(), /*scale=*/10000, pack_opts);
    PPS_CHECK_OK(packed.status());
    packed_plan_ = new std::shared_ptr<const InferencePlan>(
        std::make_shared<const InferencePlan>(std::move(packed).value()));
    PPS_CHECK_OK((*packed_plan_)->CheckFitsKey(keys_->public_key.n()));
  }
  static void TearDownTestSuite() {
    delete input_;
    delete keys_;
    delete plan_;
    delete packed_plan_;
  }

  static DoubleTensor* input_;
  static PaillierKeyPair* keys_;
  static std::shared_ptr<const InferencePlan>* plan_;
  static std::shared_ptr<const InferencePlan>* packed_plan_;
};

DoubleTensor* CostMnist2Test::input_ = nullptr;
PaillierKeyPair* CostMnist2Test::keys_ = nullptr;
std::shared_ptr<const InferencePlan>* CostMnist2Test::plan_ = nullptr;
std::shared_ptr<const InferencePlan>* CostMnist2Test::packed_plan_ = nullptr;

TEST_F(CostMnist2Test, ScalarRequestReconcilesWithinFivePercent) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const obs::RequestCostBudget budget = ExpectedRequestCost(**plan_);
  ASSERT_GT(budget.scalar_muls, 0u);
  ASSERT_GT(budget.encrypts, 0u);
  obs::Counter* reconciled = registry.GetCounter("cost.reconciled");
  obs::Counter* overrun = registry.GetCounter("cost.overrun");
  const obs::Histogram* ratio_hist =
      registry.GetHistogram("cost.scalar_mul_ratio");
  const uint64_t reconciled0 = reconciled->Value();
  const uint64_t overrun0 = overrun->Value();
  const uint64_t hist_count0 = ratio_hist->Count();
  const double hist_sum0 = ratio_hist->Sum();

  ModelProvider mp(*plan_, keys_->public_key, /*obf_seed=*/301);
  DataProvider dp(*plan_, *keys_, /*enc_seed=*/302);
  const obs::CryptoCostSnapshot before = obs::CryptoCostSnapshot::Capture();
  auto out = RunProtocolInference(mp, dp, /*request_id=*/81, *input_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const obs::CryptoCostSnapshot delta =
      obs::CryptoCostSnapshot::Capture() - before;

  const double mul_ratio = static_cast<double>(delta.scalar_muls) /
                           static_cast<double>(budget.scalar_muls);
  const double enc_ratio = static_cast<double>(delta.encrypts) /
                           static_cast<double>(budget.encrypts);
  EXPECT_GE(mul_ratio, 0.95);
  EXPECT_LE(mul_ratio, 1.05);
  EXPECT_GE(enc_ratio, 0.95);
  EXPECT_LE(enc_ratio, 1.05);
  // The driver's own ledger must have reconciled the same sample into
  // the exported families, without an overrun.
  EXPECT_EQ(reconciled->Value(), reconciled0 + 1);
  EXPECT_EQ(overrun->Value(), overrun0);
  EXPECT_EQ(ratio_hist->Count(), hist_count0 + 1);
  EXPECT_NEAR(ratio_hist->Sum() - hist_sum0, mul_ratio, 1e-9);
}

TEST_F(CostMnist2Test, PackedBatchReconcilesWithinFivePercent) {
  const int64_t lanes = (*packed_plan_)->PackedBatchLanes();
  ASSERT_GE(lanes, 2);
  const int64_t batch = std::min<int64_t>(lanes, 4);
  std::vector<DoubleTensor> inputs(static_cast<size_t>(batch), *input_);
  const obs::RequestCostBudget budget =
      ExpectedRequestCost(**packed_plan_, batch);
  ASSERT_GT(budget.scalar_muls, 0u);
  ASSERT_GT(budget.encrypts, 0u);

  ModelProvider mp(*packed_plan_, keys_->public_key, /*obf_seed=*/303);
  DataProvider dp(*packed_plan_, *keys_, /*enc_seed=*/304);
  const obs::CryptoCostSnapshot before = obs::CryptoCostSnapshot::Capture();
  auto outs = RunPackedBatchInference(mp, dp, /*request_id=*/82, inputs);
  ASSERT_TRUE(outs.ok()) << outs.status().ToString();
  const obs::CryptoCostSnapshot delta =
      obs::CryptoCostSnapshot::Capture() - before;

  const double mul_ratio = static_cast<double>(delta.scalar_muls) /
                           static_cast<double>(budget.scalar_muls);
  const double enc_ratio = static_cast<double>(delta.encrypts) /
                           static_cast<double>(budget.encrypts);
  EXPECT_GE(mul_ratio, 0.95);
  EXPECT_LE(mul_ratio, 1.05);
  EXPECT_GE(enc_ratio, 0.95);
  EXPECT_LE(enc_ratio, 1.05);
}

// -------------------------------------------------------- admin endpoint

namespace admin_http {

/// One-shot HTTP/1.0 GET; the endpoint closes after the response, so EOF
/// delimits it.
std::string Get(uint16_t port, const std::string& target) {
  auto sock = TcpSocket::Connect("127.0.0.1", port, 5.0);
  PPS_CHECK_OK(sock.status());
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  PPS_CHECK_OK(sock->SendAll(reinterpret_cast<const uint8_t*>(request.data()),
                             request.size(), 5.0));
  std::string response;
  uint8_t buf[2048];
  for (;;) {
    auto n = sock->RecvSome(buf, sizeof(buf), 5.0);
    if (!n.ok()) break;
    response.append(reinterpret_cast<const char*>(buf), *n);
  }
  return response;
}

std::string Body(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  PPS_CHECK(split != std::string::npos);
  return response.substr(split + 4);
}

}  // namespace admin_http

TEST(AdminRouteTest, EdgeRequestsGetPreciseErrorCodes) {
  obs::AdminServer admin;  // routing needs no socket
  EXPECT_EQ(admin.RouteRequest("GET /nope HTTP/1.0").substr(0, 16),
            "HTTP/1.0 404 Not");
  EXPECT_EQ(admin.RouteRequest("complete garbage").substr(0, 12),
            "HTTP/1.0 400");
  EXPECT_EQ(admin.RouteRequest("POST /metrics HTTP/1.0").substr(0, 12),
            "HTTP/1.0 400");
  EXPECT_EQ(admin.RouteRequest("GET /metrics").substr(0, 12),
            "HTTP/1.0 400");  // no HTTP version token
  EXPECT_EQ(admin
                .RouteRequest(std::string(obs::AdminServer::kMaxRequestBytes,
                                          'x'),
                              /*oversized=*/true)
                .substr(0, 12),
            "HTTP/1.0 431");
  // /metrics routes through CheckedPrometheusText even with no state.
  const std::string metrics = admin.RouteRequest("GET /metrics HTTP/1.0");
  EXPECT_EQ(metrics.substr(0, 12), "HTTP/1.0 200");
  // /debug/flightrec without a provider is absent, not empty.
  EXPECT_EQ(admin.RouteRequest("GET /debug/flightrec HTTP/1.0").substr(0, 12),
            "HTTP/1.0 404");
}

TEST_F(ObsNetTest, AdminEndpointServesLiveScrapeDuringSession) {
  ModelProviderServerOptions options;
  options.admin_port = 0;  // ephemeral
  ModelProviderTcpServer server(*plan_, options);
  ASSERT_TRUE(server.Listen(0).ok());
  const uint16_t admin_port = server.admin_port();
  ASSERT_NE(admin_port, 0);
  std::thread server_thread([&server] { ASSERT_TRUE(server.Serve().ok()); });

  auto transport = TcpTransport::Connect("127.0.0.1", server.port(),
                                         keys_->public_key);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  DataProvider dp(transport.value()->view_plan(), *keys_, 401);
  auto out = RunProtocolInference(*transport.value()->model_provider(), dp,
                                  /*request_id=*/91, MakeInput(92));
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // Scrape while the connection and its session are still live.
  const std::string metrics = admin_http::Get(admin_port, "/metrics");
  ASSERT_EQ(metrics.substr(0, 12), "HTTP/1.0 200") << metrics.substr(0, 64);
  const std::string body = admin_http::Body(metrics);
  EXPECT_TRUE(obs::CheckPrometheusText(body).ok());
  for (const char* family :
       {"pps_serving_requests", "pps_serving_inflight", "pps_cost_reconciled",
        "pps_crypto_scalar_muls"}) {
    EXPECT_NE(body.find(family), std::string::npos)
        << "live scrape missing " << family;
  }

  const std::string statusz = admin_http::Get(admin_port, "/statusz");
  ASSERT_EQ(statusz.substr(0, 12), "HTTP/1.0 200");
  const std::string status_body = admin_http::Body(statusz);
  // A live session row, named by its public ordinal...
  EXPECT_NE(status_body.find("\"sessions\":{\"live\":1"), std::string::npos)
      << status_body;
  EXPECT_NE(status_body.find("\"ordinal\":1"), std::string::npos);
  // ...and zero secret material: no session id, key, or randomizer field.
  EXPECT_EQ(status_body.find("session_id"), std::string::npos);
  EXPECT_EQ(status_body.find("key"), std::string::npos) << status_body;
  EXPECT_EQ(status_body.find("randomizer\":"), std::string::npos);

  EXPECT_EQ(admin_http::Get(admin_port, "/healthz").substr(0, 12),
            "HTTP/1.0 200");
  EXPECT_EQ(admin_http::Get(admin_port, "/nothing-here").substr(0, 12),
            "HTTP/1.0 404");

  transport.value()->Close();
  server.BeginDrain(/*grace_seconds=*/1.0);
  // Draining flips /healthz to 503 while the admin plane stays up.
  EXPECT_EQ(admin_http::Get(admin_port, "/healthz").substr(0, 12),
            "HTTP/1.0 503");
  server_thread.join();
  EXPECT_GE(server.connections_served(), 1u);
}

TEST(AdminServerTest, StandaloneStartStopAndCounters) {
  obs::AdminServer admin;
  obs::AdminState state;
  state.statusz_json = [] { return std::string("{\"ok\":true}"); };
  ASSERT_TRUE(admin.Start(0, std::move(state)).ok());
  ASSERT_NE(admin.port(), 0);

  EXPECT_EQ(admin_http::Body(admin_http::Get(admin.port(), "/statusz")),
            "{\"ok\":true}");
  EXPECT_EQ(admin_http::Get(admin.port(), "/bogus").substr(0, 12),
            "HTTP/1.0 404");
  EXPECT_EQ(admin.requests_served(), 2u);
  admin.Stop();
  admin.Stop();  // idempotent
}

TEST(AdminServerTest, TricklingClientCannotStarveTheEndpoint) {
  obs::AdminServer admin;
  // The budget is per connection, not per received byte: shrink it so
  // the test observes the drop without waiting out the real 5s.
  admin.set_connection_deadline_seconds(0.3);
  ASSERT_TRUE(admin.Start(0, obs::AdminState{}).ok());

  // A client that sends a partial request line and then stalls occupies
  // the single accept thread only until the overall deadline...
  auto slow = TcpSocket::Connect("127.0.0.1", admin.port(), 5.0);
  ASSERT_TRUE(slow.ok());
  const char partial[] = "GET /met";
  ASSERT_TRUE(slow
                  ->SendAll(reinterpret_cast<const uint8_t*>(partial),
                            sizeof(partial) - 1, 5.0)
                  .ok());
  // ...so a well-behaved scrape queued behind it is still answered
  // promptly instead of waiting minutes for the trickler to finish.
  const double start = obs::MonotonicSeconds();
  const std::string healthz = admin_http::Get(admin.port(), "/healthz");
  const double elapsed = obs::MonotonicSeconds() - start;
  EXPECT_EQ(healthz.substr(0, 12), "HTTP/1.0 200") << healthz.substr(0, 64);
  EXPECT_LT(elapsed, 3.0) << "healthz starved behind a trickling client";
  admin.Stop();
}

// ------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, DisabledRecorderKeepsRingEmpty) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Global();
  rec.SetEnabled(false);
  rec.Reset();
  rec.RecordEvent("should.not.appear", "off");
  EXPECT_EQ(rec.DumpJson().find("should.not.appear"), std::string::npos);
}

TEST(FlightRecorderTest, DumpCarriesSpansLogsAndEventsWithRequestIds) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Global();
  rec.Reset();
  rec.SetEnabled(true);
  rec.RecordSpan("proto.round", "round", /*trace_id=*/0x71DE, /*span_id=*/7,
                 /*request_id=*/55, /*start_seconds=*/1.0,
                 /*duration_seconds=*/0.25, /*thread_ordinal=*/3);
  rec.RecordLog("drain.begin grace=2");
  rec.RecordEvent("breaker.open", "mp-endpoint", /*request_id=*/55);
  const std::string json = rec.DumpJson();
  rec.SetEnabled(false);
  EXPECT_NE(json.find("proto.round"), std::string::npos);
  EXPECT_NE(json.find("drain.begin grace=2"), std::string::npos);
  EXPECT_NE(json.find("breaker.open"), std::string::npos);
  EXPECT_NE(json.find("\"request_id\":55"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
}

TEST(FlightRecorderTest, EnablingArmsSpanCaptureWithoutTracer) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Global();
  rec.Reset();
  rec.SetEnabled(true);
  ASSERT_FALSE(Tracer::Global().enabled());
  { ScopedSpan span = ScopedSpan::Root("flightrec.armed.span"); }
  const std::string json = rec.DumpJson();
  rec.SetEnabled(false);
  EXPECT_NE(json.find("flightrec.armed.span"), std::string::npos)
      << "enabled recorder must capture spans even with the tracer off";
}

TEST(FlightRecorderTest, RingSurvivesWraparound) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Global();
  rec.Reset();
  rec.SetEnabled(true);
  for (size_t i = 0; i < obs::FlightRecorder::kCapacity + 32; ++i) {
    rec.RecordEvent("wrap.event", "n", /*request_id=*/i + 1);
  }
  const std::string json = rec.DumpJson();
  rec.SetEnabled(false);
  // The newest entry survived; the overwritten head is gone, not torn.
  EXPECT_NE(json.find("\"request_id\":" +
                      std::to_string(obs::FlightRecorder::kCapacity + 32)),
            std::string::npos);
  EXPECT_EQ(json.find("\"request_id\":1}"), std::string::npos);
  // Sequential writers publish before the ring can lap them: the CAS
  // slot claim must never drop a record on this path.
  EXPECT_EQ(rec.dropped_records(), 0u);
}

TEST(FlightRecorderTest, TriggerDumpWritesFileAndCountsIt) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Global();
  rec.Reset();
  rec.SetEnabled(true);
  const std::string path =
      ::testing::TempDir() + "/flightrec_trigger_test.json";
  rec.SetDumpPath(path);
  rec.RecordEvent("deadline.shed", "kMpProcessRound", /*request_id=*/99);
  const uint64_t dumps0 = rec.dumps();
  rec.TriggerDump("unit-test");
  EXPECT_EQ(rec.dumps(), dumps0 + 1);
  rec.SetDumpPath("");
  rec.SetEnabled(false);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("deadline.shed"), std::string::npos);
  EXPECT_NE(contents.str().find("flightrec.dump"), std::string::npos)
      << "the dump must record its own trigger reason event";
  EXPECT_NE(contents.str().find("\"request_id\":99"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ConcurrentWritersAndDumperStayConsistent) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Global();
  rec.Reset();
  rec.SetEnabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&rec, &stop, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        rec.RecordEvent("storm.event", "concurrent",
                        static_cast<uint64_t>(t) * 1000000 + ++i);
        rec.RecordLog("storm line");
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    const std::string json = rec.DumpJson();
    EXPECT_NE(json.find("traceEvents"), std::string::npos);
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  rec.SetEnabled(false);
  rec.Reset();
}

}  // namespace
}  // namespace ppstream
