// Chaos tests: fault injection across the stream runtime.
//
// The contract under test (DESIGN.md "Failure model & fault tolerance"):
//   1. N submitted requests always yield exactly N NextResult() outcomes —
//      success or error status — with no hangs, at any injected fault rate;
//   2. a failing request's status names the originating stage and error;
//   3. the model provider retains zero per-request obfuscation state once
//      the stream is drained, whether requests succeeded or failed.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/protocol.h"
#include "nn/layers.h"
#include "sim/cluster_sim.h"
#include "stream/engine.h"
#include "stream/retry_policy.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ppstream {
namespace {

// ------------------------------------------------------- fault injector

TEST(FaultInjectorTest, NoRulesIsNoOp) {
  FaultInjector injector(1);
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.Fail("stage.anything").ok());
  std::vector<uint8_t> payload = {1, 2, 3};
  EXPECT_FALSE(injector.Corrupt("stage.anything", payload));
  EXPECT_EQ(payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(injector.stats().probes, 0u);
}

TEST(FaultInjectorTest, DeterministicNthCall) {
  FaultInjector injector(1);
  FaultRule rule;
  rule.site_pattern = "stage.a";
  rule.every_nth = 3;
  rule.error_code = StatusCode::kIoError;
  injector.AddRule(rule);
  int failures = 0;
  for (int i = 0; i < 9; ++i) {
    Status st = injector.Fail("stage.a");
    if (!st.ok()) {
      ++failures;
      EXPECT_EQ(st.code(), StatusCode::kIoError);
      EXPECT_NE(st.message().find("stage.a"), std::string::npos)
          << "injected error must name the site";
    }
  }
  EXPECT_EQ(failures, 3);  // calls 3, 6, 9
  // Non-matching site is untouched (and does not advance the counter).
  EXPECT_TRUE(injector.Fail("stage.b").ok());
}

TEST(FaultInjectorTest, ProbabilisticRateIsReproducible) {
  auto run = [](uint64_t seed) {
    FaultInjector injector(seed);
    FaultRule rule;
    rule.probability = 0.1;
    injector.AddRule(rule);
    int failures = 0;
    for (int i = 0; i < 2000; ++i) {
      if (!injector.Fail("stage.x").ok()) ++failures;
    }
    return failures;
  };
  const int a = run(42);
  EXPECT_EQ(a, run(42)) << "same seed, same fault sequence";
  // ~10% of 2000, with generous slack.
  EXPECT_GT(a, 120);
  EXPECT_LT(a, 300);
}

TEST(FaultInjectorTest, CorruptionFlipsBytes) {
  FaultInjector injector(7);
  FaultRule rule;
  rule.kind = FaultKind::kCorruption;
  rule.every_nth = 1;
  rule.corrupt_bytes = 2;
  injector.AddRule(rule);
  std::vector<uint8_t> payload(16, 0);
  EXPECT_TRUE(injector.Corrupt("stage.x", payload));
  int changed = 0;
  for (uint8_t b : payload) changed += b != 0;
  EXPECT_GE(changed, 1);
  EXPECT_LE(changed, 2);
  EXPECT_EQ(injector.stats().corruptions, 1u);
}

TEST(FaultInjectorTest, LatencyRuleDelays) {
  FaultInjector injector(7);
  FaultRule rule;
  rule.kind = FaultKind::kLatency;
  rule.every_nth = 1;
  rule.latency_seconds = 0.02;
  injector.AddRule(rule);
  WallTimer timer;
  injector.Delay("channel.0");
  EXPECT_GE(timer.ElapsedSeconds(), 0.015);
  EXPECT_EQ(injector.stats().latencies, 1u);
  // Delay() must ignore error rules; Fail() must honor latency rules.
  EXPECT_TRUE(injector.Fail("channel.0").ok());
  EXPECT_EQ(injector.stats().latencies, 2u);
}

// --------------------------------------------------------- retry policy

TEST(RetryPolicyTest, BackoffGrowsAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.010;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.035;
  policy.jitter = 0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1, rng), 0.010);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2, rng), 0.020);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(3, rng), 0.035);  // capped
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(9, rng), 0.035);
}

TEST(RetryPolicyTest, JitterStaysInRange) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.010;
  policy.jitter = 0.5;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const double b = policy.BackoffSeconds(1, rng);
    EXPECT_GE(b, 0.005);
    EXPECT_LE(b, 0.010);
  }
}

TEST(RetryPolicyTest, FromMaxRetriesKeepsSeedSemantics) {
  const RetryPolicy policy = RetryPolicy::FromMaxRetries(3);
  EXPECT_EQ(policy.max_retries, 3);
  Rng rng(3);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1, rng), 0);  // immediate retry
  EXPECT_DOUBLE_EQ(policy.deadline_seconds, 0);        // no deadline
}

// -------------------------------------------------------- chaos: engine

class ChaosEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(21);
    auto pair = Paillier::GenerateKeyPair(256, rng);
    ASSERT_TRUE(pair.ok());
    keys_ = new PaillierKeyPair(std::move(pair).value());

    Rng mrng(22);
    Model model(Shape{4}, "chaos");
    PPS_CHECK_OK(model.Add(DenseLayer::Random(4, 6, mrng)));
    PPS_CHECK_OK(model.Add(std::make_unique<ReluLayer>()));
    PPS_CHECK_OK(model.Add(DenseLayer::Random(6, 3, mrng)));
    PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
    auto plan = CompilePlan(model, 1000);
    ASSERT_TRUE(plan.ok());
    plan_ = new std::shared_ptr<InferencePlan>(
        std::make_shared<InferencePlan>(std::move(plan).value()));
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete plan_;
  }

  struct Drained {
    size_t successes = 0;
    size_t failures = 0;
  };

  /// Submits `n` requests, drains exactly `n` outcomes, shuts down, and
  /// verifies the three-point contract at the top of this file.
  Drained RunChaosRound(const EngineConfig& config, size_t n,
                        std::shared_ptr<ModelProvider>* mp_out = nullptr) {
    auto mp = std::make_shared<ModelProvider>(*plan_, keys_->public_key, 31);
    auto dp = std::make_shared<DataProvider>(*plan_, *keys_, 32);
    PpStreamEngine engine(mp, dp, config);
    EXPECT_TRUE(engine.Start().ok());
    Rng rng(33);
    for (size_t i = 0; i < n; ++i) {
      DoubleTensor x{Shape{4}};
      for (int64_t j = 0; j < 4; ++j) x[j] = rng.NextUniform(-2, 2);
      EXPECT_TRUE(engine.Submit(i, x).ok());
    }
    Drained drained;
    for (size_t i = 0; i < n; ++i) {
      auto result = engine.NextResult();
      if (result.ok()) {
        ++drained.successes;
      } else {
        ++drained.failures;
        EXPECT_NE(result.status().message().find("failed at stage"),
                  std::string::npos)
            << result.status().ToString();
      }
    }
    engine.Shutdown();
    // After the drain the stream must be ended...
    EXPECT_FALSE(engine.NextResult().ok());
    // ...and no per-request obfuscation state may survive, success or not.
    EXPECT_EQ(mp->PendingRequestsForTesting(), 0u);
    if (mp_out != nullptr) *mp_out = mp;
    return drained;
  }

  static PaillierKeyPair* keys_;
  static std::shared_ptr<InferencePlan>* plan_;
};

PaillierKeyPair* ChaosEngineTest::keys_ = nullptr;
std::shared_ptr<InferencePlan>* ChaosEngineTest::plan_ = nullptr;

TEST_F(ChaosEngineTest, EveryRequestYieldsExactlyOneOutcomeUnderFaults) {
  // Sweep per-stage error rates from 1% to 10%: the headline acceptance
  // criterion. All probes (stage + provider entry points) share the rate.
  for (double rate : {0.01, 0.05, 0.10}) {
    auto injector = std::make_shared<FaultInjector>(
        static_cast<uint64_t>(rate * 1000) + 99);
    FaultRule rule;
    rule.site_pattern = "stage.";
    rule.probability = rate;
    injector->AddRule(rule);
    EngineConfig config;
    config.retry_policy.max_retries = 1;
    config.fault_injector = injector;
    const size_t n = 12;
    const Drained drained = RunChaosRound(config, n);
    EXPECT_EQ(drained.successes + drained.failures, n)
        << "rate " << rate << ": outcomes must cover every submission";
  }
}

TEST_F(ChaosEngineTest, FailureNamesOriginatingStageAndReleasesState) {
  // Deterministically kill round-1 inverse obfuscation: by then the
  // request has live permutation state at the model provider, so this is
  // the regression test for the seed's state leak on the failure path.
  auto injector = std::make_shared<FaultInjector>(5);
  FaultRule rule;
  rule.site_pattern = "mp.InverseObfuscate";
  rule.every_nth = 1;
  rule.error_code = StatusCode::kProtocolError;
  injector->AddRule(rule);
  EngineConfig config;
  config.retry_policy.max_retries = 0;
  config.fault_injector = injector;

  auto mp = std::make_shared<ModelProvider>(*plan_, keys_->public_key, 41);
  auto dp = std::make_shared<DataProvider>(*plan_, *keys_, 42);
  PpStreamEngine engine(mp, dp, config);
  ASSERT_TRUE(engine.Start().ok());
  DoubleTensor x(Shape{4}, {0.5, -1, 1.5, 0});
  ASSERT_TRUE(engine.Submit(77, x).ok());
  auto result = engine.NextResult();
  ASSERT_FALSE(result.ok()) << "the failure must surface, not hang";
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(result.status().message().find("request 77"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("mp-linear-1"), std::string::npos)
      << "status must name the originating stage: "
      << result.status().ToString();
  EXPECT_EQ(mp->PendingRequestsForTesting(), 0u)
      << "failed request must not leak obfuscation state";
  engine.Shutdown();
}

TEST_F(ChaosEngineTest, TransientProviderFaultsAreRetriedToSuccess) {
  // 30% provider-level fault rate with a generous retry budget: every
  // request should still succeed (retries mask the faults), and the
  // injector must actually have fired.
  auto injector = std::make_shared<FaultInjector>(17);
  FaultRule rule;
  rule.site_pattern = "mp.";
  rule.probability = 0.30;
  injector->AddRule(rule);
  EngineConfig config;
  RetryPolicy policy;
  policy.max_retries = 25;
  policy.initial_backoff_seconds = 0.0005;
  policy.max_backoff_seconds = 0.002;
  config.retry_policy = policy;
  config.fault_injector = injector;
  const Drained drained = RunChaosRound(config, 8);
  EXPECT_EQ(drained.successes, 8u);
  EXPECT_EQ(drained.failures, 0u);
  EXPECT_GT(injector->stats().errors, 0u) << "faults must have fired";
}

TEST_F(ChaosEngineTest, PayloadCorruptionIsCaughtAndRetried) {
  // Corrupt the serialized tensor entering one stage on every 2nd attempt:
  // deserialization (or ciphertext validation) fails, the retry sees the
  // clean original bytes and succeeds.
  auto injector = std::make_shared<FaultInjector>(23);
  FaultRule rule;
  rule.site_pattern = "stage.mp-linear-0";
  rule.kind = FaultKind::kCorruption;
  rule.every_nth = 2;
  rule.corrupt_bytes = 8;
  injector->AddRule(rule);
  EngineConfig config;
  config.retry_policy.max_retries = 3;
  config.fault_injector = injector;
  const Drained drained = RunChaosRound(config, 6);
  EXPECT_EQ(drained.successes, 6u);
  EXPECT_GT(injector->stats().corruptions, 0u);
}

TEST_F(ChaosEngineTest, DeadlineFailsRequestInsteadOfRetryingForever) {
  // Stage always fails; a tight deadline converts the retry storm into a
  // DeadlineExceeded outcome instead of burning the full retry budget.
  auto injector = std::make_shared<FaultInjector>(29);
  FaultRule rule;
  rule.site_pattern = "stage.dp-encrypt";
  rule.every_nth = 1;
  injector->AddRule(rule);
  EngineConfig config;
  RetryPolicy policy;
  policy.max_retries = 1000000;  // deadline, not attempts, must stop it
  policy.initial_backoff_seconds = 0.002;
  policy.max_backoff_seconds = 0.010;
  policy.deadline_seconds = 0.050;
  config.retry_policy = policy;
  config.fault_injector = injector;

  auto mp = std::make_shared<ModelProvider>(*plan_, keys_->public_key, 51);
  auto dp = std::make_shared<DataProvider>(*plan_, *keys_, 52);
  PpStreamEngine engine(mp, dp, config);
  ASSERT_TRUE(engine.Start().ok());
  DoubleTensor x(Shape{4}, {1, 2, 3, 4});
  ASSERT_TRUE(engine.Submit(1, x).ok());
  WallTimer timer;
  auto result = engine.NextResult();
  EXPECT_LT(timer.ElapsedSeconds(), 5.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  engine.Shutdown();
  EXPECT_EQ(mp->PendingRequestsForTesting(), 0u);
}

TEST_F(ChaosEngineTest, ChannelLatencyInjectionOnlySlowsTheStream) {
  auto injector = std::make_shared<FaultInjector>(37);
  FaultRule rule;
  rule.site_pattern = "channel.";
  rule.kind = FaultKind::kLatency;
  rule.probability = 0.25;
  rule.latency_seconds = 0.001;
  injector->AddRule(rule);
  EngineConfig config;
  config.fault_injector = injector;
  const Drained drained = RunChaosRound(config, 6);
  EXPECT_EQ(drained.successes, 6u);
  EXPECT_EQ(drained.failures, 0u);
  EXPECT_GT(injector->stats().latencies, 0u);
}

// ----------------------------------------------- chaos: cluster simulator

std::vector<SimStageSpec> ThreeReliableStages() {
  std::vector<SimStageSpec> stages(3);
  for (auto& s : stages) {
    s.single_thread_seconds = 0.010;
    s.parallel_fraction = 0;
  }
  return stages;
}

TEST(ClusterSimFaultTest, ZeroFailureProbMatchesSeedBehaviour) {
  SimWorkload workload;
  workload.num_requests = 10;
  auto report = SimulatePipeline(ThreeReliableStages(), SimNetwork{},
                                 workload);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().failed_requests, 0u);
  EXPECT_EQ(report.value().total_retries, 0u);
  // Saturated 3-stage pipeline of 10ms stages over 10 requests:
  // makespan = (3 + 9) * 10ms.
  EXPECT_NEAR(report.value().makespan_seconds, 0.12, 1e-9);
}

TEST(ClusterSimFaultTest, FaultsDegradeLatencyAndThroughput) {
  auto stages = ThreeReliableStages();
  SimWorkload workload;
  workload.num_requests = 200;
  auto clean = SimulatePipeline(stages, SimNetwork{}, workload);
  ASSERT_TRUE(clean.ok());

  for (auto& s : stages) s.failure_prob = 0.10;
  workload.max_retries = 2;
  workload.retry_backoff_seconds = 0.001;
  auto faulty = SimulatePipeline(stages, SimNetwork{}, workload);
  ASSERT_TRUE(faulty.ok());

  EXPECT_GT(faulty.value().total_retries, 0u);
  EXPECT_GT(faulty.value().avg_latency_seconds,
            clean.value().avg_latency_seconds);
  EXPECT_LT(faulty.value().throughput_rps, clean.value().throughput_rps);
  // At 10% per attempt with 2 retries, P(request fails) = 1 - (1-p^3)^3
  // ≈ 0.3%; over 200 requests a handful at most.
  EXPECT_LT(faulty.value().failed_requests, 10u);
}

TEST(ClusterSimFaultTest, DeterministicAcrossRunsSameSeed) {
  auto stages = ThreeReliableStages();
  for (auto& s : stages) s.failure_prob = 0.2;
  SimWorkload workload;
  workload.num_requests = 50;
  workload.max_retries = 1;
  workload.fault_seed = 77;
  auto a = SimulatePipeline(stages, SimNetwork{}, workload);
  auto b = SimulatePipeline(stages, SimNetwork{}, workload);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().total_retries, b.value().total_retries);
  EXPECT_EQ(a.value().failed_requests, b.value().failed_requests);
  EXPECT_DOUBLE_EQ(a.value().makespan_seconds, b.value().makespan_seconds);
}

TEST(ClusterSimFaultTest, ExpectedAttemptsFormula) {
  SimStageSpec spec;
  spec.failure_prob = 0;
  EXPECT_DOUBLE_EQ(spec.ExpectedAttempts(5), 1.0);
  spec.failure_prob = 0.5;
  // 1 + 0.5 + 0.25 = 1.75 with two retries.
  EXPECT_DOUBLE_EQ(spec.ExpectedAttempts(2), 1.75);
  spec.failure_prob = 1.0;
  EXPECT_DOUBLE_EQ(spec.ExpectedAttempts(3), 4.0);
}

TEST(ClusterSimFaultTest, StablePipelineStaysStableUnderFaults) {
  auto stages = ThreeReliableStages();
  for (auto& s : stages) s.failure_prob = 0.15;
  SimWorkload fault_model;
  fault_model.max_retries = 3;
  fault_model.retry_backoff_seconds = 0.001;
  auto report = SimulateStablePipeline(stages, SimNetwork{}, 100, 1.1,
                                       fault_model);
  ASSERT_TRUE(report.ok());
  // The interarrival accounts for expected retry occupancy, so the
  // average latency must stay within a small multiple of the zero-queue
  // service time (3 stages × 10ms × expected attempts ≈ 35ms).
  EXPECT_LT(report.value().avg_latency_seconds, 0.2);
}

}  // namespace
}  // namespace ppstream
