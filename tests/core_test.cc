// Tests for the PP-Stream core: fixed-point encoding, affine lowering,
// plan compilation, parameter scaling, tensor partitioning, and — most
// importantly — the end-to-end correctness guarantee of §II-C: the
// privacy-preserving protocol must produce exactly the same inference
// result as the (scaled) plain protocol.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "affine_kernel_checks.h"
#include "core/affine.h"
#include "core/fixed_point.h"
#include "core/partition.h"
#include "core/plan.h"
#include "core/protocol.h"
#include "core/scaling.h"
#include "nn/layers.h"
#include "nn/model_zoo.h"
#include "nn/trainer.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace ppstream {
namespace {

constexpr int kTestKeyBits = 256;  // small keys keep tests fast; the
                                   // protocol is key-size independent

DoubleTensor RandomTensor(const Shape& shape, uint64_t seed, double lo = -2,
                          double hi = 2) {
  Rng rng(seed);
  DoubleTensor t{shape};
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    t[i] = rng.NextUniform(lo, hi);
  }
  return t;
}

// Small model: Dense -> ReLU -> Dense -> SoftMax.
Model SmallDenseModel(uint64_t seed) {
  Rng rng(seed);
  Model model(Shape{4}, "small");
  PPS_CHECK_OK(model.Add(DenseLayer::Random(4, 5, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<ReluLayer>()));
  PPS_CHECK_OK(model.Add(DenseLayer::Random(5, 3, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
  return model;
}

// Conv model exercising merged linear stages (Conv+BatchNorm), a mixed
// layer, and Flatten: Conv -> BN -> ReLU -> Flatten -> Dense ->
// ScaledSigmoid -> Dense -> SoftMax.
Model ConvMixedModel(uint64_t seed) {
  Rng rng(seed);
  Model model(Shape{1, 6, 6}, "convmixed");
  Conv2DGeometry g;
  g.in_channels = 1;
  g.in_height = 6;
  g.in_width = 6;
  g.out_channels = 2;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.stride = 1;
  g.padding = 0;
  PPS_CHECK_OK(model.Add(Conv2DLayer::Random(g, rng)));
  auto bn = std::make_unique<BatchNormLayer>(2);
  bn->SetStatistics({0.1, -0.2}, {1.5, 0.8});
  bn->SetAffine({1.1, 0.9}, {0.05, -0.05});
  PPS_CHECK_OK(model.Add(std::move(bn)));
  PPS_CHECK_OK(model.Add(std::make_unique<ReluLayer>()));
  PPS_CHECK_OK(model.Add(std::make_unique<FlattenLayer>()));
  PPS_CHECK_OK(model.Add(DenseLayer::Random(32, 6, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<ScaledSigmoidLayer>(0.8)));
  PPS_CHECK_OK(model.Add(DenseLayer::Random(6, 3, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
  return model;
}

// ------------------------------------------------------------ fixed point

TEST(FixedPointTest, QuantizeRoundsToNearest) {
  EXPECT_EQ(QuantizeValue(1.2345, 1000), 1235);  // round-half-away semantics
  EXPECT_EQ(QuantizeValue(-1.2345, 1000), -1235);
  EXPECT_EQ(QuantizeValue(0.0004, 1000), 0);
  EXPECT_EQ(PowerOfTen(0), 1);
  EXPECT_EQ(PowerOfTen(6), 1000000);
  EXPECT_EQ(ScalePower(10, 3).ToDecimalString(), "1000");
}

// ------------------------------------------------------------ affine

TEST(AffineTest, DenseLoweringMatchesFloatLayer) {
  Rng rng(5);
  auto dense = DenseLayer::Random(4, 3, rng);
  const int64_t F = 1000;
  auto op = IntegerAffineLayer::FromLayer(*dense, Shape{4}, F, 1);
  ASSERT_TRUE(op.ok()) << op.status().ToString();

  DoubleTensor x = RandomTensor(Shape{4}, 6);
  // Integer path.
  Tensor<BigInt> xi{Shape{4}};
  for (int64_t i = 0; i < 4; ++i) xi[i] = BigInt(QuantizeValue(x[i], F));
  auto yi = op.value().ApplyPlain(xi);
  ASSERT_TRUE(yi.ok());
  // Float path.
  auto yf = dense->Forward(x);
  ASSERT_TRUE(yf.ok());
  for (int64_t i = 0; i < 3; ++i) {
    const double approx =
        yi.value()[i].ToDouble() / static_cast<double>(F * F);
    EXPECT_NEAR(approx, yf.value()[i], 0.05) << i;
  }
}

TEST(AffineTest, FlattenIsScaleNeutralIdentity) {
  FlattenLayer flatten;
  auto op = IntegerAffineLayer::FromLayer(flatten, Shape{2, 3}, 100, 1);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value().weight_scale_power(), 0);
  EXPECT_EQ(op.value().output_scale_power(), 1);
  Tensor<BigInt> x{Shape{2, 3}};
  for (int64_t i = 0; i < 6; ++i) x[i] = BigInt(i * 7);
  auto y = op.value().ApplyPlain(x);
  ASSERT_TRUE(y.ok());
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(y.value()[i].Compare(BigInt(i * 7)), 0);
  }
}

TEST(AffineTest, RejectsNonLinearLayers) {
  ReluLayer relu;
  EXPECT_FALSE(IntegerAffineLayer::FromLayer(relu, Shape{4}, 10, 1).ok());
  MaxPool2DLayer pool(2, 2);
  EXPECT_FALSE(
      IntegerAffineLayer::FromLayer(pool, Shape{1, 4, 4}, 10, 1).ok());
}

TEST(AffineTest, MagnitudeBoundIsSound) {
  Rng rng(7);
  auto dense = DenseLayer::Random(6, 4, rng);
  const int64_t F = 100;
  auto op = IntegerAffineLayer::FromLayer(*dense, Shape{6}, F, 1);
  ASSERT_TRUE(op.ok());
  const BigInt input_bound(2 * F);
  const BigInt bound = op.value().OutputMagnitudeBound(input_bound);
  // Evaluate on extreme inputs; result must respect the bound.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    DoubleTensor x = RandomTensor(Shape{6}, seed, -2, 2);
    Tensor<BigInt> xi{Shape{6}};
    for (int64_t i = 0; i < 6; ++i) xi[i] = BigInt(QuantizeValue(x[i], F));
    auto y = op.value().ApplyPlain(xi);
    ASSERT_TRUE(y.ok());
    for (int64_t i = 0; i < 4; ++i) {
      BigInt abs = y.value()[i].IsNegative() ? -y.value()[i] : y.value()[i];
      EXPECT_LE(abs.Compare(bound), 0);
    }
  }
}

// ------------------------------------------------------------ plan

TEST(PlanTest, SmallModelCompiles) {
  Model model = SmallDenseModel(11);
  auto plan = CompilePlan(model, 1000);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().NumRounds(), 2u);
  EXPECT_EQ(plan.value().linear_stages[0].ops.size(), 1u);
  EXPECT_TRUE(plan.value().nonlinear_segments[1].is_final);
  EXPECT_FALSE(plan.value().nonlinear_segments[0].is_final);
}

TEST(PlanTest, MixedLayerIsDecomposed) {
  Model model = ConvMixedModel(12);
  // Without fusion, each primitive layer stays its own op.
  CompileOptions unfused;
  unfused.fusion = planner::FusionPolicy::kNever;
  auto plan = CompilePlan(model, 100, unfused);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Stages: [Conv+BN] [ReLU] [Flatten+Dense+ScalarScale]? No — Flatten and
  // Dense follow ReLU, then ScaledSigmoid decomposes to ScalarScale +
  // Sigmoid. Merged: L(Conv,BN) N(ReLU) L(Flatten,Dense,ScalarScale)
  // N(Sigmoid) L(Dense) N(SoftMax) = 3 rounds.
  EXPECT_EQ(plan.value().NumRounds(), 3u);
  EXPECT_EQ(plan.value().linear_stages[0].ops.size(), 2u);
  EXPECT_EQ(plan.value().linear_stages[1].ops.size(), 3u);
  // Conv+BN: two weighted ops -> scale power 3.
  EXPECT_EQ(plan.value().linear_stages[0].output_scale_power, 3);
  // Flatten (power 0) + Dense + ScalarScale -> 1+0+1+1 = 3.
  EXPECT_EQ(plan.value().linear_stages[1].output_scale_power, 3);
}

TEST(PlanTest, FusionCollapsesLinearChains) {
  Model model = ConvMixedModel(12);
  // The default policy folds Conv*BatchNorm, Flatten*Dense*ScalarScale:
  // none of these compositions adds scalar muls.
  auto plan = CompilePlan(model, 100);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().NumRounds(), 3u);
  EXPECT_EQ(plan.value().linear_stages[0].ops.size(), 1u);
  EXPECT_EQ(plan.value().linear_stages[1].ops.size(), 1u);
  // Fusion never changes the arithmetic, so scale powers are untouched.
  EXPECT_EQ(plan.value().linear_stages[0].output_scale_power, 3);
  EXPECT_EQ(plan.value().linear_stages[1].output_scale_power, 3);
  const auto& stats = plan.value().compile_stats;
  EXPECT_EQ(stats.linear_ops_before_fusion, 6);
  EXPECT_EQ(stats.linear_ops_after_fusion, 3);
  EXPECT_EQ(stats.ops_fused, 3);
  EXPECT_EQ(stats.dead_tensors_removed, 3);
  EXPECT_LE(stats.scalar_muls_after_fusion, stats.scalar_muls_before_fusion);
  // The prepared reference model still lists every primitive layer.
  EXPECT_EQ(plan.value().prepared_model.NumLayers(), 9u);
}

TEST(PlanTest, MaxPoolIsRewritten) {
  Rng rng(13);
  Model model(Shape{1, 4, 4}, "pool");
  Conv2DGeometry g;
  g.in_channels = 1;
  g.in_height = 4;
  g.in_width = 4;
  g.out_channels = 2;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.stride = 1;
  g.padding = 1;
  PPS_CHECK_OK(model.Add(Conv2DLayer::Random(g, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<MaxPool2DLayer>(2, 2)));
  PPS_CHECK_OK(model.Add(std::make_unique<FlattenLayer>()));
  PPS_CHECK_OK(model.Add(DenseLayer::Random(8, 2, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
  auto plan = CompilePlan(model, 100);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // No MaxPool anywhere in the prepared model.
  for (size_t i = 0; i < plan.value().prepared_model.NumLayers(); ++i) {
    EXPECT_NE(plan.value().prepared_model.layer(i).kind(),
              LayerKind::kMaxPool2D);
  }
}

TEST(PlanTest, RejectsNonLinearFirstLayer) {
  Model model(Shape{4}, "bad");
  PPS_CHECK_OK(model.Add(std::make_unique<ReluLayer>()));
  Rng rng(14);
  PPS_CHECK_OK(model.Add(DenseLayer::Random(4, 2, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
  EXPECT_FALSE(CompilePlan(model, 100).ok());
}

TEST(PlanTest, RejectsLinearLastLayer) {
  Rng rng(15);
  Model model(Shape{4}, "bad");
  PPS_CHECK_OK(model.Add(DenseLayer::Random(4, 2, rng)));
  EXPECT_FALSE(CompilePlan(model, 100).ok());
}

TEST(PlanTest, KeyFitCheck) {
  Model model = SmallDenseModel(16);
  auto plan = CompilePlan(model, 1000000);
  ASSERT_TRUE(plan.ok());
  // A tiny "modulus" cannot hold the plan's magnitudes...
  EXPECT_FALSE(plan.value().CheckFitsKey(BigInt(1) << 16).ok());
  // ...but a 256-bit one easily can.
  EXPECT_TRUE(plan.value().CheckFitsKey(BigInt(1) << 256).ok());
}

// ------------------------------------------------------------ scaling

TEST(ScalingTest, RoundingAtHighPrecisionIsLossless) {
  Model model = SmallDenseModel(17);
  auto rounded = RoundModelParameters(model, 12);
  ASSERT_TRUE(rounded.ok());
  DoubleTensor x = RandomTensor(Shape{4}, 18);
  auto a = model.Forward(x);
  auto b = rounded.value().Forward(x);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int64_t i = 0; i < a.value().NumElements(); ++i) {
    EXPECT_NEAR(a.value()[i], b.value()[i], 1e-9);
  }
}

TEST(ScalingTest, RoundingToZeroDecimalsDegrades) {
  // With |w| < 1 typical of trained nets, f=0 rounds most weights to 0.
  DatasetSplit data = MakeTabularDataset("sc", 8, 150, 50, 4.0, 19);
  Rng rng(20);
  Model model(Shape{8}, "sc");
  PPS_CHECK_OK(model.Add(DenseLayer::Random(8, 8, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<ReluLayer>()));
  PPS_CHECK_OK(model.Add(DenseLayer::Random(8, 2, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
  TrainConfig config;
  config.epochs = 25;
  ASSERT_TRUE(TrainModel(&model, data.train, config).ok());

  auto sel = SelectScalingFactor(model, data.train);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_GE(sel.value().f, 1);  // f=0 cannot match a trained model
  EXPECT_LE(sel.value().f, 6);
  EXPECT_EQ(sel.value().factor, PowerOfTen(sel.value().f));
  // Selected factor keeps accuracy within the threshold (or f hit max).
  if (sel.value().f < 6) {
    EXPECT_NEAR(sel.value().rounded_accuracy,
                sel.value().original_accuracy, 0.0001 + 1e-12);
  }
  // Accuracy trace is monotone "enough": the last entry is the best.
  ASSERT_FALSE(sel.value().accuracy_by_f.empty());
}

// ------------------------------------------------------------ protocol

class ProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(23);
    auto pair = Paillier::GenerateKeyPair(kTestKeyBits, rng);
    ASSERT_TRUE(pair.ok());
    keys_ = new PaillierKeyPair(std::move(pair).value());
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }
  static PaillierKeyPair* keys_;
};

PaillierKeyPair* ProtocolTest::keys_ = nullptr;

TEST_F(ProtocolTest, MatchesScaledPlainReferenceExactly) {
  Model model = SmallDenseModel(29);
  auto plan_or = CompilePlan(model, 1000);
  ASSERT_TRUE(plan_or.ok());
  ASSERT_TRUE(plan_or.value().CheckFitsKey(keys_->public_key.n()).ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());

  ModelProvider mp(plan, keys_->public_key, /*obf_seed=*/31);
  DataProvider dp(plan, *keys_, /*enc_seed=*/37);

  for (uint64_t req = 0; req < 3; ++req) {
    DoubleTensor x = RandomTensor(Shape{4}, 100 + req);
    auto protocol_out = RunProtocolInference(mp, dp, req, x);
    ASSERT_TRUE(protocol_out.ok()) << protocol_out.status().ToString();
    auto plain_out = RunScaledPlainInference(*plan, x);
    ASSERT_TRUE(plain_out.ok());
    ASSERT_EQ(protocol_out.value().NumElements(),
              plain_out.value().NumElements());
    for (int64_t i = 0; i < plain_out.value().NumElements(); ++i) {
      // Bit-exact: same integer linear algebra, same double non-linear ops.
      EXPECT_DOUBLE_EQ(protocol_out.value()[i], plain_out.value()[i])
          << "req " << req << " element " << i;
    }
  }
}

TEST_F(ProtocolTest, ConvMixedModelMatchesReference) {
  Model model = ConvMixedModel(41);
  auto plan_or = CompilePlan(model, 100);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  ASSERT_TRUE(plan_or.value().CheckFitsKey(keys_->public_key.n()).ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());

  ModelProvider mp(plan, keys_->public_key, 43);
  DataProvider dp(plan, *keys_, 47);
  DoubleTensor x = RandomTensor(Shape{1, 6, 6}, 48, -1, 1);
  auto protocol_out = RunProtocolInference(mp, dp, 7, x);
  ASSERT_TRUE(protocol_out.ok()) << protocol_out.status().ToString();
  auto plain_out = RunScaledPlainInference(*plan, x);
  ASSERT_TRUE(plain_out.ok());
  for (int64_t i = 0; i < plain_out.value().NumElements(); ++i) {
    EXPECT_DOUBLE_EQ(protocol_out.value()[i], plain_out.value()[i]);
  }
}

TEST_F(ProtocolTest, ScaledOutputApproximatesFloatModel) {
  Model model = SmallDenseModel(51);
  auto plan_or = CompilePlan(model, 100000);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  DoubleTensor x = RandomTensor(Shape{4}, 53);
  auto scaled = RunScaledPlainInference(*plan, x);
  auto floaty = plan->prepared_model.Forward(x);
  ASSERT_TRUE(scaled.ok() && floaty.ok());
  for (int64_t i = 0; i < floaty.value().NumElements(); ++i) {
    EXPECT_NEAR(scaled.value()[i], floaty.value()[i], 1e-3);
  }
}

TEST_F(ProtocolTest, ObfuscationActuallyPermutes) {
  Model model = SmallDenseModel(59);
  auto plan_or = CompilePlan(model, 1000);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  ModelProvider mp(plan, keys_->public_key, 61);
  DataProvider dp(plan, *keys_, 67);

  LeakageTranscript transcript;
  DoubleTensor x = RandomTensor(Shape{4}, 68);
  ASSERT_TRUE(RunProtocolInference(mp, dp, 9, x, &transcript).ok());
  ASSERT_EQ(transcript.rounds.size(), 1u);  // one intermediate round
  const auto& round = transcript.rounds[0];
  EXPECT_EQ(round.before_obfuscation.size(), 5u);
  // Same multiset of values, (almost surely) different order.
  auto sorted_before = round.before_obfuscation;
  auto sorted_after = round.after_obfuscation;
  std::sort(sorted_before.begin(), sorted_before.end());
  std::sort(sorted_after.begin(), sorted_after.end());
  EXPECT_EQ(sorted_before, sorted_after);
}

TEST_F(ProtocolTest, FreshPermutationPerRequest) {
  Model model = SmallDenseModel(71);
  auto plan_or = CompilePlan(model, 1000);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  ModelProvider mp(plan, keys_->public_key, 73);

  std::vector<Ciphertext> dummy(5,
                                Paillier::EncryptZeroDeterministic(
                                    keys_->public_key));
  ASSERT_TRUE(mp.Obfuscate(1, 0, dummy).ok());
  ASSERT_TRUE(mp.Obfuscate(2, 0, dummy).ok());
  auto p1 = mp.GetStoredPermutationForTesting(1, 0);
  auto p2 = mp.GetStoredPermutationForTesting(2, 0);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_FALSE(p1.value() == p2.value());
}

TEST_F(ProtocolTest, InverseObfuscationIsIdempotentUntilRelease) {
  Model model = SmallDenseModel(79);
  auto plan_or = CompilePlan(model, 1000);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  ModelProvider mp(plan, keys_->public_key, 81);
  std::vector<Ciphertext> dummy(5,
                                Paillier::EncryptZeroDeterministic(
                                    keys_->public_key));
  ASSERT_TRUE(mp.Obfuscate(5, 0, dummy).ok());
  // Retry-safe: the same round can be reprocessed (AF-Stream-style
  // at-least-once execution).
  ASSERT_TRUE(mp.InverseObfuscate(5, 1, dummy).ok());
  ASSERT_TRUE(mp.InverseObfuscate(5, 1, dummy).ok());
  EXPECT_EQ(mp.PendingRequestsForTesting(), 1u);
  // The completion ACK drops the request's state; replays now fail.
  mp.ReleaseRequestState(5);
  EXPECT_EQ(mp.PendingRequestsForTesting(), 0u);
  EXPECT_FALSE(mp.InverseObfuscate(5, 1, dummy).ok());
}

TEST_F(ProtocolTest, ProtocolRunReleasesRequestState) {
  Model model = SmallDenseModel(85);
  auto plan_or = CompilePlan(model, 1000);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  ModelProvider mp(plan, keys_->public_key, 86);
  DataProvider dp(plan, *keys_, 87);
  DoubleTensor x = RandomTensor(Shape{4}, 88);
  ASSERT_TRUE(RunProtocolInference(mp, dp, 42, x).ok());
  EXPECT_EQ(mp.PendingRequestsForTesting(), 0u)
      << "no permutation state may leak after completion";
}

// Fails every data-provider intermediate round: the model provider has
// stored round 0's permutation by then.
std::shared_ptr<FaultInjector> FailIntermediateRounds() {
  auto injector = std::make_shared<FaultInjector>(/*seed=*/91);
  FaultRule rule;
  rule.site_pattern = "dp.ProcessIntermediate";
  rule.every_nth = 1;
  injector->AddRule(rule);
  return injector;
}

TEST_F(ProtocolTest, FailedInferenceReleasesRequestState) {
  Model model = SmallDenseModel(89);
  auto plan_or = CompilePlan(model, 1000);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  ModelProvider mp(plan, keys_->public_key, 92);
  DataProvider dp(plan, *keys_, 93);
  dp.SetFaultInjector(FailIntermediateRounds());
  auto out = RunProtocolInference(mp, dp, 44, RandomTensor(Shape{4}, 94));
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
  EXPECT_EQ(mp.PendingRequestsForTesting(), 0u)
      << "a failed inference may not strand permutation state";
}

TEST_F(ProtocolTest, FailedPackedBatchReleasesRequestState) {
  Model model = SmallDenseModel(95);
  CompileOptions options;
  options.packing = planner::PackingSpec{kTestKeyBits, 2, 64};
  auto plan_or = CompilePlan(model, 1000, options);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  ModelProvider mp(plan, keys_->public_key, 96);
  DataProvider dp(plan, *keys_, 97);
  dp.SetFaultInjector(FailIntermediateRounds());
  auto out = RunPackedBatchInference(
      mp, dp, 45, {RandomTensor(Shape{4}, 98), RandomTensor(Shape{4}, 99)});
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
  EXPECT_EQ(mp.PendingRequestsForTesting(), 0u)
      << "a failed batch may not strand permutation state";
}

TEST_F(ProtocolTest, RejectsWrongInputShape) {
  Model model = SmallDenseModel(83);
  auto plan_or = CompilePlan(model, 1000);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  DataProvider dp(plan, *keys_, 87);
  EXPECT_FALSE(dp.EncryptInput(DoubleTensor{Shape{5}}).ok());
}

TEST_F(ProtocolTest, AccuracyPreservedOnDataset) {
  // End-to-end: trained model, compiled plan, protocol accuracy equals
  // scaled-plain accuracy (correctness guarantee) over a small test set.
  DatasetSplit data = MakeTabularDataset("acc", 6, 150, 20, 4.0, 89);
  Rng rng(90);
  Model model(Shape{6}, "acc");
  PPS_CHECK_OK(model.Add(DenseLayer::Random(6, 6, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<ReluLayer>()));
  PPS_CHECK_OK(model.Add(DenseLayer::Random(6, 2, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
  TrainConfig config;
  config.epochs = 20;
  ASSERT_TRUE(TrainModel(&model, data.train, config).ok());

  auto plan_or = CompilePlan(model, 10000);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  ModelProvider mp(plan, keys_->public_key, 91);
  DataProvider dp(plan, *keys_, 93);

  size_t protocol_correct = 0, plain_correct = 0;
  for (size_t i = 0; i < data.test.size(); ++i) {
    auto protocol_out =
        RunProtocolInference(mp, dp, i, data.test.samples[i]);
    ASSERT_TRUE(protocol_out.ok());
    auto plain_out = RunScaledPlainInference(*plan, data.test.samples[i]);
    ASSERT_TRUE(plain_out.ok());
    if (ArgMax(protocol_out.value()) == data.test.labels[i]) {
      ++protocol_correct;
    }
    if (ArgMax(plain_out.value()) == data.test.labels[i]) ++plain_correct;
  }
  EXPECT_EQ(protocol_correct, plain_correct);
  EXPECT_GT(static_cast<double>(protocol_correct) / data.test.size(), 0.8);
}

// ------------------------------------------------------------ partitioning

TEST_F(ProtocolTest, PartitionedApplyMatchesSerial) {
  Model model = ConvMixedModel(95);
  auto plan_or = CompilePlan(model, 100);
  ASSERT_TRUE(plan_or.ok());
  const IntegerAffineLayer& conv_op = plan_or.value().linear_stages[0].ops[0];
  const AffineKernel& conv_kernel =
      plan_or.value().linear_stages[0].kernels[0];

  // Encrypt a small input.
  SecureRng rng = SecureRng::FromSeed(97);
  std::vector<Ciphertext> in;
  Rng vals(98);
  for (int64_t i = 0; i < conv_op.input_shape().NumElements(); ++i) {
    auto c = Paillier::Encrypt(keys_->public_key,
                               BigInt(static_cast<int64_t>(
                                   vals.NextBounded(200)) -
                                      100),
                               rng);
    ASSERT_TRUE(c.ok());
    in.push_back(std::move(c).value());
  }

  auto serial = conv_kernel.ApplyRows(keys_->public_key, in, 1, 0,
                                      conv_kernel.num_rows());
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(3);
  for (bool input_part : {false, true}) {
    auto partition = PartitionOp(conv_op, 3);
    ASSERT_TRUE(partition.ok());
    auto parallel =
        ApplyEncryptedPartitioned(keys_->public_key, conv_kernel, in,
                                  partition.value(), input_part, &pool);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(parallel.value().size(), serial.value().size());
    for (size_t j = 0; j < serial.value().size(); ++j) {
      // Ciphertexts must match bit for bit: linear ops add no fresh
      // randomness, and every slicing computes the same canonical residue.
      EXPECT_EQ(parallel.value()[j].value.Compare(serial.value()[j].value), 0)
          << "row " << j << " input_part=" << input_part;
    }
  }
}

// One Dense op whose rows cover every sign pattern the kernels special-
// case, at F = 100 so weight k/100 lowers to the integer k.
IntegerAffineLayer SignPatternDenseOp() {
  const std::vector<std::vector<int64_t>> weights = {
      {3, 17, 150, 1, 20, 40},          // all positive
      {-3, -17, -150, -1, -20, -40},    // all negative
      {1, -1, 5, -7, 1234, -999},       // mixed, with +/-1 and wide weights
      {0, 0, 1, 0, 0, 0},               // identity (forwarded)
      {0, 0, 0, 0, 0, 0},               // zero weights, no bias: E(0)
      {0, 0, 0, 0, 0, 0},               // zero weights, biased
      {2, -3, 0, 0, 4, -5},             // mixed, biased
      {-2, -2, -2, -9, 0, -1},          // all negative, biased
  };
  const std::vector<double> bias = {0, 0, 0, 0, 0, 0.37, -0.42, 0.15};
  DenseLayer dense(6, static_cast<int64_t>(weights.size()));
  for (size_t o = 0; o < weights.size(); ++o) {
    for (size_t i = 0; i < 6; ++i) {
      dense.weights()[static_cast<int64_t>(o * 6 + i)] =
          static_cast<double>(weights[o][i]) / 100.0;
    }
    dense.bias()[static_cast<int64_t>(o)] = bias[o];
  }
  auto op = IntegerAffineLayer::FromLayer(dense, Shape{6}, 100, 1);
  PPS_CHECK_OK(op.status());
  return std::move(op).value();
}

// Recomputes every row with the public per-term Paillier primitives
// (ScalarMul / Add / AddPlain): the canonical ciphertexts every optimized
// kernel must reproduce bit for bit.
std::vector<Ciphertext> CanonicalRowsReference(
    const PaillierPublicKey& pk, const IntegerAffineLayer& op,
    const std::vector<Ciphertext>& in) {
  std::vector<Ciphertext> out;
  for (const AffineRow& row : op.rows()) {
    Ciphertext acc = Paillier::EncryptZeroDeterministic(pk);
    for (const AffineTerm& t : row.terms) {
      auto term = Paillier::ScalarMul(pk, in[t.input_index], BigInt(t.weight));
      PPS_CHECK_OK(term.status());
      acc = Paillier::Add(pk, acc, term.value());
    }
    if (!row.bias.IsZero()) {
      auto biased = Paillier::AddPlain(pk, acc, row.bias);
      PPS_CHECK_OK(biased.status());
      acc = std::move(biased).value();
    }
    out.push_back(std::move(acc));
  }
  return out;
}

void ExpectSameCiphertexts(const std::vector<Ciphertext>& got,
                           const std::vector<Ciphertext>& want,
                           size_t want_offset, const std::string& what) {
  ASSERT_LE(got.size() + want_offset, want.size()) << what;
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].value.Compare(want[want_offset + j].value), 0)
        << what << ", row " << want_offset + j;
  }
}

// Encrypts plain[i] = step * i - offset for every input slot of `op`.
std::vector<Ciphertext> EncryptRamp(const PaillierPublicKey& pk,
                                    const IntegerAffineLayer& op,
                                    int64_t step, int64_t offset,
                                    uint64_t seed, Tensor<BigInt>* plain) {
  SecureRng rng = SecureRng::FromSeed(seed);
  *plain = Tensor<BigInt>{op.input_shape()};
  std::vector<Ciphertext> in;
  for (int64_t i = 0; i < op.input_shape().NumElements(); ++i) {
    (*plain)[i] = BigInt(step * i - offset);
    auto c = Paillier::Encrypt(pk, (*plain)[i], rng);
    PPS_CHECK_OK(c.status());
    in.push_back(std::move(c).value());
  }
  return in;
}

TEST_F(ProtocolTest, AffineKernelsMatchCanonicalReferenceBitExact) {
  const PaillierPublicKey& pk = keys_->public_key;
  const IntegerAffineLayer op = SignPatternDenseOp();
  const AffineKernel kernel = AffineKernel::Build(op);
  const std::vector<AffineRow>& rows = op.rows();
  ASSERT_EQ(rows.size(), 8u);
  ASSERT_TRUE(rows[3].terms.size() == 1 && rows[3].terms[0].weight == 1 &&
              rows[3].bias.IsZero())
      << "row 3 must take the identity fast path";
  ASSERT_TRUE(rows[4].terms.empty() && rows[4].bias.IsZero());
  ASSERT_TRUE(rows[5].terms.empty() && !rows[5].bias.IsZero());

  Tensor<BigInt> plain;
  const std::vector<Ciphertext> in = EncryptRamp(pk, op, 37, 100, 131, &plain);
  const std::vector<Ciphertext> want = CanonicalRowsReference(pk, op, in);
  // The reference itself decrypts to the exact integer affine map.
  auto expected = op.ApplyPlain(plain);
  ASSERT_TRUE(expected.ok());
  for (size_t j = 0; j < want.size(); ++j) {
    auto m = Paillier::Decrypt(pk, keys_->private_key, want[j]);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m.value(), expected.value()[static_cast<int64_t>(j)])
        << "reference row " << j;
  }

  auto whole = kernel.ApplyRows(pk, in, 1, 0, rows.size());
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ExpectSameCiphertexts(whole.value(), want, 0, "no cache");
  // A slice batch-inverts only its own rows.
  auto slice = kernel.ApplyRows(pk, in, 1, 2, 7);
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  ExpectSameCiphertexts(slice.value(), want, 2, "rows [2, 7)");

  // min_fan_out=1: a table for every slot with a weight of 2+ bits; the
  // tables are positive-only, negative weights still come out exact.
  auto cache = kernel.BuildStageCache(pk, in, nullptr, /*min_fan_out=*/1);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_EQ(cache.value().tables_built, 6);
  for (const auto& base : cache.value().bases) {
    ASSERT_NE(base, nullptr);
    EXPECT_FALSE(base->allows_negative());
  }
  auto cached = kernel.ApplyRows(pk, in, 1, 0, rows.size(), &cache.value());
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ExpectSameCiphertexts(cached.value(), want, 0, "min_fan_out=1 cache");

  ThreadPool pool(3);
  auto partition = PartitionOp(op, 3);
  ASSERT_TRUE(partition.ok());
  const EncryptedStageCache* caches[] = {nullptr, &cache.value()};
  for (bool input_part : {false, true}) {
    for (const EncryptedStageCache* c : caches) {
      auto parallel = ApplyEncryptedPartitioned(pk, kernel, in,
                                                partition.value(),
                                                input_part, &pool, c);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ASSERT_EQ(parallel.value().size(), want.size());
      ExpectSameCiphertexts(
          parallel.value(), want, 0,
          std::string("partitioned, input_part=") +
              (input_part ? "1" : "0") + (c != nullptr ? ", cached" : ""));
    }
  }

  // Every kind of weight application, through every entry, with no
  // tables, the default tables and tables forced onto every slot.
  const IntegerAffineLayer groups_op = WeightGroupDenseOp();
  const AffineKernel groups = AffineKernel::Build(groups_op);
  // Folded (9 tabled), folded without tables + a singleton, five split
  // tabled members, nine |w| = 1 members, three folds of mixed signs
  // (-6 x9 tabled, 3 x2 without tables) + a -1, two folds.
  const std::vector<size_t> applications = {1, 2, 5, 9, 3, 2};
  ASSERT_EQ(groups.num_rows(), applications.size());
  for (size_t j = 0; j < applications.size(); ++j) {
    EXPECT_EQ(groups.RowApplications(j), applications[j]) << "row " << j;
  }
  EXPECT_EQ(groups.weight_applications(), 22);
  EXPECT_LT(groups.weight_applications(), groups_op.TotalTerms());
  const std::vector<Ciphertext> groups_in =
      EncryptRamp(pk, groups_op, 23, 120, 139, &plain);
  const std::vector<Ciphertext> groups_want =
      CanonicalRowsReference(pk, groups_op, groups_in);
  ExpectEveryEntryBitExact(pk, groups_op, groups, groups_in, 1, groups_want,
                           nullptr, 2, 4, "groups, no cache");
  for (int64_t min_fan_out : {0, 1}) {
    auto groups_cache =
        groups.BuildStageCache(pk, groups_in, nullptr, min_fan_out);
    ASSERT_TRUE(groups_cache.ok()) << groups_cache.status().ToString();
    // Only slots 0-4 have a split application of |w| > 1 (rows 1-2);
    // the rest are read by folds and |w| = 1 alone: no table.
    EXPECT_EQ(groups_cache.value().tables_built, 5);
    ExpectEveryEntryBitExact(
        pk, groups_op, groups, groups_in, 1, groups_want,
        &groups_cache.value(), 2, 4,
        "groups, min_fan_out=" + std::to_string(min_fan_out));
  }
}

TEST(AffineKernelTest, FoldRuleSplitsSmallTabledGroupsAndFoldsTheRest) {
  // A group of 2-3 members that all have tables splits at any width.
  for (int bits = 2; bits <= 14; ++bits) {
    for (size_t members : {2, 3}) {
      EXPECT_FALSE(AffineKernel::FoldsGroup(bits, members, true))
          << bits << " bits, " << members << " members";
    }
  }
  // 16 table-backed members fold at 3-6 bits.
  for (int bits = 3; bits <= 6; ++bits) {
    EXPECT_TRUE(AffineKernel::FoldsGroup(bits, 16, true)) << bits << " bits";
  }
  // |w| > 1 with a table-less member: the ExpMont is paid anyway.
  for (int bits = 2; bits <= 40; ++bits) {
    EXPECT_TRUE(AffineKernel::FoldsGroup(bits, 2, false)) << bits << " bits";
  }
  // |w| = 1 needs no exponentiation, and a single member has no group.
  for (size_t members : {2, 16, 1000}) {
    EXPECT_FALSE(AffineKernel::FoldsGroup(1, members, false));
    EXPECT_FALSE(AffineKernel::FoldsGroup(1, members, true));
  }
  EXPECT_FALSE(AffineKernel::FoldsGroup(9, 1, false));

  // The built kernel applies the rule per group and prices what it built.
  // Row o taps slots [0, rows[o][1]) with weight rows[o][0]. Slots 0-15
  // are tapped by 4+ rows (tabled), slots 16-19 by two (not).
  DenseLayer dense(20, 5);
  const int64_t rows[5][2] = {{4, 16}, {4, 3}, {1, 20}, {-5, 20}, {2, 16}};
  for (int64_t o = 0; o < 5; ++o) {
    for (int64_t i = 0; i < rows[o][1]; ++i) {
      dense.weights()[o * 20 + i] = static_cast<double>(rows[o][0]) / 100.0;
    }
  }
  auto op = IntegerAffineLayer::FromLayer(dense, Shape{20}, 100, 1);
  ASSERT_TRUE(op.ok());
  const AffineKernel kernel = AffineKernel::Build(op.value());
  EXPECT_EQ(kernel.RowApplications(0), 1u);   // 16 tabled at 3 bits: fold
  EXPECT_EQ(kernel.RowApplications(1), 3u);   // 3 tabled: split
  EXPECT_EQ(kernel.RowApplications(2), 20u);  // |w| = 1: split
  EXPECT_EQ(kernel.RowApplications(3), 1u);   // table-less members: fold
  EXPECT_EQ(kernel.RowApplications(4), 1u);   // 16 tabled at 2 bits: fold
  for (size_t j = 0; j < 5; ++j) EXPECT_EQ(kernel.RowGroups(j), 1u);
  EXPECT_EQ(kernel.weight_applications(), 26);
  EXPECT_EQ(AffineKernel::WeightApplications(op.value()), 26);
}

TEST_F(ProtocolTest, NonUnitInputFailsOnlyUnderANegativeWeight) {
  // p is not a unit mod n^2. Under a positive weight it is just a factor
  // of the positive product; under a negative weight the row slice's batch
  // inverse fails with ModInverse's status, as inverting the input did.
  const PaillierPublicKey& pk = keys_->public_key;
  const IntegerAffineLayer op = SignPatternDenseOp();
  SecureRng rng = SecureRng::FromSeed(137);
  std::vector<Ciphertext> in;
  for (int64_t i = 0; i < 6; ++i) {
    auto c = Paillier::Encrypt(pk, BigInt(i), rng);
    ASSERT_TRUE(c.ok());
    in.push_back(std::move(c).value());
  }
  in[2] = Ciphertext{keys_->private_key.p()};
  const AffineKernel kernel = AffineKernel::Build(op);
  auto positive_only = kernel.ApplyRows(pk, in, 1, 0, 1);
  EXPECT_TRUE(positive_only.ok()) << positive_only.status().ToString();
  auto negative = kernel.ApplyRows(pk, in, 1, 1, 2);
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ProtocolTest, StageCacheMatchesNoCacheBitExact) {
  // Fixed-base tables change how each E(m_i)^{w_i} is computed, never the
  // canonical residue it produces — outputs must agree bit for bit with
  // the table-free path, serial and partitioned alike.
  Model model = SmallDenseModel(111);
  auto plan_or = CompilePlan(model, 1000);
  ASSERT_TRUE(plan_or.ok());
  const IntegerAffineLayer& dense_op =
      plan_or.value().linear_stages[0].ops[0];
  const AffineKernel& kernel = plan_or.value().linear_stages[0].kernels[0];

  SecureRng rng = SecureRng::FromSeed(113);
  std::vector<Ciphertext> in;
  for (int64_t i = 0; i < dense_op.input_shape().NumElements(); ++i) {
    auto c = Paillier::Encrypt(keys_->public_key, BigInt(i * 7 - 9), rng);
    ASSERT_TRUE(c.ok());
    in.push_back(std::move(c).value());
  }

  auto no_cache = kernel.ApplyRows(keys_->public_key, in, 1, 0,
                                   kernel.num_rows());
  ASSERT_TRUE(no_cache.ok());

  // min_fan_out=1 forces a table for every slot regardless of break-even.
  auto cache = kernel.BuildStageCache(keys_->public_key, in, nullptr,
                                      /*min_fan_out=*/1);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_GT(cache.value().tables_built, 0);

  auto with_cache = kernel.ApplyRows(keys_->public_key, in, 1, 0,
                                     kernel.num_rows(), &cache.value());
  ASSERT_TRUE(with_cache.ok()) << with_cache.status().ToString();
  ASSERT_EQ(with_cache.value().size(), no_cache.value().size());
  for (size_t j = 0; j < no_cache.value().size(); ++j) {
    EXPECT_EQ(
        with_cache.value()[j].value.Compare(no_cache.value()[j].value), 0)
        << "row " << j;
  }

  ThreadPool pool(2);
  for (bool input_part : {false, true}) {
    auto partition = PartitionOp(dense_op, 2);
    ASSERT_TRUE(partition.ok());
    auto parallel = ApplyEncryptedPartitioned(
        keys_->public_key, kernel, in, partition.value(), input_part,
        &pool, &cache.value());
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    for (size_t j = 0; j < no_cache.value().size(); ++j) {
      EXPECT_EQ(
          parallel.value()[j].value.Compare(no_cache.value()[j].value), 0)
          << "row " << j << " input_part=" << input_part;
    }
  }
}

TEST_F(ProtocolTest, StageCacheRespectsBreakEvenThreshold) {
  Model model = SmallDenseModel(117);
  auto plan_or = CompilePlan(model, 1000);
  ASSERT_TRUE(plan_or.ok());
  const IntegerAffineLayer& dense_op =
      plan_or.value().linear_stages[0].ops[0];
  const AffineKernel& kernel = plan_or.value().linear_stages[0].kernels[0];

  SecureRng rng = SecureRng::FromSeed(119);
  std::vector<Ciphertext> in;
  for (int64_t i = 0; i < dense_op.input_shape().NumElements(); ++i) {
    auto c = Paillier::Encrypt(keys_->public_key, BigInt(i + 1), rng);
    ASSERT_TRUE(c.ok());
    in.push_back(std::move(c).value());
  }
  // Fan-out of this op is 5 (out_features): an unreachable threshold must
  // build nothing, and the evaluation must still work off tables.
  auto none = kernel.BuildStageCache(keys_->public_key, in, nullptr,
                                     /*min_fan_out=*/100);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().tables_built, 0);
  auto out = kernel.ApplyRows(keys_->public_key, in, 1, 0,
                              kernel.num_rows(), &none.value());
  EXPECT_TRUE(out.ok());
}

TEST_F(ProtocolTest, ApplyEncryptedRowsSubValidatesCoverage) {
  Model model = SmallDenseModel(121);
  auto plan_or = CompilePlan(model, 1000);
  ASSERT_TRUE(plan_or.ok());
  const AffineKernel& kernel = plan_or.value().linear_stages[0].kernels[0];

  SecureRng rng = SecureRng::FromSeed(123);
  auto c = Paillier::Encrypt(keys_->public_key, BigInt(5), rng);
  ASSERT_TRUE(c.ok());
  // Dense rows tap every input slot; a sub-tensor with only slot 0 must be
  // rejected rather than silently evaluated against the wrong slots.
  std::vector<Ciphertext> sub = {c.value()};
  std::vector<uint32_t> indices = {0};
  auto result =
      kernel.ApplyRows(keys_->public_key, sub, 1, 0, 1, nullptr, &indices);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // Mismatched sub/index sizes are rejected too.
  const std::vector<uint32_t> two = {0, 1};
  auto mismatch =
      kernel.ApplyRows(keys_->public_key, sub, 1, 0, 1, nullptr, &two);
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
}

TEST(PartitionTest, ConvReceptiveFieldsShrinkCommunication) {
  Rng rng(101);
  Conv2DGeometry g;
  g.in_channels = 1;
  g.in_height = 8;
  g.in_width = 8;
  g.out_channels = 1;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.stride = 1;
  g.padding = 0;
  auto conv = Conv2DLayer::Random(g, rng);
  auto op = IntegerAffineLayer::FromLayer(*conv, Shape{1, 8, 8}, 100, 1);
  ASSERT_TRUE(op.ok());
  auto plan = PartitionOp(op.value(), 4);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().threads.size(), 4u);
  // Input partitioning ships strictly less than per-thread whole-tensor
  // replication for a local-receptive-field convolution, which in turn
  // ships far less than the per-element baseline (paper §IV-D).
  EXPECT_LT(plan.value().elements_with_input_partitioning,
            plan.value().elements_output_partitioning);
  EXPECT_LT(plan.value().elements_output_partitioning,
            plan.value().elements_no_partitioning);
}

TEST(PartitionTest, DenseRowsCoverWholeInput) {
  Rng rng(103);
  auto dense = DenseLayer::Random(10, 4, rng);
  auto op = IntegerAffineLayer::FromLayer(*dense, Shape{10}, 100, 1);
  ASSERT_TRUE(op.ok());
  auto plan = PartitionOp(op.value(), 2);
  ASSERT_TRUE(plan.ok());
  // Dense layers have global receptive fields: input partitioning cannot
  // improve on output partitioning (§IV-D) — but output partitioning still
  // beats the per-element baseline.
  EXPECT_EQ(plan.value().elements_with_input_partitioning,
            plan.value().elements_output_partitioning);
  EXPECT_LT(plan.value().elements_output_partitioning,
            plan.value().elements_no_partitioning);
}

TEST(PartitionTest, MoreThreadsThanRowsClamps) {
  Rng rng(105);
  auto dense = DenseLayer::Random(3, 2, rng);
  auto op = IntegerAffineLayer::FromLayer(*dense, Shape{3}, 100, 1);
  ASSERT_TRUE(op.ok());
  auto plan = PartitionOp(op.value(), 16);
  ASSERT_TRUE(plan.ok());
  EXPECT_LE(plan.value().threads.size(), 2u);
  EXPECT_FALSE(PartitionOp(op.value(), 0).ok());
}

}  // namespace
}  // namespace ppstream
