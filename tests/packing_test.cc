// Tests for the Paillier plaintext-packing path (DESIGN.md §13): the
// balanced-digit codec and its overflow witnesses, layout selection
// across key sizes, serialization fuzz, the weight-value-dedup packed
// kernel (bit-exact against the scalar path, including the k=1
// degenerate case), the packing planner passes, the lane-batched
// protocol with per-stage scalar fallback (one lane is the scalar wire,
// ciphertext for ciphertext; empty slots carry 0), and the compression
// pass that feeds the kernels.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "affine_kernel_checks.h"
#include "core/affine.h"
#include "core/fixed_point.h"
#include "core/plan.h"
#include "core/protocol.h"
#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "crypto/secure_rng.h"
#include "nn/compress.h"
#include "nn/layers.h"
#include "nn/model_zoo.h"
#include "nn/trainer.h"
#include "obs/cost.h"
#include "util/buffer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ppstream {
namespace {

constexpr int kTestKeyBits = 256;  // small keys keep tests fast

DoubleTensor RandomTensor(const Shape& shape, uint64_t seed, double lo = -2,
                          double hi = 2) {
  Rng rng(seed);
  DoubleTensor t{shape};
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    t[i] = rng.NextUniform(lo, hi);
  }
  return t;
}

// Dense -> ReLU -> Dense -> SoftMax: two rounds.
Model SmallDenseModel(uint64_t seed) {
  Rng rng(seed);
  Model model(Shape{4}, "small");
  PPS_CHECK_OK(model.Add(DenseLayer::Random(4, 5, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<ReluLayer>()));
  PPS_CHECK_OK(model.Add(DenseLayer::Random(5, 3, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
  return model;
}

// Three rounds, so a forced mid-protocol fallback exercises both the
// packed->scalar and scalar->packed representation transitions.
Model ThreeRoundModel(uint64_t seed) {
  Rng rng(seed);
  Model model(Shape{4}, "three");
  PPS_CHECK_OK(model.Add(DenseLayer::Random(4, 6, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<ReluLayer>()));
  PPS_CHECK_OK(model.Add(DenseLayer::Random(6, 5, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<ReluLayer>()));
  PPS_CHECK_OK(model.Add(DenseLayer::Random(5, 3, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
  return model;
}

std::unique_ptr<DenseLayer> BiasedDense(int64_t in, int64_t out, Rng& rng) {
  auto dense = DenseLayer::Random(in, out, rng);
  for (int64_t o = 0; o < out; ++o) {
    dense->bias()[o] = rng.NextUniform(-0.5, 0.5);
  }
  return dense;
}

// SmallDenseModel with non-zero biases, which packed kernels replicate
// into the live lanes of every output word.
Model BiasedDenseModel(uint64_t seed) {
  Rng rng(seed);
  Model model(Shape{4}, "biased");
  PPS_CHECK_OK(model.Add(BiasedDense(4, 5, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<ReluLayer>()));
  PPS_CHECK_OK(model.Add(BiasedDense(5, 3, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
  return model;
}

std::vector<BigInt> RandomSlots(const PackedLayout& layout, uint64_t seed) {
  Rng rng(seed);
  const BigInt capacity = layout.SlotCapacity();
  // Stay within the guard-protected value range so hom ops stay legal.
  const int64_t value_range =
      int64_t{1} << (layout.slot_bits - 1 - layout.guard_bits - 1);
  std::vector<BigInt> slots;
  for (int32_t i = 0; i < layout.lanes; ++i) {
    int64_t v = static_cast<int64_t>(rng.NextUniform(
        -static_cast<double>(value_range), static_cast<double>(value_range)));
    slots.emplace_back(v);
  }
  (void)capacity;
  return slots;
}

// --------------------------------------------------------------- layout

TEST(PackedLayoutTest, ChoosesLanesFromKeyBudget) {
  auto layout = ChoosePackedLayout(/*key_bits=*/512, BigInt(1'000'000),
                                   /*guard_bits=*/2, /*max_lanes=*/64);
  ASSERT_TRUE(layout.ok());
  EXPECT_GT(layout.value().lanes, 2);
  EXPECT_LE(layout.value().TotalBits(), 510);
  // slot = 20 value bits + 1 sign + 2 guard.
  EXPECT_EQ(layout.value().slot_bits, 23);
  EXPECT_EQ(layout.value().lanes, 510 / 23);
}

TEST(PackedLayoutTest, RespectsMaxLanes) {
  auto layout = ChoosePackedLayout(2048, BigInt(1000), 2, 8);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout.value().lanes, 8);
}

TEST(PackedLayoutTest, FailsWhenBoundLeavesUnderTwoLanes) {
  // A 200-bit bound cannot pack twice into a 256-bit key.
  BigInt wide = BigInt(1) << 200;
  auto layout = ChoosePackedLayout(256, wide, 2, 64);
  EXPECT_FALSE(layout.ok());
}

TEST(PackedLayoutTest, CrossKeySizeRoundTrips) {
  for (int key_bits : {512, 1024, 2048}) {
    auto layout_or =
        ChoosePackedLayout(key_bits, BigInt(3'000'000), 3, 4096);
    ASSERT_TRUE(layout_or.ok()) << key_bits;
    const PackedLayout& layout = layout_or.value();
    EXPECT_LE(layout.TotalBits(), key_bits - 2);
    std::vector<BigInt> slots =
        RandomSlots(layout, 1000 + static_cast<uint64_t>(key_bits));
    auto packed = PackSigned(layout, slots);
    ASSERT_TRUE(packed.ok()) << key_bits;
    auto back = UnpackSigned(layout, packed.value());
    ASSERT_TRUE(back.ok()) << key_bits;
    ASSERT_EQ(back.value().size(), static_cast<size_t>(layout.lanes));
    for (size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(back.value()[i], slots[i]) << key_bits << " slot " << i;
    }
  }
}

TEST(PackedLayoutTest, SerializeRoundTrip) {
  PackedLayout layout{7, 23, 2};
  BufferWriter w;
  layout.Serialize(&w);
  BufferReader r(w.bytes());
  auto back = PackedLayout::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value() == layout);
}

TEST(PackedLayoutTest, DeserializeRejectsGarbage) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes(static_cast<size_t>(rng.NextUniform(0, 16)));
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.NextUniform(0, 256));
    }
    BufferReader r(bytes);
    auto layout = PackedLayout::Deserialize(&r);  // must not crash
    if (layout.ok()) {
      EXPECT_TRUE(layout.value().Validate().ok());
    }
  }
}

// ---------------------------------------------------------------- codec

TEST(PackedCodecTest, PackRejectsOverCapacitySlot) {
  PackedLayout layout{4, 8, 1};
  std::vector<BigInt> slots{BigInt(layout.SlotCapacity() + BigInt(1))};
  EXPECT_FALSE(PackSigned(layout, slots).ok());
}

TEST(PackedCodecTest, MissingSlotsPackAsZero) {
  PackedLayout layout{4, 10, 1};
  auto packed = PackSigned(layout, {BigInt(5), BigInt(-3)});
  ASSERT_TRUE(packed.ok());
  auto back = UnpackSigned(layout, packed.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()[0], BigInt(5));
  EXPECT_EQ(back.value()[1], BigInt(-3));
  EXPECT_TRUE(back.value()[2].IsZero());
  EXPECT_TRUE(back.value()[3].IsZero());
}

TEST(PackedCodecTest, AdditionIsSlotAligned) {
  PackedLayout layout{5, 12, 2};
  std::vector<BigInt> a = RandomSlots(layout, 41);
  std::vector<BigInt> b = RandomSlots(layout, 43);
  auto pa = PackSigned(layout, a);
  auto pb = PackSigned(layout, b);
  ASSERT_TRUE(pa.ok() && pb.ok());
  ASSERT_TRUE(CheckAddLegal(layout, BigInt(1) << 9, BigInt(1) << 9).ok());
  auto sum = UnpackSigned(layout, pa.value() + pb.value());
  ASSERT_TRUE(sum.ok());
  for (int32_t i = 0; i < layout.lanes; ++i) {
    EXPECT_EQ(sum.value()[static_cast<size_t>(i)],
              a[static_cast<size_t>(i)] + b[static_cast<size_t>(i)]);
  }
}

TEST(PackedCodecTest, ScalarMulScalesEverySlot) {
  PackedLayout layout{5, 12, 3};
  std::vector<BigInt> a = RandomSlots(layout, 47);
  auto pa = PackSigned(layout, a);
  ASSERT_TRUE(pa.ok());
  for (int64_t w : {2, -3, 7}) {
    ASSERT_TRUE(CheckScalarMulLegal(layout, BigInt(1) << 7, BigInt(w)).ok());
    auto scaled = UnpackSigned(layout, pa.value() * BigInt(w));
    ASSERT_TRUE(scaled.ok()) << w;
    for (int32_t i = 0; i < layout.lanes; ++i) {
      EXPECT_EQ(scaled.value()[static_cast<size_t>(i)],
                a[static_cast<size_t>(i)] * BigInt(w));
    }
  }
}

TEST(PackedCodecTest, GuardOverflowProducesWitnessNotCorruption) {
  PackedLayout layout{3, 8, 0};
  // capacity = 127; a sum of 127 + 1 = 128 = 2^(s-1) is the illegal
  // balanced digit (it aliases -128 plus a carry into the next lane).
  auto pa = PackSigned(layout, {BigInt(127), BigInt(5)});
  auto pb = PackSigned(layout, {BigInt(1), BigInt(5)});
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_FALSE(CheckAddLegal(layout, BigInt(127), BigInt(1)).ok());
  auto sum = UnpackSigned(layout, pa.value() + pb.value());
  EXPECT_FALSE(sum.ok());  // overflow is WITNESSED, not silent
}

TEST(PackedCodecTest, ResidueBeyondLastSlotIsRejected) {
  PackedLayout layout{2, 8, 0};
  // A value wider than lanes*slot_bits must be rejected up front.
  BigInt wide = BigInt(1) << 17;
  EXPECT_FALSE(UnpackSigned(layout, wide).ok());
}

TEST(PackedCodecTest, BitFlipAndTruncationFuzzNeverCrashes) {
  PackedLayout layout{6, 14, 2};
  Rng rng(99);
  int decode_errors = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<BigInt> slots = RandomSlots(layout, 5000 + trial);
    auto packed = PackSigned(layout, slots);
    ASSERT_TRUE(packed.ok());
    // Flip one bit somewhere in (or just above) the packed width.
    const int bit = static_cast<int>(
        rng.NextUniform(0, static_cast<double>(layout.TotalBits() + 4)));
    BigInt flipped = packed.value() + (BigInt(1) << bit);
    auto decoded = UnpackSigned(layout, flipped);  // must not crash
    if (!decoded.ok()) ++decode_errors;
    // Truncation (shift out low slots) must also never crash.
    auto truncated = UnpackSigned(layout, packed.value() >> 13);
    (void)truncated;
  }
  // High bit flips beyond the last slot must be witnessed as errors.
  EXPECT_GT(decode_errors, 0);
}

// --------------------------------------------------------------- kernel

class PackedKernelTest : public ::testing::Test {
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

PaillierKeyPair* PackedKernelTest::keys_ = nullptr;

// Packs per-lane integer inputs, runs the packed kernel homomorphically,
// and checks every lane against the exact plaintext reference.
void CheckKernelAgainstPlain(const PaillierKeyPair& keys,
                             const IntegerAffineLayer& affine,
                             const PackedLayout& layout, int64_t lanes,
                             const BigInt& input_bound, uint64_t seed) {
  auto kernel = AffineKernel::Build(affine, layout, input_bound);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();

  const int64_t n_in = affine.input_shape().NumElements();
  Rng rng(seed);
  std::vector<Tensor<BigInt>> lane_inputs;
  for (int64_t l = 0; l < lanes; ++l) {
    Tensor<BigInt> in{affine.input_shape()};
    for (int64_t i = 0; i < n_in; ++i) {
      in[i] = BigInt(static_cast<int64_t>(rng.NextUniform(-200, 200)));
    }
    lane_inputs.push_back(std::move(in));
  }

  SecureRng enc_rng = SecureRng::FromSeed(seed ^ 0xABCD);
  std::vector<Ciphertext> words;
  for (int64_t t = 0; t < n_in; ++t) {
    std::vector<BigInt> slots;
    for (int64_t l = 0; l < lanes; ++l) slots.push_back(lane_inputs[l][t]);
    auto packed = PackSigned(layout, slots);
    ASSERT_TRUE(packed.ok());
    auto c = Paillier::Encrypt(keys.public_key, packed.value(), enc_rng);
    ASSERT_TRUE(c.ok());
    words.push_back(std::move(c).value());
  }

  auto out = kernel.value().ApplyRows(keys.public_key, words, lanes, 0,
                                      kernel.value().num_rows());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.value().size(), affine.rows().size());

  for (int64_t l = 0; l < lanes; ++l) {
    auto expected = affine.ApplyPlain(lane_inputs[l]);
    ASSERT_TRUE(expected.ok());
    for (size_t j = 0; j < out.value().size(); ++j) {
      auto m = Paillier::Decrypt(keys.public_key, keys.private_key,
                                 out.value()[j]);
      ASSERT_TRUE(m.ok());
      auto slots = UnpackSigned(layout, m.value());
      ASSERT_TRUE(slots.ok()) << "row " << j;
      EXPECT_EQ(slots.value()[static_cast<size_t>(l)],
                expected.value()[static_cast<int64_t>(j)])
          << "lane " << l << " row " << j;
    }
  }
}

// Encrypts `count` packed words whose first `live_lanes` slots (all of
// them by default) hold values drawn from [-200, 200) with seed
// `vals_seed`; the rest stay 0.
std::vector<Ciphertext> EncryptRandomWords(const PaillierPublicKey& pk,
                                           const PackedLayout& layout,
                                           int64_t count, uint64_t vals_seed,
                                           uint64_t enc_seed,
                                           int64_t live_lanes = 0) {
  if (live_lanes == 0) live_lanes = layout.lanes;
  Rng vals(vals_seed);
  SecureRng enc_rng = SecureRng::FromSeed(enc_seed);
  std::vector<Ciphertext> words;
  for (int64_t t = 0; t < count; ++t) {
    std::vector<BigInt> slots;
    for (int64_t l = 0; l < live_lanes; ++l) {
      slots.emplace_back(static_cast<int64_t>(vals.NextUniform(-200, 200)));
    }
    auto packed = PackSigned(layout, slots);
    PPS_CHECK_OK(packed.status());
    auto c = Paillier::Encrypt(pk, packed.value(), enc_rng);
    PPS_CHECK_OK(c.status());
    words.push_back(std::move(c).value());
  }
  return words;
}

// Per-term public primitives over packed words, with each bias replicated
// into the `lanes` live slots: prod_g (prod_{i in g} c_i)^{w_g} is the
// same residue as prod_i c_i^{w_i}, so no grouping may change a bit.
std::vector<Ciphertext> PackedCanonicalReference(
    const PaillierPublicKey& pk, const IntegerAffineLayer& affine,
    const std::vector<Ciphertext>& words, const PackedLayout& layout,
    int64_t lanes) {
  std::vector<Ciphertext> want;
  for (const AffineRow& row : affine.rows()) {
    Ciphertext acc = Paillier::EncryptZeroDeterministic(pk);
    for (const AffineTerm& t : row.terms) {
      auto term = Paillier::ScalarMul(pk, words[t.input_index],
                                      BigInt(t.weight));
      PPS_CHECK_OK(term.status());
      acc = Paillier::Add(pk, acc, term.value());
    }
    if (!row.bias.IsZero()) {
      auto biased = Paillier::AddPlain(
          pk, acc, row.bias * layout.ReplicationConstant(lanes));
      PPS_CHECK_OK(biased.status());
      acc = std::move(biased).value();
    }
    want.push_back(std::move(acc));
  }
  return want;
}

TEST_F(PackedKernelTest, MatchesPlainReferenceOnAllLanes) {
  Rng rng(7);
  auto dense = DenseLayer::Random(6, 4, rng);
  auto affine =
      IntegerAffineLayer::FromLayer(*dense, Shape{6}, /*scale=*/100, 1);
  ASSERT_TRUE(affine.ok());
  const BigInt input_bound(200);
  const BigInt out_bound = affine.value().OutputMagnitudeBound(input_bound);
  auto layout = ChoosePackedLayout(kTestKeyBits, out_bound, 2, 64);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  ASSERT_GT(layout.value().lanes, 1);
  CheckKernelAgainstPlain(*keys_, affine.value(), layout.value(),
                          layout.value().lanes, input_bound, 333);
}

TEST_F(PackedKernelTest, SingleLaneDegenerateMatchesScalarPathExactly) {
  Rng rng(9);
  auto dense = DenseLayer::Random(5, 3, rng);
  auto affine =
      IntegerAffineLayer::FromLayer(*dense, Shape{5}, /*scale=*/100, 1);
  ASSERT_TRUE(affine.ok());
  const BigInt input_bound(200);
  const BigInt out_bound = affine.value().OutputMagnitudeBound(input_bound);
  // lanes = 1: the packed word IS the scalar value.
  PackedLayout layout{1, out_bound.BitLength() + 2, 1};
  CheckKernelAgainstPlain(*keys_, affine.value(), layout, 1, input_bound,
                          555);

  // And the decrypted packed outputs equal the scalar path bit for bit.
  Tensor<BigInt> in{Shape{5}};
  Rng vals(10);
  std::vector<Ciphertext> cts;
  SecureRng enc_rng = SecureRng::FromSeed(0xFEED);
  for (int64_t i = 0; i < 5; ++i) {
    in[i] = BigInt(static_cast<int64_t>(vals.NextUniform(-200, 200)));
    auto c = Paillier::Encrypt(keys_->public_key, in[i], enc_rng);
    ASSERT_TRUE(c.ok());
    cts.push_back(std::move(c).value());
  }
  auto kernel = AffineKernel::Build(affine.value(), layout, input_bound);
  ASSERT_TRUE(kernel.ok());
  auto packed_out =
      kernel.value().ApplyRows(keys_->public_key, cts, /*lanes=*/1, 0, 3);
  auto scalar_out = AffineKernel::Build(affine.value())
                        .ApplyRows(keys_->public_key, cts, 1, 0, 3);
  ASSERT_TRUE(packed_out.ok() && scalar_out.ok());
  for (size_t j = 0; j < 3; ++j) {
    auto a = Paillier::Decrypt(keys_->public_key, keys_->private_key,
                               packed_out.value()[j]);
    auto b = Paillier::Decrypt(keys_->public_key, keys_->private_key,
                               scalar_out.value()[j]);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value(), b.value()) << "row " << j;
  }
}

TEST_F(PackedKernelTest, MatchesCanonicalReferenceBitExact) {
  // Rows built for every group shape: singleton groups of both signs,
  // folded positive and folded negative groups, mixed signs in one row,
  // an identity row, a zero-weight biased row, and biased rows. Weight k
  // at F = 100 is k / 100.
  const std::vector<std::vector<int64_t>> weights = {
      {3, -5, 7, -11, 13, 0},       // singletons, mixed signs
      {4, 4, 4, 2, 2, 0},           // folded, all positive
      {-6, -6, 6, 6, -1, -1},       // folded, mixed signs, |w| = 1 group
      {0, 1, 0, 0, 0, 0},           // identity (forwarded)
      {-2, -2, -3, -3, -3, -7},     // folded, all negative, biased
      {0, 0, 0, 0, 0, 0},           // zero weights, biased
      {1, 1, 1, 1, 1, 1},           // one weight-1 group of six, biased
  };
  const std::vector<double> bias = {0, 0, 0, 0, -0.3, 0.21, 0.5};
  DenseLayer dense(6, static_cast<int64_t>(weights.size()));
  for (size_t o = 0; o < weights.size(); ++o) {
    for (size_t i = 0; i < 6; ++i) {
      dense.weights()[static_cast<int64_t>(o * 6 + i)] =
          static_cast<double>(weights[o][i]) / 100.0;
    }
    dense.bias()[static_cast<int64_t>(o)] = bias[o];
  }
  auto affine = IntegerAffineLayer::FromLayer(dense, Shape{6}, 100, 1);
  ASSERT_TRUE(affine.ok());
  const BigInt input_bound(200);
  auto layout = ChoosePackedLayout(
      kTestKeyBits, affine.value().OutputMagnitudeBound(input_bound), 2, 64);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  ASSERT_GT(layout.value().lanes, 1);
  auto kernel =
      AffineKernel::Build(affine.value(), layout.value(), input_bound);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  ASSERT_EQ(kernel.value().num_rows(), weights.size());
  EXPECT_TRUE(kernel.value().IsIdentityRow(3));
  EXPECT_EQ(kernel.value().RowGroups(1), 2u);  // {2: 3,4}, {4: 0,1,2}
  EXPECT_EQ(kernel.value().RowGroups(2), 3u);  // {-6: 0,1}, {-1: 4,5}, {6: 2,3}

  const PaillierPublicKey& pk = keys_->public_key;
  const int64_t lanes = layout.value().lanes;
  const std::vector<Ciphertext> words =
      EncryptRandomWords(pk, layout.value(), 6, 141, 143);
  const std::vector<Ciphertext> want =
      PackedCanonicalReference(pk, affine.value(), words, layout.value(),
                               lanes);

  auto cache =
      kernel.value().BuildStageCache(pk, words, nullptr, /*min_fan_out=*/1);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_GT(cache.value().tables_built, 0);
  const EncryptedStageCache* caches[] = {nullptr, &cache.value()};
  for (const EncryptedStageCache* c : caches) {
    auto out =
        kernel.value().ApplyRows(pk, words, lanes, 0, weights.size(), c);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out.value().size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(out.value()[j].value.Compare(want[j].value), 0)
          << "row " << j << (c != nullptr ? " (cached)" : "");
    }
    // A slice batch-inverts only its own rows.
    auto slice = kernel.value().ApplyRows(pk, words, lanes, 2, 5, c);
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    for (size_t j = 0; j < slice.value().size(); ++j) {
      EXPECT_EQ(slice.value()[j].value.Compare(want[2 + j].value), 0)
          << "slice row " << 2 + j << (c != nullptr ? " (cached)" : "");
    }
  }

  // Every kind of weight application (folds with and without tables,
  // split tabled groups, |w| = 1, mixed signs) at k lanes, through every
  // entry, with no tables, the default tables and tables forced on.
  const IntegerAffineLayer groups_op = WeightGroupDenseOp();
  auto groups_layout = ChoosePackedLayout(
      kTestKeyBits, groups_op.OutputMagnitudeBound(input_bound), 2, 64);
  ASSERT_TRUE(groups_layout.ok()) << groups_layout.status().ToString();
  ASSERT_GT(groups_layout.value().lanes, 1);
  auto groups = AffineKernel::Build(groups_op, groups_layout.value(),
                                    input_bound);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  EXPECT_EQ(groups.value().weight_applications(), 22);
  // A full batch and a narrower one (its empty slots stay 0).
  for (int64_t k : {int64_t{groups_layout.value().lanes}, int64_t{2}}) {
    const std::vector<Ciphertext> groups_words = EncryptRandomWords(
        pk, groups_layout.value(), 12, 151 + k, 153 + k, k);
    const std::vector<Ciphertext> groups_want = PackedCanonicalReference(
        pk, groups_op, groups_words, groups_layout.value(), k);
    const std::string lanes_name = std::to_string(k) + " lanes";
    ExpectEveryEntryBitExact(pk, groups_op, groups.value(), groups_words, k,
                             groups_want, nullptr, 2, 4,
                             lanes_name + ", no cache");
    for (int64_t min_fan_out : {0, 1}) {
      auto groups_cache = groups.value().BuildStageCache(
          pk, groups_words, nullptr, min_fan_out);
      ASSERT_TRUE(groups_cache.ok()) << groups_cache.status().ToString();
      ExpectEveryEntryBitExact(
          pk, groups_op, groups.value(), groups_words, k, groups_want,
          &groups_cache.value(), 2, 4,
          lanes_name + ", min_fan_out=" + std::to_string(min_fan_out));
    }
  }
}

TEST_F(PackedKernelTest, BuildRejectsLayoutTooSmallForBound) {
  Rng rng(11);
  auto dense = DenseLayer::Random(6, 2, rng);
  auto affine =
      IntegerAffineLayer::FromLayer(*dense, Shape{6}, /*scale=*/100, 1);
  ASSERT_TRUE(affine.ok());
  PackedLayout tiny{4, 8, 1};  // capacity 127 << dense output bound
  auto kernel = AffineKernel::Build(affine.value(), tiny, BigInt(200));
  EXPECT_FALSE(kernel.ok());
}

TEST_F(PackedKernelTest, QuantizedWeightsCutWeightApplications) {
  // Groups of a k-bit quantized layer fold only where folding beats the
  // members' fixed-base tables, so quantization never costs applications,
  // and cuts them once a layer is wide enough for its groups to pass the
  // break-even group size (bench_micro_crypto BM_WeightGroupFoldVsTable,
  // at most 8.1 members for any weight width).
  auto quantized_dense = [](int64_t inputs, uint64_t seed) {
    Rng rng(seed);
    Model model(Shape{inputs}, "quant");
    PPS_CHECK_OK(model.Add(DenseLayer::Random(inputs, 12, rng)));
    PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
    CompressionSpec spec;
    spec.weight_bits = 3;  // at most 7 distinct nonzero levels
    auto compressed = CompressModel(model, spec);
    PPS_CHECK_OK(compressed.status());
    const auto& dense =
        dynamic_cast<const DenseLayer&>(compressed.value().layer(0));
    auto affine =
        IntegerAffineLayer::FromLayer(dense, Shape{inputs}, /*scale=*/100, 1);
    PPS_CHECK_OK(affine.status());
    return std::move(affine).value();
  };
  auto check_layer = [&](const IntegerAffineLayer& affine, uint64_t seed,
                         int64_t* count) {
    const BigInt out_bound = affine.OutputMagnitudeBound(BigInt(200));
    auto layout = ChoosePackedLayout(kTestKeyBits, out_bound, 2, 64);
    ASSERT_TRUE(layout.ok());
    auto kernel = AffineKernel::Build(affine, layout.value(), BigInt(200));
    ASSERT_TRUE(kernel.ok());
    // Never more than one application per term.
    EXPECT_LE(kernel.value().weight_applications(), affine.TotalTerms());
    // Still exact.
    CheckKernelAgainstPlain(*keys_, affine, layout.value(),
                            layout.value().lanes, BigInt(200), seed);
    *count = kernel.value().weight_applications();
  };

  // 16 inputs: groups of 1-7 members, nearly all below the break-even.
  int64_t count = 0;
  check_layer(quantized_dense(16, 13), 777, &count);

  // 256 inputs: every group of every row exceeds the break-even, all its
  // members have tables (fan-out 12), so every group folds.
  const IntegerAffineLayer wide = quantized_dense(256, 13);
  for (const AffineRow& row : wide.rows()) {
    std::map<int64_t, size_t> groups;
    for (const AffineTerm& t : row.terms) ++groups[t.weight];
    for (const auto& [weight, members] : groups) {
      const int bits = BigInt(weight).BitLength();
      EXPECT_GE(bits, 2) << "weight " << weight;
      EXPECT_TRUE(AffineKernel::FoldsGroup(bits, members, true))
          << "weight " << weight << " x" << members;
    }
  }
  check_layer(wide, 779, &count);
  // 12 rows x <= 7 distinct values beats 12 x 256 per-term muls.
  EXPECT_LE(count, 12 * 7);
  EXPECT_LT(count, wide.TotalTerms());
}

// --------------------------------------------------------------- passes

TEST(PackingPassTest, AnnotatesRoundsAndLowersKernels) {
  Model model = SmallDenseModel(29);
  CompileOptions options;
  options.packing = planner::PackingSpec{kTestKeyBits, 2, 64};
  auto plan = CompilePlan(model, 1000, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().compile_stats.rounds_packed, 2);
  EXPECT_EQ(plan.value().compile_stats.rounds_packing_fallback, 0);
  EXPECT_GT(plan.value().compile_stats.packed_group_muls, 0);
  EXPECT_GT(plan.value().PackedBatchLanes(), 1);
  for (const LinearStage& stage : plan.value().linear_stages) {
    ASSERT_TRUE(stage.packed_layout.has_value());
    EXPECT_EQ(stage.kernels.size(), stage.ops.size());
  }
}

TEST(PackingPassTest, FallsBackWhenKeyLeavesNoLanes) {
  Model model = SmallDenseModel(29);
  CompileOptions options;
  // 64-bit "key": bounds at scale 10^6 leave no room for two lanes.
  options.packing = planner::PackingSpec{64, 2, 64};
  auto plan = CompilePlan(model, 1'000'000, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().compile_stats.rounds_packed, 0);
  EXPECT_EQ(plan.value().compile_stats.rounds_packing_fallback, 2);
  EXPECT_EQ(plan.value().PackedBatchLanes(), 0);
  for (const LinearStage& stage : plan.value().linear_stages) {
    EXPECT_FALSE(stage.packed_layout.has_value());
    for (const AffineKernel& kernel : stage.kernels) {
      EXPECT_FALSE(kernel.layout().has_value());
    }
  }
}

TEST(PackingPassTest, PlansWithoutPackingAreUntouched) {
  Model model = SmallDenseModel(29);
  auto plan = CompilePlan(model, 1000);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().compile_stats.rounds_packed, 0);
  for (const LinearStage& stage : plan.value().linear_stages) {
    EXPECT_FALSE(stage.packed_layout.has_value());
  }
}

// ------------------------------------------------------------- protocol

class PackedProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(31);
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

PaillierKeyPair* PackedProtocolTest::keys_ = nullptr;

void ExpectBatchMatchesReference(const std::shared_ptr<InferencePlan>& plan,
                                 const PaillierKeyPair& keys, int64_t lanes,
                                 uint64_t seed, ThreadPool* pool = nullptr) {
  ModelProvider mp(plan, keys.public_key, /*obf_seed=*/seed * 2 + 1);
  DataProvider dp(plan, keys, /*enc_seed=*/seed * 2 + 7);
  std::vector<DoubleTensor> inputs;
  for (int64_t l = 0; l < lanes; ++l) {
    inputs.push_back(
        RandomTensor(plan->input_shape, seed + static_cast<uint64_t>(l)));
  }
  auto batch_out = RunPackedBatchInference(mp, dp, /*request_id=*/seed,
                                           inputs, pool);
  ASSERT_TRUE(batch_out.ok()) << batch_out.status().ToString();
  ASSERT_EQ(batch_out.value().size(), inputs.size());
  EXPECT_EQ(mp.PendingRequestsForTesting(), 0u);
  for (int64_t l = 0; l < lanes; ++l) {
    // The scalar protocol is bit-exact against the scaled plain
    // reference; the packed batch must match the SAME reference, so each
    // lane is bit-exact with an independent scalar inference.
    auto plain = RunScaledPlainInference(*plan, inputs[static_cast<size_t>(l)]);
    ASSERT_TRUE(plain.ok());
    const DoubleTensor& got = batch_out.value()[static_cast<size_t>(l)];
    ASSERT_EQ(got.NumElements(), plain.value().NumElements());
    for (int64_t i = 0; i < got.NumElements(); ++i) {
      EXPECT_DOUBLE_EQ(got[i], plain.value()[i])
          << "lane " << l << " element " << i;
    }
  }
}

std::shared_ptr<InferencePlan> CompilePackedPlan(const Model& model) {
  CompileOptions options;
  options.packing = planner::PackingSpec{kTestKeyBits, 2, 64};
  auto plan_or = CompilePlan(model, 1000, options);
  PPS_CHECK_OK(plan_or.status());
  return std::make_shared<InferencePlan>(std::move(plan_or).value());
}

// Every ciphertext vector either party puts on the wire, in order.
using WireLog = std::vector<std::vector<Ciphertext>>;

Result<std::vector<Ciphertext>> Logged(Result<std::vector<Ciphertext>> sent,
                                       WireLog* wire) {
  if (sent.ok()) wire->push_back(sent.value());
  return sent;
}

/// Forwards to an in-process model provider, logging what it sends.
class LoggingModelProvider final : public ModelProviderApi {
 public:
  LoggingModelProvider(ModelProvider& inner, WireLog* wire)
      : inner_(inner), wire_(wire) {}

  const InferencePlan& plan() const override { return inner_.plan(); }
  Result<std::vector<Ciphertext>> ProcessRound(
      uint64_t request_id, size_t round,
      const std::vector<Ciphertext>& in) override {
    return Logged(inner_.ProcessRound(request_id, round, in), wire_);
  }
  Result<std::vector<Ciphertext>> InverseObfuscate(
      uint64_t request_id, size_t round, std::vector<Ciphertext> in) override {
    return inner_.InverseObfuscate(request_id, round, std::move(in));
  }
  Result<std::vector<Ciphertext>> ApplyLinearStage(
      size_t round, const std::vector<Ciphertext>& in, ThreadPool* pool,
      bool input_partitioning) override {
    return inner_.ApplyLinearStage(round, in, pool, input_partitioning);
  }
  Result<std::vector<Ciphertext>> Obfuscate(
      uint64_t request_id, size_t round, std::vector<Ciphertext> in) override {
    return inner_.Obfuscate(request_id, round, std::move(in));
  }
  Status ReleaseRequestState(uint64_t request_id) override {
    return inner_.ReleaseRequestState(request_id);
  }

 private:
  ModelProvider& inner_;
  WireLog* wire_;
};

/// Forwards to an in-process data provider, logging what it sends.
class LoggingDataProvider final : public DataProviderApi {
 public:
  LoggingDataProvider(DataProvider& inner, WireLog* wire)
      : inner_(inner), wire_(wire) {}

  const PaillierPublicKey& public_key() const override {
    return inner_.public_key();
  }
  Result<std::vector<Ciphertext>> EncryptInput(
      const DoubleTensor& input) override {
    return Logged(inner_.EncryptInput(input), wire_);
  }
  Result<std::vector<Ciphertext>> EncryptInputParallel(
      const DoubleTensor& input, ThreadPool* pool) override {
    return Logged(inner_.EncryptInputParallel(input, pool), wire_);
  }
  Result<std::vector<Ciphertext>> ProcessIntermediate(
      size_t round, const std::vector<Ciphertext>& in,
      std::vector<double>* decrypted_view, ThreadPool* pool) override {
    return Logged(inner_.ProcessIntermediate(round, in, decrypted_view, pool),
                  wire_);
  }
  Result<DoubleTensor> ProcessFinal(const std::vector<Ciphertext>& in,
                                    ThreadPool* pool) override {
    return inner_.ProcessFinal(in, pool);
  }

 private:
  DataProvider& inner_;
  WireLog* wire_;
};

// RunPackedBatchInference's steps through the lane entry points, logging
// the wire: the encrypted input, then each round's model-provider output
// (entry 2r + 1) and, before the last round, the re-encrypted reply.
Result<std::vector<DoubleTensor>> DriveLanes(
    ModelProvider& mp, DataProvider& dp, uint64_t request_id,
    const std::vector<DoubleTensor>& inputs, WireLog* wire) {
  const int64_t lanes = static_cast<int64_t>(inputs.size());
  const size_t rounds = mp.plan().NumRounds();
  PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> sent,
                       Logged(dp.EncryptInput(inputs, nullptr), wire));
  for (size_t r = 0; r < rounds; ++r) {
    PPS_ASSIGN_OR_RETURN(
        sent,
        Logged(mp.ProcessRound(request_id, r, sent, lanes, nullptr), wire));
    if (r + 1 == rounds) break;
    PPS_ASSIGN_OR_RETURN(
        sent, Logged(dp.ProcessIntermediate(r, sent, lanes, nullptr, nullptr),
                     wire));
  }
  PPS_RETURN_IF_ERROR(mp.ReleaseRequestState(request_id));
  return dp.ProcessFinal(sent, lanes, nullptr);
}

TEST_F(PackedProtocolTest, FullyPackedBatchIsBitExactPerLane) {
  Model model = SmallDenseModel(29);
  CompileOptions options;
  options.packing = planner::PackingSpec{kTestKeyBits, 2, 64};
  auto plan_or = CompilePlan(model, 1000, options);
  ASSERT_TRUE(plan_or.ok());
  ASSERT_TRUE(plan_or.value().CheckFitsKey(keys_->public_key.n()).ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  const int64_t lanes = std::min<int64_t>(plan->PackedBatchLanes(), 4);
  ASSERT_GT(lanes, 1);
  ExpectBatchMatchesReference(plan, *keys_, lanes, 101);
}

TEST_F(PackedProtocolTest, SingleLaneBatchWorks) {
  // One lane rides the scalar wire even when every round could pack.
  auto plan = CompilePackedPlan(BiasedDenseModel(29));
  ASSERT_GT(plan->PackedBatchLanes(), 1);
  ExpectBatchMatchesReference(plan, *keys_, 1, 211);

  // So a one-lane batch and RunProtocolInference, on providers with the
  // same seeds, put the same ciphertexts on the wire every round, and
  // both spend exactly ExpectedRequestCost(plan, 1).
  const DoubleTensor input = RandomTensor(plan->input_shape, 213);
  const obs::RequestCostBudget budget = ExpectedRequestCost(*plan, 1);
  // Prefilled pools serve every randomizer from the front of the seeded
  // stream; a pool that misses while its refill thread runs would assign
  // randomizers to positions by timing.
  DataProvider::Options dp_options;
  dp_options.prefill = true;
  auto expect_cost = [&](const obs::CryptoCostSnapshot& before,
                         const char* path) {
    const obs::CryptoCostSnapshot spent =
        obs::CryptoCostSnapshot::Capture() - before;
    EXPECT_EQ(spent.encrypts, budget.encrypts) << path;
    EXPECT_EQ(spent.scalar_muls, budget.scalar_muls) << path;
  };
  WireLog scalar_wire;
  {
    ModelProvider mp(plan, keys_->public_key, 215);
    DataProvider dp(plan, *keys_, 217, dp_options);
    LoggingModelProvider logged_mp(mp, &scalar_wire);
    LoggingDataProvider logged_dp(dp, &scalar_wire);
    const auto before = obs::CryptoCostSnapshot::Capture();
    auto out = RunProtocolInference(logged_mp, logged_dp, 219, input);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    expect_cost(before, "RunProtocolInference");
  }
  WireLog lane_wire;
  {
    ModelProvider mp(plan, keys_->public_key, 215);
    DataProvider dp(plan, *keys_, 217, dp_options);
    const auto before = obs::CryptoCostSnapshot::Capture();
    auto out = DriveLanes(mp, dp, 219, {input}, &lane_wire);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    expect_cost(before, "one-lane batch");
  }
  ASSERT_EQ(lane_wire.size(), 2 * plan->NumRounds());
  ASSERT_EQ(lane_wire.size(), scalar_wire.size());
  for (size_t k = 0; k < lane_wire.size(); ++k) {
    ASSERT_EQ(lane_wire[k].size(), scalar_wire[k].size()) << "message " << k;
    for (size_t p = 0; p < lane_wire[k].size(); ++p) {
      EXPECT_EQ(lane_wire[k][p].value.Compare(scalar_wire[k][p].value), 0)
          << "message " << k << " position " << p;
    }
  }
}

TEST_F(PackedProtocolTest, PricingEqualsCountingWhereGroupsFold) {
  // A pruned, 6-bit quantized MNIST-2-shaped plan: its kernels fold many
  // groups, so weight applications differ from terms, and the one price
  // must still equal what every path counts, partitioned packed rounds
  // included.
  auto model = MakeZooModel(ZooModelId::kMnist2, 41);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  CompressionSpec spec;
  spec.prune_fraction = 0.25;
  spec.weight_bits = 6;
  auto compressed = CompressModel(model.value(), spec);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  CompileOptions options;
  options.packing = planner::PackingSpec{kTestKeyBits, 2, 64};
  auto plan_or = CompilePlan(compressed.value(), 1000, options);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  ASSERT_TRUE(plan_or.value().CheckFitsKey(keys_->public_key.n()).ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  const int64_t lanes = std::min<int64_t>(plan->PackedBatchLanes(), 3);
  ASSERT_GT(lanes, 1);
  int64_t applications = 0, terms = 0;
  for (const LinearStage& stage : plan->linear_stages) {
    for (size_t k = 0; k < stage.ops.size(); ++k) {
      applications += stage.kernels[k].weight_applications();
      terms += stage.ops[k].TotalTerms();
    }
  }
  EXPECT_LT(applications, terms) << "no group folds";

  DataProvider::Options dp_options;
  dp_options.prefill = true;
  std::vector<DoubleTensor> inputs;
  for (int64_t l = 0; l < lanes; ++l) {
    inputs.push_back(
        RandomTensor(plan->input_shape, 801 + static_cast<uint64_t>(l)));
  }
  auto expect_spent = [](const obs::CryptoCostSnapshot& before,
                         const obs::RequestCostBudget& budget,
                         const std::string& path) {
    const obs::CryptoCostSnapshot spent =
        obs::CryptoCostSnapshot::Capture() - before;
    EXPECT_EQ(spent.scalar_muls, budget.scalar_muls) << path;
    EXPECT_EQ(spent.encrypts, budget.encrypts) << path;
  };
  auto expect_exact = [&](const DoubleTensor& got, size_t lane,
                          const std::string& path) {
    auto plain = RunScaledPlainInference(*plan, inputs[lane]);
    ASSERT_TRUE(plain.ok());
    ASSERT_EQ(got.NumElements(), plain.value().NumElements());
    for (int64_t i = 0; i < got.NumElements(); ++i) {
      EXPECT_DOUBLE_EQ(got[i], plain.value()[i])
          << path << ", lane " << lane << ", element " << i;
    }
  };
  {
    ModelProvider mp(plan, keys_->public_key, 803);
    DataProvider dp(plan, *keys_, 805, dp_options);
    const auto before = obs::CryptoCostSnapshot::Capture();
    auto out = RunProtocolInference(mp, dp, 807, inputs[0]);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    expect_spent(before, ExpectedRequestCost(*plan, 1),
                 "RunProtocolInference");
    expect_exact(out.value(), 0, "RunProtocolInference");
  }
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::string path = p == nullptr ? "packed batch" : "packed batch, "
                                                             "4 threads";
    ModelProvider mp(plan, keys_->public_key, 809);
    DataProvider dp(plan, *keys_, 811, dp_options);
    const auto before = obs::CryptoCostSnapshot::Capture();
    auto out = RunPackedBatchInference(mp, dp, 813, inputs, p);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    expect_spent(before, ExpectedRequestCost(*plan, lanes), path);
    ASSERT_EQ(out.value().size(), inputs.size());
    for (size_t l = 0; l < inputs.size(); ++l) {
      expect_exact(out.value()[l], l, path);
    }
  }
}

TEST_F(PackedProtocolTest, EmptySlotsOfANarrowBatchStayZero) {
  // A batch narrower than the layout leaves slots empty. The key holder
  // decrypts every model-provider word, so an empty slot must carry 0,
  // never the row's bias.
  auto plan = CompilePackedPlan(BiasedDenseModel(31));
  const int64_t lanes = 2;
  ASSERT_GT(plan->PackedBatchLanes(), lanes);
  ModelProvider mp(plan, keys_->public_key, 221);
  DataProvider dp(plan, *keys_, 223);
  const std::vector<DoubleTensor> inputs = {
      RandomTensor(plan->input_shape, 225),
      RandomTensor(plan->input_shape, 227)};
  WireLog wire;
  auto out = DriveLanes(mp, dp, 229, inputs, &wire);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(wire.size(), 2 * plan->NumRounds());
  for (size_t r = 0; r < plan->NumRounds(); ++r) {
    const PackedLayout& layout = *plan->linear_stages[r].packed_layout;
    for (size_t j = 0; j < wire[2 * r + 1].size(); ++j) {
      auto word = Paillier::Decrypt(keys_->public_key, keys_->private_key,
                                    wire[2 * r + 1][j]);
      ASSERT_TRUE(word.ok());
      auto slots = UnpackSigned(layout, word.value());
      ASSERT_TRUE(slots.ok()) << slots.status().ToString();
      for (size_t i = lanes; i < slots.value().size(); ++i) {
        EXPECT_TRUE(slots.value()[i].IsZero())
            << "round " << r << " word " << j << " slot " << i;
      }
    }
  }
  for (size_t l = 0; l < inputs.size(); ++l) {
    auto plain = RunScaledPlainInference(*plan, inputs[l]);
    ASSERT_TRUE(plain.ok());
    for (int64_t i = 0; i < plain.value().NumElements(); ++i) {
      EXPECT_DOUBLE_EQ(out.value()[l][i], plain.value()[i]);
    }
  }
}

TEST_F(PackedProtocolTest, MidProtocolScalarFallbackStaysExact) {
  Model model = ThreeRoundModel(37);
  CompileOptions options;
  options.packing = planner::PackingSpec{kTestKeyBits, 2, 64};
  auto plan_or = CompilePlan(model, 1000, options);
  ASSERT_TRUE(plan_or.ok());
  InferencePlan plan_val = std::move(plan_or).value();
  ASSERT_EQ(plan_val.NumRounds(), 3u);
  // Force the MIDDLE round scalar: exercises the packed->interleaved and
  // interleaved->packed transitions plus blockwise obfuscation.
  plan_val.linear_stages[1].packed_layout.reset();
  auto plan = std::make_shared<InferencePlan>(std::move(plan_val));
  const int64_t lanes = std::min<int64_t>(plan->PackedBatchLanes(), 3);
  ASSERT_GT(lanes, 1);
  ExpectBatchMatchesReference(plan, *keys_, lanes, 307);
  // Again with the lane decode/encode and the per-lane stages on threads.
  ThreadPool pool(4);
  ExpectBatchMatchesReference(plan, *keys_, lanes, 311, &pool);
}

TEST_F(PackedProtocolTest, AllScalarFallbackStaysExact) {
  // No packing at all: the batch path degenerates to interleaved lanes.
  Model model = SmallDenseModel(29);
  auto plan_or = CompilePlan(model, 1000);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  ExpectBatchMatchesReference(plan, *keys_, 3, 401);
}

TEST_F(PackedProtocolTest, RejectsBatchBeyondPlanLanes) {
  Model model = SmallDenseModel(29);
  CompileOptions options;
  options.packing = planner::PackingSpec{kTestKeyBits, 2, 2};
  auto plan_or = CompilePlan(model, 1000, options);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  ASSERT_EQ(plan->PackedBatchLanes(), 2);
  ModelProvider mp(plan, keys_->public_key, 3);
  DataProvider dp(plan, *keys_, 5);
  std::vector<DoubleTensor> inputs(3, RandomTensor(plan->input_shape, 1));
  EXPECT_FALSE(RunPackedBatchInference(mp, dp, 1, inputs).ok());
}

TEST_F(PackedProtocolTest, ViewSerializationCarriesLayouts) {
  Model model = SmallDenseModel(29);
  CompileOptions options;
  options.packing = planner::PackingSpec{kTestKeyBits, 2, 64};
  auto plan_or = CompilePlan(model, 1000, options);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());

  BufferWriter w;
  plan->SerializeDataProviderView(&w);
  BufferReader r(w.bytes());
  auto view_or = InferencePlan::DeserializeDataProviderView(&r);
  ASSERT_TRUE(view_or.ok()) << view_or.status().ToString();
  auto view = std::make_shared<InferencePlan>(std::move(view_or).value());
  ASSERT_EQ(view->linear_stages.size(), plan->linear_stages.size());
  for (size_t i = 0; i < view->linear_stages.size(); ++i) {
    ASSERT_TRUE(view->linear_stages[i].packed_layout.has_value());
    EXPECT_TRUE(*view->linear_stages[i].packed_layout ==
                *plan->linear_stages[i].packed_layout);
    EXPECT_TRUE(view->linear_stages[i].kernels.empty());
  }
  EXPECT_EQ(view->PackedBatchLanes(), plan->PackedBatchLanes());

  // A data provider built from the VIEW must interoperate with a model
  // provider on the full plan, packing included.
  ModelProvider mp(plan, keys_->public_key, 11);
  DataProvider dp(view, *keys_, 13);
  std::vector<DoubleTensor> inputs;
  for (int l = 0; l < 2; ++l) {
    inputs.push_back(RandomTensor(plan->input_shape, 600 + l));
  }
  auto out = RunPackedBatchInference(mp, dp, 17, inputs);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto plain = RunScaledPlainInference(*plan, inputs[0]);
  ASSERT_TRUE(plain.ok());
  for (int64_t i = 0; i < plain.value().NumElements(); ++i) {
    EXPECT_DOUBLE_EQ(out.value()[0][i], plain.value()[i]);
  }
}

TEST_F(PackedProtocolTest, ViewBitFlipFuzzNeverCrashes) {
  Model model = SmallDenseModel(29);
  CompileOptions options;
  options.packing = planner::PackingSpec{kTestKeyBits, 2, 64};
  auto plan_or = CompilePlan(model, 1000, options);
  ASSERT_TRUE(plan_or.ok());
  BufferWriter w;
  plan_or.value().SerializeDataProviderView(&w);
  std::vector<uint8_t> bytes = w.TakeBytes();
  Rng rng(88);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupted = bytes;
    const size_t at = static_cast<size_t>(
        rng.NextUniform(0, static_cast<double>(corrupted.size())));
    corrupted[at] ^= static_cast<uint8_t>(
        1u << static_cast<unsigned>(rng.NextUniform(0, 8)));
    BufferReader r(corrupted);
    auto view = InferencePlan::DeserializeDataProviderView(&r);
    (void)view;  // error or a structurally valid plan; never a crash
  }
  // Truncations too.
  for (size_t len = 0; len < bytes.size(); len += 7) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<int64_t>(len));
    BufferReader r(prefix);
    auto view = InferencePlan::DeserializeDataProviderView(&r);
    EXPECT_FALSE(view.ok());
  }
}

TEST_F(PackedProtocolTest, PrefilledPoolServesBurstWithoutMisses) {
  Model model = SmallDenseModel(29);
  auto plan_or = CompilePlan(model, 1000);
  ASSERT_TRUE(plan_or.ok());
  auto plan = std::make_shared<InferencePlan>(std::move(plan_or).value());
  DataProvider::Options dp_options;
  dp_options.expected_concurrency = 4;
  dp_options.prefill = true;
  DataProvider dp(plan, *keys_, 19, dp_options);
  for (int i = 0; i < 4; ++i) {
    auto wire = dp.EncryptInput(RandomTensor(plan->input_shape, 700 + i));
    ASSERT_TRUE(wire.ok());
  }
  const RandomizerPool::Stats stats = dp.PoolStatsForTesting();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
}

// ---------------------------------------------------------- compression

TEST(CompressTest, PruneZeroesRequestedFraction) {
  Rng rng(5);
  Model model(Shape{10}, "p");
  PPS_CHECK_OK(model.Add(DenseLayer::Random(10, 10, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
  CompressionSpec spec;
  spec.prune_fraction = 0.5;
  CompressionReport report;
  auto out = CompressModel(model, spec, &report);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(report.weights_total, 100);
  EXPECT_GE(report.weights_pruned, 45);
  EXPECT_LE(report.weights_pruned, 55);
  const auto& dense = dynamic_cast<const DenseLayer&>(out.value().layer(0));
  int64_t zeros = 0;
  for (int64_t i = 0; i < dense.weights().NumElements(); ++i) {
    if (dense.weights()[i] == 0.0) ++zeros;
  }
  EXPECT_EQ(zeros, report.weights_pruned);
}

TEST(CompressTest, QuantizationBoundsDistinctValues) {
  Rng rng(6);
  Model model(Shape{20}, "q");
  PPS_CHECK_OK(model.Add(DenseLayer::Random(20, 20, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
  CompressionSpec spec;
  spec.weight_bits = 4;  // <= 15 distinct nonzero levels
  CompressionReport report;
  auto out = CompressModel(model, spec, &report);
  ASSERT_TRUE(out.ok());
  EXPECT_LE(report.distinct_after, 15);
  EXPECT_GT(report.distinct_before, report.distinct_after);
}

TEST(CompressTest, RejectsBadSpecs) {
  Model model(Shape{4}, "bad");
  Rng rng(7);
  PPS_CHECK_OK(model.Add(DenseLayer::Random(4, 2, rng)));
  PPS_CHECK_OK(model.Add(std::make_unique<SoftmaxLayer>()));
  CompressionSpec spec;
  spec.prune_fraction = 1.0;
  EXPECT_FALSE(CompressModel(model, spec).ok());
  spec.prune_fraction = 0;
  spec.weight_bits = 1;
  EXPECT_FALSE(CompressModel(model, spec).ok());
}

TEST(CompressTest, CompressedZooModelKeepsUsableAccuracy) {
  // The Table IV/V protocol: compress, re-check accuracy on the zoo
  // dataset, report the (bounded) delta. Tabular 3FC trains in well under
  // a second at this scale.
  DatasetSplit data = MakeZooDataset(ZooModelId::kBreast, 0.25, 42);
  auto model = MakeTrainedZooModel(ZooModelId::kBreast, data.train, 42);
  ASSERT_TRUE(model.ok());
  auto base_acc = EvaluateAccuracy(model.value(), data.test);
  ASSERT_TRUE(base_acc.ok());

  CompressionSpec spec;
  spec.prune_fraction = 0.3;
  spec.weight_bits = 5;
  CompressionReport report;
  auto compressed = CompressModel(model.value(), spec, &report);
  ASSERT_TRUE(compressed.ok());
  EXPECT_GT(report.weights_pruned, 0);
  auto comp_acc = EvaluateAccuracy(compressed.value(), data.test);
  ASSERT_TRUE(comp_acc.ok());
  // Moderate pruning + 5-bit weights must not collapse the model.
  EXPECT_GE(comp_acc.value(), base_acc.value() - 0.15);
}

}  // namespace
}  // namespace ppstream
