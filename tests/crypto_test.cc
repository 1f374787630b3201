// Unit tests for the crypto substrate: SHA-256, ChaCha20 CSPRNG, Paillier
// PHE, and the obfuscation permutation.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/paillier.h"
#include "crypto/permutation.h"
#include "crypto/randomizer_pool.h"
#include "crypto/secure_rng.h"
#include "crypto/sha256.h"

namespace ppstream {
namespace {

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, Fips180Vectors) {
  // NIST FIPS 180-4 reference vectors.
  EXPECT_EQ(Sha256::ToHex(Sha256::Hash(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::ToHex(Sha256::Hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::ToHex(Sha256::Hash(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.Update(chunk);
  EXPECT_EQ(Sha256::ToHex(hasher.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 hasher;
    hasher.Update(msg.substr(0, split));
    hasher.Update(msg.substr(split));
    EXPECT_EQ(hasher.Finalize(), Sha256::Hash(msg));
  }
}

TEST(Sha256Test, ResetStartsFresh) {
  Sha256 hasher;
  hasher.Update(std::string("garbage"));
  hasher.Reset();
  hasher.Update(std::string("abc"));
  EXPECT_EQ(Sha256::ToHex(hasher.Finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ------------------------------------------------------------- SecureRng

TEST(SecureRngTest, DeterministicForSameKey) {
  SecureRng a = SecureRng::FromSeed(1234);
  SecureRng b = SecureRng::FromSeed(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(SecureRngTest, DifferentKeysDiverge) {
  SecureRng a = SecureRng::FromSeed(1);
  SecureRng b = SecureRng::FromSeed(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_EQ(same, 0);
}

TEST(SecureRngTest, BoundedStaysInRange) {
  SecureRng rng = SecureRng::FromSeed(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 100ULL, 1ULL << 33}) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(SecureRngTest, BigIntBelowStaysInRange) {
  SecureRng rng = SecureRng::FromSeed(11);
  auto bound = BigInt::FromDecimalString("123456789012345678901234567890");
  ASSERT_TRUE(bound.ok());
  for (int i = 0; i < 50; ++i) {
    BigInt v = rng.NextBigIntBelow(bound.value());
    EXPECT_LT(v.Compare(bound.value()), 0);
    EXPECT_FALSE(v.IsNegative());
  }
}

TEST(SecureRngTest, CoprimeBelowIsCoprime) {
  SecureRng rng = SecureRng::FromSeed(13);
  BigInt n = BigInt(35);  // 5 * 7, so ~1/3 of candidates share a factor
  for (int i = 0; i < 30; ++i) {
    BigInt r = rng.NextCoprimeBelow(n);
    EXPECT_TRUE(BigInt::Gcd(r, n).IsOne());
    EXPECT_FALSE(r.IsZero());
  }
}

TEST(SecureRngTest, ByteDistributionIsRoughlyUniform) {
  SecureRng rng = SecureRng::FromSeed(17);
  std::vector<int> counts(256, 0);
  constexpr int kSamples = 256 * 64;
  for (int i = 0; i < kSamples; ++i) counts[rng.NextByte()]++;
  // Expect each bucket near 64; a bucket at 0 or >3x mean indicates bias.
  for (int c : counts) {
    EXPECT_GT(c, 0);
    EXPECT_LT(c, 192);
  }
}

// --------------------------------------------------------------- Paillier

class PaillierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(42);
    auto pair = Paillier::GenerateKeyPair(512, rng);
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    keys_ = new PaillierKeyPair(std::move(pair).value());
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }

  static PaillierKeyPair* keys_;
};

PaillierKeyPair* PaillierTest::keys_ = nullptr;

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  SecureRng rng = SecureRng::FromSeed(19);
  for (int64_t m : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{123456789},
                    int64_t{-987654321}, int64_t{1} << 50}) {
    auto c = Paillier::Encrypt(keys_->public_key, BigInt(m), rng);
    ASSERT_TRUE(c.ok());
    auto back = Paillier::Decrypt(keys_->public_key, keys_->private_key,
                                  c.value());
    ASSERT_TRUE(back.ok());
    auto v = back.value().ToInt64();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), m);
  }
}

TEST_F(PaillierTest, EncryptionIsProbabilistic) {
  SecureRng rng = SecureRng::FromSeed(23);
  auto c1 = Paillier::Encrypt(keys_->public_key, BigInt(42), rng);
  auto c2 = Paillier::Encrypt(keys_->public_key, BigInt(42), rng);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(c1.value().value.Compare(c2.value().value), 0)
      << "two encryptions of the same plaintext must differ";
}

TEST_F(PaillierTest, HomomorphicAddition) {
  SecureRng rng = SecureRng::FromSeed(29);
  auto c1 = Paillier::Encrypt(keys_->public_key, BigInt(1234), rng);
  auto c2 = Paillier::Encrypt(keys_->public_key, BigInt(-234), rng);
  ASSERT_TRUE(c1.ok() && c2.ok());
  Ciphertext sum = Paillier::Add(keys_->public_key, c1.value(), c2.value());
  auto m = Paillier::Decrypt(keys_->public_key, keys_->private_key, sum);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().ToDecimalString(), "1000");
}

TEST_F(PaillierTest, HomomorphicScalarMultiplication) {
  SecureRng rng = SecureRng::FromSeed(31);
  auto c = Paillier::Encrypt(keys_->public_key, BigInt(111), rng);
  ASSERT_TRUE(c.ok());
  for (int64_t w : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{-3},
                    int64_t{1000000}}) {
    auto cw = Paillier::ScalarMul(keys_->public_key, c.value(), BigInt(w));
    ASSERT_TRUE(cw.ok());
    auto m = Paillier::Decrypt(keys_->public_key, keys_->private_key,
                               cw.value());
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m.value().ToDecimalString(), BigInt(111 * w).ToDecimalString())
        << "w=" << w;
  }
}

TEST_F(PaillierTest, LinearFormMatchesPlaintext) {
  // The paper's Eq. (3): sum_i w_i m_i + b via prod E(m_i)^{w_i} * E(b).
  SecureRng rng = SecureRng::FromSeed(37);
  const std::vector<int64_t> m = {5, -3, 10, 0, 7};
  const std::vector<int64_t> w = {2, 4, -1, 9, -6};
  const int64_t b = 13;

  Ciphertext acc = Paillier::EncryptZeroDeterministic(keys_->public_key);
  for (size_t i = 0; i < m.size(); ++i) {
    auto ci = Paillier::Encrypt(keys_->public_key, BigInt(m[i]), rng);
    ASSERT_TRUE(ci.ok());
    auto term =
        Paillier::ScalarMul(keys_->public_key, ci.value(), BigInt(w[i]));
    ASSERT_TRUE(term.ok());
    acc = Paillier::Add(keys_->public_key, acc, term.value());
  }
  auto with_bias = Paillier::AddPlain(keys_->public_key, acc, BigInt(b));
  ASSERT_TRUE(with_bias.ok());

  auto result = Paillier::Decrypt(keys_->public_key, keys_->private_key,
                                  with_bias.value());
  ASSERT_TRUE(result.ok());
  int64_t expected = b;
  for (size_t i = 0; i < m.size(); ++i) expected += w[i] * m[i];
  EXPECT_EQ(result.value().ToInt64().value(), expected);
}

TEST_F(PaillierTest, NegateAndRerandomize) {
  SecureRng rng = SecureRng::FromSeed(41);
  auto c = Paillier::Encrypt(keys_->public_key, BigInt(77), rng);
  ASSERT_TRUE(c.ok());
  auto neg = Paillier::Negate(keys_->public_key, c.value());
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(Paillier::Decrypt(keys_->public_key, keys_->private_key,
                              neg.value())
                .value()
                .ToDecimalString(),
            "-77");

  auto rr = Paillier::Rerandomize(keys_->public_key, c.value(), rng);
  ASSERT_TRUE(rr.ok());
  EXPECT_NE(rr.value().value.Compare(c.value().value), 0);
  EXPECT_EQ(Paillier::Decrypt(keys_->public_key, keys_->private_key,
                              rr.value())
                .value()
                .ToDecimalString(),
            "77");
}

TEST_F(PaillierTest, RejectsOversizedPlaintext) {
  SecureRng rng = SecureRng::FromSeed(43);
  BigInt too_big = keys_->public_key.half_n() + BigInt(1);
  EXPECT_FALSE(Paillier::Encrypt(keys_->public_key, too_big, rng).ok());
  EXPECT_FALSE(Paillier::Encrypt(keys_->public_key, -too_big, rng).ok());
}

TEST_F(PaillierTest, PublicKeySerializationRoundTrip) {
  BufferWriter writer;
  keys_->public_key.Serialize(&writer);
  BufferReader reader(writer.bytes());
  auto pk = PaillierPublicKey::Deserialize(&reader);
  ASSERT_TRUE(pk.ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(pk.value().n().Compare(keys_->public_key.n()), 0);

  // Ciphertext created under the deserialized key decrypts correctly.
  SecureRng rng = SecureRng::FromSeed(47);
  auto c = Paillier::Encrypt(pk.value(), BigInt(-555), rng);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(Paillier::Decrypt(keys_->public_key, keys_->private_key,
                              c.value())
                .value()
                .ToDecimalString(),
            "-555");
}

TEST_F(PaillierTest, CiphertextSerializationRoundTrip) {
  SecureRng rng = SecureRng::FromSeed(53);
  auto c = Paillier::Encrypt(keys_->public_key, BigInt(31337), rng);
  ASSERT_TRUE(c.ok());
  BufferWriter writer;
  c.value().Serialize(&writer);
  BufferReader reader(writer.bytes());
  auto back = Ciphertext::Deserialize(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(back.value().value.Compare(c.value().value), 0);
}

TEST(PaillierKeygenTest, RejectsBadKeySizes) {
  Rng rng(1);
  EXPECT_FALSE(Paillier::GenerateKeyPair(32, rng).ok());
  EXPECT_FALSE(Paillier::GenerateKeyPair(127, rng).ok());
}

TEST(PaillierKeygenTest, DifferentKeySizesWork) {
  Rng rng(2);
  SecureRng srng = SecureRng::FromSeed(3);
  for (int bits : {128, 256}) {
    auto pair = Paillier::GenerateKeyPair(bits, rng);
    ASSERT_TRUE(pair.ok()) << bits;
    auto c = Paillier::Encrypt(pair.value().public_key, BigInt(99), srng);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(Paillier::Decrypt(pair.value().public_key,
                                pair.value().private_key, c.value())
                  .value()
                  .ToDecimalString(),
              "99");
  }
}

TEST(PaillierRaiseToNTest, MatchesModExpModNSquaredBitExact) {
  // The key holder's CRT path must return the canonical r^n mod n^2 the
  // public path computes, bit for bit, or a key-holder pool would change
  // every ciphertext it touches.
  Rng rng(71);
  for (int bits : {256, 512, 1024}) {
    auto pair = Paillier::GenerateKeyPair(bits, rng);
    ASSERT_TRUE(pair.ok()) << bits;
    const PaillierPublicKey& pk = pair.value().public_key;
    const PaillierPrivateKey& sk = pair.value().private_key;
    const BigInt& p = sk.p();
    auto expect_same = [&](const BigInt& r, const char* what) {
      EXPECT_EQ(sk.RaiseToN(r).Compare(pk.ctx_n2().ModExp(r, pk.n())), 0)
          << bits << "-bit key, " << what << ", r = " << r;
    };
    SecureRng srng = SecureRng::FromSeed(static_cast<uint64_t>(bits));
    for (int i = 0; i < 200; ++i) {
      expect_same(srng.NextCoprimeBelow(pk.n()), "seeded r");
    }
    expect_same(BigInt(1), "r = 1");
    expect_same(pk.n() - BigInt(1), "r = n - 1");
    expect_same(BigInt(2), "r < p");
    expect_same(p - BigInt(1), "r = p - 1 < p");
    expect_same(srng.NextCoprimeBelow(p), "random r < p");
    expect_same(p + BigInt(1), "r = p + 1 ≡ 1 (mod p)");
    expect_same(p * sk.q() - p + BigInt(1), "r = n - p + 1 ≡ 1 (mod p)");
  }
}

// ------------------------------------------------------------ Permutation

TEST(PermutationTest, IdentityIsNoOp) {
  Permutation id = Permutation::Identity(5);
  std::vector<int> v = {10, 20, 30, 40, 50};
  EXPECT_EQ(id.Apply(v), v);
  EXPECT_EQ(id.ApplyInverse(v), v);
}

TEST(PermutationTest, ApplyThenInverseRestores) {
  SecureRng rng = SecureRng::FromSeed(59);
  for (size_t n : {1u, 2u, 7u, 64u, 1000u}) {
    Permutation p = Permutation::Random(n, rng);
    std::vector<uint32_t> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint32_t>(i * 3 + 1);
    EXPECT_EQ(p.ApplyInverse(p.Apply(v)), v) << "n=" << n;
    EXPECT_EQ(p.Apply(p.ApplyInverse(v)), v) << "n=" << n;
  }
}

TEST(PermutationTest, InverseObjectMatchesApplyInverse) {
  SecureRng rng = SecureRng::FromSeed(61);
  Permutation p = Permutation::Random(100, rng);
  Permutation inv = p.Inverse();
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  EXPECT_EQ(inv.Apply(p.Apply(v)), v);
  EXPECT_EQ(p.Inverse().Inverse(), p);
}

TEST(PermutationTest, ComposeAssociatesWithApply) {
  SecureRng rng = SecureRng::FromSeed(67);
  Permutation p = Permutation::Random(50, rng);
  Permutation q = Permutation::Random(50, rng);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i * i;
  EXPECT_EQ(q.Compose(p).Apply(v), q.Apply(p.Apply(v)));
}

TEST(PermutationTest, FromMappingValidates) {
  EXPECT_TRUE(Permutation::FromMapping({2, 0, 1}).ok());
  EXPECT_FALSE(Permutation::FromMapping({0, 0, 1}).ok());  // duplicate
  EXPECT_FALSE(Permutation::FromMapping({0, 3, 1}).ok());  // out of range
}

TEST(PermutationTest, RandomPermutationsDiffer) {
  SecureRng rng = SecureRng::FromSeed(71);
  Permutation p = Permutation::Random(64, rng);
  Permutation q = Permutation::Random(64, rng);
  EXPECT_FALSE(p == q);
}

TEST(PermutationTest, UniformityOverS3) {
  // All 6 permutations of 3 elements should appear with roughly equal
  // frequency — a basic correctness check on Fisher–Yates.
  SecureRng rng = SecureRng::FromSeed(73);
  std::map<std::vector<uint32_t>, int> counts;
  constexpr int kTrials = 6000;
  for (int t = 0; t < kTrials; ++t) {
    counts[Permutation::Random(3, rng).mapping()]++;
  }
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [perm, count] : counts) {
    EXPECT_GT(count, kTrials / 6 / 2);
    EXPECT_LT(count, kTrials / 6 * 2);
  }
}

// ------------------------------------------- Amortized Paillier hot path

class AmortizedPaillierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(57);
    auto pair = Paillier::GenerateKeyPair(512, rng);
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    keys_ = new PaillierKeyPair(std::move(pair).value());
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }

  int64_t DecryptToInt(const Ciphertext& c) {
    auto m = Paillier::Decrypt(keys_->public_key, keys_->private_key, c);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    auto v = m.value().ToInt64();
    EXPECT_TRUE(v.ok());
    return v.value();
  }

  static PaillierKeyPair* keys_;
};

PaillierKeyPair* AmortizedPaillierTest::keys_ = nullptr;

TEST_F(AmortizedPaillierTest, PoolSequenceIsDeterministicForSameSeed) {
  // Without a background thread, consumption order == production order, so
  // the randomizer stream is a pure function of the seed — regardless of
  // whether values were pool-served or computed on demand.
  RandomizerPool::Options no_refill;
  no_refill.capacity = 8;
  no_refill.background_refill = false;

  RandomizerPool a(keys_->public_key, 91, no_refill);
  RandomizerPool b(keys_->public_key, 91, no_refill);
  a.Fill();  // a serves from the pool; b computes every value on demand
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(a.Take().Compare(b.Take()), 0) << "position " << i;
  }
  EXPECT_GT(a.stats().hits, 0u);
  EXPECT_EQ(b.stats().hits, 0u);

  RandomizerPool c(keys_->public_key, 92, no_refill);
  RandomizerPool d(keys_->public_key, 91, no_refill);
  EXPECT_NE(c.Take().Compare(d.Take()), 0) << "different seeds must diverge";

  // A key-holder pool raises by CRT; same seed, same sequence as the
  // public-key pool's ModExp mod n^2, pool-served and on demand alike.
  RandomizerPool holder(*keys_, 91, no_refill);
  RandomizerPool public_only(keys_->public_key, 91, no_refill);
  holder.Fill();
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(holder.Take().Compare(public_only.Take()), 0)
        << "key-holder position " << i;
  }
  EXPECT_GT(holder.stats().hits, 0u);
  EXPECT_GT(holder.stats().misses, 0u);
}

TEST_F(AmortizedPaillierTest, KeyHolderPoolRefusesMismatchedPrivateKey) {
  // A private key that does not factor n would silently produce values
  // that are not r^n mod n^2; the pool must refuse it outright.
  Rng rng(59);
  auto other = Paillier::GenerateKeyPair(512, rng);
  ASSERT_TRUE(other.ok());
  const PaillierKeyPair mismatched{keys_->public_key,
                                   other.value().private_key};
  EXPECT_DEATH({ RandomizerPool pool(mismatched, 1); }, "does not factor");
  const PaillierKeyPair uninitialized{keys_->public_key, PaillierPrivateKey()};
  EXPECT_DEATH({ RandomizerPool pool(uninitialized, 1); }, "uninitialized");
}

TEST_F(AmortizedPaillierTest, TakeManyMatchesRepeatedTake) {
  RandomizerPool::Options no_refill;
  no_refill.capacity = 4;
  no_refill.background_refill = false;

  RandomizerPool a(keys_->public_key, 93, no_refill);
  RandomizerPool b(keys_->public_key, 93, no_refill);
  a.Fill();
  std::vector<BigInt> batch = a.TakeMany(7);  // 4 hits + 3 misses
  ASSERT_EQ(batch.size(), 7u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].Compare(b.Take()), 0) << "position " << i;
  }
  EXPECT_EQ(a.stats().hits, 4u);
  EXPECT_EQ(a.stats().misses, 3u);
}

TEST_F(AmortizedPaillierTest, ExhaustedPoolComputesOnDemandAndRefills) {
  RandomizerPool::Options options;
  options.capacity = 4;
  options.low_water = 2;
  RandomizerPool pool(keys_->public_key, 95, options);
  pool.Fill();
  EXPECT_EQ(pool.available(), 4u);
  // Drain past capacity: the tail is computed on demand, never blocking.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(pool.Take().IsZero());
  }
  auto stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, 10u);
  EXPECT_GT(stats.misses, 0u);
}

TEST_F(AmortizedPaillierTest, ConcurrentTakesAreSafeAndValid) {
  // TSan-targeted: hammer Take/Encrypt from several threads while the
  // background refill thread runs. A key-holder pool, so the refill thread
  // and the on-demand callers share the private key's Montgomery contexts.
  // Every randomizer must decrypt a valid encryption of its plaintext.
  RandomizerPool::Options options;
  options.capacity = 16;
  options.low_water = 8;
  RandomizerPool pool(*keys_, 97, options);
  pool.Fill();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> threads;
  std::vector<Status> failures(kThreads, Status::OK());
  std::vector<std::vector<Ciphertext>> encrypted(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto c = pool.Encrypt(BigInt(t * 1000 + i));
        if (!c.ok()) {
          failures[t] = c.status();
          return;
        }
        encrypted[t].push_back(std::move(c).value());
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& st : failures) EXPECT_TRUE(st.ok()) << st.ToString();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(encrypted[t].size(), static_cast<size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(DecryptToInt(encrypted[t][i]), t * 1000 + i)
          << "thread " << t << " take " << i;
    }
  }
  auto stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST_F(AmortizedPaillierTest, PoolEncryptAndRerandomizeDecryptCorrectly) {
  RandomizerPool pool(keys_->public_key, 99);
  for (int64_t m : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{424242},
                    int64_t{-987654321}}) {
    auto c = pool.Encrypt(BigInt(m));
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_EQ(DecryptToInt(c.value()), m);

    Ciphertext fresh = pool.Rerandomize(c.value());
    EXPECT_NE(fresh.value.Compare(c.value().value), 0)
        << "rerandomization must change the ciphertext bits";
    EXPECT_EQ(DecryptToInt(fresh), m) << "but never the plaintext";
  }
}

TEST_F(AmortizedPaillierTest, ScalarMulPrecomputedMatchesScalarMulBitExact) {
  SecureRng rng = SecureRng::FromSeed(101);
  auto c = Paillier::Encrypt(keys_->public_key, BigInt(777), rng);
  ASSERT_TRUE(c.ok());
  auto base = Paillier::PrecomputeScalarMulBase(
      keys_->public_key, c.value(), /*max_weight_bits=*/16,
      /*allow_negative=*/true, /*fan_out_hint=*/64);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  for (int64_t w : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{2},
                    int64_t{1000}, int64_t{-1000}, int64_t{65535}}) {
    auto via_table =
        Paillier::ScalarMulPrecomputed(base.value(), BigInt(w));
    auto via_modexp =
        Paillier::ScalarMul(keys_->public_key, c.value(), BigInt(w));
    ASSERT_TRUE(via_table.ok() && via_modexp.ok()) << "w " << w;
    EXPECT_EQ(via_table.value().value.Compare(via_modexp.value().value), 0)
        << "w " << w;
  }
}

TEST_F(AmortizedPaillierTest, MontResidentChainMatchesCanonicalBitExact) {
  // The same Eq. (3) accumulation, once with canonical-form primitives and
  // once Montgomery-resident. Canonicalization is unique, so the final
  // ciphertexts must agree bit for bit — the wire format never changes.
  SecureRng rng = SecureRng::FromSeed(103);
  const std::vector<int64_t> values = {37, -12, 255, 1};
  const std::vector<int64_t> weights = {14, -3, 127, 1};
  std::vector<Ciphertext> in;
  for (int64_t v : values) {
    auto c = Paillier::Encrypt(keys_->public_key, BigInt(v), rng);
    ASSERT_TRUE(c.ok());
    in.push_back(std::move(c).value());
  }

  Ciphertext canonical = Paillier::EncryptZeroDeterministic(keys_->public_key);
  for (size_t i = 0; i < in.size(); ++i) {
    auto term =
        Paillier::ScalarMul(keys_->public_key, in[i], BigInt(weights[i]));
    ASSERT_TRUE(term.ok());
    canonical = Paillier::Add(keys_->public_key, canonical, term.value());
  }
  auto canonical_biased =
      Paillier::AddPlain(keys_->public_key, canonical, BigInt(-17));
  ASSERT_TRUE(canonical_biased.ok());

  MontCiphertext acc = Paillier::EncryptZeroMontResident(keys_->public_key);
  for (size_t i = 0; i < in.size(); ++i) {
    MontCiphertext c = Paillier::ToMontResident(keys_->public_key, in[i]);
    auto term =
        Paillier::ScalarMulMont(keys_->public_key, c, BigInt(weights[i]));
    ASSERT_TRUE(term.ok()) << term.status().ToString();
    acc = Paillier::AddMont(keys_->public_key, acc, term.value());
  }
  auto biased = Paillier::AddPlainMont(keys_->public_key, acc, BigInt(-17));
  ASSERT_TRUE(biased.ok());
  Ciphertext resident =
      Paillier::FromMontResident(keys_->public_key, biased.value());

  EXPECT_EQ(resident.value.Compare(canonical_biased.value().value), 0);
  // And both decrypt to the expected affine form.
  int64_t expected = -17;
  for (size_t i = 0; i < values.size(); ++i) expected += values[i] * weights[i];
  EXPECT_EQ(DecryptToInt(resident), expected);
}

TEST_F(AmortizedPaillierTest, EncryptWithRandomizerDecrypts) {
  // A unit randomizer gives the deterministic g^m form; a pool randomizer
  // gives a semantically identical but randomized ciphertext.
  auto det = Paillier::EncryptWithRandomizer(keys_->public_key, BigInt(55),
                                             BigInt(1));
  ASSERT_TRUE(det.ok());
  EXPECT_EQ(DecryptToInt(det.value()), 55);

  RandomizerPool pool(keys_->public_key, 105);
  auto randomized = Paillier::EncryptWithRandomizer(keys_->public_key,
                                                    BigInt(55), pool.Take());
  ASSERT_TRUE(randomized.ok());
  EXPECT_EQ(DecryptToInt(randomized.value()), 55);
  EXPECT_NE(randomized.value().value.Compare(det.value().value), 0);
}

}  // namespace
}  // namespace ppstream
