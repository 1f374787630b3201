// Google-benchmark microbenchmarks for the crypto substrate: BigInt
// arithmetic, Montgomery exponentiation, Paillier primitives, SHA-256,
// permutation. These are the constants behind Figure 1 and the profiler.

#include <benchmark/benchmark.h>

#include "bignum/fixed_base.h"
#include "bignum/montgomery.h"
#include "bignum/prime.h"
#include "crypto/paillier.h"
#include "crypto/permutation.h"
#include "crypto/randomizer_pool.h"
#include "crypto/sha256.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ppstream {
namespace {

BigInt RandomOdd(int bits, uint64_t seed) {
  Rng rng(seed);
  BigInt v = BigInt::RandomBits(rng, bits);
  if (!v.IsOdd()) v = v + BigInt(1);
  return v;
}

void BM_BigIntMul(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(1);
  BigInt a = BigInt::RandomBits(rng, bits);
  BigInt b = BigInt::RandomBits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BigIntDivMod(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(2);
  BigInt a = BigInt::RandomBits(rng, 2 * bits);
  BigInt b = BigInt::RandomBits(rng, bits);
  for (auto _ : state) {
    BigInt q, r;
    benchmark::DoNotOptimize(BigInt::DivMod(a, b, &q, &r));
  }
}
BENCHMARK(BM_BigIntDivMod)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MontgomeryModExp(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(3);
  BigInt m = RandomOdd(bits, 4);
  MontgomeryContext ctx(m);
  BigInt base = BigInt::RandomBelow(rng, m);
  BigInt exp = BigInt::RandomBits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.ModExp(base, exp));
  }
}
BENCHMARK(BM_MontgomeryModExp)->Arg(512)->Arg(1024)->Arg(2048);

void BM_PaillierEncrypt(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(5);
  auto keys = Paillier::GenerateKeyPair(bits, rng);
  SecureRng srng = SecureRng::FromSeed(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Paillier::Encrypt(keys.value().public_key, BigInt(123456), srng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(256)->Arg(512)->Arg(1024);

// The randomizer r^n mod n^2 as the key holder raises it (CRT over p^2 and
// q^2, PaillierPrivateKey::RaiseToN): what a data-provider pool refill pays
// per value. Compare against BM_PaillierEncrypt at the same key size, whose
// cost is the full-width ModExp mod n^2 the model provider still pays.
void BM_PaillierRandomizerKeyHolder(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(5);
  auto keys = Paillier::GenerateKeyPair(bits, rng);
  SecureRng srng = SecureRng::FromSeed(6);
  const BigInt r = srng.NextCoprimeBelow(keys.value().public_key.n());
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys.value().private_key.RaiseToN(r));
  }
}
BENCHMARK(BM_PaillierRandomizerKeyHolder)->Arg(256)->Arg(512)->Arg(1024);

void BM_PaillierDecrypt(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(7);
  auto keys = Paillier::GenerateKeyPair(bits, rng);
  SecureRng srng = SecureRng::FromSeed(8);
  auto c = Paillier::Encrypt(keys.value().public_key, BigInt(-98765), srng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Paillier::Decrypt(
        keys.value().public_key, keys.value().private_key, c.value()));
  }
}
BENCHMARK(BM_PaillierDecrypt)->Arg(256)->Arg(512)->Arg(1024);

void BM_PaillierScalarMul(benchmark::State& state) {
  Rng rng(9);
  auto keys = Paillier::GenerateKeyPair(512, rng);
  SecureRng srng = SecureRng::FromSeed(10);
  auto c = Paillier::Encrypt(keys.value().public_key, BigInt(42), srng);
  const BigInt w(static_cast<int64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Paillier::ScalarMul(keys.value().public_key, c.value(), w));
  }
}
BENCHMARK(BM_PaillierScalarMul)->Arg(10)->Arg(100000)->Arg(10000000);

// The amortized hot path: the same ciphertext raised to many quantized
// weights through a precomputed fixed-base table. Compare against
// BM_PaillierScalarMul at the same weight magnitudes — the gap is what one
// Eq. (3) term saves once the table exists.
void BM_PaillierScalarMulFixedBase(benchmark::State& state) {
  Rng rng(9);
  auto keys = Paillier::GenerateKeyPair(512, rng);
  SecureRng srng = SecureRng::FromSeed(10);
  auto c = Paillier::Encrypt(keys.value().public_key, BigInt(42), srng);
  const BigInt w(static_cast<int64_t>(state.range(0)));
  auto base = Paillier::PrecomputeScalarMulBase(
      keys.value().public_key, c.value(), /*max_weight_bits=*/24,
      /*allow_negative=*/false, /*fan_out_hint=*/256);
  PPS_CHECK_OK(base.status());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Paillier::ScalarMulPrecomputed(base.value(), w));
  }
}
BENCHMARK(BM_PaillierScalarMulFixedBase)->Arg(10)->Arg(100000)->Arg(10000000);

// Table-build cost for one input slot (break-even: this divided by the
// per-call saving of BM_PaillierScalarMulFixedBase vs BM_PaillierScalarMul
// gives the fan-out where tables start paying off). The second argument
// adds the base^{-1} table for signed exponents: one full-width
// ModInverse plus a second build, which the stage cache avoids by
// building positive-only tables and batch-inverting per row slice.
void BM_PaillierFixedBaseTableBuild(benchmark::State& state) {
  Rng rng(9);
  auto keys = Paillier::GenerateKeyPair(512, rng);
  SecureRng srng = SecureRng::FromSeed(10);
  auto c = Paillier::Encrypt(keys.value().public_key, BigInt(42), srng);
  const int64_t fan_out = state.range(0);
  const bool allow_negative = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Paillier::PrecomputeScalarMulBase(
        keys.value().public_key, c.value(), /*max_weight_bits=*/24,
        allow_negative, fan_out));
  }
}
BENCHMARK(BM_PaillierFixedBaseTableBuild)
    ->ArgsProduct({{8, 64, 1024}, {0, 1}});

// Pool-backed encryption: r^n comes precomputed, the request path is one
// ModMul. Refills happen outside the timed region, mirroring a pool that
// refills between requests.
void BM_PaillierEncryptPooled(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(5);
  auto keys = Paillier::GenerateKeyPair(bits, rng);
  RandomizerPool::Options options;
  options.capacity = 512;
  options.background_refill = false;
  RandomizerPool pool(keys.value().public_key, 6, options);
  pool.Fill();
  for (auto _ : state) {
    if (pool.available() == 0) {
      state.PauseTiming();
      pool.Fill();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(pool.Encrypt(BigInt(123456)));
  }
}
BENCHMARK(BM_PaillierEncryptPooled)->Arg(256)->Arg(512)->Arg(1024);

void BM_PaillierRerandomizePooled(benchmark::State& state) {
  Rng rng(5);
  auto keys = Paillier::GenerateKeyPair(512, rng);
  SecureRng srng = SecureRng::FromSeed(6);
  auto c = Paillier::Encrypt(keys.value().public_key, BigInt(7), srng);
  RandomizerPool::Options options;
  options.capacity = 512;
  options.background_refill = false;
  RandomizerPool pool(keys.value().public_key, 8, options);
  pool.Fill();
  for (auto _ : state) {
    if (pool.available() == 0) {
      state.PauseTiming();
      pool.Fill();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(pool.Rerandomize(c.value()));
  }
}
BENCHMARK(BM_PaillierRerandomizePooled);

// Small-exponent ModExp: the adaptive window keeps quantized-weight
// exponentiations from paying a full 16-entry table build per call.
void BM_MontgomeryModExpSmallExp(benchmark::State& state) {
  Rng rng(3);
  BigInt m = RandomOdd(1024, 4);  // n^2 width for a 512-bit key
  MontgomeryContext ctx(m);
  BigInt base = BigInt::RandomBelow(rng, m);
  BigInt exp(static_cast<int64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.ModExp(base, exp));
  }
}
BENCHMARK(BM_MontgomeryModExpSmallExp)->Arg(10)->Arg(1000)->Arg(100000);

void BM_PaillierHomAdd(benchmark::State& state) {
  Rng rng(11);
  auto keys = Paillier::GenerateKeyPair(512, rng);
  SecureRng srng = SecureRng::FromSeed(12);
  auto c1 = Paillier::Encrypt(keys.value().public_key, BigInt(1), srng);
  auto c2 = Paillier::Encrypt(keys.value().public_key, BigInt(2), srng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Paillier::Add(keys.value().public_key, c1.value(), c2.value()));
  }
}
BENCHMARK(BM_PaillierHomAdd);

void BM_Sha256(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096);

void BM_PermutationApply(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SecureRng rng = SecureRng::FromSeed(13);
  Permutation p = Permutation::Random(n, rng);
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Apply(v));
  }
}
BENCHMARK(BM_PermutationApply)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace ppstream

BENCHMARK_MAIN();
