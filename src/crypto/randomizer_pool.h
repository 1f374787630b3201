// Pool of precomputed Paillier randomizers.
//
// Paillier::Encrypt's cost is dominated by r^n mod n^2 — a full-width
// modular exponentiation whose value is independent of the plaintext. The
// pool precomputes these randomizers ahead of need (eagerly via Fill(), or
// continuously on an optional background thread), so the request path of
// Encrypt/Rerandomize drops to a single modular multiplication.
//
// Determinism: randomizers derive from one seeded CSPRNG stream and
// production is serialized, so the k-th randomizer PRODUCED is a pure
// function of the seed — pool size, refill timing, and which thread did
// the work never change the sequence. (Under concurrent Take() the
// assignment of sequence elements to callers follows arrival order, as
// with any shared seeded RNG.) An exhausted pool computes on demand from
// the same stream — callers never block on a refill.
//
// Key holder: a pool built from the key pair (the data provider's) raises
// each r by CRT through PaillierPrivateKey::RaiseToN — 2.5x cheaper than
// the n^2 path at 512-bit keys (EXPERIMENTS.md) and bit-identical to it,
// so the sequence above is the same whichever constructor built the pool. A public-key-only pool (the
// model provider's rerandomizer) keeps the full-width ModExp mod n^2.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "crypto/paillier.h"
#include "crypto/secure_rng.h"
#include "obs/metrics.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ppstream {

class RandomizerPool {
 public:
  struct Options {
    /// Target number of ready randomizers.
    size_t capacity = 256;
    /// Background refill starts once the pool drops below this; 0 means
    /// capacity (top up after every take).
    size_t low_water = 0;
    /// Spawn a refill thread on first use. Off: the pool only holds what
    /// Fill() put there, then computes on demand.
    bool background_refill = true;
  };

  /// Per-instance counters. The same events are mirrored into the global
  /// MetricsRegistry under "crypto.pool.hits" / ".misses" / ".produced" /
  /// ".refills" (aggregated across pools), plus a "crypto.pool.available"
  /// gauge tracking the most recent ready-queue depth.
  struct Stats {
    uint64_t hits = 0;      // takes served from the pool
    uint64_t misses = 0;    // takes computed on demand
    uint64_t produced = 0;  // randomizers computed in total
    uint64_t refills = 0;   // background refill passes that topped up
  };

  /// `seed` derives the CSPRNG producing the r values.
  RandomizerPool(PaillierPublicKey pk, uint64_t seed);
  RandomizerPool(PaillierPublicKey pk, uint64_t seed, Options options);
  /// Key-holder pool: raises by CRT with the private key. Aborts if the
  /// private key is uninitialized or does not factor the public modulus
  /// (a mismatched key would silently yield values that are not r^n).
  RandomizerPool(const PaillierKeyPair& keys, uint64_t seed);
  RandomizerPool(const PaillierKeyPair& keys, uint64_t seed, Options options);
  ~RandomizerPool();

  RandomizerPool(const RandomizerPool&) = delete;
  RandomizerPool& operator=(const RandomizerPool&) = delete;

  /// Next randomizer r^n mod n^2. Pool-served when available, computed
  /// on demand (same sequence) when not; never blocks on a refill.
  BigInt Take();

  /// Takes `count` randomizers at once, atomically with respect to the
  /// stream: position i always receives sequence element base + i, so a
  /// batch encrypt assigns randomizers to tensor slots deterministically
  /// no matter how full the pool was. Misses at the tail are raised after
  /// the lock is dropped, in parallel over `pool` when given.
  std::vector<BigInt> TakeMany(size_t count, ThreadPool* pool = nullptr);

  /// Synchronously fills the pool to capacity on the calling thread.
  void Fill();

  /// Pool-backed E(m): one ModMul on the request path.
  Result<Ciphertext> Encrypt(const BigInt& m);
  /// Pool-backed rerandomization: one ModMul.
  Ciphertext Rerandomize(const Ciphertext& c);

  size_t available() const;
  Stats stats() const;
  const PaillierPublicKey& public_key() const { return pk_; }

 private:
  RandomizerPool(PaillierPublicKey pk, std::optional<PaillierPrivateKey> sk,
                 uint64_t seed, Options options);

  /// Draws the next r from the stream. Caller must hold mutex_.
  BigInt NextRLocked() PPS_REQUIRES(mutex_);
  /// Computes r^n mod n^2 — by CRT when the pool holds the private key
  /// (expensive either way; never call with the lock held — every Take
  /// would stall behind the exponentiation).
  BigInt Raise(const BigInt& r) const PPS_EXCLUDES(mutex_);
  void EnsureRefillThreadLocked() PPS_REQUIRES(mutex_);
  /// unique_lock/cv juggling Clang's analysis cannot model; ppslint R6
  /// still checks it lexically.
  void RefillLoop() PPS_NO_THREAD_SAFETY_ANALYSIS;

  const PaillierPublicKey pk_;
  /// Present only in a key-holder pool; selects Raise's CRT path.
  const std::optional<PaillierPrivateKey> sk_;
  const Options options_;

  /// Aggregated process-wide mirrors of stats_ (see Stats doc).
  struct RegistryHandles {
    obs::Counter* hits;
    obs::Counter* misses;
    obs::Counter* produced;
    obs::Counter* refills;
    obs::Gauge* available;
  };
  const RegistryHandles registry_;

  mutable std::mutex mutex_;
  std::condition_variable refill_cv_;
  SecureRng rng_ PPS_GUARDED_BY(mutex_);
  std::deque<BigInt> ready_ PPS_GUARDED_BY(mutex_);
  Stats stats_ PPS_GUARDED_BY(mutex_);
  bool stop_ PPS_GUARDED_BY(mutex_) = false;
  bool refill_running_ PPS_GUARDED_BY(mutex_) = false;
  std::thread refill_thread_;
};

}  // namespace ppstream
