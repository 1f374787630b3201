#include "crypto/randomizer_pool.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace ppstream {

namespace {

/// The key pair's private half, refused unless it factors the public n.
PaillierPrivateKey CheckedPrivateKey(const PaillierKeyPair& keys) {
  const PaillierPrivateKey& sk = keys.private_key;
  PPS_CHECK((sk.p() * sk.q()).Compare(keys.public_key.n()) == 0)
      << "RandomizerPool: the private key is uninitialized or does not "
         "factor the public modulus";
  return sk;
}

}  // namespace

RandomizerPool::RandomizerPool(PaillierPublicKey pk, uint64_t seed)
    : RandomizerPool(std::move(pk), seed, Options()) {}

RandomizerPool::RandomizerPool(PaillierPublicKey pk, uint64_t seed,
                               Options options)
    : RandomizerPool(std::move(pk), std::nullopt, seed, options) {}

RandomizerPool::RandomizerPool(const PaillierKeyPair& keys, uint64_t seed)
    : RandomizerPool(keys, seed, Options()) {}

RandomizerPool::RandomizerPool(const PaillierKeyPair& keys, uint64_t seed,
                               Options options)
    : RandomizerPool(keys.public_key, CheckedPrivateKey(keys), seed,
                     options) {}

RandomizerPool::RandomizerPool(PaillierPublicKey pk,
                               std::optional<PaillierPrivateKey> sk,
                               uint64_t seed, Options options)
    : pk_(std::move(pk)),
      sk_(std::move(sk)),
      options_([&] {
        Options o = options;
        o.capacity = std::max<size_t>(o.capacity, 1);
        if (o.low_water == 0 || o.low_water > o.capacity) {
          o.low_water = o.capacity;
        }
        return o;
      }()),
      registry_([] {
        obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
        return RegistryHandles{r.GetCounter("crypto.pool.hits"),
                               r.GetCounter("crypto.pool.misses"),
                               r.GetCounter("crypto.pool.produced"),
                               r.GetCounter("crypto.pool.refills"),
                               r.GetGauge("crypto.pool.available")};
      }()),
      rng_(SecureRng::FromSeed(seed)) {}

RandomizerPool::~RandomizerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  refill_cv_.notify_all();
  if (refill_thread_.joinable()) refill_thread_.join();
}

BigInt RandomizerPool::NextRLocked() {
  ++stats_.produced;
  registry_.produced->Increment();
  return rng_.NextCoprimeBelow(pk_.n());
}

BigInt RandomizerPool::Raise(const BigInt& r) const {
  if (sk_.has_value()) return sk_->RaiseToN(r);
  return pk_.ctx_n2().ModExp(r, pk_.n());
}

BigInt RandomizerPool::Take() {
  BigInt r;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!ready_.empty()) {
      BigInt rn = std::move(ready_.front());
      ready_.pop_front();
      ++stats_.hits;
      registry_.hits->Increment();
      registry_.available->Set(static_cast<double>(ready_.size()));
      if (options_.background_refill && ready_.size() < options_.low_water) {
        EnsureRefillThreadLocked();
        refill_cv_.notify_one();
      }
      return rn;
    }
    ++stats_.misses;
    registry_.misses->Increment();
    r = NextRLocked();
    if (options_.background_refill) {
      EnsureRefillThreadLocked();
      refill_cv_.notify_one();
    }
  }
  // The expensive exponentiation happens outside the lock; concurrent
  // takers each raise their own r.
  return Raise(r);
}

std::vector<BigInt> RandomizerPool::TakeMany(size_t count, ThreadPool* pool) {
  std::vector<BigInt> out(count);
  std::vector<size_t> miss_positions;
  std::vector<BigInt> miss_r;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t i = 0;
    for (; i < count && !ready_.empty(); ++i) {
      out[i] = std::move(ready_.front());
      ready_.pop_front();
      ++stats_.hits;
      registry_.hits->Increment();
    }
    for (; i < count; ++i) {
      miss_positions.push_back(i);
      miss_r.push_back(NextRLocked());
      ++stats_.misses;
      registry_.misses->Increment();
    }
    registry_.available->Set(static_cast<double>(ready_.size()));
    if (options_.background_refill && ready_.size() < options_.low_water) {
      EnsureRefillThreadLocked();
      refill_cv_.notify_one();
    }
  }
  if (pool != nullptr && pool->num_threads() > 1 && miss_positions.size() > 1) {
    pool->ParallelFor(0, miss_positions.size(), [&](size_t j) {
      out[miss_positions[j]] = Raise(miss_r[j]);
    });
  } else {
    for (size_t j = 0; j < miss_positions.size(); ++j) {
      out[miss_positions[j]] = Raise(miss_r[j]);
    }
  }
  return out;
}

void RandomizerPool::Fill() {
  while (true) {
    BigInt r;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (ready_.size() >= options_.capacity) return;
      r = NextRLocked();
    }
    BigInt rn = Raise(r);
    std::lock_guard<std::mutex> lock(mutex_);
    ready_.push_back(std::move(rn));
    registry_.available->Set(static_cast<double>(ready_.size()));
  }
}

void RandomizerPool::EnsureRefillThreadLocked() {
  if (refill_running_ || stop_) return;
  refill_running_ = true;
  refill_thread_ = std::thread([this] { RefillLoop(); });
}

void RandomizerPool::RefillLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    refill_cv_.wait(lock, [this] {
      return stop_ || ready_.size() < options_.low_water;
    });
    if (stop_) return;
    bool topped_up = false;
    while (!stop_ && ready_.size() < options_.capacity) {
      BigInt r = NextRLocked();
      lock.unlock();
      BigInt rn = Raise(r);
      lock.lock();
      ready_.push_back(std::move(rn));
      registry_.available->Set(static_cast<double>(ready_.size()));
      topped_up = true;
    }
    if (topped_up) {
      ++stats_.refills;
      registry_.refills->Increment();
    }
  }
}

Result<Ciphertext> RandomizerPool::Encrypt(const BigInt& m) {
  return Paillier::EncryptWithRandomizer(pk_, m, Take());
}

Ciphertext RandomizerPool::Rerandomize(const Ciphertext& c) {
  return Paillier::RerandomizeWithRandomizer(pk_, c, Take());
}

size_t RandomizerPool::available() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ready_.size();
}

RandomizerPool::Stats RandomizerPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace ppstream
