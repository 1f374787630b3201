#include "core/protocol.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/fixed_point.h"
#include "core/partition.h"
#include "crypto/packing.h"
#include "nn/dataset.h"
#include "obs/cost.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace ppstream {

namespace {

/// Probes the chaos injector at a protocol entry point (no-op when the
/// provider has no injector wired).
Status ProbeFault(const std::shared_ptr<FaultInjector>& fault,
                  std::string_view site) {
  if (fault == nullptr) return Status::OK();
  return fault->Fail(site);
}

/// Wire positions one tensor element of a `lanes`-wide request occupies
/// in `stage`'s round: one packed word, or one ciphertext per lane.
Result<size_t> WireWidth(const LinearStage& stage, int64_t lanes) {
  if (lanes < 1) return Status::InvalidArgument("lanes must be >= 1");
  if (!stage.PacksWith(lanes)) return static_cast<size_t>(lanes);
  if (lanes > stage.packed_layout->lanes) {
    return Status::InvalidArgument("batch exceeds the stage's lane count");
  }
  return size_t{1};
}

/// Applies the element permutation `perm` (or its inverse) to a wire of
/// `width` positions per element: block p moves as one unit to block
/// perm(p), so lanes never mix under obfuscation.
Result<std::vector<Ciphertext>> PermuteElements(
    const Permutation& perm, size_t width, const std::vector<Ciphertext>& in,
    bool inverse) {
  if (in.size() != perm.size() * width) {
    return Status::ProtocolError("tensor size changed across rounds");
  }
  if (width == 1) return inverse ? perm.ApplyInverse(in) : perm.Apply(in);
  std::vector<uint32_t> mapping(in.size());
  for (size_t p = 0; p < perm.size(); ++p) {
    for (size_t i = 0; i < width; ++i) {
      mapping[p * width + i] =
          perm.MapIndex(p) * static_cast<uint32_t>(width) +
          static_cast<uint32_t>(i);
    }
  }
  PPS_ASSIGN_OR_RETURN(Permutation blocks,
                       Permutation::FromMapping(std::move(mapping)));
  return inverse ? blocks.ApplyInverse(in) : blocks.Apply(in);
}

}  // namespace

ModelProvider::ModelProvider(std::shared_ptr<const InferencePlan> plan,
                             PaillierPublicKey pk, uint64_t obf_seed)
    : ModelProvider(std::move(plan), std::move(pk), obf_seed, Options()) {}

ModelProvider::ModelProvider(std::shared_ptr<const InferencePlan> plan,
                             PaillierPublicKey pk, uint64_t obf_seed,
                             Options options)
    : plan_(std::move(plan)),
      pk_(std::move(pk)),
      options_(options),
      obf_rng_(SecureRng::FromSeed(obf_seed)) {
  PPS_CHECK(plan_ != nullptr);
  PPS_CHECK(!plan_->is_data_provider_view)
      << "a data-provider view carries no weights and cannot drive the "
         "model provider";
  if (options_.rerandomize_outputs) {
    RandomizerPool::Options pool_options;
    pool_options.capacity =
        std::max<size_t>(options_.randomizer_pool_capacity, 1);
    uint64_t pool_seed = obf_seed ^ 0xC2B2AE3D27D4EB4FULL;
    rerand_pool_ = std::make_unique<RandomizerPool>(
        pk_, SplitMix64(pool_seed), pool_options);
  }
}

Result<std::vector<Ciphertext>> ModelProvider::InverseObfuscate(
    uint64_t request_id, size_t round, std::vector<Ciphertext> in,
    int64_t lanes) {
  obs::ScopedSpan span("inverse_obfuscate", "obf", request_id);
  PPS_RETURN_IF_ERROR(ProbeFault(fault_, "mp.InverseObfuscate"));
  if (round >= plan_->NumRounds()) {
    return Status::OutOfRange("inverse obfuscation round out of range");
  }
  // The stored permutation is element-level; this round's wire may carry
  // a different representation than the round that stored it.
  PPS_ASSIGN_OR_RETURN(size_t width,
                       WireWidth(plan_->linear_stages[round], lanes));
  Permutation perm;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = permutations_.find({request_id, round - 1});
    if (it == permutations_.end()) {
      return Status::ProtocolError(internal::StrCat(
          "no stored permutation for request ", request_id, " round ",
          round - 1));
    }
    perm = it->second;  // kept until ReleaseRequestState (retry safety)
  }
  return PermuteElements(perm, width, in, /*inverse=*/true);
}

Result<std::vector<Ciphertext>> ModelProvider::ApplyLinearStage(
    size_t round, const std::vector<Ciphertext>& in, int64_t lanes,
    ThreadPool* pool, bool input_partitioning) {
  if (round >= plan_->linear_stages.size()) {
    return Status::OutOfRange("linear stage index out of range");
  }
  PPS_RETURN_IF_ERROR(ProbeFault(fault_, "mp.ApplyLinearStage"));
  const LinearStage& stage = plan_->linear_stages[round];
  PPS_ASSIGN_OR_RETURN(size_t width, WireWidth(stage, lanes));
  const bool packed = stage.PacksWith(lanes);
  if (packed && stage.packed_kernels.size() != stage.ops.size()) {
    return Status::Internal("packed stage is missing its lowered kernels");
  }
  // Runs the stage's ops over one wire vector: every lane's packed words,
  // or one lane's scalars.
  auto run_ops = [&](std::vector<Ciphertext> current)
      -> Result<std::vector<Ciphertext>> {
    for (size_t k = 0; k < stage.ops.size(); ++k) {
      const IntegerAffineLayer& op = stage.ops[k];
      // Fixed-base tables for the high-fan-out input slots of this op,
      // shared by every worker thread evaluating it (DESIGN.md §8). Fan-out
      // is a property of the op's terms, the same for words and scalars.
      Result<EncryptedStageCache> cache_result = [&] {
        obs::ScopedSpan cache_span("crypto.stage_cache_build", "crypto");
        return op.BuildEncryptedStageCache(pk_, current, pool);
      }();
      PPS_ASSIGN_OR_RETURN(EncryptedStageCache cache,
                           std::move(cache_result));
      obs::ScopedSpan mul_span("crypto.scalar_mul_batch", "crypto");
      if (packed) {
        const PackedAffineKernel& kernel = stage.packed_kernels[k];
        PPS_ASSIGN_OR_RETURN(
            current, kernel.ApplyEncryptedRowsPacked(
                         pk_, current, lanes, 0, kernel.rows().size(), &cache));
      } else if (pool != nullptr && pool->num_threads() > 1) {
        PPS_ASSIGN_OR_RETURN(PartitionPlan partition,
                             PartitionOp(op, pool->num_threads()));
        PPS_ASSIGN_OR_RETURN(
            current,
            ApplyEncryptedPartitioned(pk_, op, current, partition,
                                      input_partitioning, pool, &cache));
      } else {
        PPS_ASSIGN_OR_RETURN(
            current, op.ApplyEncryptedRows(pk_, current, 0, op.rows().size(),
                                           &cache));
      }
    }
    return current;
  };
  if (width == 1) return run_ops(in);
  // Interleaved lanes: de-interleave, run each lane, re-interleave
  // element-major.
  if (in.size() % width != 0) {
    return Status::ProtocolError(
        "interleaved tensor size is not a multiple of the lane count");
  }
  const size_t elements = in.size() / width;
  std::vector<Ciphertext> out;
  for (size_t lane = 0; lane < width; ++lane) {
    std::vector<Ciphertext> lane_in;
    lane_in.reserve(elements);
    for (size_t p = 0; p < elements; ++p) {
      lane_in.push_back(in[p * width + lane]);
    }
    PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> lane_out,
                         run_ops(std::move(lane_in)));
    if (lane == 0) out.resize(lane_out.size() * width);
    for (size_t p = 0; p < lane_out.size(); ++p) {
      out[p * width + lane] = std::move(lane_out[p]);
    }
  }
  return out;
}

Result<std::vector<Ciphertext>> ModelProvider::Obfuscate(
    uint64_t request_id, size_t round, std::vector<Ciphertext> in,
    int64_t lanes) {
  obs::ScopedSpan span("obfuscate", "obf", request_id);
  PPS_RETURN_IF_ERROR(ProbeFault(fault_, "mp.Obfuscate"));
  // `round` may come off the wire: check it before it indexes the plan
  // or keys stored state.
  if (round >= plan_->NumRounds()) {
    return Status::OutOfRange("obfuscation round out of range");
  }
  PPS_ASSIGN_OR_RETURN(size_t width,
                       WireWidth(plan_->linear_stages[round], lanes));
  if (in.size() % width != 0) {
    return Status::ProtocolError(
        "interleaved tensor size is not a multiple of the lane count");
  }
  if (rerand_pool_ != nullptr) {
    // Fresh r^n per slot (one ModMul each) so the bits leaving the model
    // provider are unlinkable to the stage computation. The plaintexts —
    // and thus the decrypted protocol output — are untouched.
    for (Ciphertext& c : in) {
      c = rerand_pool_->Rerandomize(c);
    }
  }
  // Always store the ELEMENT-level permutation: the representation may
  // change between this round's output and the next round's input (the
  // data provider re-packs), and the element permutation converts to
  // either granularity.
  Permutation perm;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    perm = Permutation::Random(in.size() / width, obf_rng_);
    permutations_[{request_id, round}] = perm;
  }
  return PermuteElements(perm, width, in, /*inverse=*/false);
}

Result<std::vector<Ciphertext>> ModelProvider::ProcessRound(
    uint64_t request_id, size_t round, const std::vector<Ciphertext>& in,
    int64_t lanes, ThreadPool* pool) {
  if (round >= plan_->NumRounds()) {
    return Status::OutOfRange("round out of range");
  }
  std::vector<Ciphertext> current = in;
  if (round > 0) {
    PPS_ASSIGN_OR_RETURN(current, InverseObfuscate(request_id, round,
                                                   std::move(current), lanes));
  }
  PPS_ASSIGN_OR_RETURN(current, ApplyLinearStage(round, current, lanes, pool));
  if (round + 1 < plan_->NumRounds()) {
    PPS_ASSIGN_OR_RETURN(
        current, Obfuscate(request_id, round, std::move(current), lanes));
  }
  return current;
}

Status ModelProvider::ReleaseRequestState(uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = permutations_.lower_bound({request_id, 0});
  while (it != permutations_.end() && it->first.first == request_id) {
    it = permutations_.erase(it);
  }
  return Status::OK();
}

size_t ModelProvider::PendingRequestsForTesting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t count = 0;
  uint64_t last = ~uint64_t{0};
  for (const auto& [key, perm] : permutations_) {
    if (key.first != last) {
      ++count;
      last = key.first;
    }
  }
  return count;
}

Result<Permutation> ModelProvider::GetStoredPermutationForTesting(
    uint64_t request_id, size_t round) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = permutations_.find({request_id, round});
  if (it == permutations_.end()) {
    return Status::NotFound("no stored permutation");
  }
  return it->second;
}

DataProvider::DataProvider(std::shared_ptr<const InferencePlan> plan,
                           PaillierKeyPair keys, uint64_t enc_seed)
    : DataProvider(std::move(plan), std::move(keys), enc_seed, Options()) {}

DataProvider::DataProvider(std::shared_ptr<const InferencePlan> plan,
                           PaillierKeyPair keys, uint64_t enc_seed,
                           Options options)
    : plan_(std::move(plan)), keys_(std::move(keys)) {
  PPS_CHECK(plan_ != nullptr);
  // Size the pool for the expected number of in-flight requests, not one:
  // concurrent requests drain a per-request-sized pool faster than the
  // background producer can refill it (~48% misses at 8-way in the seed
  // bench). Clamped to keep pathological plans from pinning unbounded
  // memory (each entry is a full n^2-width value). Packed batches only
  // ever need FEWER randomizers per logical request (word counts divide
  // by the lane count), so the scalar per-request count is a sound upper
  // bound either way.
  const int64_t concurrency =
      std::max<int64_t>(options.expected_concurrency, 1);
  RandomizerPool::Options pool_options;
  pool_options.capacity = static_cast<size_t>(std::min<int64_t>(
      std::max<int64_t>(plan_->EncryptionsPerRequest() * concurrency, 16),
      16384));
  // Default low_water (== capacity) keeps the background producer topping
  // up after every take; a lower trigger would let bursts race ahead.
  // Built from the key pair, so randomizers are raised by CRT with the
  // primes the data provider already holds (same r stream, same values).
  uint64_t pool_seed = enc_seed ^ 0x9E3779B97F4A7C15ULL;
  enc_pool_ = std::make_unique<RandomizerPool>(
      keys_, SplitMix64(pool_seed), pool_options);
  if (options.prefill) enc_pool_->Fill();
}

RandomizerPool::Stats DataProvider::PoolStatsForTesting() const {
  return enc_pool_->stats();
}

namespace {

/// Runs fn(i) over [0, n) either inline or across a pool; fn returns a
/// Status, and the first failure (if any) is reported.
Status ForEachMaybeParallel(size_t n, ThreadPool* pool,
                            const std::function<Status(size_t)>& fn) {
  if (pool == nullptr || pool->num_threads() <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      PPS_RETURN_IF_ERROR(fn(i));
    }
    return Status::OK();
  }
  std::mutex error_mutex;
  Status first_error;
  pool->ParallelFor(0, n, [&](size_t i) {
    Status st = fn(i);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error.ok()) first_error = std::move(st);
    }
  });
  return first_error;
}

}  // namespace

Result<std::vector<Ciphertext>> DataProvider::EncryptInput(
    const std::vector<DoubleTensor>& inputs, ThreadPool* pool) {
  PPS_RETURN_IF_ERROR(ProbeFault(fault_, "dp.EncryptInput"));
  if (inputs.empty()) {
    return Status::InvalidArgument("a batch needs at least one lane");
  }
  for (const DoubleTensor& input : inputs) {
    if (input.shape() != plan_->input_shape) {
      return Status::InvalidArgument(
          internal::StrCat("input shape ", input.shape().ToString(),
                           " != plan input ", plan_->input_shape.ToString()));
    }
  }
  const int64_t max_lanes = plan_->PackedBatchLanes();
  if (max_lanes > 0 && static_cast<int64_t>(inputs.size()) > max_lanes) {
    return Status::InvalidArgument(internal::StrCat(
        "batch of ", inputs.size(), " lanes exceeds the plan's ", max_lanes,
        " packed lanes"));
  }
  return EncodeForRound(0, inputs, pool);
}

Result<std::vector<Ciphertext>> DataProvider::ProcessIntermediate(
    size_t round, const std::vector<Ciphertext>& in, int64_t lanes,
    std::vector<double>* decrypted_view, ThreadPool* pool) {
  if (round + 1 >= plan_->NumRounds()) {
    return Status::OutOfRange(
        "intermediate round index must precede the final round");
  }
  PPS_RETURN_IF_ERROR(ProbeFault(fault_, "dp.ProcessIntermediate"));
  // Values arrive permuted at element granularity; the segment is
  // element-wise, so order does not matter (§III-C).
  const Shape flat{plan_->linear_stages[round].output_shape.NumElements()};
  PPS_ASSIGN_OR_RETURN(
      std::vector<DoubleTensor> values,
      DecodeAndActivate(round, in, lanes, flat, decrypted_view, pool));
  // Re-quantize at F and re-encrypt (Step 2.3) in the NEXT round's
  // representation.
  return EncodeForRound(round + 1, values, pool);
}

Result<DoubleTensor> DataProvider::ProcessFinal(
    const std::vector<Ciphertext>& in, ThreadPool* pool) {
  PPS_ASSIGN_OR_RETURN(std::vector<DoubleTensor> out,
                       ProcessFinal(in, /*lanes=*/1, pool));
  return std::move(out.front());
}

Result<std::vector<DoubleTensor>> DataProvider::ProcessFinal(
    const std::vector<Ciphertext>& in, int64_t lanes, ThreadPool* pool) {
  PPS_RETURN_IF_ERROR(ProbeFault(fault_, "dp.ProcessFinal"));
  const size_t round = plan_->NumRounds() - 1;
  return DecodeAndActivate(round, in, lanes,
                           plan_->linear_stages[round].output_shape, nullptr,
                           pool);
}

Result<std::vector<DoubleTensor>> DataProvider::DecodeAndActivate(
    size_t round, const std::vector<Ciphertext>& in, int64_t lanes,
    const Shape& shape, std::vector<double>* decrypted_view,
    ThreadPool* pool) const {
  const LinearStage& stage = plan_->linear_stages[round];
  PPS_ASSIGN_OR_RETURN(size_t width, WireWidth(stage, lanes));
  const bool packed = stage.PacksWith(lanes);
  if (in.size() != static_cast<size_t>(shape.NumElements()) * width) {
    return Status::ProtocolError(internal::StrCat(
        "round ", round, " output has ", in.size(), " ciphertexts, expected ",
        shape.NumElements() * static_cast<int64_t>(width)));
  }
  const double scale =
      ScalePower(plan_->scale, stage.output_scale_power).ToDouble();
  std::vector<DoubleTensor> values(static_cast<size_t>(lanes),
                                   DoubleTensor{shape});
  {
    obs::ScopedSpan decrypt_span("crypto.decrypt_batch", "crypto");
    PPS_RETURN_IF_ERROR(ForEachMaybeParallel(
        in.size(), pool, [&](size_t p) -> Status {
          PPS_ASSIGN_OR_RETURN(
              BigInt m, Paillier::Decrypt(keys_.public_key,
                                          keys_.private_key, in[p]));
          const int64_t element = static_cast<int64_t>(p / width);
          if (!packed) {
            values[p % width][element] = m.ToDouble() / scale;
            return Status::OK();
          }
          PPS_ASSIGN_OR_RETURN(std::vector<BigInt> slots,
                               UnpackSigned(*stage.packed_layout, m));
          for (size_t i = 0; i < values.size(); ++i) {
            values[i][element] = slots[i].ToDouble() / scale;
          }
          return Status::OK();
        }));
  }
  if (decrypted_view != nullptr) {
    decrypted_view->clear();
    for (const DoubleTensor& lane : values) {
      decrypted_view->insert(decrypted_view->end(), lane.data().begin(),
                             lane.data().end());
    }
  }
  for (DoubleTensor& lane : values) {
    for (const auto& layer : plan_->nonlinear_segments[round].layers) {
      PPS_ASSIGN_OR_RETURN(lane, layer->Forward(lane));
    }
  }
  return values;
}

Result<std::vector<Ciphertext>> DataProvider::EncodeForRound(
    size_t round, const std::vector<DoubleTensor>& values, ThreadPool* pool) {
  const LinearStage& stage = plan_->linear_stages[round];
  const int64_t lanes = static_cast<int64_t>(values.size());
  PPS_ASSIGN_OR_RETURN(size_t width, WireWidth(stage, lanes));
  const bool packed = stage.PacksWith(lanes);
  const size_t elements =
      static_cast<size_t>(stage.input_shape.NumElements());
  for (const DoubleTensor& lane : values) {
    if (static_cast<size_t>(lane.NumElements()) != elements) {
      return Status::ProtocolError("lane tensor size mismatch");
    }
  }
  // One batch take covers the wire: pool-served randomizers make each
  // encryption a single ModMul, and position p deterministically receives
  // the p-th randomizer of the batch; misses are raised across `pool`.
  obs::ScopedSpan encrypt_span("crypto.encrypt_batch", "crypto");
  const size_t total = elements * width;
  std::vector<BigInt> rns = enc_pool_->TakeMany(total, pool);
  std::vector<Ciphertext> out(total);
  PPS_RETURN_IF_ERROR(ForEachMaybeParallel(
      total, pool, [&](size_t p) -> Status {
        const int64_t element = static_cast<int64_t>(p / width);
        BigInt plaintext;
        if (packed) {
          std::vector<BigInt> slots;
          slots.reserve(values.size());
          for (const DoubleTensor& lane : values) {
            slots.emplace_back(QuantizeValue(lane[element], plan_->scale));
          }
          PPS_ASSIGN_OR_RETURN(plaintext,
                               PackSigned(*stage.packed_layout, slots));
        } else {
          plaintext =
              BigInt(QuantizeValue(values[p % width][element], plan_->scale));
        }
        PPS_ASSIGN_OR_RETURN(
            out[p], Paillier::EncryptWithRandomizer(keys_.public_key,
                                                    plaintext, rns[p]));
        return Status::OK();
      }));
  return out;
}

namespace {

/// Runs `round(r)` for every round in order, stopping at the first
/// failure, then drops the request's stored permutations at the model
/// provider — on failure too, so a failed inference strands no state
/// there. The rounds' error wins over a failed release.
Status RunRoundsThenRelease(ModelProviderApi& mp, uint64_t request_id,
                            const std::function<Status(size_t)>& round) {
  Status status;
  for (size_t r = 0; r < mp.plan().NumRounds() && status.ok(); ++r) {
    status = round(r);
  }
  Status released = mp.ReleaseRequestState(request_id);
  PPS_RETURN_IF_ERROR(status);
  return released;
}

}  // namespace

Result<DoubleTensor> RunProtocolInference(ModelProviderApi& mp,
                                          DataProviderApi& dp,
                                          uint64_t request_id,
                                          const DoubleTensor& input,
                                          LeakageTranscript* transcript) {
  ModelProvider* local_mp = nullptr;
  if (transcript != nullptr) {
    // The leakage transcript reconstructs pre-obfuscation order from the
    // stored permutations — experimenter-only state that never crosses a
    // transport boundary.
    local_mp = dynamic_cast<ModelProvider*>(&mp);
    if (local_mp == nullptr) {
      return Status::InvalidArgument(
          "leakage transcripts require an in-process ModelProvider");
    }
  }
  const size_t rounds = mp.plan().NumRounds();
  // Root span for the whole synchronous inference; batch/crypto/net spans
  // below all parent (directly or transitively) under it.
  obs::ScopedSpan root = obs::ScopedSpan::Root("inference", "request",
                                               request_id);
  // Cost attribution: against a data-provider view (remote MP) the budget
  // prices encrypts only; in-process, scalar muls reconcile too. A failed
  // attempt finishes unreconciled via the ledger destructor.
  obs::RequestCostLedger ledger(request_id, ExpectedRequestCost(mp.plan()));
  PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> wire, dp.EncryptInput(input));
  PPS_RETURN_IF_ERROR(
      RunRoundsThenRelease(mp, request_id, [&](size_t r) -> Status {
        PPS_ASSIGN_OR_RETURN(wire, mp.ProcessRound(request_id, r, wire));
        if (r + 1 == rounds) return Status::OK();
        std::vector<double> decrypted;
        PPS_ASSIGN_OR_RETURN(
            wire, dp.ProcessIntermediate(
                      r, wire, transcript ? &decrypted : nullptr));
        if (transcript) {
          // Experimenter-side reconstruction: invert the stored
          // permutation to recover the original order for the dcor
          // measurement.
          PPS_ASSIGN_OR_RETURN(
              Permutation perm,
              local_mp->GetStoredPermutationForTesting(request_id, r));
          LeakageTranscript::Round rec;
          rec.after_obfuscation = decrypted;
          rec.before_obfuscation = perm.ApplyInverse(decrypted);
          transcript->rounds.push_back(std::move(rec));
        }
        return Status::OK();
      }));
  Result<DoubleTensor> out = dp.ProcessFinal(wire);
  ledger.Finish(out.ok());
  return out;
}

Result<std::vector<DoubleTensor>> RunPackedBatchInference(
    ModelProvider& mp, DataProvider& dp, uint64_t request_id,
    const std::vector<DoubleTensor>& inputs, ThreadPool* pool) {
  const int64_t lanes = static_cast<int64_t>(inputs.size());
  const size_t rounds = mp.plan().NumRounds();
  obs::ScopedSpan root =
      obs::ScopedSpan::Root("inference_packed", "request", request_id);
  obs::RequestCostLedger ledger(request_id,
                                ExpectedRequestCost(mp.plan(), lanes));
  PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> wire,
                       dp.EncryptInput(inputs, pool));
  PPS_RETURN_IF_ERROR(
      RunRoundsThenRelease(mp, request_id, [&](size_t r) -> Status {
        PPS_ASSIGN_OR_RETURN(
            wire, mp.ProcessRound(request_id, r, wire, lanes, pool));
        if (r + 1 == rounds) return Status::OK();
        PPS_ASSIGN_OR_RETURN(
            wire, dp.ProcessIntermediate(r, wire, lanes, nullptr, pool));
        return Status::OK();
      }));
  Result<std::vector<DoubleTensor>> out = dp.ProcessFinal(wire, lanes, pool);
  ledger.Finish(out.ok());
  return out;
}

Result<DoubleTensor> RunScaledPlainInference(const InferencePlan& plan,
                                             const DoubleTensor& input) {
  if (input.shape() != plan.input_shape) {
    return Status::InvalidArgument("input shape mismatch");
  }
  // Quantize at F.
  Tensor<BigInt> current{input.shape()};
  for (int64_t i = 0; i < input.NumElements(); ++i) {
    current[i] = BigInt(QuantizeValue(input[i], plan.scale));
  }

  DoubleTensor values;
  for (size_t r = 0; r < plan.NumRounds(); ++r) {
    const LinearStage& stage = plan.linear_stages[r];
    for (const IntegerAffineLayer& op : stage.ops) {
      PPS_ASSIGN_OR_RETURN(current, op.ApplyPlain(current));
    }
    const double scale =
        ScalePower(plan.scale, stage.output_scale_power).ToDouble();
    values = DoubleTensor{stage.output_shape};
    for (int64_t i = 0; i < values.NumElements(); ++i) {
      values[i] = current[i].ToDouble() / scale;
    }
    const NonLinearSegment& segment = plan.nonlinear_segments[r];
    for (const auto& layer : segment.layers) {
      PPS_ASSIGN_OR_RETURN(values, layer->Forward(values));
    }
    if (r + 1 < plan.NumRounds()) {
      current = Tensor<BigInt>{values.shape()};
      for (int64_t i = 0; i < values.NumElements(); ++i) {
        current[i] = BigInt(QuantizeValue(values[i], plan.scale));
      }
    }
  }
  return values;
}

Result<double> EvaluateScaledPlanAccuracy(const InferencePlan& plan,
                                          const Dataset& data) {
  if (data.samples.empty()) {
    return Status::InvalidArgument("empty dataset");
  }
  size_t correct = 0;
  for (size_t i = 0; i < data.samples.size(); ++i) {
    PPS_ASSIGN_OR_RETURN(DoubleTensor out,
                         RunScaledPlainInference(plan, data.samples[i]));
    if (ArgMax(out) == data.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace ppstream
