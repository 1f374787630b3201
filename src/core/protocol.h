// The collaborative privacy-preserving inference workflow (paper §III-A,
// Figure 3).
//
// Per request:
//   first round:        DP encrypts the input tensor and sends it; MP runs
//                       linear stage 0 under Paillier, obfuscates the
//                       result (random permutation of ciphertext slots),
//                       and sends it back.
//   intermediate round: DP decrypts the (permuted) tensor, applies the
//                       element-wise non-linear segment, re-encrypts and
//                       sends; MP inverse-obfuscates, runs the next linear
//                       stage, obfuscates with a FRESH permutation, sends.
//   last round:         MP sends the linear result without obfuscation;
//                       DP decrypts and applies the final non-linear
//                       segment (typically SoftMax) to get the result.
//
// The two parties talk exclusively through the pure-virtual
// ModelProviderApi / DataProviderApi interfaces below. In a single
// process the concrete ModelProvider / DataProvider implement them with
// direct (zero-copy) calls; in a two-process deployment the src/net/
// transport layer provides RemoteModelProvider / RemoteDataProvider
// stubs that frame every call onto a versioned wire format. The only
// state ever shipped to the data provider is the plan's weight-free
// non-linear view plus the public key. Tests assert the separation (the
// model provider never sees plaintext tensors; the data provider never
// sees weights).
//
// Lanes (DESIGN.md §13). Every provider step is one implementation that
// takes a lane count: `lanes` independent inferences ride one wire
// vector. A round carries packed words, one per tensor element with the
// lanes in its slots, iff LinearStage::PacksWith(lanes); otherwise it
// carries `lanes` interleaved scalar ciphertexts per element,
// element-major (position p * lanes + i is element p of lane i). One
// lane is therefore the plain scalar protocol: the virtual overrides
// below are the lanes = 1 calls, and the lane entry points sit on the
// concrete classes only (lane batching is not on the wire).

#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/plan.h"
#include "crypto/paillier.h"
#include "crypto/permutation.h"
#include "crypto/randomizer_pool.h"
#include "nn/dataset.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ppstream {

/// Captured obfuscation pairs for the Exp#5 leakage measurement: the
/// stage output in original order and in permuted order, as real values.
struct LeakageTranscript {
  struct Round {
    std::vector<double> before_obfuscation;
    std::vector<double> after_obfuscation;
  };
  std::vector<Round> rounds;
};

/// Every cross-party call the data-provider side may issue against the
/// model provider. ModelProvider implements it in-process;
/// RemoteModelProvider (src/net/) frames each call over a Transport.
class ModelProviderApi {
 public:
  virtual ~ModelProviderApi() = default;

  /// The plan driving the protocol. A remote stub returns the weight-free
  /// data-provider view received during the handshake; only round counts,
  /// shapes, and scale powers may be read through this accessor.
  virtual const InferencePlan& plan() const = 0;

  /// Chaos hook (sites "mp.<Method>"). Default: no-op — remote stubs
  /// inject at the transport layer ("net.send"/"net.recv") instead.
  virtual void SetFaultInjector(std::shared_ptr<FaultInjector> injector) {
    (void)injector;
  }

  /// Full round processing: inverse obfuscation (round > 0), linear stage
  /// `round`, obfuscation (round < last).
  virtual Result<std::vector<Ciphertext>> ProcessRound(
      uint64_t request_id, size_t round,
      const std::vector<Ciphertext>& in) = 0;

  // ---- Fine-grained steps (used by the streaming engine's stages, and by
  //      ProcessRound above).

  /// Inverse obfuscation using the permutation stored for (request,
  /// round - 1). Idempotent until ReleaseRequestState.
  virtual Result<std::vector<Ciphertext>> InverseObfuscate(
      uint64_t request_id, size_t round, std::vector<Ciphertext> in) = 0;

  /// Applies linear stage `round`. `pool` / `input_partitioning` steer
  /// intra-stage parallelism and are advisory: a remote model provider
  /// parallelizes with its own resources and ignores them.
  virtual Result<std::vector<Ciphertext>> ApplyLinearStage(
      size_t round, const std::vector<Ciphertext>& in,
      ThreadPool* pool = nullptr, bool input_partitioning = true) = 0;

  /// Obfuscates with a fresh random permutation, stored under
  /// (request, round).
  virtual Result<std::vector<Ciphertext>> Obfuscate(
      uint64_t request_id, size_t round, std::vector<Ciphertext> in) = 0;

  /// Drops all per-request state (stored permutations). Called when the
  /// request completes or fails; stands in for a completion ACK on the
  /// wire. Failure is non-fatal for the inference result.
  virtual Status ReleaseRequestState(uint64_t request_id) = 0;
};

/// Every cross-party call the model-provider side may issue against the
/// data provider (the reverse deployment: an engine colocated with the
/// model driving a remote data provider).
class DataProviderApi {
 public:
  virtual ~DataProviderApi() = default;

  /// The data provider's Paillier public key.
  virtual const PaillierPublicKey& public_key() const = 0;

  /// Chaos hook (sites "dp.<Method>"). Default: no-op, as above.
  virtual void SetFaultInjector(std::shared_ptr<FaultInjector> injector) {
    (void)injector;
  }

  /// Round-0 send: quantize the raw input at F and encrypt element-wise.
  virtual Result<std::vector<Ciphertext>> EncryptInput(
      const DoubleTensor& input) = 0;

  /// Round-0 send with optional intra-stage parallelism (advisory, see
  /// ApplyLinearStage).
  virtual Result<std::vector<Ciphertext>> EncryptInputParallel(
      const DoubleTensor& input, ThreadPool* pool) = 0;

  /// Intermediate round `round`: decrypt, dequantize by F^k, apply
  /// non-linear segment `round` element-wise, re-quantize at F, encrypt.
  /// `decrypted_view` (leakage measurement) requires an in-process data
  /// provider; remote stubs reject a non-null view rather than pull
  /// plaintext across the wire.
  virtual Result<std::vector<Ciphertext>> ProcessIntermediate(
      size_t round, const std::vector<Ciphertext>& in,
      std::vector<double>* decrypted_view = nullptr,
      ThreadPool* pool = nullptr) = 0;

  /// Last round: decrypt, dequantize, apply the final segment, return the
  /// inference result.
  virtual Result<DoubleTensor> ProcessFinal(const std::vector<Ciphertext>& in,
                                            ThreadPool* pool = nullptr) = 0;
};

/// The model provider: owns the model (as integer linear stages), executes
/// all linear operations homomorphically, and manages obfuscation.
class ModelProvider : public ModelProviderApi {
 public:
  struct Options {
    /// Rerandomize stage outputs (pool-backed, one ModMul each) before
    /// permuting in Obfuscate, so the ciphertext bits leaving the model
    /// provider carry fresh randomness. Off by default: the permutation
    /// alone is the paper's obfuscation, and the default keeps the
    /// protocol output bits unchanged.
    bool rerandomize_outputs = false;
    /// Randomizer pool capacity when rerandomize_outputs is set.
    size_t randomizer_pool_capacity = 256;
  };

  /// `obf_seed` seeds the permutation CSPRNG (fresh randomness per round)
  /// and, when enabled, the rerandomizer pool.
  ModelProvider(std::shared_ptr<const InferencePlan> plan,
                PaillierPublicKey pk, uint64_t obf_seed);
  ModelProvider(std::shared_ptr<const InferencePlan> plan,
                PaillierPublicKey pk, uint64_t obf_seed, Options options);

  const InferencePlan& plan() const override { return *plan_; }
  const PaillierPublicKey& public_key() const { return pk_; }

  /// Chaos hook: every protocol entry point probes `injector` (sites
  /// "mp.<Method>") before doing real work, so injected errors exercise
  /// the runtime's retry path exactly like genuine provider failures.
  /// Null disables. Set before serving requests.
  void SetFaultInjector(std::shared_ptr<FaultInjector> injector) override {
    fault_ = std::move(injector);
  }

  Result<std::vector<Ciphertext>> ProcessRound(
      uint64_t request_id, size_t round,
      const std::vector<Ciphertext>& in) override {
    return ProcessRound(request_id, round, in, /*lanes=*/1, nullptr);
  }
  /// `pool` parallelizes the linear stage (see ApplyLinearStage).
  Result<std::vector<Ciphertext>> ProcessRound(
      uint64_t request_id, size_t round, const std::vector<Ciphertext>& in,
      int64_t lanes, ThreadPool* pool);

  /// Idempotent: the permutation stays stored until ReleaseRequestState,
  /// so a failed/retried stage can reprocess the same message
  /// (AF-Stream-style at-least-once execution).
  Result<std::vector<Ciphertext>> InverseObfuscate(
      uint64_t request_id, size_t round, std::vector<Ciphertext> in) override {
    return InverseObfuscate(request_id, round, std::move(in), /*lanes=*/1);
  }
  Result<std::vector<Ciphertext>> InverseObfuscate(
      uint64_t request_id, size_t round, std::vector<Ciphertext> in,
      int64_t lanes);

  /// Always OK in-process; the Status return exists for remote stubs.
  Status ReleaseRequestState(uint64_t request_id) override;

  /// Number of requests with live permutation state (leak check).
  size_t PendingRequestsForTesting() const;

  /// With a pool, rows are partitioned across its threads (output tensor
  /// partitioning); `input_partitioning` additionally ships each thread
  /// only its receptive-field sub-tensor (paper §IV-D).
  Result<std::vector<Ciphertext>> ApplyLinearStage(
      size_t round, const std::vector<Ciphertext>& in,
      ThreadPool* pool = nullptr, bool input_partitioning = true) override {
    return ApplyLinearStage(round, in, /*lanes=*/1, pool, input_partitioning);
  }
  /// A packed round runs the stage's weight-value-dedup kernels once for
  /// every lane (the pool then only builds fixed-base tables); otherwise
  /// each lane runs the per-term stage in turn, paying the full per-lane
  /// price. Decoded outputs are bit-exact with `lanes` independent
  /// inferences either way.
  Result<std::vector<Ciphertext>> ApplyLinearStage(
      size_t round, const std::vector<Ciphertext>& in, int64_t lanes,
      ThreadPool* pool, bool input_partitioning = true);

  Result<std::vector<Ciphertext>> Obfuscate(
      uint64_t request_id, size_t round,
      std::vector<Ciphertext> in) override {
    return Obfuscate(request_id, round, std::move(in), /*lanes=*/1);
  }
  /// Obfuscation always permutes tensor ELEMENTS and stores the element
  /// permutation: packed words move directly, interleaved lanes move as
  /// blocks, so lanes never mix and the data provider can change the
  /// representation between rounds. Leakage granularity: a packed word's
  /// lanes move together (positions are shuffled, lane-to-slot binding
  /// is not hidden). Refuses a round past the plan (kOutOfRange).
  Result<std::vector<Ciphertext>> Obfuscate(
      uint64_t request_id, size_t round, std::vector<Ciphertext> in,
      int64_t lanes);

  /// Test/experiment hook: the permutation used at (request, round), if
  /// still stored. NOT part of the protocol surface.
  Result<Permutation> GetStoredPermutationForTesting(uint64_t request_id,
                                                     size_t round) const;

 private:
  std::shared_ptr<const InferencePlan> plan_;
  PaillierPublicKey pk_;
  Options options_;
  std::shared_ptr<FaultInjector> fault_;
  mutable std::mutex mutex_;
  SecureRng obf_rng_;
  std::map<std::pair<uint64_t, size_t>, Permutation> permutations_;
  /// Precomputed r^n values for output rerandomization; null unless
  /// options_.rerandomize_outputs.
  std::unique_ptr<RandomizerPool> rerand_pool_;
};

/// The data provider: owns the key pair and the raw input, executes all
/// non-linear operations on decrypted (permuted) values.
class DataProvider : public DataProviderApi {
 public:
  struct Options {
    /// Requests expected in flight at once. The randomizer pool is sized
    /// for `expected_concurrency` simultaneous requests' encryptions (the
    /// old per-request sizing starved 8-way benches into ~48% misses).
    int expected_concurrency = 1;
    /// Synchronously fill the pool at construction so the first burst is
    /// served from precomputed randomizers instead of computing on
    /// demand. Off by default: construction stays cheap for tests; the
    /// serving path and benches opt in.
    bool prefill = false;
  };

  DataProvider(std::shared_ptr<const InferencePlan> plan,
               PaillierKeyPair keys, uint64_t enc_seed);
  DataProvider(std::shared_ptr<const InferencePlan> plan,
               PaillierKeyPair keys, uint64_t enc_seed, Options options);

  const PaillierPublicKey& public_key() const override {
    return keys_.public_key;
  }

  /// Chaos hook, mirror of ModelProvider::SetFaultInjector (sites
  /// "dp.<Method>").
  void SetFaultInjector(std::shared_ptr<FaultInjector> injector) override {
    fault_ = std::move(injector);
  }

  Result<std::vector<Ciphertext>> EncryptInput(
      const DoubleTensor& input) override {
    return EncryptInput({input}, nullptr);
  }
  Result<std::vector<Ciphertext>> EncryptInputParallel(
      const DoubleTensor& input, ThreadPool* pool) override {
    return EncryptInput({input}, pool);
  }
  /// One lane per input, all of the plan input shape; at most
  /// plan->PackedBatchLanes() lanes when any stage packs.
  Result<std::vector<Ciphertext>> EncryptInput(
      const std::vector<DoubleTensor>& inputs, ThreadPool* pool);

  /// If `decrypted_view` is non-null it receives the permuted plaintext
  /// values the data provider observed, lane after lane (for leakage
  /// measurement). With a pool, decryption and re-encryption parallelize
  /// across its threads.
  Result<std::vector<Ciphertext>> ProcessIntermediate(
      size_t round, const std::vector<Ciphertext>& in,
      std::vector<double>* decrypted_view = nullptr,
      ThreadPool* pool = nullptr) override {
    return ProcessIntermediate(round, in, /*lanes=*/1, decrypted_view, pool);
  }
  /// Decodes stage `round`'s wire representation, applies the non-linear
  /// segment per lane, and re-encodes in stage `round + 1`'s. Packed <->
  /// interleaved transitions happen here because only the key holder can
  /// re-pack.
  Result<std::vector<Ciphertext>> ProcessIntermediate(
      size_t round, const std::vector<Ciphertext>& in, int64_t lanes,
      std::vector<double>* decrypted_view, ThreadPool* pool);

  Result<DoubleTensor> ProcessFinal(const std::vector<Ciphertext>& in,
                                    ThreadPool* pool = nullptr) override;
  /// One inference result per lane.
  Result<std::vector<DoubleTensor>> ProcessFinal(
      const std::vector<Ciphertext>& in, int64_t lanes, ThreadPool* pool);

  /// Pool statistics (hit/miss accounting for bench assertions).
  RandomizerPool::Stats PoolStatsForTesting() const;

 private:
  /// Decrypts stage `round`'s output wire vector into per-lane real
  /// values of `shape` (dequantized by the stage's scale power), then
  /// applies segment `round` to each lane.
  Result<std::vector<DoubleTensor>> DecodeAndActivate(
      size_t round, const std::vector<Ciphertext>& in, int64_t lanes,
      const Shape& shape, std::vector<double>* decrypted_view,
      ThreadPool* pool) const;

  /// Quantizes per-lane values at F and encrypts them in stage `round`'s
  /// wire representation (packed words or interleaved scalars).
  Result<std::vector<Ciphertext>> EncodeForRound(
      size_t round, const std::vector<DoubleTensor>& values,
      ThreadPool* pool);

  std::shared_ptr<const InferencePlan> plan_;
  PaillierKeyPair keys_;
  std::shared_ptr<FaultInjector> fault_;
  // Precomputed r^n randomizers, sized for Options::expected_concurrency
  // requests' worth of encryptions (plan->EncryptionsPerRequest() each)
  // and refilled by the pool's background thread between requests — the
  // request path pays one ModMul per element. Batch takes assign
  // randomizers to tensor slots in stream order, and the pool serializes
  // production internally, so concurrent pipeline stages never race on
  // RNG state.
  std::unique_ptr<RandomizerPool> enc_pool_;
};

/// Drives the full synchronous protocol for one input (the streaming
/// engine pipelines exactly these steps across stages). Works against any
/// ModelProviderApi / DataProviderApi pair — local objects or remote
/// transport stubs. A failure after the first model-provider round still
/// releases the request's state there. If `transcript` is non-null,
/// records before/after-obfuscation value pairs per round; this
/// experimenter-side measurement reads stored permutations and therefore
/// requires an in-process ModelProvider (fails with InvalidArgument on a
/// remote stub).
Result<DoubleTensor> RunProtocolInference(ModelProviderApi& mp,
                                          DataProviderApi& dp,
                                          uint64_t request_id,
                                          const DoubleTensor& input,
                                          LeakageTranscript* transcript =
                                              nullptr);

/// Drives the same protocol for `inputs.size()` lanes riding one wire
/// (DESIGN.md §13), releasing state on failure likewise. Per-lane outputs
/// are bit-exact with `inputs.size()` independent RunProtocolInference
/// calls, while encrypts, decrypts, scalar-muls, and wire words divide by
/// the lane count on packed rounds (other rounds interleave and pay full
/// price); one lane is exactly RunProtocolInference. Takes the concrete
/// providers: lane batching is not on the remote wire format yet.
Result<std::vector<DoubleTensor>> RunPackedBatchInference(
    ModelProvider& mp, DataProvider& dp, uint64_t request_id,
    const std::vector<DoubleTensor>& inputs, ThreadPool* pool = nullptr);

/// Bit-exact plaintext reference of the protocol: the same integer linear
/// algebra and the same quantization points, without encryption or
/// obfuscation. The protocol must produce EXACTLY this output.
Result<DoubleTensor> RunScaledPlainInference(const InferencePlan& plan,
                                             const DoubleTensor& input);

/// Classification accuracy of the scaled plain reference over a dataset.
Result<double> EvaluateScaledPlanAccuracy(const InferencePlan& plan,
                                          const Dataset& data);

}  // namespace ppstream
