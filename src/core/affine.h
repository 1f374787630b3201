// Unified integer representation of linear layers.
//
// Every linear layer (Dense, Conv2D, BatchNorm, AvgPool, Flatten,
// ScalarScale) lowers to a sparse affine map over integers: output element
// j is  sum_t weight[t] * input[term[t].input_index] + bias_j.
//
// This single representation drives:
//   * homomorphic evaluation on Paillier ciphertexts (Eq. 3 of the paper:
//     prod_i E(m_i)^{w_i} * E(b));
//   * exact plaintext integer evaluation (the correctness reference);
//   * tensor partitioning — the receptive field of output j is exactly the
//     support of row j (paper Section IV-D).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bignum/bigint.h"
#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "nn/layer.h"
#include "tensor/tensor.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ppstream {

/// One weighted tap of an affine row. `weight` is the quantized integer
/// weight (at scale F, or the raw value 1 for identity layers).
struct AffineTerm {
  uint32_t input_index;
  int64_t weight;
};

/// One output element: sparse dot product plus bias.
struct AffineRow {
  std::vector<AffineTerm> terms;
  BigInt bias;  // already at the row's output scale
};

/// Per-evaluation cache of fixed-base exponent tables, one per input slot
/// whose fan-out (number of rows tapping it) crosses the break-even
/// threshold. Tables depend on the ciphertexts, so the cache is built once
/// per encrypted input tensor and shared read-only by every row slice /
/// worker thread of that evaluation. Slots below break-even stay null and
/// fall back to per-call ExpMont. Tables cover |w| only: the kernels apply
/// a weight's sign through the row slice's batch inverse.
struct EncryptedStageCache {
  /// bases[i] covers input slot i, or null when no table was built for it.
  std::vector<std::shared_ptr<const FixedBaseExp>> bases;
  int64_t tables_built = 0;
};

/// A linear layer lowered to integer form.
class IntegerAffineLayer {
 public:
  /// Lowers a linear layer given its concrete input shape. `scale` is F;
  /// `input_scale_power` is the power of F carried by the stage input when
  /// this layer executes (1 for the first layer of a stage). Fails for
  /// non-linear layers or incompatible shapes.
  static Result<IntegerAffineLayer> FromLayer(const Layer& layer,
                                              const Shape& input_shape,
                                              int64_t scale,
                                              int input_scale_power);

  const Shape& input_shape() const { return in_shape_; }
  const Shape& output_shape() const { return out_shape_; }
  const std::vector<AffineRow>& rows() const { return rows_; }
  const std::string& name() const { return name_; }

  /// 0 for identity-like layers (Flatten), 1 for weighted layers: how much
  /// this layer raises the power of F.
  int weight_scale_power() const { return weight_scale_power_; }
  int input_scale_power() const { return input_scale_power_; }
  int output_scale_power() const {
    return input_scale_power_ + weight_scale_power_;
  }

  /// Exact integer evaluation (the plaintext reference path and the
  /// CipherBase-free fast path in tests).
  Result<Tensor<BigInt>> ApplyPlain(const Tensor<BigInt>& in) const;

  /// Fan-out at which building a fixed-base table for an input slot beats
  /// per-call ExpMont (profiled on 512-bit keys with quantized-weight
  /// exponents; see DESIGN.md §8 and bench_micro_crypto).
  static const int64_t kFixedBaseBreakEvenFanOut;

  /// Profiles the layer's fan-out per input slot and precomputes
  /// fixed-base tables for every slot tapped by at least `min_fan_out`
  /// rows (0 means kFixedBaseBreakEvenFanOut). Table builds parallelize
  /// over `pool` when given. The returned cache is read-only and safe to
  /// share across the threads evaluating this layer on `in`.
  Result<EncryptedStageCache> BuildEncryptedStageCache(
      const PaillierPublicKey& pk, const std::vector<Ciphertext>& in,
      ThreadPool* pool = nullptr, int64_t min_fan_out = 0) const;

  /// Homomorphic evaluation on ciphertexts (model-provider hot path).
  /// `row_begin`/`row_end` select a slice of output elements, enabling
  /// output-tensor partitioning across threads; pass 0, rows().size() for
  /// the whole output. Rows accumulate Montgomery-resident and convert
  /// back once per output element; with a `cache` (built on this exact
  /// `in`), high-fan-out slots use its fixed-base tables. Each row keeps
  /// positive and negative terms in separate products P and N and
  /// outputs P * N^{-1} * g^bias, with one ModInverse for all the N of
  /// the slice, so no input ciphertext is ever inverted.
  Result<std::vector<Ciphertext>> ApplyEncryptedRows(
      const PaillierPublicKey& pk, const std::vector<Ciphertext>& in,
      size_t row_begin, size_t row_end,
      const EncryptedStageCache* cache = nullptr) const;

  /// Same, against an input sub-tensor: `sub` holds only the slots listed
  /// in `sub_indices` (sorted, unique — a ThreadWork::input_indices), and
  /// rows [row_begin, row_end) may only tap those slots. `cache` is still
  /// indexed by ORIGINAL input slot.
  Result<std::vector<Ciphertext>> ApplyEncryptedRowsSub(
      const PaillierPublicKey& pk, const std::vector<Ciphertext>& sub,
      const std::vector<uint32_t>& sub_indices, size_t row_begin,
      size_t row_end, const EncryptedStageCache* cache = nullptr) const;

  Result<Tensor<Ciphertext>> ApplyEncrypted(
      const PaillierPublicKey& pk, const Tensor<Ciphertext>& in) const;

  /// Worst-case |output| bound given a bound on |input| (both as integers
  /// at their respective scales). Used to verify values stay below n/2.
  BigInt OutputMagnitudeBound(const BigInt& input_bound) const;

  /// Total number of weighted taps (drives the profiler cost model).
  int64_t TotalTerms() const;

  /// Homomorphic cost of one evaluation: weighted taps that actually pay a
  /// ciphertext exponentiation. Mirrors EvalEncryptedRows exactly — identity
  /// rows (single weight-1 term, zero bias) forward the ciphertext for free,
  /// and zero-weight terms are skipped. The fusion pass optimizes this.
  int64_t EncryptedScalarMuls() const;

  /// Exact integer composition `second ∘ first`: the affine map that sends
  /// x to second(first(x)). Composed weights are Σ w2·w1 accumulated in
  /// BigInt; returns kOutOfRange if any composed weight overflows int64
  /// (callers treat that as "don't fuse"). Requires first's output to feed
  /// second elementwise (equal element counts, matching scale powers).
  /// Since both maps are exact over integers, evaluating the composite is
  /// bit-identical to evaluating the two layers in sequence.
  static Result<IntegerAffineLayer> Compose(const IntegerAffineLayer& first,
                                            const IntegerAffineLayer& second);

 private:
  Shape in_shape_, out_shape_;
  std::vector<AffineRow> rows_;
  std::string name_;
  int weight_scale_power_ = 1;
  int input_scale_power_ = 1;
};

/// One distinct nonzero quantized weight value of a row and every input
/// slot sharing it. The packed kernel multiplies the group's ciphertexts
/// together (slot-wise hom-adds) and applies the weight ONCE to the
/// product — one scalar-mul per (row, distinct weight value) instead of
/// one per term, which is where pruning/quantization pays off (Popcorn).
struct PackedWeightGroup {
  int64_t weight;
  std::vector<uint32_t> inputs;
};

/// Execution plan for one output row over packed inputs.
struct PackedRowPlan {
  bool identity = false;       // single weight-1 term, zero bias: forward
  uint32_t identity_input = 0;
  std::vector<PackedWeightGroup> groups;  // sorted by weight, deterministic
  BigInt bias;  // replicated per evaluation into the live lanes' slots
};

/// A linear layer lowered for packed-ciphertext evaluation (DESIGN.md §13).
/// Input word t carries tensor element t for `layout.lanes` inference
/// lanes; the same row arithmetic then lands slot-parallel in all lanes.
class PackedAffineKernel {
 public:
  /// Groups the layer's rows by distinct weight value. Fails
  /// (kOutOfRange) if the layer's worst-case output for
  /// `input_magnitude_bound` — which also bounds every partial sum the
  /// evaluation can form — does not fit the layout's slot capacity.
  static Result<PackedAffineKernel> Build(const IntegerAffineLayer& layer,
                                          const PackedLayout& layout,
                                          const BigInt& input_magnitude_bound);

  const PackedLayout& layout() const { return layout_; }
  const std::vector<PackedRowPlan>& rows() const { return rows_; }
  size_t num_inputs() const { return num_inputs_; }

  /// Scalar-muls one evaluation pays: one per non-identity (row, group).
  int64_t GroupScalarMuls() const;

  /// Homomorphic evaluation over packed words whose first `lanes` slots
  /// are live (same slicing contract as ApplyEncryptedRows; `cache` tables
  /// must be built on this exact `in`). Biases land in the live slots
  /// only, so the empty slots of a batch narrower than the layout decrypt
  /// to 0 instead of revealing the biases to the key holder. Per-lane
  /// decoded outputs are bit-exact with the scalar path because
  /// ciphertext multiplication is commutative and slot arithmetic never
  /// overflows (guaranteed by the Build-time bound check).
  Result<std::vector<Ciphertext>> ApplyEncryptedRowsPacked(
      const PaillierPublicKey& pk, const std::vector<Ciphertext>& in,
      int64_t lanes, size_t row_begin, size_t row_end,
      const EncryptedStageCache* cache = nullptr) const;

 private:
  PackedLayout layout_;
  std::vector<PackedRowPlan> rows_;
  size_t num_inputs_ = 0;
};

}  // namespace ppstream
