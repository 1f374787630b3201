// Unified integer representation of linear layers.
//
// Every linear layer (Dense, Conv2D, BatchNorm, AvgPool, Flatten,
// ScalarScale) lowers to a sparse affine map over integers: output element
// j is  sum_t weight[t] * input[term[t].input_index] + bias_j.
//
// This single representation drives:
//   * homomorphic evaluation on Paillier ciphertexts (Eq. 3 of the paper:
//     prod_i E(m_i)^{w_i} * E(b)), through the AffineKernel built from it;
//   * exact plaintext integer evaluation (the correctness reference);
//   * tensor partitioning — the receptive field of output j is exactly the
//     support of row j (paper Section IV-D).

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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

/// A linear layer lowered to integer form: the weights' math. Encrypted
/// evaluation and its pricing live in AffineKernel.
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

  /// Worst-case |output| bound given a bound on |input| (both as integers
  /// at their respective scales). Used to verify values stay below n/2.
  BigInt OutputMagnitudeBound(const BigInt& input_bound) const;

  /// Total number of weighted taps (drives the profiler cost model).
  int64_t TotalTerms() const;

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

/// Per-evaluation cache of fixed-base exponent tables. Tables depend on the
/// ciphertexts, so the model provider has the op's kernel build one per
/// encrypted input (AffineKernel::BuildStageCache), and every row slice /
/// worker thread of that evaluation shares it read-only. Slots without a
/// table stay null and use per-call ExpMont. Tables cover |w| only: the
/// kernel applies a weight's sign through the row slice's batch inverse.
struct EncryptedStageCache {
  /// bases[i] covers input slot i, or null when no table was built for it.
  std::vector<std::shared_ptr<const FixedBaseExp>> bases;
  int64_t tables_built = 0;
};

/// The homomorphic evaluator of one IntegerAffineLayer, for packed words
/// and one-lane ciphertexts alike (DESIGN.md §8, §13). Build groups each
/// row's terms by weight value and decides once per group (FoldsGroup)
/// whether each member pays its own weight application, through its
/// slot's fixed-base table when the stage cache has one, or the members
/// fold (one MulMont each, crypto.pack.hom_adds) and pay one ExpMont.
/// Grouping never changes a bit: a row's output is the canonical residue
/// of prod_t c_t^{w_t} * g^b. The kernel keeps its own flat copy of the
/// op's rows, so plans copy by value.
class AffineKernel {
 public:
  /// Fan-out at which building a fixed-base table for an input slot beats
  /// per-call ExpMont (DESIGN.md §8). A slot "has a table" for FoldsGroup
  /// iff at least this many rows tap it, one with a weight of 2+ bits.
  static const int64_t kFixedBaseBreakEvenFanOut;

  /// The build-time rule for `members` terms of one row sharing a weight
  /// of `weight_bits` bits: fold iff strictly cheaper than splitting.
  /// Never for |w| = 1 or one member; always when a member has no table
  /// (the ExpMont is paid anyway); else above the break-even group size
  /// bench_micro_crypto BM_WeightGroupFoldVsTable measures per width.
  static bool FoldsGroup(int weight_bits, size_t members,
                         bool every_member_has_table);

  /// Builds the kernel for `op` in a round of one lane per ciphertext.
  static AffineKernel Build(const IntegerAffineLayer& op);
  /// Same, in a round that packs under `layout`. Fails (kOutOfRange) if
  /// the op's worst-case output for `input_magnitude_bound` — which also
  /// bounds every partial sum — overflows a slot.
  static Result<AffineKernel> Build(const IntegerAffineLayer& op,
                                    const PackedLayout& layout,
                                    const BigInt& input_magnitude_bound);

  /// The one price of an evaluation, what crypto.scalar_muls counts: one
  /// weight application per folded group and per member of a split one.
  /// Identity rows forward their input and pay none.
  int64_t weight_applications() const { return weight_applications_; }
  static int64_t WeightApplications(const IntegerAffineLayer& op) {
    return Build(op).weight_applications();
  }

  size_t num_rows() const { return biases_.size(); }
  size_t num_inputs() const { return slots_.size(); }
  /// Set iff built for a packing round.
  const std::optional<PackedLayout>& layout() const { return layout_; }
  /// Row j's weight applications, and its groups (distinct weights).
  size_t RowApplications(size_t row) const {
    return row_begin_[row + 1] - row_begin_[row];
  }
  size_t RowGroups(size_t row) const;
  /// A single weight-1 term and zero bias: the row forwards its input.
  bool IsIdentityRow(size_t row) const;

  /// Fixed-base tables for `in`, one per slot of 2+-bit weights that a
  /// split application reads and at least `min_fan_out` rows tap (0 means
  /// kFixedBaseBreakEvenFanOut), from the profile taken at Build. Builds
  /// parallelize over `pool` when given.
  Result<EncryptedStageCache> BuildStageCache(
      const PaillierPublicKey& pk, const std::vector<Ciphertext>& in,
      ThreadPool* pool = nullptr, int64_t min_fan_out = 0) const;

  /// Evaluates rows [row_begin, row_end) on `in`, whose words carry
  /// `lanes` live lanes (1 for one ciphertext per element; more requires a
  /// layout of at least that many lanes). Rows accumulate Montgomery-
  /// resident, positive and negative weights in separate products with one
  /// batch inverse per slice, so no input ciphertext is ever inverted.
  /// Biases land in the live slots only: the empty slots of a narrower
  /// batch decrypt to 0. `cache` must be built on this exact input. With
  /// `sub_indices` (unique, e.g. a ThreadWork::input_indices), `in` is a
  /// sub-tensor holding only those slots, which the rows may only tap;
  /// `cache` stays indexed by original slot.
  Result<std::vector<Ciphertext>> ApplyRows(
      const PaillierPublicKey& pk, const std::vector<Ciphertext>& in,
      int64_t lanes, size_t row_begin, size_t row_end,
      const EncryptedStageCache* cache = nullptr,
      const std::vector<uint32_t>* sub_indices = nullptr) const;

 private:
  struct SlotProfile {
    int32_t fan_out = 0;          // rows tapping the slot
    int16_t max_weight_bits = 0;  // widest |w| on the slot
    bool split_reads = false;     // some split application of |w| > 1
  };

  // Flat layout: row j's applications are [row_begin_[j], row_begin_[j+1]);
  // application a applies weights_[a] to the product of the slots
  // inputs_[member_begin_[a] .. member_begin_[a+1]).
  std::vector<uint32_t> row_begin_;
  std::vector<int64_t> weights_;
  std::vector<uint32_t> member_begin_;
  std::vector<uint32_t> inputs_;
  std::vector<BigInt> biases_;
  std::vector<SlotProfile> slots_;
  std::optional<PackedLayout> layout_;
  int64_t weight_applications_ = 0;
};

}  // namespace ppstream
