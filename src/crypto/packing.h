// Paillier plaintext packing (Popcorn-style lane batching, DESIGN.md §13).
//
// A Paillier plaintext is ~key_bits wide but a quantized tensor element
// needs only a few dozen bits, so we pack `lanes` independent fixed-point
// values into one plaintext as balanced base-2^slot_bits digits:
//
//   P = sum_{i < lanes} v_i * 2^(i * slot_bits),    |v_i| <= 2^(slot_bits-1)-1
//
// Slot i of every packed word belongs to inference lane i. Homomorphic
// addition adds slot-wise and scalar multiplication scales every slot by
// the same weight, so an affine row evaluated over packed words computes
// the same dot product for all lanes at once — encrypts, decrypts,
// scalar-muls, and wire bytes all divide by `lanes`.
//
// Legality is a pure bound check: each slot must hold the stage's
// magnitude bound (including every intermediate partial sum, which the
// planner bounds by the stage's output magnitude bound) plus `guard_bits`
// of headroom. Decode is overflow-checked: a carry into a neighboring
// slot produces either the illegal balanced digit -2^(slot_bits-1) or a
// nonzero residue after the last slot, and both are reported as errors
// rather than silently corrupting a neighboring lane.

#pragma once

#include <cstdint>
#include <vector>

#include "bignum/bigint.h"
#include "util/buffer.h"
#include "util/status.h"

namespace ppstream {

/// Slot geometry for one packed plaintext. Value-semantic and serialized
/// into the DataProvider view so both parties agree per stage.
struct PackedLayout {
  int32_t lanes = 1;       // slots per plaintext (1 = unpacked)
  int32_t slot_bits = 0;   // width of one balanced digit
  int32_t guard_bits = 0;  // headroom included in slot_bits

  bool IsPacked() const { return lanes > 1; }

  /// Largest magnitude a slot can hold: 2^(slot_bits-1) - 1.
  BigInt SlotCapacity() const;

  /// sum_{i < live_lanes} 2^(i * slot_bits): multiplying a plaintext
  /// constant by this replicates it into the first `live_lanes` slots and
  /// leaves the rest 0 (used for biases of a batch that fills them).
  BigInt ReplicationConstant(int64_t live_lanes) const;

  int64_t TotalBits() const {
    return static_cast<int64_t>(lanes) * slot_bits;
  }

  bool operator==(const PackedLayout& o) const {
    return lanes == o.lanes && slot_bits == o.slot_bits &&
           guard_bits == o.guard_bits;
  }
  bool operator!=(const PackedLayout& o) const { return !(*this == o); }

  /// Rejects non-positive lanes, slot_bits < 2, or negative guard bits.
  Status Validate() const;

  void Serialize(BufferWriter* out) const;
  static Result<PackedLayout> Deserialize(BufferReader* in);
};

/// Picks the widest legal layout for a stage: slot_bits covers
/// |v| <= magnitude_bound plus sign plus guard_bits, and lanes fills the
/// key minus a 2-bit margin below the n/2 signed-encoding threshold.
/// Fails (kFailedPrecondition) when fewer than 2 lanes fit — the caller
/// falls back to the scalar path.
Result<PackedLayout> ChoosePackedLayout(int key_bits,
                                        const BigInt& magnitude_bound,
                                        int guard_bits, int max_lanes);

/// Packs up to layout.lanes signed values (missing slots are zero).
/// Fails if any |slots[i]| exceeds SlotCapacity().
Result<BigInt> PackSigned(const PackedLayout& layout,
                          const std::vector<BigInt>& slots);

/// Inverse of PackSigned: always returns exactly layout.lanes values.
/// Fails on any overflow witness (illegal digit or trailing residue).
Result<std::vector<BigInt>> UnpackSigned(const PackedLayout& layout,
                                         const BigInt& packed);

/// True iff a slot holds |v| <= magnitude_bound with guard_bits to spare.
Status CheckSlotFits(const PackedLayout& layout, const BigInt& magnitude_bound);

/// Slot-aligned hom-add legality: the sum bound must still fit a slot.
Status CheckAddLegal(const PackedLayout& layout, const BigInt& bound_a,
                     const BigInt& bound_b);

/// Slot-aligned scalar-mul legality: |weight| * bound must still fit.
Status CheckScalarMulLegal(const PackedLayout& layout, const BigInt& bound,
                           const BigInt& weight);

}  // namespace ppstream
