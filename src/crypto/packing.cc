#include "crypto/packing.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace ppstream {
namespace {

BigInt PowerOfTwo(int64_t bits) { return BigInt(1) << static_cast<int>(bits); }

}  // namespace

BigInt PackedLayout::SlotCapacity() const {
  return PowerOfTwo(slot_bits - 1) - BigInt(1);
}

BigInt PackedLayout::ReplicationConstant(int64_t live_lanes) const {
  BigInt r;
  for (int64_t i = 0; i < live_lanes; ++i) {
    r += PowerOfTwo(i * slot_bits);
  }
  return r;
}

Status PackedLayout::Validate() const {
  if (lanes < 1) return Status::InvalidArgument("packing: lanes must be >= 1");
  if (slot_bits < 2) {
    return Status::InvalidArgument("packing: slot_bits must be >= 2");
  }
  if (guard_bits < 0 || guard_bits >= slot_bits) {
    return Status::InvalidArgument("packing: guard_bits out of range");
  }
  return Status::OK();
}

void PackedLayout::Serialize(BufferWriter* out) const {
  out->WriteU32(static_cast<uint32_t>(lanes));
  out->WriteU32(static_cast<uint32_t>(slot_bits));
  out->WriteU32(static_cast<uint32_t>(guard_bits));
}

Result<PackedLayout> PackedLayout::Deserialize(BufferReader* in) {
  PPS_ASSIGN_OR_RETURN(uint32_t lanes, in->ReadU32());
  PPS_ASSIGN_OR_RETURN(uint32_t slot_bits, in->ReadU32());
  PPS_ASSIGN_OR_RETURN(uint32_t guard_bits, in->ReadU32());
  // Bound before trusting: a hostile view must not drive 2^slot_bits huge.
  if (lanes > 4096 || slot_bits > 65536 || guard_bits > 65536) {
    return Status::OutOfRange("packing: implausible layout in view");
  }
  PackedLayout layout{static_cast<int32_t>(lanes),
                      static_cast<int32_t>(slot_bits),
                      static_cast<int32_t>(guard_bits)};
  PPS_RETURN_IF_ERROR(layout.Validate());
  return layout;
}

Result<PackedLayout> ChoosePackedLayout(int key_bits,
                                        const BigInt& magnitude_bound,
                                        int guard_bits, int max_lanes) {
  if (guard_bits < 0) {
    return Status::InvalidArgument("packing: negative guard_bits");
  }
  if (max_lanes < 1) {
    return Status::InvalidArgument("packing: max_lanes must be >= 1");
  }
  if (magnitude_bound.IsNegative()) {
    return Status::InvalidArgument("packing: negative magnitude bound");
  }
  // Sign bit + value bits + guard headroom. BitLength(0) == 0 still needs
  // one value bit so the slot can represent +/-1 intermediates.
  const int value_bits = magnitude_bound.BitLength() > 0
                             ? magnitude_bound.BitLength()
                             : 1;
  const int slot_bits = value_bits + 1 + guard_bits;
  // Keep the packed total 2 bits under the key so |P| < n/2 (signed
  // encoding threshold) with margin for the top balanced digit's sign.
  const int budget = key_bits - 2;
  const int lanes = std::min(max_lanes, budget / slot_bits);
  if (lanes < 2) {
    return Status::FailedPrecondition(
        "packing: bound of " + std::to_string(value_bits) +
        " bits leaves < 2 lanes at " + std::to_string(key_bits) + "-bit key");
  }
  PackedLayout layout{static_cast<int32_t>(lanes),
                      static_cast<int32_t>(slot_bits),
                      static_cast<int32_t>(guard_bits)};
  PPS_RETURN_IF_ERROR(layout.Validate());
  return layout;
}

Result<BigInt> PackSigned(const PackedLayout& layout,
                          const std::vector<BigInt>& slots) {
  PPS_RETURN_IF_ERROR(layout.Validate());
  if (slots.size() > static_cast<size_t>(layout.lanes)) {
    return Status::InvalidArgument("packing: more values than lanes");
  }
  const BigInt capacity = layout.SlotCapacity();
  BigInt packed;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].CompareMagnitude(capacity) > 0) {
      return Status::OutOfRange("packing: slot " + std::to_string(i) +
                                " exceeds capacity of " +
                                std::to_string(layout.slot_bits) + "-bit slot");
    }
    packed += slots[i] << static_cast<int>(static_cast<int64_t>(i) *
                                           layout.slot_bits);
  }
  static obs::Counter* packs =
      obs::MetricsRegistry::Global().GetCounter("crypto.pack.packs");
  packs->Increment();
  return packed;
}

Result<std::vector<BigInt>> UnpackSigned(const PackedLayout& layout,
                                         const BigInt& packed) {
  PPS_RETURN_IF_ERROR(layout.Validate());
  if (packed.BitLength() > layout.TotalBits()) {
    return Status::OutOfRange("packing: packed value wider than layout");
  }
  const BigInt modulus = PowerOfTwo(layout.slot_bits);
  const BigInt half = PowerOfTwo(layout.slot_bits - 1);
  const BigInt capacity = layout.SlotCapacity();
  std::vector<BigInt> slots;
  slots.reserve(static_cast<size_t>(layout.lanes));
  BigInt rest = packed;
  for (int32_t i = 0; i < layout.lanes; ++i) {
    PPS_ASSIGN_OR_RETURN(BigInt digit, rest.Mod(modulus));
    if (digit >= half) digit -= modulus;
    // -2^(slot_bits-1) is not a legal balanced digit: it can only appear
    // when an overflow carried into this slot.
    if (digit.CompareMagnitude(capacity) > 0) {
      return Status::OutOfRange("packing: slot " + std::to_string(i) +
                                " overflowed (illegal balanced digit)");
    }
    rest = (rest - digit) >> layout.slot_bits;
    slots.push_back(std::move(digit));
  }
  if (!rest.IsZero()) {
    return Status::OutOfRange("packing: residue beyond last slot (overflow)");
  }
  static obs::Counter* unpacks =
      obs::MetricsRegistry::Global().GetCounter("crypto.pack.unpacks");
  unpacks->Increment();
  return slots;
}

Status CheckSlotFits(const PackedLayout& layout,
                     const BigInt& magnitude_bound) {
  PPS_RETURN_IF_ERROR(layout.Validate());
  // The bound must fit the value bits with the guard headroom untouched:
  // |v| < 2^(slot_bits - 1 - guard_bits).
  if (magnitude_bound >= PowerOfTwo(layout.slot_bits - 1 - layout.guard_bits)) {
    return Status::OutOfRange("packing: magnitude bound of " +
                              std::to_string(magnitude_bound.BitLength()) +
                              " bits does not fit slot");
  }
  return Status::OK();
}

Status CheckAddLegal(const PackedLayout& layout, const BigInt& bound_a,
                     const BigInt& bound_b) {
  PPS_RETURN_IF_ERROR(layout.Validate());
  if (bound_a + bound_b > layout.SlotCapacity()) {
    return Status::OutOfRange("packing: hom-add result would overflow slot");
  }
  return Status::OK();
}

Status CheckScalarMulLegal(const PackedLayout& layout, const BigInt& bound,
                           const BigInt& weight) {
  PPS_RETURN_IF_ERROR(layout.Validate());
  BigInt scaled = bound * weight;
  if (scaled.CompareMagnitude(layout.SlotCapacity()) > 0) {
    return Status::OutOfRange("packing: scalar-mul result would overflow slot");
  }
  return Status::OK();
}

}  // namespace ppstream
