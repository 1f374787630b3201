#include "core/affine.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "core/fixed_point.h"
#include "nn/layers.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace ppstream {

// Profiled on 512-bit keys (bench_micro_crypto, EXPERIMENTS.md): a
// minimal-window table build costs ~24.5us while each table-backed
// ScalarMul saves ~3us (4-bit weights) to ~15us (17-bit weights) over
// per-call ExpMont, putting break-even between 2 and 8 reuses. 4 is the
// measured middle for the 10-20-bit weights quantization produces.
const int64_t IntegerAffineLayer::kFixedBaseBreakEvenFanOut = 4;

namespace {

/// bias quantized at F^(input_scale_power + weight_scale_power).
BigInt QuantizeBias(double bias, int64_t scale, int out_power) {
  // Compute round(bias * F^out_power) without double overflow for large
  // powers: quantize at F once, then multiply by F^(out_power-1) exactly.
  if (bias == 0.0) return BigInt();
  const int64_t at_f = QuantizeValue(bias, scale);
  return BigInt(at_f) * ScalePower(scale, out_power - 1);
}

}  // namespace

Result<IntegerAffineLayer> IntegerAffineLayer::FromLayer(
    const Layer& layer, const Shape& input_shape, int64_t scale,
    int input_scale_power) {
  if (scale < 1) return Status::InvalidArgument("scale must be >= 1");
  if (input_scale_power < 1) {
    return Status::InvalidArgument("input_scale_power must be >= 1");
  }
  // Validates shape compatibility for every layer kind up front.
  PPS_ASSIGN_OR_RETURN(Shape output_shape, layer.OutputShape(input_shape));

  IntegerAffineLayer out;
  out.name_ = layer.name();
  out.input_scale_power_ = input_scale_power;
  out.weight_scale_power_ = 1;

  switch (layer.kind()) {
    case LayerKind::kDense: {
      const auto& dense = static_cast<const DenseLayer&>(layer);
      const int64_t in_f = dense.in_features(), out_f = dense.out_features();
      out.in_shape_ = input_shape;
      out.out_shape_ = output_shape;
      const int out_power = input_scale_power + 1;
      out.rows_.resize(static_cast<size_t>(out_f));
      for (int64_t o = 0; o < out_f; ++o) {
        AffineRow& row = out.rows_[static_cast<size_t>(o)];
        row.terms.reserve(static_cast<size_t>(in_f));
        for (int64_t i = 0; i < in_f; ++i) {
          const int64_t w = QuantizeValue(dense.weights()[o * in_f + i],
                                          scale);
          if (w != 0) {
            row.terms.push_back({static_cast<uint32_t>(i), w});
          }
        }
        row.bias = QuantizeBias(dense.bias()[o], scale, out_power);
      }
      return out;
    }
    case LayerKind::kConv2D: {
      const auto& conv = static_cast<const Conv2DLayer&>(layer);
      const Conv2DGeometry& g = conv.geometry();
      out.in_shape_ = input_shape;
      out.out_shape_ = output_shape;
      const int out_power = input_scale_power + 1;
      const int64_t oh = g.out_height(), ow = g.out_width();
      out.rows_.resize(static_cast<size_t>(g.out_channels * oh * ow));
      for (int64_t oc = 0; oc < g.out_channels; ++oc) {
        for (int64_t oy = 0; oy < oh; ++oy) {
          for (int64_t ox = 0; ox < ow; ++ox) {
            AffineRow& row = out.rows_[static_cast<size_t>(
                (oc * oh + oy) * ow + ox)];
            const int64_t iy0 = oy * g.stride - g.padding;
            const int64_t ix0 = ox * g.stride - g.padding;
            for (int64_t ic = 0; ic < g.in_channels; ++ic) {
              for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
                const int64_t iy = iy0 + ky;
                if (iy < 0 || iy >= g.in_height) continue;
                for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
                  const int64_t ix = ix0 + kx;
                  if (ix < 0 || ix >= g.in_width) continue;
                  const int64_t w = QuantizeValue(
                      conv.filters()[((oc * g.in_channels + ic) * g.kernel_h +
                                      ky) *
                                         g.kernel_w +
                                     kx],
                      scale);
                  if (w != 0) {
                    row.terms.push_back(
                        {static_cast<uint32_t>((ic * g.in_height + iy) *
                                                   g.in_width +
                                               ix),
                         w});
                  }
                }
              }
            }
            row.bias = QuantizeBias(conv.bias()[oc], scale, out_power);
          }
        }
      }
      return out;
    }
    case LayerKind::kBatchNorm: {
      // Per-element affine: y = a_c x + b_c with a = gamma/sqrt(var+eps),
      // b = beta - gamma*mean/sqrt(var+eps).
      const auto& bn = static_cast<const BatchNormLayer&>(layer);
      out.in_shape_ = input_shape;
      out.out_shape_ = output_shape;
      const int out_power = input_scale_power + 1;
      const int64_t n = input_shape.NumElements();
      const int64_t per_channel =
          input_shape.rank() == 3
              ? input_shape.dim(1) * input_shape.dim(2)
              : 1;
      out.rows_.resize(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        const int64_t c = i / per_channel;
        const double inv_std =
            1.0 / std::sqrt(bn.variance()[c] + bn.epsilon());
        const double a = bn.gamma()[c] * inv_std;
        const double b = bn.beta()[c] - bn.gamma()[c] * bn.mean()[c] * inv_std;
        AffineRow& row = out.rows_[static_cast<size_t>(i)];
        const int64_t w = QuantizeValue(a, scale);
        if (w != 0) row.terms.push_back({static_cast<uint32_t>(i), w});
        row.bias = QuantizeBias(b, scale, out_power);
      }
      return out;
    }
    case LayerKind::kAvgPool2D: {
      // A fixed depthwise convolution with weight 1/(k*k).
      const auto& pool = static_cast<const AvgPool2DLayer&>(layer);
      out.in_shape_ = input_shape;
      out.out_shape_ = output_shape;
      const int64_t c = input_shape.dim(0), h = input_shape.dim(1),
                    w = input_shape.dim(2);
      const int64_t oh = output_shape.dim(1), ow = output_shape.dim(2);
      const int64_t wq =
          QuantizeValue(1.0 / static_cast<double>(pool.size() * pool.size()),
                        scale);
      out.rows_.resize(static_cast<size_t>(c * oh * ow));
      for (int64_t ch = 0; ch < c; ++ch) {
        for (int64_t oy = 0; oy < oh; ++oy) {
          for (int64_t ox = 0; ox < ow; ++ox) {
            AffineRow& row =
                out.rows_[static_cast<size_t>((ch * oh + oy) * ow + ox)];
            for (int64_t ky = 0; ky < pool.size(); ++ky) {
              for (int64_t kx = 0; kx < pool.size(); ++kx) {
                row.terms.push_back(
                    {static_cast<uint32_t>(
                         (ch * h + oy * pool.stride() + ky) * w +
                         ox * pool.stride() + kx),
                     wq});
              }
            }
          }
        }
      }
      return out;
    }
    case LayerKind::kFlatten: {
      // Identity on the flat buffer: weight 1, no scale change.
      out.in_shape_ = input_shape;
      out.out_shape_ = output_shape;
      out.weight_scale_power_ = 0;
      const int64_t n = input_shape.NumElements();
      out.rows_.resize(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        out.rows_[static_cast<size_t>(i)].terms.push_back(
            {static_cast<uint32_t>(i), 1});
      }
      return out;
    }
    case LayerKind::kScalarScale: {
      const auto& ss = static_cast<const ScalarScaleLayer&>(layer);
      out.in_shape_ = input_shape;
      out.out_shape_ = output_shape;
      const int64_t n = input_shape.NumElements();
      const int64_t wq = QuantizeValue(ss.alpha(), scale);
      out.rows_.resize(static_cast<size_t>(n));
      if (wq != 0) {
        for (int64_t i = 0; i < n; ++i) {
          out.rows_[static_cast<size_t>(i)].terms.push_back(
              {static_cast<uint32_t>(i), wq});
        }
      }
      return out;
    }
    default:
      return Status::InvalidArgument(
          internal::StrCat("layer ", layer.name(), " is not linear"));
  }
}

Result<Tensor<BigInt>> IntegerAffineLayer::ApplyPlain(
    const Tensor<BigInt>& in) const {
  if (in.NumElements() != in_shape_.NumElements()) {
    return Status::InvalidArgument(
        internal::StrCat(name_, ": plain input has ", in.NumElements(),
                         " elements, expected ", in_shape_.NumElements()));
  }
  Tensor<BigInt> out{out_shape_};
  for (size_t j = 0; j < rows_.size(); ++j) {
    BigInt acc = rows_[j].bias;
    for (const AffineTerm& t : rows_[j].terms) {
      acc = acc + in[t.input_index] * BigInt(t.weight);
    }
    out[static_cast<int64_t>(j)] = std::move(acc);
  }
  return out;
}

namespace {

using MontValue = MontgomeryContext::MontValue;

/// Lazily-built Montgomery residents of the input slots, local to one
/// row-slice evaluation (one thread).
class ResidentInputs {
 public:
  ResidentInputs(const MontgomeryContext& ctx,
                 const std::vector<Ciphertext>& in)
      : ctx_(ctx), in_(in), mont_(in.size()) {}

  const MontValue& Mont(size_t pos) {
    if (mont_[pos].empty()) mont_[pos] = ctx_.ToMontgomery(in_[pos].value);
    return mont_[pos];
  }

 private:
  const MontgomeryContext& ctx_;
  const std::vector<Ciphertext>& in_;
  std::vector<MontValue> mont_;
};

/// Montgomery's batch-inversion trick over residents: inverts every entry
/// of `values` in place with ONE BigInt::ModInverse of their product, plus
/// 3 MontMuls per entry (prefix products forward, one walk back). Fails
/// with ModInverse's status if any entry is not a unit.
Status BatchInvertMont(const MontgomeryContext& ctx,
                       std::vector<MontValue>* values) {
  const size_t k = values->size();
  if (k == 0) return Status::OK();
  std::vector<MontValue> prefix(k);  // prefix[i] = values[0..i] multiplied
  prefix[0] = (*values)[0];
  for (size_t i = 1; i < k; ++i) {
    ctx.MulMont(prefix[i - 1], (*values)[i], &prefix[i]);
  }
  PPS_ASSIGN_OR_RETURN(BigInt inv,
                       BigInt::ModInverse(ctx.FromMontgomery(prefix[k - 1]),
                                          ctx.modulus()));
  // running = (values[0..i] multiplied)^{-1} as i walks down.
  MontValue running = ctx.ToMontgomery(inv);
  MontValue inv_i;
  for (size_t i = k - 1; i > 0; --i) {
    ctx.MulMont(running, prefix[i - 1], &inv_i);
    ctx.MulMont(running, (*values)[i], &running);
    (*values)[i].swap(inv_i);
  }
  (*values)[0].swap(running);
  return Status::OK();
}

/// One row slice under the sign split. Row i accumulates its positive
/// terms in pos[i] and the magnitudes of its negative terms in a separate
/// product, so no input ciphertext is ever inverted: the row's output is
/// pos · neg^{-1} · g^bias, the same residue as prod_t c_t^{w_t} · g^bias.
struct SignSplitSlice {
  explicit SignSplitSlice(size_t rows) : out(rows), pos(rows), bias(rows) {}

  std::vector<Ciphertext> out;      // forwarded (identity) rows set here
  std::vector<MontValue> pos;       // positive products, resident
  std::vector<const BigInt*> bias;  // null for forwarded rows
  std::vector<MontValue> neg;       // negative products of rows with any
  std::vector<size_t> neg_rows;     // slice row of each neg entry
};

/// Inverts every negative product of the slice with one batch inverse,
/// then emits pos · neg^{-1} · g^bias per row, converted back once.
Result<std::vector<Ciphertext>> FinishSignSplit(const PaillierPublicKey& pk,
                                                SignSplitSlice* slice) {
  const MontgomeryContext& ctx = pk.ctx_n2();
  PPS_RETURN_IF_ERROR(BatchInvertMont(ctx, &slice->neg));
  for (size_t k = 0; k < slice->neg.size(); ++k) {
    MontValue& acc = slice->pos[slice->neg_rows[k]];
    ctx.MulMont(acc, slice->neg[k], &acc);
  }
  for (size_t i = 0; i < slice->out.size(); ++i) {
    if (slice->bias[i] == nullptr) continue;
    if (!slice->bias[i]->IsZero()) {
      PPS_ASSIGN_OR_RETURN(
          MontCiphertext with_bias,
          Paillier::AddPlainMont(pk, MontCiphertext{std::move(slice->pos[i])},
                                 *slice->bias[i]));
      slice->pos[i] = std::move(with_bias.m);
    }
    slice->out[i] = Ciphertext{ctx.FromMontgomery(slice->pos[i])};
  }
  return std::move(slice->out);
}

/// Shared row-slice core for the whole-tensor and sub-tensor paths.
/// `sub_indices == nullptr` means `in` is the full input (slot i at
/// position i); otherwise `in[p]` holds slot (*sub_indices)[p].
Result<std::vector<Ciphertext>> EvalEncryptedRows(
    const PaillierPublicKey& pk, const std::vector<AffineRow>& rows,
    size_t row_begin, size_t row_end, const std::vector<Ciphertext>& in,
    const std::vector<uint32_t>* sub_indices,
    const EncryptedStageCache* cache) {
  const MontgomeryContext& ctx = pk.ctx_n2();
  ResidentInputs resident(ctx, in);
  auto position_of = [&](uint32_t slot) -> size_t {
    if (sub_indices == nullptr) return slot;
    return static_cast<size_t>(
        std::lower_bound(sub_indices->begin(), sub_indices->end(), slot) -
        sub_indices->begin());
  };

  SignSplitSlice slice(row_end - row_begin);
  // Homomorphic weight applications (c^|w| in the Montgomery domain) count
  // as scalar muls even though they bypass Paillier::ScalarMul; batched
  // into one registry increment per call to keep the inner loop clean.
  static obs::Counter* scalar_muls =
      obs::MetricsRegistry::Global().GetCounter("crypto.scalar_muls");
  uint64_t muls_applied = 0;
  MontValue negative, term;
  for (size_t j = row_begin; j < row_end; ++j) {
    const size_t i = j - row_begin;
    const AffineRow& row = rows[j];
    // Identity rows (Flatten and friends) forward the ciphertext — the
    // same bits the generic path yields, since E(0; r=1) * c^1 = c.
    if (row.terms.size() == 1 && row.terms[0].weight == 1 &&
        row.bias.IsZero()) {
      slice.out[i] = in[position_of(row.terms[0].input_index)];
      continue;
    }
    // Eq. (3): prod_i E(m_i)^{w_i} * E(b), accumulated in the Montgomery
    // domain with positive and negative weights in separate products.
    MontValue& positive = slice.pos[i];
    positive = ctx.OneMont();  // E(0) with r = 1
    negative = ctx.OneMont();
    bool has_negative = false;
    for (const AffineTerm& t : row.terms) {
      if (t.weight == 0) continue;  // c^0 = 1, the accumulation identity
      ++muls_applied;
      MontValue& dst = t.weight > 0 ? positive : negative;
      has_negative |= t.weight < 0;
      const int64_t mag = t.weight < 0 ? -t.weight : t.weight;
      const FixedBaseExp* base =
          (cache != nullptr && t.input_index < cache->bases.size())
              ? cache->bases[t.input_index].get()
              : nullptr;
      if (base != nullptr) {
        PPS_RETURN_IF_ERROR(base->PowMont(BigInt(mag), &term));
      } else {
        const MontValue& c = resident.Mont(position_of(t.input_index));
        if (mag == 1) {
          ctx.MulMont(dst, c, &dst);
          continue;
        }
        ctx.ExpMont(c, BigInt(mag), &term);
      }
      ctx.MulMont(dst, term, &dst);
    }
    slice.bias[i] = &row.bias;
    if (has_negative) {
      slice.neg.push_back(std::move(negative));
      slice.neg_rows.push_back(i);
    }
  }
  if (muls_applied != 0) scalar_muls->Increment(muls_applied);
  return FinishSignSplit(pk, &slice);
}

}  // namespace

Result<EncryptedStageCache> IntegerAffineLayer::BuildEncryptedStageCache(
    const PaillierPublicKey& pk, const std::vector<Ciphertext>& in,
    ThreadPool* pool, int64_t min_fan_out) const {
  if (in.size() != static_cast<size_t>(in_shape_.NumElements())) {
    return Status::InvalidArgument(
        internal::StrCat(name_, ": cache input has ", in.size(),
                         " slots, expected ", in_shape_.NumElements()));
  }
  if (min_fan_out <= 0) min_fan_out = kFixedBaseBreakEvenFanOut;

  // Tables are positive-only: the kernels raise c to |w| and apply the
  // sign by a batch inverse per row slice (see EvalEncryptedRows).
  struct SlotProfile {
    int64_t fan_out = 0;
    int max_weight_bits = 0;
  };
  std::vector<SlotProfile> profile(in.size());
  for (const AffineRow& row : rows_) {
    for (const AffineTerm& t : row.terms) {
      SlotProfile& p = profile[t.input_index];
      ++p.fan_out;
      p.max_weight_bits =
          std::max(p.max_weight_bits, BigInt(t.weight).BitLength());
    }
  }

  EncryptedStageCache cache;
  cache.bases.resize(in.size());
  std::vector<size_t> to_build;
  for (size_t i = 0; i < profile.size(); ++i) {
    // Weight-(+/-)1 slots never pay squarings, so a table buys nothing.
    if (profile[i].fan_out >= min_fan_out && profile[i].max_weight_bits >= 2) {
      to_build.push_back(i);
    }
  }
  if (to_build.empty()) return cache;

  auto build_one = [&](size_t slot) -> Status {
    const SlotProfile& p = profile[slot];
    PPS_ASSIGN_OR_RETURN(
        FixedBaseExp base,
        Paillier::PrecomputeScalarMulBase(pk, in[slot], p.max_weight_bits,
                                          /*allow_negative=*/false,
                                          p.fan_out));
    cache.bases[slot] = std::make_shared<const FixedBaseExp>(std::move(base));
    return Status::OK();
  };

  if (pool != nullptr && pool->num_threads() > 1 && to_build.size() > 1) {
    std::mutex error_mutex;
    Status first_error;
    pool->ParallelFor(0, to_build.size(), [&](size_t i) {
      Status st = build_one(to_build[i]);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.ok()) first_error = std::move(st);
      }
    });
    PPS_RETURN_IF_ERROR(first_error);
  } else {
    for (size_t slot : to_build) {
      PPS_RETURN_IF_ERROR(build_one(slot));
    }
  }
  cache.tables_built = static_cast<int64_t>(to_build.size());
  return cache;
}

Result<std::vector<Ciphertext>> IntegerAffineLayer::ApplyEncryptedRows(
    const PaillierPublicKey& pk, const std::vector<Ciphertext>& in,
    size_t row_begin, size_t row_end,
    const EncryptedStageCache* cache) const {
  if (in.size() != static_cast<size_t>(in_shape_.NumElements())) {
    return Status::InvalidArgument(
        internal::StrCat(name_, ": encrypted input has ", in.size(),
                         " slots, expected ", in_shape_.NumElements()));
  }
  if (row_begin > row_end || row_end > rows_.size()) {
    return Status::OutOfRange("row slice out of range");
  }
  return EvalEncryptedRows(pk, rows_, row_begin, row_end, in,
                           /*sub_indices=*/nullptr, cache);
}

Result<std::vector<Ciphertext>> IntegerAffineLayer::ApplyEncryptedRowsSub(
    const PaillierPublicKey& pk, const std::vector<Ciphertext>& sub,
    const std::vector<uint32_t>& sub_indices, size_t row_begin,
    size_t row_end, const EncryptedStageCache* cache) const {
  if (sub.size() != sub_indices.size()) {
    return Status::InvalidArgument(
        internal::StrCat(name_, ": sub-tensor has ", sub.size(),
                         " slots but ", sub_indices.size(), " indices"));
  }
  if (row_begin > row_end || row_end > rows_.size()) {
    return Status::OutOfRange("row slice out of range");
  }
  for (size_t j = row_begin; j < row_end; ++j) {
    for (const AffineTerm& t : rows_[j].terms) {
      if (!std::binary_search(sub_indices.begin(), sub_indices.end(),
                              t.input_index)) {
        return Status::InvalidArgument(internal::StrCat(
            name_, ": row ", j, " taps slot ", t.input_index,
            " missing from the sub-tensor"));
      }
    }
  }
  return EvalEncryptedRows(pk, rows_, row_begin, row_end, sub, &sub_indices,
                           cache);
}

Result<Tensor<Ciphertext>> IntegerAffineLayer::ApplyEncrypted(
    const PaillierPublicKey& pk, const Tensor<Ciphertext>& in) const {
  PPS_ASSIGN_OR_RETURN(
      std::vector<Ciphertext> out,
      ApplyEncryptedRows(pk, in.data(), 0, rows_.size()));
  return Tensor<Ciphertext>(out_shape_, std::move(out));
}

BigInt IntegerAffineLayer::OutputMagnitudeBound(
    const BigInt& input_bound) const {
  BigInt worst;
  for (const AffineRow& row : rows_) {
    BigInt sum_abs_w;
    for (const AffineTerm& t : row.terms) {
      sum_abs_w = sum_abs_w + BigInt(t.weight < 0 ? -t.weight : t.weight);
    }
    BigInt bias_abs = row.bias.IsNegative() ? -row.bias : row.bias;
    BigInt bound = sum_abs_w * input_bound + bias_abs;
    if (bound.Compare(worst) > 0) worst = std::move(bound);
  }
  return worst;
}

int64_t IntegerAffineLayer::TotalTerms() const {
  int64_t total = 0;
  for (const AffineRow& row : rows_) {
    total += static_cast<int64_t>(row.terms.size());
  }
  return total;
}

int64_t IntegerAffineLayer::EncryptedScalarMuls() const {
  int64_t total = 0;
  for (const AffineRow& row : rows_) {
    if (row.terms.size() == 1 && row.terms[0].weight == 1 &&
        row.bias.IsZero()) {
      continue;  // identity fast path: ciphertext forwarded, no mul
    }
    for (const AffineTerm& t : row.terms) {
      if (t.weight != 0) ++total;
    }
  }
  return total;
}

Result<PackedAffineKernel> PackedAffineKernel::Build(
    const IntegerAffineLayer& layer, const PackedLayout& layout,
    const BigInt& input_magnitude_bound) {
  PPS_RETURN_IF_ERROR(layout.Validate());
  // One bound covers every accumulation point: partial sums of
  // sum_t w_t x_t + b are bounded by the full row's magnitude bound
  // (sum of |w_t| * bound + |b|), so checking the worst row suffices.
  const BigInt worst = layer.OutputMagnitudeBound(input_magnitude_bound);
  if (worst > layout.SlotCapacity()) {
    return Status::OutOfRange(internal::StrCat(
        layer.name(), ": output bound of ", worst.BitLength(),
        " bits overflows a ", layout.slot_bits, "-bit packed slot"));
  }
  PPS_RETURN_IF_ERROR(CheckSlotFits(layout, input_magnitude_bound));

  PackedAffineKernel kernel;
  kernel.layout_ = layout;
  kernel.num_inputs_ =
      static_cast<size_t>(layer.input_shape().NumElements());
  kernel.rows_.reserve(layer.rows().size());
  std::map<int64_t, std::vector<uint32_t>> by_weight;
  for (const AffineRow& row : layer.rows()) {
    PackedRowPlan plan;
    if (row.terms.size() == 1 && row.terms[0].weight == 1 &&
        row.bias.IsZero()) {
      plan.identity = true;
      plan.identity_input = row.terms[0].input_index;
      kernel.rows_.push_back(std::move(plan));
      continue;
    }
    by_weight.clear();
    for (const AffineTerm& t : row.terms) {
      if (t.weight == 0) continue;
      by_weight[t.weight].push_back(t.input_index);
    }
    plan.groups.reserve(by_weight.size());
    for (auto& [weight, inputs] : by_weight) {
      plan.groups.push_back({weight, std::move(inputs)});
    }
    plan.bias = row.bias;
    kernel.rows_.push_back(std::move(plan));
  }
  return kernel;
}

int64_t PackedAffineKernel::GroupScalarMuls() const {
  int64_t total = 0;
  for (const PackedRowPlan& row : rows_) {
    total += static_cast<int64_t>(row.groups.size());
  }
  return total;
}

Result<std::vector<Ciphertext>> PackedAffineKernel::ApplyEncryptedRowsPacked(
    const PaillierPublicKey& pk, const std::vector<Ciphertext>& in,
    int64_t lanes, size_t row_begin, size_t row_end,
    const EncryptedStageCache* cache) const {
  if (in.size() != num_inputs_) {
    return Status::InvalidArgument(
        internal::StrCat("packed input has ", in.size(), " words, expected ",
                         num_inputs_));
  }
  if (lanes < 1 || lanes > layout_.lanes) {
    return Status::InvalidArgument(internal::StrCat(
        "packed batch of ", lanes, " lanes on a ", layout_.lanes,
        "-lane layout"));
  }
  if (row_begin > row_end || row_end > rows_.size()) {
    return Status::OutOfRange("row slice out of range");
  }
  const MontgomeryContext& ctx = pk.ctx_n2();
  ResidentInputs resident(ctx, in);

  SignSplitSlice slice(row_end - row_begin);
  const BigInt replicate = layout_.ReplicationConstant(lanes);
  std::vector<BigInt> biases(row_end - row_begin);
  // A group pays one weight application (counted under crypto.scalar_muls,
  // same semantics as the scalar path) after |group|-1 ciphertext
  // multiplications that fold its members together (crypto.pack.hom_adds).
  static obs::Counter* scalar_muls =
      obs::MetricsRegistry::Global().GetCounter("crypto.scalar_muls");
  static obs::Counter* hom_adds =
      obs::MetricsRegistry::Global().GetCounter("crypto.pack.hom_adds");
  uint64_t muls_applied = 0, adds_applied = 0;
  MontValue negative, gacc, term;
  for (size_t j = row_begin; j < row_end; ++j) {
    const size_t i = j - row_begin;
    const PackedRowPlan& row = rows_[j];
    if (row.identity) {
      slice.out[i] = in[row.identity_input];
      continue;
    }
    MontValue& positive = slice.pos[i];
    positive = ctx.OneMont();  // E(0) with r = 1
    negative = ctx.OneMont();
    bool has_negative = false;
    for (const PackedWeightGroup& group : row.groups) {
      ++muls_applied;
      // Negative groups land in their own product (inverted per slice by
      // FinishSignSplit), so every fold multiplies c_i, never c_i^{-1}.
      MontValue& dst = group.weight > 0 ? positive : negative;
      has_negative |= group.weight < 0;
      const int64_t mag = group.weight < 0 ? -group.weight : group.weight;
      // Singleton groups with a cached fixed-base table skip the fold and
      // the resident conversion entirely.
      const FixedBaseExp* base =
          (group.inputs.size() == 1 && cache != nullptr &&
           group.inputs[0] < cache->bases.size())
              ? cache->bases[group.inputs[0]].get()
              : nullptr;
      if (base != nullptr) {
        PPS_RETURN_IF_ERROR(base->PowMont(BigInt(mag), &term));
        ctx.MulMont(dst, term, &dst);
        continue;
      }
      // Fold the group: E(sum of members), slot-parallel across lanes.
      gacc = resident.Mont(group.inputs[0]);
      for (size_t m = 1; m < group.inputs.size(); ++m) {
        ctx.MulMont(gacc, resident.Mont(group.inputs[m]), &gacc);
        ++adds_applied;
      }
      if (mag == 1) {
        ctx.MulMont(dst, gacc, &dst);
      } else {
        ctx.ExpMont(gacc, BigInt(mag), &term);
        ctx.MulMont(dst, term, &dst);
      }
    }
    if (!row.bias.IsZero()) biases[i] = row.bias * replicate;
    slice.bias[i] = &biases[i];
    if (has_negative) {
      slice.neg.push_back(std::move(negative));
      slice.neg_rows.push_back(i);
    }
  }
  if (muls_applied != 0) scalar_muls->Increment(muls_applied);
  if (adds_applied != 0) hom_adds->Increment(adds_applied);
  return FinishSignSplit(pk, &slice);
}

Result<IntegerAffineLayer> IntegerAffineLayer::Compose(
    const IntegerAffineLayer& first, const IntegerAffineLayer& second) {
  if (first.out_shape_.NumElements() != second.in_shape_.NumElements()) {
    return Status::InvalidArgument(internal::StrCat(
        "cannot compose ", first.name_, " (", first.out_shape_.NumElements(),
        " outputs) with ", second.name_, " (",
        second.in_shape_.NumElements(), " inputs)"));
  }
  if (first.output_scale_power() != second.input_scale_power_) {
    return Status::InvalidArgument(internal::StrCat(
        "scale power mismatch composing ", first.name_, " (out F^",
        first.output_scale_power(), ") with ", second.name_, " (in F^",
        second.input_scale_power_, ")"));
  }

  IntegerAffineLayer out;
  out.name_ = first.name_ + "*" + second.name_;
  out.in_shape_ = first.in_shape_;
  out.out_shape_ = second.out_shape_;
  out.input_scale_power_ = first.input_scale_power_;
  out.weight_scale_power_ =
      first.weight_scale_power_ + second.weight_scale_power_;
  out.rows_.resize(second.rows_.size());

  // Sparse row-times-matrix: composed row j taps slot i with weight
  // Σ_k w2[j,k]·w1[k,i]; composed bias is b2[j] + Σ_k w2[j,k]·b1[k].
  // std::map keeps terms sorted by input slot for a deterministic layout.
  std::map<uint32_t, BigInt> acc;
  for (size_t j = 0; j < second.rows_.size(); ++j) {
    const AffineRow& r2 = second.rows_[j];
    AffineRow& dst = out.rows_[j];
    dst.bias = r2.bias;
    acc.clear();
    for (const AffineTerm& t2 : r2.terms) {
      if (t2.weight == 0) continue;
      const AffineRow& r1 = first.rows_[t2.input_index];
      const BigInt w2(t2.weight);
      if (!r1.bias.IsZero()) dst.bias = dst.bias + w2 * r1.bias;
      for (const AffineTerm& t1 : r1.terms) {
        if (t1.weight == 0) continue;
        BigInt& slot = acc[t1.input_index];
        slot = slot + w2 * BigInt(t1.weight);
      }
    }
    dst.terms.reserve(acc.size());
    for (const auto& [slot, weight] : acc) {
      if (weight.IsZero()) continue;  // cancellation across paths
      PPS_ASSIGN_OR_RETURN(int64_t w, weight.ToInt64());
      dst.terms.push_back({slot, w});
    }
  }
  return out;
}

}  // namespace ppstream
