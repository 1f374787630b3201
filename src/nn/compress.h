// Post-training model compression: magnitude pruning and k-bit weight
// quantization (DESIGN.md §13).
//
// Both transforms exist to feed the affine kernels: a row's terms that
// share a weight value can fold into one homomorphic scalar-mul once the
// group is large enough, so zeroing small weights removes terms outright
// and collapsing the weight distribution onto 2^k levels grows the groups
// — a direct crypto-cost lever rather than a storage optimization. Compression
// changes model outputs, so callers re-check accuracy (EvaluateAccuracy)
// and report the delta; the protocol itself stays bit-exact relative to
// whatever (compressed or not) model it was compiled from.

#pragma once

#include "nn/model.h"
#include "util/status.h"

namespace ppstream {

struct CompressionSpec {
  /// Fraction of smallest-|w| weights zeroed per linear layer, in [0, 1).
  /// 0 disables pruning. The threshold is per layer (weight scales differ
  /// across layers, so a global threshold would gut early layers).
  double prune_fraction = 0.0;
  /// Symmetric uniform quantization to at most 2^weight_bits - 1 distinct
  /// nonzero levels per layer (k-bit signed, zero preserved). 0 disables.
  int weight_bits = 0;
};

/// What compression did, for reporting and bench JSON.
struct CompressionReport {
  int64_t weights_total = 0;
  int64_t weights_pruned = 0;       // newly zeroed by pruning
  int64_t distinct_before = 0;      // distinct nonzero values, pre
  int64_t distinct_after = 0;       // distinct nonzero values, post
  int64_t layers_compressed = 0;    // Dense/Conv2D layers touched
};

/// Returns a compressed deep copy of `model`: every Dense/Conv2D layer's
/// weight tensor is pruned then quantized per `spec` (biases and other
/// layer kinds are untouched — they cost no encrypted scalar-muls).
/// Mirrors the report into the `nn.quant.*` counters.
Result<Model> CompressModel(const Model& model, const CompressionSpec& spec,
                            CompressionReport* report = nullptr);

}  // namespace ppstream
