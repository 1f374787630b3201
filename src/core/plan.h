// Inference-plan compilation (paper Section IV-B, "operation
// encapsulation").
//
// CompilePlan is a thin driver over the stage-graph IR (planner/ir.h):
// it imports the float model, runs the standard pass pipeline
// (planner/passes.h — MaxPool rewrite, mixed-layer decomposition,
// classification, integer lowering, affine-chain fusion, dead-tensor
// elimination, merge-adjacent, bound re-verification, optional Eq. 4-8
// placement) and emits the deployable plan below: the alternating stage
// structure of Figure 4, where linear stages run at the model provider on
// ciphertexts and non-linear segments run at the data provider on
// (obfuscated) plaintext. The wire format and provider contracts are
// unchanged by the IR — a plan compiled with every optimization disabled
// is identical to the pre-IR compiler's output, and fusion only replaces
// sequences of affine ops by their exact integer composition, so
// inference outputs stay bit-exact either way.

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/affine.h"
#include "nn/model.h"
#include "obs/cost.h"
#include "planner/passes.h"
#include "util/status.h"

namespace ppstream {

/// One merged linear primitive layer — a pipeline stage at the model
/// provider. The ops apply sequentially; the stage's output scale is
/// F^output_scale_power.
struct LinearStage {
  std::vector<IntegerAffineLayer> ops;
  Shape input_shape;
  Shape output_shape;
  int output_scale_power = 2;
  /// Worst-case |integer value| this stage can emit (for key sizing).
  BigInt magnitude_bound;
  std::string name;
  /// Slot layout covering this round's input and every op output, when
  /// the packing passes found one (DESIGN.md §13). Absent = the round
  /// rides the scalar wire at any lane count. Present on data-provider
  /// views so both parties pack identically.
  std::optional<PackedLayout> packed_layout;
  /// Weight-value-dedup kernels, one per op, iff packed_layout is set.
  /// Model-provider side only (kernels derive from weights).
  std::vector<PackedAffineKernel> packed_kernels;

  /// Whether a `lanes`-wide request carries this round as packed words
  /// (one per tensor element) rather than one ciphertext per element per
  /// lane. A one-lane request always rides the scalar wire, so plain
  /// inference is the same on packed and unpacked plans. Both providers
  /// and the cost function read the representation from here alone.
  bool PacksWith(int64_t lanes) const {
    return lanes > 1 && packed_layout.has_value();
  }
};

/// One merged non-linear primitive layer — a pipeline stage at the data
/// provider. Layers are element-wise activations, except that the final
/// segment may also hold SoftMax.
struct NonLinearSegment {
  std::vector<std::unique_ptr<Layer>> layers;
  Shape shape;  // element-wise: input shape == output shape
  bool is_final = false;
  std::string name;
};

/// The compiled plan. linear_stages[i] is followed by
/// nonlinear_segments[i]; counts are equal because a deployable model
/// starts with a linear layer and ends with a non-linear one (§III-A).
struct InferencePlan {
  int64_t scale = 1;  // F
  Shape input_shape;
  Shape output_shape;
  std::vector<LinearStage> linear_stages;
  std::vector<NonLinearSegment> nonlinear_segments;
  /// The rewritten float model the plan was compiled from (MaxPool
  /// replaced, mixed layers decomposed). Running it plainly gives the
  /// float reference the protocol approximates.
  Model prepared_model;

  /// True for plans reconstructed from a data-provider view: the linear
  /// stages carry shapes and scale powers but no weights, so such a plan
  /// can drive a DataProvider but never a ModelProvider.
  bool is_data_provider_view = false;

  /// What the optimizing passes did (op/scalar-mul counts before and
  /// after fusion, dead tensors reaped). In-memory only, not serialized.
  planner::PlanCompileStats compile_stats;

  /// Solved Eq. 4-8 server/thread assignment when CompileOptions
  /// requested placement. In-memory only, not serialized.
  std::optional<planner::PlanPlacement> placement;

  size_t NumRounds() const { return linear_stages.size(); }

  /// Elements the data provider encrypts per request: the input tensor
  /// plus every re-encrypted intermediate tensor. Sizes the
  /// RandomizerPool so one request's worth of randomizers is ready.
  /// Readable on a data-provider view (uses shapes only).
  int64_t EncryptionsPerRequest() const;

  /// Largest magnitude bound across stages; must stay below n/2.
  const BigInt& MaxMagnitude() const;

  /// Lanes a packed batch can carry end to end: the minimum `lanes` over
  /// packed stages (every lane must survive the narrowest round), or 0
  /// when no stage packs. Readable on a data-provider view.
  int64_t PackedBatchLanes() const;

  /// Verifies the plan fits a key with the given modulus. The bounds it
  /// checks are recomputed by the verify-bounds pass *after* every other
  /// pass has run (so no transform can silently invalidate them) and each
  /// stage's bound covers every op output inside the stage, not just the
  /// last. Returns kFailedPrecondition naming the offending stage.
  Status CheckFitsKey(const BigInt& n) const;

  /// Serializes exactly what the data provider needs for deployment:
  /// scale, shapes, per-round scale powers, and the non-linear segments.
  /// The model weights (linear stage ops) are NOT included — they stay
  /// with the model provider.
  void SerializeDataProviderView(BufferWriter* out) const;
  static Result<InferencePlan> DeserializeDataProviderView(BufferReader* in);
};

struct CompileOptions {
  /// Bound on |input element| in real units, used for magnitude analysis.
  double input_bound = 16.0;
  /// Whether (and when) FuseAffineChains folds adjacent linear ops.
  planner::FusionPolicy fusion = planner::FusionPolicy::kScalarMulCount;
  /// When set, the placement pass solves Eq. 4-8 over the merged rounds
  /// and the result lands in InferencePlan::placement.
  std::optional<planner::PlacementSpec> placement;
  /// When set, the packing passes choose per-round slot layouts and lower
  /// weight-value-dedup packed kernels (DESIGN.md §13). Plans become
  /// key-size specific: spec.key_bits must match the deployment key.
  std::optional<planner::PackingSpec> packing;
  /// Sees the IR after every pass (tools/plan_dump --pass-trace). Not
  /// owned; must outlive the CompilePlan call.
  planner::PassObserver* pass_observer = nullptr;
};

/// Compiles a trained model at scale F = `scale`.
Result<InferencePlan> CompilePlan(const Model& model, int64_t scale,
                                  const CompileOptions& options = {});

/// Expected crypto cost of one `lanes`-wide request, priced from the
/// plan (a plain inference is lanes = 1). A round that packs
/// (LinearStage::PacksWith) prices one encrypt per input element and
/// GroupScalarMuls() per kernel; any other round prices one encrypt per
/// element per lane and every op's EncryptedScalarMuls() per lane —
/// exactly what crypto.encrypts / crypto.scalar_muls count. On a
/// data-provider view the weights are absent, so scalar_muls prices to 0
/// ("unknown, don't reconcile") while encrypts stays exact.
obs::RequestCostBudget ExpectedRequestCost(const InferencePlan& plan,
                                           int64_t lanes = 1);

/// Step 1+2 only: MaxPool rewrite + mixed-layer decomposition (the
/// rewrite-maxpool and decompose-mixed passes). Exposed for tests and for
/// the parameter-scaling search (which evaluates accuracy on the prepared
/// model).
Result<Model> PrepareModel(const Model& model);

}  // namespace ppstream
