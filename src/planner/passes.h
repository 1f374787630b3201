// The standard compilation passes (core/plan.cc assembles them into the
// CompilePlan pipeline; tests and tools compose them freely).
//
// Pipeline order used by CompilePlan:
//   rewrite-maxpool      MaxPool2D -> averaging conv + ReLU (§III-C)
//   decompose-mixed      mixed layers -> linear + non-linear primitives
//   classify             assign op classes, check §III-A structure
//   lower-to-integer     linear layers -> IntegerAffineLayer at scale F,
//                        scale powers + magnitude bounds onto tensors
//   fuse-affine-chains   fold consecutive linear ops into one affine op
//   dead-tensor-elim     reap tensors orphaned by fusion
//   merge-adjacent       group runs into alternating rounds (Figure 4)
//   verify-bounds        recompute all bounds from scratch post-transform
//   analyze-packing-legality  (optional) choose a slot layout per round
//   placement            (optional) Eq. 4-8 server/thread assignment

#pragma once

#include <memory>
#include <vector>

#include "planner/allocation.h"
#include "planner/ir.h"
#include "planner/pass.h"
#include "util/status.h"

namespace ppstream {
namespace planner {

/// When FuseAffineChains folds two adjacent linear ops into one.
enum class FusionPolicy : uint8_t {
  /// Fuse only when the fused op costs no more homomorphic scalar muls
  /// (AffineKernel weight applications) than the pair it replaces (the
  /// paper's end-to-end cost metric). This accepts Conv+BatchNorm,
  /// Dense+ScalarScale, Flatten+Dense and rejects Dense×Dense
  /// densification blow-ups. Note the fused op's *exponent
  /// bits* grow (composed weights multiply), so per-mul cost can rise
  /// slightly even as the count shrinks — see DESIGN.md §12.
  kScalarMulCount = 0,
  /// Fuse every composable pair (ablation / maximum stage shrink).
  kAlways = 1,
  /// Never fuse (the pre-IR behavior; also the bit-exactness baseline).
  kNever = 2,
};

/// Counters filled in by the optimizing passes; surfaced on the emitted
/// plan (InferencePlan::compile_stats) and by bench_pipeline.
struct PlanCompileStats {
  int64_t linear_ops_before_fusion = 0;
  int64_t linear_ops_after_fusion = 0;
  int64_t scalar_muls_before_fusion = 0;
  int64_t scalar_muls_after_fusion = 0;
  int64_t ops_fused = 0;
  int64_t dead_tensors_removed = 0;
  // Packing pass results (zero when the packing pass did not run).
  int64_t rounds_packed = 0;
  int64_t rounds_packing_fallback = 0;
  // Weight applications of one evaluation of the rounds that pack.
  int64_t packed_group_muls = 0;
};

/// Inputs for the packing pass (DESIGN.md §13). `key_bits` is the
/// Paillier key the plan will execute under — slot budgets derive from it,
/// so packed plans are key-size specific. `guard_bits` is per-slot
/// headroom on top of the propagated magnitude bound; `max_lanes` caps
/// slots per plaintext (also the largest useful inference batch).
struct PackingSpec {
  int key_bits = 512;
  int guard_bits = 2;
  int max_lanes = 64;
};

/// Inputs for the optional placement pass: the Table III style testbed
/// plus, optionally, measured per-stage seconds (2R entries ordered
/// lin0, nonlin0, lin1, ...). Without measurements an analytic cost model
/// is used: scalar muls for linear stages, elements for non-linear.
struct PlacementSpec {
  int model_servers = 1;
  int data_servers = 1;
  int cores_per_server = 4;
  bool hyper_threading = true;
  std::vector<double> stage_seconds;
  int64_t node_limit = 2'000'000;
};

/// Solved placement, round-major: entry 2r is linear stage r, entry 2r+1
/// the non-linear segment that follows it. Servers are numbered with the
/// model-provider servers first. In-memory only — never serialized.
struct PlanPlacement {
  std::vector<int> server_of_stage;
  std::vector<int> threads_of_stage;
  double objective = 0;
  bool exact = false;
};

/// Expands MaxPool2D nodes through Layer::DecomposeForDeployment.
std::unique_ptr<Pass> MakeRewriteMaxPoolPass();
/// Expands mixed-class nodes (ScaledSigmoid) the same way.
std::unique_ptr<Pass> MakeDecomposeMixedPass();
/// Assigns op classes and enforces the §III-A structure (starts linear,
/// ends non-linear, nothing mixed left).
std::unique_ptr<Pass> MakeClassifyPass();
/// Lowers linear nodes to IntegerAffineLayer and runs bound propagation.
std::unique_ptr<Pass> MakeLowerToIntegerPass();
/// Folds adjacent linear ops per `policy` (kNever yields a no-op pass);
/// re-propagates magnitude bounds through the folded matrices. `stats`
/// may be null; it must outlive the pipeline otherwise.
std::unique_ptr<Pass> MakeFuseAffineChainsPass(FusionPolicy policy,
                                               PlanCompileStats* stats);
/// Removes orphaned tensors and scrubs dead node ids from use lists.
std::unique_ptr<Pass> MakeDeadTensorElimPass(PlanCompileStats* stats);
/// Groups maximal same-class runs into alternating rounds and validates
/// the deployability rules (element-wise non-linear ops, SoftMax only in
/// the final segment).
std::unique_ptr<Pass> MakeMergeAdjacentPass();
/// Recomputes every scale power / magnitude bound from the graph input —
/// the post-pipeline soundness anchor CheckFitsKey relies on.
std::unique_ptr<Pass> MakeVerifyBoundsPass();
/// Chooses a packed slot layout per merged round from the propagated
/// magnitude bounds and `spec` (key bits, guard bits, lane cap), and
/// annotates the round's crypto-boundary tensors. Rounds whose bounds
/// leave fewer than 2 lanes stay scalar (per-round fallback). Requires
/// merge-adjacent and verify-bounds. `stats` may be null.
std::unique_ptr<Pass> MakeAnalyzePackingLegalityPass(PackingSpec spec,
                                                     PlanCompileStats* stats);
/// Wraps IlpAllocator: solves Eq. 4-8 over the merged rounds and writes
/// server/thread annotations onto the nodes and `*result`. Requires
/// merge-adjacent to have run. `result` must outlive the pipeline.
std::unique_ptr<Pass> MakePlacementPass(PlacementSpec spec,
                                        PlanPlacement* result);

}  // namespace planner
}  // namespace ppstream
