#include "planner/passes.h"

#include <algorithm>
#include <map>
#include <utility>

#include "nn/layers.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace ppstream {
namespace planner {

namespace {

/// Replaces a primitive node with the layer sequence its float layer
/// lowers to (Layer::DecomposeForDeployment). The node's input and output
/// tensors are reused at the boundaries; fresh tensors are minted in
/// between.
Status ReplaceWithDecomposition(StageGraph* graph, int64_t node_id) {
  // Decompose first; copy out the endpoints before any Add* call, which
  // can invalidate node/tensor references.
  const int64_t input = graph->node(node_id).input;
  const int64_t output = graph->node(node_id).output;
  PPS_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<Layer>> layers,
      graph->node(node_id).layers[0]->DecomposeForDeployment(
          graph->tensor(input).shape));
  if (layers.empty()) {
    return Status::Internal(internal::StrCat(
        "layer ", graph->node(node_id).name, " decomposed to nothing"));
  }

  graph->node(node_id).live = false;
  graph->node(node_id).layers.clear();
  std::vector<int64_t>& uses = graph->tensor(input).uses;
  uses.erase(std::remove(uses.begin(), uses.end(), node_id), uses.end());
  graph->tensor(output).def = -1;

  int64_t current = input;
  Shape shape = graph->tensor(input).shape;
  for (size_t k = 0; k < layers.size(); ++k) {
    PPS_ASSIGN_OR_RETURN(Shape next_shape, layers[k]->OutputShape(shape));
    const bool last = k + 1 == layers.size();
    const int64_t out_tensor = last ? output : graph->AddTensor(next_shape);
    std::string name = layers[k]->name();
    graph->AddNode(std::move(name), std::move(layers[k]), current,
                   out_tensor);
    current = out_tensor;
    shape = std::move(next_shape);
  }
  return Status::OK();
}

class RewriteMaxPoolPass : public Pass {
 public:
  std::string name() const override { return "rewrite-maxpool"; }
  Status Run(StageGraph* graph) override {
    const size_t original = graph->num_nodes();
    for (size_t id = 0; id < original; ++id) {
      const IrNode& n = graph->node(static_cast<int64_t>(id));
      if (!n.live || n.layers.size() != 1) continue;
      if (n.layers[0]->kind() != LayerKind::kMaxPool2D) continue;
      PPS_RETURN_IF_ERROR(
          ReplaceWithDecomposition(graph, static_cast<int64_t>(id)));
    }
    return Status::OK();
  }
};

class DecomposeMixedPass : public Pass {
 public:
  std::string name() const override { return "decompose-mixed"; }
  Status Run(StageGraph* graph) override {
    const size_t original = graph->num_nodes();
    for (size_t id = 0; id < original; ++id) {
      const IrNode& n = graph->node(static_cast<int64_t>(id));
      if (!n.live || n.layers.size() != 1) continue;
      if (n.layers[0]->op_class() != OpClass::kMixed) continue;
      PPS_RETURN_IF_ERROR(
          ReplaceWithDecomposition(graph, static_cast<int64_t>(id)));
    }
    return Status::OK();
  }
};

class ClassifyPass : public Pass {
 public:
  std::string name() const override { return "classify"; }
  Status Run(StageGraph* graph) override {
    PPS_ASSIGN_OR_RETURN(std::vector<int64_t> order, graph->ChainOrder());
    for (int64_t id : order) {
      IrNode& n = graph->node(id);
      const OpClass c = n.layers[0]->op_class();
      if (c == OpClass::kMixed) {
        return Status::FailedPrecondition(internal::StrCat(
            "mixed layer ", n.name,
            " must be decomposed before classification"));
      }
      n.op_class = c;
    }
    if (graph->node(order.front()).op_class != OpClass::kLinear) {
      return Status::FailedPrecondition(
          "model must start with a linear layer (paper §III-A assumption)");
    }
    if (graph->node(order.back()).op_class != OpClass::kNonLinear) {
      return Status::FailedPrecondition(
          "model must end with a non-linear layer (paper §III-A assumption)");
    }
    graph->set_classified(true);
    return Status::OK();
  }
};

class LowerToIntegerPass : public Pass {
 public:
  std::string name() const override { return "lower-to-integer"; }
  Status Run(StageGraph* graph) override {
    if (!graph->classified()) {
      return Status::FailedPrecondition(
          "classify must run before lower-to-integer");
    }
    PPS_ASSIGN_OR_RETURN(std::vector<int64_t> order, graph->ChainOrder());
    int scale_power = 1;  // activations enter a linear run at F^1
    for (int64_t id : order) {
      IrNode& n = graph->node(id);
      if (n.op_class == OpClass::kNonLinear) {
        scale_power = 1;
        continue;
      }
      if (n.layers.size() != 1) {
        return Status::Internal(internal::StrCat(
            "node n", n.id, " is not primitive; lowering runs pre-fusion"));
      }
      PPS_ASSIGN_OR_RETURN(
          IntegerAffineLayer op,
          IntegerAffineLayer::FromLayer(*n.layers[0],
                                        graph->tensor(n.input).shape,
                                        graph->scale(), scale_power));
      scale_power = op.output_scale_power();
      n.affine.emplace(std::move(op));
    }
    return PropagateBounds(graph);
  }
};

bool FusableLinear(const IrNode& n) {
  return n.live && n.op_class == OpClass::kLinear && n.affine.has_value();
}

/// Counts lowered linear ops and their homomorphic cost over the chain.
Status CountLinearWork(const StageGraph& graph, int64_t* ops,
                       int64_t* scalar_muls) {
  *ops = 0;
  *scalar_muls = 0;
  PPS_ASSIGN_OR_RETURN(std::vector<int64_t> order, graph.ChainOrder());
  for (int64_t id : order) {
    const IrNode& n = graph.node(id);
    if (n.op_class != OpClass::kLinear) continue;
    ++*ops;
    if (n.affine.has_value()) {
      *scalar_muls += AffineKernel::WeightApplications(*n.affine);
    }
  }
  return Status::OK();
}

class FuseAffineChainsPass : public Pass {
 public:
  FuseAffineChainsPass(FusionPolicy policy, PlanCompileStats* stats)
      : policy_(policy), stats_(stats) {}

  std::string name() const override { return "fuse-affine-chains"; }

  Status Run(StageGraph* graph) override {
    int64_t ops_before = 0, muls_before = 0;
    PPS_RETURN_IF_ERROR(CountLinearWork(*graph, &ops_before, &muls_before));

    int64_t fused = 0;
    if (policy_ != FusionPolicy::kNever) {
      bool changed = true;
      while (changed) {
        changed = false;
        PPS_ASSIGN_OR_RETURN(std::vector<int64_t> order,
                             graph->ChainOrder());
        for (size_t i = 0; i + 1 < order.size(); ++i) {
          const int64_t a = order[i], b = order[i + 1];
          if (!FusableLinear(graph->node(a)) ||
              !FusableLinear(graph->node(b))) {
            continue;
          }
          Result<IntegerAffineLayer> composed = IntegerAffineLayer::Compose(
              *graph->node(a).affine, *graph->node(b).affine);
          if (!composed.ok()) continue;  // int64 overflow etc: keep split
          if (policy_ == FusionPolicy::kScalarMulCount &&
              AffineKernel::WeightApplications(*composed) >
                  AffineKernel::WeightApplications(*graph->node(a).affine) +
                      AffineKernel::WeightApplications(
                          *graph->node(b).affine)) {
            continue;  // fusing would densify; not worth it
          }
          Fuse(graph, a, b, std::move(*composed));
          ++fused;
          changed = true;
          break;  // the chain changed; rewalk
        }
      }
      if (fused > 0) PPS_RETURN_IF_ERROR(PropagateBounds(graph));
    }

    int64_t ops_after = 0, muls_after = 0;
    PPS_RETURN_IF_ERROR(CountLinearWork(*graph, &ops_after, &muls_after));
    if (stats_ != nullptr) {
      stats_->linear_ops_before_fusion = ops_before;
      stats_->linear_ops_after_fusion = ops_after;
      stats_->scalar_muls_before_fusion = muls_before;
      stats_->scalar_muls_after_fusion = muls_after;
      stats_->ops_fused = fused;
    }
    if (fused > 0) {
      obs::MetricsRegistry::Global()
          .GetCounter("planner.fuse.ops_fused")
          ->Increment(static_cast<uint64_t>(fused));
    }
    return Status::OK();
  }

 private:
  static void Fuse(StageGraph* graph, int64_t a, int64_t b,
                   IntegerAffineLayer composed) {
    IrNode& na = graph->node(a);
    IrNode& nb = graph->node(b);
    const int64_t mid = na.output;
    na.name = composed.name();
    na.affine.emplace(std::move(composed));
    for (auto& layer : nb.layers) na.layers.push_back(std::move(layer));
    na.output = nb.output;
    graph->tensor(nb.output).def = a;
    nb.live = false;
    nb.layers.clear();
    // The intermediate tensor is now an orphan; DeadTensorElim reaps it.
    IrTensor& m = graph->tensor(mid);
    m.def = -1;
    m.uses.clear();
  }

  FusionPolicy policy_;
  PlanCompileStats* stats_;
};

class DeadTensorElimPass : public Pass {
 public:
  explicit DeadTensorElimPass(PlanCompileStats* stats) : stats_(stats) {}
  std::string name() const override { return "dead-tensor-elim"; }
  Status Run(StageGraph* graph) override {
    int64_t removed = 0;
    for (size_t id = 0; id < graph->num_tensors(); ++id) {
      IrTensor& t = graph->tensor(static_cast<int64_t>(id));
      if (!t.live) continue;
      t.uses.erase(std::remove_if(t.uses.begin(), t.uses.end(),
                                  [&](int64_t use) {
                                    return !graph->node(use).live;
                                  }),
                   t.uses.end());
      if (t.id == graph->input() || t.id == graph->output()) continue;
      const bool defined = t.def != -1 && graph->node(t.def).live;
      if (!defined && t.uses.empty()) {
        t.live = false;
        ++removed;
      }
    }
    if (stats_ != nullptr) stats_->dead_tensors_removed += removed;
    if (removed > 0) {
      obs::MetricsRegistry::Global()
          .GetCounter("planner.dce.tensors_removed")
          ->Increment(static_cast<uint64_t>(removed));
    }
    return Status::OK();
  }

 private:
  PlanCompileStats* stats_;
};

class MergeAdjacentPass : public Pass {
 public:
  std::string name() const override { return "merge-adjacent"; }
  Status Run(StageGraph* graph) override {
    if (!graph->classified()) {
      return Status::FailedPrecondition(
          "classify must run before merge-adjacent");
    }
    PPS_ASSIGN_OR_RETURN(std::vector<int64_t> order, graph->ChainOrder());
    int round = -1;
    OpClass prev = OpClass::kNonLinear;  // first linear node opens round 0
    for (int64_t id : order) {
      IrNode& n = graph->node(id);
      if (n.op_class == OpClass::kLinear) {
        if (prev != OpClass::kLinear) ++round;
      } else {
        // Non-linear segments run element-wise on the obfuscated tensor,
        // so they may not change its shape.
        if (graph->tensor(n.input).shape != graph->tensor(n.output).shape) {
          return Status::FailedPrecondition(internal::StrCat(
              "non-linear layer ", n.name,
              " changes the tensor shape; only element-wise non-linear "
              "operations are deployable (rewrite pooling first)"));
        }
      }
      n.round = round;
      prev = n.op_class;
    }
    // Mark the trailing non-linear run; it is the only segment that is
    // never obfuscated, hence the only legal home for SoftMax (§III-C).
    for (auto it = order.rbegin();
         it != order.rend() &&
         graph->node(*it).op_class == OpClass::kNonLinear;
         ++it) {
      graph->node(*it).final_segment = true;
    }
    for (int64_t id : order) {
      const IrNode& n = graph->node(id);
      if (n.op_class == OpClass::kNonLinear && !n.final_segment &&
          n.layers[0]->kind() == LayerKind::kSoftmax) {
        return Status::FailedPrecondition(
            "SoftMax in a non-final segment would be obfuscated and is "
            "position-dependent");
      }
    }
    graph->set_merged(true);
    return Status::OK();
  }
};

class VerifyBoundsPass : public Pass {
 public:
  std::string name() const override { return "verify-bounds"; }
  Status Run(StageGraph* graph) override { return PropagateBounds(graph); }
};

class AnalyzePackingLegalityPass : public Pass {
 public:
  AnalyzePackingLegalityPass(PackingSpec spec, PlanCompileStats* stats)
      : spec_(spec), stats_(stats) {}

  std::string name() const override { return "analyze-packing-legality"; }

  Status Run(StageGraph* graph) override {
    if (!graph->merged()) {
      return Status::FailedPrecondition(
          "packing legality requires merge-adjacent to have grouped rounds");
    }
    PPS_ASSIGN_OR_RETURN(std::vector<int64_t> order, graph->ChainOrder());
    // Linear nodes of each round, in chain order. The layout must cover
    // the round's input AND every linear output (the DataProvider encrypts
    // once per round, and intermediate tensors of an unfused round stay
    // ciphertext), so the slot width is sized to the round's max bound.
    std::map<int, std::vector<int64_t>> rounds;
    for (int64_t id : order) {
      const IrNode& n = graph->node(id);
      if (n.op_class == OpClass::kLinear && n.affine.has_value()) {
        rounds[n.round].push_back(id);
      }
    }
    int64_t packed = 0, fallback = 0;
    for (const auto& [round, ids] : rounds) {
      BigInt max_bound = graph->tensor(graph->node(ids[0]).input)
                             .magnitude_bound;
      for (int64_t id : ids) {
        const BigInt& out_bound =
            graph->tensor(graph->node(id).output).magnitude_bound;
        if (out_bound > max_bound) max_bound = out_bound;
      }
      if (max_bound.IsZero()) {
        return Status::FailedPrecondition(
            "packing legality requires propagated bounds; run verify-bounds");
      }
      Result<PackedLayout> layout = ChoosePackedLayout(
          spec_.key_bits, max_bound, spec_.guard_bits, spec_.max_lanes);
      if (!layout.ok()) {
        ++fallback;  // this round runs the scalar path
        continue;
      }
      graph->tensor(graph->node(ids[0]).input).packed = *layout;
      for (int64_t id : ids) {
        graph->tensor(graph->node(id).output).packed = *layout;
      }
      ++packed;
    }
    if (stats_ != nullptr) {
      stats_->rounds_packed = packed;
      stats_->rounds_packing_fallback = fallback;
    }
    obs::MetricsRegistry::Global()
        .GetCounter("planner.pack.rounds_packed")
        ->Increment(static_cast<uint64_t>(packed));
    obs::MetricsRegistry::Global()
        .GetCounter("planner.pack.rounds_fallback")
        ->Increment(static_cast<uint64_t>(fallback));
    return Status::OK();
  }

 private:
  PackingSpec spec_;
  PlanCompileStats* stats_;
};

class PlacementPass : public Pass {
 public:
  PlacementPass(PlacementSpec spec, PlanPlacement* result)
      : spec_(std::move(spec)), result_(result) {}

  std::string name() const override { return "placement"; }

  Status Run(StageGraph* graph) override {
    if (!graph->merged()) {
      return Status::FailedPrecondition(
          "placement requires merge-adjacent to have grouped rounds");
    }
    PPS_ASSIGN_OR_RETURN(std::vector<int64_t> order, graph->ChainOrder());
    int rounds = 0;
    for (int64_t id : order) {
      rounds = std::max(rounds, graph->node(id).round + 1);
    }
    if (rounds == 0) return Status::Internal("no rounds to place");

    // Analytic cost model per round: homomorphic scalar muls for the
    // linear stage, activated elements for the non-linear segment (both
    // in arbitrary-but-consistent units; Eq. 4 balances ratios).
    std::vector<double> lin_cost(rounds, 0), nonlin_cost(rounds, 0);
    for (int64_t id : order) {
      const IrNode& n = graph->node(id);
      if (n.op_class == OpClass::kLinear) {
        lin_cost[n.round] +=
            n.affine.has_value()
                ? static_cast<double>(
                      AffineKernel::WeightApplications(*n.affine) + 1)
                : 1.0;
      } else {
        nonlin_cost[n.round] += static_cast<double>(
            graph->tensor(n.output).shape.NumElements());
      }
    }

    AllocationProblem problem;
    const bool measured =
        spec_.stage_seconds.size() == static_cast<size_t>(2 * rounds);
    for (int r = 0; r < rounds; ++r) {
      problem.layer_times.push_back(
          measured ? spec_.stage_seconds[2 * static_cast<size_t>(r)]
                   : lin_cost[r]);
      problem.layer_class.push_back(+1);
      problem.layer_times.push_back(
          measured ? spec_.stage_seconds[2 * static_cast<size_t>(r) + 1]
                   : std::max(nonlin_cost[r], 1.0));
      problem.layer_class.push_back(-1);
    }
    for (int s = 0; s < spec_.model_servers; ++s) {
      problem.server_cores.push_back(spec_.cores_per_server);
      problem.server_class.push_back(+1);
    }
    for (int s = 0; s < spec_.data_servers; ++s) {
      problem.server_cores.push_back(spec_.cores_per_server);
      problem.server_class.push_back(-1);
    }
    problem.hyper_threading = spec_.hyper_threading;

    PPS_ASSIGN_OR_RETURN(Allocation allocation,
                         IlpAllocator::Solve(problem, spec_.node_limit));
    for (int64_t id : order) {
      IrNode& n = graph->node(id);
      const size_t layer_index = static_cast<size_t>(
          2 * n.round + (n.op_class == OpClass::kLinear ? 0 : 1));
      n.server = allocation.server_of_layer[layer_index];
      n.threads = allocation.threads_of_layer[layer_index];
    }
    if (result_ != nullptr) {
      result_->server_of_stage = allocation.server_of_layer;
      result_->threads_of_stage = allocation.threads_of_layer;
      result_->objective = allocation.objective;
      result_->exact = allocation.exact;
    }
    return Status::OK();
  }

 private:
  PlacementSpec spec_;
  PlanPlacement* result_;
};

}  // namespace

std::unique_ptr<Pass> MakeRewriteMaxPoolPass() {
  return std::make_unique<RewriteMaxPoolPass>();
}
std::unique_ptr<Pass> MakeDecomposeMixedPass() {
  return std::make_unique<DecomposeMixedPass>();
}
std::unique_ptr<Pass> MakeClassifyPass() {
  return std::make_unique<ClassifyPass>();
}
std::unique_ptr<Pass> MakeLowerToIntegerPass() {
  return std::make_unique<LowerToIntegerPass>();
}
std::unique_ptr<Pass> MakeFuseAffineChainsPass(FusionPolicy policy,
                                               PlanCompileStats* stats) {
  return std::make_unique<FuseAffineChainsPass>(policy, stats);
}
std::unique_ptr<Pass> MakeDeadTensorElimPass(PlanCompileStats* stats) {
  return std::make_unique<DeadTensorElimPass>(stats);
}
std::unique_ptr<Pass> MakeMergeAdjacentPass() {
  return std::make_unique<MergeAdjacentPass>();
}
std::unique_ptr<Pass> MakeVerifyBoundsPass() {
  return std::make_unique<VerifyBoundsPass>();
}
std::unique_ptr<Pass> MakeAnalyzePackingLegalityPass(PackingSpec spec,
                                                     PlanCompileStats* stats) {
  return std::make_unique<AnalyzePackingLegalityPass>(spec, stats);
}
std::unique_ptr<Pass> MakePlacementPass(PlacementSpec spec,
                                        PlanPlacement* result) {
  return std::make_unique<PlacementPass>(std::move(spec), result);
}

}  // namespace planner
}  // namespace ppstream
