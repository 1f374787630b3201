#include "core/plan.h"

#include "obs/metrics.h"
#include "planner/pass.h"
#include "planner/passes.h"
#include "util/logging.h"

namespace ppstream {

const BigInt& InferencePlan::MaxMagnitude() const {
  static const BigInt kZero;
  const BigInt* max = &kZero;
  for (const LinearStage& stage : linear_stages) {
    if (stage.magnitude_bound.Compare(*max) > 0) {
      max = &stage.magnitude_bound;
    }
  }
  return *max;
}

int64_t InferencePlan::PackedBatchLanes() const {
  int64_t lanes = 0;
  for (const LinearStage& stage : linear_stages) {
    if (!stage.packed_layout.has_value()) continue;
    if (lanes == 0 || stage.packed_layout->lanes < lanes) {
      lanes = stage.packed_layout->lanes;
    }
  }
  return lanes;
}

int64_t InferencePlan::EncryptionsPerRequest() const {
  int64_t total = input_shape.NumElements();
  // Every non-final stage output comes back re-encrypted.
  for (size_t r = 0; r + 1 < linear_stages.size(); ++r) {
    total += linear_stages[r].output_shape.NumElements();
  }
  return total;
}

obs::RequestCostBudget ExpectedRequestCost(const InferencePlan& plan,
                                           int64_t lanes) {
  obs::RequestCostBudget budget;
  if (lanes < 1) return budget;
  int64_t encrypts = 0;
  int64_t muls = 0;
  for (size_t r = 0; r < plan.linear_stages.size(); ++r) {
    const LinearStage& stage = plan.linear_stages[r];
    // The data provider encrypts this round's input.
    const int64_t elements = r == 0
                                 ? plan.input_shape.NumElements()
                                 : plan.linear_stages[r - 1]
                                       .output_shape.NumElements();
    const int64_t per_word = stage.PacksWith(lanes) ? 1 : lanes;
    encrypts += elements * per_word;
    for (const AffineKernel& kernel : stage.kernels) {
      muls += kernel.weight_applications() * per_word;
    }
  }
  budget.encrypts = static_cast<uint64_t>(encrypts);
  budget.scalar_muls = static_cast<uint64_t>(muls);
  return budget;
}

Status InferencePlan::CheckFitsKey(const BigInt& n) const {
  const BigInt half = n >> 1;
  for (const LinearStage& stage : linear_stages) {
    if (stage.magnitude_bound.Compare(half) >= 0) {
      return Status::FailedPrecondition(internal::StrCat(
          "stage '", stage.name, "' magnitude bound needs ",
          stage.magnitude_bound.BitLength(), " bits but n/2 has only ",
          half.BitLength(),
          "; increase the Paillier key size or reduce the scaling factor"));
    }
  }
  return Status::OK();
}

namespace {

void WriteShape(BufferWriter* out, const Shape& shape) {
  out->WriteU64(shape.rank());
  for (int64_t d : shape.dims()) out->WriteI64(d);
}

Result<Shape> ReadShape(BufferReader* in) {
  PPS_ASSIGN_OR_RETURN(uint64_t rank, in->ReadU64());
  if (rank > 8) return Status::OutOfRange("implausible shape rank");
  std::vector<int64_t> dims(rank);
  for (auto& d : dims) {
    PPS_ASSIGN_OR_RETURN(d, in->ReadI64());
    if (d <= 0) return Status::OutOfRange("non-positive shape dim");
  }
  return Shape(std::move(dims));
}

}  // namespace

void InferencePlan::SerializeDataProviderView(BufferWriter* out) const {
  out->WriteI64(scale);
  WriteShape(out, input_shape);
  WriteShape(out, output_shape);
  out->WriteU64(NumRounds());
  for (size_t r = 0; r < NumRounds(); ++r) {
    const LinearStage& stage = linear_stages[r];
    out->WriteI64(stage.output_scale_power);
    WriteShape(out, stage.input_shape);
    WriteShape(out, stage.output_shape);
    out->WriteU8(stage.packed_layout.has_value() ? 1 : 0);
    if (stage.packed_layout.has_value()) {
      stage.packed_layout->Serialize(out);
    }
    const NonLinearSegment& segment = nonlinear_segments[r];
    out->WriteU8(segment.is_final ? 1 : 0);
    out->WriteString(segment.name);
    out->WriteU64(segment.layers.size());
    for (const auto& layer : segment.layers) layer->Serialize(out);
  }
}

Result<InferencePlan> InferencePlan::DeserializeDataProviderView(
    BufferReader* in) {
  InferencePlan plan;
  plan.is_data_provider_view = true;
  PPS_ASSIGN_OR_RETURN(plan.scale, in->ReadI64());
  if (plan.scale < 1) return Status::OutOfRange("bad plan scale");
  PPS_ASSIGN_OR_RETURN(plan.input_shape, ReadShape(in));
  PPS_ASSIGN_OR_RETURN(plan.output_shape, ReadShape(in));
  PPS_ASSIGN_OR_RETURN(uint64_t rounds, in->ReadU64());
  if (rounds == 0 || rounds > 4096) {
    return Status::OutOfRange("implausible round count");
  }
  for (uint64_t r = 0; r < rounds; ++r) {
    LinearStage stage;
    PPS_ASSIGN_OR_RETURN(int64_t power, in->ReadI64());
    if (power < 1 || power > 64) {
      return Status::OutOfRange("bad scale power");
    }
    stage.output_scale_power = static_cast<int>(power);
    PPS_ASSIGN_OR_RETURN(stage.input_shape, ReadShape(in));
    PPS_ASSIGN_OR_RETURN(stage.output_shape, ReadShape(in));
    stage.name = "view";
    PPS_ASSIGN_OR_RETURN(uint8_t has_packed, in->ReadU8());
    if (has_packed > 1) return Status::OutOfRange("bad packed-layout flag");
    if (has_packed != 0) {
      PPS_ASSIGN_OR_RETURN(PackedLayout layout,
                           PackedLayout::Deserialize(in));
      stage.packed_layout = layout;
    }
    plan.linear_stages.push_back(std::move(stage));

    NonLinearSegment segment;
    PPS_ASSIGN_OR_RETURN(uint8_t is_final, in->ReadU8());
    segment.is_final = is_final != 0;
    PPS_ASSIGN_OR_RETURN(segment.name, in->ReadString());
    PPS_ASSIGN_OR_RETURN(uint64_t n_layers, in->ReadU64());
    if (n_layers > 256) return Status::OutOfRange("implausible layer count");
    for (uint64_t l = 0; l < n_layers; ++l) {
      PPS_ASSIGN_OR_RETURN(std::unique_ptr<Layer> layer,
                           DeserializeLayer(in));
      segment.layers.push_back(std::move(layer));
    }
    segment.shape = plan.linear_stages.back().output_shape;
    plan.nonlinear_segments.push_back(std::move(segment));
  }
  return plan;
}

namespace {

/// Rebuilds a float model from the chain's concatenated layer sequences.
/// Fused nodes still carry every original layer, so this reconstructs the
/// prepared model no matter which optimizing passes ran.
Result<Model> EmitModel(const planner::StageGraph& graph) {
  PPS_ASSIGN_OR_RETURN(std::vector<int64_t> order, graph.ChainOrder());
  Model out(graph.tensor(graph.input()).shape, graph.model_name());
  for (int64_t id : order) {
    for (const auto& layer : graph.node(id).layers) {
      PPS_RETURN_IF_ERROR(out.Add(layer->Clone()));
    }
  }
  return out;
}

/// Lowers the merged, verified graph to the deployable plan structure,
/// building every linear op's kernel.
Result<InferencePlan> EmitPlan(const planner::StageGraph& graph) {
  PPS_ASSIGN_OR_RETURN(std::vector<int64_t> order, graph.ChainOrder());
  static obs::Counter* kernels_lowered =
      obs::MetricsRegistry::Global().GetCounter(
          "planner.pack.kernels_lowered");

  InferencePlan plan;
  plan.scale = graph.scale();
  plan.input_shape = graph.tensor(graph.input()).shape;
  plan.output_shape = graph.tensor(graph.output()).shape;

  for (size_t i = 0; i < order.size();) {
    // ---- One linear stage: the round's run of (possibly fused) ops.
    LinearStage stage;
    stage.input_shape = graph.tensor(graph.node(order[i]).input).shape;
    while (i < order.size() &&
           graph.node(order[i]).op_class == OpClass::kLinear) {
      const planner::IrNode& n = graph.node(order[i]);
      if (!n.affine.has_value()) {
        return Status::Internal(internal::StrCat(
            "linear node ", n.name, " was never lowered"));
      }
      const planner::IrTensor& out = graph.tensor(n.output);
      stage.output_shape = out.shape;
      stage.output_scale_power = out.scale_power;
      // Soundness: the stage bound covers EVERY op output inside the
      // stage, not just the last — an intermediate can exceed the final.
      if (out.magnitude_bound.Compare(stage.magnitude_bound) > 0) {
        stage.magnitude_bound = out.magnitude_bound;
      }
      if (!stage.name.empty()) stage.name += "+";
      stage.name += n.name;
      // The packing pass annotates whole rounds: the round's input and
      // every op output carry its layout, or none of them do.
      const planner::IrTensor& in = graph.tensor(n.input);
      if (in.packed.has_value()) {
        stage.packed_layout = in.packed;
        PPS_ASSIGN_OR_RETURN(
            AffineKernel kernel,
            AffineKernel::Build(*n.affine, *in.packed, in.magnitude_bound));
        stage.kernels.push_back(std::move(kernel));
        kernels_lowered->Increment();
      } else {
        stage.kernels.push_back(AffineKernel::Build(*n.affine));
      }
      stage.ops.push_back(*n.affine);
      ++i;
    }
    if (stage.ops.empty()) {
      return Status::Internal("empty linear stage during emission");
    }
    plan.linear_stages.push_back(std::move(stage));

    // ---- The non-linear segment that follows it.
    if (i >= order.size()) {
      return Status::FailedPrecondition(
          "model ends with a linear stage; append a non-linear layer");
    }
    NonLinearSegment segment;
    segment.shape = graph.tensor(graph.node(order[i]).input).shape;
    while (i < order.size() &&
           graph.node(order[i]).op_class == OpClass::kNonLinear) {
      const planner::IrNode& n = graph.node(order[i]);
      segment.is_final = n.final_segment;
      if (!segment.name.empty()) segment.name += "+";
      segment.name += n.name;
      for (const auto& layer : n.layers) {
        segment.layers.push_back(layer->Clone());
      }
      ++i;
    }
    plan.nonlinear_segments.push_back(std::move(segment));
  }

  PPS_ASSIGN_OR_RETURN(plan.prepared_model, EmitModel(graph));
  return plan;
}

}  // namespace

Result<Model> PrepareModel(const Model& model) {
  // Scale/bound are irrelevant to the two structural passes; use inert
  // values. (The model must still have at least one layer to import.)
  PPS_ASSIGN_OR_RETURN(
      planner::StageGraph graph,
      planner::StageGraph::FromModel(model, /*scale=*/1, /*input_bound=*/1));
  planner::PassManager pipeline;
  pipeline.Add(planner::MakeRewriteMaxPoolPass())
      .Add(planner::MakeDecomposeMixedPass());
  PPS_RETURN_IF_ERROR(pipeline.Run(&graph));
  return EmitModel(graph);
}

Result<InferencePlan> CompilePlan(const Model& model, int64_t scale,
                                  const CompileOptions& options) {
  if (scale < 1) return Status::InvalidArgument("scale must be >= 1");
  PPS_ASSIGN_OR_RETURN(
      planner::StageGraph graph,
      planner::StageGraph::FromModel(model, scale, options.input_bound));

  planner::PlanCompileStats stats;
  planner::PlanPlacement placement;
  planner::PassManager pipeline;
  pipeline.Add(planner::MakeRewriteMaxPoolPass())
      .Add(planner::MakeDecomposeMixedPass())
      .Add(planner::MakeClassifyPass())
      .Add(planner::MakeLowerToIntegerPass())
      .Add(planner::MakeFuseAffineChainsPass(options.fusion, &stats))
      .Add(planner::MakeDeadTensorElimPass(&stats))
      .Add(planner::MakeMergeAdjacentPass())
      .Add(planner::MakeVerifyBoundsPass());
  if (options.packing.has_value()) {
    pipeline.Add(
        planner::MakeAnalyzePackingLegalityPass(*options.packing, &stats));
  }
  if (options.placement.has_value()) {
    pipeline.Add(planner::MakePlacementPass(*options.placement, &placement));
  }
  PPS_RETURN_IF_ERROR(pipeline.Run(&graph, options.pass_observer));

  PPS_ASSIGN_OR_RETURN(InferencePlan plan, EmitPlan(graph));
  for (const LinearStage& stage : plan.linear_stages) {
    if (!stage.packed_layout.has_value()) continue;
    for (const AffineKernel& kernel : stage.kernels) {
      stats.packed_group_muls += kernel.weight_applications();
    }
  }
  plan.compile_stats = stats;
  if (options.placement.has_value()) {
    plan.placement = std::move(placement);
  }
  return plan;
}

}  // namespace ppstream
