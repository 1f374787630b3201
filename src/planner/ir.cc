#include "planner/ir.h"

#include <cinttypes>
#include <cstdio>

#include "core/fixed_point.h"
#include "util/logging.h"

namespace ppstream {
namespace planner {

namespace {

/// Doubles print with %.6g so the textual dump is stable across
/// platforms at the precision the bounds analysis is meaningful to.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

double NonLinearLayerBound(const Layer& layer, double in_bound) {
  switch (layer.kind()) {
    case LayerKind::kRelu:
      return in_bound;
    case LayerKind::kSigmoid:
    case LayerKind::kSoftmax:
      return 1.0;
    default:
      return in_bound;
  }
}

Result<StageGraph> StageGraph::FromModel(const Model& model, int64_t scale,
                                         double input_bound) {
  if (scale < 1) return Status::InvalidArgument("scale must be >= 1");
  if (model.NumLayers() == 0) {
    return Status::InvalidArgument("model has no layers");
  }
  StageGraph graph;
  graph.scale_ = scale;
  graph.input_bound_ = input_bound;
  graph.model_name_ = model.name();

  int64_t current = graph.AddTensor(model.input_shape());
  graph.input_tensor_ = current;
  Shape shape = model.input_shape();
  for (size_t i = 0; i < model.NumLayers(); ++i) {
    const Layer& layer = model.layer(i);
    PPS_ASSIGN_OR_RETURN(Shape next_shape, layer.OutputShape(shape));
    const int64_t next = graph.AddTensor(next_shape);
    graph.AddNode(layer.name(), layer.Clone(), current, next);
    current = next;
    shape = std::move(next_shape);
  }
  graph.output_tensor_ = current;
  return graph;
}

int64_t StageGraph::AddTensor(Shape shape) {
  IrTensor t;
  t.id = static_cast<int64_t>(tensors_.size());
  t.shape = std::move(shape);
  tensors_.push_back(std::move(t));
  return tensors_.back().id;
}

int64_t StageGraph::AddNode(std::string name, std::unique_ptr<Layer> layer,
                            int64_t input_tensor, int64_t output_tensor) {
  IrNode n;
  n.id = static_cast<int64_t>(nodes_.size());
  n.name = std::move(name);
  n.layers.push_back(std::move(layer));
  n.input = input_tensor;
  n.output = output_tensor;
  tensor(input_tensor).uses.push_back(n.id);
  tensor(output_tensor).def = n.id;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

int64_t StageGraph::NumLiveNodes() const {
  int64_t n = 0;
  for (const IrNode& node : nodes_) n += node.live ? 1 : 0;
  return n;
}

int64_t StageGraph::NumLiveTensors() const {
  int64_t n = 0;
  for (const IrTensor& t : tensors_) n += t.live ? 1 : 0;
  return n;
}

Result<std::vector<int64_t>> StageGraph::ChainOrder() const {
  std::vector<int64_t> order;
  int64_t current = input_tensor_;
  while (current != output_tensor_) {
    const IrTensor& t = tensor(current);
    int64_t next_node = -1;
    for (int64_t use : t.uses) {
      if (!node(use).live) continue;
      if (next_node != -1) {
        return Status::Internal(internal::StrCat(
            "tensor %", current, " has multiple live uses; not a chain"));
      }
      next_node = use;
    }
    if (next_node == -1) {
      return Status::Internal(internal::StrCat(
          "tensor %", current, " has no live use but is not the output"));
    }
    order.push_back(next_node);
    if (order.size() > nodes_.size()) {
      return Status::Internal("cycle in stage graph");
    }
    current = node(next_node).output;
  }
  return order;
}

Status StageGraph::Verify() const {
  auto tensor_ok = [&](int64_t id) {
    return id >= 0 && id < static_cast<int64_t>(tensors_.size()) &&
           tensor(id).live;
  };
  if (!tensor_ok(input_tensor_)) {
    return Status::Internal("graph input tensor is missing or dead");
  }
  if (!tensor_ok(output_tensor_)) {
    return Status::Internal("graph output tensor is missing or dead");
  }

  for (const IrNode& n : nodes_) {
    if (!n.live) continue;
    if (!tensor_ok(n.input) || !tensor_ok(n.output)) {
      return Status::Internal(internal::StrCat(
          "node n", n.id, " (", n.name, ") references a dead tensor"));
    }
    const IrTensor& in = tensor(n.input);
    const IrTensor& out = tensor(n.output);
    bool uses_me = false;
    for (int64_t use : in.uses) uses_me |= use == n.id;
    if (!uses_me) {
      return Status::Internal(internal::StrCat(
          "node n", n.id, " missing from the use list of tensor %", n.input));
    }
    if (out.def != n.id) {
      return Status::Internal(internal::StrCat(
          "tensor %", n.output, " def is n", out.def, ", expected n", n.id));
    }
    if (n.layers.empty()) {
      return Status::Internal(
          internal::StrCat("node n", n.id, " has no float layers"));
    }
    // Replaying the node's float layer sequence must transport the input
    // tensor's shape to the output tensor's shape (holds for fused nodes
    // too — intermediate shapes are internal to the walk).
    Shape shape = in.shape;
    for (const auto& layer : n.layers) {
      PPS_ASSIGN_OR_RETURN(shape, layer->OutputShape(shape));
    }
    if (shape != out.shape) {
      return Status::Internal(internal::StrCat(
          "node n", n.id, " (", n.name, ") layer walk yields ",
          shape.ToString(), " but output tensor %", n.output, " is ",
          out.shape.ToString()));
    }
    if (classified_ && n.op_class == OpClass::kMixed) {
      return Status::Internal(internal::StrCat(
          "mixed node n", n.id, " (", n.name,
          ") survived the decompose pass"));
    }
    if (n.affine.has_value()) {
      const IntegerAffineLayer& a = *n.affine;
      if (a.input_shape().NumElements() != in.shape.NumElements() ||
          a.output_shape().NumElements() != out.shape.NumElements()) {
        return Status::Internal(internal::StrCat(
            "node n", n.id, " affine shape disagrees with its tensors"));
      }
      if (in.scale_power > 0 && in.scale_power != a.input_scale_power()) {
        return Status::Internal(internal::StrCat(
            "node n", n.id, " input tensor carries F^", in.scale_power,
            " but the affine expects F^", a.input_scale_power()));
      }
      if (out.scale_power > 0 && out.scale_power != a.output_scale_power()) {
        return Status::Internal(internal::StrCat(
            "node n", n.id, " output tensor carries F^", out.scale_power,
            " but the affine emits F^", a.output_scale_power()));
      }
    }
    if (merged_ && n.round < 0) {
      return Status::Internal(internal::StrCat(
          "node n", n.id, " has no round after merge-adjacent"));
    }
    // A round packs as a whole: a linear op reads and writes one layout.
    if (n.op_class == OpClass::kLinear && in.packed != out.packed) {
      return Status::Internal(internal::StrCat(
          "node n", n.id, " straddles two slot layouts"));
    }
  }

  for (const IrTensor& t : tensors_) {
    if (!t.live) continue;
    if (t.def != -1) {
      if (t.def < 0 || t.def >= static_cast<int64_t>(nodes_.size()) ||
          !node(t.def).live || node(t.def).output != t.id) {
        return Status::Internal(internal::StrCat(
            "tensor %", t.id, " has a dangling def n", t.def));
      }
    } else if (t.id != input_tensor_ && !t.uses.empty()) {
      // An undefined tensor may survive as a *fully* orphaned value
      // awaiting DeadTensorElim, but never with live consumers.
      for (int64_t use : t.uses) {
        if (node(use).live) {
          return Status::Internal(internal::StrCat(
              "live node n", use, " consumes undefined tensor %", t.id));
        }
      }
    }
    for (int64_t use : t.uses) {
      if (use < 0 || use >= static_cast<int64_t>(nodes_.size())) {
        return Status::Internal(
            internal::StrCat("tensor %", t.id, " lists an invalid use"));
      }
      if (node(use).live && node(use).input != t.id) {
        return Status::Internal(internal::StrCat(
            "tensor %", t.id, " lists n", use, " which reads %",
            node(use).input));
      }
    }
  }

  // The live subgraph must be one chain covering every live node, with
  // rounds non-decreasing along it once merge-adjacent has run.
  PPS_ASSIGN_OR_RETURN(std::vector<int64_t> order, ChainOrder());
  if (static_cast<int64_t>(order.size()) != NumLiveNodes()) {
    return Status::Internal(internal::StrCat(
        "chain covers ", order.size(), " nodes but ", NumLiveNodes(),
        " are live"));
  }
  if (merged_) {
    int prev_round = 0;
    for (int64_t id : order) {
      if (node(id).round < prev_round) {
        return Status::Internal(internal::StrCat(
            "round order violation at n", id, " (", node(id).name, ")"));
      }
      prev_round = node(id).round;
    }
  }
  return Status::OK();
}

std::string StageGraph::ToString() const {
  std::string out = internal::StrCat("graph ", model_name_, " scale=", scale_,
                                     " input_bound=",
                                     FormatDouble(input_bound_), "\n");
  auto append_tensor = [&](const IrTensor& t) {
    out += internal::StrCat("  %", t.id, ": ", t.shape.ToString());
    if (t.scale_power > 0) {
      out += internal::StrCat(" power=", t.scale_power);
    }
    if (t.real_bound > 0) {
      out += internal::StrCat(" |x|<=", FormatDouble(t.real_bound));
    }
    if (!t.magnitude_bound.IsZero()) {
      out += internal::StrCat(" bound_bits=", t.magnitude_bound.BitLength());
    }
    if (t.packed.has_value()) {
      out += internal::StrCat(" packed{lanes=", t.packed->lanes,
                              " slot_bits=", t.packed->slot_bits,
                              " guard=", t.packed->guard_bits, "}");
    }
    out += "\n";
  };

  append_tensor(tensor(input_tensor_));
  auto order = ChainOrder();
  if (!order.ok()) {
    out += internal::StrCat("  <broken chain: ", order.status().message(),
                            ">\n");
    return out;
  }
  for (int64_t id : *order) {
    const IrNode& n = node(id);
    out += internal::StrCat("  n", n.id, ": ", n.name, " (%", n.input,
                            ") -> %", n.output);
    if (classified_) {
      out += internal::StrCat(" class=", OpClassName(n.op_class));
    }
    if (n.round >= 0) {
      out += internal::StrCat(" round=", n.round);
      if (n.final_segment) out += " final";
    }
    if (n.affine.has_value()) {
      out += internal::StrCat(" affine{rows=", n.affine->rows().size(),
                              " terms=", n.affine->TotalTerms(),
                              " muls=",
                              AffineKernel::WeightApplications(*n.affine),
                              " wpow=", n.affine->weight_scale_power(), "}");
    }
    if (n.server >= 0) {
      out += internal::StrCat(" server=", n.server, " threads=", n.threads);
    }
    out += "\n";
    append_tensor(tensor(n.output));
  }
  // Orphans last so the main listing stays in dataflow order.
  for (const IrTensor& t : tensors_) {
    if (!t.live || t.def != -1 || t.id == input_tensor_) continue;
    bool has_live_use = false;
    for (int64_t use : t.uses) has_live_use |= node(use).live;
    if (has_live_use) continue;
    out += internal::StrCat("  %", t.id, ": ", t.shape.ToString(),
                            " (orphan)\n");
  }
  out += internal::StrCat("  return %", output_tensor_, "\n");
  return out;
}

Status PropagateBounds(StageGraph* graph) {
  if (!graph->classified()) {
    return Status::FailedPrecondition(
        "bound propagation needs op classes; run the classify pass first");
  }
  const int64_t scale = graph->scale();
  PPS_ASSIGN_OR_RETURN(std::vector<int64_t> order, graph->ChainOrder());

  IrTensor& input = graph->tensor(graph->input());
  input.scale_power = 1;
  input.real_bound = graph->input_bound();
  input.magnitude_bound = BigInt(QuantizeValue(input.real_bound, scale) + 1);

  for (int64_t id : order) {
    IrNode& n = graph->node(id);
    const IrTensor& in = graph->tensor(n.input);
    IrTensor& out = graph->tensor(n.output);
    if (n.op_class == OpClass::kLinear) {
      if (!n.affine.has_value()) {
        return Status::FailedPrecondition(internal::StrCat(
            "linear node n", n.id, " (", n.name,
            ") is not lowered; run lower-to-integer first"));
      }
      out.scale_power = n.affine->output_scale_power();
      out.magnitude_bound =
          n.affine->OutputMagnitudeBound(in.magnitude_bound);
      out.real_bound = out.magnitude_bound.ToDouble() /
                       ScalePower(scale, out.scale_power).ToDouble();
    } else {
      // Data-provider side: decrypt, dequantize, apply the activations in
      // double precision, re-quantize at F^1.
      double bound = in.real_bound;
      for (const auto& layer : n.layers) {
        bound = NonLinearLayerBound(*layer, bound);
      }
      out.scale_power = 1;
      out.real_bound = bound;
      out.magnitude_bound = BigInt(QuantizeValue(bound, scale) + 1);
    }
  }
  return Status::OK();
}

}  // namespace planner
}  // namespace ppstream
