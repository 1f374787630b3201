// Stage-graph plan IR (paper §IV-B, "operation encapsulation").
//
// The planner's intermediate representation between an nn::Model and a
// deployable InferencePlan. Nodes are primitive operations (one float
// layer each, until fusion concatenates them); edges are tensors in
// SSA form — every tensor has exactly one definition and, in a
// sequential model, at most one use. The compilation pipeline
// (core/plan.cc) is a sequence of passes over this graph (planner/pass.h,
// planner/passes.h); each pass mutates the graph and the verifier checks
// the structural invariants after every pass.
//
// The graph deliberately keeps *both* views of an operation:
//   * `layers`   — the float layers the node stands for, used to emit the
//                  prepared reference model (and kept through fusion, so a
//                  fused node still replays the original float sequence);
//   * `affine`   — the lowered IntegerAffineLayer (linear nodes only,
//                  present after the lower-to-integer pass), the thing the
//                  model provider actually evaluates homomorphically.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bignum/bigint.h"
#include "core/affine.h"
#include "nn/model.h"
#include "util/status.h"

namespace ppstream {
namespace planner {

/// Edge of the stage graph: one tensor value. Analysis results (scale
/// power, magnitude bounds) live on tensors because they are properties
/// of the *value*, not of the op that produced it.
struct IrTensor {
  int64_t id = -1;
  Shape shape;
  /// Power of F this tensor carries when it crosses the crypto boundary:
  /// 1 entering a linear run, +1 per weighted linear layer. 0 = not yet
  /// assigned (before the lower-to-integer pass).
  int scale_power = 0;
  /// |value| bound in real units (coarse interval analysis).
  double real_bound = 0.0;
  /// Worst-case |integer| at scale F^scale_power (set by bound
  /// propagation; drives CheckFitsKey).
  BigInt magnitude_bound;
  /// Producing node id, or -1 for the graph input.
  int64_t def = -1;
  /// Consuming node ids. Orphan tensors (no uses, not the graph output)
  /// are tolerated by the verifier and reaped by DeadTensorElim.
  std::vector<int64_t> uses;
  /// Slot layout when this tensor crosses the crypto boundary packed
  /// (set by the analyze-packing-legality pass; absent = scalar).
  std::optional<PackedLayout> packed;
  bool live = true;
};

/// Node of the stage graph: one primitive operation.
struct IrNode {
  int64_t id = -1;
  std::string name;
  /// Operation class; meaningful once the classify pass has run (tracked
  /// by StageGraph::classified()).
  OpClass op_class = OpClass::kLinear;
  /// The float layer(s) this node represents. Exactly one until
  /// FuseAffineChains merges nodes, after which the fused node carries
  /// the concatenated original sequence (replaying them is bit-identical
  /// in float, and emitting them reconstructs the prepared model).
  std::vector<std::unique_ptr<Layer>> layers;
  /// Lowered integer form (linear nodes, after lower-to-integer).
  std::optional<IntegerAffineLayer> affine;
  int64_t input = -1;   // tensor id
  int64_t output = -1;  // tensor id
  /// Pipeline round this node was merged into (-1 before merge-adjacent):
  /// linear stage r and the non-linear segment that follows it share r.
  int round = -1;
  bool final_segment = false;
  /// Placement annotations (set by the placement pass).
  int server = -1;
  int threads = 1;
  bool live = true;
};

/// The stage graph. Models are sequential, so the live subgraph is always
/// a single chain from input() to output(); passes that rewrite it must
/// preserve that property (the verifier walks the chain to check).
class StageGraph {
 public:
  /// Imports a float model: one node per layer, one tensor per value.
  /// `input_bound` is the |input element| bound in real units.
  static Result<StageGraph> FromModel(const Model& model, int64_t scale,
                                      double input_bound);

  int64_t scale() const { return scale_; }
  double input_bound() const { return input_bound_; }
  const std::string& model_name() const { return model_name_; }
  int64_t input() const { return input_tensor_; }
  int64_t output() const { return output_tensor_; }
  void set_output(int64_t tensor_id) { output_tensor_ = tensor_id; }

  /// True once the classify pass has assigned op classes.
  bool classified() const { return classified_; }
  void set_classified(bool v) { classified_ = v; }
  /// True once merge-adjacent has assigned rounds.
  bool merged() const { return merged_; }
  void set_merged(bool v) { merged_ = v; }

  IrTensor& tensor(int64_t id) { return tensors_[static_cast<size_t>(id)]; }
  const IrTensor& tensor(int64_t id) const {
    return tensors_[static_cast<size_t>(id)];
  }
  IrNode& node(int64_t id) { return nodes_[static_cast<size_t>(id)]; }
  const IrNode& node(int64_t id) const {
    return nodes_[static_cast<size_t>(id)];
  }
  size_t num_tensors() const { return tensors_.size(); }
  size_t num_nodes() const { return nodes_.size(); }
  int64_t NumLiveNodes() const;
  int64_t NumLiveTensors() const;

  /// Allocates a new tensor / node and returns its id.
  int64_t AddTensor(Shape shape);
  int64_t AddNode(std::string name, std::unique_ptr<Layer> layer,
                  int64_t input_tensor, int64_t output_tensor);

  /// Live node ids in dataflow order (input -> output). Fails if the live
  /// subgraph is not a single connected chain.
  Result<std::vector<int64_t>> ChainOrder() const;

  /// Structural invariants: chain connectivity, def/use symmetry, shape
  /// agreement between each node's float layers and its tensors, affine /
  /// scale-power consistency where lowered. Orphan (dead-use) tensors are
  /// tolerated — DeadTensorElim reaps them — but dangling references to
  /// dead objects are not.
  Status Verify() const;

  /// Stable textual dump (golden-tested; see tools/plan_dump). One line
  /// per live tensor and node, in dataflow order.
  std::string ToString() const;

 private:
  int64_t scale_ = 1;
  double input_bound_ = 0.0;
  std::string model_name_;
  int64_t input_tensor_ = -1;
  int64_t output_tensor_ = -1;
  bool classified_ = false;
  bool merged_ = false;
  std::vector<IrTensor> tensors_;
  std::vector<IrNode> nodes_;
};

/// Recomputes scale powers, real bounds and integer magnitude bounds for
/// every live tensor by walking the chain from the graph input (linear
/// nodes need `affine` set). Shared by the lower-to-integer pass (initial
/// propagation), FuseAffineChains (re-propagation through folded
/// matrices) and the final verify-bounds pass.
Status PropagateBounds(StageGraph* graph);

/// Real-unit output bound of a non-linear layer given a real-unit input
/// bound (coarse interval analysis for key sizing).
double NonLinearLayerBound(const Layer& layer, double in_bound);

}  // namespace planner
}  // namespace ppstream
