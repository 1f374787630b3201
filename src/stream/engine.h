// PP-Stream engine: maps the collaborative protocol (Figure 3) onto the
// pipelined stage runtime (Figure 4).
//
// Stage layout for a plan with R rounds (2R+1 stages):
//   stage 0:        data provider   — quantize + encrypt the raw input
//   stage 2r+1:     model provider  — inverse obfuscation (r>0), linear
//                                     stage r under Paillier with tensor
//                                     partitioning, obfuscation (r<R-1)
//   stage 2r+2:     data provider   — decrypt, non-linear segment r,
//                                     re-encrypt (intermediate) or emit
//                                     the inference result (final)
//
// Each stage owns y_i threads for intra-stage tensor parallelism; requests
// stream through the stages, giving pipeline parallelism across requests.

#pragma once

#include <memory>

#include "core/protocol.h"
#include "stream/pipeline.h"
#include "stream/retry_policy.h"
#include "util/fault.h"

namespace ppstream {

struct EngineConfig {
  /// Threads per pipeline stage. Size must be NumPipelineStages(plan) or
  /// empty (one thread per stage). This is the planner's y_i assignment.
  std::vector<size_t> stage_threads;
  /// Enables input tensor partitioning in linear stages (§IV-D).
  bool tensor_partitioning = true;
  size_t channel_capacity = 4;
  /// Per-stage transient-failure retries (AF-Stream-style re-execution):
  /// budget, backoff, jitter and per-request deadline. The default is one
  /// immediate retry and no deadline.
  RetryPolicy retry_policy;
  /// Optional chaos hook: wired into every stage ("stage.<name>"), every
  /// inter-stage channel ("channel.<i>", latency only), and the providers'
  /// protocol entry points ("mp.*" / "dp.*"). Null disables injection.
  std::shared_ptr<FaultInjector> fault_injector;
};

/// 2 * NumRounds + 1 (see stage layout above).
size_t NumPipelineStages(const InferencePlan& plan);

/// A completed inference.
struct InferenceResult {
  uint64_t request_id = 0;
  DoubleTensor output;
};

class PpStreamEngine {
 public:
  /// The engine talks to the parties exclusively through the protocol
  /// interfaces: pass concrete ModelProvider/DataProvider for the
  /// single-process zero-copy deployment, or transport stubs
  /// (RemoteModelProvider / RemoteDataProvider from src/net/) to run the
  /// pipeline against parties living in other processes.
  PpStreamEngine(std::shared_ptr<ModelProviderApi> mp,
                 std::shared_ptr<DataProviderApi> dp, EngineConfig config);

  Status Start();

  /// Feeds one inference request (blocks under backpressure).
  Status Submit(uint64_t request_id, const DoubleTensor& input);

  /// Blocks for the next completed inference; error after Shutdown() when
  /// the pipeline has drained.
  ///
  /// Error contract: every Submit() yields exactly one NextResult()
  /// outcome. A request that exhausted its retries (or hit its deadline)
  /// surfaces here as a non-OK status naming the originating stage and
  /// error; its per-request obfuscation state at the model provider is
  /// released before the status is returned. FailedPrecondition
  /// "pipeline drained" marks the end of the stream after Shutdown().
  Result<InferenceResult> NextResult();

  /// Closes the input and drains in-flight requests; safe to call once.
  void Shutdown();

  const Pipeline& pipeline() const { return pipeline_; }

 private:
  std::shared_ptr<ModelProviderApi> mp_;
  std::shared_ptr<DataProviderApi> dp_;
  EngineConfig config_;
  Pipeline pipeline_;
  bool started_ = false;
};

}  // namespace ppstream
