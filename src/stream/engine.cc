#include "stream/engine.h"

#include <optional>

#include "obs/trace.h"
#include "util/logging.h"

namespace ppstream {

size_t NumPipelineStages(const InferencePlan& plan) {
  return 2 * plan.NumRounds() + 1;
}

PpStreamEngine::PpStreamEngine(std::shared_ptr<ModelProviderApi> mp,
                               std::shared_ptr<DataProviderApi> dp,
                               EngineConfig config)
    : mp_(std::move(mp)),
      dp_(std::move(dp)),
      config_(std::move(config)),
      pipeline_(config_.channel_capacity) {
  PPS_CHECK(mp_ != nullptr && dp_ != nullptr);
}

Status PpStreamEngine::Start() {
  if (started_) return Status::FailedPrecondition("engine already started");
  const InferencePlan& plan = mp_->plan();
  const size_t num_stages = NumPipelineStages(plan);
  std::vector<size_t> threads = config_.stage_threads;
  if (threads.empty()) threads.assign(num_stages, 1);
  if (threads.size() != num_stages) {
    return Status::InvalidArgument(internal::StrCat(
        "stage_threads has ", threads.size(), " entries; plan needs ",
        num_stages));
  }

  const size_t rounds = plan.NumRounds();
  auto mp = mp_;
  auto dp = dp_;
  const bool partition = config_.tensor_partitioning;

  // Stage 0: data provider encrypts the raw input.
  const RetryPolicy& retries = config_.retry_policy;
  if (config_.fault_injector != nullptr) {
    mp_->SetFaultInjector(config_.fault_injector);
    dp_->SetFaultInjector(config_.fault_injector);
    pipeline_.SetFaultInjector(config_.fault_injector);
  }
  pipeline_.AddStage(std::make_unique<Stage>(
      "dp-encrypt", threads[0],
      [dp](StreamMessage msg, ThreadPool& pool) -> Result<StreamMessage> {
        PPS_ASSIGN_OR_RETURN(DoubleTensor input,
                             DeserializeDoubleTensor(msg.payload));
        PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> enc,
                             dp->EncryptInputParallel(input, &pool));
        msg.payload = SerializeCiphertexts(enc);
        return msg;
      },
      retries));

  for (size_t r = 0; r < rounds; ++r) {
    // Model-provider stage for round r.
    pipeline_.AddStage(std::make_unique<Stage>(
        internal::StrCat("mp-linear-", r), threads[2 * r + 1],
        [mp, r, rounds, partition](StreamMessage msg, ThreadPool& pool)
            -> Result<StreamMessage> {
          PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> tensor,
                               DeserializeCiphertexts(msg.payload));
          if (r > 0) {
            PPS_ASSIGN_OR_RETURN(
                tensor,
                mp->InverseObfuscate(msg.request_id, r, std::move(tensor)));
          }
          PPS_ASSIGN_OR_RETURN(
              tensor, mp->ApplyLinearStage(r, tensor, &pool, partition));
          if (r + 1 < rounds) {
            PPS_ASSIGN_OR_RETURN(
                tensor, mp->Obfuscate(msg.request_id, r, std::move(tensor)));
          }
          msg.payload = SerializeCiphertexts(tensor);
          return msg;
        },
        retries));

    // Data-provider stage for round r.
    if (r + 1 < rounds) {
      pipeline_.AddStage(std::make_unique<Stage>(
          internal::StrCat("dp-nonlinear-", r), threads[2 * r + 2],
          [dp, r](StreamMessage msg, ThreadPool& pool)
              -> Result<StreamMessage> {
            PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> tensor,
                                 DeserializeCiphertexts(msg.payload));
            PPS_ASSIGN_OR_RETURN(
                tensor,
                dp->ProcessIntermediate(r, tensor, nullptr, &pool));
            msg.payload = SerializeCiphertexts(tensor);
            return msg;
          },
          retries));
    } else {
      pipeline_.AddStage(std::make_unique<Stage>(
          "dp-final", threads[2 * r + 2],
          [dp, mp](StreamMessage msg, ThreadPool& pool)
              -> Result<StreamMessage> {
            PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> tensor,
                                 DeserializeCiphertexts(msg.payload));
            PPS_ASSIGN_OR_RETURN(DoubleTensor result,
                                 dp->ProcessFinal(tensor, &pool));
            // Completion ACK: the model provider may drop this request's
            // obfuscation state. A failed release (e.g. a lost frame on a
            // remote transport) must not fail the finished inference.
            (void)mp->ReleaseRequestState(msg.request_id);
            msg.payload = SerializeDoubleTensor(result);
            return msg;
          },
          retries));
    }
  }

  PPS_RETURN_IF_ERROR(pipeline_.Start());
  started_ = true;
  PPS_SLOG(Debug, "engine.start")
      .Kv("stages", num_stages)
      .Kv("rounds", rounds);
  return Status::OK();
}

Status PpStreamEngine::Submit(uint64_t request_id,
                              const DoubleTensor& input) {
  StreamMessage msg;
  msg.request_id = request_id;
  msg.payload = SerializeDoubleTensor(input);
  msg.submit_time_seconds = StreamClockSeconds();
  obs::Tracer& tracer = obs::Tracer::Global();
  if (tracer.enabled()) {
    // Root the request's trace here; every stage span (and, over the wire,
    // every server-side rpc span) parents under this pair. The root span
    // record itself is emitted in NextResult when the duration is known.
    msg.trace_id = tracer.NewTraceId();
    msg.root_span_id = tracer.NewSpanId();
  }
  return pipeline_.Feed(std::move(msg));
}

Result<InferenceResult> PpStreamEngine::NextResult() {
  std::optional<StreamMessage> msg = pipeline_.NextResult();
  if (!msg.has_value()) {
    return Status::FailedPrecondition("pipeline drained");
  }
  if (msg->trace_id != 0) {
    // Close the request's root span now that the tail reached us.
    obs::SpanRecord root;
    root.trace_id = msg->trace_id;
    root.span_id = msg->root_span_id;
    root.parent_span_id = 0;
    root.name = "request";
    root.category = "request";
    root.request_id = msg->request_id;
    root.start_seconds = msg->submit_time_seconds;
    root.duration_seconds =
        obs::MonotonicSeconds() - msg->submit_time_seconds;
    obs::Tracer::Global().Record(std::move(root));
  }
  if (msg->poisoned()) {
    // The request died mid-pipeline; drop the model provider's per-request
    // obfuscation state (the success path releases it in dp-final).
    (void)mp_->ReleaseRequestState(msg->request_id);
    return Status(msg->status.code(),
                  internal::StrCat("request ", msg->request_id,
                                   " failed at stage ", msg->failed_stage,
                                   ": ", msg->status.message()));
  }
  InferenceResult result;
  result.request_id = msg->request_id;
  PPS_ASSIGN_OR_RETURN(result.output, DeserializeDoubleTensor(msg->payload));
  return result;
}

void PpStreamEngine::Shutdown() {
  pipeline_.Shutdown();
  PPS_SLOG(Debug, "engine.shutdown");
}

}  // namespace ppstream
