#include "sim/bridge.h"

#include "util/logging.h"

namespace ppstream {

std::vector<SimStageSpec> BuildSimStages(const PlanProfile& profile,
                                         const Allocation& allocation,
                                         double parallel_fraction) {
  PPS_CHECK_EQ(profile.stage_seconds.size(),
               allocation.threads_of_layer.size());
  std::vector<SimStageSpec> stages(profile.stage_seconds.size());
  for (size_t i = 0; i < stages.size(); ++i) {
    stages[i].single_thread_seconds = profile.stage_seconds[i];
    stages[i].threads = allocation.threads_of_layer[i];
    stages[i].server = allocation.server_of_layer[i];
    stages[i].bytes_out = profile.stage_bytes_out[i];
    stages[i].parallel_fraction = parallel_fraction;
  }
  return stages;
}

Result<std::vector<SimStageSpec>> BuildSimStagesFromPlan(
    const InferencePlan& plan, double seconds_per_scalar_mul,
    double seconds_per_element, uint64_t bytes_per_ciphertext,
    double parallel_fraction) {
  if (plan.is_data_provider_view) {
    return Status::InvalidArgument(
        "data-provider views carry no weights; simulate from the full plan");
  }
  const size_t rounds = plan.NumRounds();
  const bool placed =
      plan.placement.has_value() &&
      plan.placement->threads_of_stage.size() == 2 * rounds;
  std::vector<SimStageSpec> stages(2 * rounds);
  for (size_t r = 0; r < rounds; ++r) {
    const LinearStage& lin = plan.linear_stages[r];
    int64_t muls = 0;
    for (const AffineKernel& kernel : lin.kernels) {
      muls += kernel.weight_applications();
    }
    SimStageSpec& mp = stages[2 * r];
    mp.single_thread_seconds =
        static_cast<double>(muls) * seconds_per_scalar_mul;
    mp.bytes_out = static_cast<uint64_t>(lin.output_shape.NumElements()) *
                   bytes_per_ciphertext;
    mp.server = placed ? plan.placement->server_of_stage[2 * r] : 0;
    mp.threads = placed ? plan.placement->threads_of_stage[2 * r] : 1;
    mp.parallel_fraction = parallel_fraction;

    const NonLinearSegment& seg = plan.nonlinear_segments[r];
    SimStageSpec& dp = stages[2 * r + 1];
    dp.single_thread_seconds =
        static_cast<double>(seg.shape.NumElements() *
                            static_cast<int64_t>(seg.layers.size())) *
        seconds_per_element;
    // The final segment returns plaintext logits; earlier segments
    // re-encrypt their activations toward the next linear stage.
    dp.bytes_out = seg.is_final
                       ? static_cast<uint64_t>(seg.shape.NumElements()) * 8
                       : static_cast<uint64_t>(seg.shape.NumElements()) *
                             bytes_per_ciphertext;
    dp.server = placed ? plan.placement->server_of_stage[2 * r + 1] : 1;
    dp.threads = placed ? plan.placement->threads_of_stage[2 * r + 1] : 1;
    dp.parallel_fraction = parallel_fraction;
  }
  return stages;
}

std::vector<SimStageSpec> BuildCentralizedStages(const PlanProfile& profile) {
  std::vector<SimStageSpec> stages(profile.stage_seconds.size());
  for (size_t i = 0; i < stages.size(); ++i) {
    stages[i].single_thread_seconds = profile.stage_seconds[i];
    stages[i].threads = 1;
    stages[i].server = 0;
    stages[i].bytes_out = profile.stage_bytes_out[i];
  }
  return stages;
}

}  // namespace ppstream
