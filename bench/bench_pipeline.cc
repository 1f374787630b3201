// End-to-end pipeline telemetry bench (DESIGN.md §9).
//
// Runs a stream of MNIST inferences through the full pipelined engine
// with the model provider behind the framed transport (the same wire
// path the TCP deployment uses, minus the socket), then distills the
// metrics registry into bench/BENCH_pipeline.json:
//
//   - per-stage latency distributions (count, p50/p95/p99/max/mean ms)
//     and byte volumes from the "stage.*" histograms/counters;
//   - crypto totals (encrypts, decrypts, scalar muls, randomizer-pool
//     hits/misses/produced/refills);
//   - wire totals (frames and bytes each way, round trips).
//
// The Prometheus exposition of the same registry is written next to it
// (bench/metrics.prom) and self-checked with the exporter linter; a
// malformed exposition fails the run.
//
//   bench_pipeline [--smoke] [--trace FILE]
//                  [--out bench/BENCH_pipeline.json]
//                  [--prom bench/metrics.prom]

#include <cstring>
#include <fstream>

#include "bench/bench_common.h"
#include "net/transport.h"
#include "nn/compress.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/passes.h"
#include "stream/engine.h"

using namespace ppstream;
using namespace ppstream::bench;

namespace {

double Ms(double seconds) { return seconds * 1e3; }

/// Strips the "stage." prefix and ".attempt_seconds" suffix.
std::string StageOf(const std::string& histogram_name) {
  const std::string prefix = "stage.";
  const std::string suffix = ".attempt_seconds";
  return histogram_name.substr(
      prefix.size(), histogram_name.size() - prefix.size() - suffix.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* trace_path = nullptr;
  const char* out_path = "bench/BENCH_pipeline.json";
  const char* prom_path = "bench/metrics.prom";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--prom") == 0 && i + 1 < argc) {
      prom_path = argv[++i];
    }
  }
  const size_t num_requests = smoke ? 3 : 8;
  const int key_bits = smoke ? 256 : 512;

  std::printf("== pipeline telemetry (MNIST-2, %zu requests, %d-bit keys%s) "
              "==\n\n",
              num_requests, key_bits, smoke ? ", smoke" : "");

  TrainedEntry entry = Train(ZooModelId::kMnist2);
  // Size the randomizer pool for the whole burst (capacity scales with
  // expected concurrency) and prefill it before the timer starts; the
  // per-request default used to run ~48% misses at 8 concurrent requests.
  DataProvider::Options dp_options;
  dp_options.expected_concurrency = static_cast<int>(num_requests);
  dp_options.prefill = true;
  ProtocolSetup setup =
      Setup(entry.model, /*scale=*/10000, key_bits, /*seed=*/1, dp_options);

  // Clean slate so the report covers exactly this run; tracing on for the
  // stitched per-request spans.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().SetEnabled(true);

  // Model provider behind the framed dispatcher — the full wire encode/
  // decode path, so net.* metrics and rpc spans are exercised.
  auto local_mp = setup.mp;
  auto channel = std::make_shared<InProcessFrameChannel>(
      [local_mp](const WireFrame& request) {
        return DispatchModelProviderFrame(*local_mp, request);
      });
  auto remote_mp =
      std::make_shared<RemoteModelProvider>(channel, setup.plan);

  EngineConfig config;
  config.stage_threads.assign(NumPipelineStages(*setup.plan), 1);
  PpStreamEngine engine(remote_mp, setup.dp, config);
  PPS_CHECK_OK(engine.Start());

  WallTimer timer;
  for (size_t i = 0; i < num_requests; ++i) {
    PPS_CHECK_OK(engine.Submit(
        i + 1, entry.data.test.samples[i % entry.data.test.samples.size()]));
  }
  for (size_t i = 0; i < num_requests; ++i) {
    PPS_CHECK_OK(engine.NextResult().status());
  }
  const double elapsed = timer.ElapsedSeconds();
  engine.Shutdown();
  obs::Tracer::Global().SetEnabled(false);

  std::printf("%zu inferences in %.2f s (%.2f s/req pipelined)\n\n",
              num_requests, elapsed, elapsed / num_requests);

  // Snapshot the engine run's counters before the fusion probe below
  // adds its own crypto traffic: the report covers exactly the run.
  const auto crypto_counters = registry.CounterValues("crypto.");
  const auto net_counters = registry.CounterValues("net.");

  // The sized-and-prefilled pool must serve the burst almost entirely
  // from precomputed randomizers.
  const RandomizerPool::Stats pool_stats = setup.dp->PoolStatsForTesting();
  const double pool_miss_rate =
      pool_stats.hits + pool_stats.misses == 0
          ? 0.0
          : static_cast<double>(pool_stats.misses) /
                static_cast<double>(pool_stats.hits + pool_stats.misses);
  std::printf("randomizer pool: %llu hits, %llu misses (%.1f%% miss rate)\n\n",
              static_cast<unsigned long long>(pool_stats.hits),
              static_cast<unsigned long long>(pool_stats.misses),
              100.0 * pool_miss_rate);
  PPS_CHECK(pool_miss_rate < 0.10)
      << "randomizer pool miss rate " << pool_miss_rate
      << " >= 10%: pool sizing regressed";

  // ---- fusion comparison: each probe model compiled with the default
  // FuseAffineChains policy vs. --fusion never, one encrypted inference
  // each, reading the live crypto.scalar_muls counter. Outputs must be
  // bit-identical (fusion is exact integer composition). MNIST-2's
  // Flatten+Dense fold shrinks the op count; Heart's Dense+ScalarScale
  // chains (from ScaledSigmoid decomposition) also shrink scalar muls.
  const PaillierKeyPair& keys = SharedKeys(key_bits);
  struct FusionRecord {
    std::string model;
    int64_t ops_before = 0, ops_after = 0;
    planner::PlanCompileStats stats;
    uint64_t muls_unfused = 0, muls_fused = 0;
  };
  auto compare_fusion = [&](const std::string& name, const Model& model,
                            const DoubleTensor& probe, uint64_t request_id) {
    auto fused_or = CompilePlan(model, /*scale=*/10000);
    CompileOptions unfused_opts;
    unfused_opts.fusion = planner::FusionPolicy::kNever;
    auto unfused_or = CompilePlan(model, /*scale=*/10000, unfused_opts);
    PPS_CHECK_OK(fused_or.status());
    PPS_CHECK_OK(unfused_or.status());
    FusionRecord rec;
    rec.model = name;
    rec.stats = fused_or.value().compile_stats;
    DoubleTensor outs[2];
    const std::shared_ptr<InferencePlan> plans[2] = {
        std::make_shared<InferencePlan>(std::move(fused_or).value()),
        std::make_shared<InferencePlan>(std::move(unfused_or).value())};
    for (int p = 0; p < 2; ++p) {
      PPS_CHECK_OK(plans[p]->CheckFitsKey(keys.public_key.n()));
      ModelProvider mp(plans[p], keys.public_key, /*obf_seed=*/91);
      DataProvider dp(plans[p], keys, /*enc_seed=*/92);
      obs::Counter* muls = registry.GetCounter("crypto.scalar_muls");
      const uint64_t before = muls->Value();
      auto result = RunProtocolInference(mp, dp, request_id + p, probe);
      PPS_CHECK_OK(result.status());
      outs[p] = std::move(result).value();
      (p == 0 ? rec.muls_fused : rec.muls_unfused) = muls->Value() - before;
    }
    PPS_CHECK_EQ(outs[0].NumElements(), outs[1].NumElements());
    for (int64_t i = 0; i < outs[0].NumElements(); ++i) {
      PPS_CHECK(outs[0][i] == outs[1][i])
          << name << ": fused plan diverged at element " << i;
    }
    for (const auto& s : plans[0]->linear_stages)
      rec.ops_after += s.ops.size();
    for (const auto& s : plans[1]->linear_stages)
      rec.ops_before += s.ops.size();
    // The cost model's own prediction of what fusion saves. MNIST-2's
    // Flatten+Dense fold is structural only — expected savings 0 — and
    // the record says so instead of implying a crypto win.
    const int64_t expected_savings = rec.stats.scalar_muls_before_fusion -
                                     rec.stats.scalar_muls_after_fusion;
    std::printf("fusion[%s]: %lld -> %lld linear ops, measured scalar "
                "muls %llu -> %llu, expected savings %lld "
                "(bit-identical outputs)\n",
                name.c_str(), static_cast<long long>(rec.ops_before),
                static_cast<long long>(rec.ops_after),
                static_cast<unsigned long long>(rec.muls_unfused),
                static_cast<unsigned long long>(rec.muls_fused),
                static_cast<long long>(expected_savings));
    PPS_CHECK_EQ(static_cast<int64_t>(rec.muls_unfused) -
                     static_cast<int64_t>(rec.muls_fused),
                 expected_savings)
        << name << ": fusion cost model disagrees with measured scalar muls";
    return rec;
  };
  std::vector<FusionRecord> fusion;
  fusion.push_back(compare_fusion("MNIST-2", entry.model,
                                  entry.data.test.samples[0], 9001));
  {
    auto heart = MakeZooModel(ZooModelId::kHeart, /*seed=*/5);
    PPS_CHECK_OK(heart.status());
    DoubleTensor probe(Shape{13});
    for (int64_t i = 0; i < probe.NumElements(); ++i) {
      probe.data()[static_cast<size_t>(i)] = 0.125 * static_cast<double>(i % 8) - 0.5;
    }
    fusion.push_back(compare_fusion("Heart", *heart, probe, 9003));
  }
  std::printf("\n");

  // ---- packing probe: the same trained MNIST-2 compiled through the
  // packing passes, then ONE packed batch vs the same inputs through the
  // scalar protocol. Encrypts and scalar-muls are live counter deltas;
  // ciphertext payload bytes (the wire cost, each ciphertext lives mod
  // n^2) are derived from the per-round vector sizes the two paths move.
  // Decoded packed outputs must be bit-exact with the scalar protocol.
  CompileOptions pack_opts;
  pack_opts.packing = planner::PackingSpec{};
  pack_opts.packing->key_bits = key_bits;
  auto packed_or = CompilePlan(entry.model, /*scale=*/10000, pack_opts);
  PPS_CHECK_OK(packed_or.status());
  auto packed_plan =
      std::make_shared<InferencePlan>(std::move(packed_or).value());
  PPS_CHECK_OK(packed_plan->CheckFitsKey(keys.public_key.n()));
  const planner::PlanCompileStats& pack_stats = packed_plan->compile_stats;
  const int64_t plan_lanes = packed_plan->PackedBatchLanes();
  PPS_CHECK(plan_lanes >= 4)
      << "MNIST-2 at " << key_bits << "-bit keys packs only " << plan_lanes
      << " lanes; the >=4x reduction target is unreachable";
  const int64_t batch = std::min<int64_t>(plan_lanes, smoke ? 4 : 8);
  std::vector<DoubleTensor> lane_inputs;
  for (int64_t l = 0; l < batch; ++l) {
    lane_inputs.push_back(entry.data.test.samples[static_cast<size_t>(l) %
                                                  entry.data.test.samples
                                                      .size()]);
  }

  obs::Counter* muls_counter = registry.GetCounter("crypto.scalar_muls");
  obs::Counter* enc_counter = registry.GetCounter("crypto.encrypts");
  uint64_t scalar_muls = 0, scalar_encrypts = 0;
  std::vector<DoubleTensor> scalar_outs;
  {
    ModelProvider mp(packed_plan, keys.public_key, /*obf_seed=*/95);
    DataProvider dp(packed_plan, keys, /*enc_seed=*/96);
    const uint64_t m0 = muls_counter->Value(), e0 = enc_counter->Value();
    for (int64_t l = 0; l < batch; ++l) {
      auto out = RunProtocolInference(mp, dp, 9100 + static_cast<uint64_t>(l),
                                      lane_inputs[static_cast<size_t>(l)]);
      PPS_CHECK_OK(out.status());
      scalar_outs.push_back(std::move(out).value());
    }
    scalar_muls = muls_counter->Value() - m0;
    scalar_encrypts = enc_counter->Value() - e0;
  }
  uint64_t packed_muls = 0, packed_encrypts = 0;
  std::vector<DoubleTensor> packed_outs;
  {
    ModelProvider mp(packed_plan, keys.public_key, /*obf_seed=*/97);
    DataProvider dp(packed_plan, keys, /*enc_seed=*/98);
    const uint64_t m0 = muls_counter->Value(), e0 = enc_counter->Value();
    auto outs = RunPackedBatchInference(mp, dp, 9200, lane_inputs);
    PPS_CHECK_OK(outs.status());
    packed_outs = std::move(outs).value();
    packed_muls = muls_counter->Value() - m0;
    packed_encrypts = enc_counter->Value() - e0;
  }
  PPS_CHECK_EQ(packed_outs.size(), scalar_outs.size());
  for (size_t l = 0; l < packed_outs.size(); ++l) {
    for (int64_t i = 0; i < packed_outs[l].NumElements(); ++i) {
      PPS_CHECK(packed_outs[l][i] == scalar_outs[l][i])
          << "packed lane " << l << " diverged from the scalar protocol at "
          << "element " << i;
    }
  }

  // Wire cost: every protocol round moves the round's input vector to the
  // model provider and its output vector back.
  const uint64_t ct_bytes = static_cast<uint64_t>(key_bits) / 4;
  uint64_t scalar_payload = 0, packed_payload = 0;
  for (const LinearStage& stage : packed_plan->linear_stages) {
    const uint64_t round_elems =
        static_cast<uint64_t>(stage.input_shape.NumElements()) +
        static_cast<uint64_t>(stage.output_shape.NumElements());
    scalar_payload += round_elems * static_cast<uint64_t>(batch) * ct_bytes;
    packed_payload += round_elems * ct_bytes *
                      (stage.packed_layout.has_value()
                           ? 1
                           : static_cast<uint64_t>(batch));
  }
  const double muls_factor = static_cast<double>(scalar_muls) /
                             static_cast<double>(packed_muls);
  const double enc_factor = static_cast<double>(scalar_encrypts) /
                            static_cast<double>(packed_encrypts);
  const double bytes_factor = static_cast<double>(scalar_payload) /
                              static_cast<double>(packed_payload);
  std::printf("packing[MNIST-2]: %lld lanes/word, batch of %lld\n",
              static_cast<long long>(plan_lanes),
              static_cast<long long>(batch));
  std::printf("  scalar_muls %llu -> %llu (%.1fx), encrypts %llu -> %llu "
              "(%.1fx), payload %llu -> %llu bytes (%.1fx)\n",
              static_cast<unsigned long long>(scalar_muls),
              static_cast<unsigned long long>(packed_muls), muls_factor,
              static_cast<unsigned long long>(scalar_encrypts),
              static_cast<unsigned long long>(packed_encrypts), enc_factor,
              static_cast<unsigned long long>(scalar_payload),
              static_cast<unsigned long long>(packed_payload), bytes_factor);
  PPS_CHECK(muls_factor >= 4.0)
      << "packing cut scalar muls only " << muls_factor << "x (target 4x)";
  PPS_CHECK(enc_factor >= 4.0)
      << "packing cut encrypts only " << enc_factor << "x (target 4x)";
  PPS_CHECK(bytes_factor >= 3.0)
      << "packing cut payload bytes only " << bytes_factor << "x (target 3x)";

  // Compression-aware kernels: prune + quantize the same model, re-check
  // plaintext accuracy, and recount the packed group muls (one scalar-mul
  // per distinct quantized weight value per row).
  CompressionSpec comp_spec;
  comp_spec.prune_fraction = 0.25;
  comp_spec.weight_bits = 6;
  CompressionReport comp_report;
  auto compressed = CompressModel(entry.model, comp_spec, &comp_report);
  PPS_CHECK_OK(compressed.status());
  auto base_acc = EvaluateAccuracy(entry.model, entry.data.test);
  auto comp_acc = EvaluateAccuracy(compressed.value(), entry.data.test);
  PPS_CHECK_OK(base_acc.status());
  PPS_CHECK_OK(comp_acc.status());
  auto comp_plan_or = CompilePlan(compressed.value(), /*scale=*/10000,
                                  pack_opts);
  PPS_CHECK_OK(comp_plan_or.status());
  const int64_t comp_group_muls =
      comp_plan_or.value().compile_stats.packed_group_muls;
  std::printf("  compressed (prune 0.25, 6-bit): %lld -> %lld packed group "
              "muls, accuracy %.3f -> %.3f\n\n",
              static_cast<long long>(pack_stats.packed_group_muls),
              static_cast<long long>(comp_group_muls), *base_acc, *comp_acc);
  PPS_CHECK(comp_group_muls < pack_stats.packed_group_muls)
      << "quantization failed to shrink the packed group-mul count";

  // ---- JSON report.
  std::ofstream json(out_path);
  PPS_CHECK(json.good()) << "cannot write " << out_path;
  json << "{\n  \"model\": \"MNIST-2\",\n";
  json << "  \"requests\": " << num_requests << ",\n";
  json << "  \"key_bits\": " << key_bits << ",\n";
  json << "  \"wall_seconds\": " << elapsed << ",\n";
  json << "  \"stages\": [\n";
  const auto histograms = registry.Histograms("stage.");
  std::printf("%-16s %6s %10s %10s %10s %10s %12s\n", "stage", "count",
              "p50(ms)", "p95(ms)", "p99(ms)", "max(ms)", "bytes_out");
  PrintRule();
  bool first = true;
  for (const auto& [name, histogram] : histograms) {
    const std::string stage = StageOf(name);
    const uint64_t bytes_out =
        registry.GetCounter("stage." + stage + ".bytes_out")->Value();
    if (!first) json << ",\n";
    first = false;
    json << "    {\"name\": \"" << stage << "\""
         << ", \"count\": " << histogram->Count()
         << ", \"p50_ms\": " << Ms(histogram->Quantile(0.5))
         << ", \"p95_ms\": " << Ms(histogram->Quantile(0.95))
         << ", \"p99_ms\": " << Ms(histogram->Quantile(0.99))
         << ", \"max_ms\": " << Ms(histogram->Max())
         << ", \"mean_ms\": " << Ms(histogram->Mean())
         << ", \"bytes_out\": " << bytes_out << "}";
    std::printf("%-16s %6llu %10.2f %10.2f %10.2f %10.2f %12llu\n",
                stage.c_str(),
                static_cast<unsigned long long>(histogram->Count()),
                Ms(histogram->Quantile(0.5)), Ms(histogram->Quantile(0.95)),
                Ms(histogram->Quantile(0.99)), Ms(histogram->Max()),
                static_cast<unsigned long long>(bytes_out));
  }
  json << "\n  ],\n  \"fusion\": [\n";
  for (size_t i = 0; i < fusion.size(); ++i) {
    const FusionRecord& rec = fusion[i];
    json << "    {\"model\": \"" << rec.model << "\""
         << ", \"policy\": \"scalar-mul-count\""
         << ", \"linear_ops_before\": " << rec.ops_before
         << ", \"linear_ops_after\": " << rec.ops_after
         << ", \"ops_fused\": " << rec.stats.ops_fused
         << ", \"dead_tensors_removed\": " << rec.stats.dead_tensors_removed
         << ", \"plan_scalar_muls_before\": "
         << rec.stats.scalar_muls_before_fusion
         << ", \"plan_scalar_muls_after\": "
         << rec.stats.scalar_muls_after_fusion
         << ", \"expected_savings\": "
         << (rec.stats.scalar_muls_before_fusion -
             rec.stats.scalar_muls_after_fusion)
         << ", \"measured_scalar_muls_unfused\": " << rec.muls_unfused
         << ", \"measured_scalar_muls_fused\": " << rec.muls_fused
         << ", \"outputs_bit_identical\": true}"
         << (i + 1 < fusion.size() ? ",\n" : "\n");
  }
  json << "  ],\n  \"packing\": {\n";
  json << "    \"key_bits\": " << key_bits << ",\n";
  json << "    \"lanes\": " << plan_lanes << ",\n";
  json << "    \"batch\": " << batch << ",\n";
  json << "    \"rounds_packed\": " << pack_stats.rounds_packed << ",\n";
  json << "    \"rounds_fallback\": " << pack_stats.rounds_packing_fallback
       << ",\n";
  json << "    \"stages\": [\n";
  for (size_t i = 0; i < packed_plan->linear_stages.size(); ++i) {
    const LinearStage& stage = packed_plan->linear_stages[i];
    int64_t stage_muls = 0;
    for (const auto& kernel : stage.kernels) {
      stage_muls += kernel.weight_applications();
    }
    json << "      {\"name\": \"" << stage.name << "\""
         << ", \"packed\": "
         << (stage.packed_layout.has_value() ? "true" : "false");
    if (stage.packed_layout.has_value()) {
      json << ", \"lanes\": " << stage.packed_layout->lanes
           << ", \"slot_bits\": " << stage.packed_layout->slot_bits
           << ", \"guard_bits\": " << stage.packed_layout->guard_bits;
    }
    // Per-batch cost: the scalar path pays per lane, a packed round once.
    json << ", \"scalar_muls_per_batch\": " << stage_muls * batch
         << ", \"packed_group_muls_per_batch\": "
         << (stage.packed_layout.has_value() ? stage_muls
                                             : stage_muls * batch)
         << "}" << (i + 1 < packed_plan->linear_stages.size() ? ",\n" : "\n");
  }
  json << "    ],\n";
  json << "    \"measured\": {\"scalar_muls_scalar\": " << scalar_muls
       << ", \"scalar_muls_packed\": " << packed_muls
       << ", \"encrypts_scalar\": " << scalar_encrypts
       << ", \"encrypts_packed\": " << packed_encrypts
       << ", \"payload_bytes_scalar\": " << scalar_payload
       << ", \"payload_bytes_packed\": " << packed_payload
       << ", \"outputs_bit_identical\": true},\n";
  json << "    \"compression\": {\"prune_fraction\": "
       << comp_spec.prune_fraction
       << ", \"weight_bits\": " << comp_spec.weight_bits
       << ", \"weights_pruned\": " << comp_report.weights_pruned
       << ", \"distinct_values_before\": " << comp_report.distinct_before
       << ", \"distinct_values_after\": " << comp_report.distinct_after
       << ", \"packed_group_muls_base\": " << pack_stats.packed_group_muls
       << ", \"packed_group_muls_compressed\": " << comp_group_muls
       << ", \"accuracy_base\": " << *base_acc
       << ", \"accuracy_compressed\": " << *comp_acc << "}\n";
  json << "  },\n  \"counters\": {\n";
  std::printf("\ncounter totals:\n");
  first = true;
  for (const auto* counters : {&crypto_counters, &net_counters}) {
    for (const auto& [name, value] : *counters) {
      if (!first) json << ",\n";
      first = false;
      json << "    \"" << name << "\": " << value;
      std::printf("  %-24s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  json << "\n  }\n}\n";
  json.close();
  std::printf("\nwrote %s\n", out_path);

  // ---- Prometheus exposition through the shared render-and-validate
  // path (the admin endpoint's live /metrics uses the same one, so the
  // file dump can never drift from what a scraper sees).
  auto prom_or = obs::CheckedPrometheusText(registry);
  PPS_CHECK(prom_or.ok()) << "Prometheus exposition failed its own linter: "
                          << prom_or.status().ToString();
  const std::string& prom = prom_or.value();
  std::ofstream prom_out(prom_path);
  PPS_CHECK(prom_out.good()) << "cannot write " << prom_path;
  prom_out << prom;
  prom_out.close();
  std::printf("wrote %s (lint OK)\n", prom_path);

  if (trace_path != nullptr) {
    std::ofstream trace_out(trace_path);
    obs::Tracer::Global().WriteChromeJson(trace_out);
    std::printf("wrote %zu span(s) to %s\n",
                obs::Tracer::Global().Snapshot().size(), trace_path);
  }
  std::printf("\nbench_pipeline OK\n");
  return 0;
}
