// Serving-plane bench: concurrency sweep against a live TCP server with
// the observability plane on (DESIGN.md §14).
//
// One ModelProviderTcpServer (MNIST-2, thread-per-connection) is swept
// with 1 → 32 concurrent client sessions, each running scalar protocol
// inferences end-to-end over loopback TCP. Per level it reports exact
// p50/p95/p99 request latency (sorted samples, not bucketed), sustained
// throughput, the randomizer-pool miss rate, and the per-request cost
// attribution outcome (reconciled vs contention-skipped samples, and the
// measured/expected ratio means).
//
// Mid-sweep — while the highest level's inferences are in flight — the
// admin endpoint is scraped over a raw socket: /metrics must pass
// CheckPrometheusText and carry the serving + cost families, /statusz
// must be live JSON with the expected session occupancy, and /healthz
// must be 200. The scraped exposition body is the --prom output, so
// run_benchmarks.sh lints exactly what a scraper would see.
//
// Cost-ratio acceptance is asserted here, not just reported:
//   - at concurrency 1 every sample reconciles (nothing overlaps), and
//     both the client-side encrypt ratio and the server-side scalar-mul
//     ratio must average within ±5% of the plan-derived budget;
//   - a packed-batch probe (in-process, RunPackedBatchInference needs
//     concrete providers) must land its measured/expected ratios in the
//     same band against ExpectedRequestCost.
// At higher levels same-component intervals overlap and those samples
// are skipped (cost.contended_skips) rather than mispriced — the bench
// reports how many survive per level.
//
//   bench_serving [--smoke] [--out bench/BENCH_serving.json]
//                 [--prom FILE]

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "net/server.h"
#include "net/transport.h"
#include "obs/cost.h"
#include "obs/metrics.h"

using namespace ppstream;
using namespace ppstream::bench;

namespace {

double Ms(double seconds) { return seconds * 1e3; }

constexpr double kRatioLo = 0.95;
constexpr double kRatioHi = 1.05;

/// One-shot HTTP/1.0 GET against the admin endpoint; returns the whole
/// response (status line + headers + body). The endpoint closes after
/// one response, so EOF delimits it.
std::string AdminGet(uint16_t admin_port, const std::string& target) {
  auto sock = TcpSocket::Connect("127.0.0.1", admin_port, 5.0);
  PPS_CHECK_OK(sock.status());
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  PPS_CHECK_OK(sock->SendAll(reinterpret_cast<const uint8_t*>(request.data()),
                             request.size(), 5.0));
  std::string response;
  uint8_t buf[4096];
  for (;;) {
    auto n = sock->RecvSome(buf, sizeof(buf), 5.0);
    if (!n.ok()) break;  // clean close ends the response
    response.append(reinterpret_cast<const char*>(buf), *n);
  }
  return response;
}

std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  PPS_CHECK(split != std::string::npos) << "admin response has no body";
  return response.substr(split + 4);
}

/// Mean of a histogram over a [before, after) window (exact: Sum() and
/// Count() are not bucketed).
struct HistWindow {
  uint64_t count0 = 0;
  double sum0 = 0;
  const obs::Histogram* hist = nullptr;

  static HistWindow Open(const char* name) {
    HistWindow w;
    w.hist = obs::MetricsRegistry::Global().GetHistogram(name);
    w.count0 = w.hist->Count();
    w.sum0 = w.hist->Sum();
    return w;
  }
  uint64_t Count() const { return hist->Count() - count0; }
  double Mean() const {
    const uint64_t n = Count();
    return n == 0 ? 0.0 : (hist->Sum() - sum0) / static_cast<double>(n);
  }
};

struct LevelReport {
  size_t concurrency = 0;
  size_t requests = 0;
  double wall_seconds = 0;
  double throughput_rps = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0, max_ms = 0;
  double pool_miss_rate = 0;
  uint64_t cost_reconciled = 0;
  uint64_t cost_skipped = 0;
  uint64_t scalar_ratio_samples = 0;
  double scalar_ratio_mean = 0;
  uint64_t encrypt_ratio_samples = 0;
  double encrypt_ratio_mean = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "bench/BENCH_serving.json";
  const char* prom_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--prom") == 0 && i + 1 < argc) {
      prom_path = argv[++i];
    }
  }
  const std::vector<size_t> levels =
      smoke ? std::vector<size_t>{1, 2, 4, 8}
            : std::vector<size_t>{1, 2, 4, 8, 16, 32};
  const size_t requests_per_client = smoke ? 2 : 4;
  const int key_bits = 256;  // the sweep measures serving, not key size

  std::printf("== serving sweep (MNIST-2, %zu..%zu sessions, %zu req/session, "
              "%d-bit keys%s) ==\n\n",
              levels.front(), levels.back(), requests_per_client, key_bits,
              smoke ? ", smoke" : "");

  // Same MNIST-2 model/plan the two-process example serves (mp_server).
  DatasetSplit data = MakeZooDataset(ZooModelId::kMnist2,
                                     /*size_scale=*/0.005, /*seed=*/3);
  auto model = MakeTrainedZooModel(ZooModelId::kMnist2, data.train, 4);
  PPS_CHECK_OK(model.status());
  auto plan_or = CompilePlan(model.value(), /*scale=*/10000);
  PPS_CHECK_OK(plan_or.status());
  auto plan = std::make_shared<const InferencePlan>(std::move(plan_or).value());
  const PaillierKeyPair& keys = SharedKeys(key_bits);
  PPS_CHECK_OK(plan->CheckFitsKey(keys.public_key.n()));

  // Plain-path references for bit-exactness (protocol output is a pure
  // function of plan + input).
  const size_t num_inputs = std::min<size_t>(data.test.samples.size(), 8);
  PPS_CHECK(num_inputs > 0) << "empty test split";
  std::vector<DoubleTensor> expected;
  for (size_t i = 0; i < num_inputs; ++i) {
    auto ref = RunScaledPlainInference(*plan, data.test.samples[i]);
    PPS_CHECK_OK(ref.status());
    expected.push_back(std::move(ref).value());
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();

  ModelProviderServerOptions options;
  options.admin_port = 0;  // ephemeral: read back below
  options.max_concurrent_connections = levels.back();
  options.session.max_sessions = levels.back() * 2;
  ModelProviderTcpServer server(plan, options);
  PPS_CHECK_OK(server.Listen(0));
  const uint16_t port = server.port();
  const uint16_t admin_port = server.admin_port();
  PPS_CHECK(admin_port != 0) << "admin endpoint did not start";
  std::thread server_thread([&server] { PPS_CHECK_OK(server.Serve()); });
  std::printf("server on 127.0.0.1:%u, admin on 127.0.0.1:%u\n\n", port,
              admin_port);

  obs::Counter* pool_hits = registry.GetCounter("crypto.pool.hits");
  obs::Counter* pool_misses = registry.GetCounter("crypto.pool.misses");
  obs::Counter* reconciled = registry.GetCounter("cost.reconciled");
  obs::Counter* skipped = registry.GetCounter("cost.contended_skips");

  std::vector<LevelReport> reports;
  std::string scraped_metrics, scraped_statusz;
  for (size_t level : levels) {
    const uint64_t hits0 = pool_hits->Value(), misses0 = pool_misses->Value();
    const uint64_t reconciled0 = reconciled->Value();
    const uint64_t skipped0 = skipped->Value();
    HistWindow scalar_ratio = HistWindow::Open("cost.scalar_mul_ratio");
    HistWindow encrypt_ratio = HistWindow::Open("cost.encrypt_ratio");

    std::vector<std::vector<double>> latencies(level);
    std::vector<std::thread> clients;
    WallTimer wall;
    for (size_t c = 0; c < level; ++c) {
      clients.emplace_back([&, c] {
        auto transport = TcpTransport::Connect("127.0.0.1", port,
                                               keys.public_key);
        PPS_CHECK_OK(transport.status());
        DataProvider dp(transport.value()->view_plan(), keys,
                        /*enc_seed=*/0x5E21 + level * 100 + c);
        ModelProviderApi& mp = *transport.value()->model_provider();
        for (size_t r = 0; r < requests_per_client; ++r) {
          const size_t input_idx = (c + r) % num_inputs;
          const uint64_t request_id =
              level * 100000 + c * 100 + r + 1;  // unique across the sweep
          WallTimer timer;
          auto out = RunProtocolInference(mp, dp, request_id,
                                          data.test.samples[input_idx]);
          latencies[c].push_back(timer.ElapsedSeconds());
          PPS_CHECK_OK(out.status());
          for (int64_t j = 0; j < out->NumElements(); ++j) {
            PPS_CHECK(out.value()[j] == expected[input_idx][j])
                << "level " << level << " client " << c
                << ": served inference diverged from the plain reference";
          }
        }
        transport.value()->Close();
      });
    }

    // Live scrape while the deepest level's inferences are in flight:
    // this is the exposition a real scraper would pull mid-load, and the
    // one run_benchmarks.sh lints.
    if (level == levels.back()) {
      const std::string metrics_response = AdminGet(admin_port, "/metrics");
      PPS_CHECK(metrics_response.rfind("HTTP/1.0 200", 0) == 0)
          << "/metrics scrape failed: " << metrics_response.substr(0, 64);
      scraped_metrics = BodyOf(metrics_response);
      PPS_CHECK_OK(obs::CheckPrometheusText(scraped_metrics));
      const std::string statusz_response = AdminGet(admin_port, "/statusz");
      PPS_CHECK(statusz_response.rfind("HTTP/1.0 200", 0) == 0)
          << "/statusz scrape failed";
      scraped_statusz = BodyOf(statusz_response);
      PPS_CHECK(scraped_statusz.find("\"sessions\":{\"live\":") !=
                std::string::npos)
          << "/statusz is missing the session section: " << scraped_statusz;
      PPS_CHECK(AdminGet(admin_port, "/healthz").rfind("HTTP/1.0 200", 0) == 0)
          << "/healthz not OK while serving";
    }

    for (std::thread& t : clients) t.join();
    const double elapsed = wall.ElapsedSeconds();

    std::vector<double> all;
    for (const auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    std::sort(all.begin(), all.end());
    const uint64_t hits = pool_hits->Value() - hits0;
    const uint64_t misses = pool_misses->Value() - misses0;

    LevelReport rep;
    rep.concurrency = level;
    rep.requests = all.size();
    rep.wall_seconds = elapsed;
    rep.throughput_rps = static_cast<double>(all.size()) / elapsed;
    rep.p50_ms = Ms(all[(all.size() - 1) * 50 / 100]);
    rep.p95_ms = Ms(all[(all.size() - 1) * 95 / 100]);
    rep.p99_ms = Ms(all[(all.size() - 1) * 99 / 100]);
    rep.max_ms = Ms(all.back());
    rep.pool_miss_rate =
        hits + misses == 0
            ? 0.0
            : static_cast<double>(misses) / static_cast<double>(hits + misses);
    rep.cost_reconciled = reconciled->Value() - reconciled0;
    rep.cost_skipped = skipped->Value() - skipped0;
    rep.scalar_ratio_samples = scalar_ratio.Count();
    rep.scalar_ratio_mean = scalar_ratio.Mean();
    rep.encrypt_ratio_samples = encrypt_ratio.Count();
    rep.encrypt_ratio_mean = encrypt_ratio.Mean();
    reports.push_back(rep);

    std::printf("level %2zu: %3zu req in %6.2f s (%5.2f req/s) p50 %7.1f ms "
                "p99 %7.1f ms miss %4.1f%% reconciled %llu skipped %llu\n",
                level, rep.requests, rep.wall_seconds, rep.throughput_rps,
                rep.p50_ms, rep.p99_ms, 100.0 * rep.pool_miss_rate,
                static_cast<unsigned long long>(rep.cost_reconciled),
                static_cast<unsigned long long>(rep.cost_skipped));
  }

  // At concurrency 1 nothing overlaps, so every request must reconcile —
  // server-side scalar muls AND client-side encrypts — inside ±5%.
  const LevelReport& level1 = reports.front();
  PPS_CHECK(level1.scalar_ratio_samples > 0)
      << "no scalar-mul ratio samples reconciled at concurrency 1";
  PPS_CHECK(level1.scalar_ratio_mean >= kRatioLo &&
            level1.scalar_ratio_mean <= kRatioHi)
      << "scalar-mul measured/expected ratio " << level1.scalar_ratio_mean
      << " outside [" << kRatioLo << ", " << kRatioHi << "]";
  PPS_CHECK(level1.encrypt_ratio_samples > 0)
      << "no encrypt ratio samples reconciled at concurrency 1";
  PPS_CHECK(level1.encrypt_ratio_mean >= kRatioLo &&
            level1.encrypt_ratio_mean <= kRatioHi)
      << "encrypt measured/expected ratio " << level1.encrypt_ratio_mean
      << " outside [" << kRatioLo << ", " << kRatioHi << "]";

  // Required families on the live scrape: what a Prometheus server must
  // see while the sweep is hot.
  const char* required_families[] = {
      "pps_serving_requests",  "pps_serving_request_seconds",
      "pps_serving_frames",    "pps_serving_inflight",
      "pps_cost_reconciled",   "pps_cost_contended_skips",
      "pps_cost_overrun",      "pps_cost_scalar_mul_ratio",
      "pps_cost_encrypt_ratio", "pps_crypto_scalar_muls",
      "pps_crypto_encrypts",   "pps_crypto_pool_hits",
      "pps_net_session_created"};
  for (const char* family : required_families) {
    PPS_CHECK(scraped_metrics.find(family) != std::string::npos)
        << "live /metrics scrape is missing family: " << family;
  }
  // The non-secret contract, re-checked at the bench level: session rows
  // are named by ordinals only.
  PPS_CHECK(scraped_statusz.find("\"ordinal\":") != std::string::npos)
      << "/statusz has no session rows mid-sweep";
  PPS_CHECK(scraped_statusz.find("session_id") == std::string::npos)
      << "/statusz leaked a session id field";

  // ---- packed-batch probe (in-process: the packed driver needs the
  // concrete providers) against ExpectedRequestCost.
  CompileOptions pack_opts;
  pack_opts.packing = planner::PackingSpec{};
  pack_opts.packing->key_bits = key_bits;
  auto packed_or = CompilePlan(model.value(), /*scale=*/10000, pack_opts);
  PPS_CHECK_OK(packed_or.status());
  auto packed_plan =
      std::make_shared<InferencePlan>(std::move(packed_or).value());
  PPS_CHECK_OK(packed_plan->CheckFitsKey(keys.public_key.n()));
  const int64_t batch =
      std::min<int64_t>(packed_plan->PackedBatchLanes(), 4);
  PPS_CHECK(batch >= 1);
  std::vector<DoubleTensor> lane_inputs;
  for (int64_t l = 0; l < batch; ++l) {
    lane_inputs.push_back(data.test.samples[static_cast<size_t>(l) %
                                            num_inputs]);
  }
  const obs::RequestCostBudget packed_budget =
      ExpectedRequestCost(*packed_plan, batch);
  obs::Counter* muls_counter = registry.GetCounter("crypto.scalar_muls");
  obs::Counter* enc_counter = registry.GetCounter("crypto.encrypts");
  uint64_t m0 = 0, e0 = 0;
  {
    ModelProvider mp(packed_plan, keys.public_key, /*obf_seed=*/7001);
    DataProvider dp(packed_plan, keys, /*enc_seed=*/7002);
    // Snapshot after provider construction: the budget prices the
    // request, not pool prefill or obfuscation setup.
    m0 = muls_counter->Value();
    e0 = enc_counter->Value();
    auto outs = RunPackedBatchInference(mp, dp, 900001, lane_inputs);
    PPS_CHECK_OK(outs.status());
  }
  const double packed_mul_ratio =
      static_cast<double>(muls_counter->Value() - m0) /
      static_cast<double>(packed_budget.scalar_muls);
  const double packed_enc_ratio =
      static_cast<double>(enc_counter->Value() - e0) /
      static_cast<double>(packed_budget.encrypts);
  std::printf("\npacked probe: %lld lanes, scalar-mul ratio %.4f, encrypt "
              "ratio %.4f\n",
              static_cast<long long>(batch), packed_mul_ratio,
              packed_enc_ratio);
  PPS_CHECK(packed_mul_ratio >= kRatioLo && packed_mul_ratio <= kRatioHi)
      << "packed scalar-mul measured/expected ratio " << packed_mul_ratio
      << " outside [" << kRatioLo << ", " << kRatioHi << "]";
  PPS_CHECK(packed_enc_ratio >= kRatioLo && packed_enc_ratio <= kRatioHi)
      << "packed encrypt measured/expected ratio " << packed_enc_ratio
      << " outside [" << kRatioLo << ", " << kRatioHi << "]";

  // Drain the server; /healthz must flip to 503 before Serve() returns.
  server.BeginDrain(/*grace_seconds=*/2.0);
  const std::string drained = AdminGet(admin_port, "/healthz");
  PPS_CHECK(drained.rfind("HTTP/1.0 503", 0) == 0)
      << "/healthz not 503 during drain: " << drained.substr(0, 64);
  server_thread.join();

  PPS_CHECK(registry.GetCounter("cost.overrun")->Value() == 0)
      << "cost.overrun fired during a correctly-priced sweep";

  // ---- JSON report.
  std::ofstream json(out_path);
  PPS_CHECK(json.good()) << "cannot write " << out_path;
  json << "{\n  \"model\": \"MNIST-2\",\n";
  json << "  \"key_bits\": " << key_bits << ",\n";
  json << "  \"requests_per_client\": " << requests_per_client << ",\n";
  json << "  \"levels\": [\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    const LevelReport& p = reports[i];
    json << "    {\"concurrency\": " << p.concurrency
         << ", \"requests\": " << p.requests
         << ", \"wall_seconds\": " << p.wall_seconds
         << ", \"throughput_rps\": " << p.throughput_rps
         << ", \"p50_ms\": " << p.p50_ms << ", \"p95_ms\": " << p.p95_ms
         << ", \"p99_ms\": " << p.p99_ms << ", \"max_ms\": " << p.max_ms
         << ", \"pool_miss_rate\": " << p.pool_miss_rate
         << ", \"cost\": {\"reconciled\": " << p.cost_reconciled
         << ", \"contended_skips\": " << p.cost_skipped
         << ", \"scalar_mul_ratio_samples\": " << p.scalar_ratio_samples
         << ", \"scalar_mul_ratio_mean\": " << p.scalar_ratio_mean
         << ", \"encrypt_ratio_samples\": " << p.encrypt_ratio_samples
         << ", \"encrypt_ratio_mean\": " << p.encrypt_ratio_mean << "}}"
         << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"cost_ratio\": {\"tolerance\": 0.05"
       << ", \"scalar_mul_ratio_level1\": " << level1.scalar_ratio_mean
       << ", \"encrypt_ratio_level1\": " << level1.encrypt_ratio_mean
       << ", \"overruns\": "
       << registry.GetCounter("cost.overrun")->Value() << "},\n";
  json << "  \"packed_cost\": {\"batch\": " << batch
       << ", \"expected_scalar_muls\": " << packed_budget.scalar_muls
       << ", \"expected_encrypts\": " << packed_budget.encrypts
       << ", \"scalar_mul_ratio\": " << packed_mul_ratio
       << ", \"encrypt_ratio\": " << packed_enc_ratio << "},\n";
  json << "  \"admin\": {\"metrics_bytes\": " << scraped_metrics.size()
       << ", \"families_checked\": "
       << sizeof(required_families) / sizeof(required_families[0])
       << ", \"statusz_bytes\": " << scraped_statusz.size() << "}\n";
  json << "}\n";
  json.close();
  std::printf("wrote %s\n", out_path);

  if (prom_path != nullptr) {
    // The live mid-sweep scrape, verbatim — run_benchmarks.sh lints this
    // file, so the awk linter sees exactly what a scraper saw.
    std::ofstream prom_out(prom_path);
    PPS_CHECK(prom_out.good()) << "cannot write " << prom_path;
    prom_out << scraped_metrics;
    prom_out.close();
    std::printf("wrote %s (live scrape, lint OK)\n", prom_path);
  }
  std::printf("\nbench_serving OK\n");
  return 0;
}
