// The PP-Stream benchmark: one named workload per run, driven only through
// the library's public API, with every inference checked bit for bit
// against RunScaledPlainInference. perfbench/README.md describes the
// workloads, the metrics and how to compare two sets of runs;
// perfbench/run.py builds this binary and is the command to use.
//
//   perfbench --workload stream-mnist2|serve-mnist2
//             --seed N --seconds S --trace 0|1 --cache-dir DIR
//             [--trace-out FILE] [--git-commit SHA]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs half the time untraced and half traced, and reports per-layer
// metrics: self times from the spans (the benchmark's own, around each
// provider call, plus those the program records), registry counter
// deltas, and kernel timings of the bignum and crypto layers.
//
// Standard output ends with a `fingerprint` line and then one JSON object
// {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "net/server.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/allocation.h"
#include "planner/profiler.h"
#include "stream/engine.h"

namespace ppstream {
namespace {

constexpr int64_t kScale = 10000;
constexpr uint64_t kTrainSeed = 1000;  // bench_common.h Train's default
constexpr size_t kInputPool = 64;      // distinct inputs drawn per seed
// setup_s is the median of the set-ups before the window (the last one is
// measured) and, on end-to-end runs, those after it. On a shared virtual
// machine single-thread speed can change by up to 2x every few seconds, so
// the set-ups sample it at two times, a window apart.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 2;
constexpr int kSequentialProbes = 3;   // stream: RunProtocolInference calls
constexpr const char* kSpanCategory = "perfbench";

double Now() { return obs::MonotonicSeconds(); }

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t state = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  return SplitMix64(state);
}

// ------------------------------------------------------------ host probes

/// User + system CPU of the whole process (every thread).
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Restarts the kernel's peak-RSS mark (VmHWM) at the current RSS.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------- statistics

/// Linearly interpolated quantile of an ascending sample.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Quantile(v, 0.5);
}

struct Tail {
  double percentile = 50;
  double value = 0;
  size_t beyond = 0;  // samples above the percentile
};

/// The highest of p99/p95/p90 with at least ten samples beyond it. Below
/// 100 samples: the highest sample that still has ten beyond it, so the
/// percentile is always the highest the sample supports (the median at 20
/// samples or fewer).
Tail PickTail(const std::vector<double>& sorted) {
  const size_t n = sorted.size();
  for (int p : {99, 95, 90}) {
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    if (n - std::min(rank, n) >= 10) {
      return Tail{static_cast<double>(p), Quantile(sorted, p / 100.0),
                  n - rank};
    }
  }
  if (n <= 20) return Tail{50, Quantile(sorted, 0.5), n / 2};
  return Tail{100.0 * static_cast<double>(n - 10) / static_cast<double>(n),
              sorted[n - 11], 10};
}

// ---------------------------------------------------------------- metrics

/// Metrics in print order, each with its unit.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      index_[name] = entries_.size();
      entries_.push_back({name, value, unit});
    } else {
      entries_[it->second].value = value;
    }
  }

  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

/// The engine's stage names for MNIST-2's three protocol rounds.
const std::vector<std::string>& StreamStages() {
  static const std::vector<std::string> stages = {
      "dp-encrypt",     "mp-linear-0", "dp-nonlinear-0", "mp-linear-1",
      "dp-nonlinear-1", "mp-linear-2", "dp-final"};
  return stages;
}

/// Every per-layer metric, zero until the workload that exercises its
/// layer sets it. Must match the per_layer list in BENCHMARK.json.
void DeclareLayerMetrics(MetricSet* m) {
  const std::pair<const char*, const char*> fixed[] = {
      {"bignum.mulmont_ns", "ns"},
      {"bignum.expmont_us", "us"},
      {"crypto.scalar_mul_us", "us"},
      {"crypto.decrypt_us", "us"},
      {"crypto.scalar_muls_per_req", "count"},
      {"crypto.encrypts_per_req", "count"},
      {"crypto.decrypts_per_req", "count"},
      {"crypto.pool_produced_per_req", "count"},
      {"crypto.pool_miss_frac", "ratio"},
      {"core.mp_linear_ms", "ms"},
      {"core.mp_obfuscate_ms", "ms"},
      {"core.dp_encrypt_ms", "ms"},
      {"core.dp_nonlinear_ms", "ms"},
      {"core.dp_final_ms", "ms"},
      {"stream.queue_wait_ms", "ms"},
      {"stream.stage_ms", "ms"},
      {"stream.speedup_vs_sequential", "x"},
      {"planner.compile_ms", "ms"},
      {"planner.allocate_ms", "ms"},
      {"net.frames_per_req", "count"},
      {"net.kb_per_req", "KB"},
      {"net.rpc_ms", "ms"},
      {"net.server_ms", "ms"},
      {"net.overhead_ms", "ms"},
      {"net.dispatch_ms", "ms"},
      {"obs.cost_reconciled_frac", "ratio"},
      {"obs.trace_overhead_frac", "ratio"},
      {"loadgen.start_delay_ms", "ms"},
      {"loadgen.start_delay_p99_ms", "ms"},
      {"request_wall_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"unattributed_frac", "ratio"},
  };
  for (const auto& [name, unit] : fixed) m->Set(name, 0, unit);
  for (const std::string& stage : StreamStages()) {
    m->Set("stream.busy_frac." + stage, 0, "ratio");
    m->Set("planner.threads." + stage, 0, "count");
  }
}

// --------------------------------------------------------------- counters

/// Registry counters the per-layer metrics difference over a window.
using Counters = std::map<std::string, double>;

Counters ReadCounters() {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  Counters c;
  for (const char* name :
       {"crypto.scalar_muls", "crypto.encrypts",
        "crypto.decrypts", "crypto.pool.produced", "crypto.pool.hits",
        "crypto.pool.misses", "cost.reconciled", "cost.contended_skips"}) {
    c[name] = static_cast<double>(r.GetCounter(name)->Value());
  }
  return c;
}

/// A point in time with the process CPU and registry values at it.
struct Mark {
  double time = 0;
  double cpu = 0;
  Counters counters;

  static Mark Take() { return Mark{Now(), CpuSeconds(), ReadCounters()}; }
};

// ----------------------------------------------------------------- phases

/// One request as the load generator saw it.
struct Request {
  uint64_t id = 0;
  double due = 0;   // when it was scheduled to be sent
  double sent = 0;  // when the call started
  double done = 0;  // when its result (or error) came back
  bool timed = false;  // inside the measured window
  bool ok = false;     // the output matched the reference
};

/// What one timed phase of a workload measured.
struct Phase {
  std::vector<Request> requests;  // every request, warm-up and drain included
  Mark begin, end;                // the measured window
  std::vector<double> stage_busy_seconds;  // stream: per stage, over the window
  double net_frames = 0, net_bytes = 0;    // serve: TcpTransport::stats()

  size_t Timed() const {
    return static_cast<size_t>(std::count_if(
        requests.begin(), requests.end(), [](const Request& r) { return r.timed; }));
  }
  /// Correct inferences among the timed requests.
  size_t Correct() const {
    return static_cast<size_t>(
        std::count_if(requests.begin(), requests.end(),
                      [](const Request& r) { return r.timed && r.ok; }));
  }
  /// Latencies of the timed requests whose outputs were correct: a request
  /// that fails fast must not pull the quantiles down.
  std::vector<double> SortedLatencies() const {
    std::vector<double> out;
    for (const Request& r : requests) {
      if (r.timed && r.ok) out.push_back(r.done - r.due);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  double Window() const { return end.time - begin.time; }
};

/// Inferences attempted and failed (errors or outputs that differ from
/// the plain reference), over the whole run.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  /// Counts one inference; returns whether `got` matches `want` bit for bit.
  bool Check(const DoubleTensor* got, const DoubleTensor& want) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    const bool same =
        got != nullptr && got->shape() == want.shape() &&
        std::memcmp(got->data().data(), want.data().data(),
                    want.data().size() * sizeof(double)) == 0;
    if (!same) failed.fetch_add(1, std::memory_order_relaxed);
    return same;
  }
};

// -------------------------------------------------------------- decorators

/// Forwards every model-provider call inside a span named for the layer
/// that serves it: core.mp_* for an in-process provider, net.rpc for a
/// remote one (the server's own spans then nest under the frame's span).
class MpProbe final : public ModelProviderApi {
 public:
  MpProbe(std::shared_ptr<ModelProviderApi> inner, bool remote)
      : inner_(std::move(inner)), remote_(remote) {}

  const InferencePlan& plan() const override { return inner_->plan(); }

  Result<std::vector<Ciphertext>> ProcessRound(
      uint64_t request_id, size_t round,
      const std::vector<Ciphertext>& in) override {
    obs::ScopedSpan span(Name("core.mp_round"), kSpanCategory, request_id);
    return inner_->ProcessRound(request_id, round, in);
  }
  Result<std::vector<Ciphertext>> InverseObfuscate(
      uint64_t request_id, size_t round, std::vector<Ciphertext> in) override {
    obs::ScopedSpan span(Name("core.mp_obfuscate"), kSpanCategory, request_id);
    return inner_->InverseObfuscate(request_id, round, std::move(in));
  }
  Result<std::vector<Ciphertext>> ApplyLinearStage(
      size_t round, const std::vector<Ciphertext>& in, ThreadPool* pool,
      bool input_partitioning) override {
    obs::ScopedSpan span(Name("core.mp_linear"), kSpanCategory);
    return inner_->ApplyLinearStage(round, in, pool, input_partitioning);
  }
  Result<std::vector<Ciphertext>> Obfuscate(
      uint64_t request_id, size_t round, std::vector<Ciphertext> in) override {
    obs::ScopedSpan span(Name("core.mp_obfuscate"), kSpanCategory, request_id);
    return inner_->Obfuscate(request_id, round, std::move(in));
  }
  Status ReleaseRequestState(uint64_t request_id) override {
    obs::ScopedSpan span(Name("core.mp_release"), kSpanCategory, request_id);
    return inner_->ReleaseRequestState(request_id);
  }

 private:
  std::string_view Name(std::string_view local) const {
    return remote_ ? "net.rpc" : local;
  }

  std::shared_ptr<ModelProviderApi> inner_;
  bool remote_;
};

/// Forwards every data-provider call inside a core.dp_* span.
class DpProbe final : public DataProviderApi {
 public:
  explicit DpProbe(std::shared_ptr<DataProviderApi> inner)
      : inner_(std::move(inner)) {}

  const PaillierPublicKey& public_key() const override {
    return inner_->public_key();
  }
  Result<std::vector<Ciphertext>> EncryptInput(
      const DoubleTensor& input) override {
    obs::ScopedSpan span("core.dp_encrypt", kSpanCategory);
    return inner_->EncryptInput(input);
  }
  Result<std::vector<Ciphertext>> EncryptInputParallel(
      const DoubleTensor& input, ThreadPool* pool) override {
    obs::ScopedSpan span("core.dp_encrypt", kSpanCategory);
    return inner_->EncryptInputParallel(input, pool);
  }
  Result<std::vector<Ciphertext>> ProcessIntermediate(
      size_t round, const std::vector<Ciphertext>& in,
      std::vector<double>* decrypted_view, ThreadPool* pool) override {
    obs::ScopedSpan span("core.dp_nonlinear", kSpanCategory);
    return inner_->ProcessIntermediate(round, in, decrypted_view, pool);
  }
  Result<DoubleTensor> ProcessFinal(const std::vector<Ciphertext>& in,
                                    ThreadPool* pool) override {
    obs::ScopedSpan span("core.dp_final", kSpanCategory);
    return inner_->ProcessFinal(in, pool);
  }

 private:
  std::shared_ptr<DataProviderApi> inner_;
};

// ------------------------------------------------------- span attribution

/// The self-time row a span is charged to. Empty means its parent's row:
/// spans the program records inside a provider call (crypto batches)
/// belong to the layer call that contains them.
std::string RowOf(const std::string& name) {
  if (name == "request") return "stream.queue_wait_ms";  // the engine's root
  if (name == "perfbench.request" || name == "inference") {
    return "unattributed_ms";
  }
  if (name.rfind("stage.", 0) == 0) return "stream.stage_ms";
  if (name == "core.mp_linear" || name == "core.mp_round" ||
      name == "crypto.scalar_mul_batch" ||
      name == "crypto.stage_cache_build") {
    return "core.mp_linear_ms";
  }
  if (name == "core.mp_obfuscate" || name == "core.mp_release" ||
      name == "obfuscate" || name == "inverse_obfuscate") {
    return "core.mp_obfuscate_ms";
  }
  if (name == "core.dp_encrypt") return "core.dp_encrypt_ms";
  if (name == "core.dp_nonlinear") return "core.dp_nonlinear_ms";
  if (name == "core.dp_final") return "core.dp_final_ms";
  if (name.rfind("net.", 0) == 0) return "net.overhead_ms";  // client side
  if (name.rfind("rpc.", 0) == 0) return "net.dispatch_ms";  // server side
  return "";
}

/// Per-row self time summed over the traced requests, where a span's self
/// time is its duration minus the part of it its child spans cover.
struct Attribution {
  std::map<std::string, double> row_seconds;
  std::set<uint64_t> rooted;  // requests whose root span the tracer kept
  double rpc_seconds = 0;    // client side of remote calls (net.rpc spans)
  double server_seconds = 0;  // server dispatch of those calls (rpc.* spans)
};

double CoveredSeconds(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0, start = 0, end = -1;
  for (const auto& [s, e] : intervals) {
    if (s > end) {
      if (end > start) covered += end - start;
      start = s;
      end = e;
    } else {
      end = std::max(end, e);
    }
  }
  if (end > start) covered += end - start;
  return covered;
}

Attribution Attribute(const std::vector<obs::SpanRecord>& spans,
                      const std::set<uint64_t>& request_ids) {
  std::unordered_map<uint64_t, std::vector<const obs::SpanRecord*>> children;
  std::vector<const obs::SpanRecord*> roots;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_span_id == 0) {
      roots.push_back(&s);
    } else {
      children[s.parent_span_id].push_back(&s);
    }
  }
  Attribution out;
  for (const obs::SpanRecord* root : roots) {
    const std::string root_row = RowOf(root->name);
    if (root_row.empty() || request_ids.count(root->request_id) == 0) {
      continue;  // not the root of a measured request
    }
    out.rooted.insert(root->request_id);
    std::vector<std::pair<const obs::SpanRecord*, std::string>> stack = {
        {root, root_row}};
    while (!stack.empty()) {
      auto [span, parent_row] = stack.back();
      stack.pop_back();
      std::string row = RowOf(span->name);
      if (row.empty()) row = parent_row;
      if (span->name == "net.rpc") out.rpc_seconds += span->duration_seconds;
      if (row == "net.dispatch_ms" && row != parent_row) {
        out.server_seconds += span->duration_seconds;
      }
      const double start = span->start_seconds;
      const double end = start + span->duration_seconds;
      std::vector<std::pair<double, double>> covered;
      auto it = children.find(span->span_id);
      if (it != children.end()) {
        for (const obs::SpanRecord* child : it->second) {
          const double cs = std::max(start, child->start_seconds);
          const double ce =
              std::min(end, child->start_seconds + child->duration_seconds);
          if (ce > cs) covered.emplace_back(cs, ce);
          stack.emplace_back(child, row);
        }
      }
      out.row_seconds[row] +=
          span->duration_seconds - CoveredSeconds(std::move(covered));
    }
  }
  return out;
}

// ---------------------------------------------------------- kernel timing

/// Median per-op time (seconds) of `batch` calls of `op`, over 7 batches.
double TimePerOp(int batch, const std::function<void()>& op) {
  std::vector<double> per_op;
  for (int rep = 0; rep < 7; ++rep) {
    WallTimer timer;
    for (int i = 0; i < batch; ++i) op();
    per_op.push_back(timer.ElapsedSeconds() / batch);
  }
  return Median(per_op);
}

/// bignum and crypto kernels at the workload's key size, seeded operands.
void TimeKernels(const PaillierKeyPair& keys, uint64_t seed, MetricSet* m) {
  const PaillierPublicKey& pk = keys.public_key;
  const MontgomeryContext& ctx = pk.ctx_n2();
  Rng rng(seed);
  MontgomeryContext::MontValue a =
      ctx.ToMontgomery(BigInt::RandomBelow(rng, ctx.modulus()));
  const MontgomeryContext::MontValue b =
      ctx.ToMontgomery(BigInt::RandomBelow(rng, ctx.modulus()));
  m->Set("bignum.mulmont_ns",
         1e9 * TimePerOp(2000, [&] { ctx.MulMont(a, b, &a); }), "ns");
  // r^n: the full-width exponent every randomizer pays.
  MontgomeryContext::MontValue r;
  m->Set("bignum.expmont_us",
         1e6 * TimePerOp(4, [&] { ctx.ExpMont(a, pk.n(), &r); }), "us");

  SecureRng srng = SecureRng::FromSeed(seed);
  Result<Ciphertext> c = Paillier::Encrypt(pk, BigInt(int64_t{12345}), srng);
  PPS_CHECK_OK(c.status());
  Result<FixedBaseExp> table = Paillier::PrecomputeScalarMulBase(
      pk, *c, /*max_weight_bits=*/16, /*allow_negative=*/true,
      /*fan_out_hint=*/1024);
  PPS_CHECK_OK(table.status());
  std::vector<BigInt> weights;
  for (int i = 0; i < 64; ++i) {
    weights.push_back(BigInt(static_cast<int64_t>(rng.NextBounded(1 << 16)) -
                             (1 << 15)));
  }
  size_t next = 0;
  m->Set("crypto.scalar_mul_us", 1e6 * TimePerOp(64, [&] {
           PPS_CHECK_OK(Paillier::ScalarMulPrecomputed(
                            *table, weights[next++ % weights.size()])
                            .status());
         }),
         "us");
  m->Set("crypto.decrypt_us", 1e6 * TimePerOp(8, [&] {
           PPS_CHECK_OK(Paillier::Decrypt(pk, keys.private_key, *c).status());
         }),
         "us");
}

// -------------------------------------------------------------- workloads

/// State every workload shares: the trained MNIST-2 and seeded inputs.
struct Shared {
  Model model;
  std::vector<DoubleTensor> inputs;
  uint64_t seed = 0;

  const DoubleTensor& Input(uint64_t i) const {
    return inputs[i % inputs.size()];
  }
};

Shared LoadShared(const std::string& cache_dir, uint64_t seed) {
  Shared shared;
  shared.seed = seed;
  const ZooModelId id = ZooModelId::kMnist2;
  // Training is deterministic for its fixed seed, so later runs in the
  // same build directory reuse the first run's model.
  const std::string path =
      cache_dir + "/mnist2-train" + std::to_string(kTrainSeed) + ".model";
  Result<Model> cached = Model::LoadFromFile(path);
  if (cached.ok()) {
    shared.model = std::move(cached).value();
  } else {
    shared.model = bench::Train(id, kTrainSeed).model;
    const std::string tmp = path + ".tmp";
    if (shared.model.SaveToFile(tmp).ok()) std::rename(tmp.c_str(), path.c_str());
  }
  const DatasetSplit data =
      MakeZooDataset(id, bench::DatasetScale(id), kTrainSeed);
  Rng rng(DeriveSeed(seed, 1));
  for (size_t i = 0; i < kInputPool; ++i) {
    shared.inputs.push_back(
        data.test.samples[rng.NextBounded(data.test.samples.size())]);
  }
  return shared;
}

PaillierKeyPair MakeKeys(int bits, uint64_t seed) {
  Rng rng(seed);
  Result<PaillierKeyPair> keys = Paillier::GenerateKeyPair(bits, rng);
  PPS_CHECK_OK(keys.status());
  return std::move(keys).value();
}

std::vector<DoubleTensor> References(const InferencePlan& plan,
                                     const Shared& shared) {
  std::vector<DoubleTensor> refs;
  for (const DoubleTensor& input : shared.inputs) {
    Result<DoubleTensor> ref = RunScaledPlainInference(plan, input);
    PPS_CHECK_OK(ref.status());
    refs.push_back(std::move(ref).value());
  }
  return refs;
}

class Workload {
 public:
  Workload(const Shared& shared, Tally* tally)
      : shared_(shared), tally_(tally) {}
  virtual ~Workload() = default;

  /// Fingerprint fields naming the configuration (JSON members).
  virtual std::string Config() const = 0;
  /// Reference outputs; runs before the measured set-up.
  virtual void Prepare() = 0;
  virtual void SetUp() = 0;
  virtual void TearDown() = 0;
  /// Measures for `seconds`.
  virtual Phase Run(double seconds) = 0;
  /// Traced runs: measures what the per-layer metrics need between the
  /// untraced and the traced half, with the providers as the window left
  /// them.
  virtual void Probe() {}
  virtual const PaillierKeyPair& keys() const = 0;
  /// Per-layer metrics only this workload can read.
  virtual void AddLayerMetrics(const Phase& untraced, const Phase& traced,
                               MetricSet* m) const {
    (void)untraced;
    (void)traced;
    (void)m;
  }

  double compile_ms() const { return 1e3 * Step("compile"); }
  /// The last set-up's steps, in order, with their seconds.
  const std::vector<std::pair<std::string, double>>& setup_steps() const {
    return steps_;
  }

 protected:
  /// Adds the time since `timer` started to set-up step `name` and
  /// restarts it.
  void EndStep(const char* name, WallTimer* timer) {
    const double seconds = timer->ElapsedSeconds();
    timer->Restart();
    for (auto& [step, total] : steps_) {
      if (step == name) {
        total += seconds;
        return;
      }
    }
    steps_.emplace_back(name, seconds);
  }
  double Step(const std::string& name) const {
    for (const auto& [step, seconds] : steps_) {
      if (step == name) return seconds;
    }
    return 0;
  }

  const Shared& shared_;
  Tally* tally_;
  std::vector<DoubleTensor> refs_;  // per input-pool slot
  std::vector<std::pair<std::string, double>> steps_;
  uint64_t next_id_ = 1;
};

// ---- stream-mnist2: the pipelined engine, closed loop.

class StreamWorkload final : public Workload {
 public:
  static constexpr int kKeyBits = 512;
  static constexpr size_t kInFlight = 4;

  using Workload::Workload;

  std::string Config() const override {
    return "\"model\": \"MNIST-2\", \"key_bits\": 512, \"load\": \"closed "
           "loop, 4 in flight\", \"engine\": \"ILP threads, 1+1 servers of "
           "nproc/2 cores, hyper-threading, tensor partitioning\"";
  }
  void Prepare() override {
    Result<InferencePlan> plan = CompilePlan(shared_.model, kScale);
    PPS_CHECK_OK(plan.status());
    refs_ = References(*plan, shared_);
  }
  void SetUp() override {
    steps_.clear();
    WallTimer timer;
    Result<InferencePlan> compiled = CompilePlan(shared_.model, kScale);
    PPS_CHECK_OK(compiled.status());
    auto plan = std::make_shared<InferencePlan>(std::move(compiled).value());
    EndStep("compile", &timer);
    keys_ = MakeKeys(kKeyBits, DeriveSeed(shared_.seed, 2));
    PPS_CHECK_OK(plan->CheckFitsKey(keys_.public_key.n()));
    EndStep("keys", &timer);
    mp_ = std::make_shared<ModelProvider>(plan, keys_.public_key,
                                          DeriveSeed(shared_.seed, 3));
    // A sustained stream drains any randomizer pool (the refill thread
    // makes fewer r^n per second than the stages consume), so the pool is
    // sized for one request: a larger one only lengthens set-up and the
    // transient before the steady state the window measures.
    DataProvider::Options dp_options;
    dp_options.prefill = true;
    dp_ = std::make_shared<DataProvider>(plan, keys_,
                                         DeriveSeed(shared_.seed, 4),
                                         dp_options);
    EndStep("providers", &timer);
    Result<PlanProfile> profile =
        ProfilePlan(*mp_, *dp_, {shared_.Input(0)});
    PPS_CHECK_OK(profile.status());
    EndStep("profile", &timer);
    const int cores = static_cast<int>(std::max(1u, Nproc() / 2));
    Result<Allocation> allocation = IlpAllocator::Solve(BuildAllocationProblem(
        *profile, /*model_servers=*/1, /*data_servers=*/1, cores,
        /*hyper_threading=*/true));
    PPS_CHECK_OK(allocation.status());
    EndStep("ilp", &timer);

    EngineConfig config;
    config.stage_threads = StageThreadsFromAllocation(*allocation);
    config.tensor_partitioning = true;
    engine_ = std::make_unique<PpStreamEngine>(
        std::make_shared<MpProbe>(mp_, /*remote=*/false),
        std::make_shared<DpProbe>(dp_), config);
    PPS_CHECK_OK(engine_->Start());
    EndStep("engine", &timer);
    PPS_CHECK_EQ(engine_->pipeline().NumStages(), StreamStages().size());
    std::string threads;
    for (size_t i = 0; i < StreamStages().size(); ++i) {
      PPS_CHECK(engine_->pipeline().stage(i).name() == StreamStages()[i]);
      threads += (i ? "-" : "") + std::to_string(config.stage_threads[i]);
    }
    std::printf("stage threads %s\n", threads.c_str());
  }
  void TearDown() override {
    if (engine_) engine_->Shutdown();
    engine_.reset();
    dp_.reset();
    mp_.reset();
  }

  Phase Run(double seconds) override {
    Phase phase;
    std::deque<size_t> in_flight;  // completion order is submission order
    auto submit = [&] {
      Request r;
      r.id = next_id_++;
      r.due = r.sent = Now();
      phase.requests.push_back(r);
      if (engine_->Submit(r.id, shared_.Input(r.id)).ok()) {
        in_flight.push_back(phase.requests.size() - 1);
      } else {
        tally_->Check(nullptr, Ref(r.id));
      }
    };
    for (size_t i = 0; i < kInFlight; ++i) submit();
    // The window opens once the pipeline has turned over once and closes
    // at the last completion before the deadline.
    size_t completed = 0;
    double deadline = std::numeric_limits<double>::infinity();
    std::vector<double> busy_begin, busy_end;
    while (!in_flight.empty()) {
      Result<InferenceResult> result = engine_->NextResult();
      const double done = Now();
      Request& r = phase.requests[in_flight.front()];
      in_flight.pop_front();
      r.done = done;
      const bool matched = result.ok() && result->request_id == r.id;
      r.ok = tally_->Check(matched ? &result->output : nullptr, Ref(r.id));
      ++completed;
      if (completed == kInFlight) {
        phase.begin = Mark::Take();
        busy_begin = Busy();
        deadline = done + seconds;
      } else if (completed > kInFlight && done <= deadline) {
        r.timed = true;
        phase.end = Mark::Take();
        busy_end = Busy();
      }
      if (done < deadline) submit();
    }
    for (size_t i = 0; i < busy_end.size(); ++i) {
      phase.stage_busy_seconds.push_back(busy_end[i] - busy_begin[i]);
    }
    return phase;
  }

  /// Fig. 8's CipherBase: one request at a time through the synchronous
  /// RunProtocolInference on the engine's own providers, right after the
  /// window, so the randomizer pool is as drained as the window left it.
  void Probe() override {
    std::vector<double> seconds;
    for (int i = 0; i < kSequentialProbes; ++i) {
      const uint64_t id = next_id_++;
      WallTimer timer;
      Result<DoubleTensor> out =
          RunProtocolInference(*mp_, *dp_, id, shared_.Input(id));
      seconds.push_back(timer.ElapsedSeconds());
      tally_->Check(out.ok() ? &out.value() : nullptr, Ref(id));
    }
    sequential_seconds_ = Median(seconds);
    std::printf("sequential RunProtocolInference: median %.1f ms of %d\n",
                1e3 * sequential_seconds_, kSequentialProbes);
  }

  const PaillierKeyPair& keys() const override { return keys_; }

  void AddLayerMetrics(const Phase& untraced, const Phase& traced,
                       MetricSet* m) const override {
    for (size_t i = 0; i < StreamStages().size(); ++i) {
      const double busy = i < traced.stage_busy_seconds.size()
                              ? traced.stage_busy_seconds[i]
                              : 0;
      m->Set("stream.busy_frac." + StreamStages()[i], busy / traced.Window(),
             "ratio");
      m->Set("planner.threads." + StreamStages()[i],
             static_cast<double>(engine_->pipeline().stage(i).num_threads()),
             "count");
    }
    m->Set("planner.allocate_ms", 1e3 * (Step("profile") + Step("ilp")), "ms");
    const double rps =
        static_cast<double>(untraced.Correct()) / untraced.Window();
    m->Set("stream.speedup_vs_sequential", rps * sequential_seconds_, "x");
  }

 private:
  const DoubleTensor& Ref(uint64_t id) const { return refs_[id % refs_.size()]; }
  std::vector<double> Busy() const {
    std::vector<double> busy;
    for (size_t i = 0; i < engine_->pipeline().NumStages(); ++i) {
      busy.push_back(engine_->pipeline().stage(i).metrics().busy_seconds);
    }
    return busy;
  }

  PaillierKeyPair keys_;
  std::shared_ptr<ModelProvider> mp_;
  std::shared_ptr<DataProvider> dp_;
  std::unique_ptr<PpStreamEngine> engine_;
  double sequential_seconds_ = 0;  // median RunProtocolInference latency
};

// ---- serve-mnist2: TCP sessions against one server, open loop.

class ServeWorkload final : public Workload {
 public:
  static constexpr int kKeyBits = 256;
  static constexpr size_t kSessions = 4;
  static constexpr double kRate = 2.0;  // requests per second

  using Workload::Workload;
  ~ServeWorkload() override { TearDown(); }

  std::string Config() const override {
    return "\"model\": \"MNIST-2\", \"key_bits\": 256, \"load\": \"open loop, "
           "2 req/s constant gaps, 4 TCP sessions\"";
  }
  void Prepare() override {
    Result<InferencePlan> plan = CompilePlan(shared_.model, kScale);
    PPS_CHECK_OK(plan.status());
    refs_ = References(*plan, shared_);
  }
  void SetUp() override {
    steps_.clear();
    WallTimer timer;
    Result<InferencePlan> compiled = CompilePlan(shared_.model, kScale);
    PPS_CHECK_OK(compiled.status());
    auto plan =
        std::make_shared<const InferencePlan>(std::move(compiled).value());
    EndStep("compile", &timer);
    ModelProviderServerOptions options;
    options.admin_port = 0;
    options.max_concurrent_connections = kSessions;
    options.session.max_sessions = 2 * kSessions;
    server_ = std::make_unique<ModelProviderTcpServer>(plan, options);
    PPS_CHECK_OK(server_->Listen(0));
    serve_thread_ = std::thread([server = server_.get()] {
      PPS_CHECK_OK(server->Serve());
    });
    EndStep("listen", &timer);
    for (size_t s = 0; s < kSessions; ++s) {
      Session session;
      session.keys = MakeKeys(kKeyBits, DeriveSeed(shared_.seed, 10 + s));
      EndStep("keys", &timer);
      Result<std::unique_ptr<TcpTransport>> transport = TcpTransport::Connect(
          "127.0.0.1", server_->port(), session.keys.public_key);
      PPS_CHECK_OK(transport.status());
      session.transport = std::move(transport).value();
      EndStep("handshakes", &timer);
      DataProvider::Options dp_options;
      dp_options.prefill = true;
      session.dp = std::make_shared<DpProbe>(std::make_shared<DataProvider>(
          session.transport->view_plan(), session.keys,
          DeriveSeed(shared_.seed, 20 + s), dp_options));
      session.mp = std::make_shared<MpProbe>(
          session.transport->model_provider(), /*remote=*/true);
      sessions_.push_back(std::move(session));
      EndStep("providers", &timer);
    }
  }
  void TearDown() override {
    for (Session& s : sessions_) s.transport->Close();
    sessions_.clear();
    if (server_) server_->BeginDrain(/*grace_seconds=*/1.0);
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
  }

  Phase Run(double seconds) override {
    Phase phase;
    const size_t count =
        static_cast<size_t>(std::ceil(seconds * kRate - 1e-9));
    phase.requests.resize(kSessions + count);
    for (Request& r : phase.requests) r.id = next_id_++;
    // Warm-up: one untimed inference per session.
    OnSessions([&](size_t s) {
      Request& r = phase.requests[s];
      r.due = Now();
      Infer(s, &r);
    });
    const double frames0 = NetTotal(/*bytes=*/false);
    const double bytes0 = NetTotal(/*bytes=*/true);
    phase.begin = Mark::Take();
    const double t0 = phase.begin.time + 0.01;
    std::atomic<size_t> next{0};
    OnSessions([&](size_t s) {
      for (size_t k = next.fetch_add(1); k < count; k = next.fetch_add(1)) {
        Request& r = phase.requests[kSessions + k];
        r.due = t0 + static_cast<double>(k) / kRate;
        const double wait = r.due - Now();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        r.timed = true;
        Infer(s, &r);
      }
    });
    phase.end = Mark::Take();
    phase.begin.time = t0;
    phase.net_frames = NetTotal(false) - frames0;
    phase.net_bytes = NetTotal(true) - bytes0;
    return phase;
  }

  const PaillierKeyPair& keys() const override { return sessions_[0].keys; }

  void AddLayerMetrics(const Phase& untraced, const Phase& traced,
                       MetricSet* m) const override {
    const double n = static_cast<double>(traced.Timed());
    m->Set("net.frames_per_req", traced.net_frames / n, "count");
    m->Set("net.kb_per_req", traced.net_bytes / 1024 / n, "KB");
    std::vector<double> delays;
    for (const Request& r : untraced.requests) {
      if (r.timed) delays.push_back(r.sent - r.due);
    }
    std::sort(delays.begin(), delays.end());
    m->Set("loadgen.start_delay_p99_ms", 1e3 * Quantile(delays, 0.99), "ms");
  }

 private:
  struct Session {
    PaillierKeyPair keys;
    std::unique_ptr<TcpTransport> transport;
    std::shared_ptr<DpProbe> dp;
    std::shared_ptr<MpProbe> mp;
  };

  void Infer(size_t s, Request* r) {
    r->sent = Now();
    Result<DoubleTensor> out = Status::Internal("not run");
    {
      obs::ScopedSpan root =
          obs::ScopedSpan::Root("perfbench.request", "request", r->id);
      out = RunProtocolInference(*sessions_[s].mp, *sessions_[s].dp, r->id,
                                 shared_.Input(r->id));
    }
    r->done = Now();
    r->ok = tally_->Check(out.ok() ? &out.value() : nullptr,
                          refs_[r->id % refs_.size()]);
  }
  void OnSessions(const std::function<void(size_t)>& fn) {
    std::vector<std::thread> threads;
    for (size_t s = 0; s < sessions_.size(); ++s) threads.emplace_back(fn, s);
    for (std::thread& t : threads) t.join();
  }
  double NetTotal(bool bytes) const {
    double total = 0;
    for (const Session& s : sessions_) {
      const TransportStats st = s.transport->stats();
      total += bytes ? static_cast<double>(st.bytes_sent + st.bytes_received)
                     : static_cast<double>(st.frames_sent + st.frames_received);
    }
    return total;
  }

  std::unique_ptr<ModelProviderTcpServer> server_;
  std::thread serve_thread_;
  std::vector<Session> sessions_;
};

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string cache_dir = ".";
  std::string trace_out;
  std::string git_commit = "none";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--cache-dir") {
      args.cache_dir = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--git-commit") {
      args.git_commit = value;
    } else {
      PPS_CHECK(false) << "unknown flag " << key;
    }
  }
  PPS_CHECK(args.seconds > 0) << "--seconds must be positive";
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Shared& shared, Tally* tally) {
  if (name == "stream-mnist2") {
    return std::make_unique<StreamWorkload>(shared, tally);
  }
  if (name == "serve-mnist2") {
    return std::make_unique<ServeWorkload>(shared, tally);
  }
  PPS_CHECK(false) << "unknown workload " << name;
  return nullptr;
}

/// The end-to-end metrics of an untraced phase (failed_frac is the run's
/// Tally, reported by Main). Only correct inferences count as work done.
void EndToEnd(const Phase& phase, double peak_rss_mb, double setup_s,
              MetricSet* m) {
  const double correct = static_cast<double>(phase.Correct());
  const std::vector<double> latencies = phase.SortedLatencies();
  const Tail tail = PickTail(latencies);
  m->Set("throughput_rps", correct / phase.Window(), "1/s");
  m->Set("latency_p50_ms", 1e3 * Quantile(latencies, 0.5), "ms");
  m->Set("latency_tail_ms", 1e3 * tail.value, "ms");
  m->Set("cpu_ms_per_req",
         1e3 * (phase.end.cpu - phase.begin.cpu) / std::max(correct, 1.0),
         "ms");
  m->Set("peak_rss_mb", peak_rss_mb, "MB");
  m->Set("setup_s", setup_s, "s");
  std::printf("latency samples: %zu requests, tail is p%.1f (%zu samples "
              "beyond)\n",
              latencies.size(), tail.percentile, tail.beyond);
}

/// Per-layer metrics from an untraced and a traced phase.
void PerLayer(const Workload& w, uint64_t seed, const Phase& untraced,
              const Phase& traced, const std::vector<obs::SpanRecord>& spans,
              MetricSet* m) {
  DeclareLayerMetrics(m);
  TimeKernels(w.keys(), DeriveSeed(seed, 7), m);
  const double inferences = static_cast<double>(traced.Timed());
  Counters d = traced.end.counters;
  for (auto& [name, value] : d) value -= traced.begin.counters.at(name);
  auto ratio = [](double part, double whole) {
    return whole == 0 ? 0.0 : part / whole;
  };
  m->Set("crypto.scalar_muls_per_req", d["crypto.scalar_muls"] / inferences,
         "count");
  m->Set("crypto.encrypts_per_req", d["crypto.encrypts"] / inferences,
         "count");
  m->Set("crypto.decrypts_per_req", d["crypto.decrypts"] / inferences,
         "count");
  m->Set("crypto.pool_produced_per_req",
         d["crypto.pool.produced"] / inferences, "count");
  m->Set("crypto.pool_miss_frac",
         ratio(d["crypto.pool.misses"],
               d["crypto.pool.hits"] + d["crypto.pool.misses"]),
         "ratio");
  m->Set("obs.cost_reconciled_frac",
         ratio(d["cost.reconciled"],
               d["cost.reconciled"] + d["cost.contended_skips"]),
         "ratio");
  m->Set("planner.compile_ms", w.compile_ms(), "ms");
  const double p50_untraced = Quantile(untraced.SortedLatencies(), 0.5);
  const double p50_traced = Quantile(traced.SortedLatencies(), 0.5);
  m->Set("obs.trace_overhead_frac", p50_traced / p50_untraced - 1, "ratio");

  // Self times per request, over the timed requests of the traced phase.
  std::set<uint64_t> timed;
  for (const Request& r : traced.requests) {
    if (r.timed) timed.insert(r.id);
  }
  const Attribution a = Attribute(spans, timed);
  double wall = 0, start_delay = 0;
  size_t requests = 0;
  for (const Request& r : traced.requests) {
    if (!r.timed || a.rooted.count(r.id) == 0) continue;
    wall += r.done - r.due;
    start_delay += r.sent - r.due;
    ++requests;
  }
  PPS_CHECK(requests > 0) << "no traced request kept its root span";
  const double per = 1e3 / static_cast<double>(requests);
  double attributed = start_delay * per;
  m->Set("loadgen.start_delay_ms", start_delay * per, "ms");
  for (const auto& [row, seconds] : a.row_seconds) {
    if (row == "unattributed_ms") continue;
    m->Set(row, seconds * per, "ms");
    attributed += seconds * per;
  }
  m->Set("net.rpc_ms", a.rpc_seconds * per, "ms");
  m->Set("net.server_ms", a.server_seconds * per, "ms");
  const double wall_ms = wall * per;
  const double unattributed_ms = wall_ms - attributed;
  m->Set("request_wall_ms", wall_ms, "ms");
  m->Set("unattributed_ms", unattributed_ms, "ms");
  m->Set("unattributed_frac", unattributed_ms / wall_ms, "ratio");
  w.AddLayerMetrics(untraced, traced, m);

  std::printf("\nself time per request (%zu traced requests)\n", requests);
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [row, seconds] : a.row_seconds) {
    if (row != "unattributed_ms") rows.emplace_back(seconds * per, row);
  }
  if (start_delay > 0) rows.emplace_back(start_delay * per, "loadgen.start_delay_ms");
  std::sort(rows.rbegin(), rows.rend());
  for (const auto& [ms, row] : rows) {
    std::printf("  %-24s %10.3f ms %6.1f%%\n", row.c_str(), ms,
                100 * ms / wall_ms);
  }
  std::printf("  %-24s %10.3f ms %6.1f%%\n", "unattributed", unattributed_ms,
              100 * unattributed_ms / wall_ms);
  std::printf("  %-24s %10.3f ms\n\n", "request wall time", wall_ms);
}

void PrintMetrics(const MetricSet& m) {
  for (const MetricSet::Entry& e : m.entries()) {
    std::printf("  %-34s %14.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Tally tally;
  const Shared shared = LoadShared(args.cache_dir, args.seed);
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, shared, &tally);
  workload->Prepare();
  obs::MetricsRegistry::Global().Reset();

  std::printf("== perfbench %s, seed %llu, %g s, tracing %s ==\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? "on (half the run)" : "off");
  ResetPeakRss();
  std::vector<double> setups;
  auto set_up = [&] {
    if (!setups.empty()) workload->TearDown();
    WallTimer timer;
    workload->SetUp();
    setups.push_back(timer.ElapsedSeconds());
    std::printf("set-up %zu: %.3f s (", setups.size(), setups.back());
    for (const auto& [step, seconds] : workload->setup_steps()) {
      std::printf(" %s %.3f", step.c_str(), seconds);
    }
    std::printf(" )\n");
  };
  for (int i = 0; i < kSetupsBefore; ++i) set_up();

  MetricSet metrics;
  if (!args.trace) {
    const Phase phase = workload->Run(args.seconds);
    PPS_CHECK(phase.Timed() > 0) << "no request completed inside the window";
    const double peak_rss_mb = PeakRssMb();
    for (int i = 0; i < kSetupsAfter; ++i) set_up();
    EndToEnd(phase, peak_rss_mb, Median(setups), &metrics);
  } else {
    const Phase untraced = workload->Run(args.seconds / 2);
    workload->Probe();
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Clear();
    tracer.SetEnabled(true);
    const Phase traced = workload->Run(args.seconds / 2);
    tracer.SetEnabled(false);
    PPS_CHECK(untraced.Timed() > 0 && traced.Timed() > 0)
        << "no request completed inside the window";
    PerLayer(*workload, args.seed, untraced, traced, tracer.Snapshot(),
             &metrics);
    if (tracer.dropped() > 0) {
      std::printf("warning: the tracer dropped %llu spans\n",
                  static_cast<unsigned long long>(tracer.dropped()));
    }
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      tracer.WriteChromeJson(out);
      std::printf("wrote %s\n", args.trace_out.c_str());
    }
  }
  workload->TearDown();

  const uint64_t attempted = tally.attempted.load();
  const uint64_t failed = tally.failed.load();
  std::printf("\nfailed_frac %.6g (%llu of %llu inferences)\n",
              attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  PrintMetrics(metrics);

  std::printf(
      "fingerprint {\"nproc\": %u, \"cpu_model\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"git_commit\": %s, "
      "\"workload\": %s, %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
      Nproc(), JsonString(CpuModel()).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(args.git_commit).c_str(),
      JsonString(args.workload).c_str(), workload->Config().c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0);

  std::string json = "{\"correct\": ";
  json += failed == 0 && attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSet::Entry& e : metrics.entries()) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(e.name) + ": {\"value\": " + JsonNumber(e.value) +
            ", \"unit\": " + JsonString(e.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace ppstream

int main(int argc, char** argv) { return ppstream::Main(argc, argv); }
