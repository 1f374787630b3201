#!/usr/bin/env bash
# Benchmark driver for the crypto hot path.
#
# Runs bench_micro_crypto (google-benchmark), bench_fig1_paillier, and
# bench_table3_models, and distills the micro-benchmark console output into
# a machine-readable bench/BENCH_crypto.json with one record per op:
#   {"op": "BM_PaillierEncrypt/512", "ns_per_op": 451234, "key_bits": 512}
#
# key_bits is the Paillier key size the op ran under: the (first) benchmark
# arg for ops that sweep key size, 512 for the remaining Paillier ops (their
# fixed key, see bench_micro_crypto.cc), and 0 for non-Paillier primitives
# where the arg is an operand width instead.
#
# Also runs bench_pipeline, which writes bench/BENCH_pipeline.json
# (per-stage latency quantiles + crypto/net counter totals from the
# metrics registry) and bench/metrics.prom; the Prometheus exposition is
# linted both by the bench itself and by the awk check below — a
# malformed exposition fails the run.
#
# And bench_chaos_tcp, which writes bench/BENCH_chaos.json (recovery
# latency + retry-storm amplification over a real loopback server under
# socket resets and a server restart) plus its own Prometheus exposition
# — the only one where the whole resilience family (net.session.*,
# net.reconnects, fault.injected.net.sock.*) is live at once; both
# expositions are held to the required-families expectations below.
#
# And bench_serving, which sweeps 1..N concurrent client sessions against
# a live TCP server with the admin endpoint on, writes
# bench/BENCH_serving.json (per-level p50/p99 latency, throughput, pool
# miss rate, cost-attribution outcome) and a Prometheus exposition
# scraped LIVE from /metrics mid-sweep — that file must carry the
# serving + cost families and pass the same awk lint.
#
# Usage:
#   bench/run_benchmarks.sh            # full run (writes BENCH_crypto.json)
#   bench/run_benchmarks.sh --smoke    # CI smoke: 1-iteration benches,
#                                      # 256-bit keys only for Figure 1,
#                                      # serving sweep capped at 8 sessions
#
# This driver is self-contained: it does not build or invoke ppslint (the
# lint_prom check below is its own awk, unrelated to the source linter),
# so --smoke runs green whether or not CI's lint job has even started.
#
# Env overrides: BUILD_DIR (default build), OUT_JSON, PIPELINE_JSON,
# CHAOS_JSON, SERVING_JSON, PROM_OUT, SERVING_PROM, MIN_TIME,
# FIG1_MAX_BITS.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT_JSON=${OUT_JSON:-bench/BENCH_crypto.json}
PIPELINE_JSON=${PIPELINE_JSON:-bench/BENCH_pipeline.json}
CHAOS_JSON=${CHAOS_JSON:-bench/BENCH_chaos.json}
SERVING_JSON=${SERVING_JSON:-bench/BENCH_serving.json}
PROM_OUT=${PROM_OUT:-bench/metrics.prom}
SERVING_PROM=${SERVING_PROM:-bench/serving_metrics.prom}

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
fi

if [[ $SMOKE -eq 1 ]]; then
  # min_time=0 makes google-benchmark settle for a single iteration.
  MIN_TIME=0
  FIG1_MAX_BITS=256
else
  MIN_TIME=${MIN_TIME:-0.15}
  FIG1_MAX_BITS=${FIG1_MAX_BITS:-1024}
fi

for bin in bench_micro_crypto bench_fig1_paillier bench_table3_models \
           bench_pipeline bench_chaos_tcp bench_serving; do
  if [[ ! -x "$BUILD_DIR/bench/$bin" ]]; then
    echo "error: $BUILD_DIR/bench/$bin not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

MICRO_TXT=$(mktemp)
CHAOS_PROM=$(mktemp)
trap 'rm -f "$MICRO_TXT" "$CHAOS_PROM"' EXIT

echo "== bench_micro_crypto (min_time=${MIN_TIME}s) =="
"$BUILD_DIR/bench/bench_micro_crypto" \
  --benchmark_min_time="$MIN_TIME" | tee "$MICRO_TXT"

echo
echo "== bench_fig1_paillier (max key bits: $FIG1_MAX_BITS) =="
"$BUILD_DIR/bench/bench_fig1_paillier" "$FIG1_MAX_BITS"

echo
echo "== bench_table3_models =="
"$BUILD_DIR/bench/bench_table3_models"

echo
echo "== bench_pipeline (telemetry end-to-end) =="
PIPELINE_ARGS=(--out "$PIPELINE_JSON" --prom "$PROM_OUT")
if [[ $SMOKE -eq 1 ]]; then
  PIPELINE_ARGS+=(--smoke)
fi
"$BUILD_DIR/bench/bench_pipeline" "${PIPELINE_ARGS[@]}"

echo
echo "== bench_chaos_tcp (recovery latency / retry amplification) =="
CHAOS_ARGS=(--out "$CHAOS_JSON" --prom "$CHAOS_PROM")
if [[ $SMOKE -eq 1 ]]; then
  CHAOS_ARGS+=(--smoke)
fi
"$BUILD_DIR/bench/bench_chaos_tcp" "${CHAOS_ARGS[@]}"

echo
echo "== bench_serving (concurrency sweep + live /metrics scrape) =="
SERVING_ARGS=(--out "$SERVING_JSON" --prom "$SERVING_PROM")
if [[ $SMOKE -eq 1 ]]; then
  SERVING_ARGS+=(--smoke)
fi
"$BUILD_DIR/bench/bench_serving" "${SERVING_ARGS[@]}"

# Second, independent lint of a Prometheus exposition: every sample line
# must be `name value` with a bare-metric or labeled-metric name and a
# numeric (or +/-Inf / NaN) value, and every name must carry a # TYPE.
lint_prom() {
  awk '
    /^#[ ]TYPE[ ]/ { typed[$3] = 1; next }
    /^#/ || /^$/ { next }
    {
      if (NF != 2) { print "prom lint: bad sample: " $0; exit 1 }
      name = $1
      sub(/\{.*\}$/, "", name)
      if (name !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*$/) {
        print "prom lint: bad metric name: " $1; exit 1
      }
      if ($2 !~ /^[+-]?([0-9]|Inf|NaN)/) {
        print "prom lint: non-numeric value: " $0; exit 1
      }
      # Histogram series (_bucket/_sum/_count) inherit their familys TYPE.
      base = name
      sub(/_(bucket|sum|count)$/, "", base)
      if (!(name in typed) && !(base in typed)) {
        print "prom lint: sample without # TYPE: " name; exit 1
      }
    }
  ' "$1"
  echo "prom lint OK ($1)"
}

# Required families. Every channel-opening process registers the
# resilience counters up front (NetMetrics in src/net/transport.cc), so
# they must appear — at zero if nothing broke — in ANY exposition,
# metrics.prom included:
#   pps_net_reconnects           successful re-dials after a drop
#   pps_net_reconnect_seconds    recovery latency histogram
#   pps_net_exchange_attempts    physical wire attempts (resends included)
#   pps_net_inference_restarts   whole-inference restarts (session lost)
#   pps_net_pings                liveness probes sent
# The pipeline bench compiles plans through the pass pipeline, so its
# exposition must carry the planner families (pps_planner_pass_runs,
# pps_planner_ir_{nodes,tensors}, pps_planner_fuse_ops_fused,
# pps_planner_dce_tensors_removed, per-pass seconds histograms).
# Its packing probe runs the packed-ciphertext path and the compression
# pass, so the packing codec, packed-kernel, packing-pass, and
# quantization families must be live too:
#   pps_crypto_pack_{packs,unpacks,hom_adds}       codec + kernel fold ops
#   pps_planner_pack_{rounds_packed,rounds_fallback,kernels_lowered}
#   pps_nn_quant_{weights_pruned,layers_compressed} compression pass
#   pps_nn_quant_distinct_values_{before,after}     group-mul lever
# The chaos bench exposition must additionally carry the families only a
# session-serving + fault-injected process produces:
#   pps_net_session_{created,resumed,lost,evicted,active} session lifecycle
#   pps_fault_injected_error_net_sock_reset               fired socket faults
require_families() {
  local file=$1; shift
  for family in "$@"; do
    if ! grep -q "^$family" "$file"; then
      echo "prom lint: required family missing from $file: $family" >&2
      exit 1
    fi
  done
  echo "prom required families OK ($file: $#)"
}

lint_prom "$PROM_OUT"
lint_prom "$CHAOS_PROM"
require_families "$PROM_OUT" \
  pps_net_reconnects pps_net_reconnect_seconds pps_net_exchange_attempts \
  pps_net_inference_restarts pps_net_pings \
  pps_planner_pass_runs pps_planner_ir_nodes pps_planner_ir_tensors \
  pps_planner_fuse_ops_fused pps_planner_dce_tensors_removed \
  pps_planner_pass_fuse_affine_chains_seconds \
  pps_crypto_pack_packs pps_crypto_pack_unpacks pps_crypto_pack_hom_adds \
  pps_planner_pack_rounds_packed pps_planner_pack_rounds_fallback \
  pps_planner_pack_kernels_lowered \
  pps_nn_quant_weights_pruned pps_nn_quant_layers_compressed \
  pps_nn_quant_distinct_values_before pps_nn_quant_distinct_values_after
require_families "$CHAOS_PROM" \
  pps_net_reconnects pps_net_reconnect_seconds pps_net_exchange_attempts \
  pps_net_inference_restarts pps_net_pings \
  pps_net_session_created pps_net_session_resumed pps_net_session_lost \
  pps_net_session_evicted pps_net_session_active \
  pps_fault_injected_error_net_sock_reset
# The serving exposition is scraped live from the admin endpoint while
# the sweep is in flight, so it must carry the serving-path and
# cost-attribution families a dashboard would alert on.
lint_prom "$SERVING_PROM"
require_families "$SERVING_PROM" \
  pps_serving_requests pps_serving_request_seconds pps_serving_frames \
  pps_serving_inflight \
  pps_cost_reconciled pps_cost_contended_skips pps_cost_overrun \
  pps_cost_scalar_mul_ratio pps_cost_encrypt_ratio \
  pps_crypto_scalar_muls pps_crypto_encrypts pps_crypto_pool_hits \
  pps_net_session_created pps_net_session_active

# Console rows look like:  BM_PaillierEncrypt/512   451234 ns   451100 ns   10
awk '
  BEGIN { n = 0 }
  /^BM_/ {
    name = $1; ns = $2
    split(name, parts, "/")
    base = parts[1]
    arg = (length(parts) > 1) ? parts[2] : ""
    kb = 0
    if (base == "BM_PaillierEncrypt" || base == "BM_PaillierDecrypt" ||
        base == "BM_PaillierEncryptPooled" ||
        base == "BM_PaillierRandomizerKeyHolder" ||
        base == "BM_WeightGroupFoldVsTable") {
      kb = arg + 0
    } else if (base ~ /^BM_Paillier/) {
      kb = 512
    }
    ops[n] = name; nss[n] = ns; kbs[n] = kb; n++
  }
  END {
    printf("[\n")
    for (i = 0; i < n; i++) {
      printf("  {\"op\": \"%s\", \"ns_per_op\": %s, \"key_bits\": %d}%s\n",
             ops[i], nss[i], kbs[i], (i + 1 < n) ? "," : "")
    }
    printf("]\n")
  }
' "$MICRO_TXT" > "$OUT_JSON"

echo
echo "wrote $OUT_JSON ($(grep -c '"op"' "$OUT_JSON") ops)"
