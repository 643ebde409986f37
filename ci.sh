#!/usr/bin/env bash
# Tier-1 verification gate for the caf-audit reproduction.
#
# Mirrors what reviewers run before merging: formatting, a hermeticity
# gate (`cargo metadata` must list only path packages — the workspace
# is std-only), an offline release build, the full test suite (unit +
# integration + doc) offline, clippy at deny-warnings across every
# target (lib, bins, benches, tests) offline, the
# cold-path equivalence suite at two different worker-pool shapes, a
# quick world-bench run whose `BENCH_world.json` must pass the caf-obs
# schema gate (and, on hosts with >= 4 cores, the shard scheduler's
# 4-worker speedup gate plus the >= 1.3x bootstrap speedup gate), a
# campaign bench smoke whose `BENCH_campaign.json` must pass the schema
# gate (with the campaign speedup gate on >= 4 cores) and which
# self-asserts checkpoint resume equality, a checkpoint/resume smoke
# that SIGKILLs a `campaign_run` mid-flight and byte-diffs the resumed
# result against an uninterrupted reference, an observability smoke run (a tiny repro
# experiment whose run report must pass the full metrics_check gate),
# the calibration gate (`repro validate` must pass all of the
# reproduction's shape checks at the default seed and scale, the same
# checks the committed `repro_output.txt` ends with), the golden
# byte-identity gate (`repro all` at 1 and 4 workers must print exactly
# the committed `repro_output.txt` and dump byte-identical
# `repro_artifacts/*.csv`), and the serving-layer gate: `caf-serve` is started on an ephemeral
# port at two HTTP worker counts, its `/v1/table2` response is
# byte-compared against the golden artifact the same repro run wrote,
# its `/v1/debug/traces` flight recorder must show the request's span
# path (route -> cache lookup -> render), its `/metrics` report must
# pass the full metrics_check gate including the per-route SLO burn
# gate, its Prometheus exposition must render, and it must shut down
# cleanly via `/quitquitquit` (a leaked thread or hung process fails
# the gate). The snapshot restart gate boots a server with
# `--snapshot-dir`, advances three challenge epochs, snapshots, and
# restarts: the restarted server must report the snapshot loaded and
# serve byte-identical `/v1/table2` bytes at epoch 0 and epoch 3, and
# (on >= 4 cores) the in-process restore must be >= 10x faster than the
# cold first-200 wall. The challenge-replay gate runs the committed
# sample delta stream through `challenge_replay` in incremental and
# full mode and byte-compares the artifact sets (the epoch-versioned
# incremental-recompute determinism contract), and the challenge bench
# smoke validates `BENCH_challenge.json` (with the >= 5x incremental
# speedup gate on hosts with >= 4 cores). The sweep determinism gate
# runs the release `caf-sweep` binary over the committed
# `testdata/sweep_spec.json` at {1,4} workers, stealing vs pinned lanes,
# and byte-compares all four results.json/results.csv emissions (the
# grid-cell determinism contract), and the sweep bench smoke validates
# `BENCH_sweep.json` (with the >= 1.0x 4-worker sweep speedup gate on
# hosts with >= 4 cores). Every threshold gate above is one
# `metrics_check --gate '<metric> <op> <number>'` comparison; the
# `metric_gate` lines are the gate table (report, metric, threshold and
# the core count below which the gate skips). A supply-chain check
# (`cargo deny`) runs when the tool is installed, and the script fails
# if any gate left the git worktree dirtier than it found it. A
# per-gate wall-clock summary is printed just before the final
# all-passed line.
#
# All generated reports/artifacts land in $CAF_CI_OUT (a temp dir by
# default; CI sets it to a workspace path and uploads it), never in
# tracked files.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# Snapshot worktree state up front: the final gate asserts that no CI
# step modified tracked files (e.g. a bench overwriting its committed
# baseline).
status_before=""
if command -v git >/dev/null && git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  status_before=$(git status --porcelain)
fi

ci_out=${CAF_CI_OUT:-}
cleanup_out=""
if [ -z "$ci_out" ]; then
  ci_out=$(mktemp -d /tmp/caf_ci.XXXXXX)
  cleanup_out="$ci_out"
fi
mkdir -p "$ci_out"
serve_pid=""
cleanup() {
  if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
    kill -9 "$serve_pid" 2>/dev/null || true
  fi
  if [ -n "$cleanup_out" ]; then
    rm -rf "$cleanup_out"
  fi
}
trap cleanup EXIT

# Per-gate wall-clock accounting: `gate NAME` closes the previous
# gate's clock, starts a new one, and prints the usual `==>` marker.
# `gate_summary` (called just before the final all-passed line) flushes
# the last gate and prints the whole table, so slow gates are obvious
# from the log without timestamp archaeology.
gate_names=()
gate_ms=()
current_gate=""
gate_started_ns=0
gate_close() {
  if [ -n "$current_gate" ]; then
    gate_names+=("$current_gate")
    gate_ms+=($(( ($(date +%s%N) - gate_started_ns) / 1000000 )))
    current_gate=""
  fi
}
gate() {
  gate_close
  current_gate="$1"
  gate_started_ns=$(date +%s%N)
  echo "==> $1"
}
gate_summary() {
  gate_close
  echo "==> per-gate timing summary"
  local i
  for i in "${!gate_names[@]}"; do
    printf '    %5d.%03ds  %s\n' \
      $(( gate_ms[i] / 1000 )) $(( gate_ms[i] % 1000 )) "${gate_names[i]}"
  done
}

# The metric gate table is the `metric_gate MIN_CORES NAME REPORT EXPR`
# lines below: each runs `metrics_check --schema-only --gate EXPR REPORT`
# as its own gate on hosts with at least MIN_CORES cores and says it
# skipped otherwise. Speedups and wall-clock caps need real parallelism
# (MIN_CORES 4): on tiny shared hosts they measure scheduler noise.
cores=$(nproc 2>/dev/null || echo 1)
metric_gate() {
  local min_cores=$1 name=$2 report=$3 expr=$4
  if [ "$cores" -ge "$min_cores" ]; then
    gate "$name (host has $cores cores)"
    cargo run --release -q -p caf-bench --bin metrics_check -- \
      --schema-only --gate "$expr" "$report"
  else
    echo "==> skipping $name (host has $cores cores, need $min_cores)"
  fi
}

# `start_serve LABEL PORT_FILE ARGS...` boots caf-serve with ARGS on an
# ephemeral port, waits up to 10 s for its port file, and sets
# `serve_pid` (which the EXIT trap kills if still alive) and `addr`.
# `stop_serve LABEL` shuts it down via /quitquitquit; a server still
# alive 10 s later fails the gate.
start_serve() {
  local label=$1 port_file=$2
  shift 2
  rm -f "$port_file"
  ./target/release/caf-serve --addr 127.0.0.1:0 --port-file "$port_file" --quiet "$@" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
      echo "$label exited before startup" >&2
      exit 1
    fi
    sleep 0.1
  done
  [ -s "$port_file" ] || { echo "$label never wrote its port file" >&2; exit 1; }
  addr=$(cat "$port_file")
}
stop_serve() {
  curl -fsS "http://$addr/quitquitquit" >/dev/null
  for _ in $(seq 1 100); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$serve_pid" 2>/dev/null; then
    echo "$1 did not exit within 10s of /quitquitquit (leaked threads?)" >&2
    exit 1
  fi
  wait "$serve_pid"
  serve_pid=""
}

gate "cargo fmt --all -- --check"
cargo fmt --all -- --check

# The workspace is std-only: every package must be a path crate in this
# repository, so the build needs no registry and no network.
gate "hermetic workspace: cargo metadata lists only path packages"
metadata=$(cargo metadata --offline --format-version 1)
case "$metadata" in
  *'"source":"'*)
    echo "cargo metadata lists a package with a non-path source:" >&2
    grep -o '"source":"[^"]*"' <<<"$metadata" | sort -u >&2
    exit 1
    ;;
esac

gate "cargo build --release --offline"
cargo build --release --offline

gate "cargo test -q --offline"
cargo test -q --offline

gate "cargo clippy --all-targets --offline -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

gate "cold-path equivalence at two pool shapes (2 and 5 workers)"
CAF_EQUIV_WORKERS=2 cargo test -q -p caf-tests --test parallel_cold_paths
CAF_EQUIV_WORKERS=5 cargo test -q -p caf-tests --test parallel_cold_paths

gate "world bench smoke: BENCH_world.json + schema gate"
CAF_BENCH_DIR="$ci_out" cargo bench -q -p caf-bench --bench world
cargo run --release -q -p caf-bench --bin metrics_check -- --schema-only "$ci_out/BENCH_world.json"

# Speedup regression gate for the cost-aware shard scheduler: the
# 4-worker world build must not be slower than the 1-worker build.
metric_gate 4 "world bench speedup gate" "$ci_out/BENCH_world.json" "meta.world_speedup_4_workers >= 1.0"
# The bootstrap plateau fix (DESIGN.md §2.3): hoisted stream-base
# keying, scratch-buffer reuse, and the stealing executor must hold a
# >= 1.3x 4-worker speedup on the ext-ci replicate budget.
metric_gate 4 "bootstrap speedup gate" "$ci_out/BENCH_world.json" "meta.bootstrap_speedup_4_workers >= 1.3"

gate "campaign bench smoke: BENCH_campaign.json + schema gate"
CAF_BENCH_DIR="$ci_out" cargo bench -q -p caf-bench --bench campaign
cargo run --release -q -p caf-bench --bin metrics_check -- \
  --schema-only "$ci_out/BENCH_campaign.json"
# The work-stealing campaign scheduler must not be slower at 4 workers
# than serial (the bench also self-asserts checkpoint resume equality).
metric_gate 4 "campaign speedup gate" "$ci_out/BENCH_campaign.json" "meta.campaign_speedup_4_workers >= 1.0"

# Checkpoint/resume smoke: an uninterrupted campaign_run is the
# reference; a second run is SIGKILLed mid-flight (wherever the kill
# lands — world build, mid-campaign, or after the final flush — resume
# must converge), then resumed from its checkpoint directory and its
# snap-encoded result byte-diffed against the reference.
gate "campaign checkpoint/resume smoke: SIGKILL -> resume -> byte-diff"
ckpt_smoke="$ci_out/campaign_ckpt"
rm -rf "$ckpt_smoke"
./target/release/campaign_run --scale 20 --workers 2 \
  --out "$ci_out/campaign_ref.bin" 2>/dev/null
timeout -s KILL 2 ./target/release/campaign_run --scale 20 --workers 2 \
  --checkpoint-dir "$ckpt_smoke" --checkpoint-every 500 2>/dev/null || true
./target/release/campaign_run --scale 20 --workers 2 \
  --checkpoint-dir "$ckpt_smoke" --checkpoint-every 500 \
  --out "$ci_out/campaign_resumed.bin" 2>/dev/null
cmp "$ci_out/campaign_ref.bin" "$ci_out/campaign_resumed.bin"
echo "    resumed campaign result is byte-identical to the uninterrupted run"

gate "observability smoke: repro --metrics + golden artifacts + full gate"
golden="$ci_out/golden"
cargo run --release -q -p caf-bench --bin repro -- \
  table2 --scale 150 --workers 2 --metrics "$ci_out/obs_smoke.json" \
  --artifacts "$golden" --quiet
cargo run --release -q -p caf-bench --bin metrics_check -- "$ci_out/obs_smoke.json"

# The calibration gate: the reproduction's own shape checks (per-ISP
# serviceability near the paper's rates, both orderings, the compliance
# band, the Q3 Type A split, the GA density coupling) at the default
# seed and scale. `repro validate` exits 1 on any FAIL.
gate "calibration gate: repro validate (all shape checks pass)"
./target/release/repro validate

# The golden byte-identity gate: `repro all` must print exactly the
# committed golden at 1 and 4 workers — every stage that fans out on
# the executor, the sensitivity sweep included — and its `dump` stage
# must write the same three CSVs at both worker counts. Each run gets
# its own dir under the CI output dir, so the artifacts `repro all`
# dumps stay out of the worktree and neither run overwrites the other.
gate "golden gate: repro all at 1 and 4 workers == repro_output.txt"
for golden_workers in 1 4; do
  golden_run="$ci_out/repro_all.w$golden_workers"
  mkdir -p "$golden_run"
  (cd "$golden_run" && "$OLDPWD/target/release/repro" all --workers "$golden_workers" \
    >stdout.txt 2>/dev/null)
  cmp "$golden_run/stdout.txt" repro_output.txt
done
for dump_csv in audit_rows cbg_serviceability query_records; do
  cmp "$ci_out/repro_all.w1/repro_artifacts/$dump_csv.csv" \
    "$ci_out/repro_all.w4/repro_artifacts/$dump_csv.csv"
done
echo "    repro all is byte-identical to repro_output.txt at 1 and 4 workers"
echo "    and dumps byte-identical CSVs at both"

# The serving-layer gate. The /v1/table2 bytes must equal the golden
# artifact repro just wrote — the determinism contract extended across
# the network boundary — at both 1 and 4 HTTP workers.
serve_seed=212803620 # 0xCAF_2024, the repro default
for http_workers in 1 4; do
  gate "serve gate: caf-serve with $http_workers HTTP worker(s)"
  start_serve caf-serve "$ci_out/serve_port.$http_workers" \
    --workers "$http_workers" --engine-workers 2

  health=$(curl -fsS "http://$addr/healthz")
  case "$health" in
    *'"status":"ok"'*) ;;
    *) echo "unexpected /healthz body: $health" >&2; exit 1 ;;
  esac

  curl -fsS "http://$addr/v1/table2?seed=$serve_seed&scale=150" \
    -o "$ci_out/served_table2.$http_workers.json"
  cmp "$ci_out/served_table2.$http_workers.json" "$golden/table2.json"
  echo "    /v1/table2 is byte-identical to the repro golden"

  # Warm requests: the SLO burn gate below must see cheap cache hits,
  # not just the one slow cold build.
  for _ in 1 2 3; do
    curl -fsS "http://$addr/v1/table2?seed=$serve_seed&scale=150" >/dev/null
  done

  # The request must be followable in the flight recorder: the route
  # span, the cache lookup under it, and the artifact render.
  traces=$(curl -fsS "http://$addr/v1/debug/traces?route=v1.table2")
  for span_path in \
    "serve.request/serve.route.v1.table2/cache.lookup" \
    "serve.request/serve.route.v1.table2/render"; do
    case "$traces" in
      *"$span_path"*) ;;
      *) echo "span path $span_path missing from /v1/debug/traces" >&2; exit 1 ;;
    esac
  done
  echo "    /v1/debug/traces shows the route -> cache -> render span path"

  prom=$(curl -fsS "http://$addr/metrics?format=prometheus")
  case "$prom" in
    *"# TYPE"*caf_span_duration_ns*) ;;
    *) echo "Prometheus exposition did not render span families" >&2; exit 1 ;;
  esac
  echo "    /metrics?format=prometheus renders"

  curl -fsS "http://$addr/metrics" -o "$ci_out/serve_metrics.$http_workers.json"
  cargo run --release -q -p caf-bench --bin metrics_check -- \
    --gate "slo.max_burn <= 0.5" "$ci_out/serve_metrics.$http_workers.json"

  stop_serve caf-serve
  echo "    clean shutdown"
done

# The snapshot restart gate: a server started with --snapshot-dir must,
# after a restart, answer /v1/table2 with byte-identical responses —
# both the epoch-0 view and a post-challenge epoch — without rebuilding
# the world. The committed delta stream's `isp` fields are placeholders
# (cell ownership is RNG-dependent), so challenge_replay first resolves
# them against the generated world; a live server validates ISPs
# strictly and would reject the raw stream.
gate "snapshot restart gate: byte-identity across a warm restart"
cargo run --release -q -p caf-serve --bin challenge_replay -- \
  --deltas testdata/challenge_deltas.jsonl --scale 150 --mode full \
  --workers 2 --emit-resolved "$ci_out/resolved_deltas.jsonl" --quiet
snap_dir="$ci_out/snapshots"
mkdir -p "$snap_dir"
cold_first_200_ms=0
for boot in cold warm; do
  boot_start=$(date +%s%N)
  start_serve "caf-serve ($boot boot)" "$ci_out/serve_port.snap.$boot" \
    --workers 2 --engine-workers 2 --snapshot-dir "$snap_dir"

  curl -fsS "http://$addr/v1/table2?seed=$serve_seed&scale=150" \
    -o "$ci_out/snap_table2.e0.$boot.json"
  first_200_ms=$(( ($(date +%s%N) - boot_start) / 1000000 ))
  cmp "$ci_out/snap_table2.e0.$boot.json" "$golden/table2.json"
  echo "    $boot boot: epoch-0 /v1/table2 matches the golden (first 200 in ${first_200_ms} ms)"

  if [ "$boot" = cold ]; then
    cold_first_200_ms=$first_200_ms
    # Advance three epochs (one delta per batch crosses the batching
    # axis with the incremental refresh), then persist synchronously.
    for i in 1 2 3; do
      sed -n "${i}p" "$ci_out/resolved_deltas.jsonl" | curl -fsS -X POST \
        --data-binary @- "http://$addr/v1/challenge" >/dev/null
    done
    curl -fsS "http://$addr/v1/table2?epoch=3" -o "$ci_out/snap_table2.e3.cold.json"
    snap_reply=$(curl -fsS -X POST "http://$addr/v1/snapshot")
    case "$snap_reply" in
      *'"epoch":3'*) ;;
      *) echo "unexpected /v1/snapshot reply: $snap_reply" >&2; exit 1 ;;
    esac
  else
    health=$(curl -fsS "http://$addr/healthz")
    case "$health" in
      *'"loaded":true'*) ;;
      *) echo "warm boot did not restore a snapshot: $health" >&2; exit 1 ;;
    esac
    curl -fsS "http://$addr/v1/table2?epoch=3" -o "$ci_out/snap_table2.e3.warm.json"
    cmp "$ci_out/snap_table2.e3.warm.json" "$ci_out/snap_table2.e3.cold.json"
    echo "    warm boot: epoch-3 /v1/table2 is byte-identical to the pre-restart bytes"
    curl -fsS "http://$addr/metrics" -o "$ci_out/snap_metrics.json"
    # The no-rebuild proof: both warm requests must be cache hits served
    # from restored views. The miss counter only appears once it
    # increments, so its absence (plus present hits) is the assertion.
    if ! grep -q '"caf.serve.cache.hits"' "$ci_out/snap_metrics.json"; then
      echo "warm boot served no cache hits — restored views unused" >&2
      exit 1
    fi
    if grep -q '"caf.serve.cache.misses"' "$ci_out/snap_metrics.json"; then
      echo "warm boot recomputed a scenario (cache miss) despite the snapshot" >&2
      exit 1
    fi
    echo "    warm boot: zero cache misses (both epochs served from the snapshot)"
  fi

  stop_serve "caf-serve ($boot boot)"
done
# The latency gate catches gross restore regressions (a synchronous
# world decode, quadratic parsing). The miss-free check above is what
# proves nothing was rebuilt; this cap (a tenth of the cold first-200
# wall) tolerates scheduler noise via the 50 ms floor.
max_restart_ms=$(( cold_first_200_ms / 10 ))
[ "$max_restart_ms" -ge 50 ] || max_restart_ms=50
metric_gate 4 "restart latency gate" "$ci_out/snap_metrics.json" "gauges.caf.snap.restore_us <= $(( max_restart_ms * 1000 ))"

gate "serve bench smoke: BENCH_serve.json + schema gate"
CAF_BENCH_SERVE_QUICK=1 CAF_BENCH_DIR="$ci_out" \
  cargo run --release -q -p caf-serve --bin serve_bench
cargo run --release -q -p caf-bench --bin metrics_check -- --schema-only "$ci_out/BENCH_serve.json"
# The committed baseline must stay schema-valid too.
cargo run --release -q -p caf-bench --bin metrics_check -- --schema-only BENCH_serve.json
# Tracing must stay effectively free: warm p50 with the flight recorder
# attached may not exceed the untraced p50 by more than 5%.
metric_gate 4 "trace overhead gate" "$ci_out/BENCH_serve.json" "meta.trace_overhead_pct <= 5.0"
# Snapshot restore must beat the cold build by >= 10x in the bench's
# own restart-to-first-200 measurement.
metric_gate 4 "restart speedup gate" "$ci_out/BENCH_serve.json" "meta.restart_speedup >= 10.0"

# The challenge-replay gate: the committed sample delta stream must
# produce byte-identical artifacts whether it is folded in batch-by-
# batch through the incremental audit or applied in one shot to a
# from-scratch re-audit — at different worker counts, to cross the
# determinism contracts.
gate "challenge replay gate: incremental vs full byte-identity"
cargo run --release -q -p caf-serve --bin challenge_replay -- \
  --deltas testdata/challenge_deltas.jsonl --scale 150 --batch 3 \
  --mode incremental --workers 2 --out "$ci_out/replay_inc" --quiet
cargo run --release -q -p caf-serve --bin challenge_replay -- \
  --deltas testdata/challenge_deltas.jsonl --scale 150 \
  --mode full --workers 4 --out "$ci_out/replay_full" --quiet
for f in serviceability compliance table2; do
  cmp "$ci_out/replay_inc/$f.json" "$ci_out/replay_full/$f.json"
done
echo "    incremental replay artifacts are byte-identical to the full rebuild"

gate "challenge bench smoke: BENCH_challenge.json + schema gate"
CAF_BENCH_DIR="$ci_out" cargo bench -q -p caf-bench --bench challenge
cargo run --release -q -p caf-bench --bin metrics_check -- \
  --schema-only "$ci_out/BENCH_challenge.json"
# Incremental recompute must beat a full rebuild by >= 5x after a small
# delta batch (the DESIGN.md §4 acceptance bar).
metric_gate 4 "incremental speedup gate" "$ci_out/BENCH_challenge.json" "meta.incremental_speedup >= 5.0"

# The sweep determinism gate: the committed grid spec must emit
# byte-identical results.json/results.csv at {1,4} workers, stealing
# vs pinned lanes — the grid-cell determinism contract the /v1/sweep
# cache, the results tables, and the bench baselines all rely on. The
# 1-worker pinned-lane run is the reference.
gate "sweep determinism gate: {1,4} workers x stealing vs pinned lanes byte-identity"
sweep_ref="$ci_out/sweep_w1_static"
./target/release/caf-sweep --spec testdata/sweep_spec.json \
  --out "$sweep_ref" --workers 1 --no-steal 2>/dev/null
for sweep_variant in "1 steal" "4 static" "4 steal"; do
  read -r sweep_workers sweep_mode <<<"$sweep_variant"
  sweep_out="$ci_out/sweep_w${sweep_workers}_${sweep_mode}"
  if [ "$sweep_mode" = static ]; then
    ./target/release/caf-sweep --spec testdata/sweep_spec.json \
      --out "$sweep_out" --workers "$sweep_workers" --no-steal 2>/dev/null
  else
    ./target/release/caf-sweep --spec testdata/sweep_spec.json \
      --out "$sweep_out" --workers "$sweep_workers" 2>/dev/null
  fi
  cmp "$sweep_out/results.json" "$sweep_ref/results.json"
  cmp "$sweep_out/results.csv" "$sweep_ref/results.csv"
done
echo "    all four schedules emitted byte-identical results.json and results.csv"

gate "sweep bench smoke: BENCH_sweep.json + schema gate"
CAF_BENCH_DIR="$ci_out" cargo bench -q -p caf-bench --bench sweep
cargo run --release -q -p caf-bench --bin metrics_check -- \
  --schema-only "$ci_out/BENCH_sweep.json"
# The committed baseline must stay schema-valid too.
cargo run --release -q -p caf-bench --bin metrics_check -- --schema-only BENCH_sweep.json
# The cost-aware sweep plan must not be slower at 4 workers than serial
# (the bench also self-asserts grid determinism and the 2x re-run memo
# hit ratio).
metric_gate 4 "sweep speedup gate" "$ci_out/BENCH_sweep.json" "meta.sweep_speedup_4_workers >= 1.0"

gate "supply-chain gate: cargo deny"
if command -v cargo-deny >/dev/null; then
  cargo deny check
else
  echo "==> skipping cargo deny (not installed; CI installs it)"
fi

if [ -n "${status_before+x}" ] && command -v git >/dev/null \
  && git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  gate "worktree hygiene: no gate may modify tracked files"
  status_after=$(git status --porcelain)
  if [ "$status_after" != "$status_before" ]; then
    echo "ci.sh modified the worktree:" >&2
    diff <(printf '%s\n' "$status_before") <(printf '%s\n' "$status_after") >&2 || true
    exit 1
  fi
fi

gate_summary
echo "==> ci.sh: all gates passed"
