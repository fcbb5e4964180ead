#!/usr/bin/env bash
# Offline CI gate.
#
# The whole harness is vendored (no proptest, no criterion, no
# registry crates at all), so this must succeed on a machine with zero
# network access. Warnings are promoted to errors.
#
# The root manifest is both the workspace and the `fadewich` facade
# package; its `default-members` list every crate, so a bare
# `cargo test` covers the whole workspace too. `--workspace` keeps
# that explicit.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"
cargo build --release --offline --workspace
cargo test -q --offline --workspace

# Lint gate: type-check every target (benches and examples included,
# which neither the build nor the tests compile) and enforce exactly
# the lint levels the crates declare in source — the
# `deny(clippy::unwrap_used, clippy::expect_used)` of the serving
# crates — with clippy's default groups allowed.
cargo clippy --offline --workspace --all-targets -- -A clippy::all

# Masked-libm gate: glibc picks its exp/log/pow code by CPU feature at
# run time, and every pinned bit rests on those functions. Rerun the
# bit-pinned gates with the AVX2, FMA and AVX-512 variants masked off,
# so a pin that holds only on one libm code path fails here. (On an
# AVX-512 machine the mask changes a 2M-point exp digest over
# [-40, 0], so it is live there.)
libm_mask=glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F
GLIBC_TUNABLES=$libm_mask cargo test -q --offline -p fadewich-stats --test kde_bit_identity
GLIBC_TUNABLES=$libm_mask cargo test -q --offline -p fadewich-core --test md_regression
GLIBC_TUNABLES=$libm_mask cargo test -q --offline -p fadewich-runtime --test cross_version_pin

# Benchmark build gate: perfbench is a workspace of its own (see
# BENCHMARK.json) that builds the serving system from these sources
# through path dependencies, so a crate API change must keep it
# compiling without warnings and its self-tests green.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Streaming runtime gates: the lossless replay must be byte-identical
# to the batch pipeline, and a seeded lossy replay (2% drop, 3 ticks
# of jitter, duplicates + corruption) must finish with the degradation
# counted, not panic.
cargo test -q --release --offline -p fadewich-runtime --test parity
cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- replay \
    --drop 0.02 --dup 0.01 --corrupt 0.005 --jitter 3 --link-seed 7 > /dev/null

# Train/serve split gate: train once, write the versioned model
# artifact, then serve from it. The served decision stream (stdout)
# must be byte-identical to the in-memory-trained replay of the same
# seeded scenario — the artifact codec must not perturb a single
# decision.
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# Paper-reproduction gate: the default `reproduce` report (every paper
# table and figure plus the deployment, streaming, recovery, artifact,
# telemetry and extension studies) must stay byte-identical to the
# committed fixture. A change that moves a paper number shows up here
# and is re-pinned deliberately, line by line.
cargo run -q --release --offline -p fadewich-bench --bin reproduce > "$workdir/reproduce.out"
cmp fixtures/reproduce-default.out "$workdir/reproduce.out"
cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- \
    train --out "$workdir/model.fwmb"
cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- \
    replay > "$workdir/replay.out"
cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- \
    serve --model "$workdir/model.fwmb" > "$workdir/serve.out"
cmp "$workdir/replay.out" "$workdir/serve.out"

# Crash-recovery gate: serve with checkpointing enabled, kill the
# process mid-stream, serve again from the same checkpoint directory,
# and require the stitched decision log to be byte-identical to an
# uninterrupted run's. Then corrupt the newest checkpoint on disk and
# require the restart to fall back to the previous one — same log,
# exit 0, no panic.
cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- \
    serve --model "$workdir/model.fwmb" --checkpoint-dir "$workdir/ckpt-ref" \
    > /dev/null

# Legacy-parity gate: a legacy (unauthenticated, pure-RSSI) deployment
# must keep producing the decision log recorded before the later
# refactors landed. The fixture pins two promises at once: the
# channel-typed stream generalization does not move a byte of
# RSSI-only behavior, and the frame-authentication layer leaves an
# engine without `set_auth` byte-identical on v1–v3 traffic. Any
# drift here means legacy mode changed, which both refactors promise
# never happens.
cmp fixtures/pre-refactor-rssi-decisions.log "$workdir/ckpt-ref/decisions.log"

if cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- \
    serve --model "$workdir/model.fwmb" --checkpoint-dir "$workdir/ckpt-crash" \
    --crash-after-ticks 20000 > /dev/null 2>&1; then
    echo "expected the injected crash to abort the serve" >&2
    exit 1
fi
cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- \
    serve --model "$workdir/model.fwmb" --checkpoint-dir "$workdir/ckpt-crash" \
    > /dev/null
cmp "$workdir/ckpt-ref/decisions.log" "$workdir/ckpt-crash/decisions.log"

newest="$(ls "$workdir"/ckpt-crash/ckpt-*.fwcp | sort | tail -1)"
printf '\xff' | dd of="$newest" bs=1 seek=100 conv=notrunc status=none
cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- \
    serve --model "$workdir/model.fwmb" --checkpoint-dir "$workdir/ckpt-crash" \
    2> "$workdir/corrupt.err" > /dev/null
grep -q "skipping corrupt checkpoint" "$workdir/corrupt.err"
cmp "$workdir/ckpt-ref/decisions.log" "$workdir/ckpt-crash/decisions.log"

# Trace-determinism gate: two replays of the same seeded scenario must
# emit byte-identical --trace-out JSONL and --metrics-out JSON (spans
# are stamped with the logical tick clock; wall-clock histograms are
# excluded from the deterministic dump). The lossy link exercises the
# richer emission set.
for i in 1 2; do
    cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- replay \
        --drop 0.02 --dup 0.01 --corrupt 0.005 --jitter 3 --link-seed 7 \
        --trace-out "$workdir/trace$i.jsonl" --metrics-out "$workdir/metrics$i.json" \
        > "$workdir/traced$i.out"
done
cmp "$workdir/trace1.jsonl" "$workdir/trace2.jsonl"
cmp "$workdir/metrics1.json" "$workdir/metrics2.json"
# Instrumentation must not perturb the decision stream...
cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- replay \
    --drop 0.02 --dup 0.01 --corrupt 0.005 --jitter 3 --link-seed 7 \
    > "$workdir/untraced.out"
cmp "$workdir/traced1.out" "$workdir/untraced.out"
# ...every deauth decision must carry its audit chain in the trace...
deauths=$(grep -c "DeauthenticateRule1" "$workdir/traced1.out" || true)
verdicts=$(grep -c '"name":"rule1_verdict","attrs":{"deauth":true' "$workdir/trace1.jsonl" || true)
if [ "$deauths" != "$verdicts" ]; then
    echo "audit trail mismatch: $deauths DeauthenticateRule1 decisions vs $verdicts deauth verdicts" >&2
    exit 1
fi
# ...and the stats pretty-printer must read the dump back.
# (grep a file, not a live pipe: `grep -q` exiting on first match
# would EPIPE the still-printing daemon under pipefail)
cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- \
    stats "$workdir/metrics1.json" > "$workdir/stats.out"
grep -q "rule1" "$workdir/stats.out"

# Perf-baseline smoke gate: `reproduce bench` must complete at smoke
# sizes, emit schema-valid JSON, and be deterministic across runs in
# every field that does not carry the `wall_` (wall-time) prefix. The
# harness itself aborts if a hot path's checksum diverges from the
# scalar reference, so a passing run also re-proves decision identity.
for i in 1 2; do
    cargo run -q --release --offline -p fadewich-bench --bin reproduce -- bench \
        --bench-smoke --bench-out "$workdir/bench$i.json" > /dev/null
done
grep -q '"schema": "fadewich-bench-v1"' "$workdir/bench1.json"
grep -q '"matches_reference": true' "$workdir/bench1.json"
grep -q '"matches_owned": true' "$workdir/bench1.json"
for name in engine engine_telemetry_on wire_decode wire_decode_borrowed mac_verify md_step \
    svm_predict_scalar svm_predict_batch kde_fit fleet_demux \
    controller_tick_allocs engine_ingest_allocs; do
    grep -q "\"name\": \"$name\"" "$workdir/bench1.json"
done
grep -v '"wall_' "$workdir/bench1.json" > "$workdir/bench1.nowall"
grep -v '"wall_' "$workdir/bench2.json" > "$workdir/bench2.nowall"
cmp "$workdir/bench1.nowall" "$workdir/bench2.nowall"

# The bench diff tool must agree with the raw cmp: a full diff of the
# two smoke runs (any non-wall drift is fatal), in both its one-run
# and its several-runs-per-side form, plus row-name compatibility
# against the committed baseline — the baseline's full-size workload
# fields legitimately differ from a smoke run's, so that leg only
# checks no benchmark row silently disappeared.
scripts/bench_diff.sh "$workdir/bench1.json" "$workdir/bench2.json"
scripts/bench_diff.sh "$workdir/bench1.json" "$workdir/bench2.json" -- \
    "$workdir/bench2.json" "$workdir/bench1.json"
scripts/bench_diff.sh --rows-only BENCH_2026-10-19.json "$workdir/bench1.json"

# Span-profile gate: `reproduce profile` folds tick-stamped spans, so
# the whole report is logical-time only and must be byte-identical
# across same-seed runs (`wall_` lines stripped defensively — the
# report must not carry any to begin with).
for i in 1 2; do
    cargo run -q --release --offline -p fadewich-bench --bin reproduce -- \
        --quick profile | grep -v '^wall_' > "$workdir/profile$i.out"
done
cmp "$workdir/profile1.out" "$workdir/profile2.out"
grep -q "md_window;rule1_eval" "$workdir/profile1.out"
if grep -q "wall_" "$workdir/profile1.out"; then
    echo "reproduce profile leaked a wall_ line into the deterministic report" >&2
    exit 1
fi

# Ops-plane smoke: serve with the scrape server bound to an ephemeral
# port, wait for the post-replay hold, then curl the three endpoints.
# The healthz body must be "ok" (no attack in the clean scenario) with
# the wall_-quarantined scrape counters appended, and /slo must carry
# the standard deauth-latency objective.
cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- \
    serve --model "$workdir/model.fwmb" --metrics-addr 127.0.0.1:0 \
    --metrics-addr-file "$workdir/ops.addr" --hold-secs 60 \
    > /dev/null 2> "$workdir/ops.err" &
ops_pid=$!
for _ in $(seq 1 300); do
    grep -q "holding ops server" "$workdir/ops.err" 2>/dev/null && break
    sleep 0.2
done
grep -q "holding ops server" "$workdir/ops.err"
addr="$(cat "$workdir/ops.addr")"
curl -fsS "http://$addr/metrics" > "$workdir/ops.metrics"
grep -q "^runtime_frames_in " "$workdir/ops.metrics"
grep -q "^runtime_ticks_processed " "$workdir/ops.metrics"
curl -fsS "http://$addr/healthz" > "$workdir/ops.healthz"
grep -q "^ok$" "$workdir/ops.healthz"
grep -q "^wall_scrapes " "$workdir/ops.healthz"
curl -fsS "http://$addr/slo" > "$workdir/ops.slo"
grep -q "deauth_latency" "$workdir/ops.slo"
kill "$ops_pid" 2>/dev/null || true
wait "$ops_pid" 2>/dev/null || true

# Fleet gates. First the scaling study at CI size: the deterministic
# table (everything but the `wall_` throughput lines) must be
# byte-identical between a 1-thread and an 8-thread run, and the study
# itself hard-fails if any office's decision stream diverges between
# shard counts or from its single-office reference.
FADEWICH_THREADS=1 cargo run -q --release --offline -p fadewich-bench --bin reproduce -- \
    fleet --offices 32 | grep -v '^wall_' > "$workdir/fleet-t1.out"
FADEWICH_THREADS=8 cargo run -q --release --offline -p fadewich-bench --bin reproduce -- \
    fleet --offices 32 | grep -v '^wall_' > "$workdir/fleet-t8.out"
cmp "$workdir/fleet-t1.out" "$workdir/fleet-t8.out"

# Second, the daemon: a 4-office `fadewichd fleet` run must write
# office 0's decision log byte-identical to a plain single-tenant
# `fadewichd serve` of the same model (office 0 keeps the base link
# seed, and per-office summaries exclude transport counters).
cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- \
    fleet --model "$workdir/model.fwmb" --offices 4 --shards 2 \
    --checkpoint-dir "$workdir/fleet-ckpt" > /dev/null
cmp "$workdir/ckpt-ref/decisions.log" "$workdir/fleet-ckpt/office-00000/decisions.log"

# Third, fleet crash recovery: kill a 4-office day mid-stream, restart
# from the same checkpoint root, and require every office's stitched
# decision log to match the uninterrupted run's.
if cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- \
    fleet --model "$workdir/model.fwmb" --offices 4 --shards 2 \
    --checkpoint-dir "$workdir/fleet-crash" --crash-after-ticks 20000 \
    > /dev/null 2>&1; then
    echo "expected the injected crash to abort the fleet" >&2
    exit 1
fi
cargo run -q --release --offline -p fadewich-fleet --bin fadewichd -- \
    fleet --model "$workdir/model.fwmb" --offices 4 --shards 2 \
    --checkpoint-dir "$workdir/fleet-crash" > /dev/null
for o in 00000 00001 00002 00003; do
    cmp "$workdir/fleet-ckpt/office-$o/decisions.log" \
        "$workdir/fleet-crash/office-$o/decisions.log"
done

# Fusion gates: the RSSI/light ablation must be seed-deterministic —
# two `reproduce fusion` runs byte-identical on stdout (stage timings
# go to stderr) — and the RSSI-only row must certify parity with the
# legacy untyped engine on every scored day.
for i in 1 2; do
    cargo run -q --release --offline -p fadewich-bench --bin reproduce -- \
        --quick fusion > "$workdir/fusion$i.out"
done
cmp "$workdir/fusion1.out" "$workdir/fusion2.out"
grep -q "identical" "$workdir/fusion1.out"
if grep -q "DIFFERS" "$workdir/fusion1.out"; then
    echo "fusion RSSI-only mode diverged from the legacy engine" >&2
    exit 1
fi

# Attacks gate: the adversarial robustness suite must be
# seed-deterministic — two `reproduce --quick attacks` runs
# byte-identical on stdout — and the containment table must show zero
# decision divergence on every row (the last column; any contained
# attack that moved a decision is a containment failure).
for i in 1 2; do
    cargo run -q --release --offline -p fadewich-bench --bin reproduce -- \
        --quick attacks > "$workdir/attacks$i.out"
done
cmp "$workdir/attacks1.out" "$workdir/attacks2.out"
grep -q "deauth-storm" "$workdir/attacks1.out"
if sed -n '/Containment:/,$p' "$workdir/attacks1.out" \
    | awk 'NF > 3 && $NF ~ /^[0-9]+$/ && $NF != 0 { found = 1 } END { exit !found }'; then
    echo "containment failure: an attack family diverged the decision stream" >&2
    exit 1
fi

# Key-hygiene lint: AuthKey::from_bytes is the artifact codec's escape
# hatch, nothing else's. Deployment keys must come from
# AuthKey::derive / KeyTable::derive, so no non-test code may
# construct a key from constant bytes.
if grep -rn "AuthKey::from_bytes" --include='*.rs' crates/ src/ 2>/dev/null \
    | grep -v "crates/core/src/auth.rs" \
    | grep -v "crates/core/src/artifact.rs" \
    | grep -v "tests/"; then
    echo "AuthKey::from_bytes outside the artifact codec (see above); derive keys instead" >&2
    exit 1
fi

# Wall-clock lint: Instant::now() is allowed only inside the telemetry
# Clock implementations and the vendored bench harness. Everything
# else must read time through the Clock trait so seeded replays stay
# reproducible.
if grep -rn "Instant::now" --include='*.rs' crates/ src/ 2>/dev/null \
    | grep -v "crates/telemetry/src/clock.rs" \
    | grep -v "crates/testkit/src/bench.rs" \
    | grep -v "^[^:]*:[0-9]*: *//"; then
    echo "Instant::now() outside the Clock seam (see above); use fadewich_telemetry::Clock" >&2
    exit 1
fi

# Wall-metric-name lint: every histogram recorded through the
# wall-time APIs (histo_record_wall, WallHisto::export_into) must
# carry the `_ns` suffix so deterministic renders can exclude it, and
# conversely no logical-tick metric may squat on a `_ns` name. This
# keeps the wall_ / _ns quarantine a grep-enforceable convention
# instead of a code-review hope.
if grep -rn 'histo_record("[^"]*_ns"' --include='*.rs' crates/ src/ 2>/dev/null; then
    echo "logical-time histo_record() with a wall-suffixed _ns name (see above)" >&2
    exit 1
fi
if grep -rn 'histo_record_wall("[^"]*"' --include='*.rs' crates/ src/ 2>/dev/null \
    | grep -v '_ns"'; then
    echo "histo_record_wall() name without the _ns suffix (see above)" >&2
    exit 1
fi
if grep -rn 'export_into(telemetry, "[^"]*"' --include='*.rs' crates/ src/ 2>/dev/null \
    | grep -v '_ns"'; then
    echo "wall histogram export name without the _ns suffix (see above)" >&2
    exit 1
fi
