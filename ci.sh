#!/usr/bin/env sh
# The workspace's CI gauntlet — identical locally and in Actions.
# Order is cheapest-first so failures surface fast.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> simlint --deny (baseline-gated, bench artifact)"
# New findings fail the run; known ones must be fingerprinted in the
# checked-in simlint.baseline. BENCH_simlint.json records scan size and
# wall time so analyzer slowdowns show up in CI history.
cargo run -q -p simlint -- --deny --baseline simlint.baseline --bench BENCH_simlint.json
grep -q '"files_scanned"' BENCH_simlint.json
# The dataflow tier (units/float passes) must actually have run: the
# bench artifact carries its counters, and a workspace where no
# function carries a dimension or the float fact would mean the passes
# were silently disabled.
grep -q '"float_tainted_fns"' BENCH_simlint.json
grep -q '"dimension_facts"' BENCH_simlint.json
# The PDES-readiness tier (monotonicity/channel/LP passes) must have
# covered real code: zero timestamp sites, channel endpoints, or
# partitioned fields would mean the [monotonic]/[channels]/[lp] config
# rotted out from under the passes.
for counter in monotonic_sites channel_endpoints lp_fields_checked; do
    awk -F'[:,]' -v key="\"$counter\"" '
        $0 ~ key { for (i = 1; i < NF; i++) if ($i ~ key) { n = $(i + 1) + 0 } }
        END {
            if (n < 1) { printf "%s is zero — a PDES pass lost its coverage\n", key; exit 1 }
            printf "    (%s: %d)\n", key, n
        }' BENCH_simlint.json
done
grep -q '"monotonic"' BENCH_simlint.json
grep -q '"channels"' BENCH_simlint.json
grep -q '"lp"' BENCH_simlint.json

echo "==> clippy"
# clippy may be absent on minimal toolchains; the simlint + test gates
# still hold there, so degrade loudly rather than fail the run.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D clippy::dbg_macro -D clippy::todo
else
    echo "    (clippy not installed; skipped)"
fi

echo "==> cargo test"
cargo test --workspace -q

echo "==> perfbench smoke (every declared benchmark metric still emitted)"
# perfbench is its own workspace, so `cargo test --workspace` skips it.
# Its smoke test runs each workload at tiny size and fails if a metric
# BENCHMARK.json declares went missing — e.g. a renamed dispatch kind.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> repro --quick CSV manifest (refactor byte-identity net)"
# Every CSV of `repro --quick all` except perf.csv (wall-clock ns) must
# hash to its pinned value in results/repro_quick.sha256. The CSVs are
# byte-identical across runs and thread counts, so any diff here is a
# behaviour change: explain it and re-pin, or fix the code.
REPRO_TMP="${TMPDIR:-/tmp}/ms_repro_quick"
rm -rf "$REPRO_TMP"
cargo run -q --release -p ms-bench --bin repro -- \
    --quick --threads 2 --out "$REPRO_TMP" all > /dev/null
(cd "$REPRO_TMP" && LC_ALL=C ls -- *.csv | grep -v '^perf\.csv$' | xargs sha256sum) \
    | diff results/repro_quick.sha256 -
rm -rf "$REPRO_TMP"

echo "==> traced example smoke (Perfetto export)"
TRACE_TMP="${TMPDIR:-/tmp}/ms_trace_smoke.json"
cargo run -q --release -p ms-bench --example incast_loss -- --trace "$TRACE_TMP"
cargo run -q --release -p ms-bench --example trace_check -- "$TRACE_TMP"
rm -f "$TRACE_TMP"

echo "==> forensics smoke (every drop -> exactly one classified forensic)"
# The example exits non-zero unless the blackbox attributed every
# dropped byte of the contended showcase to one classified record.
cargo run -q --release -p ms-bench --example incast_loss -- --forensics \
    | grep -q '^OK: every dropped byte attributed'

echo "==> engine profiler bench (dispatch determinism + overhead artifact)"
# Runs the showcase stock / traced / wall-clocked, asserts the sim-time
# dispatch counters are identical across all three, and writes
# BENCH_profile.json plus the collapsed-stack flamegraph text.
cargo run -q --release -p ms-bench --example incast_loss -- --profile BENCH_profile.json
grep -q '"bench": "profile"' BENCH_profile.json
grep -q '"detached_hook_overhead_pct"' BENCH_profile.json
grep -q '"telemetry_overhead_pct"' BENCH_profile.json
test -s BENCH_profile.json.folded

echo "==> fleet sweep smoke (parallel vs serial byte-identity + bench artifact)"
# --bench re-runs the grid serially, asserts the aggregate CSV/JSON are
# byte-identical to the parallel run, and writes BENCH_fleet.json.
FLEET_CSV="${TMPDIR:-/tmp}/ms_fleet_smoke.csv"
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 2 --buckets 80 --conns 24 --bytes 1500000 --quiet \
    --csv "$FLEET_CSV" --bench BENCH_fleet.json
rm -f "$FLEET_CSV"

echo "==> lake smoke (writer determinism + query fidelity + compression bench)"
LAKE_TMP="${TMPDIR:-/tmp}/ms_lake_smoke"
rm -rf "$LAKE_TMP"
mkdir -p "$LAKE_TMP"
# The same grid at --jobs 1 and --jobs 2 must compact to byte-identical
# segment files (manifest CSV goes to stdout; compare that too). With
# --forensics the comparison also covers the forensics table, so the
# drop-attribution rows themselves are held to the byte-identity bar.
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 1 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --forensics --out-lake "$LAKE_TMP/j1" > "$LAKE_TMP/manifest_j1.csv"
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 2 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --forensics --out-lake "$LAKE_TMP/j2" > "$LAKE_TMP/manifest_j2.csv"
diff "$LAKE_TMP/manifest_j1.csv" "$LAKE_TMP/manifest_j2.csv"
for seg in "$LAKE_TMP"/j1/*.msl; do
    cmp "$seg" "$LAKE_TMP/j2/$(basename "$seg")"
done
# The S8 loss-attribution report folds the forensics table out of core;
# both lakes must render the identical histogram.
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/j1" --report attribution --out "$LAKE_TMP/attr_j1.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/j2" --report attribution --out "$LAKE_TMP/attr_j2.csv"
diff "$LAKE_TMP/attr_j1.csv" "$LAKE_TMP/attr_j2.csv"
grep -q '^cell,policy,self_burst,cross_contention,fabric_transient,total$' "$LAKE_TMP/attr_j1.csv"
# The grid is sized to actually drop: the histogram must have rows.
test "$(wc -l < "$LAKE_TMP/attr_j1.csv")" -gt 1
# The lake's out-of-core outcomes report must equal the in-memory
# FleetReport CSV from the same grid, byte for byte.
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 2 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --csv "$LAKE_TMP/report.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/j1" --report outcomes --out "$LAKE_TMP/lake_outcomes.csv"
diff "$LAKE_TMP/report.csv" "$LAKE_TMP/lake_outcomes.csv"
# Full verification pass over every segment checksum.
cargo run -q --release -p ms-lake --bin lake -- stat --dir "$LAKE_TMP/j1" > /dev/null
echo "==> buffer-policy sweep smoke (--policies dt,fb, jobs-count byte-identity)"
# A two-policy sweep of one lossy base cell: the per-policy attribution
# report must come back byte-identical for --jobs 1 and --jobs 2, and
# the policy-compare rollup must key one row per swept policy.
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 1 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --seeds 1 --alphas 0.25 --placements single --policies dt,fb \
    --forensics --out-lake "$LAKE_TMP/p1" > /dev/null
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 2 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --seeds 1 --alphas 0.25 --placements single --policies dt,fb \
    --forensics --out-lake "$LAKE_TMP/p2" > /dev/null
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/p1" --report attribution --out "$LAKE_TMP/pattr_j1.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/p2" --report attribution --out "$LAKE_TMP/pattr_j2.csv"
diff "$LAKE_TMP/pattr_j1.csv" "$LAKE_TMP/pattr_j2.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/p1" --report policy-compare --out "$LAKE_TMP/pcmp.csv"
grep -q '^policy,cells,' "$LAKE_TMP/pcmp.csv"
grep -q '^dt,1,' "$LAKE_TMP/pcmp.csv"
grep -q '^fb,1,' "$LAKE_TMP/pcmp.csv"

echo "==> multi-rack smoke (k=4 fat-tree incast, jobs-count byte-identity)"
# A cross-pod incast on the k=4 fat-tree: lake segments, the forensic
# attribution histogram, and the per-tier drop split must all come back
# byte-identical for --jobs 1 and --jobs 2, and the drops must land
# above the ToR tier (agg/spine columns nonzero) — the whole point of
# the region topology.
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 1 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --seeds 1 --alphas 1.0 --placements single --topo k4d100 \
    --forensics --out-lake "$LAKE_TMP/t1" > /dev/null
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 2 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --seeds 1 --alphas 1.0 --placements single --topo k4d100 \
    --forensics --out-lake "$LAKE_TMP/t2" > /dev/null
for seg in "$LAKE_TMP"/t1/*.msl; do
    cmp "$seg" "$LAKE_TMP/t2/$(basename "$seg")"
done
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/t1" --report attribution --out "$LAKE_TMP/tattr_j1.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/t2" --report attribution --out "$LAKE_TMP/tattr_j2.csv"
diff "$LAKE_TMP/tattr_j1.csv" "$LAKE_TMP/tattr_j2.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/t1" --report tiers --out "$LAKE_TMP/tiers_j1.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/t2" --report tiers --out "$LAKE_TMP/tiers_j2.csv"
diff "$LAKE_TMP/tiers_j1.csv" "$LAKE_TMP/tiers_j2.csv"
grep -q '^cell,tor,agg,spine,offswitch,total$' "$LAKE_TMP/tiers_j1.csv"
# Fully cross-pod placement must push loss above the ToR: at least one
# cell row carries nonzero agg or spine drops.
awk -F, 'NR > 1 && ($3 + $4) > 0 { found = 1 } END { exit !found }' "$LAKE_TMP/tiers_j1.csv"

# 24-hour diurnal corpus: the columnar encoding must beat raw column
# bytes by >= 4x; BENCH_lake.json records the ratio and scan rate.
cargo run -q --release -p ms-lake --bin lake -- bench \
    --dir "$LAKE_TMP/bench" --json BENCH_lake.json
grep -q '"bench": "lake"' BENCH_lake.json
awk -F': ' '/"compression_vs_raw"/ {
    ratio = $2 + 0
    if (ratio < 4.0) { printf "lake compression %.2fx is below the 4x gate\n", ratio; exit 1 }
    printf "    (compression_vs_raw: %.2fx)\n", ratio
}' BENCH_lake.json
rm -rf "$LAKE_TMP"

echo "==> CI green"
