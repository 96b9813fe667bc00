#!/usr/bin/env bash
# Tier-1 verification for every PR.
#
#   scripts/ci.sh          # lint + docs + debug tests (fast path)
#   scripts/ci.sh --full   # also the release-gated paper-scale + chaos
#                          # runs, and the Xenograft trace artifact
#
# The chaos suite's small cases run in debug with the workspace tests;
# its paper-scale assertions (hybrid-beats-serverless under faults) are
# `#[ignore]`d in debug and only run under --release, like the other
# paper-scale tests.
#
# Golden regression suites (tests/goldens.rs) run with the workspace
# tests: table/figure text and trace summaries are snapshotted under
# tests/goldens/ and any drift fails CI. Drift is never noise — the
# simulation is deterministic — so either fix the regression or, for an
# intentional behaviour change, refresh the snapshots and commit the
# reviewed diff:
#
#   UPDATE_GOLDENS=1 cargo test --release --test goldens
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ -n "${UPDATE_GOLDENS:-}" ]]; then
    echo "refusing to run CI with UPDATE_GOLDENS set: goldens would silently self-heal" >&2
    exit 1
fi

echo "== structural gate (serverful env stays modular) =="
# The env monolith was broken up into focused modules; keep it that
# way. No serverful source file may grow past 1,200 lines. Monitor state
# lives only in MonitorHandle, keyed by generation: the old hand-rolled
# poll state machine (Route::Poll, MonitorState) must not reappear.
oversized=$(find crates/serverful/src -name '*.rs' \
    | xargs wc -l | awk '$2 != "total" && $1 > 1200 {print $2 " (" $1 " lines)"}')
[[ -z "$oversized" ]] \
    || { echo "serverful source over the 1,200-line ceiling:"; \
         echo "$oversized"; exit 1; } >&2
if grep -rn "Route::Poll\b\|MonitorState" crates/serverful/src; then
    echo "hand-rolled monitor machinery (Route::Poll / MonitorState) is back" >&2
    exit 1
fi
# Drivers are plain loops over CloudEnv: the driver-side reactors
# (dag_async, CellRef, job futures, the all-jobs completion scan) must
# not return.
if grep -rnw "dag_async\|run_dag_async\|CellRef\|job_future\|scan_completions" \
    crates src tests examples --include='*.rs'; then
    echo "deleted driver reactor machinery is back" >&2
    exit 1
fi
# One clock: the world's event queue is the only scheduler. CloudEnv's
# control loops are generation-, attempt- or epoch-keyed timer routes,
# and the async kernel they used to run on is gone for good.
if grep -rn "AsyncExecutor\|simkernel::aio" crates src tests examples; then
    echo "the deleted async kernel (simkernel::aio) is back" >&2
    exit 1
fi

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs (deny warnings, incl. missing_docs) =="
# Every workspace crate carries #![warn(missing_docs)]; -D warnings
# promotes any undocumented public item to a failure. The rendered tree
# under target/doc is the CI doc artifact: every crate must have
# produced an index page.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
for crate in bench bytes cloudsim clustersim fleet metaspace planner \
             serverful shuffle simkernel telemetry workload; do
    [[ -f "target/doc/$crate/index.html" ]] \
        || { echo "doc artifact missing for crate $crate" >&2; exit 1; }
done
ls -d target/doc

echo "== doctests (count-gated) =="
# Doc examples are part of the documented API surface; losing them is
# doc drift even when rustdoc stays warning-free. Keep the floor in
# sync when examples are deliberately added or removed.
cargo test --workspace --doc -q | tee /tmp/doctests.txt
doctests=$(grep -Eo '[0-9]+ passed' /tmp/doctests.txt | awk '{s+=$1} END {print s}')
[[ "${doctests:-0}" -ge 43 ]] \
    || { echo "doctest count dropped to ${doctests:-0} (floor 43)" >&2; exit 1; }

echo "== tests (debug, incl. fast goldens) =="
cargo test --workspace -q

echo "== planner smoke search (Brain) =="
# The smoke space holds only the paper's three named deployments; the
# planner must still find a frontier plan that beats pure serverless on
# cost (the paper's Figure 4 direction). Debug evaluation of the full
# pipeline takes minutes, so this runs the release binary.
cargo build --release -p bench -q
./target/release/repro plan brain --smoke --threads 2 --seed 42 \
    | tee /tmp/plan_smoke.txt
grep -q "verdict: frontier beats pure-serverless on cost: yes" /tmp/plan_smoke.txt \
    || { echo "planner smoke search lost to pure serverless" >&2; exit 1; }

echo "== system benchmark (sysbench self-tests + one short run per workload) =="
# The benchmark of the real simulator (BENCHMARK.json, sysbench/) must
# build against the crates, pass its self-tests, and run each declared
# workload to completion with every simulated output checked: the last
# line of each run must report "correct": true and "failed": 0.
# fleet-mixed runs 8 s: its scaling slope, gated below, is a median over
# passes, and a 1 s run (one pass) read anywhere from 0.8 to 1.5 on a
# 2-vCPU VM.
cargo test --offline --manifest-path sysbench/Cargo.toml -q
for wl in xeno-serverless fleet-mixed planner-brain; do
    secs=1
    [[ "$wl" == fleet-mixed ]] && secs=8
    cargo run --quiet --release --offline --manifest-path sysbench/Cargo.toml -- \
        --workload "$wl" --seed 42 --seconds "$secs" --trace 0 > /tmp/sysbench_"$wl".txt
    last=$(tail -n 1 /tmp/sysbench_"$wl".txt)
    [[ "$last" == *'"correct": true'* && "$last" == *'"failed": 0'* ]] \
        || { echo "sysbench $wl: $last" >&2; exit 1; }
done
# Fleet cells must cost about linearly in jobs: the log-log slope of wall
# time from the 240- to the 480-job pass. On a 2-vCPU VM healthy 8 s
# runs read 0.9-1.2; a driver that revisits every unfinished job after
# every event reads 1.5-1.7.
slope=$(tail -n 1 /tmp/sysbench_fleet-mixed.txt \
    | grep -Eo '"scaling_slope": \{"value": [-0-9.eE+]+' | grep -Eo '[-0-9.eE+]+$' || true)
awk -v s="$slope" 'BEGIN { exit !(s != "" && s + 0 <= 1.35) }' \
    || { echo "sysbench fleet-mixed scaling_slope ${slope:-missing}, gate <= 1.35" >&2; exit 1; }

echo "== CLI input is never silently defaulted or clamped =="
# A malformed seed must not fall back to the default, and a requested
# fleet window the preset's job cap would cut short must not run.
if ./target/release/repro table1 notaseed > /dev/null 2>&1; then
    echo "repro accepted a non-integer seed" >&2; exit 1
fi
if ./target/release/repro fleet mixed --duration 1920 > /dev/null 2>&1; then
    echo "repro fleet ran a --duration its max_jobs cap cuts short" >&2; exit 1
fi

echo "== fleet smoke determinism (threads 1 vs 8, repeat runs) =="
# The multi-tenant traffic report must be byte-identical for any worker
# count and across repeat runs at the same seed.
./target/release/repro fleet smoke --seed 42 --threads 1 > /tmp/fleet_a.txt
./target/release/repro fleet smoke --seed 42 --threads 8 > /tmp/fleet_b.txt
./target/release/repro fleet smoke --seed 42 --threads 8 > /tmp/fleet_c.txt
diff /tmp/fleet_a.txt /tmp/fleet_b.txt \
    || { echo "fleet report depends on --threads" >&2; exit 1; }
diff /tmp/fleet_b.txt /tmp/fleet_c.txt \
    || { echo "fleet report drifts across runs" >&2; exit 1; }
grep -q "shared-pool" /tmp/fleet_a.txt \
    || { echo "fleet report missing the shared-pool policy" >&2; exit 1; }

echo "== provider registry + spot-market smoke =="
# The region table must list every registered region, and the provider
# sweep must stay deterministic across repeat runs at the same seed.
./target/release/repro providers > /tmp/providers.txt
for region in aws-us-east-1 aws-eu-west-1 gcp-us-central1; do
    grep -q "$region" /tmp/providers.txt \
        || { echo "repro providers missing region $region" >&2; exit 1; }
done
./target/release/repro plan brain --providers --threads 2 --seed 42 > /tmp/prov_a.txt
./target/release/repro plan brain --providers --threads 8 --seed 42 > /tmp/prov_b.txt
diff /tmp/prov_a.txt /tmp/prov_b.txt \
    || { echo "provider sweep depends on --threads" >&2; exit 1; }

echo "== master-kill chaos matrix (smoke) =="
# Kill the serverful master at seeded event indices under both recovery
# modes x both execution modes x two workloads; every cell must finish
# with the fault-free run's science digest and bounded billing, and
# replay byte-identically. (Runs again here, unfiltered, for visible
# per-cell verdicts even though the workspace pass above includes it.)
cargo test -q --test recovery -- --nocapture 2>&1 \
    | tee /tmp/chaos_smoke.txt | grep "chaos cell OK"

echo "== dag smoke determinism + pipelined win (Brain) =="
# Barrier-vs-pipelined comparison must be byte-identical across repeat
# runs at the same seed, and the pipelined schedule must beat the
# barrier at equal-or-lower cost even on the scaled smoke graph.
./target/release/repro dag brain --smoke --seed 42 > /tmp/dag_a.txt
./target/release/repro dag brain --smoke --seed 42 > /tmp/dag_b.txt
diff /tmp/dag_a.txt /tmp/dag_b.txt \
    || { echo "dag comparison drifts across runs" >&2; exit 1; }
grep -q "verdict: pipelined beats barrier at equal-or-lower cost: yes" /tmp/dag_a.txt \
    || { echo "pipelined scheduling lost to the barrier" >&2; exit 1; }

echo "== workload smoke gate (every bundled workload, seeded, twice) =="
# Every bundled workload description must parse, validate, emit
# canonically, run one seeded smoke cell deterministically, and print
# its two verdict lines. The DSL round trip itself is asserted here at
# the CLI level: emit must be a fixed point.
./target/release/repro workload --list > /tmp/workload_names.txt
[[ "$(wc -l < /tmp/workload_names.txt)" -ge 8 ]] \
    || { echo "workload catalog lost entries" >&2; exit 1; }
while read -r wl; do
    ./target/release/repro workload "$wl" --dsl > /tmp/wl_dsl.txt
    grep -q "^workload " /tmp/wl_dsl.txt \
        || { echo "workload $wl: DSL emission broken" >&2; exit 1; }
    ./target/release/repro workload "$wl" --smoke --seed 42 > /tmp/wl_a.txt
    ./target/release/repro workload "$wl" --smoke --seed 42 > /tmp/wl_b.txt
    diff /tmp/wl_a.txt /tmp/wl_b.txt \
        || { echo "workload $wl drifts across runs" >&2; exit 1; }
    [[ "$(grep -c "^verdict: $wl:" /tmp/wl_a.txt)" -eq 2 ]] \
        || { echo "workload $wl: missing verdict lines" >&2; exit 1; }
done < <(sed 's/metaspace-brain/Brain/;s/metaspace-xenograft/Xenograft/;s/metaspace-x089/X089/' /tmp/workload_names.txt)

echo "== workload from disk (.wl round trip) =="
# A workload emitted as DSL, written to disk and loaded back via
# `repro workload path/to.wl` must run byte-identically to its bundled
# twin: the file loader and the catalog resolve to the same graph.
./target/release/repro workload terasort-small --dsl > /tmp/terasort-small.wl
./target/release/repro workload /tmp/terasort-small.wl --smoke --seed 42 > /tmp/wl_disk.txt
./target/release/repro workload terasort-small --smoke --seed 42 > /tmp/wl_bundled.txt
diff /tmp/wl_disk.txt /tmp/wl_bundled.txt \
    || { echo "disk-loaded workload diverges from its bundled twin" >&2; exit 1; }

if [[ "${1:-}" == "--full" ]]; then
    echo "== tests (release: paper-scale + chaos + golden gates) =="
    cargo test --workspace --release -q

    echo "== master-kill chaos matrix (paper scale, per-cell verdicts) =="
    # The release gate: all three Table 2 workloads x {Barrier,
    # Pipelined} x {Checkpointed, Decentralized}, one verdict per cell.
    # (The test is only #[ignore]d in debug builds, so no --ignored here:
    # in release that filter would select nothing.)
    cargo test --release --test recovery full_matrix_paper_scale -- \
        --nocapture 2>&1 \
        | tee /tmp/chaos_full.txt | grep "chaos cell OK"
    cells=$(grep -c "chaos cell OK" /tmp/chaos_full.txt)
    [[ "$cells" -eq 12 ]] \
        || { echo "chaos matrix reported $cells/12 cells" >&2; exit 1; }

    echo "== trace artifact (Xenograft, seed 42) =="
    mkdir -p target/artifacts
    ./target/release/repro trace xenograft --seed 42 \
        > target/artifacts/xenograft-trace.json \
        2> target/artifacts/xenograft-trace-summary.txt
    ls -l target/artifacts/xenograft-trace.json

    echo "== planner frontier artifact (Brain, full space, seed 42) =="
    ./target/release/repro plan brain --objective pareto --threads 8 --seed 42 \
        > target/artifacts/brain-frontier.txt
    grep -q "verdict: one frontier hybrid beats both baselines: yes" \
        target/artifacts/brain-frontier.txt \
        || { echo "planner failed to rediscover a dominating hybrid" >&2; exit 1; }
    ls -l target/artifacts/brain-frontier.txt
fi

echo "CI OK"
