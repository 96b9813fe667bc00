//! Golden-table and golden-trace regression tests.
//!
//! Each golden file under `tests/goldens/` snapshots the exact text the
//! `repro` binary prints for one table or figure at seed 42. The
//! simulation is deterministic, so a golden only moves when behaviour
//! does: an unexplained diff is a regression, not noise.
//!
//! After an *intentional* behaviour change, refresh the snapshots and
//! review the diff like any other code change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --release --test goldens
//! ```
//!
//! The paper-scale goldens (Tables 3–4, Figures 5–6, the Xenograft
//! trace) are ignored under debug builds; run them with `--release`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use serverful_repro::bench::render::{
    render_fig5, render_fig6, render_table1, render_table2, render_table3, render_table4,
};
use serverful_repro::cloudsim::CloudConfig;
use serverful_repro::fleet::{run_policy, whatif, Policy, PolicyOutcome, Scenario};
use serverful_repro::metaspace::{
    jobs, pipeline, run_workload, Architecture, DeploymentPlan, FunctionsPlan, PlanKind, Stage,
    TraceOutput,
};
use serverful_repro::serverful::{
    run_dag, Backend, CloudEnv, Dag, DagNode, Edge, ExecutionMode, ExecutorConfig,
    FunctionExecutor, MapOptions, Payload, ScriptTask,
};
use serverful_repro::simkernel::SimTime;

/// The one seed all goldens are pinned to.
const GOLDEN_SEED: u64 = 42;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.txt"))
}

/// Compares `actual` against the stored golden, or rewrites the golden
/// when `UPDATE_GOLDENS=1` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDENS").as_deref() == Ok("1") {
        fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\n(create it with UPDATE_GOLDENS=1 cargo test --release --test goldens)",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mismatch = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "golden `{name}` drifted (first difference at line {}):\n\
         --- expected ({})\n{}\n--- actual\n{}\n\
         If this change is intentional, refresh with UPDATE_GOLDENS=1 \
         cargo test --release --test goldens and commit the diff.",
        mismatch + 1,
        path.display(),
        expected.lines().nth(mismatch).unwrap_or("<eof>"),
        actual.lines().nth(mismatch).unwrap_or("<eof>"),
    );
}

#[test]
fn golden_table1() {
    check_golden("table1", &render_table1(GOLDEN_SEED));
}

#[test]
fn golden_table2() {
    check_golden("table2", &render_table2());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn golden_table3() {
    check_golden("table3", &render_table3(GOLDEN_SEED));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn golden_table4() {
    check_golden("table4", &render_table4(GOLDEN_SEED));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn golden_fig5() {
    check_golden("fig5", &render_fig5(GOLDEN_SEED));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn golden_fig6() {
    check_golden("fig6", &render_fig6(GOLDEN_SEED));
}

// --- golden traces -------------------------------------------------------

fn traced(job: &str, arch: Architecture, seed: u64) -> TraceOutput {
    let spec = jobs::all()
        .into_iter()
        .find(|j| j.name == job)
        .expect("job in Table 2");
    let w = pipeline::job_workload(&spec);
    let plan = DeploymentPlan::for_architecture(arch, &w.stages);
    let (_, trace) =
        run_workload(&w, &plan, seed, CloudConfig::default(), true).expect("traced run");
    trace.expect("traced run returns a trace")
}

/// The tracer is deterministic: two runs of the same seeded job emit
/// byte-identical Chrome JSON, and a different seed emits a different
/// trace. Brain is the smallest Table 2 job, so this stays in the debug
/// suite.
#[test]
fn trace_same_seed_is_byte_identical() {
    let a = traced("Brain", Architecture::Serverless, 7);
    let b = traced("Brain", Architecture::Serverless, 7);
    assert_eq!(a.chrome_json, b.chrome_json, "same seed must replay identically");
    assert_eq!(a.summary, b.summary);
    let c = traced("Brain", Architecture::Serverless, 8);
    assert_ne!(a.chrome_json, c.chrome_json, "different seeds must differ");
}

/// The trace summary (span counts, per-stage latency quantiles, wasted
/// work) is goldened for the Brain job: cheap to run, and it pins the
/// whole tracer→collector→summary pipeline.
#[test]
fn golden_trace_brain_summary() {
    let trace = traced("Brain", Architecture::Serverless, GOLDEN_SEED);
    check_golden("trace_brain_summary", &trace.summary);
}

// --- driver pin -----------------------------------------------------------

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn micros(t: SimTime) -> u64 {
    t.as_micros()
}

/// One fleet cell: every job's timing, the bill as f64 bit patterns,
/// the admission/pool counters and the science digest.
fn write_cell(out: &mut String, title: &str, o: &PolicyOutcome) {
    let _ = writeln!(out, "cell {title} label={}", o.label);
    for j in &o.jobs {
        let _ = writeln!(
            out,
            "  job {} tenant={} arrived_us={} finished_us={}",
            j.name,
            j.tenant,
            micros(j.arrived),
            micros(j.finished)
        );
    }
    let tenants: Vec<String> = o
        .tenant_cost_usd
        .iter()
        .map(|c| format!("{:#x}", c.to_bits()))
        .collect();
    let _ = writeln!(
        out,
        "  cost_bits={:#x} tenant_cost_bits=[{}]",
        o.cost_usd.to_bits(),
        tenants.join(",")
    );
    let _ = writeln!(
        out,
        "  throttled={} degraded={} pool_leases={} pool_hits={} preemptions={} spot_fallbacks={} science_digest={:#x}",
        o.throttled, o.degraded, o.pool_leases, o.pool_hits, o.preemptions, o.spot_fallbacks, o.science_digest
    );
}

struct DiamondCtx {
    exec: FunctionExecutor,
}

/// The diamond of `examples/dag_pipeline.rs`: load -> {left, right} ->
/// join, partition-wise branches and a shuffle into the join.
fn diamond() -> Dag<DiamondCtx> {
    fn node(label: &str, tasks: usize, secs: f64, deps: Vec<Edge>) -> DagNode<DiamondCtx> {
        let name = label.to_owned();
        DagNode {
            label: name.clone(),
            group: None,
            tasks,
            deps,
            launch: Box::new(move |ctx, env, gated| {
                let mut opts = MapOptions::named(name.clone());
                if gated {
                    opts = opts.gated();
                }
                let factory = Arc::new(move |_: &Payload| {
                    ScriptTask::new()
                        .compute(secs)
                        .finish_value(Payload::U64(0))
                        .boxed()
                });
                let inputs = (0..tasks as u64).map(Payload::U64).collect();
                Ok(ctx.exec.map_with(env, factory, inputs, opts))
            }),
        }
    }
    let mut dag = Dag::new();
    let load = dag.add_node(node("load", 8, 2.0, vec![]));
    let left = dag.add_node(node("left", 8, 1.5, vec![Edge::one_to_one(load)]));
    let right = dag.add_node(node("right", 8, 0.5, vec![Edge::one_to_one(load)]));
    dag.add_node(node(
        "join",
        4,
        1.0,
        vec![Edge::all_to_all(left), Edge::all_to_all(right)],
    ));
    dag
}

/// The hybrid plan of `stages`, dependency-driven.
fn hybrid_pipelined(stages: &[Stage]) -> DeploymentPlan {
    let PlanKind::Functions(f) = DeploymentPlan::hybrid(stages).kind else {
        unreachable!("hybrid is a functions plan")
    };
    DeploymentPlan::functions(
        "hybrid-pipelined",
        FunctionsPlan {
            execution: ExecutionMode::Pipelined,
            ..f
        },
    )
}

/// Everything the orchestration drivers decide, at integer or bit
/// precision: the fleet cells (barrier and pipelined, all three
/// policies), one plan-placed what-if cell, the DAG scheduler's
/// per-task release/done stamps, and a pipelined Brain run.
fn render_drivers() -> String {
    let mut out = String::new();
    for pipelined in [false, true] {
        let mut sc = Scenario::smoke();
        sc.pipelined = pipelined;
        for policy in [Policy::Serverless, Policy::PerJobFleet, Policy::SharedPool] {
            let o = run_policy(&sc, policy, GOLDEN_SEED).expect("smoke cell completes");
            write_cell(&mut out, &format!("smoke pipelined={pipelined}"), &o);
        }
    }

    let sc = Scenario::smoke();
    let plan = hybrid_pipelined(&sc.tenants[0].stages());
    let o = whatif::plan_under_load(&sc, &plan, GOLDEN_SEED).expect("what-if cell completes");
    write_cell(&mut out, "smoke what-if", &o);

    for mode in [ExecutionMode::Barrier, ExecutionMode::Pipelined] {
        let mut env = CloudEnv::new_default(GOLDEN_SEED);
        let exec = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
        let mut ctx = DiamondCtx { exec };
        let stats = run_dag(&mut env, &mut ctx, diamond(), mode).expect("diamond runs");
        let _ = writeln!(out, "dag diamond {mode} end_us={}", micros(env.now()));
        for n in &stats.nodes {
            let us = |ts: &[SimTime]| {
                ts.iter()
                    .map(|t| micros(*t).to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = writeln!(
                out,
                "  node {} tasks={} launched_us={} finished_us={} released_us=[{}] done_us=[{}]",
                n.label,
                n.tasks,
                micros(n.launched_at),
                micros(n.finished_at),
                us(&n.released_at),
                us(&n.done_at)
            );
        }
    }

    let w = pipeline::job_workload(&jobs::brain());
    let plan = hybrid_pipelined(&w.stages);
    let (r, trace) = run_workload(&w, &plan, GOLDEN_SEED, CloudConfig::default(), true)
        .expect("pipelined Brain runs");
    let trace = trace.expect("traced run returns a trace");
    let _ = writeln!(
        out,
        "brain {} wall_bits={:#x} cost_bits={:#x} chrome_fnv={:#x}",
        plan.name,
        r.wall_secs.to_bits(),
        r.cost_usd.to_bits(),
        fnv1a(trace.chrome_json.as_bytes())
    );
    for s in &r.stages {
        let _ = writeln!(
            out,
            "  stage {} tasks={} start_us={} end_us={}",
            s.name,
            s.tasks,
            (s.start_secs * 1e6).round() as u64,
            (s.end_secs * 1e6).round() as u64
        );
    }
    out
}

/// The cross-commit pin for the fleet driver, the DAG scheduler and
/// plan-placed what-if cells: refactors of the orchestration layer
/// must leave every figure here unchanged.
#[test]
fn golden_drivers() {
    check_golden("drivers", &render_drivers());
}

/// The paper-scale acceptance check: the seeded Xenograft trace replays
/// byte-for-byte, on the serverless and the hybrid architecture.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn xenograft_trace_is_byte_identical() {
    for arch in [Architecture::Serverless, Architecture::Hybrid] {
        let a = traced("Xenograft", arch, 42);
        let b = traced("Xenograft", arch, 42);
        assert_eq!(a.chrome_json, b.chrome_json, "arch {arch:?}");
    }
}
