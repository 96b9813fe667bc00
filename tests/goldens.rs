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
use serverful_repro::cloudsim::{CloudConfig, FaultConfig};
use serverful_repro::fleet::{run_policy, whatif, Policy, PolicyOutcome, Scenario};
use serverful_repro::metaspace::{
    jobs, pipeline, run_workload, run_workload_chaos, Architecture, DeploymentPlan,
    FunctionsPlan, PlanKind, Stage, TraceOutput,
};
use serverful_repro::serverful::{
    run_dag, Backend, CloudEnv, Dag, DagNode, Edge, ExecMode, ExecutionMode, ExecutorConfig,
    FunctionExecutor, MapOptions, Payload, RecoveryMode, RecoveryStats, RetryPolicy, ScriptTask,
};
use serverful_repro::simkernel::{SimRng, SimTime};
use serverful_repro::telemetry::FaultLedger;

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

// --- control-loop pin -----------------------------------------------------

/// The fault ledger's retry-side counters and waste, at bit precision.
fn write_faults(out: &mut String, f: &FaultLedger) {
    let _ = writeln!(
        out,
        "  faults task_retries={} storage_retries={} vm_replacements={} stragglers={} \
         spot_fallbacks={} exhausted={} injected={} waste_bits=[{:#x},{:#x}]",
        f.task_retries,
        f.storage_retries,
        f.vm_replacements,
        f.stragglers_redispatched,
        f.spot_fallbacks,
        f.attempts_exhausted,
        f.total_injected(),
        f.wasted_gb_secs.to_bits(),
        f.wasted_instance_secs.to_bits()
    );
}

/// Every recovery counter.
fn write_recovery(out: &mut String, r: &RecoveryStats) {
    let _ = writeln!(
        out,
        "  recovery checkpoints={} checkpoint_bytes={} replaced={} readopted={} \
         redispatched={} continuations={} counters={} master_data_ops={}",
        r.checkpoints_written,
        r.checkpoint_bytes,
        r.masters_replaced,
        r.workers_readopted,
        r.tasks_redispatched,
        r.continuations_fired,
        r.counters_written,
        r.master_data_ops
    );
}

/// One master-kill run of a `tests/recovery.rs` smoke cell.
fn write_chaos_run(
    out: &mut String,
    w: &pipeline::Workload,
    plan: &DeploymentPlan,
    kills: &[u64],
) -> u64 {
    let (r, c) = run_workload_chaos(w, plan, GOLDEN_SEED, CloudConfig::default(), kills)
        .unwrap_or_else(|e| panic!("{} kills={kills:?}: {e}", plan.name));
    let _ = writeln!(
        out,
        "run {} {} kills={kills:?} wall_bits={:#x} cost_bits={:#x} events={} list_overlap={} \
         science_digest={:#x}",
        w.name,
        plan.name,
        r.wall_secs.to_bits(),
        r.cost_usd.to_bits(),
        c.events_routed,
        c.monitor_list_overlap,
        c.science_digest
    );
    for s in &r.stages {
        let _ = writeln!(
            out,
            "  stage {} start_us={} end_us={}",
            s.name,
            (s.start_secs * 1e6).round() as u64,
            (s.end_secs * 1e6).round() as u64
        );
    }
    write_faults(out, &c.faults);
    write_recovery(out, &c.recovery);
    c.events_routed
}

/// The hybrid plan of a `tests/recovery.rs` matrix cell.
fn chaos_cell_plan(
    stages: &[Stage],
    execution: ExecutionMode,
    recovery: RecoveryMode,
    vm_count: usize,
) -> DeploymentPlan {
    let PlanKind::Functions(f) = DeploymentPlan::hybrid(stages).kind else {
        unreachable!("hybrid is a functions plan")
    };
    DeploymentPlan::functions(
        format!("hybrid-{execution}-{}-vm{vm_count}", recovery.name()),
        FunctionsPlan {
            execution,
            recovery,
            vm_count,
            ..f
        },
    )
}

/// A pure squaring task (results are a function of the input, so every
/// re-executed attempt reproduces them).
fn square_factory(secs: f64) -> serverful_repro::serverful::job::TaskFactory {
    Arc::new(move |input: &Payload| {
        let i = input.as_u64().expect("u64 input");
        ScriptTask::new()
            .compute(secs)
            .finish_value(Payload::U64(i * i))
            .boxed()
    })
}

/// One directly driven map: its finish time, the env's bill and
/// control-loop counters so far, and a digest of its results.
fn write_direct_job(
    out: &mut String,
    env: &mut CloudEnv,
    exec: &mut FunctionExecutor,
    name: &str,
    tasks: u64,
    secs: f64,
) {
    let job = exec.map_with(
        env,
        square_factory(secs),
        (0..tasks).map(Payload::U64).collect(),
        MapOptions::named(name),
    );
    let digest = match exec.get_result(env, job) {
        Ok(results) => {
            let bytes: Vec<u8> = results.iter().flat_map(Payload::encode).collect();
            format!("{:#x}", fnv1a(&bytes))
        }
        Err(e) => format!("error({e})"),
    };
    let _ = writeln!(
        out,
        "job {name} finished_us={} cost_bits={:#x} events={} list_overlap={} \
         science_digest={digest}",
        micros(env.now()),
        env.world().ledger().total().to_bits(),
        env.events_routed(),
        env.monitor_list_overlap()
    );
    write_faults(out, env.world().fault_ledger());
    write_recovery(out, env.recovery_stats());
}

/// Storage 5xx, sandbox crashes and VM loss all on.
fn faulty_cloud() -> CloudConfig {
    CloudConfig {
        faults: FaultConfig {
            sandbox_crash_prob: 0.08,
            sandbox_crash_after: (0.5, 20.0),
            vm_loss_prob: 0.3,
            vm_loss_after: (5.0, 40.0),
            storage_error_prob: 0.08,
            storage_slowdown_prob: 0.02,
            ..FaultConfig::disabled()
        },
        ..CloudConfig::default()
    }
}

/// A retry policy deep enough for [`faulty_cloud`], with straggler
/// speculation on.
fn faulty_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        straggler_timeout_secs: Some(4.0),
        ..RetryPolicy::default()
    }
}

/// Everything the environment's control loops decide — completion
/// monitors, straggler sweeps, task and storage retry backoffs,
/// checkpoint cadence and master re-adoption — at integer or bit
/// precision: the smoke master-kill cells of `tests/recovery.rs`, a
/// Checkpointed reuse pool running jobs back to back, and FaaS and
/// serverful runs under storage, sandbox and VM faults.
fn render_control_loops() -> String {
    let mut out = String::new();
    let brain = jobs::brain();
    let xeno = jobs::xenograft();
    let cells = [
        (&brain, 0.02, ExecutionMode::Barrier, 4, 0),
        (&brain, 0.02, ExecutionMode::Pipelined, 4, 10),
        (&xeno, 0.008, ExecutionMode::Barrier, 4, 20),
        (&xeno, 0.008, ExecutionMode::Pipelined, 4, 30),
        (&brain, 0.02, ExecutionMode::Barrier, 1, 40),
    ];
    for (spec, scale, execution, vm_count, case) in cells {
        let w = pipeline::scaled_workload(spec, scale);
        for (i, recovery) in [RecoveryMode::Checkpointed, RecoveryMode::Decentralized]
            .into_iter()
            .enumerate()
        {
            let plan = chaos_cell_plan(&w.stages, execution, recovery, vm_count);
            let span = write_chaos_run(&mut out, &w, &plan, &[]);
            let case = case + i as u64;
            let mut rng = SimRng::seed_from(0xDEAD_BEEF ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let kill = rng.uniform_u64(span / 8, span / 2 + 1);
            write_chaos_run(&mut out, &w, &plan, &[kill]);
        }
    }
    let w = pipeline::scaled_workload(&brain, 0.02);
    let plan = chaos_cell_plan(
        &w.stages,
        ExecutionMode::Barrier,
        RecoveryMode::Checkpointed,
        4,
    );
    let span = write_chaos_run(&mut out, &w, &plan, &[]);
    write_chaos_run(&mut out, &w, &plan, &[span / 4, span / 2]);

    // A Checkpointed reuse pool: each job's checkpoint loop starts while
    // the previous job's loop still has a snapshot deadline pending.
    let mut env = CloudEnv::new_default(GOLDEN_SEED);
    let mut cfg = ExecutorConfig::default();
    cfg.standalone.recovery = RecoveryMode::Checkpointed;
    cfg.standalone.checkpoint_interval_secs = 2.0;
    cfg.standalone.exec_mode = ExecMode::Fleet {
        instance_type: "c5.large".into(),
        count: 2,
    };
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);
    let sizes = [(8, 3.0), (6, 1.5), (4, 0.7), (8, 2.2), (3, 0.3), (5, 1.1), (7, 0.9)];
    for (i, (tasks, secs)) in sizes.into_iter().enumerate() {
        write_direct_job(&mut out, &mut env, &mut exec, &format!("reuse-{i}"), tasks, secs);
    }
    exec.shutdown(&mut env);

    // FaaS under faults, straggler speculation on.
    let mut env = CloudEnv::new(faulty_cloud(), GOLDEN_SEED);
    let cfg = ExecutorConfig {
        retry: faulty_retry(),
        ..ExecutorConfig::default()
    };
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), cfg);
    write_direct_job(&mut out, &mut env, &mut exec, "faas-faulty", 24, 2.0);

    // Serverful (Checkpointed fleet) under the same faults.
    let mut env = CloudEnv::new(faulty_cloud(), GOLDEN_SEED);
    let mut cfg = ExecutorConfig {
        retry: faulty_retry(),
        ..ExecutorConfig::default()
    };
    cfg.standalone.recovery = RecoveryMode::Checkpointed;
    cfg.standalone.checkpoint_interval_secs = 0.5;
    cfg.standalone.exec_mode = ExecMode::Fleet {
        instance_type: "c5.large".into(),
        count: 3,
    };
    cfg.standalone.reuse_instances = false;
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);
    write_direct_job(&mut out, &mut env, &mut exec, "vm-faulty", 18, 6.0);
    exec.shutdown(&mut env);
    out
}

/// The cross-commit pin for the environment's control loops: a rework
/// of how monitors, retries, sweeps and checkpoints are scheduled must
/// leave every figure here unchanged.
#[test]
fn golden_control_loops() {
    check_golden("control_loops", &render_control_loops());
}
