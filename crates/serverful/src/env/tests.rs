//! Control-loop bookkeeping: submission-time validation, that a
//! drained run leaves no monitor, retry or checkpoint state behind, and
//! that the finished-job queue reports every job exactly once.

use std::sync::Arc;

use cloudsim::FaultConfig;

use super::*;
use crate::config::ExecutorConfig;
use crate::executor::{Backend, FunctionExecutor};
use crate::job::TaskFactory;
use crate::task::{ScriptTask, TaskStep};

fn square_factory() -> TaskFactory {
    Arc::new(|input: &Payload| {
        let i = input.as_u64().expect("u64 input");
        ScriptTask::new()
            .compute(2.0)
            .finish_value(Payload::U64(i * i))
            .boxed()
    })
}

fn checkpointed_config(interval_secs: f64) -> ExecutorConfig {
    let mut cfg = ExecutorConfig::default();
    cfg.retry.max_attempts = 8;
    cfg.standalone.exec_mode = ExecMode::Fleet {
        instance_type: "c5.large".to_owned(),
        count: 2,
    };
    cfg.standalone.recovery = RecoveryMode::Checkpointed;
    cfg.standalone.checkpoint_interval_secs = interval_secs;
    cfg
}

#[test]
fn checkpointed_map_rejects_an_interval_that_never_advances() {
    for secs in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-9] {
        let mut env = CloudEnv::new_default(3);
        let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), checkpointed_config(secs));
        let job = exec.map(&mut env, square_factory(), vec![Payload::U64(1)]);
        match exec.get_result(&mut env, job) {
            Err(ExecError::Unsupported(msg)) => {
                assert!(msg.contains("checkpoint_interval_secs"), "{secs}: {msg}");
            }
            other => panic!("interval {secs}: expected Unsupported, got {other:?}"),
        }
        assert_eq!(env.events_routed(), 0, "a rejected map must not run");
    }
    // Only Checkpointed pools take snapshots; the others ignore the field.
    let mut cfg = checkpointed_config(0.0);
    cfg.standalone.recovery = RecoveryMode::Protected;
    let mut env = CloudEnv::new_default(3);
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);
    let job = exec.map(&mut env, square_factory(), vec![Payload::U64(3)]);
    assert_eq!(exec.get_result(&mut env, job), Ok(vec![Payload::U64(9)]));
}

#[test]
fn drained_checkpointed_run_leaves_no_control_loop_state() {
    let cloud = CloudConfig {
        faults: FaultConfig {
            sandbox_crash_prob: 0.1,
            sandbox_crash_after: (0.5, 20.0),
            vm_loss_prob: 0.3,
            vm_loss_after: (5.0, 40.0),
            storage_error_prob: 0.08,
            storage_slowdown_prob: 0.02,
            ..FaultConfig::disabled()
        },
        ..CloudConfig::default()
    };
    let mut env = CloudEnv::new(cloud, 7);
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), checkpointed_config(0.5));
    env.arm_master_kill(0, 60);
    for n in [12, 5] {
        let inputs = (0..n).map(Payload::U64).collect();
        let job = exec.map(&mut env, square_factory(), inputs);
        let expected: Vec<Payload> = (0..n).map(|i| Payload::U64(i * i)).collect();
        assert_eq!(exec.get_result(&mut env, job), Ok(expected));
    }
    exec.shutdown(&mut env);
    // FaaS work on the same env: sandbox crashes back off through task
    // retries, and a straggler sweep rides the completion monitor.
    let mut cfg = ExecutorConfig::default();
    cfg.retry.max_attempts = 8;
    cfg.retry.straggler_timeout_secs = Some(4.0);
    let mut faas = FunctionExecutor::new(&mut env, Backend::faas(), cfg);
    let job = faas.map(&mut env, square_factory(), (0..24).map(Payload::U64).collect());
    assert!(faas.get_result(&mut env, job).is_ok());
    while env.pump() != EnvEvent::Drained {}

    assert_eq!(env.recovery_stats().masters_replaced, 1, "the kill fired");
    assert!(env.recovery_stats().checkpoints_written > 0);
    let ledger = env.world().fault_ledger();
    assert!(ledger.storage_retries > 0, "{}", ledger.report());
    // Both re-dispatch paths wait out their backoff in a retry timer.
    assert!(
        ledger.task_retries + ledger.stragglers_redispatched > 0,
        "{}",
        ledger.report()
    );
    assert!(env.monitors.is_empty(), "monitor handles leaked");
    assert!(env.pending_task_retries.is_empty(), "task retries leaked");
    assert!(env.deferred.is_empty(), "deferred checkpoint work leaked");
    for p in &env.pools {
        assert_eq!(p.next_checkpoint, None, "a checkpoint deadline leaked");
        assert_eq!(p.checkpoint_loop, None, "a checkpoint loop outlived its job");
        assert_eq!(p.readopt_pending, None, "a re-adoption leaked");
    }
}

#[test]
fn finished_queue_reports_every_job_once_in_finish_order() {
    let mut env = CloudEnv::new_default(5);
    let mut faas = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let mut vm = FunctionExecutor::new(&mut env, Backend::vm(), ExecutorConfig::default());
    let mut bad_pool = FunctionExecutor::new(&mut env, Backend::vm(), checkpointed_config(0.0));

    let ok_faas = faas.map(
        &mut env,
        square_factory(),
        (0..4).map(Payload::U64).collect(),
    );
    let ok_vm = vm.map(
        &mut env,
        square_factory(),
        (0..4).map(Payload::U64).collect(),
    );
    let failing: TaskFactory = Arc::new(|_: &Payload| {
        ScriptTask::new()
            .compute(1.0)
            .finish_with(|_, _| TaskStep::Fail("boom".to_owned()))
            .boxed()
    });
    let task_error = faas.map(&mut env, failing, vec![Payload::U64(0)]);
    // `check_backend` rejects this one inside `map`: it is finished, and
    // queued, before the world has moved.
    let rejected = bad_pool.map(&mut env, square_factory(), vec![Payload::U64(1)]);
    let mut order = Vec::new();
    env.take_finished(&mut order);
    assert_eq!(order, vec![rejected], "only the rejected job has finished");

    while env.pump() != EnvEvent::Drained {
        env.take_finished(&mut order);
    }
    env.take_finished(&mut order);
    let mut ids: Vec<usize> = order.iter().map(JobHandle::index).collect();
    let finished_at: Vec<SimTime> = ids
        .iter()
        .map(|&id| env.jobs[id].finished_at.expect("queued jobs are finished"))
        .collect();
    assert!(
        finished_at.windows(2).all(|w| w[0] <= w[1]),
        "not in finish order: {ids:?} at {finished_at:?}"
    );
    ids.sort_unstable();
    let mut expected: Vec<usize> = [ok_faas, ok_vm, task_error, rejected]
        .iter()
        .map(JobHandle::index)
        .collect();
    expected.sort_unstable();
    assert_eq!(ids, expected, "every job exactly once");

    let mut again = Vec::new();
    env.take_finished(&mut again);
    assert!(again.is_empty(), "a second drain reported {again:?}");

    let squares: Vec<Payload> = (0..4).map(|i| Payload::U64(i * i)).collect();
    assert_eq!(
        faas.try_result(&mut env, ok_faas),
        Some(Ok(squares.clone()))
    );
    assert_eq!(vm.try_result(&mut env, ok_vm), Some(Ok(squares)));
    assert!(matches!(
        faas.try_result(&mut env, task_error),
        Some(Err(ExecError::TaskFailed(_)))
    ));
    assert!(matches!(
        bad_pool.try_result(&mut env, rejected),
        Some(Err(ExecError::Unsupported(_)))
    ));
}
