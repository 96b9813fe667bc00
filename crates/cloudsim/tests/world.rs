//! End-to-end tests of the cloud region model.

use cloudsim::{
    instance_type, CloudConfig, Notify, ObjectBody, OpId, OpOutcome, World,
};
use simkernel::{SimDuration, SimTime};
use telemetry::CostCategory;

fn world() -> World {
    World::new(CloudConfig::default(), 7)
}

/// Pumps until a specific op completes, returning (time, outcome).
fn run_until_op(world: &mut World, op: OpId) -> (SimTime, OpOutcome) {
    while let Some((t, n)) = world.step() {
        if let Notify::Op { op: done, outcome } = n {
            if done == op {
                return (t, outcome);
            }
        }
    }
    panic!("simulation drained before {op} completed");
}

fn run_until_vm_up(world: &mut World, vm: cloudsim::VmId) -> SimTime {
    while let Some((t, n)) = world.step() {
        if let Notify::VmUp { vm: up } = n {
            if up == vm {
                return t;
            }
        }
    }
    panic!("simulation drained before {vm} came up");
}

fn run_until_sandbox_up(world: &mut World, sb: cloudsim::SandboxId) -> SimTime {
    while let Some((t, n)) = world.step() {
        if let Notify::SandboxUp { sandbox } = n {
            if sandbox == sb {
                return t;
            }
        }
    }
    panic!("simulation drained before {sb} came up");
}

#[test]
fn put_then_get_roundtrips_real_bytes() {
    let mut w = world();
    let client = w.client_host();
    let put = w.put_object(client, "b", "k", ObjectBody::real(vec![9u8; 1024]));
    let (t_put, outcome) = run_until_op(&mut w, put);
    assert!(matches!(outcome, OpOutcome::PutOk));
    assert!(t_put.as_secs_f64() > 0.0);

    let get = w.get_object(client, "b", "k");
    let (_, outcome) = run_until_op(&mut w, get);
    match outcome {
        OpOutcome::GetOk { body } => {
            assert_eq!(body.bytes().unwrap().as_ref(), &[9u8; 1024][..]);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn get_of_missing_key_reports_missing() {
    let mut w = world();
    let client = w.client_host();
    let get = w.get_object(client, "b", "nope");
    let (_, outcome) = run_until_op(&mut w, get);
    assert!(matches!(outcome, OpOutcome::GetMissing));
}

#[test]
fn list_returns_sorted_matching_keys() {
    let mut w = world();
    let client = w.client_host();
    for key in ["x/2", "x/1", "y/1"] {
        let op = w.put_object(client, "b", key, ObjectBody::opaque(1));
        run_until_op(&mut w, op);
    }
    let op = w.list_objects(client, "b", "x/");
    let (_, outcome) = run_until_op(&mut w, op);
    match outcome {
        OpOutcome::ListOk { keys } => assert_eq!(keys, vec!["x/1", "x/2"]),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn transfer_time_scales_with_size() {
    // 85 MB at 85 MB/s per connection ≈ 1 s plus latency.
    let mut w = world();
    let client = w.client_host();
    let op = w.put_object(client, "b", "large", ObjectBody::opaque(85_000_000));
    let (t, _) = run_until_op(&mut w, op);
    assert!(
        (1.0..1.4).contains(&t.as_secs_f64()),
        "expected ~1 s transfer, got {t}"
    );
}

#[test]
fn concurrent_transfers_contend_on_aggregate_bandwidth() {
    // Saturate one key prefix (0.85 GB/s) with 200 concurrent 85 MB
    // reads: demand is 17 GB/s, so each flow gets ~2.5 MB/s and takes
    // ~35x longer than it would alone — the storage-saturation effect
    // the paper's stateful stages suffer from.
    let mut cfg = CloudConfig::default();
    cfg.storage.get_rate_per_sec = 1e6; // isolate bandwidth effect
    cfg.storage.put_rate_per_sec = 1e6;
    let mut w = World::new(cfg, 7);
    let client = w.client_host();
    // Client NIC would bottleneck; give transfers distinct hosts by using
    // sandboxes.
    let mut hosts = Vec::new();
    for _ in 0..200 {
        let sb = w.faas_invoke(1769, "lambda");
        hosts.push(sb);
    }
    let mut up = 0;
    while up < hosts.len() {
        match w.step() {
            Some((_, Notify::SandboxUp { .. })) => up += 1,
            Some(_) => {}
            None => panic!("drained before all sandboxes came up"),
        }
    }
    let sandbox_hosts: Vec<_> = hosts.iter().map(|&sb| w.sandbox_host(sb)).collect();
    let seed = w.put_object(client, "b", "obj", ObjectBody::opaque(85_000_000));
    run_until_op(&mut w, seed);
    let t0 = w.now();
    let ops: Vec<OpId> = sandbox_hosts
        .iter()
        .map(|&h| w.get_object(h, "b", "obj"))
        .collect();
    let mut remaining: std::collections::HashSet<OpId> = ops.into_iter().collect();
    let mut last = t0;
    while !remaining.is_empty() {
        match w.step() {
            Some((t, Notify::Op { op, outcome })) if remaining.remove(&op) => {
                assert!(matches!(outcome, OpOutcome::GetOk { .. }));
                last = last.max(t);
            }
            Some(_) => {}
            None => panic!("drained before all GETs completed"),
        }
    }
    let elapsed = (last - t0).as_secs_f64();
    // Alone each GET would take ~1 s; under per-prefix contention ~35 s.
    assert!(
        (25.0..50.0).contains(&elapsed),
        "expected contention-stretched transfers, got {elapsed} s"
    );
}

#[test]
fn compute_queues_fifo_on_vcpu_slots() {
    let mut w = world();
    let it = instance_type("c5.large").unwrap(); // 2 vCPUs
    let vm = w.vm_provision(it, "vm");
    let t_up = run_until_vm_up(&mut w, vm);
    let host = w.vm_host(vm);
    // Three 10 s jobs on 2 slots: makespan 20 s.
    let ops: Vec<OpId> = (0..3).map(|_| w.compute(host, 10.0)).collect();
    let mut finish = Vec::new();
    for op in ops {
        let (t, outcome) = run_until_op(&mut w, op);
        assert!(matches!(outcome, OpOutcome::ComputeOk));
        finish.push((t - t_up).as_secs_f64());
    }
    finish.sort_by(f64::total_cmp);
    assert!((finish[0] - 10.0).abs() < 1e-6);
    assert!((finish[1] - 10.0).abs() < 1e-6);
    assert!((finish[2] - 20.0).abs() < 1e-6);
}

#[test]
fn sandbox_fractional_vcpu_slows_compute() {
    let mut w = world();
    // 885 MB ≈ 0.5 vCPU -> 5 s of CPU takes ~10 s.
    let sb = w.faas_invoke(885, "lambda");
    let t_up = run_until_sandbox_up(&mut w, sb);
    let host = w.sandbox_host(sb);
    let op = w.compute(host, 5.0);
    let (t, _) = run_until_op(&mut w, op);
    let dur = (t - t_up).as_secs_f64();
    assert!((dur - 9.99).abs() < 0.2, "got {dur}");
}

#[test]
fn faas_billing_covers_runtime_and_request() {
    let mut w = world();
    let sb = w.faas_invoke(1769, "lambda");
    run_until_sandbox_up(&mut w, sb);
    let host = w.sandbox_host(sb);
    let op = w.compute(host, 10.0);
    run_until_op(&mut w, op);
    w.faas_release(sb);
    let compute = w.ledger().total_for(CostCategory::FaasCompute);
    // 1769 MB ≈ 1.7275 GiB for 10 s at $1.66667e-5/GiB-s ≈ $2.879e-4.
    let expected = (1769.0 / 1024.0) * 10.0 * 0.0000166667;
    assert!(
        (compute - expected).abs() / expected < 0.01,
        "compute {compute} vs {expected}"
    );
    assert!(w.ledger().total_for(CostCategory::FaasRequests) > 0.0);
}

#[test]
fn vm_billing_enforces_minimum_and_rate() {
    let mut w = world();
    let it = instance_type("m4.4xlarge").unwrap();
    let vm = w.vm_provision(it, "vm");
    run_until_vm_up(&mut w, vm);
    // Terminate quickly: billed the 60 s minimum.
    w.vm_terminate(vm);
    let cost = w.ledger().total_for(CostCategory::VmCompute);
    let expected = 60.0 * it.hourly_usd / 3600.0;
    assert!((cost - expected).abs() < 1e-9, "cost {cost} vs {expected}");
}

#[test]
fn vm_billing_grows_past_minimum() {
    let mut w = world();
    let it = instance_type("m4.4xlarge").unwrap();
    let vm = w.vm_provision(it, "vm");
    run_until_vm_up(&mut w, vm);
    let host = w.vm_host(vm);
    let op = w.compute(host, 300.0);
    run_until_op(&mut w, op);
    w.vm_terminate(vm);
    let cost = w.ledger().total_for(CostCategory::VmCompute);
    let low = 300.0 * it.usd_per_second();
    assert!(cost > low, "cost {cost} should exceed {low}");
    assert!(cost < 310.0 * it.usd_per_second());
}

#[test]
fn kv_queue_push_pop_fifo_and_empty() {
    let mut w = world();
    let it = instance_type("c5.4xlarge").unwrap();
    let vm = w.vm_provision(it, "vm");
    run_until_vm_up(&mut w, vm);
    let kv = w.kv_create(vm);
    let client = w.client_host();
    for i in 0..3u8 {
        let op = w.kv_push(client, kv, "tasks", ObjectBody::real(vec![i]));
        let (_, outcome) = run_until_op(&mut w, op);
        assert!(matches!(outcome, OpOutcome::KvOk));
    }
    for i in 0..3u8 {
        let op = w.kv_pop(client, kv, "tasks");
        let (_, outcome) = run_until_op(&mut w, op);
        match outcome {
            OpOutcome::KvValue { body: Some(body) } => {
                assert_eq!(body.bytes().unwrap().as_ref(), &[i]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let op = w.kv_pop(client, kv, "tasks");
    let (_, outcome) = run_until_op(&mut w, op);
    assert!(matches!(outcome, OpOutcome::KvValue { body: None }));
}

#[test]
fn kv_local_access_is_much_faster_than_remote() {
    let mut w = world();
    let it = instance_type("m4.4xlarge").unwrap(); // 2 Gbit/s NIC
    let vm = w.vm_provision(it, "vm");
    run_until_vm_up(&mut w, vm);
    let kv = w.kv_create(vm);
    let vm_host = w.vm_host(vm);
    let client = w.client_host();
    let body = ObjectBody::opaque(500_000_000); // 500 MB
    let op = w.kv_put(client, kv, "blob", body);
    run_until_op(&mut w, op);

    // Remote read from the client: ~500 MB at min(600 MB/s, NIC 250 MB/s).
    let t0 = w.now();
    let op = w.kv_get(client, kv, "blob");
    let (t1, _) = run_until_op(&mut w, op);
    let remote = (t1 - t0).as_secs_f64();

    // Local read on the VM itself: 500 MB at 4 GB/s.
    let t0 = w.now();
    let op = w.kv_get(vm_host, kv, "blob");
    let (t1, _) = run_until_op(&mut w, op);
    let local = (t1 - t0).as_secs_f64();

    assert!(
        remote / local > 5.0,
        "local {local} s should be much faster than remote {remote} s"
    );
}

#[test]
fn emr_job_startup_dominates_short_maps() {
    let mut w = world();
    let job = w.emr_submit(100, 5.0);
    let done_at = loop {
        match w.step() {
            Some((t, Notify::EmrDone { job: j })) if j == job => break t,
            Some(_) => continue,
            None => panic!("drained"),
        }
    };
    // ~112 s startup + 3 waves x 5.25 s + teardown ≈ 130 s.
    let secs = done_at.as_secs_f64();
    assert!((115.0..150.0).contains(&secs), "got {secs}");
    assert!(w.ledger().total_for(CostCategory::ManagedService) > 0.0);
}

#[test]
fn timer_fires_with_tag() {
    let mut w = world();
    w.timer(SimDuration::from_secs(5), 42);
    match w.step() {
        Some((t, Notify::Timer { tag })) => {
            assert_eq!(tag, 42);
            assert_eq!(t.as_secs_f64(), 5.0);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn sleep_completes_after_duration() {
    let mut w = world();
    let op = w.sleep(SimDuration::from_secs(3));
    let (t, outcome) = run_until_op(&mut w, op);
    assert!(matches!(outcome, OpOutcome::SleepOk));
    assert_eq!(t.as_secs_f64(), 3.0);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut w = World::new(CloudConfig::default(), 99);
        let _client = w.client_host();
        let sb = w.faas_invoke(1769, "lambda");
        run_until_sandbox_up(&mut w, sb);
        let host = w.sandbox_host(sb);
        let put = w.put_object(host, "b", "x", ObjectBody::opaque(10_000_000));
        let (t, _) = run_until_op(&mut w, put);
        t
    };
    assert_eq!(run(), run());
}

#[test]
fn cpu_monitor_tracks_provision_and_busy() {
    let mut w = world();
    let it = instance_type("c5.large").unwrap();
    let vm = w.vm_provision(it, "cluster");
    let t_up = run_until_vm_up(&mut w, vm);
    let host = w.vm_host(vm);
    let op = w.compute(host, 10.0);
    run_until_op(&mut w, op);
    let end = w.now();
    // One of two vCPUs busy over the compute window -> 50 %.
    let samples = w
        .cpu_monitor()
        .utilisation_samples(t_up, end, SimDuration::from_secs(1));
    assert!(!samples.is_empty());
    assert!(samples.iter().all(|&s| (s - 50.0).abs() < 1e-9));
}

#[test]
fn spot_vm_bills_at_the_discounted_rate() {
    let mut cfg = CloudConfig::default();
    cfg.faults.spot_preemption_prob = 0.0; // never reclaimed
    let mut w = World::new(cfg, 7);
    let it = instance_type("m4.4xlarge").unwrap();
    let vm = w.vm_provision_with(it, "vm", cloudsim::Tenancy::Spot);
    run_until_vm_up(&mut w, vm);
    assert_eq!(w.vm_tenancy(vm), cloudsim::Tenancy::Spot);
    w.vm_terminate(vm);
    let cost = w.ledger().total_for(CostCategory::VmCompute);
    // 60 s minimum at (1 - 0.65) of the on-demand rate.
    let expected = 60.0 * it.usd_per_second() * 0.35;
    assert!((cost - expected).abs() < 1e-9, "cost {cost} vs {expected}");
}

#[test]
fn spot_preemption_fires_in_window_and_is_ledgered() {
    let mut cfg = CloudConfig::default();
    cfg.faults.spot_preemption_prob = 1.0;
    cfg.faults.spot_preemption_after = (30.0, 60.0);
    let mut w = World::new(cfg, 11);
    let it = instance_type("m4.4xlarge").unwrap();
    let vm = w.vm_provision_with(it, "vm", cloudsim::Tenancy::Spot);
    let t_up = run_until_vm_up(&mut w, vm);
    let (t_fail, fault) = loop {
        let (t, n) = w.step().expect("preemption must fire");
        if let Notify::VmFailed { vm: failed, fault } = n {
            assert_eq!(failed, vm);
            break (t, fault);
        }
    };
    assert_eq!(fault, cloudsim::FaultKind::SpotPreemption);
    let dt = (t_fail - t_up).as_secs_f64();
    assert!((30.0..=60.0).contains(&dt), "preempted after {dt}s");
    assert_eq!(
        w.fault_ledger().injected(cloudsim::FaultKind::SpotPreemption),
        1
    );
    // The wasted uptime bills at the spot rate.
    let cost = w.ledger().total_for(CostCategory::VmCompute);
    let expected = dt.max(60.0) * it.usd_per_second() * 0.35;
    assert!((cost - expected).abs() < 1e-9, "cost {cost} vs {expected}");
}

#[test]
fn on_demand_runs_are_untouched_by_spot_knobs() {
    // Enabling a violent spot market must not change an on-demand run:
    // spot RNG is drawn per spot provision, never ambiently.
    let run = |prob: f64| {
        let mut cfg = CloudConfig::default();
        cfg.faults.spot_preemption_prob = prob;
        let mut w = World::new(cfg, 13);
        let it = instance_type("m4.4xlarge").unwrap();
        let vm = w.vm_provision(it, "vm");
        run_until_vm_up(&mut w, vm);
        let host = w.vm_host(vm);
        let op = w.compute(host, 120.0);
        run_until_op(&mut w, op);
        w.vm_terminate(vm);
        (w.now(), w.ledger().total_for(CostCategory::VmCompute))
    };
    assert_eq!(run(0.0), run(1.0));
}

#[test]
fn drained_run_accounts_for_every_scheduled_event() {
    // Storage, VPC and KV flows all re-arm their pool's completion
    // tick; once the queue drains, every scheduled event has either
    // fired or been cancelled, and none was counted twice.
    let mut w = world();
    let it = instance_type("c5.4xlarge").unwrap();
    let vm = w.vm_provision(it, "vm");
    run_until_vm_up(&mut w, vm);
    let vm_host = w.vm_host(vm);
    let client = w.client_host();
    let kv = w.kv_create(vm);
    let mut ops = Vec::new();
    for i in 0..4u64 {
        let size = 10_000_000 * (i + 1);
        ops.push(w.put_object(client, "b", &format!("k{i}"), ObjectBody::opaque(size)));
        ops.push(w.net_transfer(client, vm_host, size));
        ops.push(w.kv_put(client, kv, &format!("k{i}"), ObjectBody::opaque(size)));
    }
    let mut remaining: std::collections::HashSet<OpId> = ops.into_iter().collect();
    while let Some((_, n)) = w.step() {
        if let Notify::Op { op, .. } = n {
            remaining.remove(&op);
        }
    }
    assert!(
        remaining.is_empty(),
        "{} ops never completed",
        remaining.len()
    );
    let s = w.sched_stats();
    assert!(s.cancelled > 0, "overlapping flows re-arm ticks: {s:?}");
    assert_eq!(s.scheduled, s.fired + s.cancelled, "{s:?}");
}
