//! Micro-benchmarks of the simulation substrate: how fast the kernel
//! processes events, shares bandwidth and round-trips payloads. These
//! bound how large a cloud scenario the reproduction can simulate.

use std::hint::black_box;

use bench::harness::run_bench;
use serverful::Payload;
use simkernel::{EventQueue, FairShare, SimDuration, SimRng, SimTime, StepSeries};

fn bench_event_queue() {
    run_bench("event-queue/schedule+pop 10k", 50, |seed| {
        let mut rng = SimRng::seed_from(seed);
        let delays: Vec<u64> = (0..10_000).map(|_| rng.uniform_u64(0, 1_000_000)).collect();
        let mut q: EventQueue<u64> = EventQueue::new();
        for (i, d) in delays.iter().enumerate() {
            q.schedule_at(SimTime::from_micros(*d), i as u64);
        }
        let mut n = 0;
        while q.next().is_some() {
            n += 1;
        }
        n
    });
    run_bench("event-queue/cancel-heavy", 50, |_| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let tokens: Vec<_> = (0..1000)
            .map(|i| q.schedule_in(SimDuration::from_micros(i), i))
            .collect();
        for tok in tokens.iter().step_by(2) {
            q.cancel(*tok);
        }
        let mut n = 0;
        while q.next().is_some() {
            n += 1;
        }
        n
    });
}

fn bench_fair_share() {
    run_bench("fair-share/500 contending flows", 50, |_| {
        let mut pool = FairShare::new(1e9, 85e6);
        pool.set_group_cap(1, 5e8);
        let t0 = SimTime::ZERO;
        for i in 0..500u64 {
            pool.start(t0, 1_000_000 + i, &[1]);
        }
        let mut now = t0;
        while pool.active() > 0 {
            now = pool.next_completion().expect("completion");
            black_box(pool.advance(now).len());
        }
        now
    });
    // Fleet runs keep creating sandboxes: every flow arrives on a host
    // group never seen before, sharing one prefix, 50 at a time.
    run_bench("fair-share/host churn", 50, |_| {
        const PREFIX: u64 = 1 << 48;
        let mut pool = FairShare::new(1e9, 85e6);
        pool.set_group_cap(PREFIX, 5e8);
        let mut now = SimTime::ZERO;
        for host in 0..5_000u64 {
            pool.set_group_cap(host, 1e8);
            pool.start(now, 1_000_000 + host, &[host, PREFIX]);
            if pool.active() == 50 {
                now = pool.next_completion().expect("completion");
                black_box(pool.advance(now).len());
            }
        }
        while pool.active() > 0 {
            now = pool.next_completion().expect("completion");
            black_box(pool.advance(now).len());
        }
        now
    });
}

fn bench_payload_codec() {
    let payload = Payload::List(
        (0..64)
            .map(|i| {
                Payload::List(vec![
                    Payload::U64(i),
                    Payload::Str(format!("key-{i}")),
                    Payload::F64(i as f64 * 0.5),
                ])
            })
            .collect(),
    );
    let encoded = payload.encode();
    run_bench("payload/encode 64x3", 200, |_| payload.encode());
    run_bench("payload/decode 64x3", 200, |_| {
        Payload::decode(&encoded).expect("decode")
    });
}

fn bench_step_series() {
    let mut series = StepSeries::new(0.0);
    for i in 0..10_000u64 {
        series.set(SimTime::from_micros(i * 100), (i % 64) as f64);
    }
    run_bench("step-series/integral over 10k points", 200, |_| {
        series.integral(SimTime::ZERO, SimTime::from_micros(1_000_000))
    });
    run_bench("step-series/1k samples", 200, |_| {
        series.sample(
            SimTime::ZERO,
            SimTime::from_micros(1_000_000),
            SimDuration::from_micros(1_000),
        )
    });
}

fn main() {
    bench_event_queue();
    bench_fair_share();
    bench_payload_codec();
    bench_step_series();
}
