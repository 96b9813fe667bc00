//! The flow-by-flow `FairShare` the dense pool replaced, kept as a
//! differential oracle: every flow computes its own rate through two hash
//! maps. It differs from the original only in crediting a completed flow's
//! declared bytes to `completed_bytes` (the original added the float
//! residue left at completion, which is about zero).

use std::collections::HashMap;

use super::{FairShare, FlowId, DONE_EPSILON_BYTES};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

#[derive(Debug, Clone)]
struct Flow {
    remaining: f64,
    bytes: u64,
    groups: Vec<u64>,
}

#[derive(Debug, Clone, Default)]
struct Group {
    cap_bps: f64,
    active: usize,
}

#[derive(Debug)]
struct OraclePool {
    aggregate_bps: f64,
    per_flow_bps: f64,
    flows: HashMap<FlowId, Flow>,
    groups: HashMap<u64, Group>,
    last_update: SimTime,
    next_id: u64,
    completed_bytes: f64,
}

impl OraclePool {
    fn new(aggregate_bps: f64, per_flow_bps: f64) -> Self {
        OraclePool {
            aggregate_bps,
            per_flow_bps,
            flows: HashMap::new(),
            groups: HashMap::new(),
            last_update: SimTime::ZERO,
            next_id: 0,
            completed_bytes: 0.0,
        }
    }

    fn set_group_cap(&mut self, group: u64, cap_bps: f64) {
        assert!(cap_bps > 0.0, "group cap must be positive");
        self.groups.entry(group).or_default().cap_bps = cap_bps;
    }

    fn start(&mut self, now: SimTime, bytes: u64, groups: &[u64]) -> FlowId {
        self.progress_to(now);
        for &g in groups {
            let entry = self
                .groups
                .get_mut(&g)
                .expect("flow group must be declared before use");
            entry.active += 1;
        }
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.insert(
            id,
            Flow {
                remaining: bytes as f64,
                bytes,
                groups: groups.to_vec(),
            },
        );
        id
    }

    fn advance(&mut self, now: SimTime) -> Vec<FlowId> {
        self.progress_to(now);
        let mut done: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining <= DONE_EPSILON_BYTES)
            .map(|(id, _)| *id)
            .collect();
        done.sort_unstable();
        for id in &done {
            self.remove(*id, true);
        }
        done
    }

    fn cancel(&mut self, now: SimTime, id: FlowId) {
        self.progress_to(now);
        self.remove(id, false);
    }

    fn next_completion(&self) -> Option<SimTime> {
        let min_secs = self
            .flows
            .values()
            .map(|f| f.remaining.max(0.0) / self.rate_of(f))
            .fold(f64::INFINITY, f64::min);
        if min_secs.is_finite() {
            let micros = (min_secs * 1e6).ceil() as u64;
            Some(self.last_update + SimDuration::from_micros(micros))
        } else {
            None
        }
    }

    fn rate_of(&self, flow: &Flow) -> f64 {
        let n = self.flows.len().max(1) as f64;
        let mut rate = self.per_flow_bps.min(self.aggregate_bps / n);
        for g in &flow.groups {
            let group = &self.groups[g];
            rate = rate.min(group.cap_bps / group.active.max(1) as f64);
        }
        rate
    }

    fn progress_to(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "fair-share pool asked to move backwards: {} < {}",
            now,
            self.last_update
        );
        let dt = (now - self.last_update).as_secs_f64();
        self.last_update = now;
        if dt == 0.0 || self.flows.is_empty() {
            return;
        }
        let rates: Vec<(FlowId, f64)> = self
            .flows
            .iter()
            .map(|(id, f)| (*id, self.rate_of(f)))
            .collect();
        for (id, rate) in rates {
            let f = self.flows.get_mut(&id).expect("flow disappeared");
            f.remaining = (f.remaining - rate * dt).max(0.0);
        }
    }

    fn remove(&mut self, id: FlowId, completed: bool) {
        if let Some(flow) = self.flows.remove(&id) {
            if completed {
                self.completed_bytes += flow.bytes as f64;
            }
            for g in &flow.groups {
                let group = self.groups.get_mut(g).expect("group disappeared");
                group.active = group.active.saturating_sub(1);
            }
        }
    }
}

/// Groups the random sequences draw from: few enough that group lists
/// repeat, so buckets are shared, emptied and reused.
const GROUPS: [u64; 4] = [1, 2, 1 << 48, (1 << 48) + 1];

fn random_groups(rng: &mut SimRng) -> Vec<u64> {
    let pick = |rng: &mut SimRng| GROUPS[rng.uniform_u64(0, GROUPS.len() as u64) as usize];
    match rng.uniform_u64(0, 5) {
        0 => vec![],
        1 => vec![pick(rng)],
        2 => {
            // A VPC transfer with `from == to`.
            let g = pick(rng);
            vec![g, g]
        }
        _ => vec![pick(rng), pick(rng)],
    }
}

fn random_cap(rng: &mut SimRng) -> f64 {
    rng.uniform(1e3, 1e6)
}

/// The dense pool and the oracle agree bit for bit, call by call, on
/// random operation sequences.
#[test]
fn dense_pool_matches_the_oracle_bit_for_bit() {
    let mut bucket_reuses = 0;
    let mut finished_cancels = 0;
    for case in 0..300u64 {
        let seed = 0xFA1C ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = SimRng::seed_from(seed);
        let aggregate = if case % 3 == 0 {
            f64::INFINITY
        } else {
            rng.uniform(1e3, 4e6)
        };
        let per_flow = rng.uniform(1e3, 2e6);
        let mut pool = FairShare::new(aggregate, per_flow);
        let mut oracle = OraclePool::new(aggregate, per_flow);
        let mut issued: Vec<FlowId> = Vec::new();
        let mut seen_lists: Vec<Vec<u64>> = Vec::new();
        let mut now = SimTime::ZERO;
        for step in 0..400 {
            let ctx = format!("seed {seed:#x} step {step}");
            match rng.uniform_u64(0, 10) {
                0..=3 => {
                    let groups = random_groups(&mut rng);
                    for &g in &groups {
                        if !pool.has_group(g) {
                            let cap = random_cap(&mut rng);
                            pool.set_group_cap(g, cap);
                            oracle.set_group_cap(g, cap);
                        }
                    }
                    let bytes = match rng.uniform_u64(0, 8) {
                        0 => 0,
                        _ => rng.uniform_u64(1, 2_000_000),
                    };
                    if seen_lists.contains(&groups) && !pool.bucket_index.contains_key(&groups) {
                        bucket_reuses += 1;
                    }
                    let a = pool.start(now, bytes, &groups);
                    let b = oracle.start(now, bytes, &groups);
                    assert_eq!(a, b, "{ctx}");
                    issued.push(a);
                    if !seen_lists.contains(&groups) {
                        seen_lists.push(groups);
                    }
                }
                4 if !issued.is_empty() => {
                    let id = issued[rng.uniform_u64(0, issued.len() as u64) as usize];
                    if !oracle.flows.contains_key(&id) {
                        finished_cancels += 1;
                    }
                    pool.cancel(now, id);
                    oracle.cancel(now, id);
                }
                5 => {
                    // Re-declare a cap while its flows are live.
                    let g = GROUPS[rng.uniform_u64(0, GROUPS.len() as u64) as usize];
                    let cap = random_cap(&mut rng);
                    pool.set_group_cap(g, cap);
                    oracle.set_group_cap(g, cap);
                }
                _ => {
                    // Advance to the next completion, to an arbitrary
                    // instant, or again to the current one.
                    now = match rng.uniform_u64(0, 3) {
                        0 => pool.next_completion().unwrap_or(now),
                        1 => now + SimDuration::from_micros(rng.uniform_u64(1, 3_000_000)),
                        _ => now,
                    };
                    assert_eq!(pool.advance(now), oracle.advance(now), "{ctx}");
                }
            }
            assert_eq!(pool.next_completion(), oracle.next_completion(), "{ctx}");
            assert_eq!(pool.active(), oracle.flows.len(), "{ctx}");
            assert_eq!(
                pool.completed_bytes().to_bits(),
                oracle.completed_bytes.to_bits(),
                "{ctx}"
            );
            let live = pool.buckets.iter().filter(|b| b.members > 0).count();
            assert_eq!(live, pool.bucket_index.len(), "{ctx}");
            assert_eq!(pool.buckets.len() - pool.free_buckets.len(), live, "{ctx}");
        }
    }
    // The sequences exercised the paths they are meant to cover.
    assert!(bucket_reuses > 100, "only {bucket_reuses} bucket reuses");
    assert!(
        finished_cancels > 100,
        "only {finished_cancels} cancels of finished flows"
    );
}
