//! Max-min style bandwidth sharing for contended links.
//!
//! [`FairShare`] models a shared transfer medium — the aggregate throughput
//! of an object-storage service, a VM NIC, the memory bus of a host — as a
//! set of concurrent flows that split capacity. Each flow's instantaneous
//! rate is
//!
//! ```text
//! rate(f) = min(per_flow_cap, aggregate_cap / n_active, group_cap(f) / n_group(f))
//! ```
//!
//! which is a *conservative* approximation of true max-min fairness:
//! capacity left unused by flows bottlenecked elsewhere is not
//! redistributed. This errs towards slower transfers under contention,
//! which is the effect the paper's storage-saturation argument rests on.
//!
//! The pool does not own an event queue. Drivers integrate it with three
//! calls: [`FairShare::start`]/[`FairShare::advance`] whenever membership
//! changes, and [`FairShare::next_completion`] to know when to look again.
//!
//! # Layout
//!
//! A flow's rate depends only on its *group list* (the groups passed to
//! [`FairShare::start`], in order) and on pool-wide state, so flows are
//! bucketed by their exact group list:
//!
//! * **Flows** sit in a `Vec` sorted by id. Ids only grow, so `start`
//!   pushes, `advance` compacts in place (its done list comes out in
//!   [`FlowId`] order with no sort), and `cancel` binary-searches.
//! * **Groups** are dense indices; the `HashMap` from the caller's group
//!   id is consulted only by `set_group_cap`, `has_group` and a `start`
//!   on a group list not already live.
//! * **Buckets** hold one group list each and the rate its flows run at.
//!   Rates are recomputed, once per bucket, whenever membership or a cap
//!   changes; the per-flow passes (`progress_to`, `next_completion`) read
//!   them by index.
//!
//! A bucket is freed when its last flow leaves and its slot is reused, so
//! the rate recomputation is bounded by the peak number of *concurrent*
//! group lists, not by every (host, prefix) pair a long run ever saw.
//!
//! The layout is bit-exact with a flow-by-flow evaluation: each bucket's
//! rate is the same expression over the same operands, in the same order,
//! that each of its flows would compute for itself; each flow's own
//! progress arithmetic is unchanged; the earliest completion is a `min`,
//! which does not depend on the order it visits flows in; and completions
//! are reported in id order either way.

use std::collections::HashMap;

use crate::time::{SimDuration, SimTime};

/// Identifies an in-flight transfer within one [`FairShare`] pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u64);

/// Remaining bytes below this threshold count as "done"; guards against
/// float residue when progress is integrated in pieces.
const DONE_EPSILON_BYTES: f64 = 1e-3;

#[derive(Debug, Clone, Copy)]
struct Flow {
    id: u64,
    remaining: f64,
    /// Declared size, credited to `completed_bytes` on completion.
    bytes: u64,
    bucket: u32,
}

#[derive(Debug)]
struct Group {
    cap_bps: f64,
    active: usize,
}

/// The flows sharing one group list.
#[derive(Debug)]
struct Bucket {
    /// The group ids as passed to [`FairShare::start`]; the index key.
    key: Vec<u64>,
    /// The same groups as dense indices, in the same order.
    groups: Vec<u32>,
    /// Live flows in this bucket; a slot with none is on the free list.
    members: usize,
    /// The rate each member runs at under the current membership.
    rate: f64,
}

/// A fair-share bandwidth pool. See the [module docs](self) for the model.
///
/// # Example
///
/// ```
/// use simkernel::{FairShare, SimTime};
///
/// // 100 B/s aggregate, 80 B/s per flow.
/// let mut pool = FairShare::new(100.0, 80.0);
/// let t0 = SimTime::ZERO;
/// pool.start(t0, 80, &[]); // alone: runs at 80 B/s -> 1 s
/// assert_eq!(pool.next_completion().unwrap().as_secs_f64(), 1.0);
/// ```
#[derive(Debug)]
pub struct FairShare {
    aggregate_bps: f64,
    per_flow_bps: f64,
    /// In-flight flows, sorted by id.
    flows: Vec<Flow>,
    groups: Vec<Group>,
    group_index: HashMap<u64, u32>,
    buckets: Vec<Bucket>,
    /// Live buckets by group list.
    bucket_index: HashMap<Vec<u64>, u32>,
    free_buckets: Vec<u32>,
    last_update: SimTime,
    next_id: u64,
    /// Total bytes that have finished transferring through this pool.
    completed_bytes: f64,
}

impl FairShare {
    /// Creates a pool with the given aggregate and per-flow caps in
    /// bytes/second. The aggregate cap may be `f64::INFINITY` for an
    /// uncontended medium; the per-flow cap must be finite.
    ///
    /// # Panics
    ///
    /// Panics if `per_flow_bps` is not finite and positive, or if
    /// `aggregate_bps` is not positive.
    pub fn new(aggregate_bps: f64, per_flow_bps: f64) -> Self {
        assert!(
            per_flow_bps.is_finite() && per_flow_bps > 0.0,
            "per-flow cap must be finite and positive"
        );
        assert!(aggregate_bps > 0.0, "aggregate cap must be positive");
        FairShare {
            aggregate_bps,
            per_flow_bps,
            flows: Vec::new(),
            groups: Vec::new(),
            group_index: HashMap::new(),
            buckets: Vec::new(),
            bucket_index: HashMap::new(),
            free_buckets: Vec::new(),
            last_update: SimTime::ZERO,
            next_id: 0,
            completed_bytes: 0.0,
        }
    }

    /// Declares (or updates) the capacity of a flow group, typically one
    /// host's NIC.
    ///
    /// # Panics
    ///
    /// Panics if `cap_bps` is not positive.
    pub fn set_group_cap(&mut self, group: u64, cap_bps: f64) {
        assert!(cap_bps > 0.0, "group cap must be positive");
        match self.group_index.get(&group) {
            Some(&index) => {
                let entry = &mut self.groups[index as usize];
                entry.cap_bps = cap_bps;
                if entry.active > 0 {
                    self.refresh_rates();
                }
            }
            None => {
                let index = u32::try_from(self.groups.len()).expect("under 2^32 groups");
                self.group_index.insert(group, index);
                self.groups.push(Group { cap_bps, active: 0 });
            }
        }
    }

    /// Starts a transfer of `bytes` at time `now`, constrained by zero or
    /// more group caps (e.g. the host's NIC and the storage key prefix).
    /// Progress of all existing flows is brought up to `now` first; call
    /// [`Self::advance`] *before* `start` if you need the completions
    /// that may occur at the same instant.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update, or if a group was never
    /// declared via [`Self::set_group_cap`].
    pub fn start(&mut self, now: SimTime, bytes: u64, groups: &[u64]) -> FlowId {
        self.progress_to(now);
        let bucket = self.bucket_for(groups);
        let entry = &mut self.buckets[bucket as usize];
        entry.members += 1;
        for &g in &entry.groups {
            self.groups[g as usize].active += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.flows.push(Flow {
            id,
            remaining: bytes as f64,
            bytes,
            bucket,
        });
        self.refresh_rates();
        FlowId(id)
    }

    /// Whether a group has been declared.
    pub fn has_group(&self, group: u64) -> bool {
        self.group_index.contains_key(&group)
    }

    /// Advances all flows to `now` and returns the flows that completed,
    /// in deterministic (FlowId) order.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update.
    pub fn advance(&mut self, now: SimTime) -> Vec<FlowId> {
        self.progress_to(now);
        let is_done = |f: &Flow| f.remaining <= DONE_EPSILON_BYTES;
        let Some(first) = self.flows.iter().position(is_done) else {
            return Vec::new();
        };
        let mut done = Vec::new();
        let mut kept = first;
        for i in first..self.flows.len() {
            let flow = self.flows[i];
            if is_done(&flow) {
                done.push(FlowId(flow.id));
                self.completed_bytes += flow.bytes as f64;
                self.leave(flow.bucket);
            } else {
                self.flows[kept] = flow;
                kept += 1;
            }
        }
        self.flows.truncate(kept);
        self.refresh_rates();
        done
    }

    /// Aborts an in-flight transfer. No-op if the flow already completed.
    pub fn cancel(&mut self, now: SimTime, id: FlowId) {
        self.progress_to(now);
        if let Ok(i) = self.flows.binary_search_by_key(&id.0, |f| f.id) {
            let flow = self.flows.remove(i);
            self.leave(flow.bucket);
            self.refresh_rates();
        }
    }

    /// The earliest instant at which some current flow completes, assuming
    /// membership does not change. `None` when the pool is idle.
    pub fn next_completion(&self) -> Option<SimTime> {
        let min_secs = self
            .flows
            .iter()
            .map(|f| f.remaining.max(0.0) / self.buckets[f.bucket as usize].rate)
            .fold(f64::INFINITY, f64::min);
        if min_secs.is_finite() {
            // Round up to the next whole microsecond so the driver's tick
            // never lands strictly before the flow is actually done.
            let micros = (min_secs * 1e6).ceil() as u64;
            Some(self.last_update + SimDuration::from_micros(micros))
        } else {
            None
        }
    }

    /// Number of in-flight transfers.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes of the transfers that completed so far (cancelled
    /// transfers are not counted).
    pub fn completed_bytes(&self) -> f64 {
        self.completed_bytes
    }

    /// The live bucket for a group list, created (or a freed slot reused)
    /// on first sight.
    fn bucket_for(&mut self, groups: &[u64]) -> u32 {
        if let Some(&bucket) = self.bucket_index.get(groups) {
            return bucket;
        }
        let dense: Vec<u32> = groups
            .iter()
            .map(|g| {
                *self
                    .group_index
                    .get(g)
                    .expect("flow group must be declared before use")
            })
            .collect();
        let fresh = Bucket {
            key: groups.to_vec(),
            groups: dense,
            members: 0,
            rate: 0.0,
        };
        let bucket = match self.free_buckets.pop() {
            Some(slot) => {
                self.buckets[slot as usize] = fresh;
                slot
            }
            None => {
                self.buckets.push(fresh);
                u32::try_from(self.buckets.len() - 1).expect("under 2^32 group lists")
            }
        };
        self.bucket_index.insert(groups.to_vec(), bucket);
        bucket
    }

    /// Takes one member out of a bucket, freeing the bucket when it was
    /// the last. Rates are stale until the next [`Self::refresh_rates`].
    fn leave(&mut self, bucket: u32) {
        let entry = &mut self.buckets[bucket as usize];
        entry.members -= 1;
        for &g in &entry.groups {
            self.groups[g as usize].active -= 1;
        }
        if entry.members == 0 {
            self.bucket_index.remove(entry.key.as_slice());
            self.free_buckets.push(bucket);
        }
    }

    /// Recomputes every live bucket's rate under the current membership.
    fn refresh_rates(&mut self) {
        let n = self.flows.len().max(1) as f64;
        let shared = self.per_flow_bps.min(self.aggregate_bps / n);
        for bucket in self.buckets.iter_mut().filter(|b| b.members > 0) {
            let mut rate = shared;
            for &g in &bucket.groups {
                let group = &self.groups[g as usize];
                rate = rate.min(group.cap_bps / group.active.max(1) as f64);
            }
            bucket.rate = rate;
        }
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
        if dt == 0.0 {
            return;
        }
        // Rates depend only on membership, which is constant over the
        // interval, so a single linear step is exact.
        for f in &mut self.flows {
            let rate = self.buckets[f.bucket as usize].rate;
            f.remaining = (f.remaining - rate * dt).max(0.0);
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn single_flow_runs_at_per_flow_cap() {
        let mut pool = FairShare::new(1000.0, 100.0);
        pool.start(t(0.0), 100, &[]);
        assert_eq!(pool.next_completion(), Some(t(1.0)));
        let done = pool.advance(t(1.0));
        assert_eq!(done.len(), 1);
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn aggregate_cap_splits_between_flows() {
        // Aggregate 100 B/s, per-flow 100 B/s: two flows run at 50 each.
        let mut pool = FairShare::new(100.0, 100.0);
        pool.start(t(0.0), 100, &[]);
        pool.start(t(0.0), 100, &[]);
        assert_eq!(pool.next_completion(), Some(t(2.0)));
        assert_eq!(pool.advance(t(2.0)).len(), 2);
    }

    #[test]
    fn departure_speeds_up_survivors() {
        // Flow A: 50 bytes, flow B: 150 bytes, aggregate 100 B/s.
        let mut pool = FairShare::new(100.0, 100.0);
        pool.start(t(0.0), 50, &[]);
        pool.start(t(0.0), 150, &[]);
        // Both at 50 B/s; A finishes at t=1 with B holding 100 bytes.
        assert_eq!(pool.next_completion(), Some(t(1.0)));
        assert_eq!(pool.advance(t(1.0)).len(), 1);
        // B alone now runs at 100 B/s: 100 bytes -> 1 more second.
        assert_eq!(pool.next_completion(), Some(t(2.0)));
        assert_eq!(pool.advance(t(2.0)).len(), 1);
    }

    #[test]
    fn group_cap_limits_colocated_flows() {
        // Huge aggregate, per-flow 100, but the two flows share a 100 B/s
        // NIC -> 50 each.
        let mut pool = FairShare::new(f64::INFINITY, 100.0);
        pool.set_group_cap(7, 100.0);
        pool.start(t(0.0), 100, &[7]);
        pool.start(t(0.0), 100, &[7]);
        assert_eq!(pool.next_completion(), Some(t(2.0)));
        // A flow on another group is unaffected.
        pool.set_group_cap(8, 1000.0);
        pool.start(t(0.0), 100, &[8]);
        // Third flow runs at min(100, inf/3, 1000/1) = 100 B/s -> 1s.
        assert_eq!(pool.next_completion(), Some(t(1.0)));
    }

    #[test]
    fn cancel_removes_flow_and_frees_share() {
        let mut pool = FairShare::new(100.0, 100.0);
        let a = pool.start(t(0.0), 1_000, &[]);
        pool.start(t(0.0), 100, &[]);
        pool.cancel(t(1.0), a);
        assert_eq!(pool.active(), 1);
        // Survivor had 50 bytes left at t=1, now alone at 100 B/s.
        assert_eq!(pool.next_completion(), Some(t(1.5)));
    }

    #[test]
    fn completed_bytes_counts_finished_flows_only() {
        let mut pool = FairShare::new(100.0, 100.0);
        let a = pool.start(t(0.0), 1_000, &[]);
        pool.start(t(0.0), 100, &[]);
        pool.start(t(0.0), 0, &[]);
        pool.cancel(t(1.0), a);
        while let Some(at) = pool.next_completion() {
            pool.advance(at);
        }
        assert_eq!(pool.completed_bytes(), 100.0);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut pool = FairShare::new(100.0, 100.0);
        pool.start(t(0.0), 0, &[]);
        assert_eq!(pool.advance(t(0.0)).len(), 1);
    }

    #[test]
    fn completion_time_rounds_up() {
        // 1 byte at 3 B/s = 333333.33 micros; must round *up*.
        let mut pool = FairShare::new(100.0, 3.0);
        pool.start(t(0.0), 1, &[]);
        let done_at = pool.next_completion().unwrap();
        assert!(done_at.as_micros() >= 333_334);
        assert_eq!(pool.advance(done_at).len(), 1);
    }

    #[test]
    #[should_panic(expected = "declared before use")]
    fn undeclared_group_panics() {
        let mut pool = FairShare::new(100.0, 100.0);
        pool.start(t(0.0), 10, &[99]);
    }

    /// A long run that keeps creating hosts must not keep their buckets:
    /// one flow at a time on a fresh group each time never needs more than
    /// one bucket slot.
    #[test]
    fn buckets_are_bounded_by_concurrent_group_sets() {
        const PREFIX: u64 = 1 << 48;
        let mut pool = FairShare::new(1e9, 85e6);
        pool.set_group_cap(PREFIX, 5e8);
        let mut now = SimTime::ZERO;
        for host in 0..10_000u64 {
            pool.set_group_cap(host, 1e8);
            pool.start(now, 1_000 + host, &[host, PREFIX]);
            assert!(
                pool.buckets.len() <= 1,
                "host {host}: {} slots",
                pool.buckets.len()
            );
            now = pool.next_completion().expect("one live flow");
            assert_eq!(pool.advance(now).len(), 1);
            assert!(pool.bucket_index.is_empty());
        }
        assert_eq!(pool.buckets.len(), 1);
        assert_eq!(pool.free_buckets, [0]);
    }
}
