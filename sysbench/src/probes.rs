//! Probes that drive lower layers through their public functions with
//! a workload's own shape:
//!
//! * the storage flows of a traced run, read back from its Chrome JSON
//!   and replayed through [`FairShare`] (`simkernel::fair_share`);
//! * the world's scheduler counters and span census, read from the
//!   traced run's summary (`cloudsim::world`);
//! * a `CloudEnv` pumped by the probe's own `pump` + `try_result` loop,
//!   the way the fleet driver uses it (`serverful::env`).

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use cloudsim::{CloudConfig, ObjectBody};
use serverful::{
    Backend, CloudEnv, EnvEvent, ExecutorConfig, FunctionExecutor, MapOptions, Payload, ScriptTask,
};
use simkernel::{FairShare, FlowId, SimTime};

/// One storage transfer recorded in a traced run: its virtual start
/// and end, size, key prefix, and the span that issued it.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Virtual start, microseconds.
    pub start_us: u64,
    /// Virtual end, microseconds.
    pub end_us: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Top-level key prefix: the storage's unit of bandwidth contention.
    pub prefix: String,
    /// Span id of the issuer (a task on one sandbox); 0 for the client.
    pub issuer: u64,
}

fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    if let Some(s) = rest.strip_prefix('"') {
        // Escaped quotes never end a string value.
        let mut prev = '\0';
        let end = s.char_indices().find(|&(_, c)| {
            let done = c == '"' && prev != '\\';
            prev = c;
            done
        })?;
        Some(&s[..end.0])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }
}

fn num(line: &str, name: &str) -> Option<u64> {
    field(line, name)?.parse().ok()
}

/// The storage transfers of a Chrome trace: every `storage`-category
/// span with a key prefix and a byte count (GETs and PUTs; LIST and
/// DELETE move no payload). The trace writes one event per line.
pub fn storage_flows(chrome_json: &str) -> Vec<Flow> {
    chrome_json
        .lines()
        .filter(|l| l.contains("\"cat\":\"storage\"") && l.contains("\"ph\":\"X\""))
        .filter_map(|l| {
            let start_us = num(l, "ts")?;
            Some(Flow {
                start_us,
                end_us: start_us + num(l, "dur")?,
                bytes: num(l, "bytes")?,
                prefix: field(l, "prefix")?.to_owned(),
                issuer: num(l, "parent").unwrap_or(0),
            })
        })
        .collect()
}

/// What a traced run's summary says about the world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldCounts {
    /// Events the world's queue scheduled.
    pub scheduled: u64,
    /// Events it fired.
    pub fired: u64,
    /// Spans the simulator's tracer recorded.
    pub spans: u64,
    /// Storage operations (spans of the `storage` category).
    pub storage_ops: u64,
}

impl WorldCounts {
    /// Parses the `trace:` census line and the `scheduler:` line.
    pub fn parse(summary: &str) -> Result<WorldCounts, String> {
        let line = |p: &str| {
            summary
                .lines()
                .find_map(|l| l.strip_prefix(p))
                .ok_or_else(|| format!("summary has no `{p}` line"))
        };
        let words = |s: &str| -> Vec<u64> {
            s.split(|c: char| !c.is_ascii_digit())
                .filter_map(|w| w.parse().ok())
                .collect()
        };
        let sched = words(line("scheduler:")?);
        let trace = line("trace:")?;
        let spans = words(trace)
            .first()
            .copied()
            .ok_or("census without a span count")?;
        let census = trace
            .split_once('(')
            .and_then(|(_, r)| r.split_once(')'))
            .map_or("", |(c, _)| c);
        let storage_ops = census
            .split(", ")
            .find_map(|e| e.strip_prefix("storage "))
            .and_then(|n| n.parse().ok())
            .unwrap_or(0);
        match sched[..] {
            [scheduled, fired, _cancelled] => Ok(WorldCounts {
                scheduled,
                fired,
                spans,
                storage_ops,
            }),
            _ => Err("malformed `scheduler:` line".into()),
        }
    }
}

/// Host nanoseconds of each kind of call a replay made.
#[derive(Debug, Default)]
pub struct Replay {
    /// `start` calls.
    pub start_ns: Vec<u64>,
    /// `advance` calls.
    pub advance_ns: Vec<u64>,
    /// `next_completion` calls.
    pub next_completion_ns: Vec<u64>,
    /// `cancel` calls.
    pub cancel_ns: Vec<u64>,
    /// Most flows in flight at once.
    pub peak_flows: usize,
}

impl Replay {
    /// Calls made into the pool.
    pub fn calls(&self) -> u64 {
        (self.start_ns.len()
            + self.advance_ns.len()
            + self.next_completion_ns.len()
            + self.cancel_ns.len()) as u64
    }
}

fn time_ns<R>(out: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    out.push(u64::try_from(t.elapsed().as_nanos()).expect("call shorter than 584 years"));
    r
}

/// Replays flows through one [`FairShare`] pool with the default
/// storage caps, the way `cloudsim::world` drives its storage pool:
/// `advance`, then `start`, then `next_completion` when a flow begins,
/// and `advance` + `next_completion` at each completion tick. A flow
/// still in flight at its recorded end is cancelled there.
pub fn replay(flows: &[Flow], cfg: &CloudConfig) -> Replay {
    const PREFIX_GROUP_BASE: u64 = 1 << 48;
    let mut pool = FairShare::new(cfg.storage.aggregate_bps, cfg.storage.per_conn_bps);
    let mut prefixes: BTreeMap<&str, u64> = BTreeMap::new();
    let mut groups: Vec<[u64; 2]> = Vec::with_capacity(flows.len());
    for f in flows {
        let next = PREFIX_GROUP_BASE + prefixes.len() as u64;
        let prefix = *prefixes.entry(&f.prefix).or_insert(next);
        if !pool.has_group(prefix) {
            pool.set_group_cap(prefix, cfg.storage.per_prefix_bps);
        }
        if !pool.has_group(f.issuer) {
            let nic = if f.issuer == 0 {
                cfg.client.net_bps
            } else {
                cfg.faas.sandbox_net_bps
            };
            pool.set_group_cap(f.issuer, nic);
        }
        groups.push([f.issuer, prefix]);
    }
    // Ends sort before starts at the same instant.
    let mut events: Vec<(u64, bool, usize)> = flows
        .iter()
        .enumerate()
        .flat_map(|(i, f)| [(f.start_us, true, i), (f.end_us, false, i)])
        .collect();
    events.sort_unstable();

    let mut r = Replay::default();
    let mut live: HashSet<FlowId> = HashSet::new();
    let mut ids: Vec<Option<FlowId>> = vec![None; flows.len()];
    let mut tick: Option<SimTime> = None;
    let collect = |pool: &mut FairShare, r: &mut Replay, live: &mut HashSet<FlowId>, at| {
        for id in time_ns(&mut r.advance_ns, || pool.advance(at)) {
            live.remove(&id);
        }
    };
    for (t_us, is_start, i) in events {
        let now = SimTime::from_micros(t_us);
        while let Some(at) = tick.filter(|&at| at < now) {
            collect(&mut pool, &mut r, &mut live, at);
            tick = time_ns(&mut r.next_completion_ns, || pool.next_completion()).map(|t| t.max(at));
        }
        if is_start {
            collect(&mut pool, &mut r, &mut live, now);
            let id = time_ns(&mut r.start_ns, || {
                pool.start(now, flows[i].bytes, &groups[i])
            });
            live.insert(id);
            ids[i] = Some(id);
            r.peak_flows = r.peak_flows.max(live.len());
        } else {
            let Some(id) = ids[i].filter(|id| live.contains(id)) else {
                continue;
            };
            time_ns(&mut r.cancel_ns, || pool.cancel(now, id));
            live.remove(&id);
        }
        tick = time_ns(&mut r.next_completion_ns, || pool.next_completion()).map(|t| t.max(now));
    }
    while let Some(at) = tick {
        collect(&mut pool, &mut r, &mut live, at);
        tick = time_ns(&mut r.next_completion_ns, || pool.next_completion()).map(|t| t.max(at));
    }
    assert!(
        live.is_empty(),
        "every replayed flow completes or is cancelled"
    );
    r
}

/// What the env probe measured.
#[derive(Debug)]
pub struct EnvProbe {
    /// Host nanoseconds of each `pump` call.
    pub pump_ns: Vec<u64>,
    /// Notifications `CloudEnv` routed.
    pub events_routed: u64,
    /// Tasks the probe ran.
    pub tasks: u64,
}

/// Tasks per backend in the env probe.
pub const ENV_PROBE_TASKS: u64 = 200;

/// Runs a FaaS map and a VM-backend map of short storage tasks (GET
/// 4 MiB, compute, PUT 1 MiB) concurrently in one `CloudEnv`, pumping
/// it one notification at a time and polling both jobs between events.
pub fn env_probe(seed: u64) -> Result<EnvProbe, String> {
    let mut env = CloudEnv::new(CloudConfig::default(), seed);
    for i in 0..ENV_PROBE_TASKS {
        env.seed_object("probe", &format!("in/{i}"), ObjectBody::opaque(4 << 20));
    }
    let task: serverful::job::TaskFactory = Arc::new(|input: &Payload| {
        let i = input.as_u64().expect("u64 input");
        ScriptTask::new()
            .get("probe", format!("in/{i}"))
            .compute(0.2)
            .put("probe", format!("out/{i}"), ObjectBody::opaque(1 << 20))
            .finish_value(Payload::U64(i))
            .boxed()
    });
    let inputs: Vec<Payload> = (0..ENV_PROBE_TASKS).map(Payload::U64).collect();
    let mut execs = [
        FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default()),
        FunctionExecutor::new(&mut env, Backend::vm(), ExecutorConfig::default()),
    ];
    let mut jobs: Vec<_> = execs
        .iter_mut()
        .zip(["probe-faas", "probe-vm"])
        .map(|(ex, name)| {
            Some(ex.map_with(
                &mut env,
                task.clone(),
                inputs.clone(),
                MapOptions::named(name),
            ))
        })
        .collect();
    let mut pump_ns = Vec::new();
    while jobs.iter().any(Option::is_some) {
        match time_ns(&mut pump_ns, || env.pump()) {
            EnvEvent::Drained => return Err("env probe drained with jobs unfinished".into()),
            EnvEvent::Timer(_) => {}
            EnvEvent::Progress => {
                for (ex, slot) in execs.iter_mut().zip(jobs.iter_mut()) {
                    let Some(job) = *slot else { continue };
                    match ex.try_result(&mut env, job) {
                        None => {}
                        Some(Ok(out)) if out.len() as u64 == ENV_PROBE_TASKS => *slot = None,
                        Some(Ok(out)) => {
                            return Err(format!("env probe job returned {} results", out.len()))
                        }
                        Some(Err(e)) => return Err(format!("env probe job failed: {e}")),
                    }
                }
            }
        }
    }
    for ex in &mut execs {
        ex.shutdown(&mut env);
    }
    Ok(EnvProbe {
        pump_ns,
        events_routed: env.events_routed(),
        tasks: 2 * ENV_PROBE_TASKS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
{\"name\":\"task\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":0,\"dur\":900,\"pid\":1,\"tid\":1,\"args\":{\"id\":1,\"stage\":\"s\"}},\n\
{\"name\":\"PUT\",\"cat\":\"storage\",\"ph\":\"X\",\"ts\":10,\"dur\":500,\"pid\":1,\"tid\":2,\"args\":{\"id\":2,\"parent\":1,\"key\":\"a/x\",\"prefix\":\"a\",\"bytes\":1000}},\n\
{\"name\":\"LIST\",\"cat\":\"storage\",\"ph\":\"X\",\"ts\":20,\"dur\":5,\"pid\":1,\"tid\":2,\"args\":{\"id\":3,\"key\":\"a/\",\"prefix\":\"a\"}},\n\
{\"name\":\"GET\",\"cat\":\"storage\",\"ph\":\"X\",\"ts\":15,\"dur\":50,\"pid\":1,\"tid\":2,\"args\":{\"id\":4,\"key\":\"b/y\",\"prefix\":\"b\",\"bytes\":2000000}}\n\
]}\n";

    #[test]
    fn storage_flows_keep_payload_ops_only() {
        let flows = storage_flows(TRACE);
        assert_eq!(
            flows,
            vec![
                Flow {
                    start_us: 10,
                    end_us: 510,
                    bytes: 1000,
                    prefix: "a".into(),
                    issuer: 1
                },
                Flow {
                    start_us: 15,
                    end_us: 65,
                    bytes: 2_000_000,
                    prefix: "b".into(),
                    issuer: 0
                },
            ]
        );
    }

    #[test]
    fn replay_finishes_or_cancels_every_flow() {
        let flows = storage_flows(TRACE);
        let r = replay(&flows, &CloudConfig::default());
        assert_eq!(r.start_ns.len(), 2);
        assert_eq!(r.peak_flows, 2);
        // The small PUT completes on its own; the 2 MB GET cannot
        // finish in its recorded 50 us and is cancelled.
        assert_eq!(r.cancel_ns.len(), 1);
        assert!(r.calls() >= 2 + 2 + 3);
    }

    #[test]
    fn world_counts_parse_the_summary_lines() {
        let summary = "trace: 120 spans (job 2, task 40, storage 70, compute 8), 3 instants\n\
makespan: 1.0s\nscheduler: 500 events scheduled, 410 fired, 95 cancelled\n";
        assert_eq!(
            WorldCounts::parse(summary).unwrap(),
            WorldCounts {
                scheduled: 500,
                fired: 410,
                spans: 120,
                storage_ops: 70
            }
        );
        assert!(WorldCounts::parse("makespan: 1.0s\n").is_err());
    }
}
