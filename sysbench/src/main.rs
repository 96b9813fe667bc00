//! System benchmark: host time of real simulator runs, end to end and
//! per layer.
//!
//! ```text
//! sysbench --workload <xeno-serverless|fleet-mixed|planner-brain>
//!          --seed <n> --seconds <n> --trace <0|1>
//! sysbench --write-reference
//! ```
//!
//! With `--trace 0` the workload is set up several times, then run
//! iteration after iteration for `--seconds` with tracing off, and the
//! end-to-end metrics are printed, timed in reference seconds: host
//! seconds scaled by a calibration kernel run between the timed units,
//! so that the host's changing speed cancels out (see [`speed`]). With `--trace 1` one traced
//! iteration of every workload runs with spans around each call into a
//! layer, the layer probes run, and the per-layer metrics are printed.
//! Either way every simulated output is checked, and the last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--write-reference` records the outputs of the reference seed in
//! `reference.txt`. See README.md for the workloads and metrics.

mod check;
mod probes;
mod spans;
mod speed;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cloudsim::CloudConfig;

use check::{Outcome, Reference, REFERENCE_SEED};
use spans::{Span, Tracer};
use speed::Meter;
use workloads::{Iteration, Name, Prepared};

/// Set-ups per measured run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// End-to-end metrics, reported with tracing off: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_tasks_per_s", "1/s"),
    ("scaling_slope", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("fair_share.calls", "count"),
    ("fair_share.peak_flows", "count"),
    ("fair_share.replay_s", "s"),
    ("fair_share.start_ns", "ns"),
    ("fair_share.advance_ns", "ns"),
    ("fair_share.next_completion_ns", "ns"),
    ("fair_share.quarter.calls", "count"),
    ("fair_share.quarter.peak_flows", "count"),
    ("fair_share.quarter.start_ns", "ns"),
    ("fair_share.quarter.advance_ns", "ns"),
    ("fair_share.quarter.next_completion_ns", "ns"),
    ("world.events_scheduled", "count"),
    ("world.events_fired", "count"),
    ("world.events_unfired", "count"),
    ("world.unfired_frac", "ratio"),
    ("world.storage_ops", "count"),
    ("env.pump_ns", "ns"),
    ("env.events_routed", "count"),
    ("env.pumps_per_task", "ratio"),
    ("fleet.serverless_s", "s"),
    ("fleet.per_job_fleet_s", "s"),
    ("fleet.shared_pool_s", "s"),
    ("fleet.jobs", "count"),
    ("planner.evaluations", "count"),
    ("planner.evaluate_ms_p50", "ms"),
    ("planner.evaluate_ms_p90", "ms"),
    ("planner.search_overhead_s", "s"),
    ("telemetry.trace_overhead_s", "s"),
    ("telemetry.spans", "count"),
    ("bench.tracing_overhead_s", "s"),
];

const USAGE: &str = "usage: sysbench --workload <xeno-serverless|fleet-mixed|planner-brain> \
--seed <n> --seconds <n> --trace <0|1>\n       sysbench --write-reference";

struct Args {
    workload: Name,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    WriteReference,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut write_reference = false;
    while let Some(flag) = args.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Name::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => match number()? {
                0 => return Err("--seconds must be at least 1".into()),
                n => seconds = Some(n),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
            },
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    match (write_reference, workload, seed, seconds, trace) {
        (true, None, None, None, None) => Ok(Mode::WriteReference),
        (false, Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Mode::Run(Args {
            workload,
            seed,
            seconds,
            trace,
        })),
        _ => Err(
            "give all of --workload, --seed, --seconds and --trace, or only --write-reference"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1))
        .map_err(|e| format!("{e}\n{USAGE}"))
        .and_then(|mode| match mode {
            Mode::Run(a) if a.trace => traced(&a),
            Mode::Run(a) => measured(&a),
            Mode::WriteReference => write_reference(),
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sysbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ----------------------------------------------------------------------
// Output check
// ----------------------------------------------------------------------

fn reference_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt")
}

/// Counts attempted and failed simulated runs across iterations.
struct Checker {
    reference: Option<Reference>,
    first: Vec<(String, Outcome)>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Checks against the recorded reference only for its seed.
    fn new(seed: u64) -> Result<Checker, String> {
        let reference = if seed == REFERENCE_SEED {
            let text = std::fs::read_to_string(reference_path())
                .map_err(|e| format!("reading {}: {e}", reference_path()))?;
            Some(Reference::parse(&text)?)
        } else {
            None
        };
        Ok(Checker {
            reference,
            first: Vec::new(),
            attempted: 0,
            failed: 0,
        })
    }

    fn verdict(&mut self, label: &str, outcome: &Result<Outcome, String>) -> Result<(), String> {
        let outcome = outcome.as_ref().map_err(String::clone)?;
        if let Some(r) = &self.reference {
            r.check(label, outcome)?;
        }
        match self.first.iter().find(|(l, _)| l == label) {
            Some((_, first)) => check::check_repeat(first, outcome),
            None => {
                self.first.push((label.to_owned(), outcome.clone()));
                Ok(())
            }
        }
    }

    fn account(&mut self, it: &Iteration) {
        for run in it.small.runs.iter().chain(&it.full.runs) {
            self.attempted += run.attempted;
            if let Err(e) = self.verdict(&run.label, &run.outcome) {
                self.failed += if run.errored > 0 {
                    run.errored
                } else {
                    run.attempted
                };
                eprintln!("sysbench: check failed: {e}");
            }
        }
    }
}

fn write_reference() -> Result<(), String> {
    let mut outcomes = Vec::new();
    for name in Name::ALL {
        let it =
            Prepared::new(name, REFERENCE_SEED).iterate(&Tracer::new(false), &Meter::new(false));
        for run in it.small.runs.into_iter().chain(it.full.runs) {
            outcomes.push(
                run.outcome
                    .map_err(|e| format!("reference seed run failed: {e}"))?,
            );
        }
    }
    let text = format!(
        "# Outputs of every benchmark run at seed {REFERENCE_SEED}, written by\n\
         # `sysbench --write-reference`: <run>.<field> <c|v|t> <value>, where c is\n\
         # a count or digest (exact), v virtual seconds or dollars (relative\n\
         # tolerance {}), t an identifier (exact).\n{}",
        check::REL_TOL,
        check::render(&outcomes)
    );
    std::fs::write(reference_path(), text)
        .map_err(|e| format!("writing {}: {e}", reference_path()))?;
    eprintln!("sysbench: wrote {}", reference_path());
    Ok(())
}

// ----------------------------------------------------------------------
// Statistics and output
// ----------------------------------------------------------------------

/// Linear-interpolated percentile, `p` in [0, 100].
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * p / 100.0;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

fn median_ns(values: &[u64]) -> f64 {
    median(&values.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Prints the metrics, one per line, then the result object as the
/// last line. `metrics` must name exactly the `expected` list, in order.
fn report(
    expected: &[(&str, &str)],
    metrics: &[(&str, f64)],
    checker: &Checker,
) -> Result<(), String> {
    let names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "metrics out of step with the declared list");
    let mut json = String::new();
    for (i, ((name, value), (_, unit))) in metrics.iter().zip(expected).enumerate() {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
        println!("{name:<40} {value:>18.6} {unit}");
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    let failed_frac = checker.failed as f64 / checker.attempted.max(1) as f64;
    println!(
        "{:<40} {failed_frac:>18.6} ratio ({} of {} simulated runs)",
        "failed_frac", checker.failed, checker.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        checker.failed == 0 && checker.attempted > 0,
        checker.attempted.max(1),
        checker.failed
    );
    Ok(())
}

// ----------------------------------------------------------------------
// End-to-end run (tracing off)
// ----------------------------------------------------------------------

/// Times are in reference seconds (see [`speed`]); the host seconds
/// they were scaled from go to standard error.
fn measured(a: &Args) -> Result<(), String> {
    let mut checker = Checker::new(a.seed)?;
    let m = Meter::new(true);
    let (mut setup_s, mut setup_host_s) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let (t, p) = m.time(|| Prepared::new(a.workload, a.seed));
        prepared = Some(p);
        setup_s.push(t.ref_s);
        setup_host_s.push(t.host_s);
    }
    let p = prepared.expect("at least one set-up");

    let off = Tracer::new(false);
    let (mut full_s, mut small_s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut full_host_s, mut small_host_s) = (Vec::new(), Vec::new());
    let mut sizes = (1.0, 1.0);
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    while full_s.is_empty() || start.elapsed() < budget {
        let it = p.iterate(&off, &m);
        checker.account(&it);
        full_s.push(it.full.time.ref_s);
        small_s.push(it.small.time.ref_s);
        full_host_s.push(it.full.time.host_s);
        small_host_s.push(it.small.time.host_s);
        rates.push(it.full.tasks as f64 / it.full.time.ref_s);
        sizes = (it.small.size, it.full.size);
    }
    let wall_s = median(&full_s);
    let list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "sysbench: {} seed {}: {} iterations in reference s (host s): full pass {} ({}); \
         smaller pass {} ({}); set-up {} ({})",
        a.workload.as_str(),
        a.seed,
        full_s.len(),
        list(&full_s),
        list(&full_host_s),
        list(&small_s),
        list(&small_host_s),
        list(&setup_s),
        list(&setup_host_s),
    );
    let metrics = [
        ("setup_s", median(&setup_s)),
        ("wall_s", wall_s),
        ("sim_tasks_per_s", median(&rates)),
        (
            "scaling_slope",
            (wall_s / median(&small_s)).ln() / (sizes.1 / sizes.0).ln(),
        ),
        ("peak_rss_mb", peak_rss_mb()?),
    ];
    report(&END_TO_END, &metrics, &checker)
}

// ----------------------------------------------------------------------
// Traced run
// ----------------------------------------------------------------------

fn secs(s: &Span) -> f64 {
    s.dur_ns() as f64 / 1e9
}

/// Spans called `name` whose parent is called `parent`.
fn children<'a>(
    spans: &'a [Span],
    parent: &'a str,
    name: &'a str,
) -> impl Iterator<Item = (usize, &'a Span)> {
    spans
        .iter()
        .enumerate()
        .filter(move |(_, s)| s.name == name && s.parent.is_some_and(|p| spans[p].name == parent))
}

fn traced(a: &Args) -> Result<(), String> {
    let mut checker = Checker::new(a.seed)?;
    let cfg = CloudConfig::default();
    let tr = Tracer::new(true);
    let off = Meter::new(false);
    let prepared: Vec<(Name, Prepared)> = Name::ALL
        .into_iter()
        .map(|n| (n, Prepared::new(n, a.seed)))
        .collect();

    // One traced iteration of every workload; the iteration id is the
    // workload's index.
    let mut traced_s = 0.0;
    for (k, (name, p)) in prepared.iter().enumerate() {
        tr.set_iter(k as u32);
        let t = Instant::now();
        let it = tr.span("iteration", || p.iterate(&tr, &off));
        if *name == a.workload {
            traced_s = t.elapsed().as_secs_f64();
        }
        checker.account(&it);
    }
    // The selected workload once more, untraced.
    let own = &prepared
        .iter()
        .find(|(n, _)| *n == a.workload)
        .expect("every workload prepared")
        .1;
    let t = Instant::now();
    let it = own.iterate(&Tracer::new(false), &off);
    let untraced_s = t.elapsed().as_secs_f64();
    checker.account(&it);

    // Layer probes.
    tr.set_iter(Name::ALL.len() as u32);
    let Prepared::Xeno(xeno) = &prepared[0].1 else {
        unreachable!("xeno-serverless is prepared first")
    };
    let run = |w, trace| {
        let t = Instant::now();
        let r = xeno.run_workload(w, trace);
        (t.elapsed().as_secs_f64(), r)
    };
    // Untraced and traced half-scale runs, alternated twice, give the
    // simulator's own tracing overhead; the first trace and a
    // quarter-scale one feed the replays.
    let (mut plain_s, mut traced_xeno_s, mut captured) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..2 {
        let (host_s, result) = tr.span("probe.xeno.untraced", || run(&xeno.full, false));
        plain_s.push(host_s);
        checked_run(&mut checker, "full", &xeno.full, result)?;
        let (host_s, result) = tr.span("probe.xeno.traced", || run(&xeno.full, true));
        traced_xeno_s.push(host_s);
        let trace = checked_run(&mut checker, "full", &xeno.full, result)?;
        if round == 0 {
            captured.push(trace.ok_or("traced run returned no trace")?);
        }
    }
    let (_, result) = tr.span("probe.xeno.traced", || run(&xeno.small, true));
    let trace = checked_run(&mut checker, "small", &xeno.small, result)?;
    captured.push(trace.ok_or("traced run returned no trace")?);
    let world = probes::WorldCounts::parse(&captured[0].summary)?;
    let mut replays = Vec::new();
    for trace in &captured {
        let flows = probes::storage_flows(&trace.chrome_json);
        let t = Instant::now();
        let r = tr.span("probe.fair_share.replay", || probes::replay(&flows, &cfg));
        replays.push((t.elapsed().as_secs_f64(), r));
    }
    let env = tr.span("probe.env", || probes::env_probe(a.seed))?;

    let spans = tr.spans();
    let selfs = spans::self_times(&spans);
    let fleet_s = |cell: &str| {
        children(&spans, "pass.full", cell)
            .map(|(_, s)| secs(s))
            .sum::<f64>()
    };
    let Prepared::Fleet(fleet) = &prepared[1].1 else {
        unreachable!("fleet-mixed is prepared second")
    };
    let (search, _) = children(&spans, "pass.full", "planner.search_with")
        .next()
        .ok_or("no full-size planner search span")?;
    let evaluate_ms: Vec<f64> = children(&spans, "planner.search_with", "planner.evaluate")
        .filter(|(_, s)| s.parent == Some(search))
        .map(|(_, s)| secs(s) * 1e3)
        .collect();
    if evaluate_ms.is_empty() {
        return Err("the full-size planner search evaluated nothing".into());
    }
    let ((half_s, half), (_, quarter)) = (&replays[0], &replays[1]);
    let metrics = [
        ("fair_share.calls", half.calls() as f64),
        ("fair_share.peak_flows", half.peak_flows as f64),
        ("fair_share.replay_s", *half_s),
        ("fair_share.start_ns", median_ns(&half.start_ns)),
        ("fair_share.advance_ns", median_ns(&half.advance_ns)),
        (
            "fair_share.next_completion_ns",
            median_ns(&half.next_completion_ns),
        ),
        ("fair_share.quarter.calls", quarter.calls() as f64),
        ("fair_share.quarter.peak_flows", quarter.peak_flows as f64),
        ("fair_share.quarter.start_ns", median_ns(&quarter.start_ns)),
        (
            "fair_share.quarter.advance_ns",
            median_ns(&quarter.advance_ns),
        ),
        (
            "fair_share.quarter.next_completion_ns",
            median_ns(&quarter.next_completion_ns),
        ),
        ("world.events_scheduled", world.scheduled as f64),
        ("world.events_fired", world.fired as f64),
        (
            "world.events_unfired",
            (world.scheduled - world.fired) as f64,
        ),
        (
            "world.unfired_frac",
            (world.scheduled - world.fired) as f64 / world.scheduled as f64,
        ),
        ("world.storage_ops", world.storage_ops as f64),
        ("env.pump_ns", median_ns(&env.pump_ns)),
        ("env.events_routed", env.events_routed as f64),
        (
            "env.pumps_per_task",
            env.pump_ns.len() as f64 / env.tasks as f64,
        ),
        ("fleet.serverless_s", fleet_s("fleet.serverless")),
        ("fleet.per_job_fleet_s", fleet_s("fleet.per_job_fleet")),
        ("fleet.shared_pool_s", fleet_s("fleet.shared_pool")),
        ("fleet.jobs", fleet.full_jobs() as f64),
        ("planner.evaluations", evaluate_ms.len() as f64),
        ("planner.evaluate_ms_p50", percentile(&evaluate_ms, 50.0)),
        ("planner.evaluate_ms_p90", percentile(&evaluate_ms, 90.0)),
        ("planner.search_overhead_s", selfs[search] as f64 / 1e9),
        (
            "telemetry.trace_overhead_s",
            median(&traced_xeno_s) - median(&plain_s),
        ),
        ("telemetry.spans", world.spans as f64),
        ("bench.tracing_overhead_s", traced_s - untraced_s),
    ];
    write_spans(a, &spans)?;
    report(&PER_LAYER, &metrics, &checker)
}

/// Checks a probe's Xenograft run like any other run (tracing must not
/// change what the simulation computes) and returns its trace, if any.
fn checked_run(
    checker: &mut Checker,
    label: &str,
    w: &metaspace::Workload,
    result: Result<
        (metaspace::AnnotationReport, Option<metaspace::TraceOutput>),
        serverful::ExecError,
    >,
) -> Result<Option<metaspace::TraceOutput>, String> {
    let (report, trace) =
        result.map_err(|e| format!("probe run xeno-serverless/{label} failed: {e}"))?;
    checker.attempted += 1;
    let outcome = workloads::xeno_outcome(label, w, &report);
    if let Err(e) = checker.verdict(&format!("xeno-serverless/{label}"), &outcome) {
        checker.failed += 1;
        eprintln!("sysbench: check failed: {e}");
    }
    Ok(trace)
}

/// Writes the recorded spans to `out/spans-<workload>-seed<n>.json`
/// under the benchmark's directory.
fn write_spans(a: &Args, spans: &[Span]) -> Result<(), String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let path = format!("{dir}/spans-{}-seed{}.json", a.workload.as_str(), a.seed);
    std::fs::write(&path, spans::to_json(spans)).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("sysbench: wrote {} spans to {path}", spans.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The names and units declared in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let get = |key: &str| {
                    let pat = format!("\"{key}\": \"");
                    let at = entry
                        .find(&pat)
                        .unwrap_or_else(|| panic!("{key} in {entry}"))
                        + pat.len();
                    entry[at..entry[at..].find('"').unwrap() + at].to_owned()
                };
                (get("name"), get("unit"))
            })
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn printed_metric_names_are_declared_in_benchmark_json() {
        for (section, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = declared(section);
            let printed: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(printed, declared, "{section}");
            for (n, _) in &printed {
                assert!(valid_name(n), "{n}");
            }
        }
        for name in Name::ALL {
            assert!(valid_name(name.as_str()));
            assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{}\"", name.as_str())));
        }
    }

    #[test]
    fn arguments_are_parsed_strictly() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        assert!(matches!(
            parse("--workload fleet-mixed --seed 3 --seconds 10 --trace 1"),
            Ok(Mode::Run(Args {
                workload: Name::Fleet,
                seed: 3,
                seconds: 10,
                trace: true
            }))
        ));
        assert!(matches!(
            parse("--write-reference"),
            Ok(Mode::WriteReference)
        ));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload fleet-mixed --seed x --seconds 10 --trace 0",
            "--workload fleet-mixed --seed 3 --seconds 10 --trace 2",
            "--workload fleet-mixed --seed 3 --seconds 0 --trace 0",
            "--workload fleet-mixed --seed 3 --seconds 10",
            "--workload fleet-mixed --seed 3 --seconds 10 --trace 0 --extra 1",
            "--write-reference --seed 3",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 90.0), 9.0);
    }

    /// Two replays of one traced run give identical call counts, and
    /// two traced runs identical world counts.
    #[test]
    fn replays_and_world_counts_repeat_exactly() {
        let xeno = workloads::Xeno::at(7, 0.04, 0.02);
        let traced = || {
            let (_, t) = xeno
                .run_workload(&xeno.small, true)
                .expect("tiny run succeeds");
            t.expect("trace requested")
        };
        let (a, b) = (traced(), traced());
        let (wa, wb) = (
            probes::WorldCounts::parse(&a.summary).unwrap(),
            probes::WorldCounts::parse(&b.summary).unwrap(),
        );
        assert_eq!(wa, wb);
        assert!(wa.fired > 0 && wa.storage_ops > 0);
        let flows = probes::storage_flows(&a.chrome_json);
        assert!(!flows.is_empty());
        let cfg = CloudConfig::default();
        let (r1, r2) = (probes::replay(&flows, &cfg), probes::replay(&flows, &cfg));
        assert_eq!(r1.calls(), r2.calls());
        assert_eq!(r1.peak_flows, r2.peak_flows);
        assert_eq!(r1.start_ns.len(), flows.len());
    }
}
