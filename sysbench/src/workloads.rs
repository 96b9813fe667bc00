//! The three benchmark workloads. Each is a fixed batch of simulated
//! runs driven through the crates' public entry points on one thread.
//! An iteration runs a smaller pass and a full-size pass; the pair
//! gives the log-log scaling slope of host time.

use cloudsim::CloudConfig;
use fleet::{Policy, Scenario};
use metaspace::{DeploymentPlan, Workload};
use planner::{Evaluator, SearchConfig, SearchSpace};

use crate::check::{Outcome, Val};
use crate::spans::Tracer;
use crate::speed::{Meter, Timed};

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Serverless METASPACE Xenograft: the storage-saturation case.
    Xeno,
    /// The multi-tenant `mixed` fleet scenario under all three policies.
    Fleet,
    /// Beam search over Brain's standard deployment space.
    Planner,
}

impl Name {
    /// Every workload, in the order the traced run visits them.
    pub const ALL: [Name; 3] = [Name::Xeno, Name::Fleet, Name::Planner];

    /// The workload's command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Xeno => "xeno-serverless",
            Name::Fleet => "fleet-mixed",
            Name::Planner => "planner-brain",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// One simulated run (or, for the planner, one search) and its checked
/// outputs.
#[derive(Debug)]
pub struct Run {
    /// Label that prefixes the run's checked values.
    pub label: String,
    /// Simulated runs this entry stands for (evaluations of a search).
    pub attempted: u64,
    /// Of those, runs that returned an error.
    pub errored: u64,
    /// The checked values, or why the run failed.
    pub outcome: Result<Outcome, String>,
}

/// One pass: a batch of runs at one size.
#[derive(Debug)]
pub struct Pass {
    /// Host and reference seconds the pass took.
    pub time: Timed,
    /// The size the scaling slope uses: task scale or jobs.
    pub size: f64,
    /// Simulated tasks the workload declares for the pass's completed
    /// runs.
    pub tasks: u64,
    /// The pass's runs.
    pub runs: Vec<Run>,
}

/// One iteration: the smaller pass, then the full-size one.
#[derive(Debug)]
pub struct Iteration {
    /// The smaller pass.
    pub small: Pass,
    /// The full-size pass.
    pub full: Pass,
}

/// A workload with its inputs built and warmed up.
// At most three exist, each built once, so variant sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    /// See [`Name::Xeno`].
    Xeno(Xeno),
    /// See [`Name::Fleet`].
    Fleet(Fleet),
    /// See [`Name::Planner`].
    Planner(Planner),
}

impl Prepared {
    /// Builds a workload's inputs from the seed and warms it up. This is
    /// the set-up the `setup_s` metric times.
    pub fn new(name: Name, seed: u64) -> Prepared {
        match name {
            Name::Xeno => Prepared::Xeno(Xeno::new(seed)),
            Name::Fleet => Prepared::Fleet(Fleet::new(seed)),
            Name::Planner => Prepared::Planner(Planner::new(seed)),
        }
    }

    /// Runs one iteration, with a span around each pass and each call
    /// into a layer, and the meter timing each pass.
    pub fn iterate(&self, tr: &Tracer, m: &Meter) -> Iteration {
        let (small, full) = match self {
            Prepared::Xeno(x) => (
                tr.span("pass.small", || {
                    x.pass(tr, m, "small", &x.small, XENO_SMALL_SCALE)
                }),
                tr.span("pass.full", || {
                    x.pass(tr, m, "full", &x.full, XENO_FULL_SCALE)
                }),
            ),
            Prepared::Fleet(f) => (
                tr.span("pass.small", || {
                    f.pass(tr, m, "small", &f.small, f.small_jobs, f.small_tasks)
                }),
                tr.span("pass.full", || {
                    f.pass(tr, m, "full", &f.full, f.full_jobs, f.full_tasks)
                }),
            ),
            Prepared::Planner(p) => (
                tr.span("pass.small", || p.pass(tr, m, "small", &p.small)),
                tr.span("pass.full", || p.pass(tr, m, "full", &p.full)),
            ),
        };
        Iteration { small, full }
    }
}

fn named(name: &str) -> Workload {
    metaspace::workloads::named(name).expect("bundled workload")
}

fn declared_tasks(w: &Workload) -> u64 {
    w.stages.iter().map(|s| s.tasks as u64).sum()
}

// ----------------------------------------------------------------------
// xeno-serverless
// ----------------------------------------------------------------------

/// Xenograft at half and quarter task scale, every stage on cloud
/// functions, barrier execution.
pub struct Xeno {
    seed: u64,
    /// The full-size run.
    pub full: Workload,
    /// The smaller run.
    pub small: Workload,
}

/// Task scale of the full-size Xenograft run.
pub const XENO_FULL_SCALE: f64 = 0.5;
/// Task scale of the smaller Xenograft run.
pub const XENO_SMALL_SCALE: f64 = 0.25;

impl Xeno {
    fn new(seed: u64) -> Xeno {
        let x = Xeno::at(seed, XENO_FULL_SCALE, XENO_SMALL_SCALE);
        // Warm-up: one run at a sixteenth of the task scale.
        let _ = x.run_workload(
            &named("metaspace-xenograft").scaled(XENO_FULL_SCALE / 8.0),
            false,
        );
        x
    }

    /// Xenograft at the given full and smaller task scales, not warmed.
    pub fn at(seed: u64, full_scale: f64, small_scale: f64) -> Xeno {
        let w = named("metaspace-xenograft");
        Xeno {
            seed,
            full: w.scaled(full_scale),
            small: w.scaled(small_scale),
        }
    }

    /// One serverless run of `w`, traced by the simulator or not.
    pub fn run_workload(
        &self,
        w: &Workload,
        trace: bool,
    ) -> Result<(metaspace::AnnotationReport, Option<metaspace::TraceOutput>), serverful::ExecError>
    {
        let plan = DeploymentPlan::serverless(&w.stages);
        metaspace::run_workload(w, &plan, self.seed, CloudConfig::default(), trace)
    }

    fn pass(&self, tr: &Tracer, m: &Meter, label: &str, w: &Workload, scale: f64) -> Pass {
        let (time, result) =
            m.time(|| tr.span("metaspace.run_workload", || self.run_workload(w, false)));
        let outcome = result
            .map_err(|e| e.to_string())
            .and_then(|(report, _)| xeno_outcome(label, w, &report));
        Pass {
            time,
            size: scale,
            tasks: if outcome.is_ok() {
                declared_tasks(w)
            } else {
                0
            },
            runs: vec![Run {
                label: format!("xeno-serverless/{label}"),
                attempted: 1,
                errored: 0,
                outcome,
            }],
        }
    }
}

pub fn xeno_outcome(
    label: &str,
    w: &Workload,
    report: &metaspace::AnnotationReport,
) -> Result<Outcome, String> {
    let run = format!("xeno-serverless/{label}");
    if report.stages.len() != w.stages.len() {
        return Err(format!(
            "{run}: {} stages reported, {} declared",
            report.stages.len(),
            w.stages.len()
        ));
    }
    let mut out = Outcome::new();
    for (got, want) in report.stages.iter().zip(&w.stages) {
        if got.name != want.name || got.tasks != want.tasks {
            return Err(format!(
                "{run}: stage {} completed {} tasks, stage {} declares {}",
                got.name, got.tasks, want.name, want.tasks
            ));
        }
        out.push((
            format!("{run}.stage.{}.tasks", got.name),
            Val::Count(got.tasks as u64),
        ));
    }
    out.push((format!("{run}.wall_secs"), Val::Virtual(report.wall_secs)));
    out.push((format!("{run}.cost_usd"), Val::Virtual(report.cost_usd)));
    Ok(out)
}

// ----------------------------------------------------------------------
// fleet-mixed
// ----------------------------------------------------------------------

/// The `mixed` scenario with the job cap lifted: 480 jobs at four times
/// the preset arrival rate, and 240 jobs at twice it, over the same
/// 480 s window. Each pass runs the three policy cells one after
/// another.
pub struct Fleet {
    seed: u64,
    full: Scenario,
    small: Scenario,
    full_jobs: usize,
    small_jobs: usize,
    full_tasks: u64,
    small_tasks: u64,
}

/// Cell order within a pass, with the span name around each cell.
pub const FLEET_CELLS: [(Policy, &str); 3] = [
    (Policy::Serverless, "fleet.serverless"),
    (Policy::PerJobFleet, "fleet.per_job_fleet"),
    (Policy::SharedPool, "fleet.shared_pool"),
];

fn fleet_scenario(max_jobs: usize, rate_factor: f64) -> Scenario {
    let mut sc = Scenario::mixed();
    sc.max_jobs = max_jobs;
    sc.arrival_rate_per_min *= rate_factor;
    sc
}

/// Simulated tasks of every arrival in the scenario's schedule.
fn fleet_tasks(sc: &Scenario, seed: u64) -> (usize, u64) {
    let per_tenant: Vec<u64> = sc
        .tenants
        .iter()
        .map(|t| declared_tasks(&t.workload()))
        .collect();
    let arrivals = fleet::schedule(sc, seed);
    (
        arrivals.len(),
        arrivals.iter().map(|a| per_tenant[a.tenant]).sum(),
    )
}

impl Fleet {
    fn new(seed: u64) -> Fleet {
        let full = fleet_scenario(480, 4.0);
        let small = fleet_scenario(240, 2.0);
        let (full_jobs, full_tasks) = fleet_tasks(&full, seed);
        let (small_jobs, small_tasks) = fleet_tasks(&small, seed);
        // Warm-up: the shared-pool cell over the first 24 jobs.
        let _ = fleet::run_policy(&fleet_scenario(24, 4.0), Policy::SharedPool, seed);
        Fleet {
            seed,
            full,
            small,
            full_jobs,
            small_jobs,
            full_tasks,
            small_tasks,
        }
    }

    /// Jobs per cell in the full-size pass.
    pub fn full_jobs(&self) -> usize {
        self.full_jobs
    }

    fn pass(
        &self,
        tr: &Tracer,
        m: &Meter,
        label: &str,
        sc: &Scenario,
        jobs: usize,
        tasks_per_cell: u64,
    ) -> Pass {
        let mut runs = Vec::new();
        let mut tasks = 0;
        let (time, ()) = m.time(|| {
            for (i, (policy, span)) in FLEET_CELLS.into_iter().enumerate() {
                if i > 0 {
                    m.checkpoint();
                }
                let result = tr.span(span, || fleet::run_policy(sc, policy, self.seed));
                let run = format!("fleet-mixed/{label}/{policy}");
                let outcome = result.map_err(|e| e.to_string()).and_then(|p| {
                    if p.jobs.len() != jobs {
                        return Err(format!("{run}: {} of {jobs} jobs completed", p.jobs.len()));
                    }
                    Ok(vec![
                        (format!("{run}.jobs"), Val::Count(p.jobs.len() as u64)),
                        (
                            format!("{run}.science_digest"),
                            Val::Count(p.science_digest),
                        ),
                        (format!("{run}.cost_usd"), Val::Virtual(p.cost_usd)),
                        (
                            format!("{run}.p50_latency_secs"),
                            Val::Virtual(p.latency_percentile(50.0)),
                        ),
                    ])
                });
                if outcome.is_ok() {
                    tasks += tasks_per_cell;
                }
                runs.push(Run {
                    label: run,
                    attempted: 1,
                    errored: 0,
                    outcome,
                });
            }
        });
        Pass {
            time,
            size: jobs as f64,
            tasks,
            runs,
        }
    }
}

// ----------------------------------------------------------------------
// planner-brain
// ----------------------------------------------------------------------

/// One search target: an evaluator and its candidate space.
pub struct Target {
    scale: f64,
    evaluator: Evaluator,
    space: SearchSpace,
    tasks: u64,
    candidates: usize,
}

impl Target {
    fn new(brain: &Workload, scale: f64, seed: u64) -> Target {
        let w = if scale < 1.0 {
            brain.scaled(scale)
        } else {
            brain.clone()
        };
        let evaluator = Evaluator::for_workload(&w, seed);
        let space = SearchSpace::standard(&evaluator.stages);
        let candidates = space.candidates(&evaluator.stages).len();
        Target {
            scale,
            evaluator,
            space,
            tasks: declared_tasks(&w),
            candidates,
        }
    }
}

/// Brain's standard space under a reduced beam (width 3, one round),
/// at full and at half task scale, on one thread.
pub struct Planner {
    cfg: SearchConfig,
    full: Target,
    small: Target,
}

/// Task scale of the smaller Brain search.
pub const PLANNER_SMALL_SCALE: f64 = 0.5;

impl Planner {
    fn new(seed: u64) -> Planner {
        let brain = named("metaspace-brain");
        let p = Planner {
            cfg: SearchConfig {
                threads: 1,
                seed,
                beam_width: 3,
                beam_rounds: 1,
                ..SearchConfig::default()
            },
            full: Target::new(&brain, 1.0, seed),
            small: Target::new(&brain, PLANNER_SMALL_SCALE, seed),
        };
        // Warm-up: one serverless evaluation at half scale.
        let ev = &p.small.evaluator;
        let _ = ev.evaluate(&DeploymentPlan::serverless(&ev.stages));
        p
    }

    fn pass(&self, tr: &Tracer, m: &Meter, label: &str, t: &Target) -> Pass {
        let eval = |plan: &DeploymentPlan| {
            m.checkpoint();
            tr.span("planner.evaluate", || t.evaluator.evaluate(plan))
        };
        let (time, report) = m.time(|| {
            tr.span("planner.search_with", || {
                planner::search_with(&t.evaluator.stages, &eval, &t.space, &self.cfg)
            })
        });
        let run = format!("planner-brain/{label}");
        let outcome = if report.failed > 0 {
            Err(format!(
                "{run}: {} of {} evaluations failed",
                report.failed,
                report.evaluated + report.failed
            ))
        } else if report.space_size != t.candidates {
            Err(format!(
                "{run}: searched {} candidates, set-up listed {}",
                report.space_size, t.candidates
            ))
        } else {
            let mut out = vec![(
                format!("{run}.evaluated"),
                Val::Count(report.evaluated as u64),
            )];
            for (i, p) in report.frontier.points().iter().enumerate() {
                out.push((format!("{run}.frontier.{i}.plan"), Val::Text(p.plan.key())));
                out.push((
                    format!("{run}.frontier.{i}.cost_usd"),
                    Val::Virtual(p.cost_usd),
                ));
                out.push((
                    format!("{run}.frontier.{i}.makespan_secs"),
                    Val::Virtual(p.makespan_secs),
                ));
            }
            Ok(out)
        };
        Pass {
            time,
            size: t.scale,
            tasks: t.tasks * report.evaluated as u64,
            runs: vec![Run {
                label: run,
                attempted: (report.evaluated + report.failed) as u64,
                errored: report.failed as u64,
                outcome,
            }],
        }
    }
}
