//! The `FunctionExecutor`: the entry point of the framework.
//!
//! Mirrors the Lithops API the paper extends: construct an executor for a
//! backend, `map` a function over inputs, `get_result`. Switching a stage
//! between cloud functions and VMs is a one-line change of the backend
//! argument (Listing 1 of the paper).

use std::fmt;

use crate::config::ExecutorConfig;
use crate::env::CloudEnv;
use crate::error::ExecError;
use crate::job::{JobBackend, JobState, TaskFactory, TaskState};
use crate::payload::Payload;

/// The compute backend an executor targets.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Backend {
    /// Cloud functions (AWS-Lambda-like).
    Faas,
    /// Virtual machines orchestrated by a master (the paper's serverful
    /// backend).
    Vm,
}

impl Backend {
    /// The FaaS backend.
    pub fn faas() -> Backend {
        Backend::Faas
    }

    /// The serverful (VM) backend.
    pub fn vm() -> Backend {
        Backend::Vm
    }

    /// The Lithops-style compute-backend label of this backend in a
    /// region (`aws_lambda`/`aws_ec2` on AWS, `gcp_cloudfunctions`/
    /// `gcp_gce` on GCP). Billing and trace labels should go through
    /// here — or [`Self::label_in`] with the environment — rather than
    /// assuming AWS names.
    pub fn label(&self, region: &cloudsim::provider::RegionProfile) -> &'static str {
        match self {
            Backend::Faas => region.faas_label,
            Backend::Vm => region.vm_label,
        }
    }

    /// The backend label under the environment's active region, falling
    /// back to the default (paper) region for environments built from a
    /// hand-rolled catalog no registered region owns.
    pub fn label_in(&self, env: &CloudEnv) -> &'static str {
        let region = env
            .region()
            .unwrap_or_else(cloudsim::provider::default_region);
        self.label(region)
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Region-less display: the default region's labels (the paper's
        // AWS deployment). Anything with an environment in hand should
        // prefer [`Backend::label_in`].
        f.write_str(self.label(cloudsim::provider::default_region()))
    }
}

/// Handle to a submitted job; redeem with
/// [`FunctionExecutor::get_result`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a job handle must be redeemed with get_result"]
pub struct JobHandle {
    pub(crate) id: usize,
}

impl JobHandle {
    /// The job's submission index in its [`CloudEnv`]: 0 for the first
    /// job submitted there, then 1, 2, … — dense, so drivers can key
    /// per-job state by it in a `Vec`.
    pub fn index(&self) -> usize {
        self.id
    }

    /// Number of tasks (partitions) in the job.
    #[must_use = "a task count only informs scheduling; it has no side effect"]
    pub fn total_tasks(&self, env: &CloudEnv) -> usize {
        env.job_total_tasks(self.id)
    }

    /// Tasks that have completed successfully so far. Partition-level
    /// progress: a dataflow scheduler can release downstream work as
    /// soon as specific upstream partitions finish, without waiting for
    /// the whole job.
    #[must_use = "a completion count only informs scheduling; it has no side effect"]
    pub fn done_tasks(&self, env: &CloudEnv) -> usize {
        env.job_done_tasks(self.id)
    }

    /// Whether a specific partition has completed successfully.
    #[must_use = "a completion check only informs scheduling; it has no side effect"]
    pub fn task_done(&self, env: &CloudEnv, task: usize) -> bool {
        env.job_task_done(self.id, task)
    }

    /// Whether the whole job has finished (all results collected, or
    /// failed). Redeem with [`FunctionExecutor::try_result`].
    #[must_use = "a completion check only informs scheduling; it has no side effect"]
    pub fn is_finished(&self, env: &CloudEnv) -> bool {
        env.job_finished(self.id)
    }

    /// Releases one gated task for dispatch (no-op if the task was not
    /// gated or was already released). See [`MapOptions::gated`].
    pub fn release_task(&self, env: &mut CloudEnv, task: usize) {
        env.release_task(self.id, task);
    }

    /// Releases every still-gated task of the job.
    pub fn release_all(&self, env: &mut CloudEnv) {
        env.release_all_tasks(self.id);
    }
}

/// Options for one `map` call.
#[derive(Debug, Clone)]
pub struct MapOptions {
    /// Stage name (billing labels, timeline spans).
    pub name: String,
    /// Mark this stage a stateful operation (sort/partition/exchange) in
    /// the paper's sense; drives the Table 3 stateful-window statistics.
    pub stateful: bool,
    /// Submit the job with every task *gated*: infrastructure spins up,
    /// but no task is dispatched until [`JobHandle::release_task`]
    /// releases it. The hook dependency-driven schedulers use to launch
    /// partitions as their upstream data arrives.
    pub gated: bool,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            name: "map".to_owned(),
            stateful: false,
            gated: false,
        }
    }
}

impl MapOptions {
    /// Named stage options.
    pub fn named(name: impl Into<String>) -> Self {
        MapOptions {
            name: name.into(),
            stateful: false,
            gated: false,
        }
    }

    /// Marks the stage stateful.
    pub fn stateful(mut self) -> Self {
        self.stateful = true;
        self
    }

    /// Gates every task behind an explicit release (dataflow mode).
    pub fn gated(mut self) -> Self {
        self.gated = true;
        self
    }
}

/// Ports parallel function calls to a cloud backend. See the
/// [crate docs](crate) for a full example.
pub struct FunctionExecutor {
    backend: Backend,
    config: ExecutorConfig,
    /// Index of this executor's serverful pool, created lazily.
    pool: Option<usize>,
}

impl fmt::Debug for FunctionExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionExecutor")
            .field("backend", &self.backend)
            .field("pool", &self.pool)
            .finish()
    }
}

impl FunctionExecutor {
    /// Creates an executor for a backend.
    pub fn new(env: &mut CloudEnv, backend: Backend, config: ExecutorConfig) -> Self {
        if config.tracing {
            env.enable_tracing();
        }
        let pool = match backend {
            Backend::Vm => Some(env.create_pool(config.standalone.clone())),
            Backend::Faas => None,
        };
        FunctionExecutor {
            backend,
            config,
            pool,
        }
    }

    /// The backend this executor targets.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Maps `factory` over `inputs` with default options.
    pub fn map(
        &mut self,
        env: &mut CloudEnv,
        factory: TaskFactory,
        inputs: Vec<Payload>,
    ) -> JobHandle {
        self.map_with(env, factory, inputs, MapOptions::default())
    }

    /// Maps `factory` over `inputs` with explicit stage options.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn map_with(
        &mut self,
        env: &mut CloudEnv,
        factory: TaskFactory,
        inputs: Vec<Payload>,
        opts: MapOptions,
    ) -> JobHandle {
        assert!(!inputs.is_empty(), "map over no inputs");
        let id = env.next_job_id();
        let backend = match (&self.backend, self.pool) {
            (Backend::Faas, _) => JobBackend::Faas {
                memory_mb: self.config.runtime_memory_mb,
                fetch_input: self.config.fetch_input,
                fleet: "lambda".to_owned(),
            },
            (Backend::Vm, Some(pool)) => JobBackend::Standalone { pool },
            (Backend::Vm, None) => unreachable!("vm backend without a pool"),
        };
        let poll_interval = match self.backend {
            Backend::Faas => self.config.poll_interval,
            Backend::Vm => self.config.standalone.poll_interval,
        };
        let setup_secs = match self.backend {
            Backend::Faas => self.config.map_setup_secs,
            Backend::Vm => self.config.standalone.map_setup_secs,
        };
        let n = inputs.len();
        let job = JobState {
            id,
            name: opts.name,
            stateful: opts.stateful,
            backend,
            bucket: self.config.bucket.clone(),
            poll_interval,
            factory,
            setup_secs,
            io_overlap: self.config.io_compute_overlap,
            retry: self.config.retry.clone(),
            inputs,
            tasks: (0..n)
                .map(|_| {
                    let mut t = TaskState::new();
                    t.held = opts.gated;
                    t
                })
                .collect(),
            results: (0..n).map(|_| None).collect(),
            done_tasks: 0,
            held_tasks: if opts.gated { n } else { 0 },
            dispatch_ready: false,
            monitor_started: false,
            submitted_at: env.now(),
            first_release_at: None,
            finished_at: None,
            error: None,
            monitor_host: env.world().client_host(),
            span: telemetry::trace::SpanId::NONE,
        };
        let id = env.submit(job);
        JobHandle { id }
    }

    /// Blocks (pumping the simulation) until the job completes; returns
    /// results in input order.
    ///
    /// # Errors
    ///
    /// Propagates task failures, payload decode failures, and stalls
    /// (the simulation draining before completion).
    pub fn get_result(
        &mut self,
        env: &mut CloudEnv,
        job: JobHandle,
    ) -> Result<Vec<Payload>, ExecError> {
        env.run_job(job.id)
    }

    /// Non-blocking completion check: the job's results if it has
    /// finished, `None` while it is still running. The counterpart of
    /// [`get_result`](Self::get_result) for drivers pumping the
    /// environment themselves via [`CloudEnv::pump`];
    /// [`CloudEnv::take_finished`] names the jobs worth asking about. A
    /// finished job's results can be taken only once.
    pub fn try_result(
        &mut self,
        env: &mut CloudEnv,
        job: JobHandle,
    ) -> Option<Result<Vec<Payload>, ExecError>> {
        env.try_job_result(job.id)
    }

    /// True when this executor's VM pool is fully provisioned and
    /// SSH-ready, so the next job starts without paying boot time.
    /// Always `false` on the FaaS backend (sandboxes are per-task).
    pub fn warm(&self, env: &CloudEnv) -> bool {
        self.pool.is_some_and(|pool| env.pool_ready(pool))
    }

    /// Jobs running or queued on this executor's VM pool (0 on FaaS):
    /// the lease-selection signal for cross-job pool schedulers.
    pub fn backlog(&self, env: &CloudEnv) -> usize {
        self.pool.map_or(0, |pool| env.pool_backlog(pool))
    }

    /// Tears down any VMs this executor keeps alive between jobs.
    pub fn shutdown(&mut self, env: &mut CloudEnv) {
        if let Some(pool) = self.pool {
            env.shutdown_pool(pool);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_displays_like_lithops_names() {
        assert_eq!(Backend::faas().to_string(), "aws_lambda");
        assert_eq!(Backend::vm().to_string(), "aws_ec2");
    }

    #[test]
    fn backend_labels_follow_the_region() {
        let gcp = cloudsim::provider::region("gcp-us-central1").expect("gcp region registered");
        assert_eq!(Backend::faas().label(gcp), "gcp_cloudfunctions");
        assert_eq!(Backend::vm().label(gcp), "gcp_gce");

        let base = cloudsim::CloudConfig::default();
        let env = CloudEnv::new(gcp.apply(&base), 7);
        assert_eq!(Backend::faas().label_in(&env), "gcp_cloudfunctions");
        assert_eq!(Backend::vm().label_in(&env), "gcp_gce");

        // An environment on the default (AWS) config keeps the
        // Lithops-compatible names.
        let aws = CloudEnv::new(base, 7);
        assert_eq!(Backend::faas().label_in(&aws), "aws_lambda");
        assert_eq!(Backend::vm().label_in(&aws), "aws_ec2");
    }

    #[test]
    fn map_options_builder() {
        let opts = MapOptions::named("dataset-sort").stateful();
        assert_eq!(opts.name, "dataset-sort");
        assert!(opts.stateful);
    }
}
