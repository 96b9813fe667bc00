//! The storage-polling completion monitor: the per-job tick loop
//! (a world timer re-armed after each LIST), LIST/GET handling,
//! straggler speculation, and job completion.

use super::*;

/// Environment-side state of a job's completion monitor. Its
/// invariants: `generation` guarantees at most one live LIST cycle per
/// job — a restart bumps it, and every tick, LIST and collect of an
/// older generation is dropped on mismatch instead of racing the new
/// cycle — and `collecting` tracks the final gather.
pub(super) struct MonitorHandle {
    /// Bumped on every (re)start; stale ticks, sweeps, LISTs and
    /// collects are dropped on mismatch.
    pub(super) generation: u64,
    /// LIST requests of the *current* generation in flight. The
    /// "exactly one LIST cycle" invariant says this never exceeds 1;
    /// [`CloudEnv::monitor_list_overlap`] exposes the high-water mark so
    /// tests can assert it.
    pub(super) lists_in_flight: u32,
    /// Result GETs outstanding in the final collection, once the LIST
    /// came back complete.
    pub(super) collecting: Option<usize>,
}

impl CloudEnv {
    /// Starts the storage-polling completion monitor once it can make
    /// progress: infrastructure dispatched *and* every task released.
    /// Deferring the first poll past the last release keeps a gated job
    /// from burning LIST requests on results that cannot exist yet; for
    /// ungated jobs `held_tasks` is 0 and the monitor starts exactly
    /// where it always did.
    pub(super) fn maybe_start_monitor(&mut self, job: usize) {
        let j = &self.jobs[job];
        if j.monitor_started || !j.dispatch_ready || j.held_tasks > 0 {
            return;
        }
        self.jobs[job].monitor_started = true;
        self.start_monitor(job);
    }

    /// (Re)starts a job's completion monitor — plus a straggler sweep
    /// when the retry policy enables one — by arming its first tick. A
    /// previous loop (say, of a master lost before a checkpoint replay)
    /// goes stale with the generation bump, so exactly one LIST cycle
    /// can ever be in flight.
    pub(super) fn start_monitor(&mut self, job: usize) {
        let generation = match self.monitors.get_mut(&job) {
            Some(handle) => {
                handle.generation += 1;
                handle.lists_in_flight = 0;
                handle.collecting = None;
                handle.generation
            }
            None => {
                self.monitors.insert(
                    job,
                    MonitorHandle {
                        generation: 0,
                        lists_in_flight: 0,
                        collecting: None,
                    },
                );
                0
            }
        };
        let interval = SimDuration::from_secs_f64(self.jobs[job].poll_interval);
        self.set_timer(interval, Route::MonitorTick { job, generation });
        // Straggler speculation only applies to FaaS jobs, and only when
        // the policy sets a timeout: golden runs arm exactly one timer.
        let straggling = self.jobs[job].retry.straggler_timeout_secs.is_some()
            && matches!(self.jobs[job].backend, JobBackend::Faas { .. });
        if straggling {
            self.set_timer(interval, Route::StragglerSweep { job, generation });
        }
    }

    /// True when `generation` is the job's live monitor cycle.
    fn monitor_live(&self, job: usize, generation: u64) -> bool {
        self.monitors
            .get(&job)
            .is_some_and(|handle| handle.generation == generation)
    }

    /// A monitor tick fired: run one LIST cycle — unless the tick is
    /// stale (job finished, superseded generation) or its monitoring
    /// host died, which ends the loop.
    pub(super) fn on_monitor_tick(&mut self, job: usize, generation: u64) {
        if self.jobs[job].is_finished()
            || !self.monitor_live(job, generation)
            || !self.world.host_alive(self.jobs[job].monitor_host)
        {
            return;
        }
        let host = self.jobs[job].monitor_host;
        let bucket = self.jobs[job].bucket.clone();
        let prefix = self.jobs[job].result_prefix();
        self.issue_storage(
            StorageSpec::List {
                host,
                bucket,
                prefix,
            },
            1,
            Route::List { job, generation },
        );
    }

    /// A straggler-speculation tick fired: abandon late FaaS attempts,
    /// then re-arm. The sweep is keyed by the monitor generation, so it
    /// ends with the job or with a monitor restart.
    pub(super) fn on_straggler_sweep(&mut self, job: usize, generation: u64) {
        if self.jobs[job].is_finished()
            || !self.monitor_live(job, generation)
            || !self.world.host_alive(self.jobs[job].monitor_host)
        {
            return;
        }
        self.check_stragglers(job);
        if self.jobs[job].is_finished() {
            return; // straggler handling may exhaust a task's budget
        }
        let interval = SimDuration::from_secs_f64(self.jobs[job].poll_interval);
        self.set_timer(interval, Route::StragglerSweep { job, generation });
    }

    /// Speculative re-execution: on each poll, FaaS task attempts older
    /// than the straggler timeout are abandoned (billed, booked as waste)
    /// and re-dispatched. Disabled unless the policy sets a timeout.
    pub(super) fn check_stragglers(&mut self, job: usize) {
        let Some(timeout) = self.jobs[job].retry.straggler_timeout_secs else {
            return;
        };
        if !matches!(self.jobs[job].backend, JobBackend::Faas { .. }) {
            return;
        }
        let now = self.world.now();
        let policy = self.jobs[job].retry.clone();
        let late: Vec<usize> = self
            .jobs[job]
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                // Only attempts whose sandbox has started can be safely
                // abandoned (cold starts are left to finish).
                matches!(
                    t.phase,
                    TaskPhase::FetchingInput | TaskPhase::Running | TaskPhase::WritingResult
                ) && policy.allows_retry(t.attempts)
                    && t.started_at
                        .is_some_and(|s| (now - s).as_secs_f64() > timeout)
            })
            .map(|(i, _)| i)
            .collect();
        for task in late {
            self.task_attempt_failed(job, task, AttemptFailure::Straggler);
            if self.jobs[job].is_finished() {
                return;
            }
        }
    }

    pub(super) fn on_list(&mut self, job: usize, generation: u64, outcome: OpOutcome) {
        // The reply ends its request's in-flight window whatever the
        // guards below decide.
        if let Some(handle) = self.monitors.get_mut(&job) {
            if handle.generation == generation {
                handle.lists_in_flight = handle.lists_in_flight.saturating_sub(1);
            }
        }
        if self.jobs[job].is_finished() {
            return;
        }
        // A checkpoint replay already restarted the loop (generation
        // mismatch), or the listing master died while the op was in
        // flight: drop the reply and with it this loop — the
        // replacement monitor (or the stall, under
        // [`RecoveryMode::Protected`]) owns the job from here.
        if !self.monitor_live(job, generation)
            || !self.world.host_alive(self.jobs[job].monitor_host)
        {
            return;
        }
        let OpOutcome::ListOk { keys } = outcome else {
            unreachable!("list op yielded a non-list outcome")
        };
        let total = self.jobs[job].tasks.len();
        if keys.len() < total {
            let interval = SimDuration::from_secs_f64(self.jobs[job].poll_interval);
            self.set_timer(interval, Route::MonitorTick { job, generation });
            return;
        }
        // All results present: collect them; the tick loop is done.
        let host = self.jobs[job].monitor_host;
        let bucket = self.jobs[job].bucket.clone();
        let mut outstanding = 0;
        for key in keys {
            let Some(task) = self.jobs[job].task_of_result_key(&key) else {
                continue;
            };
            self.issue_storage(
                StorageSpec::Get {
                    host,
                    bucket: bucket.clone(),
                    key,
                },
                1,
                Route::Collect {
                    job,
                    task,
                    generation,
                },
            );
            outstanding += 1;
        }
        self.monitors
            .get_mut(&job)
            .expect("monitor handle vanished")
            .collecting = Some(outstanding);
    }

    pub(super) fn on_collect(&mut self, job: usize, task: usize, generation: u64, outcome: OpOutcome) {
        if self.jobs[job].is_finished() {
            return;
        }
        // Collector died mid-gather (master loss): the replacement's
        // replay restarts the whole monitor cycle from a fresh LIST.
        if !self.world.host_alive(self.jobs[job].monitor_host) {
            return;
        }
        let body = match outcome {
            OpOutcome::GetOk { body } => body,
            other => unreachable!("collect yielded {other:?}"),
        };
        let decoded = match body.bytes() {
            Some(bytes) => Payload::decode(bytes),
            None => Ok(Payload::Opaque { size: body.len() }),
        };
        // The result is stored even when the cycle below turns out to be
        // superseded: it is ground truth either way.
        match decoded {
            Ok(p) => self.jobs[job].results[task] = Some(p),
            Err(e) => {
                self.complete_job(job, Some(e));
                return;
            }
        }
        let done = {
            // A straggling GET of a monitor cycle that a checkpoint
            // replay already superseded decrements nothing.
            let Some(handle) = self.monitors.get_mut(&job) else {
                return;
            };
            if handle.generation != generation {
                return;
            }
            let Some(outstanding) = handle.collecting.as_mut() else {
                return;
            };
            *outstanding -= 1;
            if *outstanding == 0 {
                handle.collecting = None;
                true
            } else {
                false
            }
        };
        if !done {
            return;
        }
        match self.jobs[job].backend {
            JobBackend::Faas { .. } => self.complete_job(job, None),
            JobBackend::Standalone { pool } => {
                if self.pools[pool].cfg.recovery == RecoveryMode::Decentralized {
                    // The client collected its own results; there is
                    // no master to hear from.
                    self.complete_job(job, None);
                } else {
                    // Master -> client SSH notification latency.
                    self.set_timer(
                        SimDuration::from_millis(60),
                        Route::MasterNotify { job },
                    );
                }
            }
        }
    }

    pub(super) fn complete_job(&mut self, job: usize, error: Option<ExecError>) {
        if self.jobs[job].is_finished() {
            return;
        }
        // The monitor and any straggler sweep die with the job; their
        // pending ticks fire later and find no live generation.
        self.monitors.remove(&job);
        let now = self.world.now();
        self.jobs[job].finished_at = Some(now);
        self.jobs[job].error = error;
        self.finished.push(job);
        let span = self.jobs[job].span;
        if self.world.tracer().is_enabled() {
            if let Some(err) = &self.jobs[job].error {
                let msg = err.to_string();
                self.world.tracer_mut().attr_str(span, "error", &msg);
            }
        }
        self.world.tracer_mut().end(span, now);
        self.job_activity(-1);
        let j = &self.jobs[job];
        self.timeline.record(StageSpan {
            name: j.name.clone(),
            start: j.first_release_at.unwrap_or(j.submitted_at),
            end: now,
            tasks: j.tasks.len(),
            stateful: j.stateful,
        });
        if let JobBackend::Standalone { pool } = self.jobs[job].backend {
            self.pool_job_finished(pool, job);
        }
    }

    // ------------------------------------------------------------------
    // Serverful pool machinery
    // ------------------------------------------------------------------
}
