//! A deterministic single-threaded async executor on virtual time.
//!
//! The executor runs a seeded queue of futures over [`SimTime`]: VM
//! lifecycles, sandbox invocations, storage transfers and monitors
//! become straight-line `await` code instead of callback re-arming and
//! hand-rolled polling loops. Determinism is a hard invariant, not an
//! accident:
//!
//! * **Wakeup order is keyed on `(SimTime, spawn_seq)`.** Every task
//!   carries the sequence number it was spawned with ([`TaskId`]); when
//!   several tasks are runnable at the same virtual instant they run in
//!   ascending spawn order, never in hash-map iteration order. The
//!   ready set is a [`BTreeSet`] and the timer wheel is the kernel's
//!   own [`EventQueue`], so two runs with the same seed and the same
//!   spawn sequence replay byte-identical schedules.
//! * **Wakes are explicit.** The leaf futures ([`AsyncExecutor::sleep`],
//!   [`Gate`], [`Notifier`], [`Slots`], [`JoinHandle`]) register the
//!   polling task with the executor and wake it by [`TaskId`]; the
//!   [`std::task::Waker`] in the poll context is a no-op. External
//!   futures that rely on waker plumbing are therefore not supported —
//!   by design, since third-party reactors would smuggle in
//!   nondeterminism.
//!
//! The executor has two clocking modes:
//!
//! * **Self-clocked** ([`AsyncExecutor::run`]): the executor owns the
//!   clock and advances it timer-batch by timer-batch, like a classic
//!   discrete-event loop. This is what the kernel microbenchmarks and
//!   the pure-executor property tests use.
//! * **Host-clocked** ([`AsyncExecutor::advance_to`] +
//!   [`AsyncExecutor::run_ready`]): an outer simulation (the cloud
//!   world) owns the clock; the executor is pumped after each host
//!   event. This is how `CloudEnv` runs its control-loop futures
//!   (completion monitors, retry backoffs, straggler sweeps, checkpoint
//!   loops) in lockstep with world time; it is the only host-clocked
//!   user. The DAG scheduler and the fleet driver are plain loops over
//!   `CloudEnv::pump` and own no executor.
//!
//! # Example
//!
//! ```
//! use simkernel::{AsyncExecutor, SimDuration};
//!
//! let exec = AsyncExecutor::new();
//! let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
//! for (i, delay) in [3u64, 1, 2].into_iter().enumerate() {
//!     let exec2 = exec.clone();
//!     let order2 = order.clone();
//!     exec.spawn(async move {
//!         exec2.sleep(SimDuration::from_secs(delay)).await;
//!         order2.borrow_mut().push(i);
//!     });
//! }
//! exec.run();
//! assert_eq!(*order.borrow(), vec![1, 2, 0]);
//! assert_eq!(exec.now().as_secs_f64(), 3.0);
//! ```

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use crate::engine::{EventQueue, EventToken};
use crate::time::{SimDuration, SimTime};

/// Identifies a spawned task. The numeric value is the task's spawn
/// sequence number and doubles as the deterministic wakeup tie-break:
/// tasks runnable at the same instant run in ascending [`TaskId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u64);

/// Lifetime counters of executor activity, the async twin of
/// [`crate::SchedStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tasks ever spawned.
    pub spawned: u64,
    /// Tasks run to completion.
    pub completed: u64,
    /// Individual task polls.
    pub polls: u64,
    /// Explicit wakes delivered (timer fires, gate opens, notifies,
    /// slot handoffs, join completions).
    pub wakes: u64,
    /// Timer entries fired.
    pub timer_fires: u64,
}

type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

struct Inner {
    /// Task storage, indexed by spawn sequence. A slot is `None` once
    /// its task completed (or while the task is being polled).
    slots: Vec<Option<TaskFuture>>,
    /// Runnable tasks, drained in ascending [`TaskId`] order.
    ready: BTreeSet<u64>,
    /// Sleeping tasks keyed by wake deadline.
    timers: EventQueue<u64>,
    /// The virtual clock (monotonic; host-clocked mode pushes it).
    now: SimTime,
    /// The task currently being polled, if any.
    current: Option<u64>,
    stats: ExecStats,
}

impl Inner {
    fn new() -> Self {
        Inner {
            slots: Vec::new(),
            ready: BTreeSet::new(),
            timers: EventQueue::new(),
            now: SimTime::ZERO,
            current: None,
            stats: ExecStats::default(),
        }
    }

    fn task_alive(&self, id: u64) -> bool {
        self.current == Some(id) || self.slots.get(id as usize).is_some_and(Option::is_some)
    }

    fn wake(&mut self, id: u64) {
        if self.task_alive(id) {
            self.stats.wakes += 1;
            self.ready.insert(id);
        }
    }

    fn current_task(&self) -> u64 {
        self.current
            .expect("simkernel::aio leaf future polled outside its executor")
    }
}

/// Wakes every task in `ids` (used by the shared synchronisation
/// primitives when their executor is still alive).
fn wake_all(exec: &Weak<RefCell<Inner>>, ids: impl IntoIterator<Item = u64>) {
    if let Some(inner) = exec.upgrade() {
        let mut inner = inner.borrow_mut();
        for id in ids {
            inner.wake(id);
        }
    }
}

/// The deterministic async executor. Cloning is cheap and yields a
/// handle to the same run queue (tasks routinely carry a clone to
/// spawn children or sleep).
#[derive(Clone)]
pub struct AsyncExecutor {
    inner: Rc<RefCell<Inner>>,
}

impl Default for AsyncExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AsyncExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("AsyncExecutor")
            .field("now", &inner.now)
            .field("ready", &inner.ready.len())
            .field("timers", &inner.timers.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl AsyncExecutor {
    /// Creates an empty executor positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        AsyncExecutor {
            inner: Rc::new(RefCell::new(Inner::new())),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> ExecStats {
        self.inner.borrow().stats
    }

    /// Number of live (spawned, not yet completed) tasks.
    pub fn pending_tasks(&self) -> usize {
        let inner = self.inner.borrow();
        inner.slots.iter().filter(|s| s.is_some()).count() + usize::from(inner.current.is_some())
    }

    /// Spawns a future as a new task. The task starts runnable and is
    /// first polled on the next [`Self::run_ready`] drain; its spawn
    /// order is its deterministic tie-break forever.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let state = Rc::new(RefCell::new(JoinState {
            result: Option::<T>::None,
            taken: false,
            waiters: Vec::new(),
            exec: Rc::downgrade(&self.inner),
        }));
        let state2 = state.clone();
        let wrapped: TaskFuture = Box::pin(async move {
            let out = fut.await;
            let waiters = {
                let mut st = state2.borrow_mut();
                st.result = Some(out);
                std::mem::take(&mut st.waiters)
            };
            let exec = state2.borrow().exec.clone();
            wake_all(&exec, waiters);
        });
        let mut inner = self.inner.borrow_mut();
        let id = inner.slots.len() as u64;
        inner.slots.push(Some(wrapped));
        inner.ready.insert(id);
        inner.stats.spawned += 1;
        JoinHandle {
            id: TaskId(id),
            state,
        }
    }

    /// A future that completes at absolute virtual time `at` (or
    /// immediately if `at` is not in the future).
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep {
            exec: Rc::downgrade(&self.inner),
            at,
            token: None,
            fired: false,
        }
    }

    /// A future that completes after `delay` of virtual time.
    pub fn sleep(&self, delay: SimDuration) -> Sleep {
        let at = self.inner.borrow().now + delay;
        self.sleep_until(at)
    }

    /// Polls every runnable task until the ready set drains, in
    /// ascending spawn order. Tasks woken mid-drain at the same instant
    /// join the same drain (still in spawn order). The clock does not
    /// move.
    pub fn run_ready(&self) {
        loop {
            let (id, fut) = {
                let mut inner = self.inner.borrow_mut();
                let Some(id) = inner.ready.pop_first() else {
                    break;
                };
                let Some(fut) = inner.slots[id as usize].take() else {
                    continue; // completed while queued
                };
                inner.current = Some(id);
                inner.stats.polls += 1;
                (id, fut)
            };
            let mut fut = fut;
            let mut cx = Context::from_waker(Waker::noop());
            let poll = fut.as_mut().poll(&mut cx);
            let mut inner = self.inner.borrow_mut();
            inner.current = None;
            match poll {
                Poll::Ready(()) => {
                    inner.ready.remove(&id);
                    inner.stats.completed += 1;
                }
                Poll::Pending => {
                    inner.slots[id as usize] = Some(fut);
                }
            }
        }
    }

    /// Advances the clock to the next timer deadline and wakes every
    /// task sleeping on that instant. Returns `false` (clock untouched)
    /// when no timers are armed. Does not poll anything: callers
    /// interleave [`Self::run_ready`].
    pub fn advance(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        let Some(at) = inner.timers.peek_time() else {
            return false;
        };
        while inner.timers.peek_time() == Some(at) {
            let (_, id) = inner.timers.next().expect("peeked entry");
            inner.stats.timer_fires += 1;
            inner.wake(id);
        }
        debug_assert!(at >= inner.now, "timer wheel went backwards");
        inner.now = at;
        true
    }

    /// Host-clocked mode: fires every timer due at or before `t`
    /// (instant by instant, draining the ready set between instants)
    /// and then pins the clock to `t`. A host simulation calls this
    /// after each of its own events so `await`ed sleeps and the host
    /// clock agree.
    pub fn advance_to(&self, t: SimTime) {
        loop {
            let due = {
                let mut inner = self.inner.borrow_mut();
                inner.timers.peek_time().filter(|at| *at <= t)
            };
            if due.is_none() {
                break;
            }
            self.advance();
            self.run_ready();
        }
        let mut inner = self.inner.borrow_mut();
        if t > inner.now {
            inner.now = t;
        }
    }

    /// Self-clocked mode: runs until every task either completed or is
    /// blocked on something no timer will ever wake. Returns the number
    /// of tasks still pending (0 means the run drained fully).
    pub fn run(&self) -> usize {
        self.run_ready();
        while self.advance() {
            self.run_ready();
        }
        self.pending_tasks()
    }

    /// A one-shot gate bound to this executor.
    pub fn gate(&self) -> Gate {
        Gate {
            state: Rc::new(RefCell::new(GateState {
                open: false,
                waiters: Vec::new(),
                exec: Rc::downgrade(&self.inner),
            })),
        }
    }

    /// A cancellation token bound to this executor.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            state: Rc::new(RefCell::new(CancelState {
                cancelled: false,
                waiters: Vec::new(),
                exec: Rc::downgrade(&self.inner),
            })),
        }
    }

    /// A multi-round broadcast notifier bound to this executor.
    pub fn notifier(&self) -> Notifier {
        Notifier {
            state: Rc::new(RefCell::new(NotifyState {
                epoch: 0,
                waiters: Vec::new(),
                exec: Rc::downgrade(&self.inner),
            })),
        }
    }

    /// A FIFO async slot pool (counting semaphore) bound to this
    /// executor, with `permits` concurrent slots.
    pub fn slots(&self, permits: usize) -> Slots {
        Slots {
            state: Rc::new(RefCell::new(SlotState {
                free: permits,
                queue: VecDeque::new(),
                exec: Rc::downgrade(&self.inner),
            })),
        }
    }
}

// ---------------------------------------------------------------------
// Sleep
// ---------------------------------------------------------------------

/// A timer future created by [`AsyncExecutor::sleep`] /
/// [`AsyncExecutor::sleep_until`]. Dropping it before the deadline
/// cancels the underlying timer entry.
#[derive(Debug)]
pub struct Sleep {
    exec: Weak<RefCell<Inner>>,
    at: SimTime,
    token: Option<EventToken>,
    fired: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let inner = self.exec.upgrade().expect("executor dropped mid-sleep");
        let mut inner = inner.borrow_mut();
        if inner.now >= self.at {
            self.fired = true;
            return Poll::Ready(());
        }
        if self.token.is_none() {
            let id = inner.current_task();
            let token = inner.timers.schedule_at(self.at, id);
            self.token = Some(token);
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if self.fired {
            return;
        }
        if let (Some(token), Some(inner)) = (self.token, self.exec.upgrade()) {
            inner.borrow_mut().timers.cancel(token);
        }
    }
}

// ---------------------------------------------------------------------
// JoinHandle
// ---------------------------------------------------------------------

struct JoinState<T> {
    result: Option<T>,
    taken: bool,
    waiters: Vec<u64>,
    exec: Weak<RefCell<Inner>>,
}

/// Owns the result of a spawned task. Await it (from another task) to
/// join; or poll [`Self::try_take`] from outside the executor to
/// collect a task's output.
pub struct JoinHandle<T> {
    id: TaskId,
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// The spawned task's id (its deterministic spawn sequence).
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// True once the task ran to completion (whether or not the result
    /// was taken).
    pub fn is_done(&self) -> bool {
        let st = self.state.borrow();
        st.taken || st.result.is_some()
    }

    /// Takes the task's result if it completed and the result was not
    /// already taken.
    pub fn try_take(&self) -> Option<T> {
        let mut st = self.state.borrow_mut();
        let out = st.result.take();
        if out.is_some() {
            st.taken = true;
        }
        out
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("id", &self.id)
            .field("done", &self.is_done())
            .finish()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if let Some(out) = st.result.take() {
            st.taken = true;
            return Poll::Ready(out);
        }
        assert!(!st.taken, "task result already taken");
        let exec = st.exec.upgrade().expect("executor dropped mid-join");
        let id = exec.borrow().current_task();
        if !st.waiters.contains(&id) {
            st.waiters.push(id);
        }
        Poll::Pending
    }
}

/// Awaits every handle in order and collects the results. The handles
/// run concurrently as spawned tasks; this only sequences collection.
pub async fn join_all<T: 'static>(handles: Vec<JoinHandle<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

// ---------------------------------------------------------------------
// Gate (one-shot event)
// ---------------------------------------------------------------------

struct GateState {
    open: bool,
    waiters: Vec<u64>,
    exec: Weak<RefCell<Inner>>,
}

/// A one-shot event: any number of tasks [`Gate::wait`] until some
/// other code (a task or the host reactor) calls [`Gate::open`]. Once
/// open it stays open. Clones share the same state.
#[derive(Clone)]
pub struct Gate {
    state: Rc<RefCell<GateState>>,
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gate")
            .field("open", &self.is_open())
            .finish()
    }
}

impl Gate {
    /// True once [`Self::open`] was called.
    pub fn is_open(&self) -> bool {
        self.state.borrow().open
    }

    /// Opens the gate, waking every waiter (idempotent).
    pub fn open(&self) {
        let (exec, waiters) = {
            let mut st = self.state.borrow_mut();
            if st.open {
                return;
            }
            st.open = true;
            (st.exec.clone(), std::mem::take(&mut st.waiters))
        };
        wake_all(&exec, waiters);
    }

    /// A future that resolves once the gate is open.
    pub fn wait(&self) -> GateWait {
        GateWait {
            state: self.state.clone(),
            registered: false,
        }
    }
}

/// Future returned by [`Gate::wait`].
#[derive(Debug)]
pub struct GateWait {
    state: Rc<RefCell<GateState>>,
    registered: bool,
}

impl std::fmt::Debug for GateState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateState").field("open", &self.open).finish()
    }
}

impl Future for GateWait {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut st = this.state.borrow_mut();
        if st.open {
            return Poll::Ready(());
        }
        if !this.registered {
            let exec = st.exec.upgrade().expect("executor dropped mid-wait");
            let id = exec.borrow().current_task();
            st.waiters.push(id);
            this.registered = true;
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------------

struct CancelState {
    cancelled: bool,
    waiters: Vec<u64>,
    exec: Weak<RefCell<Inner>>,
}

/// A cooperative cancellation signal: any number of tasks await
/// [`CancelToken::cancelled`] (typically inside a [`race`] against
/// their real work) until some other code calls
/// [`CancelToken::cancel`]. Once cancelled it stays cancelled. Clones
/// share the same state, so the orchestrator keeps one clone and the
/// spawned loop keeps another.
///
/// ```
/// use simkernel::{race, AsyncExecutor, Either, SimDuration};
///
/// let exec = AsyncExecutor::new();
/// let token = exec.cancel_token();
/// let exec2 = exec.clone();
/// let t2 = token.clone();
/// let loser = exec.spawn(async move {
///     match race(exec2.sleep(SimDuration::from_secs(60)), t2.cancelled()).await {
///         Either::Left(()) => "timer won",
///         Either::Right(()) => "cancelled",
///     }
/// });
/// exec.run_ready();
/// token.cancel();
/// exec.run_ready();
/// assert_eq!(loser.try_take(), Some("cancelled"));
/// // The pending 60 s sleep was dropped with the race: the clock
/// // never has to advance to it.
/// assert_eq!(exec.now().as_secs_f64(), 0.0);
/// ```
#[derive(Clone)]
pub struct CancelToken {
    state: Rc<RefCell<CancelState>>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

impl CancelToken {
    /// True once [`Self::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.state.borrow().cancelled
    }

    /// Cancels the token, waking every waiter (idempotent).
    pub fn cancel(&self) {
        let (exec, waiters) = {
            let mut st = self.state.borrow_mut();
            if st.cancelled {
                return;
            }
            st.cancelled = true;
            (st.exec.clone(), std::mem::take(&mut st.waiters))
        };
        wake_all(&exec, waiters);
    }

    /// A future that resolves once the token is cancelled. A loop that
    /// should die silently can park on this forever.
    pub fn cancelled(&self) -> Cancelled {
        Cancelled {
            state: self.state.clone(),
            registered: false,
        }
    }
}

/// Future returned by [`CancelToken::cancelled`].
#[derive(Debug)]
pub struct Cancelled {
    state: Rc<RefCell<CancelState>>,
    registered: bool,
}

impl std::fmt::Debug for CancelState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelState")
            .field("cancelled", &self.cancelled)
            .finish()
    }
}

impl Future for Cancelled {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut st = this.state.borrow_mut();
        if st.cancelled {
            return Poll::Ready(());
        }
        if !this.registered {
            let exec = st.exec.upgrade().expect("executor dropped mid-wait");
            let id = exec.borrow().current_task();
            st.waiters.push(id);
            this.registered = true;
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------
// race / timeout
// ---------------------------------------------------------------------

/// The winner of a [`race`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future finished first (or the two tied — the race is
    /// left-biased).
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Races two futures; the loser is dropped, which cancels any timer or
/// queue position it held. Deterministically **left-biased**: when both
/// are ready at the same poll, `a` wins.
///
/// ```
/// use simkernel::{race, AsyncExecutor, Either, SimDuration};
///
/// let exec = AsyncExecutor::new();
/// let exec2 = exec.clone();
/// let h = exec.spawn(async move {
///     let quick = exec2.sleep(SimDuration::from_secs(1));
///     let slow = exec2.sleep(SimDuration::from_secs(10));
///     race(quick, slow).await
/// });
/// exec.run();
/// assert!(matches!(h.try_take(), Some(Either::Left(()))));
/// assert_eq!(exec.now().as_secs_f64(), 1.0);
/// ```
pub fn race<A: Future, B: Future>(a: A, b: B) -> Race<A, B> {
    Race {
        a: Box::pin(a),
        b: Box::pin(b),
    }
}

/// Future returned by [`race`].
pub struct Race<A: Future, B: Future> {
    a: Pin<Box<A>>,
    b: Pin<Box<B>>,
}

impl<A: Future, B: Future> std::fmt::Debug for Race<A, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Race").finish()
    }
}

impl<A: Future, B: Future> Future for Race<A, B> {
    type Output = Either<A::Output, B::Output>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Poll::Ready(out) = self.a.as_mut().poll(cx) {
            return Poll::Ready(Either::Left(out));
        }
        if let Poll::Ready(out) = self.b.as_mut().poll(cx) {
            return Poll::Ready(Either::Right(out));
        }
        Poll::Pending
    }
}

/// Runs `fut` with a deadline `dur` from now: `Some(output)` if it
/// finishes in time, `None` if the timer fires first. Built on [`race`]
/// with the payload future on the left, so a future that completes
/// exactly at the deadline still wins.
///
/// ```
/// use simkernel::{timeout, AsyncExecutor, SimDuration};
///
/// let exec = AsyncExecutor::new();
/// let exec2 = exec.clone();
/// let h = exec.spawn(async move {
///     let fast = timeout(&exec2, SimDuration::from_secs(5), exec2.sleep(SimDuration::from_secs(1))).await;
///     let slow = timeout(&exec2, SimDuration::from_secs(5), exec2.sleep(SimDuration::from_secs(100))).await;
///     (fast, slow)
/// });
/// exec.run();
/// assert_eq!(h.try_take(), Some((Some(()), None)));
/// // 1 s for the fast await plus the 5 s deadline of the slow one.
/// assert_eq!(exec.now().as_secs_f64(), 6.0);
/// ```
pub fn timeout<F: Future>(
    exec: &AsyncExecutor,
    dur: SimDuration,
    fut: F,
) -> impl Future<Output = Option<F::Output>> {
    let deadline = exec.sleep(dur);
    async move {
        match race(fut, deadline).await {
            Either::Left(out) => Some(out),
            Either::Right(()) => None,
        }
    }
}

// ---------------------------------------------------------------------
// Notifier (multi-round broadcast)
// ---------------------------------------------------------------------

struct NotifyState {
    epoch: u64,
    waiters: Vec<u64>,
    exec: Weak<RefCell<Inner>>,
}

/// A multi-round broadcast: [`Notifier::notified`] resolves at the
/// next [`Notifier::notify_all`] after the future was created: a
/// per-round "epoch" signal that re-runs every waiting task in spawn
/// order. Clones share the same state.
#[derive(Clone)]
pub struct Notifier {
    state: Rc<RefCell<NotifyState>>,
}

impl std::fmt::Debug for Notifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Notifier")
            .field("epoch", &self.state.borrow().epoch)
            .finish()
    }
}

impl Notifier {
    /// Wakes every currently waiting task and advances the epoch.
    pub fn notify_all(&self) {
        let (exec, waiters) = {
            let mut st = self.state.borrow_mut();
            st.epoch += 1;
            (st.exec.clone(), std::mem::take(&mut st.waiters))
        };
        wake_all(&exec, waiters);
    }

    /// A future resolving at the next [`Self::notify_all`].
    pub fn notified(&self) -> Notified {
        Notified {
            state: self.state.clone(),
            start_epoch: self.state.borrow().epoch,
            registered: false,
        }
    }
}

/// Future returned by [`Notifier::notified`].
pub struct Notified {
    state: Rc<RefCell<NotifyState>>,
    start_epoch: u64,
    registered: bool,
}

impl std::fmt::Debug for Notified {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Notified")
            .field("start_epoch", &self.start_epoch)
            .finish()
    }
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut st = this.state.borrow_mut();
        if st.epoch > this.start_epoch {
            return Poll::Ready(());
        }
        if !this.registered {
            let exec = st.exec.upgrade().expect("executor dropped mid-wait");
            let id = exec.borrow().current_task();
            st.waiters.push(id);
            this.registered = true;
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------
// Slots (FIFO counting semaphore)
// ---------------------------------------------------------------------

struct SlotState {
    free: usize,
    /// Waiting tasks, strictly FIFO — no barging: a new acquirer queues
    /// behind existing waiters even when a permit is free.
    queue: VecDeque<u64>,
    exec: Weak<RefCell<Inner>>,
}

/// A FIFO async slot pool: the `await`-side twin of
/// [`crate::SlotPool`]. `acquire_slot().await` suspends until a permit
/// is free *and* every earlier waiter was served. Clones share the
/// same permits.
#[derive(Clone)]
pub struct Slots {
    state: Rc<RefCell<SlotState>>,
}

impl std::fmt::Debug for Slots {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("Slots")
            .field("free", &st.free)
            .field("waiting", &st.queue.len())
            .finish()
    }
}

impl Slots {
    /// Currently free permits.
    pub fn free(&self) -> usize {
        self.state.borrow().free
    }

    /// A future resolving to a held slot ([`SlotGuard`]), FIFO-fair.
    pub fn acquire_slot(&self) -> AcquireSlot {
        AcquireSlot {
            state: self.state.clone(),
            queued: None,
        }
    }
}

/// Future returned by [`Slots::acquire_slot`]. Dropping it while
/// queued relinquishes the queue position.
pub struct AcquireSlot {
    state: Rc<RefCell<SlotState>>,
    queued: Option<u64>,
}

impl std::fmt::Debug for AcquireSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcquireSlot")
            .field("queued", &self.queued)
            .finish()
    }
}

impl Future for AcquireSlot {
    type Output = SlotGuard;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<SlotGuard> {
        let mut st = self.state.borrow_mut();
        match self.queued {
            None => {
                if st.free > 0 && st.queue.is_empty() {
                    st.free -= 1;
                    return Poll::Ready(SlotGuard {
                        state: self.state.clone(),
                    });
                }
                let exec = st.exec.upgrade().expect("executor dropped mid-acquire");
                let id = exec.borrow().current_task();
                st.queue.push_back(id);
                drop(st);
                self.queued = Some(id);
                Poll::Pending
            }
            Some(id) => {
                if st.free > 0 && st.queue.front() == Some(&id) {
                    st.queue.pop_front();
                    st.free -= 1;
                    drop(st);
                    self.queued = None;
                    return Poll::Ready(SlotGuard {
                        state: self.state.clone(),
                    });
                }
                Poll::Pending
            }
        }
    }
}

impl Drop for AcquireSlot {
    fn drop(&mut self) {
        let Some(id) = self.queued else { return };
        let mut st = self.state.borrow_mut();
        if let Some(pos) = st.queue.iter().position(|q| *q == id) {
            st.queue.remove(pos);
        }
        // If permits are free and someone else now heads the queue,
        // hand the wake over so the pool cannot stall.
        if st.free > 0 {
            if let Some(&next) = st.queue.front() {
                let exec = st.exec.clone();
                drop(st);
                wake_all(&exec, [next]);
            }
        }
    }
}

/// A held slot; dropping it releases the permit and wakes the next
/// FIFO waiter.
pub struct SlotGuard {
    state: Rc<RefCell<SlotState>>,
}

impl std::fmt::Debug for SlotGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotGuard").finish()
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        let (exec, next) = {
            let mut st = self.state.borrow_mut();
            st.free += 1;
            (st.exec.clone(), st.queue.front().copied())
        };
        if let Some(next) = next {
            wake_all(&exec, [next]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared event log for ordering assertions.
    fn log<T>() -> Rc<RefCell<Vec<T>>> {
        Rc::new(RefCell::new(Vec::new()))
    }

    #[test]
    fn same_instant_wakes_run_in_spawn_order() {
        let exec = AsyncExecutor::new();
        let events = log();
        // Spawn in reverse-delay order; all three sleep to the SAME
        // deadline. Wakeup order must be spawn order, not timer
        // insertion order.
        for i in 0..3 {
            let exec2 = exec.clone();
            let ev = events.clone();
            exec.spawn(async move {
                exec2.sleep_until(SimTime::from_secs_f64(1.0)).await;
                ev.borrow_mut().push(format!("t{i}"));
            });
        }
        assert_eq!(exec.run(), 0);
        assert_eq!(*events.borrow(), vec!["t0", "t1", "t2"]);
    }

    #[test]
    fn timers_order_by_deadline_then_spawn_seq() {
        let exec = AsyncExecutor::new();
        let events = log();
        let delays = [2.0, 1.0, 2.0, 1.0];
        for (i, d) in delays.into_iter().enumerate() {
            let exec2 = exec.clone();
            let ev = events.clone();
            exec.spawn(async move {
                exec2.sleep(SimDuration::from_secs_f64(d)).await;
                ev.borrow_mut().push(i);
            });
        }
        exec.run();
        assert_eq!(*events.borrow(), vec![1, 3, 0, 2]);
        assert_eq!(exec.now().as_secs_f64(), 2.0);
    }

    #[test]
    fn join_handle_passes_results_and_wakes_joiners() {
        let exec = AsyncExecutor::new();
        let exec2 = exec.clone();
        let worker = exec.spawn(async move {
            exec2.sleep(SimDuration::from_secs(5)).await;
            42u64
        });
        let joined = exec.spawn(async move { worker.await * 2 });
        exec.run();
        assert_eq!(joined.try_take(), Some(84));
    }

    #[test]
    fn join_all_collects_in_handle_order() {
        let exec = AsyncExecutor::new();
        let handles: Vec<_> = (0..5u64)
            .map(|i| {
                let exec2 = exec.clone();
                exec.spawn(async move {
                    // Later tasks finish earlier; collection order must
                    // still be handle order.
                    exec2.sleep(SimDuration::from_secs(10 - i)).await;
                    i
                })
            })
            .collect();
        let all = exec.spawn(join_all(handles));
        exec.run();
        assert_eq!(all.try_take(), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn join_of_already_completed_task_is_immediate() {
        let exec = AsyncExecutor::new();
        let h = exec.spawn(async { 7u32 });
        exec.run_ready();
        assert!(h.is_done());
        let j = exec.spawn(async move { h.await + 1 });
        exec.run_ready();
        assert_eq!(j.try_take(), Some(8));
    }

    #[test]
    fn gate_wakes_all_waiters_in_spawn_order() {
        let exec = AsyncExecutor::new();
        let gate = exec.gate();
        let events = log();
        for i in 0..3 {
            let g = gate.clone();
            let ev = events.clone();
            exec.spawn(async move {
                g.wait().await;
                ev.borrow_mut().push(i);
            });
        }
        exec.run_ready();
        assert!(events.borrow().is_empty());
        gate.open();
        exec.run_ready();
        assert_eq!(*events.borrow(), vec![0, 1, 2]);
        // Late waiters pass straight through an open gate.
        let late = exec.spawn({
            let g = gate.clone();
            async move {
                g.wait().await;
                99
            }
        });
        exec.run_ready();
        assert_eq!(late.try_take(), Some(99));
    }

    #[test]
    fn notifier_is_per_epoch() {
        let exec = AsyncExecutor::new();
        let n = exec.notifier();
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        let n2 = n.clone();
        exec.spawn(async move {
            for _ in 0..3 {
                n2.notified().await;
                *c.borrow_mut() += 1;
            }
        });
        exec.run_ready();
        assert_eq!(*count.borrow(), 0);
        for round in 1..=3 {
            n.notify_all();
            exec.run_ready();
            assert_eq!(*count.borrow(), round);
        }
        // Extra notifies with nobody waiting are harmless.
        n.notify_all();
        exec.run_ready();
        assert_eq!(*count.borrow(), 3);
    }

    #[test]
    fn slots_are_fifo_fair() {
        let exec = AsyncExecutor::new();
        let slots = exec.slots(1);
        let events = log();
        for i in 0..3 {
            let exec2 = exec.clone();
            let s = slots.clone();
            let ev = events.clone();
            exec.spawn(async move {
                let guard = s.acquire_slot().await;
                ev.borrow_mut().push(format!("acq{i}"));
                exec2.sleep(SimDuration::from_secs(1)).await;
                drop(guard);
            });
        }
        exec.run();
        assert_eq!(*events.borrow(), vec!["acq0", "acq1", "acq2"]);
        assert_eq!(exec.now().as_secs_f64(), 3.0);
        assert_eq!(slots.free(), 1);
    }

    #[test]
    fn slots_no_barging_past_the_queue() {
        let exec = AsyncExecutor::new();
        let slots = exec.slots(1);
        let events = log();
        // Task 0 holds the slot until t=2. Task 1 queues at t=0. Task 2
        // tries at t=1 (while a permit is NOT free) and must queue
        // behind task 1 even though it polls again right at handoff.
        for (i, (start, hold)) in [(0.0, 2.0), (0.0, 1.0), (1.0, 1.0)].into_iter().enumerate() {
            let exec2 = exec.clone();
            let s = slots.clone();
            let ev = events.clone();
            exec.spawn(async move {
                exec2.sleep(SimDuration::from_secs_f64(start)).await;
                let guard = s.acquire_slot().await;
                ev.borrow_mut().push(format!("acq{i}"));
                exec2.sleep(SimDuration::from_secs_f64(hold)).await;
                drop(guard);
            });
        }
        exec.run();
        assert_eq!(*events.borrow(), vec!["acq0", "acq1", "acq2"]);
    }

    #[test]
    fn dropped_acquire_leaves_the_queue() {
        let exec = AsyncExecutor::new();
        let slots = exec.slots(1);
        let held = exec.spawn({
            let s = slots.clone();
            let exec2 = exec.clone();
            async move {
                let g = s.acquire_slot().await;
                exec2.sleep(SimDuration::from_secs(2)).await;
                drop(g);
            }
        });
        // This waiter gives up (drops its acquire) at t=1.
        let quitter = exec.spawn({
            let s = slots.clone();
            let exec2 = exec.clone();
            async move {
                let acq = s.acquire_slot();
                let sleep = exec2.sleep(SimDuration::from_secs(1));
                // Poll the acquire once to enqueue, then abandon it.
                let mut acq = Box::pin(acq);
                let _ = futures_poll_once(&mut acq);
                sleep.await;
                drop(acq);
            }
        });
        let last = exec.spawn({
            let s = slots.clone();
            async move {
                let _g = s.acquire_slot().await;
                "got it"
            }
        });
        exec.run();
        assert!(held.is_done() && quitter.is_done());
        assert_eq!(last.try_take(), Some("got it"));
    }

    /// Polls a future once with a no-op waker (test helper).
    fn futures_poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
        let mut cx = Context::from_waker(Waker::noop());
        Pin::new(fut).poll(&mut cx)
    }

    #[test]
    fn sleep_drop_cancels_timer() {
        let exec = AsyncExecutor::new();
        let exec2 = exec.clone();
        exec.spawn(async move {
            let long = exec2.sleep(SimDuration::from_secs(100));
            let short = exec2.sleep(SimDuration::from_secs(1));
            short.await;
            drop(long);
        });
        exec.run();
        // The cancelled 100 s timer must not drag the clock forward.
        assert_eq!(exec.now().as_secs_f64(), 1.0);
    }

    #[test]
    fn host_clocked_advance_to_fires_due_timers() {
        let exec = AsyncExecutor::new();
        let events = log();
        for d in [1.0, 2.0, 5.0] {
            let exec2 = exec.clone();
            let ev = events.clone();
            exec.spawn(async move {
                exec2.sleep(SimDuration::from_secs_f64(d)).await;
                ev.borrow_mut().push(format!("{d}"));
            });
        }
        exec.run_ready();
        exec.advance_to(SimTime::from_secs_f64(3.0));
        assert_eq!(*events.borrow(), vec!["1", "2"]);
        assert_eq!(exec.now().as_secs_f64(), 3.0);
        exec.advance_to(SimTime::from_secs_f64(10.0));
        assert_eq!(*events.borrow(), vec!["1", "2", "5"]);
        assert_eq!(exec.now().as_secs_f64(), 10.0);
    }

    #[test]
    fn spawn_inside_a_task_joins_the_same_drain() {
        let exec = AsyncExecutor::new();
        let events = log();
        let exec2 = exec.clone();
        let ev = events.clone();
        exec.spawn(async move {
            ev.borrow_mut().push("parent");
            let ev2 = ev.clone();
            let child = exec2.spawn(async move {
                ev2.borrow_mut().push("child");
                5u8
            });
            assert_eq!(child.await, 5);
            ev.borrow_mut().push("joined");
        });
        assert_eq!(exec.run(), 0);
        assert_eq!(*events.borrow(), vec!["parent", "child", "joined"]);
    }

    #[test]
    fn stats_count_activity() {
        let exec = AsyncExecutor::new();
        let exec2 = exec.clone();
        exec.spawn(async move {
            exec2.sleep(SimDuration::from_secs(1)).await;
        });
        exec.spawn(async {});
        exec.run();
        let stats = exec.stats();
        assert_eq!(stats.spawned, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.timer_fires, 1);
        assert!(stats.polls >= 3);
        assert_eq!(exec.pending_tasks(), 0);
    }

    #[test]
    fn run_reports_stuck_tasks() {
        let exec = AsyncExecutor::new();
        let gate = exec.gate();
        exec.spawn({
            let g = gate.clone();
            async move { g.wait().await }
        });
        // Nothing will ever open the gate: run() returns 1 pending.
        assert_eq!(exec.run(), 1);
    }

    #[test]
    fn cancel_token_wakes_every_waiter_once() {
        let exec = AsyncExecutor::new();
        let token = exec.cancel_token();
        let events = log();
        for i in 0..3 {
            let t = token.clone();
            let ev = events.clone();
            exec.spawn(async move {
                t.cancelled().await;
                ev.borrow_mut().push(i);
            });
        }
        exec.run_ready();
        assert!(events.borrow().is_empty());
        assert!(!token.is_cancelled());
        token.cancel();
        token.cancel(); // idempotent
        exec.run_ready();
        assert_eq!(*events.borrow(), vec![0, 1, 2]);
        // A late waiter passes straight through.
        let late = exec.spawn({
            let t = token.clone();
            async move { t.cancelled().await }
        });
        exec.run_ready();
        assert!(late.is_done());
    }

    #[test]
    fn cancelling_a_raced_sleep_drops_its_timer() {
        // Satellite coverage: a loop parked on race(sleep, cancelled)
        // that is cancelled mid-sleep must drop the pending timer so
        // the clock never advances to the abandoned deadline.
        let exec = AsyncExecutor::new();
        let token = exec.cancel_token();
        let exec2 = exec.clone();
        let t2 = token.clone();
        let h = exec.spawn(async move {
            match race(exec2.sleep(SimDuration::from_secs(1_000)), t2.cancelled()).await {
                Either::Left(()) => "slept",
                Either::Right(()) => "cancelled",
            }
        });
        exec.run_ready();
        token.cancel();
        exec.run_ready();
        assert_eq!(h.try_take(), Some("cancelled"));
        assert_eq!(exec.now(), SimTime::ZERO);
        // Self-clocked run has nothing left: the 1000 s timer is gone.
        assert_eq!(exec.run(), 0);
        assert_eq!(exec.now(), SimTime::ZERO);
    }

    #[test]
    fn race_is_left_biased_on_ties() {
        let exec = AsyncExecutor::new();
        let exec2 = exec.clone();
        let h = exec.spawn(async move {
            race(
                exec2.sleep(SimDuration::from_secs(3)),
                exec2.sleep(SimDuration::from_secs(3)),
            )
            .await
        });
        exec.run();
        assert!(matches!(h.try_take(), Some(Either::Left(()))));
    }

    #[test]
    fn timeout_racing_a_gate() {
        // Satellite coverage: a timeout around Gate::wait resolves to
        // Some(()) when the gate opens in time and None when it does
        // not — and the expired wait deregisters cleanly.
        let exec = AsyncExecutor::new();
        let opened = exec.gate();
        let never = exec.gate();
        let exec2 = exec.clone();
        let g1 = opened.clone();
        let g2 = never.clone();
        let h = exec.spawn(async move {
            let won = timeout(&exec2, SimDuration::from_secs(10), g1.wait()).await;
            let lost = timeout(&exec2, SimDuration::from_secs(10), g2.wait()).await;
            (won, lost)
        });
        exec.run_ready();
        exec.advance_to(SimTime::from_secs_f64(4.0));
        opened.open();
        exec.run_ready();
        exec.advance_to(SimTime::from_secs_f64(20.0));
        assert_eq!(h.try_take(), Some((Some(()), None)));
        // Opening the dead gate later must not wake anything.
        never.open();
        exec.run_ready();
        assert_eq!(exec.pending_tasks(), 0);
    }

    #[test]
    fn timeout_returns_payload_on_deadline_tie() {
        let exec = AsyncExecutor::new();
        let exec2 = exec.clone();
        let h = exec.spawn(async move {
            timeout(
                &exec2,
                SimDuration::from_secs(5),
                exec2.sleep(SimDuration::from_secs(5)),
            )
            .await
        });
        exec.run();
        assert_eq!(h.try_take(), Some(Some(())));
    }

    #[test]
    fn identical_runs_produce_identical_event_orders() {
        let run_once = || {
            let exec = AsyncExecutor::new();
            let events = log();
            let mut rng = crate::SimRng::seed_from(0xFEED);
            for i in 0..50u64 {
                let d = rng.uniform_u64(1, 10);
                let exec2 = exec.clone();
                let ev = events.clone();
                exec.spawn(async move {
                    exec2.sleep(SimDuration::from_secs(d)).await;
                    ev.borrow_mut().push((i, exec2.now().as_micros()));
                });
            }
            exec.run();
            let out = events.borrow().clone();
            out
        };
        assert_eq!(run_once(), run_once());
    }
}
