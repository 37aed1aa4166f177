//! The deterministic interleaving explorer (loom-lite).
//!
//! [`Explorer::check`] runs a closure — which spawns checked threads
//! via [`spawn`] and synchronizes through the instrumented
//! [`crate::sync`] shims — once per *schedule*, where a schedule is the
//! sequence of thread choices made at every scheduling point (lock
//! acquire, condvar wait/notify, spawn, join, thread exit). Schedules
//! are enumerated by depth-first search with a **bounded-preemption
//! frontier**: the default policy never preempts (the running thread
//! continues while it can make progress), and the DFS additionally
//! explores every alternative choice whose total preemption count stays
//! within the bound. Most concurrency bugs are exposed by very few
//! preemptions (CHESS's empirical result), so bound 2–3 is exhaustive
//! in practice for protocol-sized state spaces while keeping the run
//! count polynomial.
//!
//! ## Execution mechanics
//!
//! Real OS threads run the checked code, but a baton (the `active`
//! thread id in [`ExecState`]) serializes them: a thread only executes
//! between two of its own scheduling points, everything else is parked
//! on the explorer's own condvar. Blocking is *modeled* — a thread
//! never issues a std lock operation until the model has granted it the
//! lock, so the std primitives underneath are always uncontended and
//! exist only to provide safe storage and poisoning semantics.
//!
//! ## What counts as a failure
//!
//! * **Deadlock** — no thread is runnable, at least one is blocked
//!   (this includes every lost-wakeup on an unbounded wait).
//! * **Panic of the root thread** — assertion failures in the checked
//!   closure. Panics on *spawned* threads are not failures by
//!   themselves (the leader-panic scenarios rely on this); they are
//!   reported through [`JoinHandle::join`].
//! * **Hang** — the execution exceeded the wall-clock safety net.
//!
//! Timed waits ([`crate::sync::Condvar::wait_timeout`]) never fire on
//! real time under the model: the timeout transition is enabled only
//! when the system would otherwise deadlock, and every firing is
//! counted in [`Report::timeout_executions`] — so asserting that it
//! stays zero is exactly the "no lost notifications" check: every
//! wakeup arrived without the bounded-timeout safety net.
//!
//! On failure the explorer **shrinks** the schedule greedily (zeroing
//! and truncating forced choices while the failure still reproduces,
//! like `minimize_with` in the conformance fuzzer) and reports the
//! minimal schedule plus a human-readable trace of every scheduling
//! decision on the failing path — a ready-to-commit regression input
//! for [`Explorer::replay`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::Duration;

/// How a thread holds (or wants) a lock: a mutex lock and an rwlock
/// write are both `Exclusive`; an rwlock read is `Shared`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Mutex lock / rwlock write.
    Exclusive,
    /// Rwlock read.
    Shared,
}

/// A checked thread's link back to its execution: the shared execution
/// state plus this thread's id.
pub(crate) type Ctx = (Arc<Exec>, usize);

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The execution the current OS thread is registered with, if any.
pub(crate) fn current_ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Sentinel panic payload used to unwind parked threads when an
/// execution is aborted (deadlock found, hang, shrink replay done).
struct AbortToken;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    /// Can run, holds no pending operation.
    Ready,
    /// Is the active thread (holds the baton).
    Running,
    /// Wants `obj` with `access`; runnable once the model can grant it.
    BlockedLock { obj: u64, access: Access },
    /// Parked on condvar `cv`; will reacquire `lock` when woken.
    /// `bounded` marks a `wait_timeout`, which the scheduler may time
    /// out when nothing else can run.
    BlockedCv { cv: u64, lock: u64, bounded: bool },
    /// Waiting for thread `target` to finish.
    BlockedJoin { target: usize },
    /// Done (normally or by panic).
    Finished,
}

struct ThreadState {
    status: Status,
    /// The pending operation, for trace rendering.
    op: String,
    /// Panic message if the thread panicked (not abort-unwound).
    panicked: Option<String>,
    /// Whether the last condvar wake was a modeled timeout.
    timed_out_wake: bool,
}

impl ThreadState {
    fn new(status: Status) -> ThreadState {
        ThreadState {
            status,
            op: "start".to_string(),
            panicked: None,
            timed_out_wake: false,
        }
    }
}

#[derive(Default)]
struct LockModel {
    readers: Vec<usize>,
    writer: Option<usize>,
}

/// One scheduling decision, with everything the DFS needs to enumerate
/// its unexplored siblings.
struct Decision {
    /// Number of runnable threads at this point (choice arity).
    arity: usize,
    /// Index chosen, in exploration order (0 = the non-preemptive
    /// default).
    rank: usize,
    /// Whether the previously active thread was still runnable here —
    /// if so, every rank > 0 costs one preemption.
    prev_runnable: bool,
    /// Whether the taken choice was a preemption.
    preemptive: bool,
    /// `tid: op` of the chosen thread, for trace rendering.
    desc: String,
}

struct ExecState {
    threads: Vec<ThreadState>,
    active: Option<usize>,
    locks: HashMap<u64, LockModel>,
    decisions: Vec<Decision>,
    /// Forced choice ranks; decisions beyond this replay the default.
    schedule: Vec<usize>,
    seed: u64,
    timeouts_fired: u64,
    abort: bool,
    complete: bool,
    deadlock: Option<Vec<String>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Shared state of one execution.
pub(crate) struct Exec {
    m: StdMutex<ExecState>,
    cv: StdCondvar,
}

fn lock_state(exec: &Exec) -> StdMutexGuard<'_, ExecState> {
    exec.m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Cheap deterministic mixer for seeded exploration-order shuffles.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn is_runnable(st: &ExecState, tid: usize) -> bool {
    match st.threads[tid].status {
        Status::Ready => true,
        Status::BlockedLock { obj, access } => {
            let model = st.locks.get(&obj);
            match access {
                Access::Exclusive => {
                    model.is_none_or(|l| l.writer.is_none() && l.readers.is_empty())
                }
                Access::Shared => model.is_none_or(|l| l.writer.is_none()),
            }
        }
        Status::BlockedJoin { target } => st.threads[target].status == Status::Finished,
        Status::Running | Status::BlockedCv { .. } | Status::Finished => false,
    }
}

fn runnable_set(st: &ExecState) -> Vec<usize> {
    (0..st.threads.len()).filter(|&t| is_runnable(st, t)).collect()
}

fn blocked_trace(st: &ExecState) -> Vec<String> {
    st.threads
        .iter()
        .enumerate()
        .filter(|(_, th)| th.status != Status::Finished)
        .map(|(t, th)| format!("t{t} blocked at {} ({:?})", th.op, th.status))
        .collect()
}

/// Grants whatever the thread was blocked on and hands it the baton.
fn activate(st: &mut ExecState, tid: usize) {
    if let Status::BlockedLock { obj, access } = st.threads[tid].status {
        let model = st.locks.entry(obj).or_default();
        match access {
            Access::Exclusive => model.writer = Some(tid),
            Access::Shared => model.readers.push(tid),
        }
    }
    st.threads[tid].status = Status::Running;
    st.active = Some(tid);
}

/// Picks the next thread to run: the heart of the explorer. Assumes the
/// caller already parked or finished the previously active thread.
fn schedule_next(st: &mut ExecState) {
    if st.abort || st.complete {
        return;
    }
    loop {
        let runnable = runnable_set(st);
        if runnable.is_empty() {
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                st.complete = true;
                return;
            }
            // Timeout escape: a bounded wait may fire, but only when
            // nothing else can move — and it is counted, so tests can
            // assert it never had to.
            let bounded = (0..st.threads.len()).find(|&t| {
                matches!(st.threads[t].status, Status::BlockedCv { bounded: true, .. })
            });
            if let Some(t) = bounded {
                if let Status::BlockedCv { lock, .. } = st.threads[t].status {
                    st.timeouts_fired += 1;
                    st.threads[t].timed_out_wake = true;
                    st.threads[t].status = Status::BlockedLock {
                        obj: lock,
                        access: Access::Exclusive,
                    };
                    continue;
                }
            }
            st.deadlock = Some(blocked_trace(st));
            st.abort = true;
            return;
        }

        // Exploration order: the previously active thread first (the
        // non-preemptive default), then the rest ascending, optionally
        // shuffled by the seed.
        let prev = st.active;
        let mut order = runnable.clone();
        let prev_runnable = prev.is_some_and(|p| order.contains(&p));
        if let Some(p) = prev {
            if let Some(pos) = order.iter().position(|&t| t == p) {
                order.remove(pos);
                if st.seed != 0 && order.len() > 1 {
                    let mut s = splitmix(st.seed ^ st.decisions.len() as u64);
                    for i in (1..order.len()).rev() {
                        s = splitmix(s);
                        order.swap(i, (s as usize) % (i + 1));
                    }
                }
                order.insert(0, p);
            }
        }

        let di = st.decisions.len();
        let rank = st
            .schedule
            .get(di)
            .copied()
            .unwrap_or(0)
            .min(order.len() - 1);
        let chosen = order[rank];
        let preemptive = prev_runnable && Some(chosen) != prev;
        st.decisions.push(Decision {
            arity: order.len(),
            rank,
            prev_runnable,
            preemptive,
            desc: format!("t{chosen}: {}", st.threads[chosen].op),
        });
        activate(st, chosen);
        return;
    }
}

/// Parks the calling thread after a scheduling decision until the baton
/// comes back; returns the state guard so callers can read wake flags.
fn pause<'a>(exec: &'a Exec, mut st: StdMutexGuard<'a, ExecState>, me: usize) -> StdMutexGuard<'a, ExecState> {
    schedule_next(&mut st);
    exec.cv.notify_all();
    while !st.abort && st.active != Some(me) {
        st = exec
            .cv
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    if st.abort {
        drop(st);
        panic::panic_any(AbortToken);
    }
    st
}

/// Scheduling point: acquire `obj` with `access`.
pub(crate) fn acquire(cx: &Ctx, obj: u64, access: Access, what: &str) {
    let (exec, me) = cx;
    let mut st = lock_state(exec);
    if st.abort {
        drop(st);
        panic::panic_any(AbortToken);
    }
    st.threads[*me].status = Status::BlockedLock { obj, access };
    st.threads[*me].op = format!("{what} #{obj}");
    let _st = pause(exec, st, *me);
}

/// Model release of `obj`. Not a scheduling point: control stays with
/// the releasing thread until its next blocking operation, which keeps
/// the decision tree small without hiding any lock-protocol bug (every
/// acquire after the release is still a decision).
pub(crate) fn release(cx: &Ctx, obj: u64, access: Access) {
    let (exec, me) = cx;
    let mut st = lock_state(exec);
    let model = st.locks.entry(obj).or_default();
    match access {
        Access::Exclusive => {
            if model.writer == Some(*me) {
                model.writer = None;
            }
        }
        Access::Shared => {
            if let Some(pos) = model.readers.iter().position(|&t| t == *me) {
                model.readers.remove(pos);
            }
        }
    }
}

/// Scheduling point: condvar wait. Atomically releases `lock`, parks on
/// `cv`, and on wake reacquires `lock` in the model. Returns whether
/// the wake was a modeled timeout.
pub(crate) fn cv_wait(cx: &Ctx, cv: u64, lock: u64, bounded: bool) -> bool {
    let (exec, me) = cx;
    let mut st = lock_state(exec);
    if st.abort {
        drop(st);
        panic::panic_any(AbortToken);
    }
    let model = st.locks.entry(lock).or_default();
    if model.writer == Some(*me) {
        model.writer = None;
    }
    st.threads[*me].status = Status::BlockedCv { cv, lock, bounded };
    st.threads[*me].timed_out_wake = false;
    st.threads[*me].op = format!("wait cv#{cv}");
    let st = pause(exec, st, *me);
    st.threads[*me].timed_out_wake
}

/// Scheduling point: wake one or all waiters of `cv`; they move to the
/// lock-reacquisition queue of their respective mutexes.
pub(crate) fn notify(cx: &Ctx, cv: u64, all: bool) {
    let (exec, me) = cx;
    let mut st = lock_state(exec);
    if st.abort {
        drop(st);
        panic::panic_any(AbortToken);
    }
    let mut woken = 0usize;
    for t in 0..st.threads.len() {
        if let Status::BlockedCv { cv: c, lock, .. } = st.threads[t].status {
            if c == cv {
                st.threads[t].status = Status::BlockedLock {
                    obj: lock,
                    access: Access::Exclusive,
                };
                st.threads[t].timed_out_wake = false;
                woken += 1;
                if !all {
                    break;
                }
            }
        }
    }
    st.threads[*me].status = Status::Ready;
    st.threads[*me].op = format!(
        "notify{} cv#{cv} ({woken} woken)",
        if all { "_all" } else { "_one" }
    );
    let _st = pause(exec, st, *me);
}

/// Handle to a checked thread spawned with [`spawn`].
pub struct JoinHandle {
    exec: Arc<Exec>,
    tid: usize,
}

impl JoinHandle {
    /// Scheduling point: blocks until the thread finishes. Returns its
    /// panic message if it panicked — *not* a failure of the execution;
    /// the caller decides what a child panic means.
    pub fn join(self) -> Result<(), String> {
        // Misuse of the checker API is a contract violation; panicking
        // with a precise message is the diagnostic. lint: allow(unwrap)
        let (exec, me) = current_ctx().expect("join called outside a checked execution");
        debug_assert!(Arc::ptr_eq(&exec, &self.exec), "join across executions");
        let mut st = lock_state(&exec);
        if st.abort {
            drop(st);
            panic::panic_any(AbortToken);
        }
        if st.threads[self.tid].status != Status::Finished {
            st.threads[me].status = Status::BlockedJoin { target: self.tid };
            st.threads[me].op = format!("join t{}", self.tid);
            st = pause(&exec, st, me);
        }
        match &st.threads[self.tid].panicked {
            Some(msg) => Err(msg.clone()),
            None => Ok(()),
        }
    }
}

/// Spawns a checked thread inside the current execution. A scheduling
/// point: the child becomes runnable immediately and the explorer
/// decides who goes first.
pub fn spawn<F: FnOnce() + Send + 'static>(f: F) -> JoinHandle {
    // Misuse of the checker API is a contract violation; panicking
    // with a precise message is the diagnostic. lint: allow(unwrap)
    let (exec, me) = current_ctx().expect("spawn called outside a checked execution");
    let mut st = lock_state(&exec);
    if st.abort {
        drop(st);
        panic::panic_any(AbortToken);
    }
    let tid = st.threads.len();
    st.threads.push(ThreadState::new(Status::Ready));
    let exec2 = Arc::clone(&exec);
    st.handles
        .push(std::thread::spawn(move || wrapper(exec2, tid, f)));
    st.threads[me].status = Status::Ready;
    st.threads[me].op = format!("spawn t{tid}");
    let handle = JoinHandle {
        exec: Arc::clone(&exec),
        tid,
    };
    let _st = pause(&exec, st, me);
    handle
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Body run by every checked OS thread: register, wait for the first
/// activation, run, then hand the baton on.
fn wrapper(exec: Arc<Exec>, me: usize, f: impl FnOnce()) {
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), me)));
    {
        let mut st = lock_state(&exec);
        while !st.abort && st.active != Some(me) {
            st = exec
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if st.abort {
            st.threads[me].status = Status::Finished;
            drop(st);
            exec.cv.notify_all();
            CTX.with(|c| *c.borrow_mut() = None);
            return;
        }
    }
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CTX.with(|c| *c.borrow_mut() = None);
    let mut st = lock_state(&exec);
    st.threads[me].status = Status::Finished;
    if let Err(payload) = result {
        if payload.downcast_ref::<AbortToken>().is_none() {
            st.threads[me].panicked = Some(panic_message(payload.as_ref()));
        }
    }
    if !st.abort && !st.complete {
        schedule_next(&mut st);
    }
    drop(st);
    exec.cv.notify_all();
}

/// Installs (once) a panic hook that silences panics on checked
/// threads: leader-panic scenarios unwind thousands of times per
/// battery and the messages are modeled, not noise for stderr.
fn install_hook() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if current_ctx().is_some() {
            return;
        }
        prev(info);
    }));
}

/// Why an exploration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// No thread could make progress (includes lost wakeups on
    /// unbounded waits).
    Deadlock,
    /// The root checked thread panicked (an assertion in the closure).
    Panic(String),
    /// The execution exceeded the wall-clock safety net.
    Hang,
}

impl FailureKind {
    fn tag(&self) -> u8 {
        match self {
            FailureKind::Deadlock => 0,
            FailureKind::Panic(_) => 1,
            FailureKind::Hang => 2,
        }
    }
}

/// A failing exploration: the (shrunk) schedule and its decision trace.
#[derive(Debug, Clone)]
pub struct Failure {
    /// What went wrong.
    pub kind: FailureKind,
    /// Minimal forced-choice schedule that reproduces it — feed to
    /// [`Explorer::replay`] as a committed regression.
    pub schedule: Vec<usize>,
    /// Every scheduling decision on the failing path, then the blocked
    /// threads (for deadlocks).
    pub trace: Vec<String>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            FailureKind::Deadlock => writeln!(f, "deadlock under schedule {:?}:", self.schedule)?,
            FailureKind::Panic(m) => {
                writeln!(f, "root panic under schedule {:?}: {m}", self.schedule)?
            }
            FailureKind::Hang => writeln!(f, "hang under schedule {:?}:", self.schedule)?,
        }
        for line in &self.trace {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

/// Outcome of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Executions run during exploration (shrinking replays excluded).
    pub executions: usize,
    /// Executions in which at least one modeled `wait_timeout` fired —
    /// i.e. a thread was saved by its bounded-timeout fallback. Zero
    /// means no notification was ever lost.
    pub timeout_executions: usize,
    /// Whether the bounded-preemption frontier was fully explored.
    pub complete: bool,
    /// The first failure found, if any (shrunk to a minimal schedule).
    pub failure: Option<Failure>,
}

impl Report {
    /// `true` when no failure was found.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    /// Panics with the rendered failure if one was found.
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "interleave check failed after {} executions:\n{f}",
                self.executions
            );
        }
        assert!(
            self.complete,
            "exploration frontier not exhausted within the execution budget"
        );
    }
}

/// What the DFS needs to know about one taken decision.
#[derive(Clone, Copy)]
struct DecisionLite {
    rank: usize,
    arity: usize,
    prev_runnable: bool,
    preemptive: bool,
}

struct ExecOutcome {
    decisions: Vec<DecisionLite>,
    trace: Vec<String>,
    timeouts: u64,
    failure: Option<FailureKind>,
}

impl ExecOutcome {
    fn ranks(&self) -> Vec<usize> {
        self.decisions.iter().map(|d| d.rank).collect()
    }
}

/// The deterministic bounded-preemption explorer.
pub struct Explorer {
    bound: usize,
    max_executions: usize,
    seed: u64,
    safety_net: Duration,
}

impl Explorer {
    /// An explorer with the given preemption bound. Bound 2–3 is
    /// exhaustive-in-practice for protocol-sized tests.
    pub fn new(preemption_bound: usize) -> Explorer {
        Explorer {
            bound: preemption_bound,
            max_executions: 100_000,
            seed: 0,
            safety_net: Duration::from_secs(10),
        }
    }

    /// Caps the number of explored executions (default 100 000).
    pub fn max_executions(mut self, n: usize) -> Explorer {
        self.max_executions = n;
        self
    }

    /// Deterministically shuffles the exploration order of
    /// non-default choices. Seed 0 (the default) keeps ascending
    /// thread-id order; any seed explores the same frontier in a
    /// different order, which varies *which* counterexample surfaces
    /// first without sacrificing reproducibility.
    pub fn seed(mut self, seed: u64) -> Explorer {
        self.seed = seed;
        self
    }

    /// Explores every schedule of `body` within the preemption bound.
    pub fn check<F: Fn() + Send + Sync + 'static>(&self, body: F) -> Report {
        install_hook();
        let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
        let mut schedule: Vec<usize> = Vec::new();
        let mut executions = 0usize;
        let mut timeout_executions = 0usize;
        loop {
            executions += 1;
            let out = self.run_once(&body, &schedule);
            if out.timeouts > 0 {
                timeout_executions += 1;
            }
            if let Some(kind) = out.failure.clone() {
                let failure = self.shrink(&body, out.ranks(), kind);
                return Report {
                    executions,
                    timeout_executions,
                    complete: false,
                    failure: Some(failure),
                };
            }
            match next_schedule(&out, self.bound) {
                Some(next) => schedule = next,
                None => {
                    return Report {
                        executions,
                        timeout_executions,
                        complete: true,
                        failure: None,
                    }
                }
            }
            if executions >= self.max_executions {
                return Report {
                    executions,
                    timeout_executions,
                    complete: false,
                    failure: None,
                };
            }
        }
    }

    /// Replays one specific schedule (e.g. a committed minimal
    /// counterexample) and returns its failure, if it still fails.
    pub fn replay<F: Fn() + Send + Sync + 'static>(
        &self,
        schedule: &[usize],
        body: F,
    ) -> Option<Failure> {
        install_hook();
        let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
        let out = self.run_once(&body, schedule);
        out.failure.map(|kind| Failure {
            kind,
            schedule: schedule.to_vec(),
            trace: out.trace,
        })
    }

    fn run_once(&self, body: &Arc<dyn Fn() + Send + Sync>, schedule: &[usize]) -> ExecOutcome {
        let exec = Arc::new(Exec {
            m: StdMutex::new(ExecState {
                threads: vec![ThreadState::new(Status::Running)],
                active: Some(0),
                locks: HashMap::new(),
                decisions: Vec::new(),
                schedule: schedule.to_vec(),
                seed: self.seed,
                timeouts_fired: 0,
                abort: false,
                complete: false,
                deadlock: None,
                handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
        });

        let b = Arc::clone(body);
        let e2 = Arc::clone(&exec);
        let root = std::thread::spawn(move || wrapper(e2, 0, move || b()));

        let mut hang = false;
        {
            let mut st = lock_state(&exec);
            st.handles.push(root);
            let deadline = std::time::Instant::now() + self.safety_net;
            while !st.complete && !st.abort {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    hang = true;
                    st.abort = true;
                    break;
                }
                let (g, _) = exec
                    .cv
                    .wait_timeout(st, left)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                st = g;
            }
        }
        exec.cv.notify_all();

        let handles = {
            let mut st = lock_state(&exec);
            std::mem::take(&mut st.handles)
        };
        for h in handles {
            let _ = h.join();
        }

        let st = lock_state(&exec);
        let decisions: Vec<DecisionLite> = st
            .decisions
            .iter()
            .map(|d| DecisionLite {
                rank: d.rank,
                arity: d.arity,
                prev_runnable: d.prev_runnable,
                preemptive: d.preemptive,
            })
            .collect();
        let mut trace: Vec<String> = st.decisions.iter().map(|d| d.desc.clone()).collect();
        let failure = if hang {
            Some(FailureKind::Hang)
        } else if let Some(lines) = &st.deadlock {
            trace.extend(lines.iter().cloned());
            Some(FailureKind::Deadlock)
        } else {
            st.threads[0].panicked.clone().map(FailureKind::Panic)
        };
        ExecOutcome {
            decisions,
            trace,
            timeouts: st.timeouts_fired,
            failure,
        }
    }

    /// Greedy schedule shrink: truncate the forced suffix, then zero
    /// individual choices, keeping every candidate that still fails the
    /// same way. Deterministic replay makes this sound.
    fn shrink(
        &self,
        body: &Arc<dyn Fn() + Send + Sync>,
        ranks: Vec<usize>,
        kind: FailureKind,
    ) -> Failure {
        let tag = kind.tag();
        let mut best = trim_zeros(ranks);
        let mut budget = 500usize;
        let reproduce = |s: &[usize], budget: &mut usize| -> Option<ExecOutcome> {
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            let out = self.run_once(body, s);
            match &out.failure {
                Some(k) if k.tag() == tag => Some(out),
                _ => None,
            }
        };
        loop {
            let mut improved = false;
            // Truncation: drop trailing forced choices.
            while !best.is_empty() {
                let cand = trim_zeros(best[..best.len() - 1].to_vec());
                if cand.len() == best.len() {
                    break;
                }
                if reproduce(&cand, &mut budget).is_some() {
                    best = cand;
                    improved = true;
                } else {
                    break;
                }
            }
            // Zeroing: replace forced choices with the default.
            for i in (0..best.len()).rev() {
                if best[i] == 0 {
                    continue;
                }
                let mut cand = best.clone();
                cand[i] = 0;
                let cand = trim_zeros(cand);
                if reproduce(&cand, &mut budget).is_some() {
                    best = cand;
                    improved = true;
                }
            }
            if !improved || budget == 0 {
                break;
            }
        }
        // Final replay to capture the minimal trace (the failure must
        // still reproduce: `best` only ever moved between reproducing
        // schedules).
        let out = self.run_once(body, &best);
        let (kind, trace) = match out.failure {
            Some(k) => (k, out.trace),
            None => (kind, vec!["(shrunk schedule raced; trace unavailable)".into()]),
        };
        Failure {
            kind,
            schedule: best,
            trace,
        }
    }
}

fn trim_zeros(mut v: Vec<usize>) -> Vec<usize> {
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

/// The DFS frontier step: backtrack to the deepest decision of the
/// taken path that has an unexplored sibling whose preemption cost
/// stays within `bound`, and return the forced-choice prefix selecting
/// it. `None` when the frontier is exhausted.
fn next_schedule(out: &ExecOutcome, bound: usize) -> Option<Vec<usize>> {
    let ds = &out.decisions;
    // Preemptions taken strictly before decision i.
    let mut preempts_before = vec![0usize; ds.len()];
    let mut acc = 0usize;
    for (i, d) in ds.iter().enumerate() {
        preempts_before[i] = acc;
        if d.preemptive {
            acc += 1;
        }
    }
    for i in (0..ds.len()).rev() {
        let d = ds[i];
        if d.rank + 1 >= d.arity {
            continue;
        }
        // rank > 0 with the previous thread runnable is a preemption;
        // if the previous thread was blocked every sibling is free.
        if d.prev_runnable && preempts_before[i] + 1 > bound {
            continue;
        }
        let mut sched: Vec<usize> = ds[..i].iter().map(|p| p.rank).collect();
        sched.push(d.rank + 1);
        return Some(sched);
    }
    None
}

#[cfg(all(test, feature = "interleave_check"))]
mod tests {
    use super::*;
    use crate::sync::{lock_or_recover, Condvar, Mutex};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn counter_increments_are_serialized() {
        // Two threads incrementing under a mutex: every interleaving
        // must end at 2. Also pins the execution count so the frontier
        // size itself is deterministic.
        let report = Explorer::new(2).check(|| {
            let m = Arc::new(Mutex::new(0u64));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let m = Arc::clone(&m);
                    spawn(move || {
                        let mut g = lock_or_recover(&m);
                        *g += 1;
                    })
                })
                .collect();
            for h in hs {
                h.join().expect("no child panic");
            }
            assert_eq!(*lock_or_recover(&m), 2);
        });
        report.assert_ok();
        assert!(report.executions > 1, "must explore more than one schedule");
        assert_eq!(report.timeout_executions, 0);
    }

    #[test]
    fn ab_ba_deadlock_is_found_and_shrunk() {
        let report = Explorer::new(2).check(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = spawn(move || {
                let _ga = lock_or_recover(&a2);
                let _gb = lock_or_recover(&b2);
            });
            {
                let _gb = lock_or_recover(&b);
                let _ga = lock_or_recover(&a);
            }
            let _ = t.join();
        });
        let failure = report.failure.expect("AB-BA inversion must deadlock");
        assert_eq!(failure.kind, FailureKind::Deadlock);
        // The minimal counterexample needs exactly one non-default
        // choice (one preemption between the two first acquires); the
        // shrinker trims trailing defaults, so the forced choice is
        // the last entry.
        assert!(
            failure.schedule.len() <= 3,
            "schedule not minimal: {:?}",
            failure.schedule
        );
        assert_eq!(
            failure.schedule.iter().filter(|&&r| r != 0).count(),
            1,
            "one preemption suffices: {:?}",
            failure.schedule
        );
        assert!(!failure.trace.is_empty());
    }

    #[test]
    fn lost_notification_on_unbounded_wait_is_a_deadlock() {
        // Classic check-then-park race: the waiter samples the flag,
        // *drops the lock*, and only then parks. If the setter's
        // set+notify lands in that gap, the notification wakes nobody
        // and the unbounded wait never returns — exactly the bug shape
        // LOCK002 exists to flag statically.
        let report = Explorer::new(2).check(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p2 = Arc::clone(&pair);
            let setter = spawn(move || {
                let (m, cv) = &*p2;
                *lock_or_recover(m) = true;
                cv.notify_one();
            });
            let (m, cv) = &*pair;
            let ready = *lock_or_recover(m); // guard dropped here
            if !ready {
                let g = lock_or_recover(m);
                // Deliberately no predicate re-check and no
                // `wait_timeout` fallback: on the lost-notify schedule
                // this parks forever, which the model reports as a
                // deadlock.
                let _g = cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            let _ = setter.join();
        });
        let failure = report.failure.expect("lost notification must be caught");
        assert_eq!(failure.kind, FailureKind::Deadlock);
    }

    #[test]
    fn bounded_wait_escapes_and_is_counted() {
        // The same racy park, but with a bounded wait: the schedule
        // that loses the notification no longer deadlocks — the
        // modeled timeout fires (only when nothing else can run) and
        // is counted, so the report quantifies exactly how often the
        // safety net was needed. This is the LOCK002 rationale: on
        // client-blockable paths a bounded fallback turns a lost
        // wakeup from a hang into a recoverable, observable event.
        let report = Explorer::new(2).check(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p2 = Arc::clone(&pair);
            let setter = spawn(move || {
                let (m, cv) = &*p2;
                *lock_or_recover(m) = true;
                cv.notify_one();
            });
            let (m, cv) = &*pair;
            let ready = *lock_or_recover(m); // guard dropped here
            if !ready {
                let g = lock_or_recover(m);
                // Still no predicate re-check before parking (the
                // lost-notify bug is intact) — but bounded, so the
                // model can escape.
                let (g, _t) = cv
                    .wait_timeout(g, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                assert!(*g, "woken (or timed out) only after the flag was set");
            }
            let _ = setter.join();
        });
        report.assert_ok();
        assert!(
            report.timeout_executions > 0,
            "the lost-notify schedule must have been escaped via timeout"
        );
    }

    #[test]
    fn child_panic_is_reported_via_join_not_as_failure() {
        let report = Explorer::new(1).check(|| {
            let t = spawn(|| panic!("leader died"));
            let err = t.join().expect_err("child panicked");
            assert!(err.contains("leader died"), "got: {err}");
        });
        report.assert_ok();
    }

    #[test]
    fn root_assertion_failure_is_reported_with_schedule() {
        // A flag written without synchronization against the read:
        // some schedule sees 0, which the closure asserts against.
        let report = Explorer::new(2).check(|| {
            let m = Arc::new(Mutex::new(0u64));
            let m2 = Arc::clone(&m);
            let t = spawn(move || {
                *lock_or_recover(&m2) = 1;
            });
            let seen = *lock_or_recover(&m);
            let _ = t.join();
            assert_eq!(seen, 1, "read raced the write");
        });
        match report.failure {
            Some(Failure {
                kind: FailureKind::Panic(msg),
                ..
            }) => assert!(msg.contains("read raced the write"), "got: {msg}"),
            other => panic!("expected a root panic, got {other:?}"),
        }
    }

    #[test]
    fn exploration_is_deterministic() {
        fn body() -> (usize, Option<Vec<usize>>) {
            let report = Explorer::new(2).check(|| {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let t = spawn(move || {
                    let _ga = lock_or_recover(&a2);
                    let _gb = lock_or_recover(&b2);
                });
                {
                    let _gb = lock_or_recover(&b);
                    let _ga = lock_or_recover(&a);
                }
                let _ = t.join();
            });
            (
                report.executions,
                report.failure.map(|f| f.schedule),
            )
        }
        let first = body();
        for _ in 0..3 {
            assert_eq!(body(), first, "same program, same exploration");
        }
    }

    #[test]
    fn replay_reproduces_a_minimized_schedule() {
        let make = || {
            let flag = Arc::new(AtomicUsize::new(0));
            move || {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let t = spawn(move || {
                    let _ga = lock_or_recover(&a2);
                    let _gb = lock_or_recover(&b2);
                });
                {
                    let _gb = lock_or_recover(&b);
                    let _ga = lock_or_recover(&a);
                }
                let _ = t.join();
                flag.fetch_add(1, Ordering::Relaxed);
            }
        };
        let report = Explorer::new(2).check(make());
        let found = report.failure.expect("deadlock");
        let replayed = Explorer::new(2)
            .replay(&found.schedule, make())
            .expect("minimized schedule must reproduce the deadlock");
        assert_eq!(replayed.kind, FailureKind::Deadlock);
    }

    #[test]
    fn seeded_exploration_still_finds_the_bug() {
        for seed in [1u64, 7, 42] {
            let report = Explorer::new(2).seed(seed).check(|| {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let t = spawn(move || {
                    let _ga = lock_or_recover(&a2);
                    let _gb = lock_or_recover(&b2);
                });
                {
                    let _gb = lock_or_recover(&b);
                    let _ga = lock_or_recover(&a);
                }
                let _ = t.join();
            });
            assert!(
                matches!(
                    report.failure,
                    Some(Failure {
                        kind: FailureKind::Deadlock,
                        ..
                    })
                ),
                "seed {seed} must still find the AB-BA deadlock"
            );
        }
    }

    #[test]
    fn rwlock_readers_share_and_writer_excludes() {
        let report = Explorer::new(2).check(|| {
            let l = Arc::new(crate::sync::RwLock::new(0u64));
            let (l2, l3) = (Arc::clone(&l), Arc::clone(&l));
            let w = spawn(move || {
                *crate::sync::write_or_recover(&l2) = 7;
            });
            let r = spawn(move || {
                let v = *crate::sync::read_or_recover(&l3);
                assert!(v == 0 || v == 7, "torn read: {v}");
            });
            w.join().expect("writer ok");
            r.join().expect("reader ok");
            assert_eq!(*crate::sync::read_or_recover(&l), 7);
        });
        report.assert_ok();
    }
}
