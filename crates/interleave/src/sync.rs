//! The checkable sync facade.
//!
//! Code that wants its concurrency model-checked imports
//! `interleave::sync::{Mutex, RwLock, Condvar, AtomicU64}` instead of
//! `std::sync::*`. Without the `interleave_check` feature these are
//! **zero-cost re-exports of the std types** — no wrapper, no branch,
//! byte-for-byte the binary you had before. With the feature, they are
//! instrumented shims: every acquire, condvar wait and notify becomes a
//! scheduling point of the deterministic explorer in [`crate::check`],
//! so a test can drive the code through *every* interleaving up to a
//! preemption bound instead of the one the OS happens to pick.
//!
//! Threads that are not part of an active exploration (including all
//! threads when no [`crate::check::Explorer`] is running) fall through
//! to plain std behaviour even when the feature is on.
//!
//! [`AtomicU64`] is re-exported unshimmed in both modes: under the
//! cooperative scheduler exactly one thread runs at a time, so atomic
//! operations are already sequentially consistent per execution and add
//! no scheduling decisions worth exploring (they are monotonic counters
//! everywhere in this workspace).
//!
//! # Poisoned-lock policy
//!
//! [`lock_or_recover`] (and the RwLock twins) are the workspace-wide
//! answer to lock poisoning: a panicked client thread must not wedge
//! the daemon, so instead of propagating the poison panic to every
//! subsequent locker, callers take the guard anyway. This is sound for
//! every protected structure in the serve/cache substrate because each
//! one is kept consistent *per statement* (single inserts/removes into
//! maps, whole-value slot writes) — there is no multi-step invariant a
//! panic can tear in a way later readers would misinterpret, and the
//! flight protocol additionally publishes an explicit failure marker
//! from the leader's unwind path (see `serve::coalesce`).

pub use std::sync::atomic::AtomicU64;

#[cfg(not(feature = "interleave_check"))]
pub use std::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(feature = "interleave_check")]
pub use shim::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

use std::sync::PoisonError;

/// Locks `m`, recovering the guard from a poisoned mutex instead of
/// panicking. See the module docs for why recovery is sound here.
pub fn lock_or_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, recovering from poison instead of panicking.
pub fn read_or_recover<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, recovering from poison instead of panicking.
pub fn write_or_recover<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// The instrumented shims. Each primitive wraps the real std primitive
/// (which provides safe storage, poisoning, and actual mutual exclusion
/// for unregistered threads) plus a process-unique id the scheduler's
/// lock model is keyed on. Registered threads ask the model before
/// touching the std primitive, so a model grant is always uncontended
/// in std terms.
#[cfg(feature = "interleave_check")]
mod shim {
    use crate::check::{self, Access, Ctx};
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::{AtomicU64 as IdCounter, Ordering};
    use std::sync::{LockResult, PoisonError};
    use std::time::Duration;

    fn next_id() -> u64 {
        static NEXT: IdCounter = IdCounter::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    }

    /// Outcome of a [`Condvar::wait_timeout`]: mirrors
    /// `std::sync::WaitTimeoutResult` (which has no public
    /// constructor), exposing only [`WaitTimeoutResult::timed_out`].
    #[derive(Debug, Clone, Copy)]
    pub struct WaitTimeoutResult {
        timed_out: bool,
    }

    impl WaitTimeoutResult {
        /// `true` when the wait ended by timeout rather than a notify.
        pub fn timed_out(&self) -> bool {
            self.timed_out
        }
    }

    /// An instrumented mutex: API-compatible with `std::sync::Mutex`
    /// for the operations the workspace uses.
    pub struct Mutex<T: ?Sized> {
        id: u64,
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// A fresh mutex holding `value`.
        pub fn new(value: T) -> Mutex<T> {
            Mutex {
                id: next_id(),
                inner: std::sync::Mutex::new(value),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock; a scheduling point under exploration.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            let model = check::current_ctx();
            if let Some(cx) = &model {
                check::acquire(cx, self.id, Access::Exclusive, "lock");
            }
            wrap_lock(self.inner.lock(), self, model)
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Mutex")
                .field("id", &self.id)
                .finish_non_exhaustive()
        }
    }

    fn wrap_lock<'a, T: ?Sized>(
        res: LockResult<std::sync::MutexGuard<'a, T>>,
        lock: &'a Mutex<T>,
        model: Option<Ctx>,
    ) -> LockResult<MutexGuard<'a, T>> {
        match res {
            Ok(std) => Ok(MutexGuard {
                lock,
                std: Some(std),
                model,
            }),
            Err(poisoned) => Err(PoisonError::new(MutexGuard {
                lock,
                std: Some(poisoned.into_inner()),
                model,
            })),
        }
    }

    /// Guard of an instrumented [`Mutex`]. Releases the model lock (and
    /// the underlying std lock) on drop.
    pub struct MutexGuard<'a, T: ?Sized> {
        lock: &'a Mutex<T>,
        std: Option<std::sync::MutexGuard<'a, T>>,
        model: Option<Ctx>,
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // lint: allow(unwrap) — `std` is Some for every live guard
            self.std.as_ref().unwrap()
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // lint: allow(unwrap) — `std` is Some for every live guard
            self.std.as_mut().unwrap()
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Release the real lock first, then the model lock: by the
            // time another model thread is granted this lock (only ever
            // at a scheduling point, after this whole fn returned), the
            // std mutex is free.
            self.std = None;
            if let Some(cx) = self.model.take() {
                check::release(&cx, self.lock.id, Access::Exclusive);
            }
        }
    }

    /// An instrumented condition variable.
    pub struct Condvar {
        id: u64,
        inner: std::sync::Condvar,
    }

    impl Default for Condvar {
        fn default() -> Condvar {
            Condvar::new()
        }
    }

    impl Condvar {
        /// A fresh condvar.
        pub fn new() -> Condvar {
            Condvar {
                id: next_id(),
                inner: std::sync::Condvar::new(),
            }
        }

        /// Blocks until notified; a scheduling point under exploration.
        /// Modeled as an *unbounded* wait: a lost notification shows up
        /// as a deadlock in the explorer's report.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            match self.wait_inner(guard, None) {
                Ok((g, _)) => Ok(g),
                Err(p) => {
                    let (g, _) = p.into_inner();
                    Err(PoisonError::new(g))
                }
            }
        }

        /// Blocks until notified or (conceptually) `dur` elapses. Under
        /// exploration the timeout never fires on real time: it is a
        /// transition the scheduler enables **only when every thread is
        /// otherwise blocked**, and each firing is counted in the
        /// report so tests can assert no wakeup was lost.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            self.wait_inner(guard, Some(dur))
        }

        fn wait_inner<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Option<Duration>,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            let lock = guard.lock;
            let (std, model) = dismantle(guard);
            match model {
                None => {
                    // Unregistered thread: plain std condvar semantics.
                    // lint: allow(unwrap) — `std` is Some for every live guard
                    let std = std.unwrap();
                    let (res, timed_out) = match dur {
                        Some(d) => match self.inner.wait_timeout(std, d) {
                            Ok((g, t)) => (Ok(g), t.timed_out()),
                            Err(p) => {
                                let (g, t) = p.into_inner();
                                (Err(PoisonError::new(g)), t.timed_out())
                            }
                        },
                        None => match self.inner.wait(std) {
                            Ok(g) => (Ok(g), false),
                            Err(p) => (Err(PoisonError::new(p.into_inner())), false),
                        },
                    };
                    finish_wait(res, lock, None, timed_out)
                }
                Some(cx) => {
                    // Model wait: drop the real guard first (std locks
                    // are not reentrant and another granted thread may
                    // take it while we are parked), then let the model
                    // own the interleaving entirely.
                    drop(std);
                    let timed_out = check::cv_wait(&cx, self.id, lock.id, dur.is_some());
                    // The model re-granted `lock` to this thread; the
                    // std lock is necessarily uncontended now.
                    finish_wait(lock.inner.lock(), lock, Some(cx), timed_out)
                }
            }
        }

        /// Wakes one waiter; a scheduling point under exploration.
        pub fn notify_one(&self) {
            match check::current_ctx() {
                Some(cx) => check::notify(&cx, self.id, false),
                None => self.inner.notify_one(),
            }
        }

        /// Wakes all waiters; a scheduling point under exploration.
        pub fn notify_all(&self) {
            match check::current_ctx() {
                Some(cx) => check::notify(&cx, self.id, true),
                None => self.inner.notify_all(),
            }
        }
    }

    impl fmt::Debug for Condvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Condvar").field("id", &self.id).finish()
        }
    }

    /// Takes a guard apart without running its release logic: the real
    /// guard (dropped by the caller as needed) and the model context.
    fn dismantle<'a, T: ?Sized>(
        mut guard: MutexGuard<'a, T>,
    ) -> (Option<std::sync::MutexGuard<'a, T>>, Option<Ctx>) {
        (guard.std.take(), guard.model.take())
    }

    fn finish_wait<'a, T: ?Sized>(
        relock: LockResult<std::sync::MutexGuard<'a, T>>,
        lock: &'a Mutex<T>,
        model: Option<Ctx>,
        timed_out: bool,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let t = WaitTimeoutResult { timed_out };
        match wrap_lock(relock, lock, model) {
            Ok(g) => Ok((g, t)),
            Err(p) => Err(PoisonError::new((p.into_inner(), t))),
        }
    }

    /// An instrumented reader-writer lock.
    pub struct RwLock<T: ?Sized> {
        id: u64,
        inner: std::sync::RwLock<T>,
    }

    impl<T> RwLock<T> {
        /// A fresh rwlock holding `value`.
        pub fn new(value: T) -> RwLock<T> {
            RwLock {
                id: next_id(),
                inner: std::sync::RwLock::new(value),
            }
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquires a shared read guard; a scheduling point under
        /// exploration.
        pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
            let model = check::current_ctx();
            if let Some(cx) = &model {
                check::acquire(cx, self.id, Access::Shared, "read");
            }
            match self.inner.read() {
                Ok(std) => Ok(RwLockReadGuard {
                    lock: self,
                    std: Some(std),
                    model,
                }),
                Err(p) => Err(PoisonError::new(RwLockReadGuard {
                    lock: self,
                    std: Some(p.into_inner()),
                    model,
                })),
            }
        }

        /// Acquires the exclusive write guard; a scheduling point under
        /// exploration.
        pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
            let model = check::current_ctx();
            if let Some(cx) = &model {
                check::acquire(cx, self.id, Access::Exclusive, "write");
            }
            match self.inner.write() {
                Ok(std) => Ok(RwLockWriteGuard {
                    lock: self,
                    std: Some(std),
                    model,
                }),
                Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                    lock: self,
                    std: Some(p.into_inner()),
                    model,
                })),
            }
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("RwLock")
                .field("id", &self.id)
                .finish_non_exhaustive()
        }
    }

    /// Shared guard of an instrumented [`RwLock`].
    pub struct RwLockReadGuard<'a, T: ?Sized> {
        lock: &'a RwLock<T>,
        std: Option<std::sync::RwLockReadGuard<'a, T>>,
        model: Option<Ctx>,
    }

    impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // lint: allow(unwrap) — `std` is Some for every live guard
            self.std.as_ref().unwrap()
        }
    }

    impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            self.std = None;
            if let Some(cx) = self.model.take() {
                check::release(&cx, self.lock.id, Access::Shared);
            }
        }
    }

    /// Exclusive guard of an instrumented [`RwLock`].
    pub struct RwLockWriteGuard<'a, T: ?Sized> {
        lock: &'a RwLock<T>,
        std: Option<std::sync::RwLockWriteGuard<'a, T>>,
        model: Option<Ctx>,
    }

    impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // lint: allow(unwrap) — `std` is Some for every live guard
            self.std.as_ref().unwrap()
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // lint: allow(unwrap) — `std` is Some for every live guard
            self.std.as_mut().unwrap()
        }
    }

    impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            self.std = None;
            if let Some(cx) = self.model.take() {
                check::release(&cx, self.lock.id, Access::Exclusive);
            }
        }
    }
}
