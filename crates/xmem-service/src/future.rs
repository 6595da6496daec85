//! Hand-rolled shared-state futures for the async estimation front end.
//!
//! A [`PoolFuture`] is the caller half of a promise pair: the worker pool
//! holds the [`Promise`] and completes it when the computation finishes,
//! while the caller polls (or blocks on) the future. The shared state is a
//! `Mutex` + `Condvar` pair, so one future supports both consumption
//! styles — `async` polling from an executor and blocking [`wait`]
//! (`PoolFuture::wait`) from plain threads.
//!
//! Completion is **first-writer-wins**: whichever of the worker, a
//! [`cancel`](PoolFuture::cancel) call, or a deadline expiry settles the
//! state first decides the output, and every later completion attempt is a
//! no-op. This is what gives cancellation and per-query deadlines their
//! semantics — a cancelled or expired future resolves immediately with
//! the corresponding [`EstimateError`], even if the underlying computation
//! later runs to completion (its result still lands in the service cache;
//! only this future stops waiting for it).

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Instant;
use xmem_core::EstimateError;

/// Values a [`PoolFuture`] can resolve to when the computation itself is
/// pre-empted: the type must be able to express "cancelled", "missed the
/// deadline", and "died mid-computation" outcomes fabricated without
/// (fully) running the computation.
pub trait LateOutcome: Clone + Send {
    /// The value a cancelled query resolves to.
    fn cancelled() -> Self;
    /// The value an expired query resolves to.
    fn deadline_exceeded() -> Self;
    /// The value a query resolves to when its computation panicked and
    /// the worker pool caught the unwind (`message` carries the panic
    /// payload when printable).
    fn internal(message: &str) -> Self;
}

impl<V: Clone + Send> LateOutcome for Result<V, EstimateError> {
    fn cancelled() -> Self {
        Err(EstimateError::Cancelled)
    }
    fn deadline_exceeded() -> Self {
        Err(EstimateError::DeadlineExceeded)
    }
    fn internal(message: &str) -> Self {
        Err(EstimateError::Internal(message.to_string()))
    }
}

/// Shared completion state between a [`Promise`] and its [`PoolFuture`]s.
#[derive(Debug)]
struct Shared<T> {
    state: Mutex<State<T>>,
    condvar: Condvar,
    /// Live [`PoolFuture`] handles. The last one may move the output
    /// out instead of cloning it.
    handles: AtomicUsize,
}

#[derive(Debug)]
struct State<T> {
    /// The settled output; `Some` once settled. Only the last
    /// [`PoolFuture`] handle may take it (see `settled`), after which no
    /// handle is left to observe the settlement.
    result: Option<T>,
    /// Set on settlement and never unset: a taken result still counts as
    /// settled, so later completions stay no-ops.
    settled: bool,
    /// Wakers of pollers parked since the last completion check.
    wakers: Vec<Waker>,
    /// Set once a worker has started computing (used to report whether a
    /// cancellation pre-empted any work).
    started: bool,
}

impl<T: LateOutcome> Shared<T> {
    fn settle(&self, value: T) -> bool {
        self.settle_reporting_started(value).0
    }

    /// Settles atomically and reports `(took_effect, started)` — both read
    /// under one lock acquisition, so a concurrent worker claim cannot
    /// slip between the observation and the settlement.
    fn settle_reporting_started(&self, value: T) -> (bool, bool) {
        let mut state = self.state.lock().expect("future state poisoned");
        if state.settled {
            return (false, state.started);
        }
        let started = state.started;
        state.result = Some(value);
        state.settled = true;
        let wakers = std::mem::take(&mut state.wakers);
        drop(state);
        self.condvar.notify_all();
        for waker in wakers {
            waker.wake();
        }
        (true, started)
    }
}

/// Creates a promise pair: the [`Promise`] settles the shared state, the
/// [`PoolFuture`] observes it. `deadline` bounds the query: once it
/// passes, any poll, wait, or worker-side claim resolves the future to
/// [`LateOutcome::deadline_exceeded`].
#[must_use]
pub fn promise_pair<T: LateOutcome>(deadline: Option<Instant>) -> (Promise<T>, PoolFuture<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            result: None,
            settled: false,
            wakers: Vec::new(),
            started: false,
        }),
        condvar: Condvar::new(),
        handles: AtomicUsize::new(1),
    });
    (
        Promise {
            shared: Arc::clone(&shared),
            deadline,
        },
        PoolFuture { shared, deadline },
    )
}

/// The completion half of a promise pair, held by the worker pool.
#[derive(Debug)]
pub struct Promise<T: LateOutcome> {
    shared: Arc<Shared<T>>,
    deadline: Option<Instant>,
}

impl<T: LateOutcome> Promise<T> {
    /// Worker-side admission check, called when the job is dequeued.
    /// Returns `false` — and settles the future accordingly — when the
    /// query was cancelled while queued or its deadline has passed;
    /// returns `true` after marking the computation started.
    pub fn claim(&self) -> bool {
        if self.expire_if_past_deadline() {
            return false;
        }
        let mut state = self.shared.state.lock().expect("future state poisoned");
        if state.settled {
            return false;
        }
        state.started = true;
        true
    }

    /// Settles the future with `value`. Returns `false` when the future
    /// was already settled (cancelled or expired first) — the value is
    /// discarded, first writer wins.
    pub fn complete(&self, value: T) -> bool {
        self.shared.settle(value)
    }

    /// Settles the future with [`LateOutcome::deadline_exceeded`] when its
    /// deadline has passed, reporting whether it did.
    pub(crate) fn expire_if_past_deadline(&self) -> bool {
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.shared.settle(T::deadline_exceeded())
            }
            _ => false,
        }
    }
}

/// A future resolving to the output of a pooled estimation query.
///
/// Supports three consumption styles:
/// * `.await` / polling from an executor (see
///   [`block_on`](crate::block_on) and [`Executor`](crate::Executor));
/// * blocking [`wait`](Self::wait) from a plain thread;
/// * fire-and-forget with best-effort [`cancel`](Self::cancel).
///
/// Cloning is cheap and shares the same completion state; all clones
/// resolve to the same output.
#[derive(Debug)]
pub struct PoolFuture<T: LateOutcome> {
    shared: Arc<Shared<T>>,
    deadline: Option<Instant>,
}

impl<T: LateOutcome> Clone for PoolFuture<T> {
    fn clone(&self) -> Self {
        self.shared.handles.fetch_add(1, Ordering::Relaxed);
        PoolFuture {
            shared: Arc::clone(&self.shared),
            deadline: self.deadline,
        }
    }
}

impl<T: LateOutcome> Drop for PoolFuture<T> {
    fn drop(&mut self) {
        self.shared.handles.fetch_sub(1, Ordering::Release);
    }
}

impl<T: LateOutcome> PoolFuture<T> {
    /// Cancels the query: the future resolves to
    /// [`LateOutcome::cancelled`] unless it already settled. Returns
    /// `(took_effect, pre_empted_work)` — `took_effect` is `false` when a
    /// result (or an earlier cancellation/expiry) won the race;
    /// `pre_empted_work` is `true` when no worker had started the
    /// computation, i.e. the cancellation saved the entire profile run.
    /// The started-flag read and the settlement happen under one lock, so
    /// the report cannot race a concurrent worker claim.
    pub fn cancel(&self) -> (bool, bool) {
        let (took_effect, started) = self.shared.settle_reporting_started(T::cancelled());
        (took_effect, took_effect && !started)
    }

    /// Whether the future has settled (result, cancellation, or expiry).
    #[must_use]
    pub fn is_settled(&self) -> bool {
        self.shared
            .state
            .lock()
            .expect("future state poisoned")
            .settled
    }

    /// The query deadline, if one was set at submission.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// A weak expiry handle for the deadline timer: it can settle the
    /// future at its due time but does not keep the completion state (or
    /// a settled result) alive.
    pub(crate) fn weak_expiry(&self) -> WeakExpiry<T> {
        WeakExpiry {
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Blocks the calling thread until the future settles and returns the
    /// output. Honors the deadline: an unsettled future resolves to
    /// [`LateOutcome::deadline_exceeded`] the moment it passes.
    ///
    /// Consumes the handle: the last live handle moves the output out of
    /// the shared state, any other clones it. Keep a
    /// [`clone`](Clone::clone) to observe the future after waiting.
    #[must_use]
    pub fn wait(self) -> T {
        let mut state = self.shared.state.lock().expect("future state poisoned");
        loop {
            if state.settled {
                // Only the last handle takes the result, and it is
                // consumed doing so, so a live handle always finds it. A
                // count of one cannot be stale: no other handle is left
                // to clone this one.
                let last = self.shared.handles.load(Ordering::Acquire) == 1;
                let result = if last {
                    state.result.take()
                } else {
                    state.result.clone()
                };
                return result.expect("a live handle finds the settled result");
            }
            match self.deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        drop(state);
                        self.shared.settle(T::deadline_exceeded());
                        state = self.shared.state.lock().expect("future state poisoned");
                        continue;
                    }
                    let (next, _) = self
                        .shared
                        .condvar
                        .wait_timeout(state, deadline - now)
                        .expect("future state poisoned");
                    state = next;
                }
                None => {
                    state = self
                        .shared
                        .condvar
                        .wait(state)
                        .expect("future state poisoned");
                }
            }
        }
    }
}

/// The deadline timer's non-owning handle to a future's completion state
/// (see [`PoolFuture::weak_expiry`]): once every caller-side clone drops,
/// the state — and any settled result it holds — is freed regardless of
/// how far away the watched deadline is.
#[derive(Debug)]
pub(crate) struct WeakExpiry<T: LateOutcome> {
    shared: std::sync::Weak<Shared<T>>,
}

impl<T: LateOutcome> WeakExpiry<T> {
    /// Settles the future with [`LateOutcome::deadline_exceeded`] if it
    /// is still alive and unsettled.
    pub(crate) fn expire(&self) {
        if let Some(shared) = self.shared.upgrade() {
            shared.settle(T::deadline_exceeded());
        }
    }
}

impl<T: LateOutcome> Future for PoolFuture<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = self.shared.state.lock().expect("future state poisoned");
        if let Some(result) = &state.result {
            return Poll::Ready(result.clone());
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                drop(state);
                self.shared.settle(T::deadline_exceeded());
                let state = self.shared.state.lock().expect("future state poisoned");
                return Poll::Ready(state.result.clone().expect("settle leaves a result"));
            }
        }
        // Register for the completion wake-up, replacing a stale clone of
        // this task's waker if it re-polled.
        let waker = cx.waker();
        if !state.wakers.iter().any(|w| w.will_wake(waker)) {
            state.wakers.push(waker.clone());
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    type TestFuture = PoolFuture<Result<u64, EstimateError>>;
    type TestPromise = Promise<Result<u64, EstimateError>>;

    fn pair(deadline: Option<Instant>) -> (TestPromise, TestFuture) {
        promise_pair(deadline)
    }

    #[test]
    fn complete_then_wait_returns_the_value() {
        let (promise, future) = pair(None);
        assert!(promise.claim());
        assert!(promise.complete(Ok(42)));
        assert!(future.is_settled());
        assert_eq!(future.wait(), Ok(42));
    }

    #[test]
    fn cancel_wins_over_a_later_completion() {
        let (promise, future) = pair(None);
        let (took_effect, pre_empted) = future.cancel();
        assert!(took_effect);
        assert!(pre_empted, "no worker had claimed the job");
        assert!(!promise.claim(), "a cancelled job must not be claimed");
        assert!(!promise.complete(Ok(42)), "first writer wins");
        assert_eq!(future.wait(), Err(EstimateError::Cancelled));
    }

    #[test]
    fn cancel_after_completion_is_a_no_op() {
        let (promise, future) = pair(None);
        promise.complete(Ok(7));
        let (took_effect, _) = future.cancel();
        assert!(!took_effect);
        assert_eq!(future.wait(), Ok(7));
    }

    #[test]
    fn cancel_after_claim_reports_no_preempted_work() {
        let (promise, future) = pair(None);
        assert!(promise.claim());
        let (took_effect, pre_empted) = future.cancel();
        assert!(took_effect);
        assert!(!pre_empted, "the worker had already started");
        assert_eq!(future.wait(), Err(EstimateError::Cancelled));
    }

    #[test]
    fn past_deadline_expires_on_claim() {
        let (promise, future) = pair(Some(Instant::now() - Duration::from_millis(1)));
        assert!(!promise.claim());
        assert_eq!(future.wait(), Err(EstimateError::DeadlineExceeded));
    }

    #[test]
    fn wait_times_out_at_the_deadline_without_a_worker() {
        let (_promise, future) = pair(Some(Instant::now() + Duration::from_millis(20)));
        let started = Instant::now();
        assert_eq!(future.wait(), Err(EstimateError::DeadlineExceeded));
        assert!(started.elapsed() >= Duration::from_millis(19));
    }

    #[test]
    fn wait_from_another_thread_sees_the_completion() {
        let (promise, future) = pair(None);
        let waiter = std::thread::spawn(move || future.wait());
        std::thread::sleep(Duration::from_millis(10));
        assert!(promise.complete(Ok(99)));
        assert_eq!(waiter.join().expect("waiter"), Ok(99));
    }

    #[test]
    fn clones_share_the_completion() {
        let (promise, future) = pair(None);
        let other = future.clone();
        promise.complete(Ok(5));
        assert_eq!(future.wait(), Ok(5));
        assert_eq!(other.wait(), Ok(5));
    }

    #[test]
    fn the_last_handle_moves_the_output_out() {
        let value = Arc::new(9u64);
        let (promise, future) = promise_pair::<Result<Arc<u64>, EstimateError>>(None);
        let other = future.clone();
        assert!(promise.complete(Ok(Arc::clone(&value))));
        // Two live handles: the first wait clones, the last one moves.
        let first = future.wait().expect("completed");
        assert_eq!(Arc::strong_count(&value), 3);
        let last = other.wait().expect("completed");
        assert!(Arc::ptr_eq(&first, &last));
        assert_eq!(
            Arc::strong_count(&value),
            3,
            "the shared state no longer holds a copy"
        );
        // A settled-and-taken future stays settled: later completions
        // are still no-ops, and the promise side sees that.
        assert!(!promise.complete(Ok(Arc::new(0))));
        assert!(!promise.claim());
    }
}
