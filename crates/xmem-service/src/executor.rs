//! A dependency-free future runtime: a bounded, channel-based worker pool
//! plus the minimal executor machinery needed to drive [`PoolFuture`]s —
//! [`block_on`] for single futures, [`Executor`] for many, and
//! [`join_all`] to gather a batch.
//!
//! The build environment has no crates.io, so there is no tokio here: the
//! pool is `std::sync::mpsc::sync_channel` + worker threads, and wakers
//! are built safely from [`std::task::Wake`] (no unsafe `RawWaker`
//! vtables — the crate forbids unsafe code).
//!
//! Backpressure is explicit: the submission queue is bounded, and a full
//! queue fails fast with [`SubmitError::Busy`] instead of growing without
//! bound. A scheduler event loop that sees `Busy` should resolve some of
//! its in-flight futures (or shed load) before submitting more.

use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{JoinHandle, Thread};

use crate::future::{LateOutcome, PoolFuture, Promise};

/// Submission failure of the async front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded submission queue is full — backpressure. Resolve some
    /// in-flight futures (e.g. [`PoolFuture::wait`]) and retry.
    Busy,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy => write!(f, "submission queue is full"),
        }
    }
}

impl std::error::Error for SubmitError {}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads fed from a bounded channel.
///
/// Jobs are opaque closures; the estimation service pairs each with a
/// [`Promise`](crate::future::Promise) so completion flows back through
/// the matching future. Dropping the pool closes the channel and joins
/// every worker (queued jobs still run to completion first).
///
/// The pool is **panic-resilient**: a job that unwinds is caught at the
/// worker loop, so the pool stays at full strength no matter what the
/// workload throws. Promise-settling jobs submitted through
/// [`try_execute_settling`](Self::try_execute_settling) additionally
/// resolve their future to [`LateOutcome::internal`] carrying the panic
/// payload, so no caller is ever stranded on an unsettled future.
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Panics that unwound out of a job and were caught by the worker
    /// loop (settling jobs catch their own, so they don't count here).
    panics: Arc<AtomicU64>,
}

impl WorkerPool {
    /// A pool of `threads` workers behind a queue holding at most
    /// `queue_depth` not-yet-claimed jobs. Both are clamped to at least 1.
    #[must_use]
    pub fn new(threads: usize, queue_depth: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = mpsc::sync_channel::<Job>(queue_depth.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let panics = Arc::new(AtomicU64::new(0));
        let workers = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("xmem-estimate-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while dequeuing, so
                        // workers run jobs concurrently.
                        let job = receiver.lock().expect("pool receiver poisoned").recv();
                        match job {
                            // Catch unwinds so one panicking job cannot
                            // take a worker thread down with it.
                            Ok(job) => {
                                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                    panics.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(_) => break, // channel closed: shut down
                        }
                    })
                    .expect("spawn estimation worker")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
            panics,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Panics that unwound out of a raw [`try_execute`](Self::try_execute)
    /// job and were caught by the worker loop. Settling jobs convert
    /// their panics into [`LateOutcome::internal`] results instead, so
    /// they leave this counter alone.
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Enqueues `job` without blocking.
    ///
    /// # Errors
    /// [`SubmitError::Busy`] when the queue is at capacity.
    pub fn try_execute(&self, job: Job) -> Result<(), SubmitError> {
        let sender = self.sender.as_ref().expect("pool sender lives until drop");
        match sender.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => Err(SubmitError::Busy),
        }
    }

    /// Enqueues `work` paired with `promise`: the worker claims the
    /// promise (skipping cancelled/expired queries without running them),
    /// runs `work`, and settles the promise with its output — or, if
    /// `work` panics, with [`LateOutcome::internal`] carrying the panic
    /// payload. Either way the matching future always settles and the
    /// worker thread survives.
    ///
    /// # Errors
    /// [`SubmitError::Busy`] when the queue is at capacity (the promise
    /// is dropped; its future never settles, matching a rejected
    /// submission).
    pub fn try_execute_settling<T, F>(
        &self,
        promise: Promise<T>,
        work: F,
    ) -> Result<(), SubmitError>
    where
        T: LateOutcome + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.try_execute(Box::new(move || settle_with(promise, work)))
    }
}

/// Runs `work` for `promise` on the calling thread and settles it with the
/// result, or with an internal error if `work` panics. A cancelled or
/// expired query is settled without running `work` at all.
pub(crate) fn settle_with<T: LateOutcome>(promise: Promise<T>, work: impl FnOnce() -> T) {
    if !promise.claim() {
        return;
    }
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(value) => {
            promise.complete(value);
        }
        Err(payload) => {
            promise.complete(T::internal(&panic_message(payload.as_ref())));
        }
    }
}

/// The calling-thread half of a query: the whole answer, read from the
/// caches, or what the reads found, handed on to the half that computes.
pub(crate) enum Probe<T, F> {
    /// The reads hold the whole answer.
    Done(T),
    /// Something must be computed from this state.
    Fill(F),
}

impl<T, F> Probe<T, F> {
    /// The answer, computing it with `fill` when the reads did not hold
    /// it — both halves on the calling thread.
    pub(crate) fn or_fill(self, fill: impl FnOnce(F) -> T) -> T {
        match self {
            Probe::Done(value) => value,
            Probe::Fill(state) => fill(state),
        }
    }

    /// The same probe with its fill state mapped by `f`.
    pub(crate) fn map_fill<G>(self, f: impl FnOnce(F) -> G) -> Probe<T, G> {
        match self {
            Probe::Done(value) => Probe::Done(value),
            Probe::Fill(state) => Probe::Fill(f(state)),
        }
    }
}

/// Runs `probe` for `promise` on the calling thread. A `Done` answer (or
/// a panic, as an internal error) settles the promise here; a `Fill`
/// hands the promise back with the state to compute from. A query whose
/// deadline has passed is settled without probing.
pub(crate) fn settle_or_defer<T: LateOutcome, F>(
    promise: Promise<T>,
    probe: impl FnOnce() -> Probe<T, F>,
) -> Option<(Promise<T>, F)> {
    if promise.expire_if_past_deadline() {
        return None;
    }
    match catch_unwind(AssertUnwindSafe(probe)) {
        Ok(Probe::Done(value)) => {
            promise.complete(value);
            None
        }
        Ok(Probe::Fill(state)) => Some((promise, state)),
        Err(payload) => {
            promise.complete(T::internal(&panic_message(payload.as_ref())));
            None
        }
    }
}

/// Best-effort extraction of a printable panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "estimation job panicked with a non-string payload".to_string()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel lets each worker's recv() error out.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Wakes a parked [`block_on`] thread.
struct ThreadWaker(Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives a single future to completion on the calling thread, parking
/// between polls. This is the bridge from synchronous scheduler code into
/// the async front end:
///
/// ```
/// use xmem_service::block_on;
///
/// let out = block_on(async { 2 + 2 });
/// assert_eq!(out, 4);
/// ```
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(output) => return output,
            Poll::Pending => std::thread::park(),
        }
    }
}

type BoxedTaskFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// One spawned task: its future plus the run-queue handle its waker
/// re-enqueues it on.
struct Task {
    future: Mutex<Option<BoxedTaskFuture>>,
    run_queue: Sender<Arc<Task>>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        // A send can only fail after the executor (and its receiver) is
        // gone, at which point the wake-up has nothing left to do.
        let _ = self.run_queue.send(Arc::clone(&self));
    }
}

/// A minimal single-threaded task executor: [`spawn`](Executor::spawn)
/// tasks, then [`run`](Executor::run) until all of them complete.
///
/// Tasks re-enqueue themselves onto a run queue when woken (the classic
/// hand-rolled design), so the executor sleeps while every task waits on
/// the worker pool and wakes exactly when completions arrive. This is the
/// event-loop shape a cluster scheduler embeds: submit an estimation
/// query per pending job, spawn a task per future, run.
///
/// ```
/// use xmem_service::Executor;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let executor = Executor::new();
/// let done = Arc::new(AtomicUsize::new(0));
/// for _ in 0..4 {
///     let done = Arc::clone(&done);
///     executor.spawn(async move {
///         done.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// executor.run();
/// assert_eq!(done.load(Ordering::Relaxed), 4);
/// ```
pub struct Executor {
    run_queue: Sender<Arc<Task>>,
    ready: Receiver<Arc<Task>>,
    /// Spawned-but-not-yet-completed task count.
    live: std::cell::Cell<usize>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("live", &self.live.get())
            .finish_non_exhaustive()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// An executor with an empty task set.
    #[must_use]
    pub fn new() -> Self {
        let (run_queue, ready) = mpsc::channel();
        Executor {
            run_queue,
            ready,
            live: std::cell::Cell::new(0),
        }
    }

    /// Registers `future` as a task; it first runs inside
    /// [`run`](Executor::run).
    pub fn spawn<F: Future<Output = ()> + Send + 'static>(&self, future: F) {
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(future))),
            run_queue: self.run_queue.clone(),
        });
        self.live.set(self.live.get() + 1);
        self.run_queue
            .send(task)
            .expect("executor holds the receiver");
    }

    /// Polls tasks until every spawned task has completed, sleeping while
    /// all of them are pending. Further tasks can be spawned and `run`
    /// called again; the executor is reusable.
    pub fn run(&self) {
        while self.live.get() > 0 {
            let task = self
                .ready
                .recv()
                .expect("executor holds a sender, the queue cannot close");
            let mut slot = task.future.lock().expect("task future poisoned");
            // A stale wake-up for an already-finished task finds no future.
            let Some(mut future) = slot.take() else {
                continue;
            };
            drop(slot);
            let waker = Waker::from(Arc::clone(&task));
            let mut cx = Context::from_waker(&waker);
            match future.as_mut().poll(&mut cx) {
                Poll::Ready(()) => self.live.set(self.live.get() - 1),
                Poll::Pending => {
                    *task.future.lock().expect("task future poisoned") = Some(future);
                }
            }
        }
    }
}

/// A future resolving to the outputs of `futures`, in input order, once
/// all of them settle. Hand-rolled `join_all`: polls only futures that
/// have not yet produced an output.
pub fn join_all<T: LateOutcome>(futures: Vec<PoolFuture<T>>) -> JoinAll<T> {
    let results = futures.iter().map(|_| None).collect();
    JoinAll { futures, results }
}

/// Future returned by [`join_all`].
#[derive(Debug)]
pub struct JoinAll<T: LateOutcome> {
    futures: Vec<PoolFuture<T>>,
    results: Vec<Option<T>>,
}

// No self-references: the futures and result slots are plain owned data,
// so moving a `JoinAll` between polls is fine.
impl<T: LateOutcome> Unpin for JoinAll<T> {}

impl<T: LateOutcome> Future for JoinAll<T> {
    type Output = Vec<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut pending = 0;
        for (future, slot) in this.futures.iter_mut().zip(this.results.iter_mut()) {
            if slot.is_some() {
                continue;
            }
            match Pin::new(&mut *future).poll(cx) {
                Poll::Ready(value) => *slot = Some(value),
                Poll::Pending => pending += 1,
            }
        }
        if pending > 0 {
            return Poll::Pending;
        }
        Poll::Ready(
            this.results
                .iter_mut()
                .map(|slot| slot.take().expect("all slots filled"))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::promise_pair;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;
    use xmem_core::EstimateError;

    #[test]
    fn pool_runs_jobs_concurrently() {
        let pool = WorkerPool::new(4, 16);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            pool.try_execute(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("queue has room");
        }
        drop(pool); // joins workers, draining the queue
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn full_queue_reports_busy() {
        let pool = WorkerPool::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        // Occupy the single worker until released.
        pool.try_execute(Box::new(move || {
            release_rx.recv().ok();
        }))
        .expect("first job");
        // Fill the queue slot, then overflow. The worker may or may not
        // have dequeued the blocker yet, so allow one or two successes —
        // but a bounded queue must reject before the fourth.
        let mut accepted = 0;
        let mut busy = 0;
        for _ in 0..3 {
            match pool.try_execute(Box::new(|| {})) {
                Ok(()) => accepted += 1,
                Err(SubmitError::Busy) => busy += 1,
            }
        }
        assert!(busy >= 1, "bounded queue must push back ({accepted} fit)");
        release_tx.send(()).ok();
    }

    #[test]
    fn a_panicking_job_settles_its_promise_and_spares_the_worker() {
        // One worker: if the panic killed it, nothing after it would run.
        let pool = WorkerPool::new(1, 16);
        let (promise, future) = promise_pair::<Result<u32, EstimateError>>(None);
        pool.try_execute_settling(promise, || -> Result<u32, EstimateError> {
            panic!("injected profiler failure")
        })
        .expect("queue has room");
        assert_eq!(
            future.wait(),
            Err(EstimateError::Internal(
                "injected profiler failure".to_string()
            ))
        );
        // The pool still serves the next N queries at full strength.
        for i in 0..8u32 {
            let (promise, future) = promise_pair::<Result<u32, EstimateError>>(None);
            pool.try_execute_settling(promise, move || Ok(i))
                .expect("queue has room");
            assert_eq!(future.wait(), Ok(i));
        }
        assert_eq!(
            pool.panics(),
            0,
            "settling jobs catch their own panics before the worker loop"
        );
    }

    #[test]
    fn a_panicking_raw_job_is_caught_by_the_worker_loop() {
        let pool = WorkerPool::new(1, 16);
        pool.try_execute(Box::new(|| panic!("raw job blew up")))
            .expect("queue has room");
        // The same (sole) worker must still be alive to answer this.
        let (promise, future) = promise_pair::<Result<u32, EstimateError>>(None);
        pool.try_execute_settling(promise, || Ok(7))
            .expect("queue has room");
        assert_eq!(future.wait(), Ok(7));
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn block_on_resolves_a_pool_future() {
        let (promise, future) = promise_pair::<Result<u32, EstimateError>>(None);
        let completer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            promise.complete(Ok(11));
        });
        assert_eq!(block_on(future), Ok(11));
        completer.join().expect("completer");
    }

    #[test]
    fn executor_drives_tasks_spawned_before_and_during_run() {
        let executor = Executor::new();
        let (promise, future) = promise_pair::<Result<u32, EstimateError>>(None);
        let seen = Arc::new(AtomicUsize::new(0));
        let seen_in_task = Arc::clone(&seen);
        executor.spawn(async move {
            let value = future.await.expect("completed");
            seen_in_task.fetch_add(value as usize, Ordering::SeqCst);
        });
        let completer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            promise.complete(Ok(5));
        });
        executor.run();
        completer.join().expect("completer");
        assert_eq!(seen.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn join_all_preserves_input_order() {
        let pairs: Vec<_> = (0..4)
            .map(|_| promise_pair::<Result<usize, EstimateError>>(None))
            .collect();
        let mut promises = Vec::new();
        let mut futures = Vec::new();
        for (p, f) in pairs {
            promises.push(p);
            futures.push(f);
        }
        // Complete in reverse order; outputs must still be in input order.
        let completer = std::thread::spawn(move || {
            for (i, promise) in promises.into_iter().enumerate().rev() {
                std::thread::sleep(Duration::from_millis(2));
                promise.complete(Ok(i));
            }
        });
        let outputs = block_on(join_all(futures));
        completer.join().expect("completer");
        assert_eq!(outputs, vec![Ok(0), Ok(1), Ok(2), Ok(3)]);
    }
}
