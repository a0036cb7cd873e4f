//! A bounded worker pool with submission backpressure.
//!
//! Jobs (RECORD/REPLAY/VERIFY/RACES closures) queue into a
//! fixed-capacity deque served by OS worker threads. A full queue
//! rejects the submission — [`WorkerPool::try_submit`] returns the task
//! to the caller, which the server surfaces as a `Busy` response
//! instead of buffering unboundedly (the wire protocol's backpressure
//! story). Shutdown is graceful: workers drain every queued task before
//! exiting, so no accepted session is left dangling; combined with the
//! store's stage-and-rename commit this is what makes shutdown unable
//! to leave a torn store entry.
//!
//! Dispatch is condvar-driven end to end — no polling anywhere — and
//! the pool is panic-tolerant: a task that panics is contained
//! ([`std::panic::catch_unwind`]), its worker keeps serving, and every
//! lock acquisition recovers from poisoning, so one panicking job can
//! never wedge [`WorkerPool::drain`] or shutdown. Answering for a
//! panicking daemon task (failing its session, answering its QUERY) is
//! `server::contained`'s job, which wraps every task the daemon submits.
//!
//! Workers run at a lower CPU priority than the event loop
//! ([`lower_priority`]).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A unit of work.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

struct State {
    queue: VecDeque<Task>,
    shutting_down: bool,
    active: usize,
}

struct Inner {
    state: Mutex<State>,
    capacity: usize,
    wake: Condvar,
    idle: Condvar,
}

impl Inner {
    /// Locks the pool state, recovering from poisoning: the state is a
    /// plain queue + counters, consistent at every await point, so a
    /// panic elsewhere must not wedge drain/shutdown behind a
    /// `PoisonError`.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed-size thread pool over a bounded queue.
pub struct WorkerPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads over a queue of `capacity` pending
    /// tasks (both at least 1).
    pub fn new(workers: usize, capacity: usize) -> WorkerPool {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutting_down: false,
                active: 0,
            }),
            capacity: capacity.max(1),
            wake: Condvar::new(),
            idle: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("qr-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning worker thread")
            })
            .collect();
        WorkerPool { inner, workers: handles }
    }

    /// Queues a task, or returns it when the queue is full
    /// (backpressure) or the pool is shutting down.
    ///
    /// # Errors
    ///
    /// Returns the rejected task plus the current queue length.
    pub fn try_submit(&self, task: Task) -> std::result::Result<(), (Task, usize)> {
        let mut state = self.inner.lock();
        if state.shutting_down || state.queue.len() >= self.inner.capacity {
            let queued = state.queue.len();
            return Err((task, queued));
        }
        state.queue.push_back(task);
        drop(state);
        self.inner.wake.notify_one();
        Ok(())
    }

    /// Pending (not yet started) tasks.
    pub fn queued(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Blocks until the queue is empty and every worker is idle.
    pub fn drain(&self) {
        let mut state = self.inner.lock();
        while !state.queue.is_empty() || state.active > 0 {
            state = self.inner.idle.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops accepting work, drains every queued task, and joins the
    /// workers.
    fn stop_and_join(&mut self) {
        self.inner.lock().shutting_down = true;
        self.inner.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// Declared directly (no libc crate), as `poll` is in `event.rs`.
#[cfg(target_os = "linux")]
extern "C" {
    fn nice(inc: std::ffi::c_int) -> std::ffi::c_int;
}

/// Lowers the calling worker thread's CPU priority by 10 nice levels,
/// so that with every core busy simulating the event loop still gets a
/// core as soon as it wakes: a JOBS poll is answered while a job runs,
/// not whenever the scheduler next preempts a worker. Best effort; on
/// other systems the nice value is the whole process's, so it is left.
fn lower_priority() {
    #[cfg(target_os = "linux")]
    // SAFETY: nice(2) takes an integer and touches no memory of ours.
    unsafe {
        nice(10);
    }
}

fn worker_loop(inner: &Inner) {
    lower_priority();
    loop {
        let task = {
            let mut state = inner.lock();
            loop {
                if let Some(task) = state.queue.pop_front() {
                    state.active += 1;
                    break task;
                }
                if state.shutting_down {
                    return;
                }
                state = inner.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Contain panics so `active` is always decremented: a panicking
        // job must not leave drain() waiting on a worker that will never
        // report idle (and must not kill the worker thread either).
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        let mut state = inner.lock();
        state.active -= 1;
        let all_idle = state.queue.is_empty() && state.active == 0;
        drop(state);
        if all_idle {
            inner.idle.notify_all();
        }
    }
}

#[cfg(test)]
impl WorkerPool {
    /// What dropping the pool does, spelled out where tests rely on it.
    fn shutdown(mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn runs_everything_submitted() {
        let pool = WorkerPool::new(4, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.try_submit(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap_or_else(|_| panic!("queue should not fill"));
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
        pool.shutdown();
    }

    #[test]
    fn full_queue_applies_backpressure() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = WorkerPool::new(1, 2);
        // Block the single worker.
        let g = Arc::clone(&gate);
        pool.try_submit(Box::new(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }))
        .unwrap_or_else(|_| panic!("first submit"));
        // Wait for the worker to pick the blocker up, then fill the queue.
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        pool.try_submit(Box::new(|| {})).unwrap_or_else(|_| panic!("fills slot 1"));
        pool.try_submit(Box::new(|| {})).unwrap_or_else(|_| panic!("fills slot 2"));
        let rejected = pool.try_submit(Box::new(|| {}));
        assert!(rejected.is_err(), "third pending task must be rejected");
        assert_eq!(rejected.err().map(|(_, q)| q), Some(2));
        // Open the gate; everything drains.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.drain();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(2, 128);
        for _ in 0..40 {
            let counter = Arc::clone(&counter);
            pool.try_submit(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                counter.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap_or_else(|_| panic!("submit"));
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 40, "shutdown must drain the queue");
    }

    #[test]
    fn panicking_task_does_not_wedge_drain_or_shutdown() {
        let pool = WorkerPool::new(2, 16);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.try_submit(Box::new(|| panic!("job blew up")))
            .unwrap_or_else(|_| panic!("submit panicker"));
        for _ in 0..8 {
            let counter = Arc::clone(&counter);
            pool.try_submit(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap_or_else(|_| panic!("submit"));
        }
        // Drain must return even though one task panicked mid-flight.
        pool.drain();
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        // Workers survived the panic: the pool still executes new work.
        let counter2 = Arc::clone(&counter);
        pool.try_submit(Box::new(move || {
            counter2.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap_or_else(|_| panic!("submit after panic"));
        pool.drain();
        assert_eq!(counter.load(Ordering::SeqCst), 9);
        pool.shutdown();
    }

    #[test]
    fn dispatch_latency_is_not_sleep_quantized() {
        // Regression test for the polling dispatch this pool once had: a
        // submit→complete round trip must go through condvar wakeups, so
        // many sequential round trips stay far under what any
        // millisecond-granular sleep loop could deliver.
        let pool = WorkerPool::new(1, 16);
        let rounds = 50u32;
        let started = Instant::now();
        for _ in 0..rounds {
            let done = Arc::new((Mutex::new(false), Condvar::new()));
            let task_done = Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                let (lock, cv) = &*task_done;
                *lock.lock().unwrap() = true;
                cv.notify_all();
            }))
            .unwrap_or_else(|_| panic!("submit"));
            let (lock, cv) = &*done;
            let mut finished = lock.lock().unwrap();
            while !*finished {
                finished = cv.wait(finished).unwrap();
            }
        }
        let elapsed = started.elapsed();
        // 50 round trips through a 1 ms-sleep dispatcher would take
        // >= 50 ms; condvar dispatch does all of them in a few
        // milliseconds. The 25 ms bound keeps a 10x margin for slow CI
        // hosts while still catching any sleep-quantized dispatch.
        assert!(
            elapsed < Duration::from_millis(25),
            "{rounds} dispatch round trips took {elapsed:?} — dispatch looks sleep-quantized"
        );
        pool.shutdown();
    }
}
