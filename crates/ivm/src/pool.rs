//! A persistent worker pool with panic-contained tasks.
//!
//! The transaction scheduler ([`crate::sched::TxnScheduler`]) dispatches
//! its drain tasks on it, once per run; that is the only place the
//! runtime runs anything concurrently. No external thread-pool crate is
//! used: a small bounded pool over `std::sync::mpsc` suffices.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use spacetime_obs::{self as obs, names as metric};

use crate::{IvmError, IvmResult};

type Job = Box<dyn FnOnce() + Send>;

/// A task's result as seen by the pool: the value, or the panic payload
/// rendered to a message. The pool never lets a task's unwind escape a
/// worker; callers turn a panic into a typed error
/// ([`crate::IvmError::TaskPanicked`]).
pub type TaskOutcome<T> = Result<T, String>;

/// Render a panic payload (string payloads verbatim, anything else typed).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A persistent worker pool for per-run fan-out.
///
/// Transactions are short (tens of microseconds) and a run is a few
/// dozen of them, so spawning OS threads per run would eat the parallel
/// win; the pool keeps its workers alive across runs and hands them
/// boxed jobs over a channel.
///
/// Panic containment: every task (pooled *and* inline) runs under
/// `catch_unwind`, so a panicking task never kills a worker's job loop
/// and never unwinds the caller. Should a worker thread nevertheless die,
/// the next dispatch detects and replaces it
/// ([`PipelinePool::run_outcomes`] calls `ensure_workers`), so one
/// poisoned transaction cannot degrade the pool for the rest of the
/// process.
#[derive(Debug)]
pub struct PipelinePool {
    tx: Option<Sender<Job>>,
    /// Shared job receiver, kept here too so worker respawn can re-attach
    /// to the same queue (and so `tx.send` cannot observe a closed
    /// channel while the pool is alive).
    rx: Option<Arc<Mutex<Receiver<Job>>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

fn spawn_worker(i: usize, rx: Arc<Mutex<Receiver<Job>>>) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("ivm-pipeline-{i}"))
        .spawn(move || loop {
            let job = {
                // A sibling worker that died while holding the lock (it
                // cannot panic during `recv`, but stay defensive) must not
                // take the whole pool down with lock poisoning.
                let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                guard.recv()
            };
            match job {
                Ok(job) => job(),
                Err(_) => return, // pool dropped
            }
        })
}

impl PipelinePool {
    /// A pool with an explicit worker count (≥ 1). With one thread, jobs
    /// run inline on the caller — useful for pinned determinism tests.
    pub fn new(threads: usize) -> Self {
        if threads <= 1 {
            return PipelinePool {
                tx: None,
                rx: None,
                workers: Mutex::new(Vec::new()),
            };
        }
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| spawn_worker(i, Arc::clone(&rx)).expect("spawn pipeline worker"))
            .collect();
        PipelinePool {
            tx: Some(tx),
            rx: Some(rx),
            workers: Mutex::new(workers),
        }
    }

    /// How many tasks can run at once (1: inline on the caller).
    pub(crate) fn width(&self) -> usize {
        self.workers.lock().unwrap_or_else(|e| e.into_inner()).len().max(1)
    }

    /// Replace workers whose threads have exited (e.g. a panic that
    /// escaped the per-job `catch_unwind`, which should be impossible, or
    /// a crashed thread). Called on every dispatch; a healthy pool pays
    /// one `is_finished` check per worker.
    fn ensure_workers(&self) {
        let Some(rx) = &self.rx else {
            return;
        };
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for (i, slot) in workers.iter_mut().enumerate() {
            if slot.is_finished() {
                if let Ok(fresh) = spawn_worker(i, Arc::clone(rx)) {
                    let dead = std::mem::replace(slot, fresh);
                    let _ = dead.join();
                    obs::counter_add(metric::POOL_RESPAWNS, 1);
                    obs::flight::record("worker_respawned", || format!("pool worker {i}"));
                }
            }
        }
    }

    /// Run every task, returning per-task outcomes in task order: `Ok`
    /// with the value, or `Err` with the rendered panic message if the
    /// task panicked. Tasks run on the workers (or inline when the pool
    /// has one thread or one task — *still* panic-contained); the caller
    /// blocks until all complete.
    pub fn run_outcomes<T: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send>>,
    ) -> IvmResult<Vec<TaskOutcome<T>>> {
        let execute = |task: Box<dyn FnOnce() -> T + Send>| -> TaskOutcome<T> {
            obs::gauge_add(metric::POOL_QUEUE_DEPTH, -1.0);
            let busy = obs::stopwatch();
            let out = catch_unwind(AssertUnwindSafe(task));
            busy.add_to_counter(metric::POOL_WORKER_BUSY_NS);
            out.map_err(|p| panic_message(p.as_ref()))
        };
        let n = tasks.len();
        obs::counter_add(metric::POOL_TASKS, n as u64);
        obs::gauge_add(metric::POOL_QUEUE_DEPTH, n as f64);
        let tx = match &self.tx {
            Some(tx) if n > 1 => tx,
            _ => return Ok(tasks.into_iter().map(execute).collect()),
        };
        self.ensure_workers();
        let (rtx, rrx) = channel::<(usize, TaskOutcome<T>)>();
        for (i, task) in tasks.into_iter().enumerate() {
            let rtx = rtx.clone();
            tx.send(Box::new(move || {
                let _ = rtx.send((i, execute(task)));
            }))
            .map_err(|_| {
                IvmError::Internal("pipeline pool job channel closed".into())
            })?;
        }
        drop(rtx);
        let mut slots: Vec<Option<TaskOutcome<T>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, outcome) = rrx.recv().map_err(|_| {
                IvmError::Internal(
                    "pipeline worker disconnected before reporting its task".into(),
                )
            })?;
            slots[i] = Some(outcome);
        }
        slots
            .into_iter()
            .map(|s| s.ok_or_else(|| IvmError::Internal("pipeline task slot unfilled".into())))
            .collect()
    }
}

impl Drop for PipelinePool {
    fn drop(&mut self) {
        self.tx.take(); // closes the channel; workers drain and exit
        self.rx.take();
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_returns_results_in_task_order() {
        let pool = PipelinePool::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let got = pool.run_outcomes(tasks).expect("pool dispatch healthy");
        assert_eq!(got, (0..32usize).map(|i| Ok(i * i)).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = PipelinePool::new(1);
        let tid = std::thread::current().id();
        let tasks: Vec<Box<dyn FnOnce() -> bool + Send>> = (0..4)
            .map(|_| {
                Box::new(move || std::thread::current().id() == tid)
                    as Box<dyn FnOnce() -> bool + Send>
            })
            .collect();
        let got = pool.run_outcomes(tasks).expect("pool dispatch healthy");
        assert_eq!(got, vec![Ok(true); 4]);
    }

    #[test]
    fn run_outcomes_contains_panics_at_every_width() {
        for width in [1usize, 2, 4] {
            let pool = PipelinePool::new(width);
            let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
                Box::new(|| 1),
                Box::new(|| panic!("boom at width")),
                Box::new(|| 3),
            ];
            let got = pool.run_outcomes(tasks).expect("pool dispatch healthy");
            assert_eq!(got[0], Ok(1));
            assert_eq!(got[1], Err("boom at width".to_string()));
            assert_eq!(got[2], Ok(3));
            // The pool still works afterwards.
            let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> =
                vec![Box::new(|| 7), Box::new(|| 8)];
            assert_eq!(
                pool.run_outcomes(tasks).expect("pool dispatch healthy"),
                vec![Ok(7), Ok(8)]
            );
        }
    }
}
