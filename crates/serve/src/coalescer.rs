//! The micro-batching coalescer: a bounded central queue that gathers
//! eval requests from every connection and flushes them to
//! [`Engine::evaluate_batch_with`] as one batch.
//!
//! The coalescer is work-conserving: whenever the flusher is free and the
//! queue is not empty, it takes up to `batch_max` requests at once. There
//! is no deadline to wait for — batches form from whatever arrived while
//! the previous batch was evaluating, so a lightly loaded server answers
//! each request as soon as it can, and a saturated one still amortizes the
//! worker pool and the warm caches across connections.
//!
//! Admission control is the queue bound: when `queue_depth` requests are
//! already waiting, new submissions are shed immediately with
//! [`SubmitError::Overloaded`] instead of growing an unbounded backlog.
//! Responses travel back on a per-request rendezvous channel; the engine's
//! streaming `notify` callback sends each one the moment its evaluation
//! finishes, so fast requests in a batch are not held hostage by slow
//! ones.

use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol;
use gbd_engine::{Engine, EvalRequest};
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Coalescer tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CoalescerConfig {
    /// Most requests one flush takes from the queue (min 1).
    pub batch_max: usize,
    /// Admission bound: submissions beyond this many queued requests are
    /// shed (min 1).
    pub queue_depth: usize,
}

impl Default for CoalescerConfig {
    fn default() -> Self {
        CoalescerConfig {
            batch_max: 32,
            queue_depth: 1024,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at `queue_depth`; the request was shed.
    Overloaded,
    /// The coalescer is draining for shutdown.
    ShuttingDown,
}

/// One admitted request waiting in the queue.
struct Pending {
    /// Wire correlation id, echoed on the response.
    id: u64,
    request: EvalRequest,
    /// Rendezvous back to the submitting connection's writer.
    tx: SyncSender<Json>,
    enqueued_at: Instant,
}

struct Queue {
    pending: VecDeque<Pending>,
    draining: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    config: CoalescerConfig,
    engine: Arc<Engine>,
    metrics: Arc<ServerMetrics>,
}

/// The running coalescer: submission front end plus its flusher thread.
pub struct Coalescer {
    shared: Arc<Shared>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

fn lock_queue(shared: &Shared) -> MutexGuard<'_, Queue> {
    // A panic while holding the queue lock cannot leave the protected
    // state half-updated in a way that matters (the queue is a VecDeque of
    // owned items), so recover the guard instead of propagating poison.
    shared
        .queue
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Coalescer {
    /// Starts the coalescer and its flusher thread.
    pub fn start(
        engine: Arc<Engine>,
        metrics: Arc<ServerMetrics>,
        config: CoalescerConfig,
    ) -> Arc<Coalescer> {
        let config = CoalescerConfig {
            batch_max: config.batch_max.max(1),
            queue_depth: config.queue_depth.max(1),
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                draining: false,
            }),
            wake: Condvar::new(),
            config,
            engine,
            metrics,
        });
        let worker_shared = Arc::clone(&shared);
        // Thread spawn failing at startup leaves an empty coalescer;
        // submissions will queue and the drain on shutdown flushes
        // them inline. In practice spawn only fails under resource
        // exhaustion, where the listener would have failed first.
        let flusher = std::thread::Builder::new()
            .name("gbd-flusher".to_string())
            .spawn(move || flusher_loop(&worker_shared))
            .ok();
        Arc::new(Coalescer {
            shared,
            flusher: Mutex::new(flusher),
        })
    }

    /// Submits one eval request. On admission, returns the receiver the
    /// response JSON will arrive on once its evaluation completes.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is full (the request is
    /// shed, not queued), [`SubmitError::ShuttingDown`] once draining has
    /// begun.
    pub fn submit(&self, id: u64, request: EvalRequest) -> Result<Receiver<Json>, SubmitError> {
        let mut queue = lock_queue(&self.shared);
        if queue.draining {
            return Err(SubmitError::ShuttingDown);
        }
        if queue.pending.len() >= self.shared.config.queue_depth {
            self.shared.metrics.shed.inc();
            return Err(SubmitError::Overloaded);
        }
        // Capacity 1 and exactly one send per request: the flusher's send
        // never blocks, whether or not the client is still listening.
        let (tx, rx) = mpsc::sync_channel(1);
        queue.pending.push_back(Pending {
            id,
            request,
            tx,
            enqueued_at: Instant::now(),
        });
        self.shared.metrics.admitted.inc();
        drop(queue);
        self.shared.wake.notify_one();
        Ok(rx)
    }

    /// Requests currently queued (not yet handed to the engine).
    pub fn queue_depth(&self) -> usize {
        lock_queue(&self.shared).pending.len()
    }

    /// Begins draining: rejects new submissions, flushes everything still
    /// queued, and joins the flusher thread. Every admitted request gets
    /// its response before this returns. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut queue = lock_queue(&self.shared);
            queue.draining = true;
        }
        self.shared.wake.notify_all();
        let handle = self
            .flusher
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
        if let Some(handle) = handle {
            // The flusher only exits by finishing the drain; a panic there
            // would already have been isolated per-request by the engine.
            let _ = handle.join();
        } else {
            // No flusher thread (spawn failed at startup): drain inline.
            // With `draining` set, the loop ends once the queue is empty.
            flusher_loop(&self.shared);
        }
    }
}

/// Flushes batches until draining completes with an empty queue.
fn flusher_loop(shared: &Shared) {
    while let Some(batch) = next_batch(shared) {
        flush(shared, batch);
    }
}

/// Blocks until the queue is not empty and takes up to `batch_max`
/// requests, or returns `None` when draining completes with an empty
/// queue.
fn next_batch(shared: &Shared) -> Option<Vec<Pending>> {
    let mut queue = lock_queue(shared);
    while queue.pending.is_empty() {
        if queue.draining {
            return None;
        }
        queue = shared
            .wake
            .wait(queue)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
    let take = queue.pending.len().min(shared.config.batch_max);
    Some(queue.pending.drain(..take).collect())
}

/// Evaluates one batch, streaming each response back to its connection as
/// the engine finishes it.
fn flush(shared: &Shared, batch: Vec<Pending>) {
    let metrics = &shared.metrics;
    metrics.batches_flushed.inc();
    // Anything short of a full batch is a partial-batch flush: all that
    // was queued when the flusher came free, or the tail of a drain.
    if batch.len() == shared.config.batch_max {
        metrics.flushes_by_size.inc();
    } else {
        metrics.flushes_by_timer.inc();
    }
    metrics.evaluated.add(batch.len() as u64);
    let requests: Vec<EvalRequest> = batch.iter().map(|p| p.request.clone()).collect();
    // Split the end-to-end latency at the flush boundary: everything
    // before `flushed_at` is queue wait (time spent behind the batch in
    // flight), everything after is engine compute for this batch.
    let flushed_at = Instant::now();
    // `notify` runs on engine worker threads; `response.index` is the
    // request's position in this batch, which indexes `batch` directly.
    shared.engine.evaluate_batch_with(&requests, |response| {
        let Some(pending) = batch.get(response.index) else {
            return;
        };
        metrics.latency.record(pending.enqueued_at.elapsed());
        metrics
            .queue_wait
            .record(flushed_at.saturating_duration_since(pending.enqueued_at));
        metrics.compute.record(flushed_at.elapsed());
        if let Some(backend) = metrics.backend_latency(response.served_by) {
            backend.record(flushed_at.elapsed());
        }
        let rendered = protocol::render_response(pending.id, response);
        // A send only fails when the connection died while the request was
        // in flight; the result is simply dropped.
        let _ = pending.tx.send(rendered);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_core::params::SystemParams;
    use gbd_engine::{BackendSpec, SimulationSpec};
    use std::sync::mpsc::TryRecvError;
    use std::time::Duration;

    fn request(n: usize) -> EvalRequest {
        EvalRequest::new(
            SystemParams::paper_defaults().with_n_sensors(n),
            BackendSpec::Poisson,
        )
    }

    fn start(config: CoalescerConfig) -> (Arc<Coalescer>, Arc<ServerMetrics>) {
        let metrics = Arc::new(ServerMetrics::new());
        let engine = Arc::new(Engine::with_workers(2));
        (
            Coalescer::start(engine, Arc::clone(&metrics), config),
            metrics,
        )
    }

    /// Submits a simulation campaign that keeps the flusher busy for far
    /// longer than it takes to submit a handful of requests, and returns
    /// once the flusher has taken it off the queue. Everything submitted
    /// afterwards queues behind a busy flusher.
    fn hold_flusher(coalescer: &Coalescer) -> Receiver<Json> {
        let slow = EvalRequest::new(
            SystemParams::paper_defaults(),
            BackendSpec::Simulation(SimulationSpec {
                trials: 20_000,
                ..SimulationSpec::default()
            }),
        );
        let rx = coalescer.submit(u64::MAX, slow).unwrap();
        while coalescer.queue_depth() > 0 {
            std::thread::yield_now();
        }
        rx
    }

    /// Asserts the request from [`hold_flusher`] is still evaluating, so
    /// the submissions made since all queued behind it.
    fn assert_still_held(slow: &Receiver<Json>) {
        assert_eq!(
            slow.try_recv().unwrap_err(),
            TryRecvError::Empty,
            "the slow request finished before the queue was filled"
        );
    }

    #[test]
    fn coalesces_concurrent_submissions_into_one_batch() {
        let (coalescer, metrics) = start(CoalescerConfig {
            batch_max: 8,
            queue_depth: 64,
        });
        // 8 requests arrive while the flusher is busy: the next flush takes
        // all of them, a full batch, as one.
        let slow = hold_flusher(&coalescer);
        let receivers: Vec<_> = (0..8)
            .map(|i| coalescer.submit(i as u64, request(100 + i)).unwrap())
            .collect();
        assert_still_held(&slow);
        assert_eq!(coalescer.queue_depth(), 8);
        assert!(slow.recv_timeout(Duration::from_secs(120)).is_ok());
        for (i, rx) in receivers.into_iter().enumerate() {
            let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(response.get("id").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        }
        // Two flushes: the slow request alone (partial), then the 8 (full).
        assert_eq!(metrics.batches_flushed.get(), 2);
        assert_eq!(metrics.evaluated.get(), 9);
        assert_eq!(metrics.coalescing_factor(), 4.5);
        assert_eq!(metrics.flushes_by_size.get(), 1);
        assert_eq!(metrics.flushes_by_timer.get(), 1);
        // Every request in the full batch was served by the poisson
        // backend; its per-backend histogram saw all 8.
        assert_eq!(metrics.backend_latency("poisson").unwrap().count(), 8);
        assert_eq!(metrics.backend_latency("sim").unwrap().count(), 1);
        coalescer.shutdown();
    }

    #[test]
    fn lone_submission_is_flushed_without_further_traffic() {
        let (coalescer, metrics) = start(CoalescerConfig {
            batch_max: 1000,
            queue_depth: 64,
        });
        // Far below `batch_max` and nothing else arriving: the free
        // flusher takes it at once rather than waiting for company.
        let rx = coalescer.submit(7, request(50)).unwrap();
        let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(metrics.batches_flushed.get(), 1);
        assert_eq!(metrics.flushes_by_timer.get(), 1);
        assert_eq!(metrics.flushes_by_size.get(), 0);
        coalescer.shutdown();
    }

    #[test]
    fn submissions_during_a_busy_flush_go_out_as_one_batch() {
        const N: usize = 5;
        let (coalescer, metrics) = start(CoalescerConfig {
            batch_max: 1000,
            queue_depth: 64,
        });
        let slow = hold_flusher(&coalescer);
        let receivers: Vec<_> = (0..N)
            .map(|i| coalescer.submit(i as u64, request(60 + 30 * i)).unwrap())
            .collect();
        assert_still_held(&slow);
        assert!(slow.recv_timeout(Duration::from_secs(120)).is_ok());
        for (i, rx) in receivers.into_iter().enumerate() {
            let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(response.get("id").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        }
        // The slow request's flush, then exactly one flush for all N.
        assert_eq!(metrics.batches_flushed.get(), 2);
        assert_eq!(metrics.evaluated.get(), N as u64 + 1);
        assert_eq!(metrics.flushes_by_timer.get(), 2);
        assert_eq!(metrics.flushes_by_size.get(), 0);
        coalescer.shutdown();
    }

    #[test]
    fn sheds_when_queue_is_full() {
        let (coalescer, metrics) = start(CoalescerConfig {
            batch_max: 1000,
            queue_depth: 3,
        });
        // The busy flusher takes nothing from the queue while we overfill.
        let slow = hold_flusher(&coalescer);
        let kept: Vec<_> = (0..3)
            .map(|i| coalescer.submit(i, request(40)).unwrap())
            .collect();
        assert_eq!(
            coalescer.submit(99, request(40)).unwrap_err(),
            SubmitError::Overloaded
        );
        assert_still_held(&slow);
        assert_eq!(metrics.shed.get(), 1);
        assert_eq!(coalescer.queue_depth(), 3);
        // Shutdown drains the admitted three; each still gets its answer.
        coalescer.shutdown();
        assert!(slow.recv_timeout(Duration::from_secs(30)).is_ok());
        for rx in kept {
            assert!(rx.recv_timeout(Duration::from_secs(30)).is_ok());
        }
    }

    #[test]
    fn shutdown_rejects_new_work_and_is_idempotent() {
        let (coalescer, _metrics) = start(CoalescerConfig::default());
        coalescer.shutdown();
        assert_eq!(
            coalescer.submit(1, request(40)).unwrap_err(),
            SubmitError::ShuttingDown
        );
        coalescer.shutdown();
    }
}
