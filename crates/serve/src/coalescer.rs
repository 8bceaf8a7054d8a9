//! The micro-batching coalescer: a bounded central queue that gathers
//! eval requests from every connection, and the engine's long-lived
//! workers that evaluate them.
//!
//! The coalescer is work-conserving at request granularity. It runs
//! [`Engine::workers`] threads (`gbd-worker-N`). Under the queue mutex, a
//! free worker claims the next unclaimed slot of the current batch; when
//! no slot is left, it drains up to `batch_max` queued requests as the
//! next batch, plans it once with [`Engine::plan_batch`] (the engine's
//! geometry-grouped schedule and chaos faults), and claims its first
//! slot. There is no deadline to wait for, no thread spawned per batch,
//! and no barrier at the end of one: a worker that finishes its request
//! claims the next at once, and a slow simulation occupies one worker
//! instead of holding the whole queue behind it. Under load, batches
//! still form from whatever arrived while the workers were busy, so the
//! warm caches are amortized across connections.
//!
//! Admission control is the queue bound: when `queue_depth` requests are
//! already waiting, new submissions are shed immediately with
//! [`SubmitError::Overloaded`] instead of growing an unbounded backlog.
//! Responses travel back on a per-request rendezvous channel, sent the
//! moment the request's evaluation finishes.

use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::{self, ErrorCode};
use gbd_engine::{BatchPlan, Engine, EvalRequest};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Coalescer tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CoalescerConfig {
    /// Most requests one batch takes from the queue (min 1).
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

/// Where one admitted request's answer goes.
struct Reply {
    /// Wire correlation id, echoed on the response.
    id: u64,
    /// Rendezvous back to the submitting connection's writer.
    tx: SyncSender<Json>,
    enqueued_at: Instant,
}

/// One admitted request waiting in the queue.
struct Pending {
    reply: Reply,
    request: EvalRequest,
}

/// A batch drained from the queue. `replies[i]` answers `requests[i]`;
/// the plan's slots name requests by that index.
struct Batch {
    requests: Vec<EvalRequest>,
    replies: Vec<Reply>,
    plan: BatchPlan,
}

/// The batch workers are claiming slots of. Present only while it has an
/// unclaimed slot (`next < plan.len()`).
struct Current {
    batch: Arc<Batch>,
    next: usize,
}

struct Queue {
    pending: VecDeque<Pending>,
    current: Option<Current>,
    draining: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    config: CoalescerConfig,
    engine: Arc<Engine>,
    metrics: Arc<ServerMetrics>,
}

/// The running coalescer: submission front end plus its worker threads.
pub struct Coalescer {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

fn lock_queue(shared: &Shared) -> MutexGuard<'_, Queue> {
    // Evaluation and rendering run outside the queue lock, and every
    // update under it leaves the queue valid, so recover the guard
    // instead of propagating poison.
    shared
        .queue
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Coalescer {
    /// Starts the coalescer and one worker thread per engine worker.
    pub fn start(
        engine: Arc<Engine>,
        metrics: Arc<ServerMetrics>,
        config: CoalescerConfig,
    ) -> Arc<Coalescer> {
        let config = CoalescerConfig {
            batch_max: config.batch_max.max(1),
            queue_depth: config.queue_depth.max(1),
        };
        let workers = engine.workers();
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                current: None,
                draining: false,
            }),
            wake: Condvar::new(),
            config,
            engine,
            metrics,
        });
        // A failed spawn leaves fewer workers; with none at all,
        // submissions queue and the drain on shutdown evaluates them
        // inline. In practice spawn only fails under resource exhaustion,
        // where the listener would have failed first.
        let handles = (0..workers)
            .filter_map(|n| {
                let worker_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gbd-worker-{n}"))
                    .spawn(move || worker_loop(&worker_shared))
                    .ok()
            })
            .collect();
        Arc::new(Coalescer {
            shared,
            workers: Mutex::new(handles),
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
        // Capacity 1 and exactly one send per request: the worker's send
        // never blocks, whether or not the client is still listening.
        let (tx, rx) = mpsc::sync_channel(1);
        queue.pending.push_back(Pending {
            reply: Reply {
                id,
                tx,
                enqueued_at: Instant::now(),
            },
            request,
        });
        self.shared.metrics.admitted.inc();
        drop(queue);
        self.shared.wake.notify_one();
        Ok(rx)
    }

    /// Requests currently queued (not yet drained into a batch).
    pub fn queue_depth(&self) -> usize {
        lock_queue(&self.shared).pending.len()
    }

    /// Begins draining: rejects new submissions, evaluates everything
    /// still queued, and joins the worker threads. Every admitted request
    /// gets its response before this returns. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut queue = lock_queue(&self.shared);
            queue.draining = true;
        }
        self.shared.wake.notify_all();
        let handles = std::mem::take(
            &mut *self
                .workers
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        if handles.is_empty() {
            // No worker threads (spawn failed at startup, or a previous
            // shutdown joined them): drain inline. With `draining` set,
            // the loop ends once nothing is left to claim.
            worker_loop(&self.shared);
        }
        for handle in handles {
            // Workers only exit by finishing the drain; panics around an
            // evaluation are caught per request in `serve_slot`.
            let _ = handle.join();
        }
    }
}

/// Serves claimed slots until draining completes with nothing left.
fn worker_loop(shared: &Shared) {
    while let Some((batch, slot, claimed_at)) = claim(shared) {
        serve_slot(shared, &batch, slot, claimed_at);
    }
}

/// Blocks until a slot can be claimed and claims it: the next slot of the
/// current batch, or the first slot of a batch drained from the queue.
/// Wakes another worker while the batch has unclaimed slots left. Returns
/// `None` once draining completes with nothing left to claim.
fn claim(shared: &Shared) -> Option<(Arc<Batch>, usize, Instant)> {
    let mut queue = lock_queue(shared);
    loop {
        if queue.current.is_none() && !queue.pending.is_empty() {
            let take = queue.pending.len().min(shared.config.batch_max);
            let drained: Vec<Pending> = queue.pending.drain(..take).collect();
            queue.current = Some(Current {
                batch: Arc::new(form_batch(shared, drained)),
                next: 0,
            });
        }
        if let Some(current) = &mut queue.current {
            let slot = current.next;
            current.next += 1;
            let batch = Arc::clone(&current.batch);
            if current.next == batch.plan.len() {
                queue.current = None;
            } else {
                shared.wake.notify_one();
            }
            return Some((batch, slot, Instant::now()));
        }
        if queue.draining {
            return None;
        }
        queue = shared
            .wake
            .wait(queue)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
}

/// Plans a batch drained from the queue and counts it.
fn form_batch(shared: &Shared, drained: Vec<Pending>) -> Batch {
    let metrics = &shared.metrics;
    metrics.batches_flushed.inc();
    // Anything short of a full batch is a partial-batch flush: all that
    // was queued when a worker came free, or the tail of a drain.
    if drained.len() == shared.config.batch_max {
        metrics.flushes_by_size.inc();
    } else {
        metrics.flushes_by_timer.inc();
    }
    metrics.evaluated.add(drained.len() as u64);
    let (replies, requests): (Vec<Reply>, Vec<EvalRequest>) = drained
        .into_iter()
        .map(|pending| (pending.reply, pending.request))
        .unzip();
    let plan = shared.engine.plan_batch(&requests);
    Batch {
        requests,
        replies,
        plan,
    }
}

/// Evaluates the request at `slot` and sends its response. The latency
/// splits at the claim: queue wait is claim − enqueue, compute is done −
/// claim. A panic that escapes the engine's own per-request boundary, or
/// one in rendering the response, answers this request with
/// `worker_panicked` and leaves the worker serving.
fn serve_slot(shared: &Shared, batch: &Batch, slot: usize, claimed_at: Instant) {
    let Some(reply) = batch
        .plan
        .request_index(slot)
        .and_then(|i| batch.replies.get(i))
    else {
        return;
    };
    let evaluated = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        tests::maybe_inject_panic(reply.id, tests::PANIC_IN_EVAL);
        shared
            .engine
            .evaluate_planned(&batch.plan, &batch.requests, slot)
    }));
    let done = Instant::now();
    let metrics = &shared.metrics;
    metrics.latency.record(done - reply.enqueued_at);
    metrics.queue_wait.record(claimed_at - reply.enqueued_at);
    metrics.compute.record(done - claimed_at);
    let rendered = evaluated.and_then(|response| {
        if let Some(backend) = metrics.backend_latency(response.served_by) {
            backend.record(done - claimed_at);
        }
        catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            tests::maybe_inject_panic(reply.id, tests::PANIC_IN_RENDER);
            protocol::render_response(reply.id, &response)
        }))
    });
    let rendered = rendered.unwrap_or_else(|payload| {
        protocol::error_response(
            Some(reply.id),
            ErrorCode::WorkerPanicked,
            &format!("worker panicked: {}", panic_message(payload.as_ref())),
        )
    });
    // A send only fails when the connection died while the request was
    // in flight; the result is simply dropped.
    let _ = reply.tx.send(rendered);
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_core::params::SystemParams;
    use gbd_engine::{BackendSpec, SimulationSpec};
    use std::sync::mpsc::TryRecvError;
    use std::time::Duration;

    /// Request id whose evaluation panics outside the engine's boundary.
    pub(super) const PANIC_IN_EVAL: u64 = 9_001;
    /// Request id whose response rendering panics.
    pub(super) const PANIC_IN_RENDER: u64 = 9_002;

    /// Test seam in [`serve_slot`]: panics when `id` is the injection id
    /// `at` names.
    pub(super) fn maybe_inject_panic(id: u64, at: u64) {
        if id == at {
            panic!("injected panic outside the engine boundary");
        }
    }

    fn request(n: usize) -> EvalRequest {
        EvalRequest::new(
            SystemParams::paper_defaults().with_n_sensors(n),
            BackendSpec::Poisson,
        )
    }

    fn start(config: CoalescerConfig, workers: usize) -> (Arc<Coalescer>, Arc<ServerMetrics>) {
        let metrics = Arc::new(ServerMetrics::new());
        let engine = Arc::new(Engine::with_workers(workers));
        (
            Coalescer::start(engine, Arc::clone(&metrics), config),
            metrics,
        )
    }

    /// Submits a simulation campaign that keeps one worker busy for far
    /// longer than it takes to submit a handful of requests, and returns
    /// once a worker has claimed it. Distinct `seed`s keep campaigns from
    /// sharing a result-cache entry.
    fn hold_worker(coalescer: &Coalescer, seed: u64) -> Receiver<Json> {
        let slow = EvalRequest::new(
            SystemParams::paper_defaults(),
            BackendSpec::Simulation(SimulationSpec {
                trials: 20_000,
                seed,
                ..SimulationSpec::default()
            }),
        );
        let rx = coalescer.submit(u64::MAX - seed, slow).unwrap();
        // Draining a batch and claiming its first slot happen under one
        // lock, so an empty queue means a worker has claimed the campaign.
        while coalescer.queue_depth() > 0 {
            std::thread::yield_now();
        }
        rx
    }

    /// Holds every one of `workers` workers with its own campaign, so
    /// everything submitted afterwards queues.
    fn hold_workers(coalescer: &Coalescer, workers: usize) -> Vec<Receiver<Json>> {
        (1..=workers as u64)
            .map(|seed| hold_worker(coalescer, seed))
            .collect()
    }

    /// Asserts the requests from [`hold_workers`] are still evaluating, so
    /// the submissions made since all queued behind them.
    fn assert_still_held(slow: &[Receiver<Json>]) {
        for rx in slow {
            assert_eq!(
                rx.try_recv().unwrap_err(),
                TryRecvError::Empty,
                "a slow request finished before the queue was filled"
            );
        }
    }

    fn wait_all(slow: Vec<Receiver<Json>>) {
        for rx in slow {
            let response = rx.recv_timeout(Duration::from_secs(120)).unwrap();
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        }
    }

    #[test]
    fn coalesces_concurrent_submissions_into_one_batch() {
        let (coalescer, metrics) = start(
            CoalescerConfig {
                batch_max: 8,
                queue_depth: 64,
            },
            2,
        );
        // 8 requests arrive while both workers are busy: the first worker
        // to come free takes all of them, a full batch, as one.
        let slow = hold_workers(&coalescer, 2);
        let receivers: Vec<_> = (0..8)
            .map(|i| coalescer.submit(i as u64, request(100 + i)).unwrap())
            .collect();
        assert_still_held(&slow);
        assert_eq!(coalescer.queue_depth(), 8);
        wait_all(slow);
        for (i, rx) in receivers.into_iter().enumerate() {
            let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(response.get("id").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        }
        // Three batches: each slow request alone (partial), then the 8
        // (full).
        assert_eq!(metrics.batches_flushed.get(), 3);
        assert_eq!(metrics.evaluated.get(), 10);
        assert_eq!(metrics.coalescing_factor(), 10.0 / 3.0);
        assert_eq!(metrics.flushes_by_size.get(), 1);
        assert_eq!(metrics.flushes_by_timer.get(), 2);
        // Every request in the full batch was served by the poisson
        // backend; its per-backend histogram saw all 8.
        assert_eq!(metrics.backend_latency("poisson").unwrap().count(), 8);
        assert_eq!(metrics.backend_latency("sim").unwrap().count(), 2);
        coalescer.shutdown();
    }

    #[test]
    fn lone_submission_is_flushed_without_further_traffic() {
        let (coalescer, metrics) = start(
            CoalescerConfig {
                batch_max: 1000,
                queue_depth: 64,
            },
            2,
        );
        // Far below `batch_max` and nothing else arriving: a free worker
        // takes it at once rather than waiting for company.
        let rx = coalescer.submit(7, request(50)).unwrap();
        let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(metrics.batches_flushed.get(), 1);
        assert_eq!(metrics.flushes_by_timer.get(), 1);
        assert_eq!(metrics.flushes_by_size.get(), 0);
        coalescer.shutdown();
    }

    #[test]
    fn submissions_while_every_worker_is_busy_go_out_as_one_batch() {
        const N: usize = 5;
        let (coalescer, metrics) = start(
            CoalescerConfig {
                batch_max: 1000,
                queue_depth: 64,
            },
            2,
        );
        let slow = hold_workers(&coalescer, 2);
        let receivers: Vec<_> = (0..N)
            .map(|i| coalescer.submit(i as u64, request(60 + 30 * i)).unwrap())
            .collect();
        assert_still_held(&slow);
        wait_all(slow);
        for (i, rx) in receivers.into_iter().enumerate() {
            let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(response.get("id").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        }
        // One batch per slow request, then exactly one batch for all N.
        assert_eq!(metrics.batches_flushed.get(), 3);
        assert_eq!(metrics.evaluated.get(), N as u64 + 2);
        assert_eq!(metrics.flushes_by_timer.get(), 3);
        assert_eq!(metrics.flushes_by_size.get(), 0);
        coalescer.shutdown();
    }

    #[test]
    fn a_slow_request_does_not_block_a_fast_one_behind_it() {
        let (coalescer, metrics) = start(
            CoalescerConfig {
                batch_max: 1000,
                queue_depth: 64,
            },
            2,
        );
        // One worker runs the campaign; the fast request submitted after
        // it is answered by the other while the campaign still runs.
        let slow = hold_worker(&coalescer, 1);
        let fast = coalescer.submit(1, request(60)).unwrap();
        let response = fast.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert_still_held(std::slice::from_ref(&slow));
        assert_eq!(metrics.backend_latency("sim").unwrap().count(), 0);
        wait_all(vec![slow]);
        coalescer.shutdown();
    }

    #[test]
    fn panics_around_an_evaluation_answer_worker_panicked_and_keep_serving() {
        // One worker: if a panic killed it, nothing after would be served.
        let (coalescer, metrics) = start(CoalescerConfig::default(), 1);
        for id in [PANIC_IN_EVAL, PANIC_IN_RENDER] {
            let rx = coalescer.submit(id, request(60)).unwrap();
            let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(
                response
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some("worker_panicked")
            );
        }
        let rx = coalescer.submit(3, request(60)).unwrap();
        let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        // Every evaluated request, panicked or not, is in the latency
        // split.
        assert_eq!(metrics.evaluated.get(), 3);
        assert_eq!(metrics.latency.count(), 3);
        assert_eq!(metrics.queue_wait.count(), 3);
        assert_eq!(metrics.compute.count(), 3);
        coalescer.shutdown();
    }

    #[test]
    fn sheds_when_queue_is_full() {
        let (coalescer, metrics) = start(
            CoalescerConfig {
                batch_max: 1000,
                queue_depth: 3,
            },
            2,
        );
        // The busy workers take nothing from the queue while we overfill.
        let slow = hold_workers(&coalescer, 2);
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
        wait_all(slow);
        for rx in kept {
            assert!(rx.recv_timeout(Duration::from_secs(30)).is_ok());
        }
    }

    #[test]
    fn shutdown_rejects_new_work_and_is_idempotent() {
        let (coalescer, _metrics) = start(CoalescerConfig::default(), 2);
        coalescer.shutdown();
        assert_eq!(
            coalescer.submit(1, request(40)).unwrap_err(),
            SubmitError::ShuttingDown
        );
        coalescer.shutdown();
    }
}
