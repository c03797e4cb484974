//! The adaptive micro-batching scheduler.
//!
//! Small classify requests are cheap to compute and expensive to dispatch:
//! every dispatch pays a scheduler wake-up and reply regardless of size, and
//! a batch over the engine's inline limit
//! ([`INLINE_CLASSIFY_MAX_NEURON_WORDS`](bsom_engine::INLINE_CLASSIFY_MAX_NEURON_WORDS))
//! also pays one worker-pool round trip. The scheduler amortizes that fixed
//! cost the way the paper's FPGA comparator pipeline amortizes per-frame
//! overheads — requests arriving close together coalesce into **one**
//! `classify_batch` call.
//!
//! The state machine (documented in DESIGN.md §"The serving front-end"):
//!
//! 1. **Idle** — block on the pending queue. The first request opens a batch
//!    and starts a deadline `now + delay`.
//! 2. **Collecting** — greedily drain the queue into the batch; once the
//!    queue is momentarily empty, sleep until the next arrival or the
//!    deadline, whichever is first.
//! 3. **Dispatch** — triggered by *size* (the batch reached
//!    [`SchedulerConfig::max_batch_signatures`]), by *deadline*, or by a
//!    *drain* sentinel. The whole batch goes through one
//!    [`Recognizer::try_classify_batch`]; per-request spans of the result
//!    vector are sent back in request order, bit-identical to what each
//!    request would have received alone (the winner search is
//!    deterministic and the whole batch sees one snapshot).
//!
//! After every dispatch the coalescing `delay` **adapts to observed queue
//! depth**: a backlog at or above [`SchedulerConfig::high_watermark`] means
//! the queue itself provides coalescing and waiting only adds latency, so
//! the delay halves (down to zero — pure greedy batching). An empty queue
//! after a deadline flush of an undersized batch means arrivals are sparse,
//! so the delay doubles (up to [`SchedulerConfig::max_delay`]) to coalesce
//! more of them.
//!
//! Admission control is two-staged, and both stages surface as a typed
//! `Overloaded` wire response: the scheduler's own bounded pending queue
//! sheds at [`MicroBatcher::submit`], and the engine's bounded job queue
//! sheds whole batches through [`EngineError::Overloaded`]. A batch within
//! the engine's inline limit runs on the scheduler thread and takes no
//! engine queue slot, so for it the scheduler's queue is the only stage.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::{Builder, JoinHandle};
use std::time::{Duration, Instant};

use bsom_engine::{EngineError, Recognizer};
use bsom_signature::BinaryVector;
use bsom_som::Prediction;

/// Tuning knobs of the micro-batching scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Dispatch as soon as a batch holds this many signatures.
    pub max_batch_signatures: usize,
    /// Upper bound of the adaptive coalescing delay.
    pub max_delay: Duration,
    /// Starting value of the adaptive delay.
    pub initial_delay: Duration,
    /// Bounded pending-queue capacity (in requests); submits beyond it shed.
    pub queue_capacity: usize,
    /// Queue depth at or above which the delay halves after a dispatch.
    pub high_watermark: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_batch_signatures: 256,
            max_delay: Duration::from_millis(1),
            initial_delay: Duration::from_micros(200),
            queue_capacity: 1024,
            high_watermark: 4,
        }
    }
}

impl SchedulerConfig {
    /// A scheduler that never coalesces: every request dispatches alone,
    /// immediately. The control leg the `BENCH_serve.json` micro-batching
    /// speedup is measured against.
    pub fn batch_of_one() -> Self {
        SchedulerConfig {
            max_batch_signatures: 1,
            max_delay: Duration::ZERO,
            initial_delay: Duration::ZERO,
            ..SchedulerConfig::default()
        }
    }
}

/// What a classify request gets back from the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchReply {
    /// One prediction per submitted signature, in order.
    Predictions(Vec<Prediction>),
    /// The engine's job queue shed the coalesced batch this request rode in.
    Overloaded {
        /// Queue depth when the batch was shed.
        queue_depth: u64,
        /// Queue capacity of the shedding stage.
        queue_capacity: u64,
    },
    /// The dispatch failed outright (e.g. the worker pool shut down).
    Failed(String),
}

/// One queued classify request.
#[derive(Debug)]
pub struct ClassifyJob {
    /// The signatures to classify.
    pub signatures: Vec<BinaryVector>,
    /// Where the reply goes. Send failures are ignored: a caller that hung
    /// up just stops caring about its verdicts.
    pub reply: mpsc::Sender<BatchReply>,
}

/// The classify sink a scheduler dispatches into. `Recognizer` is the
/// production implementation; tests substitute deterministic mocks.
pub trait BatchClassify: Send + 'static {
    /// Classifies one coalesced batch, shedding with
    /// [`EngineError::Overloaded`] when saturated.
    fn try_classify(
        &mut self,
        signatures: Vec<BinaryVector>,
    ) -> Result<Vec<Prediction>, EngineError>;
}

impl BatchClassify for Recognizer {
    fn try_classify(
        &mut self,
        signatures: Vec<BinaryVector>,
    ) -> Result<Vec<Prediction>, EngineError> {
        self.try_classify_batch(signatures)
    }
}

/// Monotonic counters and gauges of one scheduler, all lock-free.
#[derive(Debug, Default)]
struct StatsInner {
    pending: AtomicUsize,
    submitted: AtomicU64,
    requests_dispatched: AtomicU64,
    batches_dispatched: AtomicU64,
    requests_coalesced: AtomicU64,
    signatures_dispatched: AtomicU64,
    requests_shed: AtomicU64,
    delay_micros: AtomicU64,
}

/// A point-in-time copy of the scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerSnapshot {
    /// Requests waiting in the pending queue right now.
    pub pending: usize,
    /// Capacity of the pending queue.
    pub queue_capacity: usize,
    /// Requests ever accepted by [`MicroBatcher::submit`].
    pub submitted: u64,
    /// Requests dispatched (replied to) so far.
    pub requests_dispatched: u64,
    /// Coalesced batches dispatched so far.
    pub batches_dispatched: u64,
    /// Requests that shared their batch with at least one other request.
    pub requests_coalesced: u64,
    /// Signatures that went through a successful dispatch.
    pub signatures_dispatched: u64,
    /// Requests shed — at admission or by the engine queue.
    pub requests_shed: u64,
    /// The adaptive coalescing delay right now, in microseconds.
    pub delay_micros: u64,
}

enum Control {
    Job(ClassifyJob),
    Drain(mpsc::Sender<()>),
}

/// Why a batch left the collecting state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    Size,
    Deadline,
    Drain,
}

/// Handle to a running micro-batching scheduler thread.
///
/// Dropping the handle shuts the scheduler down after it flushes whatever is
/// already queued.
#[derive(Debug)]
pub struct MicroBatcher {
    tx: SyncSender<Control>,
    stats: Arc<StatsInner>,
    queue_capacity: usize,
    thread: Option<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Spawns the scheduler thread around `classifier`.
    pub fn new<C: BatchClassify>(classifier: C, config: SchedulerConfig) -> Self {
        let config = SchedulerConfig {
            max_batch_signatures: config.max_batch_signatures.max(1),
            queue_capacity: config.queue_capacity.max(1),
            ..config
        };
        let (tx, rx) = mpsc::sync_channel(config.queue_capacity);
        let stats = Arc::new(StatsInner::default());
        stats
            .delay_micros
            .store(config.initial_delay.as_micros() as u64, Ordering::Relaxed);
        let queue_capacity = config.queue_capacity;
        let loop_stats = Arc::clone(&stats);
        let thread = Builder::new()
            .name("bsom-serve-scheduler".to_string())
            .spawn(move || run_scheduler(classifier, rx, loop_stats, config))
            .expect("spawning the scheduler thread");
        MicroBatcher {
            tx,
            stats,
            queue_capacity,
            thread: Some(thread),
        }
    }

    /// Submits a request for batching. `Err` hands the job back when the
    /// bounded pending queue is full — the admission-control shed the caller
    /// turns into a typed `Overloaded` wire response.
    pub fn submit(&self, job: ClassifyJob) -> Result<(), ClassifyJob> {
        match self.tx.try_send(Control::Job(job)) {
            Ok(()) => {
                self.stats.pending.fetch_add(1, Ordering::SeqCst);
                self.stats.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(Control::Job(job)))
            | Err(TrySendError::Disconnected(Control::Job(job))) => {
                self.stats.requests_shed.fetch_add(1, Ordering::Relaxed);
                Err(job)
            }
            // Only `Control::Job` values are ever handed to this method.
            Err(_) => unreachable!("submit only sends jobs"),
        }
    }

    /// Flushes every request accepted before this call and returns how many
    /// were dispatched by the flush. Blocks until the scheduler has replied
    /// to all of them.
    pub fn drain(&self) -> u64 {
        let before = self.stats.requests_dispatched.load(Ordering::SeqCst);
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.tx.send(Control::Drain(ack_tx)).is_err() {
            return 0;
        }
        // A lost ack means the scheduler exited mid-drain; the counter diff
        // still reports what was flushed.
        let _ = ack_rx.recv();
        self.stats
            .requests_dispatched
            .load(Ordering::SeqCst)
            .saturating_sub(before)
    }

    /// The current counters.
    pub fn snapshot(&self) -> SchedulerSnapshot {
        SchedulerSnapshot {
            pending: self.stats.pending.load(Ordering::SeqCst),
            queue_capacity: self.queue_capacity,
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            requests_dispatched: self.stats.requests_dispatched.load(Ordering::SeqCst),
            batches_dispatched: self.stats.batches_dispatched.load(Ordering::Relaxed),
            requests_coalesced: self.stats.requests_coalesced.load(Ordering::Relaxed),
            signatures_dispatched: self.stats.signatures_dispatched.load(Ordering::Relaxed),
            requests_shed: self.stats.requests_shed.load(Ordering::Relaxed),
            delay_micros: self.stats.delay_micros.load(Ordering::Relaxed),
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        // Close the queue; the scheduler flushes what it already holds and
        // exits.
        let (closed_tx, _) = mpsc::sync_channel(1);
        let _ = std::mem::replace(&mut self.tx, closed_tx);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The delay adaptation rule, pure so the unit suite can pin its behavior.
fn adapt_delay(
    delay: Duration,
    reason: FlushReason,
    pending_after: usize,
    batch_signatures: usize,
    config: &SchedulerConfig,
) -> Duration {
    let step = (config.max_delay / 32).max(Duration::from_micros(25));
    match reason {
        // A drain is not a traffic signal.
        FlushReason::Drain => delay,
        // Backlogged: the queue coalesces by itself; waiting only adds
        // latency. Halve toward pure greedy batching.
        _ if pending_after >= config.high_watermark => {
            if delay <= Duration::from_micros(2) {
                Duration::ZERO
            } else {
                delay / 2
            }
        }
        // Sparse: the deadline expired on an undersized batch and nothing
        // is waiting. Lengthen to coalesce more arrivals.
        FlushReason::Deadline
            if pending_after == 0 && batch_signatures * 2 < config.max_batch_signatures =>
        {
            (delay * 2).max(step).min(config.max_delay)
        }
        _ => delay,
    }
}

fn dispatch<C: BatchClassify>(classifier: &mut C, jobs: Vec<ClassifyJob>, stats: &StatsInner) {
    let total: usize = jobs.iter().map(|j| j.signatures.len()).sum();
    let mut combined = Vec::with_capacity(total);
    let mut spans = Vec::with_capacity(jobs.len());
    for job in &jobs {
        spans.push((combined.len(), job.signatures.len()));
        combined.extend_from_slice(&job.signatures);
    }
    let outcome = classifier.try_classify(combined);
    stats.batches_dispatched.fetch_add(1, Ordering::Relaxed);
    if jobs.len() > 1 {
        stats
            .requests_coalesced
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
    }
    match outcome {
        Ok(predictions) => {
            stats
                .signatures_dispatched
                .fetch_add(total as u64, Ordering::Relaxed);
            for (job, (start, len)) in jobs.iter().zip(&spans) {
                let slice = predictions[*start..*start + *len].to_vec();
                let _ = job.reply.send(BatchReply::Predictions(slice));
            }
        }
        Err(EngineError::Overloaded {
            queue_capacity,
            queue_depth,
        }) => {
            // The whole coalesced batch is shed: partial admission would
            // reorder requests relative to their wire responses.
            stats
                .requests_shed
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            for job in &jobs {
                let _ = job.reply.send(BatchReply::Overloaded {
                    queue_depth: queue_depth as u64,
                    queue_capacity: queue_capacity as u64,
                });
            }
        }
        Err(error) => {
            let message = error.to_string();
            for job in &jobs {
                let _ = job.reply.send(BatchReply::Failed(message.clone()));
            }
        }
    }
    stats
        .requests_dispatched
        .fetch_add(jobs.len() as u64, Ordering::SeqCst);
}

fn run_scheduler<C: BatchClassify>(
    mut classifier: C,
    rx: Receiver<Control>,
    stats: Arc<StatsInner>,
    config: SchedulerConfig,
) {
    let mut delay = config.initial_delay.min(config.max_delay);
    loop {
        let first = match rx.recv() {
            Ok(Control::Drain(ack)) => {
                // Nothing pending ahead of the sentinel: ack and idle on.
                let _ = ack.send(());
                continue;
            }
            Ok(Control::Job(job)) => job,
            Err(_) => return,
        };
        stats.pending.fetch_sub(1, Ordering::SeqCst);
        let mut jobs = vec![first];
        let mut total = jobs[0].signatures.len();
        let deadline = Instant::now() + delay;
        let mut drain_acks: Vec<mpsc::Sender<()>> = Vec::new();
        let mut disconnected = false;
        let mut reason = FlushReason::Size;
        'collect: while total < config.max_batch_signatures {
            // Greedy sweep: take whatever is already queued.
            loop {
                match rx.try_recv() {
                    Ok(Control::Job(job)) => {
                        stats.pending.fetch_sub(1, Ordering::SeqCst);
                        total += job.signatures.len();
                        jobs.push(job);
                        if total >= config.max_batch_signatures {
                            break 'collect;
                        }
                    }
                    Ok(Control::Drain(ack)) => {
                        drain_acks.push(ack);
                        reason = FlushReason::Drain;
                        break 'collect;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        disconnected = true;
                        break 'collect;
                    }
                }
            }
            // Queue momentarily empty: wait for the next arrival or the
            // deadline.
            let now = Instant::now();
            if now >= deadline {
                reason = FlushReason::Deadline;
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(Control::Job(job)) => {
                    stats.pending.fetch_sub(1, Ordering::SeqCst);
                    total += job.signatures.len();
                    jobs.push(job);
                }
                Ok(Control::Drain(ack)) => {
                    drain_acks.push(ack);
                    reason = FlushReason::Drain;
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {
                    reason = FlushReason::Deadline;
                    break;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        dispatch(&mut classifier, jobs, &stats);
        for ack in drain_acks {
            let _ = ack.send(());
        }
        delay = adapt_delay(
            delay,
            reason,
            stats.pending.load(Ordering::SeqCst),
            total,
            &config,
        );
        stats
            .delay_micros
            .store(delay.as_micros() as u64, Ordering::Relaxed);
        if disconnected {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SchedulerConfig {
        SchedulerConfig {
            max_batch_signatures: 64,
            max_delay: Duration::from_millis(1),
            initial_delay: Duration::from_micros(200),
            queue_capacity: 8,
            high_watermark: 4,
        }
    }

    #[test]
    fn backlog_halves_the_delay_down_to_zero() {
        let cfg = config();
        let mut delay = Duration::from_micros(200);
        for _ in 0..16 {
            delay = adapt_delay(delay, FlushReason::Size, 8, 64, &cfg);
        }
        assert_eq!(
            delay,
            Duration::ZERO,
            "a sustained backlog must reach greedy batching"
        );
    }

    #[test]
    fn sparse_deadline_flushes_double_the_delay_up_to_the_cap() {
        let cfg = config();
        let mut delay = Duration::ZERO;
        for _ in 0..16 {
            delay = adapt_delay(delay, FlushReason::Deadline, 0, 1, &cfg);
        }
        assert_eq!(
            delay, cfg.max_delay,
            "sparse traffic must grow the delay to the cap"
        );
    }

    #[test]
    fn full_or_busy_flushes_leave_the_delay_alone() {
        let cfg = config();
        let delay = Duration::from_micros(100);
        // Size flush with a quiet queue: the batch filled naturally.
        assert_eq!(adapt_delay(delay, FlushReason::Size, 0, 64, &cfg), delay);
        // Deadline flush of a nearly-full batch: not sparse.
        assert_eq!(
            adapt_delay(delay, FlushReason::Deadline, 0, 63, &cfg),
            delay
        );
        // Drain is not a traffic signal.
        assert_eq!(adapt_delay(delay, FlushReason::Drain, 0, 1, &cfg), delay);
    }
}
