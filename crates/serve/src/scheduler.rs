//! The work-conserving micro-batching scheduler.
//!
//! Small classify requests are cheap to compute and expensive to dispatch:
//! every dispatch pays a scheduler wake-up and reply regardless of size, and
//! a batch over the engine's inline limit
//! ([`INLINE_CLASSIFY_MAX_NEURON_WORDS`](bsom_engine::INLINE_CLASSIFY_MAX_NEURON_WORDS))
//! also pays one worker-pool round trip. The scheduler amortizes that fixed
//! cost without ever waiting for it: requests that queue up while a dispatch
//! runs coalesce into **one** `classify_batch` call, the way the paper's
//! FPGA comparator pipeline takes the next signature as soon as the last one
//! leaves.
//!
//! The loop has two states (documented in DESIGN.md §"The serving
//! front-end"):
//!
//! 1. **Idle** — block on the pending queue until the first request arrives.
//! 2. **Dispatch** — sweep whatever is already queued behind it, stopping at
//!    [`SchedulerConfig::max_batch_signatures`] (a job is never split), at a
//!    drain sentinel or at an empty queue, and send the batch through one
//!    [`Recognizer::try_classify_batch`] at once. Per-request spans of the
//!    result vector go back in request order, bit-identical to what each
//!    request would have received alone (the winner search is deterministic
//!    and the whole batch sees one snapshot). A drain sentinel is acked
//!    after the replies of every job ahead of it.
//!
//! There is no timer: the scheduler never holds a request it could
//! dispatch, and under load the queue itself forms the batches.
//!
//! A panic inside the classify call is caught: the batch's requests get
//! [`BatchReply::Failed`] and the scheduler keeps serving.
//!
//! Admission control is two-staged, and both stages surface as a typed
//! `Overloaded` wire response: the scheduler's own bounded pending queue
//! sheds at [`MicroBatcher::submit`], and the engine's bounded job queue
//! sheds whole batches through [`EngineError::Overloaded`]. A batch within
//! the engine's inline limit runs on the scheduler thread and takes no
//! engine queue slot, so for it the scheduler's queue is the only stage.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{Builder, JoinHandle};

use bsom_engine::{faultpoint, EngineError, Recognizer};
use bsom_signature::BinaryVector;
use bsom_som::Prediction;

/// Tuning knobs of the micro-batching scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Stop sweeping the queue into a batch once it holds this many
    /// signatures.
    pub max_batch_signatures: usize,
    /// Bounded pending-queue capacity (in requests); submits beyond it shed.
    pub queue_capacity: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_batch_signatures: 256,
            queue_capacity: 1024,
        }
    }
}

impl SchedulerConfig {
    /// A scheduler that never coalesces: every request dispatches alone.
    /// The control leg the `BENCH_serve.json` micro-batching speedup is
    /// measured against.
    pub fn batch_of_one() -> Self {
        SchedulerConfig {
            max_batch_signatures: 1,
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
    /// The dispatch failed outright (the worker pool shut down, or the
    /// classify call panicked).
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
    /// Always 0: the scheduler never waits on a clock. Kept so readers of
    /// the former coalescing-delay gauge still build.
    pub delay_micros: u64,
}

enum Control {
    Job(ClassifyJob),
    Drain(mpsc::Sender<()>),
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
    ///
    /// # Errors
    ///
    /// The OS error when the scheduler thread cannot be spawned.
    pub fn new<C: BatchClassify>(classifier: C, config: SchedulerConfig) -> io::Result<Self> {
        let max_batch_signatures = config.max_batch_signatures.max(1);
        let queue_capacity = config.queue_capacity.max(1);
        let (tx, rx) = mpsc::sync_channel(queue_capacity);
        let stats = Arc::new(StatsInner::default());
        let loop_stats = Arc::clone(&stats);
        let thread = Builder::new()
            .name("bsom-serve-scheduler".to_string())
            .spawn(move || run_scheduler(classifier, rx, loop_stats, max_batch_signatures))?;
        Ok(MicroBatcher {
            tx,
            stats,
            queue_capacity,
            thread: Some(thread),
        })
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
            delay_micros: 0,
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

fn dispatch<C: BatchClassify>(classifier: &mut C, jobs: Vec<ClassifyJob>, stats: &StatsInner) {
    let total: usize = jobs.iter().map(|j| j.signatures.len()).sum();
    let mut combined = Vec::with_capacity(total);
    let mut spans = Vec::with_capacity(jobs.len());
    for job in &jobs {
        spans.push((combined.len(), job.signatures.len()));
        combined.extend_from_slice(&job.signatures);
    }
    // A batch within the engine's inline limit runs on this thread: contain
    // a panic here, or one bad batch would stop the whole front-end.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        faultpoint::hit("scheduler.dispatch");
        classifier.try_classify(combined)
    }));
    // Count before replying, so a caller holding its reply sees it counted.
    stats.batches_dispatched.fetch_add(1, Ordering::Relaxed);
    stats
        .requests_dispatched
        .fetch_add(jobs.len() as u64, Ordering::SeqCst);
    if jobs.len() > 1 {
        stats
            .requests_coalesced
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
    }
    let fail = |message: String| {
        for job in &jobs {
            let _ = job.reply.send(BatchReply::Failed(message.clone()));
        }
    };
    match outcome {
        Ok(Ok(predictions)) => {
            stats
                .signatures_dispatched
                .fetch_add(total as u64, Ordering::Relaxed);
            for (job, (start, len)) in jobs.iter().zip(&spans) {
                let slice = predictions[*start..*start + *len].to_vec();
                let _ = job.reply.send(BatchReply::Predictions(slice));
            }
        }
        Ok(Err(EngineError::Overloaded {
            queue_capacity,
            queue_depth,
        })) => {
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
        Ok(Err(error)) => fail(error.to_string()),
        // The panic hook has already reported the payload.
        Err(_) => fail("the classify call panicked".to_string()),
    }
}

fn run_scheduler<C: BatchClassify>(
    mut classifier: C,
    rx: Receiver<Control>,
    stats: Arc<StatsInner>,
    max_batch_signatures: usize,
) {
    // Idle: block until the first request arrives.
    while let Ok(control) = rx.recv() {
        let first = match control {
            // Nothing pending ahead of the sentinel: ack and idle on.
            Control::Drain(ack) => {
                let _ = ack.send(());
                continue;
            }
            Control::Job(job) => job,
        };
        stats.pending.fetch_sub(1, Ordering::SeqCst);
        let mut total = first.signatures.len();
        let mut jobs = vec![first];
        let mut drain_ack = None;
        // Dispatch: sweep what is already queued, never waiting for more.
        // An empty or closed queue ends the sweep; a closed one also ends
        // the loop at the next `recv`.
        while total < max_batch_signatures {
            match rx.try_recv() {
                Ok(Control::Job(job)) => {
                    stats.pending.fetch_sub(1, Ordering::SeqCst);
                    total += job.signatures.len();
                    jobs.push(job);
                }
                Ok(Control::Drain(ack)) => {
                    drain_ack = Some(ack);
                    break;
                }
                Err(_) => break,
            }
        }
        dispatch(&mut classifier, jobs, &stats);
        if let Some(ack) = drain_ack {
            let _ = ack.send(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A mock classifier whose first call blocks until the test opens the
    /// gate, so jobs can be queued behind a dispatch in flight. Records each
    /// batch it receives and answers signature `i` of length `n` with a
    /// prediction whose neuron is `n`, so replies show which job they are.
    struct Wedged {
        entered: mpsc::Sender<()>,
        gate: Option<mpsc::Receiver<()>>,
        batches: mpsc::Sender<Vec<usize>>,
    }

    impl BatchClassify for Wedged {
        fn try_classify(
            &mut self,
            signatures: Vec<BinaryVector>,
        ) -> Result<Vec<Prediction>, EngineError> {
            if let Some(gate) = self.gate.take() {
                let _ = self.entered.send(());
                let _ = gate.recv();
            }
            let lens: Vec<usize> = signatures.iter().map(BinaryVector::len).collect();
            let _ = self.batches.send(lens.clone());
            Ok(lens.into_iter().map(tagged).collect())
        }
    }

    fn tagged(neuron: usize) -> Prediction {
        Prediction::Known {
            label: bsom_som::ObjectLabel::new(0),
            neuron,
            distance: 0.0,
        }
    }

    struct Harness {
        batcher: MicroBatcher,
        open: mpsc::Sender<()>,
        batches: mpsc::Receiver<Vec<usize>>,
    }

    /// Starts a scheduler over [`Wedged`] and parks its first dispatch (one
    /// single-signature wedge job) inside the classifier.
    fn wedged(max_batch_signatures: usize) -> (Harness, mpsc::Receiver<BatchReply>) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (open, gate) = mpsc::channel();
        let (batches_tx, batches) = mpsc::channel();
        let classifier = Wedged {
            entered: entered_tx,
            gate: Some(gate),
            batches: batches_tx,
        };
        let batcher = MicroBatcher::new(
            classifier,
            SchedulerConfig {
                max_batch_signatures,
                queue_capacity: 64,
            },
        )
        .expect("spawn the scheduler");
        let wedge = submit(&batcher, &[1]);
        entered_rx.recv().expect("the wedge dispatch starts");
        let harness = Harness {
            batcher,
            open,
            batches,
        };
        (harness, wedge)
    }

    /// Submits one job of `lens.len()` signatures, signature `i` being
    /// `lens[i]` bits long.
    fn submit(batcher: &MicroBatcher, lens: &[usize]) -> mpsc::Receiver<BatchReply> {
        let (reply, rx) = mpsc::channel();
        let signatures = lens.iter().map(|&len| BinaryVector::zeros(len)).collect();
        assert!(batcher.submit(ClassifyJob { signatures, reply }).is_ok());
        rx
    }

    fn predictions(reply: &mpsc::Receiver<BatchReply>) -> Vec<usize> {
        match reply.recv().expect("a reply") {
            BatchReply::Predictions(predictions) => predictions
                .iter()
                .map(|p| match p {
                    Prediction::Known { neuron, .. } => *neuron,
                    Prediction::Unknown => usize::MAX,
                })
                .collect(),
            other => panic!("expected predictions, got {other:?}"),
        }
    }

    #[test]
    fn queued_singletons_leave_as_one_batch_in_submit_order() {
        let (harness, wedge) = wedged(256);
        let k = 9;
        let replies: Vec<_> = (1..=k).map(|i| submit(&harness.batcher, &[i])).collect();
        harness.open.send(()).expect("open the gate");
        assert_eq!(predictions(&wedge), vec![1]);
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(predictions(reply), vec![i + 1]);
        }
        assert_eq!(harness.batches.recv().unwrap(), vec![1], "the wedge");
        assert_eq!(
            harness.batches.recv().unwrap(),
            (1..=k).collect::<Vec<_>>(),
            "everything queued behind the wedge is one batch, in submit order"
        );
        let stats = harness.batcher.snapshot();
        assert_eq!(stats.batches_dispatched, 2);
        assert_eq!(stats.requests_dispatched, k as u64 + 1);
        assert_eq!(stats.requests_coalesced, k as u64);
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.delay_micros, 0);

        // Idle again: a lone request dispatches at once, on its own.
        assert_eq!(predictions(&submit(&harness.batcher, &[5])), vec![5]);
        assert_eq!(harness.batches.recv().unwrap(), vec![5]);
    }

    #[test]
    fn a_cap_of_m_gives_ceil_k_over_m_batches_and_never_splits_a_job() {
        let (k, m) = (10usize, 4usize);
        let (harness, wedge) = wedged(m);
        let replies: Vec<_> = (1..=k).map(|i| submit(&harness.batcher, &[i])).collect();
        harness.open.send(()).expect("open the gate");
        assert_eq!(predictions(&wedge), vec![1]);
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(predictions(reply), vec![i + 1]);
        }
        let _wedge_batch = harness.batches.recv().unwrap();
        let sizes: Vec<usize> = (0..k.div_ceil(m))
            .map(|_| harness.batches.recv().unwrap().len())
            .collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(
            harness.batcher.snapshot().batches_dispatched,
            1 + k.div_ceil(m) as u64
        );

        // Three-signature jobs under a cap of 4: the second job overshoots
        // the cap rather than being split across batches.
        let (harness, wedge) = wedged(m);
        let jobs: Vec<_> = (0..3)
            .map(|j| {
                let lens = [10 * j + 1, 10 * j + 2, 10 * j + 3];
                (lens, submit(&harness.batcher, &lens))
            })
            .collect();
        harness.open.send(()).expect("open the gate");
        assert_eq!(predictions(&wedge), vec![1]);
        for (lens, reply) in &jobs {
            assert_eq!(predictions(reply), lens.to_vec(), "each job whole");
        }
        let _wedge_batch = harness.batches.recv().unwrap();
        assert_eq!(harness.batches.recv().unwrap(), vec![1, 2, 3, 11, 12, 13]);
        assert_eq!(harness.batches.recv().unwrap(), vec![21, 22, 23]);
    }

    #[test]
    fn a_drain_queued_behind_jobs_is_acked_after_their_replies() {
        let (harness, wedge) = wedged(256);
        let replies: Vec<_> = (1..=3).map(|i| submit(&harness.batcher, &[i])).collect();
        // The sentinel `drain` sends, queued from this thread so it is
        // certainly behind the three jobs.
        let (ack_tx, ack) = mpsc::channel();
        assert!(harness.batcher.tx.send(Control::Drain(ack_tx)).is_ok());
        harness.open.send(()).expect("open the gate");
        ack.recv().expect("the drain is acked");
        // Every reply was sent before the ack.
        assert_eq!(predictions(&wedge), vec![1]);
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(
                reply.try_recv(),
                Ok(BatchReply::Predictions(vec![tagged(i + 1)]))
            );
        }
        assert_eq!(harness.batcher.snapshot().batches_dispatched, 2);
        assert_eq!(harness.batcher.drain(), 0, "nothing left to flush");
    }

    /// Panics on its first call, then answers like [`Wedged`] ungated.
    struct PanicsOnce {
        panicked: bool,
    }

    impl BatchClassify for PanicsOnce {
        fn try_classify(
            &mut self,
            signatures: Vec<BinaryVector>,
        ) -> Result<Vec<Prediction>, EngineError> {
            if !std::mem::replace(&mut self.panicked, true) {
                panic!("injected classify panic");
            }
            Ok(signatures.iter().map(|s| tagged(s.len())).collect())
        }
    }

    #[test]
    fn a_panicking_classify_fails_its_batch_and_the_scheduler_keeps_serving() {
        let batcher = MicroBatcher::new(PanicsOnce { panicked: false }, SchedulerConfig::default())
            .expect("spawn the scheduler");
        let first = submit(&batcher, &[3, 4]);
        assert!(matches!(
            first.recv().expect("a reply"),
            BatchReply::Failed(_)
        ));
        assert_eq!(predictions(&submit(&batcher, &[7])), vec![7]);
        let stats = batcher.snapshot();
        assert_eq!(stats.requests_shed, 0);
        assert_eq!(stats.requests_dispatched, 2);
        assert_eq!(batcher.drain(), 0, "the scheduler thread is still alive");
    }
}
