//! The train-while-serve service: one API over the shared packed layout.
//!
//! The paper's FPGA runs a single datapath that both learns and recognizes
//! on the same stored planes — there is no "training copy" of the weights to
//! export. [`SomService`] is the software equivalent (DESIGN.md
//! §"Train-while-serve and the shared packed layout"): it owns a versioned,
//! atomically-swappable [`SomSnapshot`] and hands out two kinds of handles
//! over it.
//!
//! * A [`Trainer`] feeds labelled signatures through the word-parallel bSOM
//!   trainer. Because [`BSom`] maintains its plane-sliced [`PackedLayer`]
//!   incrementally on every weight write, publishing a new serving snapshot
//!   is a copy-on-write clone of that layout — word rows untouched since the
//!   last publish are shared, not copied, so the cost is O(rows touched)
//!   even at 1000+ neurons — plus an atomic pointer swap; no re-pack, no
//!   pause (DESIGN.md §"Copy-on-write publication and the winner search").
//!   Publication happens on epoch boundaries
//!   ([`Trainer::train_epochs`], [`Trainer::advance_epoch`]), on a step-count
//!   cadence ([`EngineConfig::publish_every_steps`]), or explicitly
//!   ([`Trainer::publish`]).
//! * Any number of [`Recognizer`]s classify against the snapshot they hold.
//!   A recognizer picks up a newly published snapshot at the start of its
//!   next batch with one atomic version check (the lock is touched only when
//!   the version actually moved), so classification latency is unaffected by
//!   an in-flight training epoch — the `concurrent_serve` bench measures
//!   exactly this.
//!
//! Snapshots are immutable once published (`Arc<SomSnapshot>`), so a batch
//! in flight can never observe a torn layer: it either runs entirely on
//! version `N` or entirely on version `N+1`.

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bsom_signature::{BinaryVector, RgbImage, TriStateVector};
use bsom_som::{
    BSom, BatchWinner, LabelledSom, ObjectLabel, PackedLayer, Prediction, SelfOrganizingMap,
    SomError, TrainSchedule, Winner,
};
use bsom_vision::pipeline::SurveillancePipeline;

use crate::checkpoint::{self, CheckpointDoc, CheckpointError, CheckpointInfo, NeuronStatsDoc};
use crate::{EngineConfig, EngineError, RecognizedObject, TrainReport};

/// Locks a mutex, recovering the data from a poisoned lock.
///
/// Every mutex in this module protects state that is consistent at every
/// instant a panic can unwind through it (snapshot publishes build the new
/// `Arc` *before* swapping; the job receiver is only ever `recv`'d from), so
/// a poisoned lock carries no torn data — the last good value is still
/// there. Recovering keeps the service serving after an injected or real
/// panic instead of cascading `PoisonError` panics through every reader.
pub(crate) fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a caught panic payload for [`ServiceHealth::last_panic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "panic payload was not a string".to_string()
    }
}

/// Resolves [`EngineConfig::workers`]: 0 means one worker per available
/// hardware thread.
pub(crate) fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
}

/// Resolves [`EngineConfig::queue_capacity`]: `None` means four queued jobs
/// per worker, floored at 16.
pub(crate) fn resolve_queue_capacity(queue_capacity: Option<usize>, workers: usize) -> usize {
    queue_capacity.unwrap_or_else(|| (workers * 4).max(16))
}

/// The most work, in neuron-words, that a classify batch may carry and still
/// run on the calling thread instead of the worker pool.
///
/// A batch's work is signatures × neurons × 64-bit word rows: the number of
/// plane-word pairs its distance passes read. Handing a batch to the pool
/// costs a thread wake-up and a reply (tens of µs); one 40-neuron × 768-bit
/// signature costs about 0.3 µs inline. At or below this limit the whole
/// batch runs through the same `winner_with_buffer` + verdict the workers
/// run, so the answers are bit-identical either way. The value is the
/// largest power of two at which the inline path was no slower than the
/// 2-worker pool in the crossover sweep of `bench_report --only
/// recognition`, under both the forced-scalar and the widest dispatch
/// (DESIGN.md §"The batched engine layout" has the table).
pub const INLINE_CLASSIFY_MAX_NEURON_WORDS: usize = 16_384;

/// A classify batch's work in neuron-words (see
/// [`INLINE_CLASSIFY_MAX_NEURON_WORDS`]).
pub(crate) fn classify_work(layer: &PackedLayer, signatures: usize) -> usize {
    signatures
        .saturating_mul(layer.neuron_count())
        .saturating_mul(layer.word_row_count())
}

/// Weights below this threshold are dropped from a neuron's decayed win
/// statistics — a win this faded can never influence a majority that any
/// fresh win participates in, and pruning keeps the per-neuron maps from
/// accumulating long-dead labels.
const DECAYED_WIN_FLOOR: f64 = 1e-9;

/// One neuron's online win statistics with optional exponential decay —
/// the [`Trainer`]'s generalisation of
/// [`NeuronLabelStats`](bsom_som::labeling::NeuronLabelStats).
///
/// Decay is applied lazily: each neuron remembers the feed step of its last
/// recorded win and scales its whole table by `decay^age` when the next win
/// arrives. Labels are compared only *within* a neuron, so the per-neuron
/// clocks need not line up across neurons.
#[derive(Debug, Clone, Default)]
struct DecayedLabelStats {
    /// Decayed win weight per label (a fresh win weighs 1.0).
    wins: BTreeMap<ObjectLabel, f64>,
    /// Feed-step clock of the most recent recorded win.
    last_step: u64,
}

impl DecayedLabelStats {
    /// Records one win of `label` at feed step `step`, first fading every
    /// stored win by `decay^(step - last_step)` when decay is configured.
    fn record_win(&mut self, label: ObjectLabel, step: u64, decay: Option<f64>) {
        if let Some(decay) = decay {
            let age = step.saturating_sub(self.last_step);
            if age > 0 {
                let scale = decay.powf(age as f64);
                self.wins.retain(|_, weight| {
                    *weight *= scale;
                    *weight > DECAYED_WIN_FLOOR
                });
            }
        }
        self.last_step = step;
        *self.wins.entry(label).or_insert(0.0) += 1.0;
    }

    /// The label with the greatest decayed weight, ties broken towards the
    /// smaller label id — the same rule as
    /// [`NeuronLabelStats::majority_label`](bsom_som::labeling::NeuronLabelStats::majority_label).
    fn majority_label(&self) -> Option<ObjectLabel> {
        self.wins
            .iter()
            .max_by(|(la, wa), (lb, wb)| {
                wa.partial_cmp(wb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(lb.cmp(la))
            })
            .map(|(label, _)| *label)
    }

    /// Forgets every recorded win (the manual windowed-relabelling hook).
    fn clear(&mut self) {
        self.wins.clear();
    }
}

/// A batch of signatures in shared ownership for the worker pool.
///
/// Callers never build this directly: every classify entry point takes
/// `impl Into<SignatureBatch>`, so a `&[BinaryVector]`, a `Vec`, or an
/// already-shared `Arc<Vec<BinaryVector>>` (the zero-copy path) all work.
pub struct SignatureBatch(Arc<Vec<BinaryVector>>);

impl SignatureBatch {
    /// Number of signatures in the batch.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<Vec<BinaryVector>> for SignatureBatch {
    fn from(signatures: Vec<BinaryVector>) -> Self {
        SignatureBatch(Arc::new(signatures))
    }
}

impl From<&[BinaryVector]> for SignatureBatch {
    fn from(signatures: &[BinaryVector]) -> Self {
        SignatureBatch(Arc::new(signatures.to_vec()))
    }
}

impl From<&Vec<BinaryVector>> for SignatureBatch {
    fn from(signatures: &Vec<BinaryVector>) -> Self {
        SignatureBatch(Arc::new(signatures.clone()))
    }
}

impl From<Arc<Vec<BinaryVector>>> for SignatureBatch {
    fn from(signatures: Arc<Vec<BinaryVector>>) -> Self {
        SignatureBatch(signatures)
    }
}

impl From<&Arc<Vec<BinaryVector>>> for SignatureBatch {
    fn from(signatures: &Arc<Vec<BinaryVector>>) -> Self {
        SignatureBatch(Arc::clone(signatures))
    }
}

/// One immutable, versioned serving snapshot: the packed competitive layer
/// plus the neuron labelling and rejection threshold in effect when it was
/// published.
#[derive(Debug)]
pub struct SomSnapshot {
    version: u64,
    layer: Arc<PackedLayer>,
    labels: Vec<Option<ObjectLabel>>,
    unknown_threshold: Option<f64>,
}

impl SomSnapshot {
    /// The snapshot's monotonically increasing version (the initial snapshot
    /// a service is constructed with is version 1).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The plane-sliced competitive layer this snapshot serves from.
    pub fn layer(&self) -> &PackedLayer {
        &self.layer
    }

    /// The label assigned to each neuron at publish time.
    pub fn neuron_labels(&self) -> &[Option<ObjectLabel>] {
        &self.labels
    }

    /// The unknown-rejection distance threshold, if any.
    pub fn unknown_threshold(&self) -> Option<f64> {
        self.unknown_threshold
    }

    /// Converts a raw winner into a verdict, applying the label table and
    /// the unknown threshold exactly like [`LabelledSom::classify`].
    pub(crate) fn verdict(&self, winner: Option<BatchWinner>) -> Prediction {
        let Some(winner) = winner else {
            return Prediction::Unknown; // wrong-length signature
        };
        let distance = winner.distance as f64;
        if let Some(threshold) = self.unknown_threshold {
            if distance > threshold {
                return Prediction::Unknown;
            }
        }
        match self.labels[winner.index] {
            Some(label) => Prediction::Known {
                label,
                neuron: winner.index,
                distance,
            },
            None => Prediction::Unknown,
        }
    }
}

/// A shard of winner-search work sent to the pool. The job carries the layer
/// it must search, so one pool serves every snapshot version concurrently.
struct Job {
    layer: Arc<PackedLayer>,
    signatures: Arc<Vec<BinaryVector>>,
    range: Range<usize>,
    reply: Sender<Shard>,
}

/// A shard reply. `winners` is `None` when the worker's job panicked — the
/// collector then recomputes that range inline (the search is deterministic,
/// so the inline result is bit-identical to what the worker would have sent)
/// and the panic costs latency, never correctness.
struct Shard {
    range: Range<usize>,
    winners: Option<Vec<Option<BatchWinner>>>,
}

/// Base delay before respawning a panicked worker; doubles per consecutive
/// panic up to [`RESPAWN_MAX_DELAY`], so a poisoned input that kills every
/// worker that touches it cannot turn the supervisor into a spawn loop.
const RESPAWN_BASE_DELAY: Duration = Duration::from_millis(2);
/// Cap on the exponential respawn backoff.
const RESPAWN_MAX_DELAY: Duration = Duration::from_millis(250);
/// A panic this long after the previous one starts the backoff ladder over.
const RESPAWN_QUIET_PERIOD: Duration = Duration::from_secs(1);

/// How a worker thread left its receive loop.
enum WorkerExit {
    /// The job queue closed: the service is shutting down.
    QueueClosed,
    /// A job panicked. The worker reported the shard as failed and exits;
    /// the supervisor respawns a fresh thread (let-it-crash: no state from
    /// the panicked thread is reused).
    Panicked,
}

/// Supervisor mailbox: worker exits and the shutdown sentinel.
enum ExitEvent {
    WorkerPanicked,
    Shutdown,
}

/// State shared between the pool handle, its workers, and the supervisor.
struct PoolShared {
    /// The bounded job queue's receiving half. Workers hold the lock only
    /// while `recv`ing, so shards drain in parallel.
    job_rx: Mutex<Receiver<Job>>,
    /// Jobs submitted and not yet picked up by a worker.
    queue_depth: AtomicUsize,
    /// Worker threads currently in their receive loop.
    workers_alive: AtomicUsize,
    /// Total worker threads ever spawned (names respawns uniquely).
    spawned_total: AtomicUsize,
    /// Jobs that panicked ([`ServiceHealth::worker_panics`]).
    panics: AtomicU64,
    /// Workers respawned by the supervisor ([`ServiceHealth::worker_respawns`]).
    respawns: AtomicU64,
    /// Message of the most recent worker panic.
    last_panic: Mutex<Option<String>>,
    /// Join handles of every live (or not-yet-joined) worker thread. The
    /// supervisor pushes respawned handles; only pool drop drains it, after
    /// the supervisor has been joined.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// The supervised worker pool: a fixed target of worker threads over one
/// bounded job queue, plus a supervisor thread that respawns any worker
/// whose job panicked. Dropping the pool closes the queue, stops the
/// supervisor, and joins every thread.
///
/// `pub(crate)` because every [`Job`] carries the `Arc<PackedLayer>` it must
/// search, one pool can serve any number of services — the multi-tenant
/// [`MapRegistry`](crate::registry::MapRegistry) shares a single pool across
/// all of its tenants' services.
pub(crate) struct WorkerPool {
    job_tx: Option<SyncSender<Job>>,
    exit_tx: Option<Sender<ExitEvent>>,
    supervisor: Option<JoinHandle<()>>,
    shared: Arc<PoolShared>,
    queue_capacity: usize,
}

impl WorkerPool {
    pub(crate) fn spawn(workers: usize, queue_capacity: usize) -> Self {
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(queue_capacity);
        let (exit_tx, exit_rx) = mpsc::channel::<ExitEvent>();
        let shared = Arc::new(PoolShared {
            job_rx: Mutex::new(job_rx),
            queue_depth: AtomicUsize::new(0),
            workers_alive: AtomicUsize::new(0),
            spawned_total: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            last_panic: Mutex::new(None),
            handles: Mutex::new(Vec::with_capacity(workers)),
        });
        for _ in 0..workers {
            let handle = spawn_worker(&shared, exit_tx.clone());
            lock_recovering(&shared.handles).push(handle);
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            let exit_tx = exit_tx.clone();
            std::thread::Builder::new()
                .name("bsom-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared, &exit_rx, &exit_tx))
                .expect("spawning the supervisor thread")
        };
        WorkerPool {
            job_tx: Some(job_tx),
            exit_tx: Some(exit_tx),
            supervisor: Some(supervisor),
            shared,
            queue_capacity,
        }
    }

    /// The sending half; present from construction until drop.
    fn job_tx(&self) -> &SyncSender<Job> {
        self.job_tx
            .as_ref()
            .expect("job_tx is taken only in WorkerPool::drop")
    }

    /// Blocking submit: waits for queue space (backpressure). Fails only
    /// mid-shutdown, when the receiver is already gone.
    fn submit(&self, job: Job) -> Result<(), EngineError> {
        self.shared.queue_depth.fetch_add(1, Ordering::SeqCst);
        match self.job_tx().send(job) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
                Err(EngineError::PoolShutDown)
            }
        }
    }

    /// The pool's supervision counters as a [`ServiceHealth`], reported
    /// against the given configured worker count. Shared by
    /// [`ServiceCore::health`] and the registry's aggregate health view.
    pub(crate) fn health_with(&self, workers_configured: usize) -> ServiceHealth {
        ServiceHealth {
            workers_configured,
            workers_alive: self.shared.workers_alive.load(Ordering::SeqCst),
            queue_depth: self.shared.queue_depth.load(Ordering::SeqCst),
            queue_capacity: self.queue_capacity,
            worker_panics: self.shared.panics.load(Ordering::SeqCst),
            worker_respawns: self.shared.respawns.load(Ordering::SeqCst),
            last_panic: lock_recovering(&self.shared.last_panic).clone(),
        }
    }

    /// Non-blocking submit: a full queue is the saturation signal —
    /// [`EngineError::Overloaded`] — instead of unbounded queue growth.
    fn try_submit(&self, job: Job) -> Result<(), EngineError> {
        self.shared.queue_depth.fetch_add(1, Ordering::SeqCst);
        match self.job_tx().try_send(job) {
            Ok(()) => Ok(()),
            Err(error) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
                Err(match error {
                    TrySendError::Full(_) => EngineError::Overloaded {
                        queue_capacity: self.queue_capacity,
                        queue_depth: self.shared.queue_depth.load(Ordering::SeqCst),
                    },
                    TrySendError::Disconnected(_) => EngineError::PoolShutDown,
                })
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channel ends every worker's receive loop; the
        // sentinel (not channel closure — respawned workers hold clones of
        // the exit sender) ends the supervisor's.
        self.job_tx.take();
        if let Some(exit_tx) = self.exit_tx.take() {
            let _ = exit_tx.send(ExitEvent::Shutdown);
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // Only after the supervisor is gone can no new handles appear.
        let handles: Vec<JoinHandle<()>> =
            lock_recovering(&self.shared.handles).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Spawns one worker thread and accounts for it in the shared state.
fn spawn_worker(shared: &Arc<PoolShared>, exit_tx: Sender<ExitEvent>) -> JoinHandle<()> {
    let index = shared.spawned_total.fetch_add(1, Ordering::SeqCst);
    shared.workers_alive.fetch_add(1, Ordering::SeqCst);
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("bsom-service-{index}"))
        .spawn(move || {
            let exit = worker_loop(&shared);
            shared.workers_alive.fetch_sub(1, Ordering::SeqCst);
            if let WorkerExit::Panicked = exit {
                // The supervisor may itself be gone mid-shutdown; the
                // un-respawned worker is then irrelevant.
                let _ = exit_tx.send(ExitEvent::WorkerPanicked);
            }
        })
        .expect("spawning a service worker thread")
}

/// Worker body: drain the shared job queue, running the batched winner
/// search over each shard with a reusable distance buffer. Each job runs
/// inside `catch_unwind`; a panicking job reports a failed shard (so the
/// collector never hangs) and the thread exits for the supervisor to
/// replace — no state of the panicked thread survives into the respawn.
fn worker_loop(shared: &PoolShared) -> WorkerExit {
    let mut distances: Vec<u32> = Vec::new();
    loop {
        // Hold the lock only while receiving so shards drain in parallel.
        let job = lock_recovering(&shared.job_rx).recv();
        let Ok(job) = job else {
            return WorkerExit::QueueClosed; // queue closed: service dropped
        };
        shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            crate::faultpoint::hit("worker.job");
            distances.resize(job.layer.neuron_count(), 0);
            job.range
                .clone()
                .map(|i| {
                    job.layer
                        .winner_with_buffer(&job.signatures[i], &mut distances)
                        .ok()
                })
                .collect::<Vec<Option<BatchWinner>>>()
        }));
        match outcome {
            Ok(winners) => {
                // The collector may have been dropped (e.g. a panicking
                // caller); losing the reply is then harmless.
                let _ = job.reply.send(Shard {
                    range: job.range,
                    winners: Some(winners),
                });
            }
            Err(payload) => {
                shared.panics.fetch_add(1, Ordering::SeqCst);
                *lock_recovering(&shared.last_panic) = Some(panic_message(payload.as_ref()));
                let _ = job.reply.send(Shard {
                    range: job.range,
                    winners: None,
                });
                return WorkerExit::Panicked;
            }
        }
    }
}

/// Supervisor body: respawn panicked workers with a capped exponential
/// backoff until the shutdown sentinel arrives.
fn supervisor_loop(
    shared: &Arc<PoolShared>,
    exit_rx: &Receiver<ExitEvent>,
    exit_tx: &Sender<ExitEvent>,
) {
    let mut consecutive_panics: u32 = 0;
    let mut last_panic_at: Option<Instant> = None;
    while let Ok(event) = exit_rx.recv() {
        match event {
            ExitEvent::Shutdown => return,
            ExitEvent::WorkerPanicked => {
                if let Some(at) = last_panic_at {
                    if at.elapsed() >= RESPAWN_QUIET_PERIOD {
                        consecutive_panics = 0;
                    }
                }
                let delay = RESPAWN_BASE_DELAY
                    .saturating_mul(1u32 << consecutive_panics.min(7))
                    .min(RESPAWN_MAX_DELAY);
                std::thread::sleep(delay);
                consecutive_panics = consecutive_panics.saturating_add(1);
                last_panic_at = Some(Instant::now());
                shared.respawns.fetch_add(1, Ordering::SeqCst);
                let handle = spawn_worker(shared, exit_tx.clone());
                lock_recovering(&shared.handles).push(handle);
            }
        }
    }
}

/// A point-in-time view of the service's supervision state
/// ([`SomService::health`]): how many workers are alive versus configured,
/// how busy the bounded job queue is, and the panic/respawn history.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceHealth {
    /// Worker threads the service was configured with.
    pub workers_configured: usize,
    /// Worker threads currently alive. Dips below `workers_configured` only
    /// in the window between a worker panic and its respawn.
    pub workers_alive: usize,
    /// Jobs submitted to the bounded queue and not yet picked up.
    pub queue_depth: usize,
    /// Capacity of the bounded job queue
    /// ([`EngineConfig::queue_capacity`](crate::EngineConfig::queue_capacity)).
    pub queue_capacity: usize,
    /// Total worker jobs that panicked since construction.
    pub worker_panics: u64,
    /// Total workers the supervisor respawned since construction.
    pub worker_respawns: u64,
    /// Message of the most recent worker panic, if any.
    pub last_panic: Option<String>,
}

/// Admission policy for one batch (DESIGN.md §"Fault model and recovery"):
/// block on a full queue (backpressure) or shed the batch with
/// [`EngineError::Overloaded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    Block,
    Shed,
}

/// The state every handle shares: the latest published snapshot behind a
/// mutex, its version mirrored in an atomic so readers can detect "nothing
/// changed" without touching the lock, and the supervised worker pool.
struct ServiceCore {
    latest: Mutex<Arc<SomSnapshot>>,
    version: AtomicU64,
    /// Shared (`Arc`) so many services — the registry's tenants — can run
    /// over one supervised pool; a standalone service simply holds the only
    /// reference.
    pool: Arc<WorkerPool>,
    workers: usize,
}

impl ServiceCore {
    /// The latest published snapshot. Recovers from a poisoned lock: a
    /// publish panics (if ever) strictly *before* replacing the stored
    /// `Arc`, so the value behind a poisoned lock is always the last
    /// fully-published snapshot.
    fn snapshot(&self) -> Arc<SomSnapshot> {
        Arc::clone(&lock_recovering(&self.latest))
    }

    /// Swaps in a new snapshot and returns its version. The version counter
    /// is released only after the pointer swap, so a reader that observes
    /// the new version is guaranteed to read the new snapshot. The new
    /// `Arc` is fully constructed before the stored one is replaced, so an
    /// unwind while the lock is held (the `service.publish` failpoint sits
    /// exactly there) leaves the previous snapshot served, never a torn one.
    fn publish(
        &self,
        layer: Arc<PackedLayer>,
        labels: Vec<Option<ObjectLabel>>,
        unknown_threshold: Option<f64>,
    ) -> u64 {
        let mut guard = lock_recovering(&self.latest);
        crate::faultpoint::hit("service.publish");
        let version = guard.version() + 1;
        *guard = Arc::new(SomSnapshot {
            version,
            layer,
            labels,
            unknown_threshold,
        });
        self.version.store(version, Ordering::Release);
        version
    }

    /// The current supervision/queue counters.
    fn health(&self) -> ServiceHealth {
        self.pool.health_with(self.workers)
    }

    /// `(queue_depth, queue_capacity)` from atomics only — no lock, no
    /// `last_panic` clone — cheap enough for a scheduler to sample on every
    /// dispatch decision.
    fn queue_pressure(&self) -> (usize, usize) {
        (
            self.pool.shared.queue_depth.load(Ordering::SeqCst),
            self.pool.queue_capacity,
        )
    }

    /// Computes verdicts for `range` on the calling thread — the whole
    /// batch when its work is at most [`INLINE_CLASSIFY_MAX_NEURON_WORDS`],
    /// and the fallback when a shard's worker panicked or its reply was
    /// lost. The winner search is deterministic, so this is bit-identical to
    /// the pool path.
    fn classify_range_inline(
        &self,
        snapshot: &SomSnapshot,
        batch: &SignatureBatch,
        range: Range<usize>,
        predictions: &mut [Prediction],
    ) {
        let mut distances = vec![0u32; snapshot.layer.neuron_count()];
        for i in range {
            let winner = snapshot
                .layer
                .winner_with_buffer(&batch.0[i], &mut distances)
                .ok();
            predictions[i] = snapshot.verdict(winner);
        }
    }

    /// The whole batch on the calling thread: no queue slot, no hand-off.
    fn classify_inline(&self, snapshot: &SomSnapshot, batch: &SignatureBatch) -> Vec<Prediction> {
        let mut predictions = vec![Prediction::Unknown; batch.len()];
        self.classify_range_inline(snapshot, batch, 0..batch.len(), &mut predictions);
        predictions
    }

    /// Winner search + verdicts against one pinned snapshot, on the calling
    /// thread or sharded across the pool by the batch's work. Infallible:
    /// shard failures (a panicked worker, a lost reply, even a
    /// shutting-down pool) degrade to inline computation on the calling
    /// thread with bit-identical results.
    fn classify_on(&self, snapshot: &SomSnapshot, batch: &SignatureBatch) -> Vec<Prediction> {
        self.classify_with_admission(snapshot, batch, Admission::Block)
            .unwrap_or_else(|_| unreachable!("blocking admission never sheds a batch"))
    }

    /// [`classify_on`](Self::classify_on) with an explicit admission policy.
    ///
    /// A batch whose work — signatures × neurons × word rows, in
    /// neuron-words — is at most [`INLINE_CLASSIFY_MAX_NEURON_WORDS`] runs
    /// on the calling thread. It takes no queue slot, so it is never shed,
    /// and a panic in it unwinds into the caller. A larger batch is split
    /// into one shard per worker.
    ///
    /// Under [`Admission::Shed`], a full job queue rejects a sharded batch
    /// with [`EngineError::Overloaded`]; shards submitted before the full
    /// one still run (workers cannot be recalled) but their replies go to a
    /// receiver this call abandons. Under [`Admission::Block`] the call
    /// never errors: queue-full waits, and a shutdown race degrades to
    /// inline computation.
    fn classify_with_admission(
        &self,
        snapshot: &SomSnapshot,
        batch: &SignatureBatch,
        admission: Admission,
    ) -> Result<Vec<Prediction>, EngineError> {
        if classify_work(&snapshot.layer, batch.len()) <= INLINE_CLASSIFY_MAX_NEURON_WORDS {
            return Ok(self.classify_inline(snapshot, batch));
        }
        self.classify_sharded(snapshot, batch, admission)
    }

    /// The pool path: one shard per worker, collected in input order.
    fn classify_sharded(
        &self,
        snapshot: &SomSnapshot,
        batch: &SignatureBatch,
        admission: Admission,
    ) -> Result<Vec<Prediction>, EngineError> {
        let total = batch.len();
        let shard_len = total.div_ceil(self.workers);
        let (reply_tx, reply_rx) = mpsc::channel::<Shard>();
        // Ranges submitted to the pool whose replies are still owed.
        let mut outstanding: Vec<Range<usize>> = Vec::new();
        // Ranges the pool never accepted; computed inline below.
        let mut inline: Vec<Range<usize>> = Vec::new();
        let mut start = 0usize;
        while start < total {
            let end = (start + shard_len).min(total);
            let job = Job {
                layer: Arc::clone(&snapshot.layer),
                signatures: Arc::clone(&batch.0),
                range: start..end,
                reply: reply_tx.clone(),
            };
            match admission {
                Admission::Block => match self.pool.submit(job) {
                    Ok(()) => outstanding.push(start..end),
                    // Mid-shutdown: fall back to the calling thread.
                    Err(_) => inline.push(start..end),
                },
                Admission::Shed => match self.pool.try_submit(job) {
                    Ok(()) => outstanding.push(start..end),
                    Err(error) => return Err(error),
                },
            }
            start = end;
        }
        drop(reply_tx);

        let mut predictions: Vec<Prediction> = vec![Prediction::Unknown; total];
        while !outstanding.is_empty() {
            let Ok(shard) = reply_rx.recv() else {
                // Every remaining reply sender is gone without replying —
                // a worker died harder than the panic handler. Recompute.
                inline.append(&mut outstanding);
                break;
            };
            outstanding.retain(|range| *range != shard.range);
            match shard.winners {
                Some(winners) => {
                    for (offset, winner) in winners.into_iter().enumerate() {
                        predictions[shard.range.start + offset] = snapshot.verdict(winner);
                    }
                }
                // The worker running this shard panicked: its job already
                // counted in the health stats; the shard is re-run inline.
                None => inline.push(shard.range),
            }
        }
        for range in inline {
            self.classify_range_inline(snapshot, batch, range, &mut predictions);
        }
        Ok(predictions)
    }
}

/// The train-while-serve facade: a versioned, atomically-swappable serving
/// snapshot plus the worker pool that searches it.
///
/// # Examples
///
/// ```rust
/// use bsom_engine::{EngineConfig, SomService};
/// use bsom_signature::BinaryVector;
/// use bsom_som::{BSom, BSomConfig, ObjectLabel, TrainSchedule};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bsom_som::SomError> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let a = BinaryVector::from_bits((0..64).map(|i| i < 32));
/// let b = BinaryVector::from_bits((0..64).map(|i| i >= 32));
/// let data = vec![(a.clone(), ObjectLabel::new(0)), (b.clone(), ObjectLabel::new(1))];
///
/// let som = BSom::new(BSomConfig::new(8, 64), &mut rng);
/// let (service, mut trainer) =
///     SomService::train_while_serve(som, TrainSchedule::new(100), &data, EngineConfig::default());
/// let mut recognizer = service.recognizer();
///
/// // The recognizer serves from snapshot v1 while training proceeds...
/// trainer.train_epochs(&data, 100, &mut rng)?; // publishes on each epoch boundary
///
/// // ...and picks up the newest published snapshot on its next batch.
/// let predictions = recognizer.classify_batch(&[a, b][..]);
/// assert_eq!(predictions[0].label(), Some(ObjectLabel::new(0)));
/// assert_eq!(predictions[1].label(), Some(ObjectLabel::new(1)));
/// # Ok(())
/// # }
/// ```
pub struct SomService {
    core: Arc<ServiceCore>,
}

impl std::fmt::Debug for SomService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snapshot = self.core.snapshot();
        f.debug_struct("SomService")
            .field("version", &snapshot.version())
            .field("neurons", &snapshot.layer().neuron_count())
            .field("vector_len", &snapshot.layer().vector_len())
            .field("workers", &self.core.workers)
            .finish()
    }
}

impl SomService {
    /// Serves a frozen, already-trained classifier: snapshot v1 is published
    /// at construction and never replaced (nothing holds a [`Trainer`]).
    pub fn serve(classifier: &LabelledSom<BSom>, config: EngineConfig) -> Self {
        Self::build(
            classifier.map().packed_layer().clone(),
            classifier.neuron_labels().to_vec(),
            config.unknown_threshold.or(classifier.unknown_threshold()),
            config.workers,
            config.queue_capacity,
            1,
        )
    }

    /// Builds a serve-only service from an already-packed layer plus
    /// per-neuron labels, e.g. weights exported from the FPGA BlockRAM after
    /// off-line training (paper §V-F).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the layer's neuron count, or if
    /// the `BSOM_DISPATCH` environment variable names an unknown or
    /// unavailable kernel dispatch — validated **here**, eagerly, so a
    /// misconfigured deployment fails at startup on the constructing thread
    /// with a clear message instead of panicking at the first kernel call
    /// deep inside a worker.
    pub fn from_parts(
        layer: PackedLayer,
        labels: Vec<Option<ObjectLabel>>,
        unknown_threshold: Option<f64>,
        workers: usize,
    ) -> Self {
        Self::build(layer, labels, unknown_threshold, workers, None, 1)
    }

    /// The one construction path for a **standalone** service: resolves the
    /// worker count and queue capacity, spawns a dedicated pool, and
    /// delegates to [`build_on`](Self::build_on).
    fn build(
        layer: PackedLayer,
        labels: Vec<Option<ObjectLabel>>,
        unknown_threshold: Option<f64>,
        workers: usize,
        queue_capacity: Option<usize>,
        initial_version: u64,
    ) -> Self {
        let workers = resolve_workers(workers);
        let queue_capacity = resolve_queue_capacity(queue_capacity, workers);
        let pool = Arc::new(WorkerPool::spawn(workers, queue_capacity));
        Self::build_on(
            layer,
            labels,
            unknown_threshold,
            initial_version,
            pool,
            workers,
        )
    }

    /// Builds a service over an **existing** worker pool: validates the
    /// kernel dispatch eagerly and publishes the initial snapshot as
    /// `initial_version` (1 for fresh services, the checkpointed version + 1
    /// on [`resume_from_checkpoint`], the checkpointed version *exactly* on
    /// a registry reload — see `registry.rs` for why the distinction keeps
    /// evict→reload version-transparent).
    ///
    /// [`resume_from_checkpoint`]: SomService::resume_from_checkpoint
    pub(crate) fn build_on(
        layer: PackedLayer,
        labels: Vec<Option<ObjectLabel>>,
        unknown_threshold: Option<f64>,
        initial_version: u64,
        pool: Arc<WorkerPool>,
        workers: usize,
    ) -> Self {
        assert_eq!(
            labels.len(),
            layer.neuron_count(),
            "one label slot per neuron"
        );
        if let Err(error) = bsom_signature::validate_env_dispatch() {
            panic!("{error}");
        }
        let snapshot = Arc::new(SomSnapshot {
            version: initial_version,
            layer: Arc::new(layer),
            labels,
            unknown_threshold,
        });
        let core = Arc::new(ServiceCore {
            latest: Mutex::new(snapshot),
            version: AtomicU64::new(initial_version),
            pool,
            workers,
        });
        SomService { core }
    }

    /// Opens the service for **online learning**: publishes snapshot v1 from
    /// the map as given (labelled by a win pass over `seed_data`, which may
    /// be empty for a cold start) and returns the [`Trainer`] that owns the
    /// map from here on.
    ///
    /// Recognizers created before or after training starts are equivalent:
    /// each serves whatever snapshot is newest at its next batch.
    pub fn train_while_serve(
        som: BSom,
        schedule: TrainSchedule,
        seed_data: &[(BinaryVector, ObjectLabel)],
        config: EngineConfig,
    ) -> (Self, Trainer) {
        let workers = resolve_workers(config.workers);
        let queue_capacity = resolve_queue_capacity(config.queue_capacity, workers);
        let pool = Arc::new(WorkerPool::spawn(workers, queue_capacity));
        Self::pair_train_while_serve_on(som, schedule, seed_data, config, pool, workers)
    }

    /// [`train_while_serve`](Self::train_while_serve) over an existing
    /// worker pool — the registry's tenant-construction path. `workers` must
    /// already be resolved (non-zero).
    pub(crate) fn pair_train_while_serve_on(
        som: BSom,
        schedule: TrainSchedule,
        seed_data: &[(BinaryVector, ObjectLabel)],
        config: EngineConfig,
        pool: Arc<WorkerPool>,
        workers: usize,
    ) -> (Self, Trainer) {
        let mut stats = vec![DecayedLabelStats::default(); som.neuron_count()];
        for (signature, label) in seed_data {
            if let Ok(winner) = som.winner(signature) {
                // Seed wins share feed-step 0: no decay separates them.
                stats[winner.index].record_win(*label, 0, config.label_decay);
            }
        }
        let labels = stats
            .iter()
            .map(DecayedLabelStats::majority_label)
            .collect();
        let service = Self::build_on(
            som.packed_layer().clone(),
            labels,
            config.unknown_threshold,
            1,
            pool,
            workers,
        );
        let trainer = Trainer {
            core: Arc::clone(&service.core),
            som,
            schedule,
            epochs_run: 0,
            steps_run: 0,
            steps_since_publish: 0,
            publish_every_steps: config.publish_every_steps,
            stats,
            label_decay: config.label_decay,
            unknown_threshold: config.unknown_threshold,
            config,
            poisoned: false,
        };
        (service, trainer)
    }

    /// Restores a train-while-serve pair from a checkpoint written by
    /// [`Trainer::write_checkpoint`], continuing **bit-identically**: the
    /// restored map carries the exact weights, `#`-counts and xorshift64*
    /// RNG position of the checkpointed one, so feeding the same signatures
    /// produces the same winners, the same weight updates and the same RNG
    /// stream as a run that never stopped (proven by the
    /// `checkpoint_resume` and `fault_injection` suites).
    ///
    /// The restored state is published immediately as snapshot version
    /// `checkpointed version + 1`, so snapshot versions stay monotonic
    /// across restarts. The service is rebuilt with the checkpointed
    /// [`EngineConfig`].
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`]: unreadable file, bad magic/format, torn or
    /// bit-flipped frame (checksum mismatch), or a payload that fails the
    /// serde/semantic validation.
    pub fn resume_from_checkpoint(
        path: impl AsRef<Path>,
    ) -> Result<(Self, Trainer), CheckpointError> {
        let doc = checkpoint::read_doc(path.as_ref())?;
        let initial_version = doc.service_version + 1;
        let workers = resolve_workers(doc.config.workers);
        let queue_capacity = resolve_queue_capacity(doc.config.queue_capacity, workers);
        let pool = Arc::new(WorkerPool::spawn(workers, queue_capacity));
        Ok(Self::pair_from_doc_on(doc, initial_version, pool, workers))
    }

    /// Rebuilds a service/trainer pair from an in-memory [`CheckpointDoc`]
    /// over an existing pool, publishing the restored state as exactly
    /// `initial_version`.
    ///
    /// The public [`resume_from_checkpoint`](Self::resume_from_checkpoint)
    /// passes `doc.service_version + 1` (a restart is visible as a version
    /// bump); the registry's evict→reload path passes `doc.service_version`
    /// unchanged, because there the checkpointed layer **is** the published
    /// snapshot (trainers are published at every tick end before they can be
    /// evicted) and the round-trip must be invisible to clients.
    pub(crate) fn pair_from_doc_on(
        doc: CheckpointDoc,
        initial_version: u64,
        pool: Arc<WorkerPool>,
        workers: usize,
    ) -> (Self, Trainer) {
        let CheckpointDoc {
            service_version: _,
            som,
            schedule,
            epochs_run,
            steps_run,
            steps_since_publish,
            config,
            stats,
        } = doc;
        let stats: Vec<DecayedLabelStats> = stats
            .into_iter()
            .map(|doc| DecayedLabelStats {
                wins: doc
                    .wins
                    .into_iter()
                    .map(|(label, weight_bits)| {
                        (
                            ObjectLabel::new(label as usize),
                            f64::from_bits(weight_bits),
                        )
                    })
                    .collect(),
                last_step: doc.last_step,
            })
            .collect();
        let labels = stats
            .iter()
            .map(DecayedLabelStats::majority_label)
            .collect();
        let service = Self::build_on(
            som.packed_layer().clone(),
            labels,
            config.unknown_threshold,
            initial_version,
            pool,
            workers,
        );
        let trainer = Trainer {
            core: Arc::clone(&service.core),
            som,
            schedule,
            epochs_run,
            steps_run,
            steps_since_publish,
            publish_every_steps: config.publish_every_steps,
            stats,
            label_decay: config.label_decay,
            unknown_threshold: config.unknown_threshold,
            config,
            poisoned: false,
        };
        (service, trainer)
    }

    /// A point-in-time view of the supervision state: workers alive vs
    /// configured, bounded-queue depth, and the panic/respawn counters.
    pub fn health(&self) -> ServiceHealth {
        self.core.health()
    }

    /// A new recognizer handle, pinned to the latest snapshot until its next
    /// refresh. Handles are independent: create one per serving thread.
    pub fn recognizer(&self) -> Recognizer {
        Recognizer {
            current: self.core.snapshot(),
            core: Arc::clone(&self.core),
        }
    }

    /// The latest published snapshot.
    pub fn snapshot(&self) -> Arc<SomSnapshot> {
        self.core.snapshot()
    }

    /// Version of the latest published snapshot.
    pub fn version(&self) -> u64 {
        self.core.version.load(Ordering::Acquire)
    }

    /// Number of worker threads in the shared pool.
    pub fn worker_count(&self) -> usize {
        self.core.workers
    }

    /// `(queue_depth, queue_capacity)` of the bounded job queue, read from
    /// atomics only — the cheap health probe serving front-ends sample per
    /// request, where the full [`health`](Self::health) report would take a
    /// lock for `last_panic`.
    pub fn queue_pressure(&self) -> (usize, usize) {
        self.core.queue_pressure()
    }

    /// Classifies a batch against one **pinned** snapshot (no refresh) —
    /// the frozen-serving path for A/B comparisons across versions and for
    /// frozen oracles built with [`from_parts`](Self::from_parts). Inline
    /// or sharded by the same work rule as
    /// [`Recognizer::classify_batch`].
    pub fn classify_pinned(
        &self,
        snapshot: &SomSnapshot,
        signatures: impl Into<SignatureBatch>,
    ) -> Vec<Prediction> {
        self.core.classify_on(snapshot, &signatures.into())
    }

    /// The calling-thread path whatever the batch's work — the inline leg
    /// of the crossover sweep in [`crate::throughput`].
    pub(crate) fn classify_pinned_inline(
        &self,
        snapshot: &SomSnapshot,
        batch: &SignatureBatch,
    ) -> Vec<Prediction> {
        self.core.classify_inline(snapshot, batch)
    }

    /// The sharded pool path whatever the batch's work — the pool leg of
    /// the crossover sweep in [`crate::throughput`].
    pub(crate) fn classify_pinned_sharded(
        &self,
        snapshot: &SomSnapshot,
        batch: &SignatureBatch,
    ) -> Vec<Prediction> {
        self.core
            .classify_sharded(snapshot, batch, Admission::Block)
            .unwrap_or_else(|_| unreachable!("blocking admission never sheds a batch"))
    }
}

/// The training handle: owns the [`BSom`], feeds it labelled signatures, and
/// publishes serving snapshots. Exactly one trainer exists per
/// train-while-serve service.
///
/// Neuron labels are maintained **online**: every fed signature adds a win
/// for its label to the winning neuron's statistics (the same win-frequency
/// rule as [`LabelledSom::label`], accumulated as data streams instead of in
/// a separate pass), and each publish assigns every neuron its current
/// majority label. With [`EngineConfig::label_decay`] configured, each win's
/// weight fades exponentially with its age in feed steps, so under
/// appearance drift a neuron whose cluster changes identity relabels itself
/// as soon as fresh wins outweigh the faded history — no manual
/// [`reset_label_stats`](Trainer::reset_label_stats) required.
pub struct Trainer {
    core: Arc<ServiceCore>,
    som: BSom,
    schedule: TrainSchedule,
    epochs_run: usize,
    steps_run: u64,
    steps_since_publish: u64,
    publish_every_steps: Option<u64>,
    stats: Vec<DecayedLabelStats>,
    label_decay: Option<f64>,
    unknown_threshold: Option<f64>,
    /// The full construction config, persisted into checkpoints so
    /// [`SomService::resume_from_checkpoint`] rebuilds the same service.
    config: EngineConfig,
    /// Set when a [`try_feed`](Trainer::try_feed) step panicked: the map may
    /// hold a half-applied update, so this trainer refuses further training.
    poisoned: bool,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("epochs_run", &self.epochs_run)
            .field("steps_run", &self.steps_run)
            .field(
                "published_version",
                &self.core.version.load(Ordering::Acquire),
            )
            .finish()
    }
}

impl Trainer {
    /// The map in its current training state.
    pub fn som(&self) -> &BSom {
        &self.som
    }

    /// The schedule the training time follows.
    pub fn schedule(&self) -> &TrainSchedule {
        &self.schedule
    }

    /// Epochs of the schedule completed so far.
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    /// Training steps (pattern presentations) completed so far.
    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// One labelled training step at the schedule's current epoch: winner
    /// search on the shared packed layout, neighbourhood update, win-stat
    /// accumulation. Publishes automatically when the configured step-count
    /// cadence ([`EngineConfig::publish_every_steps`]) is reached.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::InputLengthMismatch`] for a wrong-length
    /// signature.
    pub fn feed(
        &mut self,
        signature: &BinaryVector,
        label: ObjectLabel,
    ) -> Result<Winner, SomError> {
        let winner = self
            .som
            .train_step(signature, self.epochs_run, &self.schedule)?;
        self.stats[winner.index].record_win(label, self.steps_run, self.label_decay);
        self.steps_run += 1;
        self.steps_since_publish += 1;
        if let Some(every) = self.publish_every_steps {
            if self.steps_since_publish >= every {
                self.publish();
            }
        }
        Ok(winner)
    }

    /// [`feed`](Self::feed) with the training step wrapped in
    /// `catch_unwind` — the supervised trainer loop. A panic inside the
    /// step is contained and returned as
    /// [`EngineError::TrainerPanicked`]; because the map may then hold a
    /// half-applied update, the trainer **poisons itself** and every later
    /// call returns [`EngineError::TrainerPoisoned`]. The service keeps
    /// serving its last published snapshot throughout — recovery is
    /// [`SomService::resume_from_checkpoint`] from the last checkpoint.
    ///
    /// # Errors
    ///
    /// [`EngineError::Som`] for a wrong-length signature (the trainer stays
    /// usable), [`EngineError::TrainerPanicked`] /
    /// [`EngineError::TrainerPoisoned`] as above.
    pub fn try_feed(
        &mut self,
        signature: &BinaryVector,
        label: ObjectLabel,
    ) -> Result<Winner, EngineError> {
        if self.poisoned {
            return Err(EngineError::TrainerPoisoned);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            crate::faultpoint::hit("trainer.feed");
            self.som
                .train_step(signature, self.epochs_run, &self.schedule)
        }));
        let winner = match outcome {
            Ok(result) => result?,
            Err(payload) => {
                self.poisoned = true;
                return Err(EngineError::TrainerPanicked {
                    message: panic_message(payload.as_ref()),
                });
            }
        };
        self.stats[winner.index].record_win(label, self.steps_run, self.label_decay);
        self.steps_run += 1;
        self.steps_since_publish += 1;
        if let Some(every) = self.publish_every_steps {
            if self.steps_since_publish >= every {
                self.publish();
            }
        }
        Ok(winner)
    }

    /// `true` once a [`try_feed`](Self::try_feed) step panicked; the trainer
    /// then refuses further training (see [`EngineError::TrainerPoisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Recovers a **poisoned** trainer in place by rebuilding its map from
    /// the last *published* snapshot — the in-memory recovery path when no
    /// checkpoint file exists (the registry exposes this as
    /// `replace_trainer`). Usable on a healthy trainer too, where it rolls
    /// uncommitted steps back to the published state.
    ///
    /// The published layer is by construction the last consistent state a
    /// client could observe, so the rebuilt map can never carry the
    /// half-applied update that caused the poisoning. Win statistics are
    /// kept: they are recorded only after a training step returns, so a
    /// panicking step never tears them.
    ///
    /// Recovery is deterministic but **not** bit-identical to a run that
    /// never panicked: the rebuilt map restarts its xorshift64* stream from
    /// the fixed [`BSom::from_weights`] seed, and steps fed since the last
    /// publish are lost (they were never visible to clients). The epoch and
    /// step clocks continue from where training stopped.
    ///
    /// # Errors
    ///
    /// [`EngineError::Som`] if the published layer cannot be rebuilt into a
    /// map (cannot happen for layers produced by a trainer, which are never
    /// empty).
    pub fn reset_from_snapshot(&mut self) -> Result<(), EngineError> {
        let snapshot = self.core.snapshot();
        let layer = snapshot.layer();
        let mut weights = Vec::with_capacity(layer.neuron_count());
        for index in 0..layer.neuron_count() {
            let mut weight = TriStateVector::all_dont_care(layer.vector_len());
            layer.copy_neuron_into(index, &mut weight);
            weights.push(weight);
        }
        // `from_weights` resets the update probabilities and neighbour rule
        // to the defaults; re-apply the map's own configuration.
        let config = *self.som.config();
        self.som = BSom::from_weights(weights)?
            .with_neighbour_rule(config.neighbour_rule)
            .with_update_probabilities(config.relax_probability, config.commit_probability);
        self.steps_since_publish = 0;
        self.poisoned = false;
        Ok(())
    }

    /// Writes a crash-safe checkpoint of the **entire training state** —
    /// weights with their `#`-counts, the xorshift64* RNG position, the
    /// schedule position, the step clocks, the decayed label statistics
    /// (bit-exact: weights round-trip as raw `f64` bits) and the service
    /// config/version — to `path`, framed with a length prefix and an
    /// FNV-1a checksum and committed by temp-file + atomic rename, so a
    /// crash mid-write can never leave a half-written file at `path` (see
    /// DESIGN.md §"Fault model and recovery" for the frame format).
    ///
    /// [`SomService::resume_from_checkpoint`] restores the pair and
    /// continues bit-identically to a run that never stopped.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the temp file cannot be written, synced
    /// or renamed into place.
    pub fn write_checkpoint(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<CheckpointInfo, CheckpointError> {
        checkpoint::write_doc(path.as_ref(), &self.checkpoint_doc())
    }

    /// The full training state as an in-memory checkpoint document — what
    /// [`write_checkpoint`](Self::write_checkpoint) frames to disk. The
    /// registry uses this (via the same `write_doc` frames) to spill cold
    /// tenants.
    pub(crate) fn checkpoint_doc(&self) -> CheckpointDoc {
        CheckpointDoc {
            service_version: self.core.version.load(Ordering::Acquire),
            som: self.som.clone(),
            schedule: self.schedule,
            epochs_run: self.epochs_run,
            steps_run: self.steps_run,
            steps_since_publish: self.steps_since_publish,
            config: self.config,
            stats: self
                .stats
                .iter()
                .map(|stat| NeuronStatsDoc {
                    last_step: stat.last_step,
                    wins: stat
                        .wins
                        .iter()
                        .map(|(label, weight)| (label.id() as u64, weight.to_bits()))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Advances the schedule to the next epoch and publishes — the epoch
    /// boundary for callers that stream through [`feed`](Self::feed) rather
    /// than training from a fixed dataset.
    pub fn advance_epoch(&mut self) -> u64 {
        self.epochs_run += 1;
        self.publish()
    }

    /// Runs `epochs` full shuffled passes over labelled `data`, publishing a
    /// snapshot at every epoch boundary (each step also honours the
    /// configured step-count cadence, exactly like [`feed`](Self::feed)).
    /// The shuffle reorders from the identity each epoch, so a run split
    /// across calls is bit-identical to a one-shot run with the same RNG
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::EmptyTrainingSet`] for empty `data` and
    /// propagates [`SomError::InputLengthMismatch`] from mismatched
    /// signatures.
    pub fn train_epochs<R: rand::Rng + ?Sized>(
        &mut self,
        data: &[(BinaryVector, ObjectLabel)],
        epochs: usize,
        rng: &mut R,
    ) -> Result<TrainReport, SomError> {
        if data.is_empty() {
            return Err(SomError::EmptyTrainingSet);
        }
        let start = std::time::Instant::now();
        let steps_before = self.steps_run;
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..epochs {
            crate::train::fresh_shuffled_order(&mut order, rng);
            for &idx in &order {
                let (signature, label) = &data[idx];
                self.feed(signature, *label)?;
            }
            self.epochs_run += 1;
            self.publish();
        }
        let steps = self.steps_run - steps_before;
        let seconds = start.elapsed().as_secs_f64();
        Ok(TrainReport {
            epochs,
            steps,
            seconds,
            steps_per_second: steps as f64 / seconds.max(f64::MIN_POSITIVE),
        })
    }

    /// Publishes the current weights and labelling as a new serving
    /// snapshot and returns its version. Cheap: one copy-on-write clone of
    /// the incrementally-maintained packed layout (word rows untouched
    /// since the last publish stay shared) plus an atomic pointer swap —
    /// recognizers mid-batch are untouched and pick the new version up on
    /// their next batch.
    pub fn publish(&mut self) -> u64 {
        self.steps_since_publish = 0;
        let labels = self
            .stats
            .iter()
            .map(DecayedLabelStats::majority_label)
            .collect();
        self.core.publish(
            Arc::new(self.som.packed_layer().clone()),
            labels,
            self.unknown_threshold,
        )
    }

    /// Steps fed since the last publish — 0 means the published snapshot is
    /// exactly the trainer's current state. The registry's tick scheduler
    /// uses this to publish only tenants that actually moved.
    pub(crate) fn steps_since_publish(&self) -> u64 {
        self.steps_since_publish
    }

    /// [`publish`](Self::publish) only when steps were fed since the last
    /// publish; returns the new version, or `None` when already clean.
    pub(crate) fn publish_if_dirty(&mut self) -> Option<u64> {
        if self.steps_since_publish == 0 {
            None
        } else {
            Some(self.publish())
        }
    }

    /// Clears the accumulated win statistics. Useful for windowed labelling
    /// under drift when no [`EngineConfig::label_decay`] is configured:
    /// reset, replay a recent window through [`feed`](Self::feed), publish.
    /// (With decay configured the statistics fade on their own.)
    pub fn reset_label_stats(&mut self) {
        for stat in &mut self.stats {
            stat.clear();
        }
    }

    /// Gives the trained map back, consuming the trainer. The service keeps
    /// serving its last published snapshot.
    pub fn into_som(self) -> BSom {
        self.som
    }
}

/// A serving handle: classifies batches against the snapshot it holds and
/// picks up newly published snapshots lock-free (one atomic load) at the
/// start of each batch.
pub struct Recognizer {
    core: Arc<ServiceCore>,
    current: Arc<SomSnapshot>,
}

impl std::fmt::Debug for Recognizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recognizer")
            .field("version", &self.current.version())
            .field("neurons", &self.current.layer().neuron_count())
            .finish()
    }
}

impl Recognizer {
    /// The snapshot this recognizer currently serves from.
    pub fn snapshot(&self) -> &SomSnapshot {
        &self.current
    }

    /// Version of the snapshot this recognizer currently serves from.
    pub fn version(&self) -> u64 {
        self.current.version()
    }

    /// `(queue_depth, queue_capacity)` of the shared pool's bounded job
    /// queue — see [`SomService::queue_pressure`]. Lets a batching scheduler
    /// that holds only a `Recognizer` adapt to pool pressure.
    pub fn queue_pressure(&self) -> (usize, usize) {
        self.core.queue_pressure()
    }

    /// Picks up the latest published snapshot if it is newer than the held
    /// one. Returns `true` if the snapshot changed. The fast path (nothing
    /// published) is a single atomic load; the lock is taken only to clone
    /// the new `Arc`.
    pub fn refresh(&mut self) -> bool {
        if self.core.version.load(Ordering::Acquire) == self.current.version() {
            return false;
        }
        self.current = self.core.snapshot();
        true
    }

    /// Classifies a batch of signatures. Refreshes to the newest snapshot
    /// first; the whole batch then runs against that one snapshot. A batch
    /// whose work is at most [`INLINE_CLASSIFY_MAX_NEURON_WORDS`] runs on
    /// the calling thread; a larger one is sharded across the service's
    /// worker pool. Results are in input order and bit-identical either
    /// way; wrong-length signatures yield [`Prediction::Unknown`].
    pub fn classify_batch(&mut self, signatures: impl Into<SignatureBatch>) -> Vec<Prediction> {
        self.refresh();
        self.core.classify_on(&self.current, &signatures.into())
    }

    /// [`classify_batch`](Self::classify_batch) with **load shedding**: if
    /// the bounded job queue cannot take every shard of this batch without
    /// blocking, the batch is rejected with [`EngineError::Overloaded`]
    /// instead of queueing without bound — the graceful-degradation path for
    /// a live camera feed, where a stale frame is better dropped than
    /// stalled on. Check [`SomService::health`] for the queue depth that
    /// triggered the shed. A batch within
    /// [`INLINE_CLASSIFY_MAX_NEURON_WORDS`] runs on the calling thread, takes
    /// no queue slot and is never shed.
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the queue is full,
    /// [`EngineError::PoolShutDown`] in a shutdown race.
    pub fn try_classify_batch(
        &mut self,
        signatures: impl Into<SignatureBatch>,
    ) -> Result<Vec<Prediction>, EngineError> {
        self.refresh();
        self.core
            .classify_with_admission(&self.current, &signatures.into(), Admission::Shed)
    }

    /// Runs a batch of frames through a [`SurveillancePipeline`] and
    /// classifies every surviving tracked object in one winner search
    /// against the (refreshed) current snapshot — on the calling thread or
    /// sharded across the pool, by the same work rule as
    /// [`classify_batch`](Self::classify_batch).
    ///
    /// The pipeline stays sequential (its background model and tracker are
    /// stateful), but all signatures the batch produces — across every frame
    /// — are classified together, which is where the batching pays off on
    /// busy scenes.
    pub fn process_frames(
        &mut self,
        pipeline: &mut SurveillancePipeline,
        frames: &[RgbImage],
    ) -> Vec<Vec<RecognizedObject>> {
        self.refresh();
        let per_frame = pipeline.process_frames(frames);
        let signatures: Vec<BinaryVector> = per_frame
            .iter()
            .flatten()
            .map(|obs| obs.signature.clone())
            .collect();
        let mut predictions = self
            .core
            .classify_on(&self.current, &SignatureBatch::from(signatures))
            .into_iter();
        per_frame
            .into_iter()
            .map(|observations| {
                observations
                    .into_iter()
                    .map(|observation| RecognizedObject {
                        observation,
                        prediction: predictions
                            .next()
                            .expect("one prediction per flattened observation"),
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsom_som::BSomConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5E121CE)
    }

    fn labelled_patterns(r: &mut StdRng, n: usize, len: usize) -> Vec<(BinaryVector, ObjectLabel)> {
        (0..n)
            .map(|i| (BinaryVector::random(len, r), ObjectLabel::new(i % 3)))
            .collect()
    }

    #[test]
    fn serve_only_service_matches_the_scalar_classifier() {
        let mut r = rng();
        let data = labelled_patterns(&mut r, 6, 96);
        let mut som = BSom::new(BSomConfig::new(12, 96), &mut r);
        som.train_labelled_data(&data, TrainSchedule::new(40), &mut r)
            .unwrap();
        let classifier = LabelledSom::label(som, &data);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(3));
        assert_eq!(service.version(), 1);
        let mut recognizer = service.recognizer();
        // Sizes on both sides of the inline limit: the largest batch that
        // runs on the calling thread and the smallest that goes to the pool.
        let per_signature = classify_work(service.snapshot().layer(), 1);
        let at_limit = INLINE_CLASSIFY_MAX_NEURON_WORDS / per_signature;
        for size in [1, 40, at_limit, at_limit + 1] {
            let batch: Vec<BinaryVector> = (0..size)
                .map(|_| BinaryVector::random(96, &mut r))
                .collect();
            let out = recognizer.classify_batch(&batch);
            assert_eq!(out.len(), size);
            for (s, p) in batch.iter().zip(&out) {
                assert_eq!(*p, classifier.classify(s));
            }
        }
        // Nothing publishes into a serve-only service.
        assert!(!recognizer.refresh());
    }

    #[test]
    fn train_epochs_publishes_on_every_epoch_boundary() {
        let mut r = rng();
        let data = labelled_patterns(&mut r, 5, 64);
        let som = BSom::new(BSomConfig::new(8, 64), &mut r);
        let (service, mut trainer) = SomService::train_while_serve(
            som,
            TrainSchedule::new(10),
            &data,
            EngineConfig::with_workers(2),
        );
        assert_eq!(service.version(), 1);
        let report = trainer.train_epochs(&data, 4, &mut r).unwrap();
        assert_eq!(report.epochs, 4);
        assert_eq!(report.steps, 20);
        assert_eq!(trainer.epochs_run(), 4);
        assert_eq!(service.version(), 5, "v1 + one publish per epoch");
    }

    #[test]
    fn recognizer_picks_up_published_snapshots_and_pinned_one_does_not() {
        let mut r = rng();
        // Distinct labels per pattern: online win-frequency labelling then
        // converges to one dedicated neuron per identity.
        let data: Vec<(BinaryVector, ObjectLabel)> = (0..6)
            .map(|i| (BinaryVector::random(64, &mut r), ObjectLabel::new(i)))
            .collect();
        let som = BSom::new(BSomConfig::new(8, 64), &mut r);
        let (service, mut trainer) = SomService::train_while_serve(
            som,
            TrainSchedule::new(50),
            &data,
            EngineConfig::with_workers(2),
        );
        let mut live = service.recognizer();
        let pinned = service.snapshot();
        assert_eq!(live.version(), 1);

        trainer.train_epochs(&data, 50, &mut r).unwrap();
        assert!(live.refresh());
        assert_eq!(live.version(), 51);
        assert_eq!(pinned.version(), 1, "held snapshots are immutable");

        // The refreshed recognizer serves the trained weights: every
        // training pattern is now an exact match of some neuron, and the
        // live path is bit-identical to a frozen classify on that snapshot.
        let signatures: Vec<BinaryVector> = data.iter().map(|(s, _)| s.clone()).collect();
        let out = live.classify_batch(&signatures);
        let frozen = service.classify_pinned(&service.snapshot(), &signatures);
        assert_eq!(out, frozen);
        // Training moved the weights: the served layer differs from v1's,
        // and training patterns are now strictly closer to the map.
        assert_ne!(live.snapshot().layer(), pinned.layer());
        for signature in &signatures {
            let before = pinned.layer().winner(signature).unwrap().distance;
            let after = live.snapshot().layer().winner(signature).unwrap().distance;
            assert!(after <= before, "training must not push a pattern away");
        }
    }

    #[test]
    fn feed_publishes_on_the_step_cadence() {
        let mut r = rng();
        let data = labelled_patterns(&mut r, 4, 64);
        let som = BSom::new(BSomConfig::new(8, 64), &mut r);
        let (service, mut trainer) = SomService::train_while_serve(
            som,
            TrainSchedule::new(10),
            &[],
            EngineConfig::with_workers(1).with_publish_every_steps(3),
        );
        for (signature, label) in data.iter().cycle().take(7) {
            trainer.feed(signature, *label).unwrap();
        }
        // Publishes after steps 3 and 6 (7 steps total).
        assert_eq!(service.version(), 3);
        assert_eq!(trainer.steps_run(), 7);
    }

    #[test]
    fn advance_epoch_publishes_and_moves_the_schedule() {
        let mut r = rng();
        let data = labelled_patterns(&mut r, 4, 64);
        let som = BSom::new(BSomConfig::new(8, 64), &mut r);
        let (service, mut trainer) = SomService::train_while_serve(
            som,
            TrainSchedule::new(10),
            &[],
            EngineConfig::with_workers(1),
        );
        for (signature, label) in &data {
            trainer.feed(signature, *label).unwrap();
        }
        assert_eq!(
            service.version(),
            1,
            "no cadence configured: no auto-publish"
        );
        let version = trainer.advance_epoch();
        assert_eq!(version, 2);
        assert_eq!(trainer.epochs_run(), 1);
        assert_eq!(service.version(), 2);
    }

    #[test]
    fn published_snapshot_layer_equals_a_fresh_pack() {
        let mut r = rng();
        let data = labelled_patterns(&mut r, 5, 70);
        let som = BSom::new(BSomConfig::new(6, 70), &mut r);
        let (service, mut trainer) = SomService::train_while_serve(
            som,
            TrainSchedule::new(8),
            &data,
            EngineConfig::with_workers(1),
        );
        trainer.train_epochs(&data, 8, &mut r).unwrap();
        let snapshot = service.snapshot();
        assert_eq!(snapshot.layer(), &PackedLayer::pack(trainer.som()));
    }

    #[test]
    fn single_classify_agrees_with_the_batch_path() {
        let mut r = rng();
        let data = labelled_patterns(&mut r, 6, 96);
        let mut som = BSom::new(BSomConfig::new(10, 96), &mut r);
        som.train_labelled_data(&data, TrainSchedule::new(30), &mut r)
            .unwrap();
        let classifier = LabelledSom::label(som, &data);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(2));
        let mut recognizer = service.recognizer();
        let probes: Vec<BinaryVector> = (0..10).map(|_| BinaryVector::random(96, &mut r)).collect();
        let batched = recognizer.classify_batch(&probes);
        for (probe, expected) in probes.iter().zip(&batched) {
            assert_eq!(
                recognizer.classify_batch(std::slice::from_ref(probe)),
                vec![*expected]
            );
        }
        // A wrong-length probe classified alone is Unknown, as in a batch.
        assert_eq!(
            recognizer.classify_batch(&[BinaryVector::zeros(8)][..]),
            vec![Prediction::Unknown]
        );
    }

    #[test]
    fn decayed_stats_relabel_under_drift_without_reset() {
        // One neuron, one signature, two "identities": the early phase wins
        // as label 0, then — much later on the step clock — a handful of
        // label-1 wins arrive. With a short half-life the faded label-0
        // weight loses the majority; without decay it never does.
        let mut r = rng();
        let signature = BinaryVector::random(64, &mut r);
        let run = |config: EngineConfig, r: &mut StdRng| {
            let som = BSom::new(BSomConfig::new(1, 64), r);
            let (service, mut trainer) =
                SomService::train_while_serve(som, TrainSchedule::new(1000), &[], config);
            for _ in 0..100 {
                trainer.feed(&signature, ObjectLabel::new(0)).unwrap();
            }
            for _ in 0..20 {
                trainer.feed(&signature, ObjectLabel::new(1)).unwrap();
            }
            trainer.publish();
            service.snapshot().neuron_labels()[0]
        };
        let decayed = run(
            EngineConfig::with_workers(1).with_label_half_life_steps(10),
            &mut r,
        );
        assert_eq!(
            decayed,
            Some(ObjectLabel::new(1)),
            "a 10-step half-life must fade the 100 stale label-0 wins"
        );
        let cumulative = run(EngineConfig::with_workers(1), &mut r);
        assert_eq!(
            cumulative,
            Some(ObjectLabel::new(0)),
            "without decay the cumulative majority stays with the old label"
        );
    }

    #[test]
    fn decayed_stats_tie_break_and_interleaving_match_the_cumulative_rule() {
        // Same-step wins never decay relative to each other, so equal counts
        // tie-break towards the smaller label id, like NeuronLabelStats.
        let mut stats = DecayedLabelStats::default();
        stats.record_win(ObjectLabel::new(3), 0, Some(0.5));
        stats.record_win(ObjectLabel::new(1), 0, Some(0.5));
        assert_eq!(stats.majority_label(), Some(ObjectLabel::new(1)));
        // A fresh win at a much later step dominates both faded entries.
        stats.record_win(ObjectLabel::new(7), 40, Some(0.5));
        assert_eq!(stats.majority_label(), Some(ObjectLabel::new(7)));
        // Long-dead entries are pruned, not kept at denormal weight.
        stats.record_win(ObjectLabel::new(7), 1000, Some(0.5));
        assert_eq!(stats.wins.len(), 1);
        // Without decay the weights are plain counts.
        let mut plain = DecayedLabelStats::default();
        plain.record_win(ObjectLabel::new(2), 0, None);
        plain.record_win(ObjectLabel::new(2), 900, None);
        plain.record_win(ObjectLabel::new(5), 901, None);
        assert_eq!(plain.majority_label(), Some(ObjectLabel::new(2)));
    }

    #[test]
    fn reset_label_stats_relabels_from_scratch() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::new(4, 64), &mut r);
        let a = BinaryVector::random(64, &mut r);
        let (service, mut trainer) = SomService::train_while_serve(
            som,
            TrainSchedule::new(4),
            &[],
            EngineConfig::with_workers(1),
        );
        trainer.feed(&a, ObjectLabel::new(0)).unwrap();
        trainer.publish();
        assert!(service
            .snapshot()
            .neuron_labels()
            .iter()
            .any(|l| l.is_some()));
        trainer.reset_label_stats();
        trainer.publish();
        assert!(service
            .snapshot()
            .neuron_labels()
            .iter()
            .all(|l| l.is_none()));
    }
}
