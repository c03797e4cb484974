//! The multi-tenant map registry: thousands of independent bSOM maps behind
//! one facade.
//!
//! The paper's classifier is a 40-neuron map — tiny. Serving "millions of
//! users" (the ROADMAP north star) therefore means many small per-user maps
//! in one process, not one giant map; the related FPGA recognizers scale the
//! same way, by replicating a small binary core. [`MapRegistry`] is that
//! replication in software (DESIGN.md §"The multi-tenant registry"):
//!
//! * **Slab-packed tenant table.** Tenants live in a `Vec<Option<TenantSlot>>`
//!   with a free list, indexed by a [`TenantId`] → slot map, so create/remove
//!   churn reuses slots instead of reallocating. A ready set keeps the slots
//!   whose queues hold examples, in slot order, so the round-robin scheduler
//!   visits only tenants with work, however many are idle or spilled.
//! * **One shared worker pool.** Every classify [`Job`](crate::service) in
//!   the engine carries the `Arc<PackedLayer>` it must search, so a single
//!   supervised pool serves *every* tenant's snapshots — N tenants cost N
//!   maps, not N thread pools.
//! * **Fair round-robin training.** Clients enqueue labelled examples with
//!   [`feed`](MapRegistry::feed); [`train_tick`](MapRegistry::train_tick)
//!   spreads a per-tick step budget across all tenants with pending work, one
//!   step per tenant per rotation, resuming each tick at the slot after the
//!   last one that stepped.
//!   Every tenant that trained is published at tick end, unless its trainer
//!   poisoned itself (its map may be torn, so nothing of it is published),
//!   which establishes the invariant the eviction path relies on:
//!   **outside a tick, the trainer state of every tenant that is not
//!   poisoned equals its published snapshot.**
//! * **A tenant is its trainer.** A resident tenant holds only its
//!   [`Trainer`], whose service handle answers classifies and whose version
//!   and snapshot are the tenant's; one accessor, which reloads an evicted
//!   tenant first, hands every entry point that needs the trainer in memory
//!   its `&mut Trainer`.
//! * **LRU eviction to disk.** Cold tenants spill to the validating
//!   checkpoint frames of [`Trainer::write_checkpoint`] — written and
//!   renamed into place but not `fsync`ed, since only this registry, in this
//!   process, ever reads a spill file back — and are reloaded
//!   transparently (and fault-typed) on their next touch. Because of the
//!   publish-at-tick-end invariant the reload republishes at the *same*
//!   version the tenant had when evicted — the round trip is invisible to
//!   clients, which the `tenant_isolation` differential suite proves
//!   bit-identically (weights, `#`-counts, RNG stream, versions).
//! * **In-place trainer recovery.** A tenant whose training step panicked
//!   ([`EngineError::TrainerPoisoned`]) can be recovered without a checkpoint
//!   file via [`replace_trainer`](MapRegistry::replace_trainer), which
//!   rebuilds the trainer's map from the last published snapshot.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use bsom_signature::BinaryVector;
use bsom_som::{BSom, ObjectLabel, Prediction, TrainSchedule};

use crate::checkpoint;
use crate::service::{
    lock_recovering, ServiceHealth, SomSnapshot, Trainer, TrainerState, WorkerPool,
};
use crate::{EngineConfig, EngineError};

/// A tenant's identity: an arbitrary UTF-8 string (u64 ids convert via
/// `From<u64>` as their decimal rendering, matching the wire format, which
/// carries tenant ids as strings).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(String);

impl TenantId {
    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<String> for TenantId {
    fn from(id: String) -> Self {
        TenantId(id)
    }
}

impl From<&str> for TenantId {
    fn from(id: &str) -> Self {
        TenantId(id.to_string())
    }
}

impl From<&String> for TenantId {
    fn from(id: &String) -> Self {
        TenantId(id.clone())
    }
}

impl From<u64> for TenantId {
    fn from(id: u64) -> Self {
        TenantId(id.to_string())
    }
}

impl From<&TenantId> for TenantId {
    fn from(id: &TenantId) -> Self {
        id.clone()
    }
}

/// Configuration of a [`MapRegistry`].
#[derive(Debug, Clone, Default)]
pub struct RegistryConfig {
    /// The per-tenant engine configuration (worker count and queue capacity
    /// size the one shared pool; the rest applies to every tenant).
    pub engine: EngineConfig,
    /// Maximum tenants kept resident in memory; beyond it the
    /// least-recently-touched tenant is evicted to disk. `0` (the default)
    /// means unlimited — nothing is ever evicted automatically.
    pub max_resident: usize,
    /// Directory for eviction spill checkpoints. Required (asserted by
    /// [`MapRegistry::new`]) when `max_resident > 0`; without it, explicit
    /// [`evict`](MapRegistry::evict) returns
    /// [`EngineError::SpillUnconfigured`].
    pub spill_dir: Option<PathBuf>,
}

impl RegistryConfig {
    /// Starts from the given per-tenant engine configuration.
    pub fn new(engine: EngineConfig) -> Self {
        RegistryConfig {
            engine,
            ..RegistryConfig::default()
        }
    }

    /// Sets the resident-tenant ceiling (see
    /// [`max_resident`](RegistryConfig::max_resident)).
    pub fn with_max_resident(mut self, max_resident: usize) -> Self {
        self.max_resident = max_resident;
        self
    }

    /// Sets the eviction spill directory.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }
}

/// Where a tenant's state currently lives.
enum TenantState {
    /// In memory: a live trainer over the shared pool, whose snapshots the
    /// tenant serves. Boxed so an evicted slot shrinks to its version — the
    /// slab stays dense when most of "thousands of tenants" are cold.
    Resident(Box<Trainer>),
    /// Spilled to the slot's checkpoint file; reloaded on next touch.
    /// `version` is the published version at eviction, which the spill
    /// frame records too.
    Evicted { version: u64 },
}

/// One slab slot: a tenant's identity, state, queued training examples and
/// LRU clock. The pending queue lives *outside* [`TenantState`], so feeding
/// an evicted tenant costs no reload — the queue drains when the scheduler
/// reloads it anyway.
struct TenantSlot {
    id: TenantId,
    state: TenantState,
    pending: VecDeque<(BinaryVector, ObjectLabel)>,
    /// Logical LRU clock value of the last touch (feed/classify/train).
    last_touch: u64,
    /// This tenant's spill file, fixed at creation (`Some` iff the registry
    /// has a spill directory). Deleted when the tenant is removed.
    spill_path: Option<PathBuf>,
}

impl TenantSlot {
    fn is_resident(&self) -> bool {
        matches!(self.state, TenantState::Resident(_))
    }

    /// The published version: the live trainer's, or the one kept at
    /// eviction (reload republishes at exactly that version).
    fn version(&self) -> u64 {
        match &self.state {
            TenantState::Resident(trainer) => trainer.version(),
            TenantState::Evicted { version } => *version,
        }
    }
}

/// Everything behind the registry's one mutex.
struct RegistryInner {
    slots: Vec<Option<TenantSlot>>,
    free: Vec<usize>,
    index: HashMap<TenantId, usize>,
    /// Occupied slots whose state is [`TenantState::Resident`], kept where a
    /// slot becomes or stops being resident so the ceiling check reads it
    /// instead of walking the slab.
    resident: usize,
    /// Occupied slots whose pending queue is non-empty, in slot order: the
    /// only slots a [`MapRegistry::train_tick`] rotation visits. Kept
    /// wherever a queue fills or empties (feed, tick step, drain, remove).
    ready: BTreeSet<usize>,
    /// Slot index the next [`MapRegistry::train_tick`] rotation starts at.
    rr_cursor: usize,
    /// Logical LRU clock, bumped on every touch.
    clock: u64,
    /// Tenants ever created — names spill files uniquely across removes.
    created_total: u64,
    evictions_total: u64,
    reloads_total: u64,
    steps_total: u64,
    ticks_total: u64,
}

impl RegistryInner {
    fn touch(&mut self, index: usize) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(slot) = self.slots[index].as_mut() {
            slot.last_touch = clock;
        }
    }

    fn index_of(&self, id: &TenantId) -> Result<usize, EngineError> {
        self.index
            .get(id)
            .copied()
            .ok_or_else(|| EngineError::UnknownTenant {
                tenant: id.as_str().to_string(),
            })
    }

    fn slot_mut(&mut self, index: usize) -> &mut TenantSlot {
        self.slots[index]
            .as_mut()
            .expect("indexed slots are occupied")
    }

    /// The resident count by a walk over the slab, for debug asserts.
    fn recount_resident(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|slot| slot.is_resident())
            .count()
    }

    /// The ready set by a walk over the slab, for debug asserts.
    fn recount_ready(&self) -> BTreeSet<usize> {
        (0..self.slots.len())
            .filter(|&index| {
                self.slots[index]
                    .as_ref()
                    .is_some_and(|slot| !slot.pending.is_empty())
            })
            .collect()
    }
}

/// Counters and occupancy of a registry ([`MapRegistry::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct RegistryStats {
    /// Tenants currently registered.
    pub tenants: usize,
    /// Tenants resident in memory.
    pub resident: usize,
    /// Tenants spilled to disk.
    pub evicted: usize,
    /// Labelled examples queued and not yet trained, across all tenants.
    pub pending_steps: u64,
    /// Tenants evicted to disk since construction.
    pub evictions_total: u64,
    /// Evicted tenants reloaded since construction.
    pub reloads_total: u64,
    /// Training steps run by the scheduler since construction.
    pub steps_total: u64,
    /// [`train_tick`](MapRegistry::train_tick) calls since construction.
    pub ticks_total: u64,
}

/// What one [`MapRegistry::train_tick`] did.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct TickReport {
    /// Training steps run this tick (≤ the budget).
    pub steps: u64,
    /// Distinct tenants that ran at least one step.
    pub tenants_trained: usize,
    /// Evicted tenants reloaded to train their pending work.
    pub reloads: u64,
    /// Tenants evicted at tick end to enforce the residency ceiling.
    pub evictions: u64,
    /// Tenants the tick skipped on a typed error (a failed reload, a
    /// poisoned trainer, a wrong-length example). The registry stays
    /// consistent and every other tenant trained normally.
    pub failures: Vec<(TenantId, EngineError)>,
}

/// A facade owning many independent train-while-serve bSOM tenants over one
/// shared supervised worker pool — see the [module docs](self) for the
/// design and DESIGN.md §"The multi-tenant registry" for the full picture.
///
/// All methods take `&self`; the registry is internally synchronised and
/// shareable via `Arc` across serving and training threads.
///
/// # Examples
///
/// ```rust
/// use bsom_engine::registry::{MapRegistry, RegistryConfig};
/// use bsom_engine::EngineConfig;
/// use bsom_signature::BinaryVector;
/// use bsom_som::{BSom, BSomConfig, ObjectLabel, TrainSchedule};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bsom_engine::EngineError> {
/// let mut rng = StdRng::seed_from_u64(7);
/// let registry = MapRegistry::new(RegistryConfig::new(EngineConfig::with_workers(2)));
///
/// let pattern = BinaryVector::random(64, &mut rng);
/// registry.create_tenant(
///     "camera-17",
///     BSom::new(BSomConfig::new(8, 64), &mut rng),
///     TrainSchedule::new(50),
///     &[],
/// )?;
/// registry.feed("camera-17", &pattern, ObjectLabel::new(3))?;
/// registry.train_tick(64); // fair round-robin over every tenant
/// let verdicts = registry.classify("camera-17", &[pattern][..])?;
/// assert_eq!(verdicts.len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct MapRegistry {
    pool: Arc<WorkerPool>,
    config: RegistryConfig,
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for MapRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("MapRegistry")
            .field("tenants", &stats.tenants)
            .field("resident", &stats.resident)
            .field("workers", &self.pool.health().workers_configured)
            .field("max_resident", &self.config.max_resident)
            .finish()
    }
}

impl MapRegistry {
    /// Creates an empty registry: spawns the shared worker pool sized by the
    /// per-tenant engine configuration.
    ///
    /// # Panics
    ///
    /// Panics if `max_resident > 0` without a spill directory (the eviction
    /// policy would have nowhere to put cold tenants), or if the
    /// `BSOM_DISPATCH` environment variable names an unusable kernel
    /// dispatch — validated eagerly, like every service constructor.
    pub fn new(config: RegistryConfig) -> Self {
        assert!(
            config.max_resident == 0 || config.spill_dir.is_some(),
            "RegistryConfig::max_resident needs a spill_dir to evict into"
        );
        MapRegistry {
            pool: Arc::new(WorkerPool::for_config(&config.engine)),
            config,
            inner: Mutex::new(RegistryInner {
                slots: Vec::new(),
                free: Vec::new(),
                index: HashMap::new(),
                resident: 0,
                ready: BTreeSet::new(),
                rr_cursor: 0,
                clock: 0,
                created_total: 0,
                evictions_total: 0,
                reloads_total: 0,
                steps_total: 0,
                ticks_total: 0,
            }),
        }
    }

    /// Registers a new tenant: starts a trainer over the shared pool,
    /// exactly like [`SomService::train_while_serve`] (snapshot v1
    /// published from the map as given, labelled by a win pass over
    /// `seed_data`). May evict the least-recently-touched tenant when the
    /// residency ceiling is hit.
    ///
    /// [`SomService::train_while_serve`]: crate::SomService::train_while_serve
    ///
    /// # Errors
    ///
    /// [`EngineError::DuplicateTenant`] if the id is taken; a
    /// [`EngineError::Checkpoint`] if enforcing the residency ceiling failed
    /// to spill a cold tenant (the new tenant is registered regardless).
    pub fn create_tenant(
        &self,
        id: impl Into<TenantId>,
        som: BSom,
        schedule: TrainSchedule,
        seed_data: &[(BinaryVector, ObjectLabel)],
    ) -> Result<(), EngineError> {
        let id = id.into();
        let mut inner = lock_recovering(&self.inner);
        if inner.index.contains_key(&id) {
            return Err(EngineError::DuplicateTenant {
                tenant: id.as_str().to_string(),
            });
        }
        let state = TrainerState::fresh(som, schedule, seed_data, self.config.engine);
        let trainer = Trainer::start(state, 1, Arc::clone(&self.pool));
        inner.created_total += 1;
        let seq = inner.created_total;
        let spill_path = self
            .config
            .spill_dir
            .as_ref()
            .map(|dir| dir.join(format!("tenant-{seq}.bsomckpt")));
        let slot = TenantSlot {
            id: id.clone(),
            state: TenantState::Resident(Box::new(trainer)),
            pending: VecDeque::new(),
            last_touch: 0,
            spill_path,
        };
        let index = match inner.free.pop() {
            Some(index) => {
                inner.slots[index] = Some(slot);
                index
            }
            None => {
                inner.slots.push(Some(slot));
                inner.slots.len() - 1
            }
        };
        inner.index.insert(id, index);
        inner.resident += 1;
        inner.touch(index);
        self.enforce_residency(&mut inner)
            .map_err(|(_, error)| error)
    }

    /// Removes a tenant, dropping its in-memory state, queued examples and
    /// spill file. The freed slab slot is reused by the next create.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTenant`].
    pub fn remove(&self, id: impl Into<TenantId>) -> Result<(), EngineError> {
        let id = id.into();
        let mut inner = lock_recovering(&self.inner);
        let index = inner.index_of(&id)?;
        let slot = inner.slots[index]
            .take()
            .expect("indexed slots are occupied");
        inner.resident -= usize::from(slot.is_resident());
        inner.ready.remove(&index);
        inner.index.remove(&id);
        inner.free.push(index);
        drop(inner);
        if let Some(path) = slot.spill_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Queues one labelled training example for the tenant. Cheap — no
    /// training, no reload; the example is consumed by a later
    /// [`train_tick`](Self::train_tick) (or
    /// [`drain_tenant`](Self::drain_tenant)). Feeding counts as a touch for
    /// the LRU policy, but an evicted tenant stays on disk until the
    /// scheduler needs it.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTenant`].
    pub fn feed(
        &self,
        id: impl Into<TenantId>,
        signature: &BinaryVector,
        label: ObjectLabel,
    ) -> Result<(), EngineError> {
        let id = id.into();
        let mut inner = lock_recovering(&self.inner);
        let index = inner.index_of(&id)?;
        inner.touch(index);
        inner
            .slot_mut(index)
            .pending
            .push_back((signature.clone(), label));
        inner.ready.insert(index);
        Ok(())
    }

    /// Classifies a batch against the tenant's latest published snapshot.
    /// The winner search runs *outside* the registry lock — on the calling
    /// thread for a batch within
    /// [`INLINE_CLASSIFY_MAX_NEURON_WORDS`](crate::INLINE_CLASSIFY_MAX_NEURON_WORDS),
    /// on the shared pool above it — so concurrent classifies of different
    /// tenants do not serialise on each other (only the snapshot lookup
    /// does). An evicted tenant is transparently reloaded first.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTenant`]; [`EngineError::Checkpoint`] when the
    /// reload of an evicted tenant fails (the tenant stays evicted, the
    /// registry stays consistent).
    pub fn classify(
        &self,
        id: impl Into<TenantId>,
        signatures: impl Into<crate::SignatureBatch>,
    ) -> Result<Vec<Prediction>, EngineError> {
        let id = id.into();
        let (service, snapshot) = {
            let mut inner = lock_recovering(&self.inner);
            let index = inner.index_of(&id)?;
            inner.touch(index);
            let service = self.resident(&mut inner, index)?.service();
            let snapshot = service.snapshot();
            (service, snapshot)
        };
        Ok(service.classify_pinned(&snapshot, signatures))
    }

    /// The tenant's latest published snapshot (reloading it if evicted) —
    /// gives serving threads a pinned, immutable view exactly like
    /// [`SomService::snapshot`](crate::SomService::snapshot).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTenant`]; [`EngineError::Checkpoint`] on a
    /// failed reload.
    pub fn snapshot(&self, id: impl Into<TenantId>) -> Result<Arc<SomSnapshot>, EngineError> {
        let id = id.into();
        let mut inner = lock_recovering(&self.inner);
        let index = inner.index_of(&id)?;
        inner.touch(index);
        Ok(self.resident(&mut inner, index)?.service().snapshot())
    }

    /// The tenant's latest published snapshot version. An evicted tenant
    /// answers from the version its slot kept at eviction, without reading
    /// its spill file: reload republishes at exactly that version, so the
    /// answer is the same either way.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTenant`].
    pub fn version(&self, id: impl Into<TenantId>) -> Result<u64, EngineError> {
        let id = id.into();
        let mut inner = lock_recovering(&self.inner);
        let index = inner.index_of(&id)?;
        Ok(inner.slot_mut(index).version())
    }

    /// A clone of the tenant's map in its current training state (reloading
    /// it if evicted) — the inspection hook the differential
    /// `tenant_isolation` suite compares bit-for-bit against standalone
    /// services (weights, `#`-counts and RNG position all live in the
    /// [`BSom`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTenant`]; [`EngineError::Checkpoint`] on a
    /// failed reload.
    pub fn tenant_som(&self, id: impl Into<TenantId>) -> Result<BSom, EngineError> {
        let id = id.into();
        let mut inner = lock_recovering(&self.inner);
        let index = inner.index_of(&id)?;
        Ok(self.resident(&mut inner, index)?.som().clone())
    }

    /// `true` once the tenant's trainer poisoned itself on a panicked
    /// training step — recover with
    /// [`replace_trainer`](Self::replace_trainer). `false` for evicted
    /// tenants (their checkpointed state predates any poisoning; poisoned
    /// tenants are never evicted).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTenant`].
    pub fn is_poisoned(&self, id: impl Into<TenantId>) -> Result<bool, EngineError> {
        let id = id.into();
        let mut inner = lock_recovering(&self.inner);
        let index = inner.index_of(&id)?;
        match &inner.slot_mut(index).state {
            TenantState::Resident(trainer) => Ok(trainer.is_poisoned()),
            TenantState::Evicted { .. } => Ok(false),
        }
    }

    /// Recovers the tenant's trainer in place from its last published
    /// snapshot — the poisoned-trainer recovery path
    /// ([`Trainer::reset_from_snapshot`]): no checkpoint file needed, the
    /// tenant keeps serving throughout, and training resumes deterministically
    /// from the published weights.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTenant`]; [`EngineError::Checkpoint`] on a
    /// failed reload of an evicted tenant.
    pub fn replace_trainer(&self, id: impl Into<TenantId>) -> Result<(), EngineError> {
        let id = id.into();
        let mut inner = lock_recovering(&self.inner);
        let index = inner.index_of(&id)?;
        inner.touch(index);
        self.resident(&mut inner, index)?.reset_from_snapshot()
    }

    /// Explicitly evicts a tenant to its spill checkpoint. The in-memory
    /// state is dropped only after the complete checkpoint frame has been
    /// written to `<spill file>.tmp` and renamed over the spill file; a
    /// failure (or an injected `registry.evict` panic) leaves the tenant
    /// resident and servable. The frame is not `fsync`ed: a spill file is
    /// read back only by this registry, within this process, so it has to
    /// stay readable while the process runs, not survive a power loss.
    /// Spill directories are never reopened, and a new tenant starts
    /// resident, so its first eviction overwrites any stale file at its path
    /// before anything can read it. Queued examples stay in memory — they spill
    /// with the *slot*, not the state, and train after the next reload.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTenant`]; [`EngineError::SpillUnconfigured`]
    /// without a spill directory; [`EngineError::TrainerPoisoned`] for a
    /// poisoned tenant (its map may hold a torn update — checkpointing it
    /// would resurrect the tear as clean state; recover with
    /// [`replace_trainer`](Self::replace_trainer) first);
    /// [`EngineError::Checkpoint`] when the spill write fails.
    pub fn evict(&self, id: impl Into<TenantId>) -> Result<(), EngineError> {
        let id = id.into();
        let mut inner = lock_recovering(&self.inner);
        let index = inner.index_of(&id)?;
        self.evict_slot(&mut inner, index)
    }

    /// Reloads an evicted tenant into memory now (instead of lazily on next
    /// touch). A no-op for resident tenants.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTenant`]; [`EngineError::Checkpoint`] when the
    /// spill file is missing, torn or corrupt — typed, and the registry
    /// stays consistent (the tenant simply stays evicted).
    pub fn reload(&self, id: impl Into<TenantId>) -> Result<(), EngineError> {
        let id = id.into();
        let mut inner = lock_recovering(&self.inner);
        let index = inner.index_of(&id)?;
        inner.touch(index);
        self.resident(&mut inner, index).map(|_| ())
    }

    /// Runs up to `step_budget` training steps, spread fairly across every
    /// tenant with queued examples: one step per tenant per rotation. Each
    /// rotation visits only the ready set (the slots with queued work), in
    /// slot order from the cursor to the end of the slab and wrapping back,
    /// so idle and spilled tenants cost the tick nothing. When the budget
    /// runs out the cursor moves to the slot after the last step, where the
    /// next tick starts; when the queues drain first it stays put. Evicted
    /// tenants with pending work are reloaded transparently. Every tenant
    /// that trained is published at tick end (plus any mid-tick publishes
    /// its own [`EngineConfig::publish_every_steps`] cadence fired), except
    /// one whose trainer poisoned itself during the tick, then the
    /// residency ceiling is enforced by evicting the least-recently-touched
    /// tenants.
    ///
    /// Per-tenant errors (failed reload, poisoned trainer, wrong-length
    /// example) never fail the tick: the tenant is skipped for the rest of
    /// the tick and reported in [`TickReport::failures`].
    pub fn train_tick(&self, step_budget: u64) -> TickReport {
        let mut report = TickReport::default();
        let mut inner = lock_recovering(&self.inner);
        debug_assert_eq!(inner.ready, inner.recount_ready());
        inner.ticks_total += 1;
        let reloads_at_start = inner.reloads_total;
        let evictions_at_start = inner.evictions_total;
        let slot_count = inner.slots.len();
        if slot_count == 0 || step_budget == 0 {
            return report;
        }
        // Indices of tenants that trained this tick (publish at tick end).
        let mut trained: Vec<usize> = Vec::new();
        // The first rotation: every ready slot, from the cursor round to the
        // slot before it. Only this tick's own steps empty a queue, so each
        // later rotation is the tenants that stepped in the one before and
        // still have work, in the same order; a tenant that errored drops
        // out for the rest of the tick.
        let cursor = inner.rr_cursor;
        let mut rotation: Vec<usize> = inner
            .ready
            .range(cursor..)
            .chain(inner.ready.range(..cursor))
            .copied()
            .collect();
        let mut budget = step_budget;
        'tick: while !rotation.is_empty() {
            let mut next = Vec::with_capacity(rotation.len());
            for index in rotation {
                // Reload first: a tenant that cannot come back keeps its
                // queue.
                if let Err(error) = self.resident(&mut inner, index) {
                    let id = inner.slot_mut(index).id.clone();
                    report.failures.push((id, error));
                    continue;
                }
                inner.touch(index);
                let slot = inner.slot_mut(index);
                let (signature, label) = slot
                    .pending
                    .pop_front()
                    .expect("ready slots have queued examples");
                let more = !slot.pending.is_empty();
                if !more {
                    inner.ready.remove(&index);
                }
                // Resident now, so this only looks the trainer up.
                let stepped = self
                    .resident(&mut inner, index)
                    .and_then(|trainer| trainer.try_feed(&signature, label));
                match stepped {
                    Ok(_) => {
                        budget -= 1;
                        report.steps += 1;
                        inner.steps_total += 1;
                        if !trained.contains(&index) {
                            trained.push(index);
                        }
                        if budget == 0 {
                            // Resume the interrupted rotation here next tick.
                            inner.rr_cursor = (index + 1) % slot_count;
                            break 'tick;
                        }
                        if more {
                            next.push(index);
                        }
                    }
                    Err(error) => {
                        // The example is consumed either way: a wrong-length
                        // signature can never train, and a panicked step's
                        // example is part of the torn state the recovery
                        // path discards.
                        let id = inner.slot_mut(index).id.clone();
                        report.failures.push((id, error));
                    }
                }
            }
            rotation = next;
        }
        // Publish every tenant that moved: the invariant that makes
        // eviction version-transparent (trainer state == published snapshot
        // outside a tick). A trainer that poisoned itself on a later step
        // may hold a torn map, so nothing of it is published.
        for &index in &trained {
            if let TenantState::Resident(trainer) = &mut inner.slot_mut(index).state {
                if !trainer.is_poisoned() {
                    trainer.publish_if_dirty();
                }
            }
        }
        report.tenants_trained = trained.len();
        if let Err((id, error)) = self.enforce_residency(&mut inner) {
            // The tenant that failed to spill stays resident and servable.
            report.failures.push((id, error));
        }
        report.reloads = inner.reloads_total - reloads_at_start;
        report.evictions = inner.evictions_total - evictions_at_start;
        report
    }

    /// Flushes **all** of one tenant's queued examples through its trainer
    /// (ignoring any tick budget), publishes, and returns
    /// `(steps_flushed, final_version)` — the tenant-scoped graceful drain
    /// the serve layer maps `DrainRequest{tenant}` onto. A tenant with
    /// nothing queued answers `(0, version)` as it stands: an evicted one
    /// stays on disk, so draining a whole fleet reloads only the tenants
    /// that have work.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTenant`]; [`EngineError::Checkpoint`] on a
    /// failed reload; the first training error (the remaining queue is
    /// preserved, and the steps before it are published unless the trainer
    /// poisoned itself).
    pub fn drain_tenant(&self, id: impl Into<TenantId>) -> Result<(u64, u64), EngineError> {
        let id = id.into();
        let mut inner = lock_recovering(&self.inner);
        let index = inner.index_of(&id)?;
        inner.touch(index);
        let slot = inner.slot_mut(index);
        if slot.pending.is_empty() {
            return Ok((0, slot.version()));
        }
        // Whatever does not train (all of it, if the reload fails) goes
        // back to the slot's queue below.
        let mut pending = std::mem::take(&mut slot.pending);
        let flushed = self.resident(&mut inner, index).and_then(|trainer| {
            let mut steps = 0u64;
            let mut stepped = Ok(());
            while let Some((signature, label)) = pending.pop_front() {
                if let Err(error) = trainer.try_feed(&signature, label) {
                    stepped = Err(error);
                    break;
                }
                steps += 1;
            }
            // Outside a tick the trainer must equal its snapshot, failed
            // step or not; a poisoned map may be torn and is never
            // published.
            if !trainer.is_poisoned() {
                trainer.publish_if_dirty();
            }
            stepped.map(|()| (steps, trainer.version()))
        });
        if pending.is_empty() {
            inner.ready.remove(&index);
        }
        inner.slot_mut(index).pending = pending;
        let (steps, version) = flushed?;
        inner.steps_total += steps;
        Ok((steps, version))
    }

    /// Aggregate counters and occupancy.
    pub fn stats(&self) -> RegistryStats {
        let inner = lock_recovering(&self.inner);
        let pending_steps = inner
            .slots
            .iter()
            .flatten()
            .map(|slot| slot.pending.len() as u64)
            .sum();
        RegistryStats {
            tenants: inner.index.len(),
            resident: inner.resident,
            evicted: inner.index.len() - inner.resident,
            pending_steps,
            evictions_total: inner.evictions_total,
            reloads_total: inner.reloads_total,
            steps_total: inner.steps_total,
            ticks_total: inner.ticks_total,
        }
    }

    /// Supervision counters of the one shared worker pool (see
    /// [`SomService::health`](crate::SomService::health) — the registry's
    /// tenants all report through this single pool).
    pub fn health(&self) -> ServiceHealth {
        self.pool.health()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        lock_recovering(&self.inner).index.len()
    }

    /// `true` when no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the tenant exists (resident or evicted).
    pub fn contains(&self, id: impl Into<TenantId>) -> bool {
        lock_recovering(&self.inner).index.contains_key(&id.into())
    }

    /// `true` when the tenant exists and is resident in memory.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTenant`].
    pub fn is_resident(&self, id: impl Into<TenantId>) -> Result<bool, EngineError> {
        let id = id.into();
        let mut inner = lock_recovering(&self.inner);
        let index = inner.index_of(&id)?;
        Ok(inner.slot_mut(index).is_resident())
    }

    /// The ids of every registered tenant, in unspecified order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        lock_recovering(&self.inner).index.keys().cloned().collect()
    }

    /// The trainer of tenant `index`, reloaded from its spill frame first
    /// if the tenant is evicted — the one way the facade reaches a trainer
    /// it needs in memory. On failure the slot stays `Evicted` and the error
    /// is typed — the registry never poisons.
    fn resident<'a>(
        &self,
        inner: &'a mut RegistryInner,
        index: usize,
    ) -> Result<&'a mut Trainer, EngineError> {
        let slot = inner.slot_mut(index);
        if let TenantState::Evicted { version: evicted } = slot.state {
            crate::faultpoint::hit("registry.reload");
            let path = slot
                .spill_path
                .as_ref()
                .ok_or(EngineError::SpillUnconfigured)?;
            let (version, state) = checkpoint::read(path)?;
            // Republished at *exactly* the spilled version (not +1 like the
            // public crash-recovery resume): the spill frame was written
            // under the publish-at-tick-end invariant, so its layer IS the
            // snapshot clients were already being served — the eviction
            // round trip must not masquerade as new state.
            debug_assert_eq!(
                version, evicted,
                "a spill frame records the version its slot was evicted at"
            );
            let trainer = Trainer::start(state, version, Arc::clone(&self.pool));
            slot.state = TenantState::Resident(Box::new(trainer));
            inner.resident += 1;
            inner.reloads_total += 1;
        }
        match &mut inner.slot_mut(index).state {
            TenantState::Resident(trainer) => Ok(trainer),
            TenantState::Evicted { .. } => unreachable!("a reload leaves the slot resident"),
        }
    }

    /// Spills slot `index` to disk. See [`evict`](Self::evict) for the
    /// ordering guarantees.
    fn evict_slot(&self, inner: &mut RegistryInner, index: usize) -> Result<(), EngineError> {
        let slot = inner.slot_mut(index);
        let TenantState::Resident(trainer) = &slot.state else {
            return Ok(()); // already on disk
        };
        if trainer.is_poisoned() {
            return Err(EngineError::TrainerPoisoned);
        }
        debug_assert_eq!(
            trainer.steps_since_publish(),
            0,
            "evict outside a tick: trainer state must equal the published snapshot"
        );
        let path = slot
            .spill_path
            .as_ref()
            .ok_or(EngineError::SpillUnconfigured)?;
        // Under the publish-at-tick-end invariant asserted above, this is
        // the version the spill frame records.
        let version = trainer.version();
        trainer.write_spill(path)?;
        // A panic here (the `registry.evict` failpoint) unwinds with the
        // spill frame in place but the tenant still resident — it stays
        // servable from memory, and the stale spill file is simply
        // overwritten by the next successful evict.
        crate::faultpoint::hit("registry.evict");
        inner.slot_mut(index).state = TenantState::Evicted { version };
        inner.resident -= 1;
        inner.evictions_total += 1;
        Ok(())
    }

    /// Evicts least-recently-touched tenants until the resident count is
    /// within [`RegistryConfig::max_resident`], naming the tenant that failed
    /// to spill on an error (for [`TickReport::failures`]). Poisoned tenants
    /// are never auto-evicted (their maps may be torn); they count against
    /// the ceiling until recovered. Within the ceiling this reads the kept
    /// count and walks nothing; over it, one walk over the slab finds each
    /// victim.
    fn enforce_residency(&self, inner: &mut RegistryInner) -> Result<(), (TenantId, EngineError)> {
        debug_assert_eq!(inner.resident, inner.recount_resident());
        debug_assert_eq!(inner.ready, inner.recount_ready());
        let max = self.config.max_resident;
        if max == 0 {
            return Ok(());
        }
        while inner.resident > max {
            let mut coldest: Option<(u64, usize)> = None;
            for (index, slot) in inner.slots.iter().enumerate() {
                let Some(slot) = slot else { continue };
                let TenantState::Resident(trainer) = &slot.state else {
                    continue;
                };
                if trainer.is_poisoned() {
                    continue; // not evictable
                }
                if coldest
                    .map(|(touch, _)| slot.last_touch < touch)
                    .unwrap_or(true)
                {
                    coldest = Some((slot.last_touch, index));
                }
            }
            let Some((_, index)) = coldest else {
                return Ok(()); // every over-ceiling tenant is poisoned
            };
            if let Err(error) = self.evict_slot(inner, index) {
                let id = inner.slot_mut(index).id.clone();
                return Err((id, error));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsom_som::BSomConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x1E6157)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bsom-registry-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn duplicate_and_unknown_tenants_are_typed() {
        let mut r = rng();
        let registry = MapRegistry::new(RegistryConfig::new(EngineConfig::with_workers(1)));
        let som = BSom::new(BSomConfig::new(4, 64), &mut r);
        registry
            .create_tenant("a", som.clone(), TrainSchedule::new(10), &[])
            .unwrap();
        assert!(matches!(
            registry.create_tenant("a", som, TrainSchedule::new(10), &[]),
            Err(EngineError::DuplicateTenant { .. })
        ));
        let probe = BinaryVector::random(64, &mut r);
        assert!(matches!(
            registry.feed("nope", &probe, ObjectLabel::new(0)),
            Err(EngineError::UnknownTenant { .. })
        ));
        assert!(matches!(
            registry.classify("nope", &[probe][..]),
            Err(EngineError::UnknownTenant { .. })
        ));
        assert!(registry.contains("a"));
        assert!(!registry.contains("nope"));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn slab_slots_are_reused_after_remove() {
        let mut r = rng();
        let registry = MapRegistry::new(RegistryConfig::new(EngineConfig::with_workers(1)));
        for i in 0u64..4 {
            let som = BSom::new(BSomConfig::new(4, 64), &mut r);
            registry
                .create_tenant(i, som, TrainSchedule::new(10), &[])
                .unwrap();
        }
        registry.remove(1u64).unwrap();
        registry.remove(2u64).unwrap();
        let before = lock_recovering(&registry.inner).slots.len();
        for i in 10u64..12 {
            let som = BSom::new(BSomConfig::new(4, 64), &mut r);
            registry
                .create_tenant(i, som, TrainSchedule::new(10), &[])
                .unwrap();
        }
        let after = lock_recovering(&registry.inner).slots.len();
        assert_eq!(before, after, "freed slab slots are reused, not appended");
        assert_eq!(registry.len(), 4);
    }

    #[test]
    fn evict_requires_a_spill_dir() {
        let mut r = rng();
        let registry = MapRegistry::new(RegistryConfig::new(EngineConfig::with_workers(1)));
        let som = BSom::new(BSomConfig::new(4, 64), &mut r);
        registry
            .create_tenant("a", som, TrainSchedule::new(10), &[])
            .unwrap();
        assert!(matches!(
            registry.evict("a"),
            Err(EngineError::SpillUnconfigured)
        ));
    }

    #[test]
    #[should_panic(expected = "spill_dir")]
    fn max_resident_without_spill_dir_panics() {
        let _ = MapRegistry::new(
            RegistryConfig::new(EngineConfig::with_workers(1)).with_max_resident(2),
        );
    }

    #[test]
    fn lru_eviction_spills_the_coldest_tenant_and_reload_serves_it() {
        let mut r = rng();
        let dir = temp_dir("lru");
        let registry = MapRegistry::new(
            RegistryConfig::new(EngineConfig::with_workers(1))
                .with_max_resident(2)
                .with_spill_dir(&dir),
        );
        let data: Vec<(BinaryVector, ObjectLabel)> = (0..4)
            .map(|i| (BinaryVector::random(64, &mut r), ObjectLabel::new(i % 2)))
            .collect();
        for i in 0u64..2 {
            let som = BSom::new(BSomConfig::new(4, 64), &mut r);
            registry
                .create_tenant(i, som, TrainSchedule::new(10), &data)
                .unwrap();
        }
        // Touch tenant 1 so tenant 0 is coldest, then create a third.
        registry.feed(1u64, &data[0].0, data[0].1).unwrap();
        let som = BSom::new(BSomConfig::new(4, 64), &mut r);
        registry
            .create_tenant(2u64, som, TrainSchedule::new(10), &data)
            .unwrap();
        assert!(!registry.is_resident(0u64).unwrap(), "coldest was spilled");
        assert!(registry.is_resident(1u64).unwrap());
        assert!(registry.is_resident(2u64).unwrap());
        assert_eq!(registry.stats().evictions_total, 1);
        // Classifying the evicted tenant reloads it transparently...
        let version_before = registry.version(0u64).unwrap();
        let verdicts = registry.classify(0u64, &[data[0].0.clone()][..]).unwrap();
        assert_eq!(verdicts.len(), 1);
        // ...at the same published version (the round trip is invisible)...
        assert_eq!(registry.version(0u64).unwrap(), version_before);
        assert_eq!(registry.stats().reloads_total, 1);
        // ...and the ceiling pushed someone else out in its place? No —
        // reloading via classify does not enforce the ceiling; the next
        // create or tick does. All three may be momentarily resident.
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn evicted_version_is_kept_in_the_slot_not_read_from_the_spill_file() {
        let mut r = rng();
        let dir = temp_dir("evicted-version");
        let registry = MapRegistry::new(
            RegistryConfig::new(EngineConfig::with_workers(1)).with_spill_dir(&dir),
        );
        let som = BSom::new(BSomConfig::new(4, 64), &mut r);
        registry
            .create_tenant("t", som, TrainSchedule::new(100), &[])
            .unwrap();
        let signature = BinaryVector::random(64, &mut r);
        for _ in 0..3 {
            registry.feed("t", &signature, ObjectLabel::new(1)).unwrap();
        }
        let (_, version) = registry.drain_tenant("t").unwrap();
        assert_eq!(version, 2);
        registry.evict("t").unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::remove_file(entry.unwrap().path()).unwrap();
        }
        // The version needs no spill file; serving the tenant still does.
        assert_eq!(registry.version("t").unwrap(), version);
        assert!(matches!(
            registry.classify("t", &[signature][..]),
            Err(EngineError::Checkpoint(_))
        ));
        assert!(!registry.is_resident("t").unwrap());
        assert_eq!(registry.version("t").unwrap(), version);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn resident_count_follows_random_creates_feeds_ticks_evicts_reloads_and_removes() {
        use rand::Rng;
        let mut r = rng();
        let dir = temp_dir("resident-count");
        let max_resident = 3;
        let registry = MapRegistry::new(
            RegistryConfig::new(EngineConfig::with_workers(1))
                .with_max_resident(max_resident)
                .with_spill_dir(&dir),
        );
        let mut ids: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for op in 0..400 {
            let pick = |r: &mut StdRng, ids: &[u64]| ids[r.gen_range(0..ids.len())];
            let enforced = match r.gen_range(0..6) {
                0 => {
                    let som = BSom::new(BSomConfig::new(4, 64), &mut r);
                    registry
                        .create_tenant(next_id, som, TrainSchedule::new(10), &[])
                        .unwrap();
                    ids.push(next_id);
                    next_id += 1;
                    true
                }
                1 if !ids.is_empty() => {
                    let signature = BinaryVector::random(64, &mut r);
                    let label = ObjectLabel::new(r.gen_range(0..3));
                    registry
                        .feed(pick(&mut r, &ids), &signature, label)
                        .unwrap();
                    false
                }
                2 => {
                    let report = registry.train_tick(r.gen_range(1..8));
                    assert!(report.failures.is_empty(), "op {op}");
                    true
                }
                3 if !ids.is_empty() => {
                    registry.evict(pick(&mut r, &ids)).unwrap();
                    false
                }
                4 if !ids.is_empty() => {
                    registry.reload(pick(&mut r, &ids)).unwrap();
                    false
                }
                5 if !ids.is_empty() => {
                    let id = ids.swap_remove(r.gen_range(0..ids.len()));
                    registry.remove(id).unwrap();
                    false
                }
                _ => false,
            };
            let resident = ids
                .iter()
                .filter(|&&id| registry.is_resident(id).unwrap())
                .count();
            let stats = registry.stats();
            assert_eq!(stats.resident, resident, "op {op}");
            assert_eq!(stats.evicted, ids.len() - resident, "op {op}");
            if enforced {
                assert!(resident <= max_resident, "op {op}: {resident} resident");
            }
        }
        let stats = registry.stats();
        assert!(stats.evictions_total > 0 && stats.reloads_total > 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn train_tick_budget_is_shared_fairly_round_robin() {
        let mut r = rng();
        let registry = MapRegistry::new(RegistryConfig::new(EngineConfig::with_workers(1)));
        let signature = BinaryVector::random(64, &mut r);
        for i in 0u64..3 {
            let som = BSom::new(BSomConfig::new(4, 64), &mut r);
            registry
                .create_tenant(i, som, TrainSchedule::new(100), &[])
                .unwrap();
            for _ in 0..10 {
                registry.feed(i, &signature, ObjectLabel::new(0)).unwrap();
            }
        }
        // Budget 7 over 3 tenants: rotations give 3 + 3 + 1 steps, so the
        // per-tenant split is (3, 2, 2) — never (7, 0, 0).
        let report = registry.train_tick(7);
        assert_eq!(report.steps, 7);
        assert_eq!(report.tenants_trained, 3);
        assert!(report.failures.is_empty());
        let stats = registry.stats();
        assert_eq!(stats.pending_steps, 30 - 7);
        assert_eq!(stats.steps_total, 7);
        // The next tick resumes the rotation where this one stopped: after
        // 23 more steps every queue is empty.
        let report = registry.train_tick(1_000);
        assert_eq!(report.steps, 23);
        assert_eq!(registry.stats().pending_steps, 0);
        // A tick over empty queues is a no-op.
        let report = registry.train_tick(1_000);
        assert_eq!(report.steps, 0);
        assert_eq!(report.tenants_trained, 0);
    }

    #[test]
    fn drain_tenant_flushes_everything_and_publishes() {
        let mut r = rng();
        let registry = MapRegistry::new(RegistryConfig::new(EngineConfig::with_workers(1)));
        let som = BSom::new(BSomConfig::new(4, 64), &mut r);
        registry
            .create_tenant("t", som, TrainSchedule::new(100), &[])
            .unwrap();
        let signature = BinaryVector::random(64, &mut r);
        for _ in 0..5 {
            registry.feed("t", &signature, ObjectLabel::new(1)).unwrap();
        }
        let (steps, version) = registry.drain_tenant("t").unwrap();
        assert_eq!(steps, 5);
        assert_eq!(version, 2, "v1 at create + the drain publish");
        assert_eq!(registry.version("t").unwrap(), 2);
        assert_eq!(registry.stats().pending_steps, 0);
    }

    #[test]
    fn a_drain_that_fails_publishes_the_steps_before_the_failure() {
        let mut r = rng();
        let dir = temp_dir("drain-failure");
        let registry = MapRegistry::new(
            RegistryConfig::new(EngineConfig::with_workers(1)).with_spill_dir(&dir),
        );
        let som = BSom::new(BSomConfig::new(4, 64), &mut r);
        registry
            .create_tenant("t", som, TrainSchedule::new(100), &[])
            .unwrap();
        let good = BinaryVector::random(64, &mut r);
        let wrong = BinaryVector::random(32, &mut r);
        for signature in [&good, &good, &wrong, &good] {
            registry.feed("t", signature, ObjectLabel::new(1)).unwrap();
        }
        assert!(matches!(
            registry.drain_tenant("t"),
            Err(EngineError::Som(_))
        ));
        assert_eq!(registry.version("t").unwrap(), 2, "the two steps published");
        assert_eq!(registry.stats().pending_steps, 1, "the rest is kept");
        // The trainer equals its snapshot again, so the tenant can spill and
        // come back at the same version.
        let trained = registry.tenant_som("t").unwrap();
        registry.evict("t").unwrap();
        assert_eq!(registry.tenant_som("t").unwrap(), trained);
        assert_eq!(registry.version("t").unwrap(), 2);
        assert_eq!(registry.drain_tenant("t").unwrap(), (1, 3));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn draining_tenants_with_empty_queues_reloads_nothing() {
        let mut r = rng();
        let dir = temp_dir("drain-idle");
        let registry = MapRegistry::new(
            RegistryConfig::new(EngineConfig::with_workers(1))
                .with_max_resident(4)
                .with_spill_dir(&dir),
        );
        for i in 0u64..8 {
            let som = BSom::new(BSomConfig::new(4, 64), &mut r);
            registry
                .create_tenant(i, som, TrainSchedule::new(10), &[])
                .unwrap();
        }
        let before = registry.stats();
        assert_eq!((before.evicted, before.reloads_total), (4, 0));
        for i in 0u64..8 {
            let version = registry.version(i).unwrap();
            assert_eq!(registry.drain_tenant(i).unwrap(), (0, version));
        }
        let after = registry.stats();
        assert_eq!(after.reloads_total, 0, "no spill file was read");
        assert_eq!(after.evicted, 4, "the spilled tenants stay on disk");
        assert_eq!(after.evictions_total, before.evictions_total);
        let _ = std::fs::remove_dir_all(dir);
    }
}
