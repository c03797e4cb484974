//! Property tier for the registry scheduler: **arbitrary** interleavings of
//! feed / tick / evict / reload / classify / drain across up to 8 tenants
//! leave every tenant bit-identical to N fully independent standalone
//! services replaying the same per-tenant schedule.
//!
//! Where `tests/tenant_isolation.rs` hand-picks adversarial schedules, this
//! tier lets proptest generate them: the op sequence is the input, the
//! differential is the property. Maps are kept tiny (6 neurons × 64 bits)
//! and case counts low so the tier stays inside tier-1 time budgets.
//!
//! A second property pins the rotation itself: ticks with budgets of 1–6
//! steps, failing steps, evictions under a residency ceiling, and removes
//! and creates that reuse slab slots, each tick checked against a
//! reference scheduler that walks every slot from the cursor.

use std::collections::VecDeque;
use std::path::PathBuf;

use bsom_engine::{
    EngineConfig, EngineError, MapRegistry, RegistryConfig, SomService, TenantId, Trainer,
};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, ObjectLabel, TrainSchedule};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NEURONS: usize = 6;
const VECTOR_LEN: usize = 64;
const LABELS: usize = 3;
const MAX_TENANTS: usize = 8;

/// One step of a generated schedule. Tenant indices are taken modulo the
/// case's tenant count, so every generated op is valid.
#[derive(Debug, Clone)]
enum Op {
    /// Queue one deterministic example for tenant `t`.
    Feed(usize),
    /// Flush everything pending with one unbounded tick.
    Tick,
    /// Spill tenant `t` to disk (no-op if already evicted).
    Evict(usize),
    /// Reload tenant `t` eagerly (no-op if resident).
    Reload(usize),
    /// Compare classify output for tenant `t` against its reference.
    Classify(usize),
    /// Flush tenant `t` alone via `drain_tenant`.
    Drain(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted by hand (the offline proptest stand-in has no `prop_oneof`):
    // feeds dominate so schedules actually train.
    (0usize..10, 0..MAX_TENANTS).prop_map(|(kind, t)| match kind {
        0..=3 => Op::Feed(t),
        4 | 5 => Op::Tick,
        6 => Op::Evict(t),
        7 => Op::Reload(t),
        8 => Op::Classify(t),
        _ => Op::Drain(t),
    })
}

fn temp_dir(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bsom-registry-schedule-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn make_som(seed: u64) -> BSom {
    BSom::new(
        BSomConfig::new(NEURONS, VECTOR_LEN),
        &mut StdRng::seed_from_u64(seed),
    )
}

/// The reference half: one standalone service pair per tenant plus the
/// tenant's own pending queue, mirroring the registry's slot exactly.
struct Reference {
    service: SomService,
    trainer: Trainer,
    pending: Vec<(BinaryVector, ObjectLabel)>,
}

impl Reference {
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        for (signature, label) in self.pending.drain(..) {
            self.trainer.feed(&signature, label).unwrap();
        }
        self.trainer.publish();
    }
}

/// Replays `ops` against a registry and N independent services, diffing
/// continuously (classify ops) and exhaustively at the end (weights,
/// `#`-counts, versions).
fn run_schedule(tenants: usize, ops: &[Op], case_seed: u64) -> Result<(), TestCaseError> {
    let dir = temp_dir(case_seed);
    let config = EngineConfig::with_workers(1);
    let registry = MapRegistry::new(RegistryConfig::new(config).with_spill_dir(&dir));
    let mut references = Vec::new();
    for t in 0..tenants {
        let seed = case_seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        registry
            .create_tenant(
                t as u64,
                make_som(seed),
                TrainSchedule::new(usize::MAX),
                &[],
            )
            .unwrap();
        let (service, trainer) = SomService::train_while_serve(
            make_som(seed),
            TrainSchedule::new(usize::MAX),
            &[],
            config,
        );
        references.push(Reference {
            service,
            trainer,
            pending: Vec::new(),
        });
    }

    let mut example_rng = StdRng::seed_from_u64(case_seed ^ 0xFEED);
    let probes: Vec<BinaryVector> = {
        let mut rng = StdRng::seed_from_u64(case_seed ^ 0x9081);
        (0..3)
            .map(|_| BinaryVector::random(VECTOR_LEN, &mut rng))
            .collect()
    };

    for op in ops {
        match op {
            Op::Feed(t) => {
                let t = t % tenants;
                let label = ObjectLabel::new(example_rng.gen_range(0..LABELS));
                let signature = BinaryVector::random(VECTOR_LEN, &mut example_rng);
                registry.feed(t as u64, &signature, label).unwrap();
                references[t].pending.push((signature, label));
            }
            Op::Tick => {
                let report = registry.train_tick(u64::MAX);
                prop_assert!(report.failures.is_empty(), "tick failed: {report:?}");
                for reference in &mut references {
                    reference.flush();
                }
            }
            Op::Evict(t) => {
                // Ok whether resident or already evicted; the reference side
                // has no notion of residency at all — that is the property.
                registry.evict((t % tenants) as u64).unwrap();
            }
            Op::Reload(t) => {
                registry.reload((t % tenants) as u64).unwrap();
            }
            Op::Classify(t) => {
                let t = t % tenants;
                let got = registry.classify(t as u64, &probes).unwrap();
                let reference = &references[t];
                let want = reference
                    .service
                    .classify_pinned(&reference.service.snapshot(), &probes);
                prop_assert_eq!(got, want);
            }
            Op::Drain(t) => {
                let t = t % tenants;
                let (steps, version) = registry.drain_tenant(t as u64).unwrap();
                let reference = &mut references[t];
                prop_assert_eq!(steps as usize, reference.pending.len());
                reference.flush();
                prop_assert_eq!(version, reference.service.version());
            }
        }
    }

    // Exhaustive end-state differential: maps (weights + config + RNG
    // stream), `#`-count sidecars, versions and pending backlogs all match.
    let mut expected_pending = 0;
    for (t, reference) in references.iter().enumerate() {
        let som = registry.tenant_som(t as u64).unwrap();
        prop_assert_eq!(&som, reference.trainer.som());
        prop_assert_eq!(
            som.dont_care_counts(),
            reference.trainer.som().dont_care_counts()
        );
        prop_assert_eq!(
            registry.version(t as u64).unwrap(),
            reference.service.version()
        );
        expected_pending += reference.pending.len();
    }
    prop_assert_eq!(registry.stats().pending_steps, expected_pending as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The schedule property itself: any interleaving, any tenant count
    /// 1..=8, the registry is indistinguishable from N independent services.
    #[test]
    fn arbitrary_schedules_match_independent_services(
        tenants in 1..MAX_TENANTS + 1,
        ops in prop::collection::vec(op_strategy(), 1..48),
        case_seed in 0u64..1 << 48,
    ) {
        run_schedule(tenants, &ops, case_seed)?;
    }

    /// Degenerate schedules — all ops against one tenant — exercise the
    /// rr_cursor wrap-around and repeated evict/reload of the same slot.
    #[test]
    fn single_tenant_schedules_match_a_single_service(
        ops in prop::collection::vec(op_strategy(), 1..32),
        case_seed in 0u64..1 << 48,
    ) {
        run_schedule(1, &ops, case_seed)?;
    }
}

/// One step of a budget schedule. Tenant picks index the live tenants
/// modulo their count (no-ops when none is left).
#[derive(Debug, Clone)]
enum BudgetOp {
    /// Queue one example for a tenant; a `wrong` one has half the signature
    /// length, so its training step fails.
    Feed {
        t: usize,
        wrong: bool,
    },
    /// One `train_tick` with this budget.
    Tick(u64),
    Evict(usize),
    Reload(usize),
    /// Remove a tenant, freeing its slot for the next create.
    Remove(usize),
    /// Create a tenant (skipped at `MAX_TENANTS` live).
    Create,
}

fn budget_op_strategy() -> impl Strategy<Value = BudgetOp> {
    (0usize..18, 0..MAX_TENANTS, 1u64..7).prop_map(|(kind, t, budget)| match kind {
        0..=7 => BudgetOp::Feed { t, wrong: false },
        8 => BudgetOp::Feed { t, wrong: true },
        9..=12 => BudgetOp::Tick(budget),
        13 => BudgetOp::Evict(t),
        14 => BudgetOp::Reload(t),
        15 => BudgetOp::Remove(t),
        _ => BudgetOp::Create,
    })
}

/// A tenant of the reference scheduler: a standalone trainer, its queue,
/// and the residency and LRU clock the registry keeps for its slot.
struct ModelTenant {
    id: u64,
    service: SomService,
    trainer: Trainer,
    pending: VecDeque<(BinaryVector, ObjectLabel)>,
    resident: bool,
    last_touch: u64,
}

/// What a tick did, field for field with `TickReport`.
#[derive(Debug, Default, PartialEq)]
struct ModelTick {
    steps: u64,
    tenants_trained: usize,
    reloads: u64,
    evictions: u64,
    failures: Vec<(TenantId, EngineError)>,
}

/// The scheduler as a walk over every slab slot: the slab and its free
/// list, the rotation cursor, the LRU clock and the residency ceiling.
struct Model {
    slots: Vec<Option<ModelTenant>>,
    free: Vec<usize>,
    cursor: usize,
    clock: u64,
    max_resident: usize,
}

impl Model {
    fn tenant(&mut self, index: usize) -> &mut ModelTenant {
        self.slots[index].as_mut().expect("live slot")
    }

    fn touch(&mut self, index: usize) {
        self.clock += 1;
        let clock = self.clock;
        self.tenant(index).last_touch = clock;
    }

    /// Live slots in slot order.
    fn live(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&index| self.slots[index].is_some())
            .collect()
    }

    /// Takes the slot the registry would hand out (free list first), then
    /// touches it and enforces the ceiling.
    fn create(&mut self, tenant: ModelTenant) {
        let index = match self.free.pop() {
            Some(index) => {
                self.slots[index] = Some(tenant);
                index
            }
            None => {
                self.slots.push(Some(tenant));
                self.slots.len() - 1
            }
        };
        self.touch(index);
        self.enforce();
    }

    fn remove(&mut self, index: usize) {
        self.slots[index] = None;
        self.free.push(index);
    }

    /// Reloads `index` if spilled; returns the reloads made.
    fn make_resident(&mut self, index: usize) -> u64 {
        let tenant = self.tenant(index);
        let reloaded = !tenant.resident;
        tenant.resident = true;
        u64::from(reloaded)
    }

    /// Spills the least-recently-touched resident tenants (first in slot
    /// order on a tie) down to the ceiling; returns the evictions.
    fn enforce(&mut self) -> u64 {
        let mut evictions = 0;
        if self.max_resident == 0 {
            return evictions;
        }
        loop {
            let resident: Vec<usize> = self
                .live()
                .into_iter()
                .filter(|&index| self.slots[index].as_ref().unwrap().resident)
                .collect();
            if resident.len() <= self.max_resident {
                return evictions;
            }
            let coldest = resident
                .into_iter()
                .min_by_key(|&index| self.slots[index].as_ref().unwrap().last_touch)
                .unwrap();
            self.tenant(coldest).resident = false;
            evictions += 1;
        }
    }

    /// The tick as a full walk: each pass visits every slot from the
    /// cursor, steps each tenant with queued work once, skips the ones
    /// that failed this tick, and stops at the budget, where the cursor
    /// moves to the slot after the last step.
    fn tick(&mut self, step_budget: u64) -> ModelTick {
        let mut report = ModelTick::default();
        let slot_count = self.slots.len();
        if slot_count == 0 {
            return report;
        }
        let mut budget = step_budget;
        let mut trained: Vec<usize> = Vec::new();
        let mut failed: Vec<usize> = Vec::new();
        'tick: loop {
            let mut progressed = false;
            for offset in 0..slot_count {
                if budget == 0 {
                    self.cursor = (self.cursor + offset) % slot_count;
                    break 'tick;
                }
                let index = (self.cursor + offset) % slot_count;
                let Some(tenant) = &self.slots[index] else {
                    continue;
                };
                if tenant.pending.is_empty() || failed.contains(&index) {
                    continue;
                }
                report.reloads += self.make_resident(index);
                self.touch(index);
                let tenant = self.tenant(index);
                let (signature, label) = tenant.pending.pop_front().unwrap();
                match tenant.trainer.try_feed(&signature, label) {
                    Ok(_) => {
                        budget -= 1;
                        report.steps += 1;
                        if !trained.contains(&index) {
                            trained.push(index);
                        }
                        progressed = true;
                    }
                    Err(error) => {
                        report.failures.push((TenantId::from(tenant.id), error));
                        failed.push(index);
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        for &index in &trained {
            self.tenant(index).trainer.publish();
        }
        report.tenants_trained = trained.len();
        report.evictions = self.enforce();
        report
    }
}

/// Compares every live tenant's version, residency and (for resident
/// tenants, so nothing is reloaded) map with the model's.
fn check_tenants(
    registry: &MapRegistry,
    model: &Model,
    reload_all: bool,
    at: &str,
) -> Result<(), TestCaseError> {
    let mut pending = 0;
    for index in model.live() {
        let tenant = model.slots[index].as_ref().unwrap();
        pending += tenant.pending.len();
        let id = tenant.id;
        prop_assert!(
            registry.version(id).unwrap() == tenant.service.version(),
            "{at}: version of tenant {id}"
        );
        prop_assert!(
            registry.is_resident(id).unwrap() == tenant.resident,
            "{at}: residency of tenant {id}"
        );
        if tenant.resident || reload_all {
            let som = registry.tenant_som(id).unwrap();
            prop_assert!(&som == tenant.trainer.som(), "{at}: map of tenant {id}");
        }
    }
    prop_assert!(
        registry.stats().pending_steps == pending as u64,
        "{at}: pending examples"
    );
    Ok(())
}

/// Replays `ops` against a registry and the reference scheduler, checking
/// every tick's report and, after every op, each tenant.
fn run_budget_schedule(
    tenants: usize,
    max_resident: usize,
    ops: &[BudgetOp],
    case_seed: u64,
) -> Result<(), TestCaseError> {
    let dir = temp_dir(case_seed ^ 0xB0D6E7);
    let config = EngineConfig::with_workers(1);
    let registry = MapRegistry::new(
        RegistryConfig::new(config)
            .with_max_resident(max_resident)
            .with_spill_dir(&dir),
    );
    let mut model = Model {
        slots: Vec::new(),
        free: Vec::new(),
        cursor: 0,
        clock: 0,
        max_resident,
    };
    let mut next_id = 0u64;
    let mut create = |registry: &MapRegistry, model: &mut Model| {
        let id = next_id;
        next_id += 1;
        let seed = case_seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        registry
            .create_tenant(id, make_som(seed), TrainSchedule::new(usize::MAX), &[])
            .unwrap();
        let (service, trainer) = SomService::train_while_serve(
            make_som(seed),
            TrainSchedule::new(usize::MAX),
            &[],
            config,
        );
        model.create(ModelTenant {
            id,
            service,
            trainer,
            pending: VecDeque::new(),
            resident: true,
            last_touch: 0,
        });
    };
    for _ in 0..tenants {
        create(&registry, &mut model);
    }
    let mut example_rng = StdRng::seed_from_u64(case_seed ^ 0xFEED);
    for (step, op) in ops.iter().enumerate() {
        let live = model.live();
        let pick = |t: &usize| live.get(t % live.len().max(1)).copied();
        match op {
            BudgetOp::Feed { t, wrong } => {
                let Some(index) = pick(t) else { continue };
                let len = if *wrong { VECTOR_LEN / 2 } else { VECTOR_LEN };
                let signature = BinaryVector::random(len, &mut example_rng);
                let label = ObjectLabel::new(example_rng.gen_range(0..LABELS));
                registry
                    .feed(model.tenant(index).id, &signature, label)
                    .unwrap();
                model.touch(index);
                model.tenant(index).pending.push_back((signature, label));
            }
            BudgetOp::Tick(budget) => {
                let report = registry.train_tick(*budget);
                let got = ModelTick {
                    steps: report.steps,
                    tenants_trained: report.tenants_trained,
                    reloads: report.reloads,
                    evictions: report.evictions,
                    failures: report.failures,
                };
                let want = model.tick(*budget);
                prop_assert!(got == want, "op {step}: tick {got:?}, reference {want:?}");
            }
            BudgetOp::Evict(t) => {
                let Some(index) = pick(t) else { continue };
                registry.evict(model.tenant(index).id).unwrap();
                model.tenant(index).resident = false;
            }
            BudgetOp::Reload(t) => {
                let Some(index) = pick(t) else { continue };
                registry.reload(model.tenant(index).id).unwrap();
                model.touch(index);
                model.make_resident(index);
            }
            BudgetOp::Remove(t) => {
                let Some(index) = pick(t) else { continue };
                registry.remove(model.tenant(index).id).unwrap();
                model.remove(index);
            }
            BudgetOp::Create => {
                if live.len() < MAX_TENANTS {
                    create(&registry, &mut model);
                }
            }
        }
        check_tenants(&registry, &model, false, &format!("op {step} ({op:?})"))?;
    }
    check_tenants(&registry, &model, true, "end")?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Budget-limited ticks step the same tenants in the same order as a
    /// walk over every slot, stop at the same step, resume at the same
    /// slot, and leave the same reports, versions, residency and maps.
    #[test]
    fn budget_limited_ticks_match_a_full_slot_walk(
        tenants in 1..MAX_TENANTS + 1,
        max_resident in 0usize..5,
        ops in prop::collection::vec(budget_op_strategy(), 1..96),
        case_seed in 0u64..1 << 48,
    ) {
        run_budget_schedule(tenants, max_resident, &ops, case_seed)?;
    }
}
