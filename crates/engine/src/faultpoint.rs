//! Deterministic fault injection: named failpoints on the engine's fault
//! paths.
//!
//! The service code calls [`hit`] at every place the fault model of DESIGN.md
//! §"Fault model and recovery" says can fail:
//!
//! | failpoint            | where it sits                                      |
//! |----------------------|----------------------------------------------------|
//! | `worker.job`         | inside a worker's `catch_unwind`, before the shard's winner search |
//! | `service.publish`    | while the snapshot lock is held, before the swap   |
//! | `trainer.feed`       | inside [`Trainer::try_feed`]'s `catch_unwind`, before the train step |
//! | `checkpoint.write`   | between the temp-file write and the atomic rename  |
//! | `checkpoint.read`    | on entry of a checkpoint load                      |
//! | `service.drain`      | in `bsom-serve`'s graceful drain, after new work stops and before it waits for the classifies already running |
//! | `server.classify`    | inside a `bsom-serve` connection thread's `catch_unwind`, before a request's classify (either backend) |
//! | `registry.evict`     | after a tenant's spill checkpoint is written, before its in-memory state is dropped |
//! | `registry.reload`    | on entry of an evicted tenant's reload, before the spill file is read |
//!
//! Without the `fault-injection` feature every [`hit`] is an empty inline
//! function the optimizer deletes — production builds carry no registry, no
//! lock, no branch. With the feature, tests arm a failpoint to panic or
//! stall at its *n*-th hit (`arm_panic` / `arm_sleep`, re-exported here
//! under the feature), optionally driving the choice of `n` from a seeded
//! `FaultPlan`, so a run deterministically kills worker N at step K or
//! tears a checkpoint between write and rename — the harness suites in
//! `tests/fault_injection.rs`.
//!
//! The registry is process-global; suites that arm failpoints serialize
//! themselves (one test mutex) and `reset` on entry and exit.
//!
//! [`Trainer::try_feed`]: crate::Trainer::try_feed

#[cfg(feature = "fault-injection")]
pub use enabled::{arm_panic, arm_sleep, hit_count, reset, FaultPlan};

/// Registers one pass through the named failpoint.
///
/// A no-op (deleted by the optimizer) unless the crate is built with the
/// `fault-injection` feature; under the feature it counts the hit and fires
/// whatever action (`arm_panic` / `arm_sleep`) is armed for this count.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn hit(_name: &str) {}

/// Registers one pass through the named failpoint (fault-injection build):
/// counts the hit and fires the armed action, if any, for this count.
///
/// # Panics
///
/// Panics — deliberately — when [`arm_panic`] armed this hit. The panic is
/// raised *after* the registry lock is released, so the registry itself is
/// never poisoned by an injected fault.
#[cfg(feature = "fault-injection")]
pub fn hit(name: &str) {
    enabled::hit(name)
}

#[cfg(feature = "fault-injection")]
mod enabled {
    use std::sync::{Mutex, PoisonError};
    use std::time::Duration;

    /// What an armed failpoint does when its hit arrives.
    #[derive(Debug, Clone)]
    enum Action {
        Panic,
        Sleep(Duration),
    }

    #[derive(Debug)]
    struct Armed {
        name: String,
        /// Fire at the hit with this zero-based ordinal.
        nth: u64,
        action: Action,
    }

    #[derive(Debug)]
    struct Registry {
        /// Lifetime hit count per failpoint name since the last [`reset`].
        counts: Vec<(String, u64)>,
        armed: Vec<Armed>,
    }

    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        counts: Vec::new(),
        armed: Vec::new(),
    });

    /// An injected panic may unwind through a thread that holds no lock, but
    /// a sibling test thread can still observe the mutex poisoned; the
    /// registry state itself is always consistent (mutations complete before
    /// any action fires), so recover rather than propagate.
    fn registry() -> std::sync::MutexGuard<'static, Registry> {
        REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn hit(name: &str) {
        let fired = {
            let mut registry = registry();
            let ordinal = match registry.counts.iter_mut().find(|(n, _)| n == name) {
                Some((_, count)) => {
                    let ordinal = *count;
                    *count += 1;
                    ordinal
                }
                None => {
                    registry.counts.push((name.to_string(), 1));
                    0
                }
            };
            registry
                .armed
                .iter()
                .position(|armed| armed.name == name && armed.nth == ordinal)
                .map(|index| registry.armed.swap_remove(index))
        };
        // The lock is released before any action fires: an injected panic
        // must tear the *engine's* state, never the registry's.
        if let Some(armed) = fired {
            match armed.action {
                Action::Sleep(duration) => std::thread::sleep(duration),
                Action::Panic => panic!(
                    "injected fault: failpoint `{}` fired at hit {}",
                    armed.name, armed.nth
                ),
            }
        }
    }

    /// Arms failpoint `name` to panic at its `nth` (zero-based, counted from
    /// the last [`reset`]) hit. One-shot: the arming is consumed when it
    /// fires.
    pub fn arm_panic(name: &str, nth: u64) {
        registry().armed.push(Armed {
            name: name.to_string(),
            nth,
            action: Action::Panic,
        });
    }

    /// Arms failpoint `name` to stall for `duration` at its `nth` hit —
    /// the saturation lever: parking every worker inside its job makes the
    /// bounded queue fill deterministically. One-shot, like [`arm_panic`].
    pub fn arm_sleep(name: &str, nth: u64, duration: Duration) {
        registry().armed.push(Armed {
            name: name.to_string(),
            nth,
            action: Action::Sleep(duration),
        });
    }

    /// Hits of failpoint `name` since the last [`reset`].
    pub fn hit_count(name: &str) -> u64 {
        registry()
            .counts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, count)| *count)
            .unwrap_or(0)
    }

    /// Clears every hit count and disarms every pending failpoint.
    pub fn reset() {
        let mut registry = registry();
        registry.counts.clear();
        registry.armed.clear();
    }

    /// A seeded xorshift64* stream for driving fault schedules: tests draw
    /// *which* step to kill or *which* byte to tear from the plan, so one
    /// `u64` seed reproduces the whole fault scenario.
    #[derive(Debug, Clone)]
    pub struct FaultPlan {
        state: u64,
    }

    impl FaultPlan {
        /// A plan seeded with `seed` (zero is mapped off the xorshift fixed
        /// point).
        pub fn seeded(seed: u64) -> Self {
            FaultPlan { state: seed | 1 }
        }

        /// The next raw draw of the stream.
        pub fn next_u64(&mut self) -> u64 {
            // xorshift64* — the same generator the map's mask plan uses.
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// A draw uniform-ish in `0..bound`.
        ///
        /// # Panics
        ///
        /// Panics if `bound` is zero.
        pub fn next_below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "empty draw range");
            self.next_u64() % bound
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        // The registry is process-global and other suites in this crate may
        // run concurrently, so these unit tests use names no engine failpoint
        // shares.

        #[test]
        fn armed_panic_fires_exactly_at_its_ordinal_then_disarms() {
            reset();
            arm_panic("unit.test.panic", 2);
            hit("unit.test.panic");
            hit("unit.test.panic");
            let caught = std::panic::catch_unwind(|| hit("unit.test.panic"));
            assert!(caught.is_err(), "hit 2 must fire");
            hit("unit.test.panic"); // consumed: hit 3 is quiet
            assert_eq!(hit_count("unit.test.panic"), 4);
        }

        #[test]
        fn fault_plan_is_deterministic() {
            let mut a = FaultPlan::seeded(42);
            let mut b = FaultPlan::seeded(42);
            for _ in 0..16 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
            let mut c = FaultPlan::seeded(42);
            for _ in 0..16 {
                assert!(c.next_below(10) < 10);
            }
        }
    }
}
