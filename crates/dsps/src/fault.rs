//! Seeded fault injection for chaos testing the reliability layer.
//!
//! Two injection points, split by what the at-least-once machinery can
//! heal:
//!
//! * **Message drops** happen inside the runtime's emitters (enable via
//!   [`RuntimeConfig::fault`](crate::runtime::RuntimeConfig)): the
//!   delivery is registered with the acker and then never sent, exactly
//!   like a network loss, so the spout's ack timeout replays it.
//! * **Panics and added latency** happen inside the bolt, via the
//!   [`ChaosBolt`] wrapper ([`chaos_wrap`]): a panic kills the task
//!   mid-tuple, exercising the supervisor restart path and the replay of
//!   the in-flight tuple.
//!
//! Everything is driven by seeded RNGs, so a chaos run is reproducible.

use crate::topology::{Bolt, BoltContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

thread_local! {
    // Injections fired on this executor thread since the last drain. A
    // ChaosBolt cannot reach the runtime's per-task counters (it only sees
    // the Bolt trait), so it tallies here and the runtime drains the cells
    // into the processing task's counters after every process() call.
    static INJECTED_PANICS: Cell<u64> = const { Cell::new(0) };
    static INJECTED_LATENCY: Cell<u64> = const { Cell::new(0) };
}

/// Takes (and resets) this thread's `(injected panics, injected latency
/// sleeps)` tallies.
pub(crate) fn take_injections() -> (u64, u64) {
    (INJECTED_PANICS.take(), INJECTED_LATENCY.take())
}

/// Fault injection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a [`ChaosBolt`] panics before processing a tuple.
    pub panic_p: f64,
    /// Probability that the runtime drops a data delivery in transit.
    pub drop_p: f64,
    /// Extra latency a [`ChaosBolt`] sleeps before processing a tuple.
    pub delay: Option<Duration>,
    /// Base RNG seed; every task derives its own deterministic stream.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig { panic_p: 0.0, drop_p: 0.0, delay: None, seed: 0xC0FFEE }
    }
}

impl FaultConfig {
    /// A per-task RNG: decorrelates tasks (and restart incarnations)
    /// without losing determinism for a fixed seed.
    pub(crate) fn rng_for(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A bolt wrapper injecting probabilistic panics and added latency.
pub struct ChaosBolt<T> {
    inner: Box<dyn Bolt<T>>,
    rng: StdRng,
    config: FaultConfig,
}

impl<T: Send> Bolt<T> for ChaosBolt<T> {
    fn prepare(&mut self, ctx: BoltContext) {
        self.inner.prepare(ctx);
    }

    fn process(&mut self, msg: T, emitter: &mut dyn crate::runtime::Emitter<T>) {
        if let Some(d) = self.config.delay {
            INJECTED_LATENCY.set(INJECTED_LATENCY.get() + 1);
            std::thread::sleep(d);
        }
        if self.config.panic_p > 0.0 && self.rng.random_bool(self.config.panic_p) {
            INJECTED_PANICS.set(INJECTED_PANICS.get() + 1);
            panic!("chaos: injected panic");
        }
        self.inner.process(msg, emitter);
    }

    fn finish(&mut self, emitter: &mut dyn crate::runtime::Emitter<T>) {
        self.inner.finish(emitter);
    }

    // Durability passes through to the wrapped bolt: fault injection must
    // not cost a task its persisted state.
    fn snapshot_state(&mut self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }

    fn drain_changelog(&mut self, out: &mut Vec<Vec<u8>>) {
        self.inner.drain_changelog(out);
    }

    fn restore_state(
        &mut self,
        snapshot: Option<&[u8]>,
        changelog: &[Vec<u8>],
    ) -> Result<(), crate::error::DspsError> {
        self.inner.restore_state(snapshot, changelog)
    }
}

/// Wraps a bolt factory so every produced task is a [`ChaosBolt`].
///
/// Each task gets its own RNG stream, re-derived on every factory
/// invocation — a restarted task draws a fresh schedule instead of
/// replaying the panic that killed it, which would otherwise pin an
/// unlucky task in a panic loop.
pub fn chaos_wrap<T: Send + 'static>(
    factory: impl Fn(usize) -> Box<dyn Bolt<T>> + Send + Sync + 'static,
    config: FaultConfig,
) -> impl Fn(usize) -> Box<dyn Bolt<T>> + Send + Sync + 'static {
    let incarnation = AtomicU64::new(0);
    move |task| {
        let inc = incarnation.fetch_add(1, Ordering::Relaxed);
        let rng = config.rng_for((task as u64) ^ (inc << 24));
        Box::new(ChaosBolt { inner: factory(task), rng, config })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Emitter;

    struct CountingBolt(u64);
    impl Bolt<u64> for CountingBolt {
        fn process(&mut self, msg: u64, _e: &mut dyn Emitter<u64>) {
            self.0 += msg;
        }
    }

    struct NullEmitter;
    impl Emitter<u64> for NullEmitter {
        fn emit(&mut self, _msg: u64) {}
        fn emit_direct(&mut self, _task: usize, _msg: u64) {}
    }

    #[test]
    fn zero_probabilities_never_interfere() {
        let factory = chaos_wrap(|_| Box::new(CountingBolt(0)), FaultConfig::default());
        let mut bolt = factory(0);
        let mut e = NullEmitter;
        for i in 0..1000 {
            bolt.process(i, &mut e);
        }
    }

    #[test]
    fn injected_panics_are_probabilistic_and_seeded() {
        let config = FaultConfig { panic_p: 0.05, seed: 7, ..FaultConfig::default() };
        let run = || {
            let factory = chaos_wrap(|_| Box::new(CountingBolt(0)), config);
            let mut bolt = factory(0);
            let mut survived = 0u32;
            for i in 0..1000 {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    bolt.process(i, &mut NullEmitter)
                }));
                if r.is_ok() {
                    survived += 1;
                }
            }
            survived
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same panic schedule");
        assert!(a < 1000, "5% panic rate must fire over 1000 tuples");
        assert!(a > 800, "panic rate must stay near 5%");
    }

    #[test]
    fn restart_incarnations_draw_fresh_schedules() {
        let config = FaultConfig { panic_p: 0.5, seed: 3, ..FaultConfig::default() };
        let factory = chaos_wrap(|_| Box::new(CountingBolt(0)), config);
        // Two incarnations of task 0: their first draws must not be
        // forever identical (else a restarted task replays its crash).
        let first_draws: Vec<bool> = (0..32)
            .map(|_| {
                let mut bolt = factory(0);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    bolt.process(1, &mut NullEmitter)
                }))
                .is_err()
            })
            .collect();
        assert!(first_draws.iter().any(|&p| p), "some incarnation panics");
        assert!(!first_draws.iter().all(|&p| p), "not every incarnation panics");
    }
}
