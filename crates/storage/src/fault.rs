//! Deterministic fault injection for the simulated disk.
//!
//! A [`FaultInjector`] sits inside the [`Pager`](crate::Pager) and decides,
//! per physical operation, whether to fail it and how. Schedules are fully
//! deterministic: the same [`FaultConfig`] (including its `seed`) against the
//! same sequence of pager operations injects the same faults, which is what
//! makes chaos-test failures reproducible from a single seed.
//!
//! Supported fault classes, mirroring what a real device can do to the
//! hybrid queue's spill tier and the buffered tree nodes:
//!
//! * fail exactly the Nth read or write with a transient [`StorageError::Io`],
//! * probabilistic transient `Io` errors on reads and/or writes,
//! * disk-full on allocation once a budget of pages has been spent,
//! * bit-flip corruption: damage one stored bit so the page checksum no
//!   longer matches (surfaces as [`StorageError::Corrupt`] on the next read),
//! * torn write: persist only the first half of a write, then fail it with a
//!   non-transient `Io` error, leaving a checksum-invalid page behind.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::StorageError;

/// Declarative fault schedule. All probabilities are in `[0, 1]`; a value of
/// zero disables that fault class.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for the injector's private RNG. Two injectors with equal configs
    /// make identical decisions for identical operation sequences.
    pub seed: u64,
    /// Probability that a read fails with a transient `Io` fault.
    pub read_transient: f64,
    /// Probability that a write fails with a transient `Io` fault.
    pub write_transient: f64,
    /// Probability that a read flips one stored bit of the page before the
    /// checksum is verified (detected corruption).
    pub bit_flip: f64,
    /// Probability that a write is torn: the first half of the buffer is
    /// persisted, the checksum is left stale, and the write fails with a
    /// non-transient `Io` fault.
    pub torn_write: f64,
    /// Fail every fallible allocation after this many have succeeded.
    pub disk_full_after: Option<u64>,
    /// Fail exactly the Nth read (1-based) with a transient `Io` fault.
    pub fail_read_nth: Option<u64>,
    /// Fail exactly the Nth write (1-based) with a transient `Io` fault.
    pub fail_write_nth: Option<u64>,
    /// How many times a buffer pool whose pager runs this schedule retries
    /// one device operation that failed with a transient fault before it
    /// surfaces the error. 0 (the default) fails on the first fault.
    /// Non-transient faults (corruption, torn writes, a full disk) are never
    /// retried.
    pub retries: u32,
}

impl FaultConfig {
    /// A schedule that only ever injects transient faults, at rate `p` on
    /// both reads and writes, with no retries. Runs under this schedule with
    /// [`FaultConfig::retries`] raised should complete successfully.
    pub fn transient_only(seed: u64, p: f64) -> Self {
        FaultConfig {
            seed,
            read_transient: p,
            write_transient: p,
            ..FaultConfig::default()
        }
    }
}

/// What the injector decided for a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadFault {
    None,
    /// Fail with `Io { transient: true }` without touching the page.
    Transient,
    /// Flip the given bit offset (modulo page bits) in the stored page.
    BitFlip(u64),
}

/// What the injector decided for a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    None,
    /// Fail with `Io { transient: true }` without touching the page.
    Transient,
    /// Persist only the first half of the buffer and fail with a
    /// non-transient `Io` fault.
    Torn,
}

#[derive(Debug)]
struct InjectorState {
    rng: u64,
    reads: u64,
    writes: u64,
    allocs: u64,
}

/// Seeded, thread-safe fault decision source. Shared with the pager via
/// `Arc`; the caller keeps a handle to read the injection counters after a
/// run.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    state: Mutex<InjectorState>,
    injected: AtomicU64,
}

impl FaultInjector {
    pub fn new(config: FaultConfig) -> Self {
        // xorshift has a fixed point at zero; displace it deterministically.
        let seed = if config.seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            config.seed
        };
        FaultInjector {
            config,
            state: Mutex::new(InjectorState {
                rng: seed,
                reads: 0,
                writes: 0,
                allocs: 0,
            }),
            injected: AtomicU64::new(0),
        }
    }

    /// Total number of faults injected so far, across all classes.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The schedule this injector was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InjectorState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn record(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Decide the fate of the next read.
    pub fn on_read(&self) -> ReadFault {
        let mut s = self.lock();
        s.reads += 1;
        if self.config.fail_read_nth == Some(s.reads) {
            drop(s);
            self.record();
            return ReadFault::Transient;
        }
        if chance(&mut s.rng, self.config.bit_flip) {
            let bit = next(&mut s.rng);
            drop(s);
            self.record();
            return ReadFault::BitFlip(bit);
        }
        if chance(&mut s.rng, self.config.read_transient) {
            drop(s);
            self.record();
            return ReadFault::Transient;
        }
        ReadFault::None
    }

    /// Decide the fate of the next write.
    pub fn on_write(&self) -> WriteFault {
        let mut s = self.lock();
        s.writes += 1;
        if self.config.fail_write_nth == Some(s.writes) {
            drop(s);
            self.record();
            return WriteFault::Transient;
        }
        if chance(&mut s.rng, self.config.torn_write) {
            drop(s);
            self.record();
            return WriteFault::Torn;
        }
        if chance(&mut s.rng, self.config.write_transient) {
            drop(s);
            self.record();
            return WriteFault::Transient;
        }
        WriteFault::None
    }

    /// Whether the next fallible allocation should fail with `DiskFull`.
    pub fn on_allocate(&self) -> bool {
        let Some(budget) = self.config.disk_full_after else {
            return false;
        };
        let mut s = self.lock();
        s.allocs += 1;
        if s.allocs > budget {
            drop(s);
            self.record();
            true
        } else {
            false
        }
    }

    /// The error a transient fault surfaces as.
    pub fn transient_error() -> StorageError {
        StorageError::Io { transient: true }
    }
}

/// xorshift64* step.
fn next(rng: &mut u64) -> u64 {
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

fn chance(rng: &mut u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    // 53 uniform bits → [0, 1) double, the usual ldexp construction.
    let u = (next(rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    u < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = FaultConfig {
            seed: 7,
            read_transient: 0.3,
            write_transient: 0.2,
            bit_flip: 0.1,
            ..FaultConfig::default()
        };
        let a = FaultInjector::new(cfg.clone());
        let b = FaultInjector::new(cfg);
        for _ in 0..200 {
            assert_eq!(a.on_read(), b.on_read());
            assert_eq!(a.on_write(), b.on_write());
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn nth_read_fails_exactly_once() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 1,
            fail_read_nth: Some(3),
            ..FaultConfig::default()
        });
        let fates: Vec<_> = (0..5).map(|_| inj.on_read()).collect();
        assert_eq!(fates[2], ReadFault::Transient);
        assert!(fates
            .iter()
            .enumerate()
            .all(|(i, f)| i == 2 || *f == ReadFault::None));
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn disk_full_after_budget() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 1,
            disk_full_after: Some(2),
            ..FaultConfig::default()
        });
        assert!(!inj.on_allocate());
        assert!(!inj.on_allocate());
        assert!(inj.on_allocate());
        assert!(inj.on_allocate());
    }

    #[test]
    fn zero_seed_still_varies() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 0,
            read_transient: 0.5,
            ..FaultConfig::default()
        });
        let fates: Vec<_> = (0..64).map(|_| inj.on_read()).collect();
        assert!(fates.contains(&ReadFault::Transient));
        assert!(fates.contains(&ReadFault::None));
    }

    #[test]
    fn probability_extremes() {
        let mut rng = 42u64;
        assert!(!chance(&mut rng, 0.0));
        assert!(chance(&mut rng, 1.0));
    }
}
