//! Deterministic fault injection for chaos testing.
//!
//! A *faultpoint* is a named site in production code where a test can make
//! controlled failures fire: a panic (a poisoned task), a NaN (a diverged
//! numeric result), or a truncated file (a torn checkpoint write). Sites
//! are identified by a static string and every hit carries a caller-chosen
//! `key` (candidate index, batch index, checkpoint ordinal, ...).
//!
//! Whether a hit fires is a **pure function of `(site, key, armed plan)`**
//! — never of wall-clock time, thread interleaving, or a global hit
//! counter. That is what lets the chaos suite compare an interrupted,
//! fault-riddled search against an uninterrupted one bit-for-bit: a
//! candidate that was quarantined by an injected panic before a crash is
//! journaled, and on resume the *same* candidates fire (or are found in
//! the journal with the same outcome).
//!
//! The registry is compiled into every build; while nothing is armed, a
//! hit returns after one relaxed load. It is process-global, so a test
//! that arms sites holds [`exclusive`] for its whole body.
//!
//! Registered sites (kept in sync with DESIGN.md):
//!
//! | site                 | kind(s)      | fired from                        |
//! |----------------------|--------------|-----------------------------------|
//! | `cnr::replica`       | Panic        | per Clifford replica (CNR)        |
//! | `repcap::eval`       | Panic        | per candidate (RepCap)            |
//! | `search::score`      | Nan          | per composite score               |
//! | `train::batch`       | Nan          | per training minibatch loss       |
//! | `checkpoint::commit` | TruncateFile | after a checkpoint rename         |
//! | `search::checkpoint` | Panic        | after each checkpoint save (kill) |
//! | `train::cohort_epoch`| Panic        | top of each cohort-training epoch |
//! | `serve::tick`        | Panic        | per daemon scheduler tick (kill)  |
//! | `serve::journal_append` | TruncateFile | after a daemon journal append |
//! | `cache::store`       | TruncateFile | after a result-cache entry write  |

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

/// What an armed faultpoint does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (simulates a poisoned task).
    Panic,
    /// Replace the site's value with `f64::NAN` (simulates divergence).
    Nan,
    /// Ask the site to truncate the file it just wrote (torn write).
    TruncateFile,
}

/// When an armed faultpoint fires.
#[derive(Clone, Copy, Debug)]
enum Trigger {
    /// Fire on hits whose SplitMix64-mixed `(seed, site, key)` draw falls
    /// below `rate` — deterministic per key, ~`rate` of keys.
    Probability { seed: u64, rate: f64 },
    /// Fire exactly on hits carrying this key.
    OnKey(u64),
}

struct Armed {
    kind: FaultKind,
    trigger: Trigger,
    fired: u64,
}

/// Set while any site is armed, stored under the registry's lock. Relaxed:
/// a hit that misses a concurrent arming ran before it.
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> MutexGuard<'static, BTreeMap<&'static str, Armed>> {
    static REGISTRY: Mutex<BTreeMap<&'static str, Armed>> = Mutex::new(BTreeMap::new());
    REGISTRY.lock().expect("faultpoint registry poisoned")
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a: stable across runs and platforms.
    site.bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Pure firing decision for one `(site, key)` hit.
fn decides(trigger: Trigger, site: &str, key: u64) -> bool {
    match trigger {
        Trigger::OnKey(k) => key == k,
        Trigger::Probability { seed, rate } => {
            let draw = splitmix(seed ^ site_hash(site) ^ splitmix(key));
            // Top 53 bits to a unit float.
            ((draw >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
        }
    }
}

/// Whether `(site, key)` fires a `kind` fault (in any call order); counts it.
#[cold]
fn fires(site: &'static str, key: u64, kind: FaultKind) -> bool {
    let mut reg = registry();
    let Some(armed) = reg.get_mut(site) else {
        return false;
    };
    if armed.kind != kind || !decides(armed.trigger, site, key) {
        return false;
    }
    armed.fired += 1;
    true
}

// ---- arming (test / chaos-suite side) --------------------------------------

fn insert(site: &'static str, kind: FaultKind, trigger: Trigger) {
    let mut reg = registry();
    reg.insert(site, Armed { kind, trigger, fired: 0 });
    ARMED.store(true, Ordering::Relaxed);
}

/// Arms `site` to fire probabilistically: a hit with key `k` fires iff the
/// deterministic mix of `(seed, site, k)` falls below `rate`.
pub fn arm(site: &'static str, kind: FaultKind, seed: u64, rate: f64) {
    insert(site, kind, Trigger::Probability { seed, rate });
}

/// Arms `site` to fire exactly on hits carrying `key`.
pub fn arm_on_key(site: &'static str, kind: FaultKind, key: u64) {
    insert(site, kind, Trigger::OnKey(key));
}

/// Disarms every faultpoint.
pub fn disarm_all() {
    let mut reg = registry();
    reg.clear();
    ARMED.store(false, Ordering::Relaxed);
}

/// How many times `site` has fired since it was armed.
pub fn fired(site: &str) -> u64 {
    registry().get(site).map_or(0, |a| a.fired)
}

/// A test's exclusive hold on the registry (see [`exclusive`]).
#[must_use = "the registry is exclusive only while the guard lives"]
pub struct Exclusive {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Exclusive {
    fn drop(&mut self) {
        disarm_all();
    }
}

/// Waits until no other [`Exclusive`] lives, then holds the registry until
/// the guard drops, disarming every site now and on drop (a failing test
/// included). The first call installs a panic hook that keeps [`hit`]'s
/// panics out of test output and passes every other panic on.
pub fn exclusive() -> Exclusive {
    static LOCK: Mutex<()> = Mutex::new(());
    static QUIET_HOOK: Once = Once::new();
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| match info.payload().downcast_ref::<String>() {
            Some(message) if message.starts_with("faultpoint '") => {}
            _ => previous(info),
        }));
    });
    let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    disarm_all();
    Exclusive { _lock: lock }
}

// ---- call sites (production side) ------------------------------------------

/// Faultpoint hit that can panic. `key` identifies the unit of work (e.g.
/// candidate index) so firing is reproducible across runs and resumes.
#[inline]
pub fn hit(site: &'static str, key: u64) {
    if ARMED.load(Ordering::Relaxed) && fires(site, key, FaultKind::Panic) {
        panic!("faultpoint '{site}' fired (key {key})");
    }
}

/// Faultpoint that can replace a value with NaN: returns `value` unless the
/// site is armed with [`FaultKind::Nan`] and `(site, key)` fires.
#[inline]
#[must_use]
pub fn poison(site: &'static str, key: u64, value: f64) -> f64 {
    if ARMED.load(Ordering::Relaxed) && fires(site, key, FaultKind::Nan) {
        return f64::NAN;
    }
    value
}

/// Whether an armed site should truncate the file it just wrote (a torn write).
#[inline]
#[must_use]
pub fn wants_truncation(site: &'static str, key: u64) -> bool {
    ARMED.load(Ordering::Relaxed) && fires(site, key, FaultKind::TruncateFile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unarmed_sites_are_inert() {
        let _g = exclusive();
        hit("test::nowhere", 0);
        assert_eq!(poison("test::nowhere", 1, 0.5), 0.5);
        assert!(!wants_truncation("test::nowhere", 2));
    }

    /// A disarmed hit must not wait on the registry: with its lock held
    /// here, hits on another thread still return. A hit that locked would
    /// time out and fail the test rather than hang it.
    #[test]
    fn disarmed_hits_never_take_the_registry_lock() {
        let _g = exclusive();
        let held = registry();
        let (tx, rx) = std::sync::mpsc::channel();
        let hits = std::thread::spawn(move || {
            hit("test::locked", 0);
            let _ = tx.send((poison("test::locked", 1, 0.5), wants_truncation("test::locked", 2)));
        });
        let outcome = rx.recv_timeout(Duration::from_secs(10));
        drop(held);
        hits.join().expect("the hit thread finishes once the lock is free");
        assert_eq!(outcome, Ok((0.5, false)), "a disarmed hit waited on the registry lock");
    }

    #[test]
    fn dropping_the_guard_disarms() {
        let guard = exclusive();
        arm_on_key("test::left", FaultKind::Nan, 0);
        assert!(poison("test::left", 0, 1.0).is_nan());
        drop(guard);
        // Another test may take the guard in between, but it disarms too,
        // so only a guard that leaves its sites armed can fail this.
        assert_eq!(poison("test::left", 0, 1.0), 1.0);
    }

    #[test]
    fn on_key_fires_exactly_once_per_matching_key() {
        let _g = exclusive();
        arm_on_key("test::kill", FaultKind::Panic, 3);
        hit("test::kill", 0);
        hit("test::kill", 2);
        let r = std::panic::catch_unwind(|| hit("test::kill", 3));
        assert!(r.is_err());
        assert_eq!(fired("test::kill"), 1);
    }

    #[test]
    fn probabilistic_firing_is_deterministic_per_key_and_order_free() {
        let _g = exclusive();
        arm("test::nan", FaultKind::Nan, 42, 0.5);
        let forward: Vec<bool> = (0..64).map(|k| poison("test::nan", k, 1.0).is_nan()).collect();
        // Re-arm and replay in reverse order: same per-key decisions.
        arm("test::nan", FaultKind::Nan, 42, 0.5);
        let backward: Vec<bool> = (0..64)
            .rev()
            .map(|k| poison("test::nan", k, 1.0).is_nan())
            .collect();
        let backward: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        let fired_keys = forward.iter().filter(|&&f| f).count();
        assert!(
            (8..=56).contains(&fired_keys),
            "rate 0.5 fired {fired_keys}/64"
        );
    }

    #[test]
    fn kind_mismatch_never_fires() {
        let _g = exclusive();
        arm("test::kind", FaultKind::Nan, 1, 1.0);
        // A Panic-side hit must not fire a Nan-armed site.
        hit("test::kind", 7);
        assert!(poison("test::kind", 7, 2.0).is_nan());
    }
}
