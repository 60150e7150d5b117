//! Deterministic fault injection ("failpoints") for the chaos test suite.
//!
//! Compiled only under the `raft_failpoints` feature; release builds carry
//! zero overhead because every hook site goes through the [`failpoint!`]
//! macro, which expands to nothing when the feature is off.
//!
//! A failpoint *site* is a string label baked into the code path it guards
//! (e.g. `"core::scheduler::step"`, `"buffer::fifo::resize"`,
//! `"net::frame::write"`). Sites are disarmed by default; a test arms one
//! with [`arm`], choosing an action and a firing rate, and every firing
//! decision is drawn from a per-site [`raft_rng::Rng`] stream seeded by
//! `global seed ⊕ fnv1a(site)` — so a given `(seed, site, rate)` triple
//! produces the same fault schedule on every run, which is what lets the CI
//! chaos job pin three seeds and get reproducible failures.
//!
//! The registry is process-global (the hook sites are reached from
//! scheduler, monitor, and socket threads); tests that arm overlapping
//! sites must serialize themselves, e.g. by holding a shared test mutex.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use raft_rng::Rng;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the site (exercises restart/skip/abort policies).
    Panic,
    /// Sleep at the site for the given duration (exercises the watchdog).
    Stall(Duration),
    /// Report a short read/write to the caller. Only meaningful at I/O
    /// sites that consult [`check`] and act on the result themselves.
    ShortIo,
}

struct Site {
    action: FailAction,
    /// Fire on average once every `one_in` hits (1 = every hit).
    one_in: u32,
    /// Stop firing after this many firings (0 = unlimited).
    budget: u64,
    fired: u64,
    rng: Rng,
    hits: u64,
}

struct Registry {
    seed: u64,
    sites: HashMap<String, Site>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
/// Fast path: number of armed sites. Zero means every `check` returns
/// `None` after a single relaxed load, so an armed-nothing chaos build
/// stays cheap.
static ARMED: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            seed: 0x9E37_79B9_7F4A_7C15,
            sites: HashMap::new(),
        })
    })
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Set the global chaos seed. Call before arming sites; re-seeding resets
/// the draw streams of sites armed afterwards (already-armed sites keep
/// their stream).
pub fn set_seed(seed: u64) {
    registry().lock().expect("failpoint registry").seed = seed;
}

/// Arm `site`: fire `action` on average once every `one_in` hits, at most
/// `budget` times (`0` = unlimited). Re-arming a site replaces its state.
pub fn arm(site: &str, action: FailAction, one_in: u32, budget: u64) {
    let mut reg = registry().lock().expect("failpoint registry");
    let rng = Rng::new(reg.seed ^ fnv1a(site));
    let prev = reg.sites.insert(
        site.to_string(),
        Site {
            action,
            one_in: one_in.max(1),
            budget,
            fired: 0,
            rng,
            hits: 0,
        },
    );
    if prev.is_none() {
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Disarm every site (test teardown).
pub fn reset() {
    let mut reg = registry().lock().expect("failpoint registry");
    reg.sites.clear();
    ARMED.store(0, Ordering::Relaxed);
}

/// Number of times `site` was consulted (armed sites only).
pub fn hits(site: &str) -> u64 {
    registry()
        .lock()
        .expect("failpoint registry")
        .sites
        .get(site)
        .map_or(0, |s| s.hits)
}

/// Number of times `site` actually fired.
pub fn fired(site: &str) -> u64 {
    registry()
        .lock()
        .expect("failpoint registry")
        .sites
        .get(site)
        .map_or(0, |s| s.fired)
}

/// Consult `site`: returns the action to take if the site is armed and its
/// deterministic draw says "fire now". I/O sites that need [`FailAction::
/// ShortIo`] call this directly; panic/stall sites go through [`hit`].
pub fn check(site: &str) -> Option<FailAction> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let mut reg = registry().lock().expect("failpoint registry");
    let s = reg.sites.get_mut(site)?;
    s.hits += 1;
    if s.budget != 0 && s.fired >= s.budget {
        return None;
    }
    if s.rng.range(0..s.one_in) != 0 {
        return None;
    }
    s.fired += 1;
    Some(s.action)
}

/// Consult `site` and execute panic/stall actions in place. `ShortIo` at a
/// non-I/O site is ignored.
pub fn hit(site: &str) {
    match check(site) {
        Some(FailAction::Panic) => panic!("failpoint {site:?} fired"),
        Some(FailAction::Stall(d)) => std::thread::sleep(d),
        Some(FailAction::ShortIo) | None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_schedule_per_seed() {
        set_seed(42);
        arm("fp::test::sched", FailAction::ShortIo, 3, 0);
        let a: Vec<bool> = (0..64)
            .map(|_| check("fp::test::sched").is_some())
            .collect();
        set_seed(42);
        arm("fp::test::sched", FailAction::ShortIo, 3, 0);
        let b: Vec<bool> = (0..64)
            .map(|_| check("fp::test::sched").is_some())
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&f| f), "rate 1-in-3 never fired in 64 draws");
        reset();
    }

    #[test]
    fn budget_caps_firings() {
        set_seed(7);
        arm("fp::test::budget", FailAction::ShortIo, 1, 2);
        let fired_n = (0..10)
            .filter(|_| check("fp::test::budget").is_some())
            .count();
        assert_eq!(fired_n, 2);
        assert_eq!(fired("fp::test::budget"), 2);
        assert_eq!(hits("fp::test::budget"), 10);
        reset();
    }

    #[test]
    fn unarmed_site_is_silent() {
        assert!(check("fp::test::never-armed").is_none());
        hit("fp::test::never-armed"); // must not panic
    }
}
