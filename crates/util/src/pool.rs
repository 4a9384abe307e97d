//! A reusable scoped worker pool with claim-counter scheduling.
//!
//! The workspace's one parallel region, `setdisc-eval`'s `par_map` over
//! experiment workloads, goes through this module and is sized by one
//! knob: [`configured_threads`] reads the `SETDISC_THREADS` environment
//! variable (clamped to ≥ 1) and falls back to
//! [`std::thread::available_parallelism`].
//!
//! The scheduling design is a single atomic **claim counter** rather than a
//! work queue: each worker `fetch_add`s the next item index, so there is no
//! contended lock and items are handed out in index order. Workers are
//! plain [`std::thread::scope`] threads, which keeps the pool free of
//! `unsafe` and lets jobs borrow from the caller's stack; a region
//! therefore pays one thread spawn per worker (microseconds, against
//! experiment workloads that run for milliseconds or more).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker-count override parse: the value of `SETDISC_THREADS` if set and
/// valid (≥ 1), otherwise `fallback` — plus a diagnostic when the variable
/// was set but unusable (strict parse: garbage and `0` both fall back, and
/// say so rather than silently shrugging). Split out pure for testability —
/// [`configured_threads`] applies it to the real environment exactly once.
pub fn threads_from(env_value: Option<&str>, fallback: usize) -> (usize, Option<String>) {
    let fallback = fallback.max(1);
    match env_value {
        None => (fallback, None),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => (n, None),
            Ok(0) => (
                fallback,
                Some(format!(
                    "SETDISC_THREADS=0 is not a worker count; using {fallback}"
                )),
            ),
            _ => (
                fallback,
                Some(format!(
                    "SETDISC_THREADS={raw:?} is not a positive integer; using {fallback}"
                )),
            ),
        },
    }
}

/// The configured worker count for `par_map`: `SETDISC_THREADS` when set
/// (≥ 1; `1` disables parallelism), else the
/// machine's available parallelism. The environment is read **once** — the
/// result is cached for the process lifetime, and a malformed value warns
/// on stderr exactly once instead of being silently re-ignored at every
/// construction site.
pub fn configured_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let fallback = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        let (threads, warning) =
            threads_from(std::env::var("SETDISC_THREADS").ok().as_deref(), fallback);
        if let Some(warning) = warning {
            crate::obs::warn(&warning);
        }
        threads
    })
}

/// An atomic claim counter over `0..len`: each [`Self::claim`] hands out
/// the next unclaimed index exactly once, across any number of threads.
#[derive(Debug)]
pub struct ClaimCounter {
    next: AtomicUsize,
    len: usize,
}

impl ClaimCounter {
    /// Counter over `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Claims the next index, or `None` when all are taken.
    #[inline]
    pub fn claim(&self) -> Option<usize> {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        (idx < self.len).then_some(idx)
    }
}

/// Runs `f(worker_index, &mut state)` once per state on its own scoped
/// thread and returns the per-worker results in state order. With zero or
/// one state the closure runs inline on the caller's thread (no spawn).
///
/// This is the pool's core primitive: per-worker mutable state (such as
/// local output buffers) lives in `states`, shared read-only state is
/// captured by `f`, and work distribution is the caller's
/// [`ClaimCounter`].
pub fn run_workers<S: Send, R: Send>(
    states: &mut [S],
    f: impl Fn(usize, &mut S) -> R + Sync,
) -> Vec<R> {
    match states {
        [] => Vec::new(),
        [one] => vec![f(0, one)],
        many => std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = many
                .iter_mut()
                .enumerate()
                .map(|(i, state)| scope.spawn(move || f(i, state)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_from_parses_and_falls_back() {
        assert_eq!(threads_from(Some("3"), 8), (3, None));
        assert_eq!(threads_from(Some(" 12 "), 8), (12, None));
        assert_eq!(threads_from(None, 8), (8, None));
        // The fallback itself is clamped to ≥ 1.
        assert_eq!(threads_from(None, 0), (1, None));
    }

    #[test]
    fn threads_from_warns_on_garbage_exactly_when_set_and_invalid() {
        for bad in ["0", "nope", "", " -3 ", "2.5"] {
            let (threads, warning) = threads_from(Some(bad), 8);
            assert_eq!(threads, 8, "{bad:?} falls back");
            let warning = warning.unwrap_or_else(|| panic!("{bad:?} must warn"));
            assert!(warning.contains("SETDISC_THREADS"), "{warning}");
        }
        // Valid values and an unset variable stay silent.
        assert_eq!(threads_from(Some("1"), 8).1, None);
        assert_eq!(threads_from(None, 8).1, None);
    }

    #[test]
    fn configured_threads_is_positive_and_stable() {
        let a = configured_threads();
        assert!(a >= 1);
        assert_eq!(a, configured_threads());
    }

    #[test]
    fn claim_counter_hands_out_each_index_once() {
        let counter = ClaimCounter::new(10_000);
        let mut states: Vec<Vec<usize>> = vec![Vec::new(); 8];
        let locals = run_workers(&mut states, |_, local: &mut Vec<usize>| {
            while let Some(i) = counter.claim() {
                local.push(i);
            }
            local.len()
        });
        assert_eq!(locals.iter().sum::<usize>(), 10_000);
        let mut all: Vec<usize> = states.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10_000).collect::<Vec<_>>());
        assert_eq!(counter.claim(), None);
    }

    #[test]
    fn run_workers_inline_paths() {
        let mut none: [u32; 0] = [];
        assert!(run_workers(&mut none, |_, _| 1).is_empty());
        let mut one = [41u32];
        assert_eq!(run_workers(&mut one, |_, s| *s + 1), vec![42]);
        assert_eq!(one, [41]);
    }

    #[test]
    fn run_workers_returns_in_state_order() {
        let mut states = [0usize; 6];
        let out = run_workers(&mut states, |i, s| {
            *s = i;
            // Finish out of order; results must still line up by index.
            std::thread::sleep(std::time::Duration::from_millis((6 - i) as u64));
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(states, [0, 1, 2, 3, 4, 5]);
    }
}
