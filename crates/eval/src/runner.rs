//! Shared experiment infrastructure: scales, context, timing, and a small
//! deterministic parallel-map over workloads.

use setdisc_util::report::Table;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload scale.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds — exercised by tests and CI.
    Smoke,
    /// Minutes — the numbers EXPERIMENTS.md quotes.
    Default,
    /// The paper's workload sizes, where tractable on one machine.
    Paper,
}

impl Scale {
    /// Parses `"smoke" | "default" | "paper"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "default" => Some(Scale::Default),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Picks one of three values by scale.
    pub fn pick<T: Copy>(self, smoke: T, default: T, paper: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Default => default,
            Scale::Paper => paper,
        }
    }
}

/// Context shared by all experiments.
#[derive(Clone, Debug)]
pub struct ExpContext {
    /// Workload scale.
    pub scale: Scale,
    /// Base seed; every generator derives from it.
    pub seed: u64,
    /// Directory for CSV artifacts (`out/` by default); `None` = print only.
    pub out_dir: Option<PathBuf>,
}

impl ExpContext {
    /// Context with the given scale, the canonical seed, writing CSVs to
    /// `out/`.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            seed: 0xEDB7_2023,
            out_dir: Some(PathBuf::from("out")),
        }
    }

    /// Context for tests: smoke scale, no CSV output.
    pub fn smoke() -> Self {
        Self {
            scale: Scale::Smoke,
            seed: 0xEDB7_2023,
            out_dir: None,
        }
    }

    /// Emits a result table: prints markdown to stdout and writes
    /// `out/<slug>.csv` when an output directory is configured.
    pub fn emit(&self, slug: &str, table: &Table) {
        println!("{}", table.to_markdown());
        if let Some(dir) = &self.out_dir {
            let path = dir.join(format!("{slug}.csv"));
            if let Err(e) = table.write_csv(&path) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

/// Times a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Deterministic parallel map: applies `f` to each item on the shared
/// [`setdisc_util::pool`] scoped worker pool and returns outputs in input
/// order. `f` must be `Sync` (called from many threads); per-item state
/// belongs inside `f`.
///
/// The worker count comes from [`setdisc_util::pool::configured_threads`] — sized from
/// `std::thread::available_parallelism` with a `SETDISC_THREADS` override. Work
/// distribution is the pool's atomic [`setdisc_util::pool::ClaimCounter`]; each item sits
/// behind its own (uncontended) mutex purely so the claiming worker can
/// move it out without `unsafe`, and workers accumulate `(index, output)`
/// pairs locally that are merged back into input order after the join.
pub fn par_map<T: Send, U: Send>(items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    use setdisc_util::pool;

    let workers = pool::configured_threads().min(items.len().max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let slots: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|t| std::sync::Mutex::new(Some(t)))
        .collect();
    let queue = pool::ClaimCounter::new(n);
    let mut locals: Vec<Vec<(usize, U)>> = (0..workers).map(|_| Vec::new()).collect();
    pool::run_workers(&mut locals, |_, local: &mut Vec<(usize, U)>| {
        while let Some(idx) = queue.claim() {
            let item = slots[idx]
                .lock()
                .expect("slot lock poisoned")
                .take()
                .expect("each index is claimed exactly once");
            local.push((idx, f(item)));
        }
    });
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (idx, u) in locals.into_iter().flatten() {
        out[idx] = Some(u);
    }
    out.into_iter()
        .map(|s| s.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_and_pick() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::Smoke.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Paper.pick(1, 2, 3), 3);
    }

    #[test]
    fn timed_measures() {
        let (v, d) = timed(|| {
            std::thread::sleep(Duration::from_millis(10));
            42
        });
        assert_eq!(v, 42);
        assert!(d >= Duration::from_millis(9));
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..500).collect();
        let out = par_map(items.clone(), |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_hammered_with_more_items_than_threads() {
        // Far more items than any machine has threads, with skewed per-item
        // work so claim order and completion order diverge wildly; the
        // output must still be exact and in input order.
        let items: Vec<u64> = (0..10_000).collect();
        let out = par_map(items.clone(), |x| {
            if x % 1_000 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            x * x + 1
        });
        assert_eq!(out.len(), items.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * (i as u64) + 1, "slot {i}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        assert!(par_map(Vec::<u32>::new(), |x| x).is_empty());
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn emit_without_outdir_only_prints() {
        let ctx = ExpContext::smoke();
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into()]);
        ctx.emit("test", &t); // must not panic or write files
    }
}
