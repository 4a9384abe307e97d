//! Vendor-free telemetry: a lock-free metric core, hot-path span timing
//! at named sites, and a tiny leveled stderr logger (DESIGN.md §12).
//!
//! The design mirrors [`crate::faults`]: the same named hook sites that
//! PR 7 compiled into production paths for chaos injection here get
//! *eyes* instead. Disarmed, every hook costs one relaxed atomic load;
//! armed (via [`arm`], the `SETDISC_OBS` environment variable, or the
//! `serve --metrics` flag), spans record elapsed microseconds into
//! log2-bucketed histograms.
//!
//! **Lock-free by sharding.** Recording never contends: each thread owns
//! a private shard (a fixed `Site`-indexed array of histograms) that it
//! bumps with relaxed atomic adds. Shards are registered once per thread
//! under a mutex and merged only at [`snapshot`] time, so the hot path
//! takes no lock and shares no cache line with other recorders. Counts
//! are monotone: shards of dead threads are retained, never reset, so a
//! later snapshot can only grow.
//!
//! **Histograms.** Values land in `⌊log₂ v⌋`-indexed buckets (bucket 0
//! holds zero). Quantile extraction walks the cumulative counts and
//! reports the *inclusive upper bound* of the bucket holding the q-th
//! event — exact to within one power of two, which is the honesty level
//! a 40-word fixed array can promise without allocation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of log2 buckets per histogram. Bucket 0 holds zeros; bucket
/// `b ≥ 1` holds values in `[2^(b-1), 2^b)`; the last bucket absorbs
/// everything above (`2^38` µs is ~76 hours — far past any span here).
pub const BUCKETS: usize = 40;

/// The named instrumentation sites — the same taxonomy `crate::faults`
/// trips, plus the counter-only plan and prune sites. Fixed at compile
/// time so a shard is a flat array and recording is an index, not a map.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Site {
    /// `Engine::next_question` — one event per selection (span, µs).
    EngineSelect,
    /// `Engine::answer_full` — one event per applied answer (span, µs).
    EngineAnswer,
    /// `SubCollection::partition_into` (span, µs).
    Partition,
    /// The subcollection counting kernel (span, µs).
    Count,
    /// Plan-cache lookup served a cached selection (count).
    PlanHit,
    /// Plan-cache lookup missed; the strategy ran (count).
    PlanMiss,
    /// A fresh selection was recorded into the plan cache (count).
    PlanRecord,
    /// `setdisc_plan::save_plan` (span, µs).
    PlanSave,
    /// One periodic plan-checkpointer persist (span, µs).
    PlanCheckpoint,
    /// `Service::dispatch` — one event per wire request (span, µs).
    ServiceDispatch,
    /// One transport read syscall (span, µs — includes peer think time).
    ServerRead,
    /// One response line written + flushed (span, µs).
    ServerWrite,
    /// One accepted TCP connection (count).
    ServerAccept,
    /// Table-4 prune statistic: informative entities per selection
    /// (value histogram; `sum` is the paper's column total).
    SelectInformative,
    /// Table-4 prune statistic: entities actually evaluated per
    /// selection after pruning (value histogram).
    SelectEvaluated,
    /// Cost-model calibration: measured element-pass cost in milli-ns
    /// per element, recorded at the counting-dispatch sites when the
    /// element kernel runs (value histogram; feeds the `core::cost`
    /// re-fit).
    CostModelElements,
    /// Cost-model calibration: measured postings-sweep cost in milli-ns
    /// per scan-cost unit (value histogram).
    CostModelPostings,
}

/// Every site, in stable exposition order.
pub const SITES: [Site; 17] = [
    Site::EngineSelect,
    Site::EngineAnswer,
    Site::Partition,
    Site::Count,
    Site::PlanHit,
    Site::PlanMiss,
    Site::PlanRecord,
    Site::PlanSave,
    Site::PlanCheckpoint,
    Site::ServiceDispatch,
    Site::ServerRead,
    Site::ServerWrite,
    Site::ServerAccept,
    Site::SelectInformative,
    Site::SelectEvaluated,
    Site::CostModelElements,
    Site::CostModelPostings,
];

impl Site {
    /// The wire/exposition name (shared with the `faults` site taxonomy
    /// where a fault hook exists at the same place).
    pub fn name(self) -> &'static str {
        match self {
            Site::EngineSelect => "engine.select",
            Site::EngineAnswer => "engine.answer",
            Site::Partition => "partition",
            Site::Count => "count",
            Site::PlanHit => "plan.hit",
            Site::PlanMiss => "plan.miss",
            Site::PlanRecord => "plan.record",
            Site::PlanSave => "plan.save",
            Site::PlanCheckpoint => "plan.checkpoint",
            Site::ServiceDispatch => "service.dispatch",
            Site::ServerRead => "server.read",
            Site::ServerWrite => "server.write",
            Site::ServerAccept => "server.accept",
            Site::SelectInformative => "select.informative",
            Site::SelectEvaluated => "select.evaluated",
            Site::CostModelElements => "cost_model.elements",
            Site::CostModelPostings => "cost_model.postings",
        }
    }

    fn index(self) -> usize {
        // Declaration order matches [`SITES`] (asserted in tests).
        self as usize
    }
}

/// A monotone counter — the metric core's storage type for values that
/// only grow (the service's edge counters live on this, so `status` and
/// `metrics` read the *same* cells and can never disagree).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const so it can seed statics).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one (relaxed — counters tolerate reordering, never loss).
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge for level-style values (resident bytes, open
/// sessions). Unlike [`Counter`] it may move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the level.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The memory-accounting components whose byte levels the governor
/// publishes (DESIGN.md §13). Fixed at compile time so the gauges are a
/// flat array and the Prometheus label set is closed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemComponent {
    /// Loaded snapshot collections (bitmaps, postings, labels, tables).
    Collections,
    /// Plan caches, per-shard counters summed across collections.
    PlanCaches,
    /// Session-table entries (engines, pending queues, trace rings).
    Sessions,
}

/// Every memory component, in stable exposition order.
pub const MEM_COMPONENTS: [MemComponent; 3] = [
    MemComponent::Collections,
    MemComponent::PlanCaches,
    MemComponent::Sessions,
];

impl MemComponent {
    /// The `component` label value in `setdisc_mem_bytes{component=...}`
    /// and the field suffix in `{"op":"metrics"}`.
    pub fn name(self) -> &'static str {
        match self {
            MemComponent::Collections => "collections",
            MemComponent::PlanCaches => "plan_caches",
            MemComponent::Sessions => "sessions",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The always-on memory gauges — unlike the span histograms these are
/// not gated on [`armed`]: byte accounting is what the governor steers
/// by, so it is never optional.
static MEM_GAUGES: [Gauge; 3] = [const { Gauge::new() }; 3];

/// Publishes the accounted byte level for one component.
pub fn mem_set(component: MemComponent, bytes: u64) {
    MEM_GAUGES[component.index()].set(bytes);
}

/// The last published byte level for one component.
pub fn mem_bytes(component: MemComponent) -> u64 {
    MEM_GAUGES[component.index()].get()
}

/// Sum of every component's last published level.
pub fn mem_total() -> u64 {
    MEM_COMPONENTS.iter().map(|c| mem_bytes(*c)).sum()
}

/// A lock-free log2-bucketed histogram: concurrent recorders bump
/// relaxed atomics, readers fold the buckets into a
/// [`HistogramSnapshot`]. No count is ever lost — `record` is a single
/// `fetch_add` per cell.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Folds the current cells into an owned snapshot. Concurrent
    /// recording may land between cell reads — the snapshot is a
    /// consistent *lower bound* per cell, never a corruption.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: [0; BUCKETS],
        };
        for (out, cell) in snap.buckets.iter_mut().zip(&self.buckets) {
            *out = cell.load(Ordering::Relaxed);
        }
        snap
    }
}

/// The log2 bucket index for a value.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The inclusive upper bound a bucket reports as its representative.
pub fn bucket_upper(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 63 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// An owned, mergeable histogram state — also the workspace's shared
/// percentile type (the load harness folds its latency samples through
/// this instead of private sorting code).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Events recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket event counts (see [`bucket_of`]).
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Records one value (the single-threaded twin of
    /// [`Histogram::record`]).
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.buckets[bucket_of(v)] += 1;
    }

    /// Adds every cell of `other` into `self`. Merging is commutative
    /// and associative, which is the whole shard argument: any merge
    /// order of per-thread shards yields the same totals.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The q-quantile (`0.0 ..= 1.0`) as the inclusive upper bound of
    /// the bucket holding the ⌈q·count⌉-th event; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(b);
            }
        }
        bucket_upper(BUCKETS - 1)
    }
}

/// One thread's private cells: a histogram per site.
struct Shard {
    cells: [Histogram; 17],
}

impl Shard {
    fn new() -> Self {
        Self {
            cells: [const { Histogram::new() }; 17],
        }
    }
}

/// Registry of every live (or once-live) thread shard. Locked only on
/// thread-first-record and on snapshot — never on the recording path.
static SHARDS: Mutex<Vec<Arc<Shard>>> = Mutex::new(Vec::new());

/// Whether recording is armed. Relaxed load — the only cost a disarmed
/// hook pays.
static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static LOCAL: Arc<Shard> = {
        let shard = Arc::new(Shard::new());
        SHARDS
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Arc::clone(&shard));
        shard
    };
}

/// True when telemetry is recording.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms or disarms recording process-wide. Counts survive disarming
/// (they are monotone); only *new* events stop.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Release);
}

/// Arms from the `SETDISC_OBS` environment variable (`1`/`true`/`on`,
/// case-insensitive). Anything else — including unset — leaves the
/// current state alone, so `--metrics` and the env compose.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("SETDISC_OBS") {
        if matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on") {
            arm(true);
        }
    }
}

/// Records `value` at `site` when armed; one relaxed load otherwise.
pub fn record(site: Site, value: u64) {
    if !armed() {
        return;
    }
    LOCAL.with(|shard| shard.cells[site.index()].record(value));
}

/// Counts one event at `site` (a zero-valued record — bumps `count`,
/// leaves `sum` alone).
pub fn hit(site: Site) {
    record(site, 0);
}

/// An armed-at-creation span; records elapsed µs at drop. Disarmed it
/// holds no timestamp and drops for free.
pub struct SpanGuard {
    site: Site,
    started: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            LOCAL.with(|shard| shard.cells[self.site.index()].record(us));
        }
    }
}

/// Starts a span at `site`. The disarmed fast path is one relaxed load
/// and a `None` — no clock read, no allocation.
pub fn span(site: Site) -> SpanGuard {
    SpanGuard {
        site,
        started: armed().then(Instant::now),
    }
}

/// Per-site aggregate served to the exposition surface.
#[derive(Clone, Debug)]
pub struct SiteStats {
    /// The site's exposition name.
    pub name: &'static str,
    /// Merged histogram across every thread shard.
    pub histogram: HistogramSnapshot,
}

/// Merges every thread shard into a per-site aggregate, in [`SITES`]
/// order. Sites that never recorded report zeroed histograms, so the
/// schema is stable from the first scrape.
pub fn snapshot() -> Vec<SiteStats> {
    let shards: Vec<Arc<Shard>> = SHARDS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .map(Arc::clone)
        .collect();
    SITES
        .iter()
        .enumerate()
        .map(|(i, site)| {
            let mut merged = HistogramSnapshot::default();
            for shard in &shards {
                merged.merge(&shard.cells[i].snapshot());
            }
            SiteStats {
                name: site.name(),
                histogram: merged,
            }
        })
        .collect()
}

/// Severity for [`log`] lines.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Level {
    /// Normal operational notices (boot, persist, drain).
    Info,
    /// Degraded but continuing (corrupt plan set aside, bad env knob).
    Warn,
    /// Failing an operation (unused so far; kept for symmetry).
    Error,
}

impl Level {
    fn tag(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// Formats one diagnostic line: uniform `setdisc <level>: ` prefix,
/// deliberately timestamp-free so transcripts diff cleanly and scripts
/// can grep message substrings.
pub fn format_line(level: Level, msg: &str) -> String {
    format!("setdisc {}: {msg}", level.tag())
}

/// Emits one diagnostic line to stderr.
pub fn log(level: Level, msg: &str) {
    eprintln!("{}", format_line(level, msg));
}

/// Shorthand for [`log`]`(Level::Info, ..)`.
pub fn info(msg: &str) {
    log(Level::Info, msg);
}

/// Shorthand for [`log`]`(Level::Warn, ..)`.
pub fn warn(msg: &str) {
    log(Level::Warn, msg);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Process-global armed state: tests that arm serialize here (same
    /// pattern as `faults::tests`).
    static GUARD: Mutex<()> = Mutex::new(());

    fn site_count(name: &str) -> u64 {
        snapshot()
            .iter()
            .find(|s| s.name == name)
            .expect("known site")
            .histogram
            .count
    }

    #[test]
    fn site_indices_match_exposition_order() {
        for (i, site) in SITES.iter().enumerate() {
            assert_eq!(site.index(), i, "{}", site.name());
        }
    }

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for b in 1..BUCKETS - 1 {
            // The representative upper bound lives in its own bucket.
            assert_eq!(bucket_of(bucket_upper(b)), b, "bucket {b}");
        }
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let mut h = HistogramSnapshot::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1106);
        // Median event is the 3rd (value 3, bucket 2, upper bound 3).
        assert_eq!(h.quantile(0.5), 3);
        // The tail event (1000) lands in bucket 10 → upper 1023.
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(h.quantile(0.0), 1, "rank clamps to the first event");
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn quantile_is_within_one_bucket_of_exact() {
        let mut h = HistogramSnapshot::default();
        let mut values: Vec<u64> = (0..500).map(|i| (i * i * 7 + 13) % 9001).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = values[((values.len() - 1) as f64 * q).round() as usize];
            let approx = h.quantile(q);
            let (a, b) = (bucket_of(exact), bucket_of(approx));
            assert!(
                a.abs_diff(b) <= 1,
                "q={q}: exact {exact} (bucket {a}) vs {approx} (bucket {b})"
            );
        }
    }

    #[test]
    fn merge_is_lossless_and_order_free() {
        let mut parts: Vec<HistogramSnapshot> = Vec::new();
        let mut reference = HistogramSnapshot::default();
        for chunk in 0..4u64 {
            let mut part = HistogramSnapshot::default();
            for i in 0..100 {
                let v = chunk * 1000 + i * 37;
                part.record(v);
                reference.record(v);
            }
            parts.push(part);
        }
        let mut forward = HistogramSnapshot::default();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = HistogramSnapshot::default();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, reference);
        assert_eq!(backward, reference);
    }

    #[test]
    fn disarmed_hooks_record_nothing() {
        let _guard = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        arm(false);
        let before = site_count("plan.save");
        record(Site::PlanSave, 42);
        hit(Site::PlanSave);
        drop(span(Site::PlanSave));
        assert_eq!(site_count("plan.save"), before);
    }

    #[test]
    fn disarmed_span_guard_holds_no_instant() {
        // The §12 contract, checked structurally: a disarmed span holds no
        // timestamp. Its cost against a bare loop is timed in release by
        // `bench_hotpath`.
        let _guard = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        arm(false);
        assert!(span(Site::EngineSelect).started.is_none());
        arm(true);
        assert!(span(Site::EngineSelect).started.is_some());
        arm(false);
    }

    #[test]
    fn armed_spans_and_counts_land_in_the_snapshot() {
        let _guard = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        arm(true);
        let before = site_count("plan.checkpoint");
        record(Site::PlanCheckpoint, 7);
        hit(Site::PlanCheckpoint);
        drop(span(Site::PlanCheckpoint));
        arm(false);
        assert_eq!(site_count("plan.checkpoint"), before + 3);
    }

    #[test]
    fn concurrent_recording_loses_no_counts() {
        let _guard = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        arm(true);
        let before = site_count("select.evaluated");
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                scope.spawn(move || {
                    for i in 0..1000 {
                        record(Site::SelectEvaluated, t * 1000 + i);
                    }
                });
            }
        });
        arm(false);
        assert_eq!(site_count("select.evaluated"), before + 8000);
    }

    #[test]
    fn counters_and_gauges_read_back() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(9);
        assert_eq!(g.get(), 9);
        g.set(2);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn mem_gauges_are_always_on_and_total_sums_components() {
        let _guard = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        arm(false); // gauges must work disarmed — they are never optional
        for c in MEM_COMPONENTS {
            mem_set(c, 0);
        }
        mem_set(MemComponent::Collections, 100);
        mem_set(MemComponent::PlanCaches, 40);
        mem_set(MemComponent::Sessions, 2);
        assert_eq!(mem_bytes(MemComponent::Collections), 100);
        assert_eq!(mem_total(), 142);
        mem_set(MemComponent::Collections, 10); // gauges move both ways
        assert_eq!(mem_total(), 52);
        assert_eq!(
            MEM_COMPONENTS.map(MemComponent::name),
            ["collections", "plan_caches", "sessions"]
        );
        for c in MEM_COMPONENTS {
            mem_set(c, 0);
        }
    }

    #[test]
    fn log_lines_are_uniformly_prefixed_and_timestamp_free() {
        assert_eq!(
            format_line(Level::Warn, "SETDISC_THREADS=0 ignored"),
            "setdisc warn: SETDISC_THREADS=0 ignored"
        );
        assert_eq!(
            format_line(Level::Info, "loaded plan cache: 12 nodes"),
            "setdisc info: loaded plan cache: 12 nodes"
        );
        assert_eq!(format_line(Level::Error, "x"), "setdisc error: x");
    }
}
