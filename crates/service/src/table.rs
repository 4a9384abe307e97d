//! The session table: live discovery sessions behind sharded locks.
//!
//! Sessions are [`setdisc_core::engine::OwnedSession`]s over
//! [`SnapshotHandle`]s, so an entry is `'static` and `Send` and any worker
//! thread can resume any session. Ids are assigned from a global counter
//! and never reused (a stale id can only miss, never alias a newer
//! session); the id's low bits select the shard, so concurrent traffic on
//! different sessions contends only 1/`SHARDS` of the time. Every
//! successful access refreshes the entry's idle clock; [`SessionTable::
//! evict_idle`] sweeps entries whose clock exceeded the configured
//! timeout.

use crate::snapshot::{Snapshot, SnapshotHandle, SnapshotLease};
use crate::strategy::BoxedStrategy;
use setdisc_core::cost::Cost;
use setdisc_core::engine::Engine;
use setdisc_core::entity::{EntityId, SetId};
use setdisc_util::FxHashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a shard, recovering from poisoning. A panic inside a session
/// closure (a strategy bug, or an injected `engine.*` fault) poisons the
/// shard mutex; the map structure itself is never mid-mutation at that
/// point (the closure only holds `&mut SessionEntry`), so the lock is safe
/// to recover — only the *offending entry* may hold torn engine state,
/// and the service's panic containment removes exactly that entry
/// immediately after. Without recovery, one panic would wedge 1/16th of
/// all sessions forever.
fn lock_shard(
    shard: &Mutex<FxHashMap<u64, SessionEntry>>,
) -> MutexGuard<'_, FxHashMap<u64, SessionEntry>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of independently locked shards.
const SHARDS: usize = 16;

/// The engine type the table stores: owned snapshot handle, boxed strategy.
pub type ServiceEngine = Engine<SnapshotHandle, BoxedStrategy>;

/// Per-session trace ring capacity. Past it the oldest events drop
/// (oldest-first); the drop count is reported with the ring so clients can
/// detect truncation.
pub const TRACE_CAPACITY: usize = 256;

/// Process-wide count of trace events dropped by the capacity bound,
/// across every ring that ever existed. A per-session `dropped` figure
/// dies with the session (close/evict); this survives, so scrapers can
/// alarm on truncation even when sessions churn.
static TRACE_DROPPED_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Trace events dropped process-wide (all sessions, living and closed).
pub fn trace_dropped_total() -> u64 {
    TRACE_DROPPED_TOTAL.load(Ordering::Relaxed)
}

/// One structured event in a session's question trace.
#[derive(Clone, Debug)]
pub enum TraceStep {
    /// A fresh selection ran (re-asks of an outstanding question return it
    /// verbatim and are not re-recorded — selection is what costs and what
    /// the paper's Table 4 counts).
    Ask {
        /// Entity token selected (the first of the batch in §7 mode).
        entity: String,
        /// Candidate-set size at selection time.
        candidates: u64,
        /// Wall-clock selection time in µs (measured always — the ring is
        /// per-session state, not gated on `SETDISC_OBS`).
        select_us: u64,
        /// Table-4 informative count (0 when the selection was served from
        /// the plan cache or the strategy does not track it).
        informative: u32,
        /// Table-4 evaluated-after-pruning count (0 as above).
        evaluated: u32,
    },
    /// One answer assertion as applied to the engine (a §7 choice expands
    /// into its implied assertions, one event each, sharing the
    /// batch-level before/after counts).
    Answer {
        /// Entity token the assertion concerns.
        entity: String,
        /// The reply as recorded in the engine history (`yes`/`no`/
        /// `unknown`).
        answer: &'static str,
        /// Confidence flag as given on the wire.
        confident: bool,
        /// Candidates before the answer op.
        before: u64,
        /// Candidates after it.
        after: u64,
        /// Cumulative §6 backtracks after the op.
        backtracks: u64,
    },
    /// A provenance snapshot for an explain-armed selection: the compact
    /// why-this-question record (full detail lives in the `explain` op's
    /// response; the ring keeps only what fits a post-mortem).
    Explain {
        /// Entity token selected.
        entity: String,
        /// Candidate-set size at selection time.
        candidates: u64,
        /// Plan-cache disposition name (`hit_file`/`hit_online`/`miss`/
        /// `bypassed`/`unattached`).
        plan: &'static str,
        /// The selected split's Table-4 bound (0 on plan hits).
        bound: u64,
        /// Counting kernel the dispatch heuristic chose (`postings` or
        /// `elements`).
        kernel: &'static str,
        /// Measured wall-clock of one counting pass in ns.
        count_ns: u64,
    },
}

/// A bounded ring of [`TraceStep`]s with monotone sequence numbers, so a
/// truncated trace still shows *where* it was truncated.
#[derive(Debug, Default)]
pub struct TraceRing {
    events: std::collections::VecDeque<(u64, TraceStep)>,
    next: u64,
}

impl TraceRing {
    /// Appends one event, dropping the oldest at capacity.
    pub fn push(&mut self, step: TraceStep) {
        if self.events.len() == TRACE_CAPACITY {
            self.events.pop_front();
            TRACE_DROPPED_TOTAL.fetch_add(1, Ordering::Relaxed);
        }
        self.events.push_back((self.next, step));
        self.next += 1;
    }

    /// The retained events, oldest first, with their sequence numbers.
    pub fn events(&self) -> impl Iterator<Item = &(u64, TraceStep)> {
        self.events.iter()
    }

    /// Events evicted by the capacity bound so far.
    pub fn dropped(&self) -> u64 {
        self.next - self.events.len() as u64
    }
}

/// One live session and its service-level bookkeeping.
pub struct SessionEntry {
    /// The discovery state machine.
    pub engine: ServiceEngine,
    /// The snapshot the session runs over (for name resolution).
    pub snapshot: Arc<Snapshot>,
    /// Registry name the session was created against.
    pub collection_name: String,
    /// Display name of the strategy (for `status`).
    pub strategy_label: String,
    /// Maximum yes/no questions before `ask` reports `done:budget`.
    pub budget: u64,
    /// The outstanding question batch, if `ask` was called without an
    /// `answer` yet (makes `ask` idempotent without re-running selection).
    /// One entry for the classic single-question form; several for a §7
    /// multiple-choice screen, in rank order.
    pub pending: Vec<EntityId>,
    /// The bounded question trace, retrievable via the `trace` wire op.
    pub trace: TraceRing,
    /// Registry lease shielding the session's snapshot from the memory
    /// governor's unload rung; released on drop (close/evict/quarantine).
    lease: Option<SnapshotLease>,
    /// Admission-time byte estimate, fixed for the entry's lifetime (see
    /// [`SessionEntry::accounted_bytes`]).
    bytes: usize,
    last_touch: Instant,
}

impl SessionEntry {
    /// New entry with a fresh idle clock.
    pub fn new(
        engine: ServiceEngine,
        snapshot: Arc<Snapshot>,
        collection_name: String,
        strategy_label: String,
        budget: u64,
    ) -> Self {
        let bytes = std::mem::size_of::<Self>()
            + collection_name.len()
            + strategy_label.len()
            // The trace ring is reserved at its capacity bound up front:
            // a long-lived session will fill it, and a fixed figure keeps
            // admission deterministic.
            + TRACE_CAPACITY * std::mem::size_of::<(u64, TraceStep)>()
            + state_bytes(snapshot.collection().len(), engine.candidate_count())
            // Fixed-size engine and strategy bookkeeping.
            + 1024;
        Self {
            engine,
            snapshot,
            collection_name,
            strategy_label,
            budget,
            pending: Vec::new(),
            trace: TraceRing::default(),
            lease: None,
            bytes,
            last_touch: Instant::now(),
        }
    }

    /// Attaches the registry lease the entry holds for its lifetime.
    pub fn with_lease(mut self, lease: SnapshotLease) -> Self {
        self.lease = Some(lease);
        self
    }

    /// The bytes this entry counts against the memory budget: a
    /// deterministic admission-time estimate (struct, labels, trace ring
    /// at capacity, candidate state), *not* a live measurement — session
    /// entries are bounded by construction, so one fixed figure per entry
    /// keeps admission cheap and reproducible.
    pub fn accounted_bytes(&self) -> usize {
        self.bytes
    }
}

/// Admission estimate of what a session's engine and strategy hold over a
/// collection of `sets` sets, starting from `candidates` candidates. The
/// engine keeps three storage buffers (candidates and two split
/// spares), each a bitmap over the collection's id space plus at most
/// the candidate ids. k-LP keeps an `LB₀` table over the candidate count
/// and its memo, charged at one entry per candidate; on the web-tables
/// corpus a session's memo averages about a quarter of that. Counting
/// buffers and lookahead arenas are per thread, not per session, so they
/// are not charged here.
fn state_bytes(sets: usize, candidates: usize) -> usize {
    let per_candidate = 3 * std::mem::size_of::<SetId>()
        + std::mem::size_of::<Cost>()
        + setdisc_core::lookahead::MEMO_ENTRY_BYTES;
    3 * sets.div_ceil(64) * std::mem::size_of::<u64>() + candidates * per_candidate
}

/// Sharded id → session map with a capacity cap and idle eviction.
pub struct SessionTable {
    shards: Vec<Mutex<FxHashMap<u64, SessionEntry>>>,
    next_id: AtomicU64,
    live: AtomicUsize,
    bytes: AtomicUsize,
    max_sessions: usize,
}

impl SessionTable {
    /// Empty table capped at `max_sessions` concurrent entries.
    pub fn new(max_sessions: usize) -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            next_id: AtomicU64::new(1),
            live: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            max_sessions,
        }
    }

    fn shard(&self, id: u64) -> &Mutex<FxHashMap<u64, SessionEntry>> {
        &self.shards[(id % SHARDS as u64) as usize]
    }

    /// Inserts a session, returning its fresh id, or `Err` when the table
    /// is at capacity.
    pub fn insert(&self, entry: SessionEntry) -> Result<u64, String> {
        // Lock-free admission on the live counter: the check-then-add races
        // benignly with concurrent inserts — the cap can be overshot by at
        // most the number of racing creators, which is what a soft
        // admission limit is for. (Touching self.len() here would take all
        // the shard locks on every create.)
        if self.live.load(Ordering::Relaxed) >= self.max_sessions {
            return Err(format!(
                "session table full ({} live sessions)",
                self.max_sessions
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(entry.bytes, Ordering::Relaxed);
        lock_shard(self.shard(id)).insert(id, entry);
        self.live.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Runs `f` on the session, refreshing its idle clock; `None` when the
    /// id is unknown (never created, closed, or evicted).
    pub fn with<R>(&self, id: u64, f: impl FnOnce(&mut SessionEntry) -> R) -> Option<R> {
        let mut shard = lock_shard(self.shard(id));
        let entry = shard.get_mut(&id)?;
        entry.last_touch = Instant::now();
        Some(f(entry))
    }

    /// Removes a session; true when it existed.
    pub fn remove(&self, id: u64) -> bool {
        match lock_shard(self.shard(id)).remove(&id) {
            Some(entry) => {
                self.live.fetch_sub(1, Ordering::Relaxed);
                self.bytes.fetch_sub(entry.bytes, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Number of live sessions (O(1): maintained counter, no locks).
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Accounted bytes of every live session (O(1): maintained on
    /// insert/remove/evict, never recomputed).
    pub fn accounted_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evicts sessions idle longer than `max_idle`; returns the count.
    pub fn evict_idle(&self, max_idle: Duration) -> usize {
        let now = Instant::now();
        let mut evicted = 0;
        let mut freed = 0usize;
        for shard in &self.shards {
            let mut shard = lock_shard(shard);
            let before = shard.len();
            shard.retain(|_, e| {
                let keep = now.duration_since(e.last_touch) <= max_idle;
                if !keep {
                    freed += e.bytes;
                }
                keep
            });
            evicted += before - shard.len();
        }
        if evicted > 0 {
            self.live.fetch_sub(evicted, Ordering::Relaxed);
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::fixture;
    use crate::strategy::StrategySpec;
    use setdisc_core::collection::Collection;

    fn entry() -> SessionEntry {
        let snap = fixture("figure1").unwrap();
        let spec = StrategySpec::default();
        let engine = Engine::new(SnapshotHandle(Arc::clone(&snap)), &[], spec.build());
        SessionEntry::new(engine, snap, "figure1".into(), spec.label(), 100)
    }

    #[test]
    fn ids_are_unique_and_never_reused() {
        let t = SessionTable::new(100);
        let a = t.insert(entry()).unwrap();
        let b = t.insert(entry()).unwrap();
        assert_ne!(a, b);
        assert!(t.remove(a));
        assert!(!t.remove(a), "double close misses");
        let c = t.insert(entry()).unwrap();
        assert_ne!(c, a, "slot ids are not recycled");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn capacity_cap_rejects_creation() {
        let t = SessionTable::new(2);
        t.insert(entry()).unwrap();
        t.insert(entry()).unwrap();
        let err = t.insert(entry()).unwrap_err();
        assert!(err.contains("full"));
        // Closing one frees admission.
        assert!(t.remove(1));
        assert!(t.insert(entry()).is_ok());
    }

    #[test]
    fn with_touches_and_misses() {
        let t = SessionTable::new(8);
        let id = t.insert(entry()).unwrap();
        let n = t.with(id, |e| e.engine.candidate_count()).unwrap();
        assert_eq!(n, 7);
        assert!(t.with(id + 1, |_| ()).is_none());
    }

    #[test]
    fn byte_accounting_follows_insert_remove_and_eviction() {
        let t = SessionTable::new(8);
        assert_eq!(t.accounted_bytes(), 0);
        let a = t.insert(entry()).unwrap();
        let per = t.accounted_bytes();
        assert!(
            per > TRACE_CAPACITY * std::mem::size_of::<(u64, TraceStep)>(),
            "estimate covers at least the reserved trace ring"
        );
        let _b = t.insert(entry()).unwrap();
        assert_eq!(t.accounted_bytes(), 2 * per, "estimates are deterministic");
        assert!(t.remove(a));
        assert_eq!(t.accounted_bytes(), per);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(t.evict_idle(Duration::from_millis(1)), 1);
        assert_eq!(t.accounted_bytes(), 0);

        // A large collection: the charge follows the engine's id-space
        // bitmaps and the session's candidates, not 8 B per set. Over
        // 100,000 sets a session starting from 104 candidates is charged
        // tens of KB, where 8 B per set came to 800 KB.
        let n = 100_000u32;
        let sets = (0..n).map(|i| vec![i % 967, 1_000 + i]).collect();
        let snap = Snapshot::from_collection("large", Collection::from_raw_sets(sets).unwrap());
        let spec = StrategySpec::default();
        let engine = Engine::new(
            SnapshotHandle(Arc::clone(&snap)),
            &[EntityId(0)],
            spec.build(),
        );
        assert_eq!(engine.candidate_count(), 104);
        let large = SessionEntry::new(engine, snap, "large".into(), spec.label(), 100);
        let bitmaps = 3 * (n as usize).div_ceil(64) * 8;
        let charged = large.accounted_bytes() - per;
        assert!(charged > bitmaps, "{charged} B charged");
        assert!(
            large.accounted_bytes() < 100_000,
            "{} B",
            large.accounted_bytes()
        );
    }

    #[test]
    fn idle_eviction_spares_touched_sessions() {
        let t = SessionTable::new(8);
        let old = t.insert(entry()).unwrap();
        let fresh = t.insert(entry()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        t.with(fresh, |_| ()).unwrap(); // refresh one clock
        let evicted = t.evict_idle(Duration::from_millis(15));
        assert_eq!(evicted, 1);
        assert!(t.with(old, |_| ()).is_none(), "idle session gone");
        assert!(t.with(fresh, |_| ()).is_some(), "touched session kept");
    }
}
