//! Sans-IO discovery engine — Algorithm 2 as a pure state machine.
//!
//! [`Engine`] owns the candidate state of one interactive discovery and
//! exposes exactly three verbs: [`Engine::next_question`] (Algorithm 2,
//! line 6), [`Engine::answer`] (lines 8–12) and [`Engine::outcome`]. No
//! oracle, socket, or prompt appears anywhere in the loop — answer *sources*
//! are drivers layered on top (the [`crate::discovery::Oracle`] adapters,
//! the `discover` CLI, the `setdisc-service` wire protocol), which is what
//! lets one implementation serve in-process evaluation, an interactive
//! terminal, and a concurrent network service with bit-identical question
//! sequences.
//!
//! The engine is generic over *how the collection is held* via
//! [`CollectionRef`]: a borrowed `&Collection` gives the classic scoped
//! [`crate::discovery::Session`], while an `Arc<Collection>` (or any other
//! cheaply-cloneable owning handle) gives [`OwnedSession`] — a `'static`,
//! `Send` value that can be parked in a session table and resumed from any
//! thread. Candidate state is a [`SubStorage`] (sorted id vector plus its
//! dense bitmap) and its 128-bit fingerprint; every narrowing step recycles
//! the storage buffers through the word-parallel
//! [`SubCollection::partition_into`], so steady-state stepping performs no
//! heap allocation beyond what the strategy itself needs.

use crate::collection::Collection;
use crate::discovery::{Answer, ConfirmingOracle, Oracle, Outcome};
use crate::entity::{EntityId, SetId};
use crate::error::{Result, SetDiscError};
use crate::strategy::{SelectionDetail, SelectionStrategy};
use crate::subcollection::{SubCollection, SubStorage};
use setdisc_util::{obs, Fingerprint, FxHashSet};
use std::mem;
use std::ops::Deref;
use std::sync::Arc;

/// A shared cache of per-view selections — the engine's pluggable hook for
/// the cross-session plan cache (`setdisc-plan`).
///
/// The engine consults [`Self::lookup`] before running its strategy and
/// calls [`Self::record`] with the strategy's answer after a miss, **only
/// when no entity is excluded** — a "don't know" reply changes what the
/// strategy may pick without changing the view's `(fingerprint, len)`
/// identity, so excluded-path selections are never served from or written
/// to the cache. Losslessness therefore requires exactly what the in-
/// strategy memos already require: implementations must only return
/// selections recorded for the *same* collection and the *same*
/// deterministic strategy configuration (attach nothing for randomized
/// strategies).
pub trait SelectionCache: Send + Sync {
    /// The cached selection for this view, or `None` on a miss.
    fn lookup(&self, view: &SubCollection<'_>) -> Option<EntityId>;

    /// Records a freshly computed selection for this view.
    fn record(&self, view: &SubCollection<'_>, detail: &SelectionDetail);

    /// [`Self::lookup`] plus where the served node came from. MUST be
    /// observably identical to one `lookup` call (same stats, stamps, and
    /// eviction effects) — the engine substitutes it for `lookup` only
    /// when provenance capture is armed, and armed/disarmed runs must
    /// leave bit-identical cache state. The default reports
    /// [`PlanOrigin::Unknown`] for caches that don't track origin.
    fn lookup_with_origin(&self, view: &SubCollection<'_>) -> Option<(EntityId, PlanOrigin)> {
        self.lookup(view).map(|e| (e, PlanOrigin::Unknown))
    }
}

/// Where a plan-cache hit's node was born.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PlanOrigin {
    /// Loaded from a persisted plan file (warm boot / precompute).
    File,
    /// Recorded online by a live session on this process.
    Online,
    /// The cache implementation doesn't track origin.
    Unknown,
}

impl PlanOrigin {
    /// Stable wire name for provenance JSON.
    pub fn name(self) -> &'static str {
        match self {
            PlanOrigin::File => "file",
            PlanOrigin::Online => "online",
            PlanOrigin::Unknown => "unknown",
        }
    }
}

/// How the plan cache participated in one selection.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PlanDisposition {
    /// Served from the cache; the origin tells file vs online.
    Hit(PlanOrigin),
    /// Probed and missed; the strategy ran and the result was recorded.
    Miss,
    /// Not consulted: the exclusion set was non-empty (cache contract).
    Bypassed,
    /// No cache is attached to this engine.
    Unattached,
}

impl PlanDisposition {
    /// Stable wire name for provenance JSON.
    pub fn name(self) -> &'static str {
        match self {
            PlanDisposition::Hit(PlanOrigin::File) => "hit_file",
            PlanDisposition::Hit(PlanOrigin::Online) => "hit_online",
            PlanDisposition::Hit(PlanOrigin::Unknown) => "hit",
            PlanDisposition::Miss => "miss",
            PlanDisposition::Bypassed => "bypassed",
            PlanDisposition::Unattached => "unattached",
        }
    }
}

/// The per-question "why" record [`Engine::next_question`] captures when
/// explain mode is armed ([`Engine::set_explain`]): every decision behind
/// the pick — ranked candidates with prune reasons, plan-cache
/// disposition and key, counting-kernel dispatch with predicted cost
/// drivers next to a measured pass time. Capture is strictly read-only
/// with respect to selection state; armed and disarmed runs produce
/// bit-identical questions, budgets, and plan-cache contents.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// 1-based ordinal of the question this record explains.
    pub question: usize,
    /// The selected entity.
    pub entity: EntityId,
    /// Candidate sets in the view at selection time.
    pub candidates: usize,
    /// The view's content fingerprint — with `view_len`, the plan key.
    pub view_fp: Fingerprint,
    /// The view's length — the other half of the plan key.
    pub view_len: u32,
    /// How the plan cache participated.
    pub plan: PlanDisposition,
    /// The strategy's bound for the pick (0 on plan hits — the engine
    /// never recomputes it).
    pub bound: u64,
    /// Ranked candidates with Table-4 prune reasons; `None` on plan hits
    /// (the strategy never ran — the plan *is* the why).
    pub trace: Option<crate::strategy::SelectionTrace>,
    /// What the counting dispatcher would decide for this view under the
    /// fingerprint-pass factor, with its predicted cost drivers.
    pub dispatch: crate::subcollection::DispatchPreview,
    /// Wall time of one measured read-only counting pass over the view
    /// (the kernel `dispatch` chose), in nanoseconds.
    pub measured_count_ns: u64,
}

/// A cheaply-cloneable handle to an immutable [`Collection`].
///
/// Blanket-implemented for everything that derefs to a collection —
/// `&Collection`, `Arc<Collection>`, `Rc<Collection>`, and wrapper types
/// such as a service snapshot handle. The engine never mutates the
/// collection; the handle only decides the engine's lifetime story.
pub trait CollectionRef: Deref<Target = Collection> + Clone {}

impl<T: Deref<Target = Collection> + Clone> CollectionRef for T {}

/// The sans-IO discovery state machine (Algorithm 2 of the paper).
///
/// One engine = one discovery in progress: the candidate sets consistent
/// with every answer so far, the selection strategy Υ, the set of entities
/// excluded by "don't know" replies, and the question/answer transcript.
/// Drive it by alternating [`Self::next_question`] and [`Self::answer`]
/// until [`Self::is_resolved`]; or use the [`Self::run`] /
/// [`Self::run_bounded`] drivers when answers come from an [`Oracle`].
///
/// Two §6–§7 session modes extend the basic loop without changing it when
/// unused:
///
/// * **Backtracking** ([`Self::set_backtracking`]) — when answers contain
///   errors, a contradiction (empty candidate set) no longer has to end the
///   discovery: the engine unwinds its own question trail, flips one prior
///   answer (least-trusted first; see [`Self::answer_full`]), and replays
///   the rest, re-opening the mispruned branch (the §6 recovery procedure).
/// * **Multiple-choice questions** ([`Self::next_questions`] /
///   [`Self::answer_choice`]) — a ranked batch of entities presented as one
///   prompt (§7); the reply asserts one Yes and the implied Nos through the
///   ordinary [`Self::answer_full`] path, so mixed single/batch transcripts
///   stay well-defined.
pub struct Engine<C, S> {
    collection: C,
    store: SubStorage,
    fp: Fingerprint,
    spare_a: SubStorage,
    spare_b: SubStorage,
    strategy: S,
    plan: Option<Arc<dyn SelectionCache>>,
    excluded: FxHashSet<EntityId>,
    history: Vec<(EntityId, Answer)>,
    questions: usize,
    unknowns: usize,
    recover: Option<RecoverState>,
    /// Table-4 prune counters `(informative, evaluated)` from the most
    /// recent strategy-computed selection; `None` after a plan-cache hit or
    /// an excluded-path selection (where no detail is computed).
    last_detail: Option<(u32, u32)>,
    /// Whether [`Self::next_question`] captures a [`Provenance`] record.
    explain: bool,
    /// The most recent captured record (explain mode only).
    last_provenance: Option<Provenance>,
}

/// Backtracking bookkeeping, allocated only for sessions that opt in.
struct RecoverState {
    /// Candidate ids at the moment backtracking was enabled — the replay
    /// base. Enabling at construction time makes this the initial view.
    base: Vec<SetId>,
    /// History index at enablement; only entries from here on can flip.
    offset: usize,
    /// Per-answer confidence flags for `history[offset..]`.
    confident: Vec<bool>,
    /// The answers *as given* for `history[offset..]` — recovery always
    /// hypothesizes flip sets against these, never against an earlier
    /// recovery's rewrite, so one wrong guess cannot compound into an
    /// unrecoverable transcript.
    original: Vec<(EntityId, Answer)>,
    /// Flip sets already committed once (sorted index lists). A transcript
    /// that stops changing cannot cycle through them again, which bounds
    /// the total number of recoveries.
    used: FxHashSet<Vec<usize>>,
    /// Sets denied at confirmation ([`Engine::reject`]); filtered from
    /// every replay so a recovery never resurrects a refuted resolution.
    rejected: FxHashSet<SetId>,
    /// Successful recoveries so far.
    backtracks: usize,
}

/// Recovery searches flip sets of at most this many answers (§6 considers
/// up to two erroneous answers; beyond that the quadratic hypothesis space
/// stops paying for itself and the session closes as contradictory).
const MAX_FLIPS: usize = 2;

/// A discovery session that owns its collection snapshot — `'static`,
/// storable, and `Send` (given a `Send` strategy), as required to park
/// sessions in a concurrent service table.
pub type OwnedSession<S> = Engine<Arc<Collection>, S>;

impl<C: CollectionRef, S: SelectionStrategy> Engine<C, S> {
    /// Starts an engine over the supersets of `initial` (Algorithm 2,
    /// lines 1–4). An empty `initial` considers every set.
    pub fn new(collection: C, initial: &[EntityId], strategy: S) -> Self {
        let view = collection.supersets_of(initial);
        let fp = view.fingerprint();
        let store = view.into_storage();
        Self::from_parts(collection, store, fp, strategy)
    }

    /// Starts an engine over an explicit candidate id list (sorted and
    /// deduplicated here; panics on an id out of range, mirroring
    /// [`SubCollection::from_ids`]).
    pub fn with_candidates(collection: C, ids: Vec<SetId>, strategy: S) -> Self {
        let view = SubCollection::from_ids(collection.deref(), ids);
        let fp = view.fingerprint();
        let store = view.into_storage();
        Self::from_parts(collection, store, fp, strategy)
    }

    fn from_parts(collection: C, store: SubStorage, fp: Fingerprint, strategy: S) -> Self {
        Self {
            collection,
            store,
            fp,
            spare_a: SubStorage::default(),
            spare_b: SubStorage::default(),
            strategy,
            plan: None,
            excluded: FxHashSet::default(),
            history: Vec::new(),
            questions: 0,
            unknowns: 0,
            recover: None,
            last_detail: None,
            explain: false,
            last_provenance: None,
        }
    }

    /// The collection handle this engine snapshots.
    pub fn collection(&self) -> &C {
        &self.collection
    }

    /// Sorted ids of the candidate sets still consistent with every answer.
    #[inline]
    pub fn candidate_ids(&self) -> &[SetId] {
        &self.store.ids
    }

    /// Number of candidate sets remaining.
    #[inline]
    pub fn candidate_count(&self) -> usize {
        self.store.ids.len()
    }

    /// A fresh view over the current candidates (clones the id list; meant
    /// for inspection and reporting, not the stepping hot path).
    pub fn candidates(&self) -> SubCollection<'_> {
        SubCollection::from_parts_unchecked(
            self.collection.deref(),
            self.store.ids.clone(),
            self.fp,
        )
    }

    /// True when at most one candidate remains.
    pub fn is_resolved(&self) -> bool {
        self.store.ids.len() <= 1
    }

    /// Questions answered yes/no so far.
    pub fn questions_asked(&self) -> usize {
        self.questions
    }

    /// "Don't know" replies received so far.
    pub fn unknowns(&self) -> usize {
        self.unknowns
    }

    /// Full question/answer history, including Unknowns. Backtracking
    /// rewrites the flipped entry in place, so the history always reads as
    /// the *corrected* transcript the current candidates are consistent
    /// with.
    pub fn history(&self) -> &[(EntityId, Answer)] {
        &self.history
    }

    /// Enables (or disables) §6 backtracking recovery. The candidate state
    /// at the moment of enablement becomes the replay base, so turn it on
    /// before the first answer for whole-session coverage. Disabling drops
    /// the bookkeeping (and the [`Self::backtracks`] count).
    pub fn set_backtracking(&mut self, on: bool) {
        if on {
            if self.recover.is_none() {
                self.recover = Some(RecoverState {
                    base: self.store.ids.clone(),
                    offset: self.history.len(),
                    confident: Vec::new(),
                    original: Vec::new(),
                    used: FxHashSet::default(),
                    rejected: FxHashSet::default(),
                    backtracks: 0,
                });
            }
        } else {
            self.recover = None;
        }
    }

    /// True when §6 backtracking recovery is enabled.
    pub fn backtracking(&self) -> bool {
        self.recover.is_some()
    }

    /// Successful backtracking recoveries so far (0 when disabled).
    pub fn backtracks(&self) -> usize {
        self.recover.as_ref().map_or(0, |r| r.backtracks)
    }

    /// Table-4 prune counters `(informative, evaluated)` recorded by the
    /// most recent [`Self::next_question`] that ran the strategy with
    /// detail tracking (the plan-cache miss path); `None` when the last
    /// question came from the cache, from the excluded path, or no
    /// selection has run yet. Session traces surface this per question.
    pub fn last_selection_stats(&self) -> Option<(u32, u32)> {
        self.last_detail
    }

    /// Arms (or disarms) per-question [`Provenance`] capture. Disarmed —
    /// the default — [`Self::next_question`] is byte-for-byte the code
    /// path it always was; armed, each selection additionally records a
    /// provenance record readable via [`Self::provenance`]. Arming never
    /// changes selections, budgets, or plan-cache contents (pinned by the
    /// explain-purity property suite).
    pub fn set_explain(&mut self, on: bool) {
        self.explain = on;
        if !on {
            self.last_provenance = None;
        }
    }

    /// True when provenance capture is armed.
    pub fn explain_enabled(&self) -> bool {
        self.explain
    }

    /// The provenance record of the most recent [`Self::next_question`],
    /// when explain mode was armed for it. Repeated reads return the same
    /// record; answering does not clear it (the record explains the last
    /// *question*, which an answer resolves).
    pub fn provenance(&self) -> Option<&Provenance> {
        self.last_provenance.as_ref()
    }

    /// Access to the strategy (e.g. to read prune statistics).
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Mutable access to the strategy.
    pub fn strategy_mut(&mut self) -> &mut S {
        &mut self.strategy
    }

    /// Attaches (or detaches, with `None`) a shared [`SelectionCache`].
    /// The cache must have been populated by the *same* deterministic
    /// strategy configuration over the *same* collection; see the trait
    /// docs for the losslessness contract.
    pub fn set_selection_cache(&mut self, cache: Option<Arc<dyn SelectionCache>>) {
        self.plan = cache;
    }

    /// Builder form of [`Self::set_selection_cache`].
    pub fn with_selection_cache(mut self, cache: Arc<dyn SelectionCache>) -> Self {
        self.plan = Some(cache);
        self
    }

    /// Selects the next question (Algorithm 2, line 6); `None` when the
    /// session is resolved or every informative entity has been excluded.
    ///
    /// Pure selection: asking is *not* committing. The engine stays
    /// unchanged until [`Self::answer`] is called, and with a deterministic
    /// strategy repeated calls return the same entity — the property the
    /// wire protocol's idempotent `ask` relies on.
    pub fn next_question(&mut self) -> Option<EntityId> {
        // Chaos hook: the canonical "strategy blew up mid-request" site the
        // service edge's panic containment is tested against (free when no
        // fault plan is armed).
        setdisc_util::faults::trip("engine.select");
        if self.is_resolved() {
            return None;
        }
        // Telemetry twin of the fault hook above: same site name, one
        // relaxed load when `SETDISC_OBS` is disarmed.
        let _span = obs::span(obs::Site::EngineSelect);
        let store = mem::take(&mut self.store);
        let view = SubCollection::from_storage_unchecked(self.collection.deref(), store, self.fp);
        // The plan cache only speaks for exclusion-free selections (see
        // [`SelectionCache`]): consult it before running the strategy,
        // populate it after a miss. With exclusions (the "don't know"
        // path) selection always runs the strategy directly.
        let explain = self.explain;
        let disposition;
        let mut explain_detail: Option<SelectionDetail> = None;
        let pick = match &self.plan {
            Some(cache) if self.excluded.is_empty() => {
                // One probe either way: `lookup_with_origin` is contractually
                // identical to `lookup` in every cache-state effect, so the
                // armed path stays bit-identical to the disarmed one.
                let looked = if explain {
                    cache.lookup_with_origin(&view)
                } else {
                    cache.lookup(&view).map(|e| (e, PlanOrigin::Unknown))
                };
                match looked {
                    Some((entity, origin)) => {
                        obs::hit(obs::Site::PlanHit);
                        self.last_detail = None;
                        disposition = PlanDisposition::Hit(origin);
                        Some(entity)
                    }
                    None => {
                        obs::hit(obs::Site::PlanMiss);
                        let detail = self.strategy.select_with_detail(&view, &self.excluded);
                        if let Some(detail) = &detail {
                            cache.record(&view, detail);
                            obs::hit(obs::Site::PlanRecord);
                            obs::record(
                                obs::Site::SelectInformative,
                                u64::from(detail.informative),
                            );
                            obs::record(obs::Site::SelectEvaluated, u64::from(detail.evaluated));
                        }
                        self.last_detail = detail.as_ref().map(|d| (d.informative, d.evaluated));
                        disposition = PlanDisposition::Miss;
                        explain_detail = detail;
                        detail.map(|d| d.entity)
                    }
                }
            }
            _ => {
                self.last_detail = None;
                disposition = if self.plan.is_some() {
                    PlanDisposition::Bypassed
                } else {
                    PlanDisposition::Unattached
                };
                if explain {
                    // `select_with_detail` selects identically to
                    // `select_excluding` (trait contract); the detail feeds
                    // the trace reconstruction. Nothing is recorded to the
                    // cache on this path either way.
                    let detail = self.strategy.select_with_detail(&view, &self.excluded);
                    explain_detail = detail;
                    detail.map(|d| d.entity)
                } else {
                    self.strategy.select_excluding(&view, &self.excluded)
                }
            }
        };
        if explain {
            self.last_provenance = None;
            if let Some(entity) = pick {
                let trace = explain_detail
                    .as_ref()
                    .map(|d| self.strategy.explain_last(&view, &self.excluded, d));
                // Predicted cost drivers for the fingerprint counting pass
                // (dispatch factor 2), next to one measured read-only pass
                // of whichever kernel the dispatcher picks — into a local
                // buffer, and the thread's counting buffer is left clean,
                // so selection state is untouched.
                let dispatch = view.dispatch_preview(2);
                let started = std::time::Instant::now();
                let mut counted = Vec::new();
                view.count_entities_with_fp(&mut counted);
                let measured_count_ns =
                    started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                self.last_provenance = Some(Provenance {
                    question: self.questions + 1,
                    entity,
                    candidates: view.len(),
                    view_fp: view.fingerprint(),
                    view_len: view.len() as u32,
                    plan: disposition,
                    bound: explain_detail.map_or(0, |d| d.bound),
                    trace,
                    dispatch,
                    measured_count_ns,
                });
            }
        }
        self.store = view.into_storage();
        pick
    }

    /// Applies an answer for `entity` (Algorithm 2, lines 8–12), narrowing
    /// the candidates on Yes/No and excluding the entity on Unknown.
    ///
    /// The caller may apply answers about arbitrary entities (not only the
    /// last selected one) — that is the constraint-assertion API the §6
    /// extensions and the service's out-of-order clients use. Inconsistent
    /// assertions empty the candidate list rather than panicking (unless
    /// backtracking is on — see [`Self::answer_full`]).
    pub fn answer(&mut self, entity: EntityId, answer: Answer) {
        self.answer_full(entity, answer, true);
    }

    /// [`Self::answer`] with an explicit confidence flag (§6 erroneous
    /// answers). `confident: false` marks the answer as the user's best
    /// guess; it narrows the candidates exactly like a confident one, but
    /// when a later contradiction triggers backtracking, unconfident
    /// answers are the first the recovery tries to flip (most recent
    /// first), before reconsidering confident ones. Without backtracking
    /// enabled the flag is recorded nowhere and changes nothing.
    pub fn answer_full(&mut self, entity: EntityId, answer: Answer, confident: bool) {
        // Chaos hook: a panic here fires while the engine mutates candidate
        // state, exercising the service's quarantine-don't-reuse guarantee.
        setdisc_util::faults::trip("engine.answer");
        let _span = obs::span(obs::Site::EngineAnswer);
        self.history.push((entity, answer));
        if let Some(rs) = self.recover.as_mut() {
            rs.confident.push(confident);
            rs.original.push((entity, answer));
        }
        match answer {
            Answer::Yes | Answer::No => {
                self.questions += 1;
                let store = mem::take(&mut self.store);
                let yes_buf = mem::take(&mut self.spare_a);
                let no_buf = mem::take(&mut self.spare_b);
                let view =
                    SubCollection::from_storage_unchecked(self.collection.deref(), store, self.fp);
                let (yes, no) = view.partition_into(entity, yes_buf, no_buf);
                let (keep, discard) = if answer == Answer::Yes {
                    (yes, no)
                } else {
                    (no, yes)
                };
                self.fp = keep.fingerprint();
                // Materialize the surviving ids eagerly: the engine's
                // public accessors ([`Self::candidate_ids`],
                // [`Self::outcome`]) borrow them, and the next
                // [`Self::next_question`] resumes through the
                // materialized-storage fast path.
                let _ = keep.ids();
                self.store = keep.into_storage();
                self.spare_a = discard.into_storage();
                self.spare_b = view.into_storage();
                if self.store.ids.is_empty() && self.recover.is_some() {
                    self.try_recover();
                }
            }
            Answer::Unknown => {
                self.unknowns += 1;
                self.excluded.insert(entity);
            }
        }
    }

    /// §6 backtracking (the paper's Algorithm-2 recovery): the answers
    /// contradict every set, so at least one of them is wrong. Hypothesize
    /// a set of up to [`MAX_FLIPS`] flipped answers — always relative to
    /// the answers *as originally given* — and replay the corrected
    /// transcript from the base view. Hypotheses are tried cheapest-first:
    /// single flips, unconfident answers most-recent-first then confident
    /// ones (the §6 heuristic that the least trusted, latest answer is the
    /// most likely culprit), then pairs in the same priority. The first
    /// hypothesis whose replay keeps a candidate alive at every step — and
    /// that no earlier recovery already committed — is committed: history
    /// rewritten to the corrected transcript, candidates restored,
    /// [`Engine::backtracks`] incremented. If none survives, the candidate
    /// set stays empty and the caller sees the ordinary contradiction
    /// outcome.
    fn try_recover(&mut self) {
        let Some(mut rs) = self.recover.take() else {
            return;
        };
        let offset = rs.offset;
        // Priority order over flippable indices (into `history`).
        let flippable = |i: usize, want_confident: bool| {
            matches!(rs.original[i - offset].1, Answer::Yes | Answer::No)
                && rs.confident[i - offset] == want_confident
        };
        let order: Vec<usize> = (offset..self.history.len())
            .rev()
            .filter(|&i| flippable(i, false))
            .chain(
                (offset..self.history.len())
                    .rev()
                    .filter(|&i| flippable(i, true)),
            )
            .collect();
        // Hypotheses: singles in priority order, then pairs (both members
        // drawn in priority order). MAX_FLIPS caps the depth.
        let mut hypotheses: Vec<Vec<usize>> = order.iter().map(|&i| vec![i]).collect();
        if MAX_FLIPS >= 2 {
            for a in 0..order.len() {
                for b in (a + 1)..order.len() {
                    hypotheses.push(vec![order[a], order[b]]);
                }
            }
        }
        // Rejected sets are filtered up front: partitioning preserves
        // subsets, so dropping them from the base equals dropping them
        // from every step.
        let base: Vec<SetId> = rs
            .base
            .iter()
            .copied()
            .filter(|s| !rs.rejected.contains(s))
            .collect();
        for flips in hypotheses {
            let mut key = flips.clone();
            key.sort_unstable();
            if rs.used.contains(&key) {
                continue;
            }
            let mut view = SubCollection::from_ids(self.collection.deref(), base.clone());
            let mut alive = true;
            let mut corrected: Vec<(EntityId, Answer)> = Vec::with_capacity(rs.original.len());
            for i in offset..self.history.len() {
                let (e, mut a) = rs.original[i - offset];
                if flips.contains(&i) {
                    a = match a {
                        Answer::Yes => Answer::No,
                        Answer::No => Answer::Yes,
                        Answer::Unknown => unreachable!("only Yes/No entries are flippable"),
                    };
                }
                corrected.push((e, a));
                let keep = match a {
                    Answer::Unknown => continue, // exclusions don't narrow
                    Answer::Yes => view.partition(e).0,
                    Answer::No => view.partition(e).1,
                };
                if keep.is_empty() {
                    alive = false;
                    break;
                }
                view = keep;
            }
            if alive {
                self.history.truncate(offset);
                self.history.extend(corrected);
                rs.used.insert(key);
                rs.backtracks += 1;
                self.fp = view.fingerprint();
                let _ = view.ids();
                self.store = view.into_storage();
                break;
            }
        }
        self.recover = Some(rs);
    }

    /// The §6 confirmation verb: the user denies that `set` is the target.
    /// The set is removed from the candidates; if that empties them and
    /// backtracking is enabled, recovery runs immediately — and rejected
    /// sets stay filtered from every future replay, so a recovery can
    /// never resurrect a refuted resolution. This is what makes noisy
    /// sessions *converge*: a lie that leads to a consistent-but-wrong
    /// resolution produces no contradiction on its own; the denial at
    /// confirmation is the signal that re-opens the search. No-op when
    /// `set` is not a candidate.
    pub fn reject(&mut self, set: SetId) {
        if !self.store.ids.contains(&set) {
            if let Some(rs) = self.recover.as_mut() {
                rs.rejected.insert(set);
            }
            return;
        }
        let ids: Vec<SetId> = self
            .store
            .ids
            .iter()
            .copied()
            .filter(|&s| s != set)
            .collect();
        let view = SubCollection::from_ids(self.collection.deref(), ids);
        self.fp = view.fingerprint();
        let _ = view.ids();
        self.store = view.into_storage();
        if let Some(rs) = self.recover.as_mut() {
            rs.rejected.insert(set);
        }
        if self.store.ids.is_empty() && self.recover.is_some() {
            self.try_recover();
        }
    }

    /// Selects a ranked multiple-choice question set of up to `b` entities
    /// (§7): the strategy's pick, then its pick with the former excluded,
    /// and so on. Like [`Self::next_question`] this is pure selection —
    /// the temporary exclusions are restored before returning, repeated
    /// calls return the same batch, and a batch of 1 is exactly
    /// [`Self::next_question`]. Shorter than `b` (possibly empty) when the
    /// view runs out of informative entities.
    pub fn next_questions(&mut self, b: usize) -> Vec<EntityId> {
        let mut batch = Vec::new();
        let mut inserted = Vec::new();
        while batch.len() < b {
            let Some(e) = self.next_question() else {
                break;
            };
            batch.push(e);
            if batch.len() < b && self.excluded.insert(e) {
                inserted.push(e);
            }
        }
        for e in inserted {
            self.excluded.remove(&e);
        }
        batch
    }

    /// Applies a reply to a multiple-choice question set under §7's
    /// first-applicable-option semantics: choosing option `i` asserts No
    /// for every earlier option and Yes for `entities[i]`; `i ==
    /// entities.len()` is "none of these" (No for every option). Every
    /// implied assertion flows through [`Self::answer_full`] with the given
    /// confidence flag, so transcripts mixing batches and single questions
    /// — and backtracking over either — need no special cases. Panics when
    /// `choice > entities.len()`.
    pub fn answer_choice(&mut self, entities: &[EntityId], choice: usize, confident: bool) {
        assert!(
            choice <= entities.len(),
            "choice {choice} out of range for {} options",
            entities.len()
        );
        for (i, &e) in entities.iter().enumerate() {
            if i < choice {
                self.answer_full(e, Answer::No, confident);
            } else {
                self.answer_full(e, Answer::Yes, confident);
                break;
            }
        }
    }

    /// Snapshot of the current state as an [`Outcome`].
    pub fn outcome(&self) -> Outcome {
        Outcome {
            candidates: self.store.ids.clone(),
            questions: self.questions,
            unknowns: self.unknowns,
        }
    }

    /// Driver: runs the loop to resolution with no question budget.
    pub fn run(&mut self, oracle: &mut dyn Oracle) -> Result<Outcome> {
        self.run_bounded(oracle, usize::MAX)
    }

    /// Driver: the §6 noisy-session loop — run to resolution, present the
    /// resolved set for confirmation, and on a denial [`Self::reject`] it
    /// and continue (with backtracking enabled, the denial triggers
    /// recovery). Returns once a resolution is confirmed, the candidates
    /// are exhausted ([`SetDiscError::ContradictoryAnswers`]), the session
    /// sticks unresolved, or `max_questions` yes/no answers have been
    /// spent. Like [`Self::run_bounded`], written purely against the
    /// public verbs.
    pub fn run_confirming(
        &mut self,
        oracle: &mut dyn ConfirmingOracle,
        max_questions: usize,
    ) -> Result<Outcome> {
        loop {
            while !self.is_resolved() && self.questions < max_questions {
                let Some(entity) = self.next_question() else {
                    return Ok(self.outcome()); // survivors — can't narrow
                };
                let answer = oracle.answer(entity);
                self.answer(entity, answer);
            }
            match self.candidate_ids() {
                [] => {
                    return Err(SetDiscError::ContradictoryAnswers {
                        after_questions: self.questions,
                    })
                }
                &[only] => {
                    if oracle.confirm(only) {
                        return Ok(self.outcome());
                    }
                    self.reject(only);
                    if self.candidate_ids().is_empty() {
                        return Err(SetDiscError::ContradictoryAnswers {
                            after_questions: self.questions,
                        });
                    }
                }
                _ => return Ok(self.outcome()), // question budget exhausted
            }
        }
    }

    /// Driver: runs until resolved, the budget is exhausted, or no further
    /// question can be asked (the halt condition Γ). This is the only loop
    /// in the crate that touches an [`Oracle`]; it is itself written against
    /// the public sans-IO verbs.
    pub fn run_bounded(
        &mut self,
        oracle: &mut dyn Oracle,
        max_questions: usize,
    ) -> Result<Outcome> {
        while !self.is_resolved() && self.questions < max_questions {
            let Some(entity) = self.next_question() else {
                break; // everything informative excluded — return survivors
            };
            let answer = oracle.answer(entity);
            self.answer(entity, answer);
            if self.store.ids.is_empty() {
                return Err(SetDiscError::ContradictoryAnswers {
                    after_questions: self.questions,
                });
            }
        }
        Ok(self.outcome())
    }
}

impl<'c, S: SelectionStrategy> Engine<&'c Collection, S> {
    /// Starts a borrowed-collection engine over an explicit candidate view
    /// (the classic [`crate::discovery::Session::over`] entry point).
    pub fn over(candidates: SubCollection<'c>, strategy: S) -> Self {
        let collection = candidates.collection();
        let fp = candidates.fingerprint();
        // The view may arrive lazily materialized (e.g. straight out of a
        // partition); the engine's storage invariant requires the id
        // vector, so force the decode before taking the buffers.
        let _ = candidates.ids();
        let store = candidates.into_storage();
        Self::from_parts(collection, store, fp, strategy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AvgDepth;
    use crate::discovery::SimulatedOracle;
    use crate::lookahead::KLp;
    use crate::strategy::MostEven;

    fn figure1() -> Collection {
        Collection::from_raw_sets(vec![
            vec![0, 1, 2, 3],
            vec![0, 3, 4],
            vec![0, 1, 2, 3, 5],
            vec![0, 1, 2, 6, 7],
            vec![0, 1, 7, 8],
            vec![0, 1, 9, 10],
            vec![0, 1, 6],
        ])
        .unwrap()
    }

    #[test]
    fn owned_sessions_are_static_send_and_resumable_across_threads() {
        fn assert_send<T: Send + 'static>(_: &T) {}
        let collection = Arc::new(figure1());
        let mut engine: OwnedSession<KLp<AvgDepth>> =
            Engine::new(Arc::clone(&collection), &[], KLp::<AvgDepth>::new(2));
        assert_send(&engine);
        // Step once on this thread, finish on another — the table-resume
        // pattern of the service layer.
        let e = engine.next_question().unwrap();
        engine.answer(e, Answer::No);
        let handle = std::thread::spawn(move || {
            let target = engine.collection().set(engine.candidate_ids()[0]).clone();
            let outcome = engine.run(&mut SimulatedOracle::new(&target)).unwrap();
            outcome.discovered().unwrap()
        });
        let _ = handle.join().unwrap();
    }

    #[test]
    fn boxed_send_strategies_compose() {
        // The exact type the service's session table stores.
        let collection = Arc::new(figure1());
        let strategy: Box<dyn SelectionStrategy + Send> = Box::new(KLp::<AvgDepth>::new(2));
        let mut engine: OwnedSession<Box<dyn SelectionStrategy + Send>> =
            Engine::new(collection, &[], strategy);
        let target = engine.collection().set(crate::entity::SetId(4)).clone();
        let outcome = engine.run(&mut SimulatedOracle::new(&target)).unwrap();
        assert_eq!(outcome.discovered(), Some(crate::entity::SetId(4)));
    }

    #[test]
    fn borrowed_and_owned_engines_ask_identical_sequences() {
        let c = figure1();
        let arc = Arc::new(figure1());
        for id in 0..c.len() as u32 {
            let id = crate::entity::SetId(id);
            let target = c.set(id).clone();
            let mut borrowed = Engine::new(&c, &[], KLp::<AvgDepth>::new(2));
            let mut owned = Engine::new(Arc::clone(&arc), &[], KLp::<AvgDepth>::new(2));
            loop {
                let qb = borrowed.next_question();
                let qo = owned.next_question();
                assert_eq!(qb, qo, "question divergence at target {id}");
                let Some(e) = qb else { break };
                let a = if target.contains(e) {
                    Answer::Yes
                } else {
                    Answer::No
                };
                borrowed.answer(e, a);
                owned.answer(e, a);
            }
            assert_eq!(borrowed.outcome(), owned.outcome());
            assert_eq!(borrowed.outcome().discovered(), Some(id));
        }
    }

    #[test]
    fn next_question_is_pure_and_repeatable() {
        let c = figure1();
        let mut engine = Engine::new(&c, &[], MostEven::new());
        let q1 = engine.next_question().unwrap();
        let q2 = engine.next_question().unwrap();
        assert_eq!(q1, q2, "asking must not mutate the candidate state");
        assert_eq!(engine.questions_asked(), 0);
        assert!(engine.history().is_empty());
    }

    #[test]
    fn over_accepts_lazily_materialized_views() {
        // A partition child arrives with its id vector unmaterialized; the
        // engine must still see every candidate (regression: `over` once
        // stored the empty lazy vector, reporting an instantly resolved
        // session).
        let c = figure1();
        let (yes, _) = c.full_view().partition(crate::entity::EntityId(3));
        assert_eq!(yes.len(), 3);
        let mut engine = Engine::over(yes, MostEven::new());
        assert_eq!(engine.candidate_count(), 3);
        assert!(!engine.is_resolved());
        let target = c.set(crate::entity::SetId(1)).clone();
        let outcome = engine.run(&mut SimulatedOracle::new(&target)).unwrap();
        assert_eq!(outcome.discovered(), Some(crate::entity::SetId(1)));
    }

    #[test]
    fn with_candidates_sorts_and_dedups() {
        let c = figure1();
        use crate::entity::SetId;
        let engine =
            Engine::with_candidates(&c, vec![SetId(4), SetId(1), SetId(4)], MostEven::new());
        assert_eq!(engine.candidate_ids(), &[SetId(1), SetId(4)]);
        assert_eq!(engine.candidates().fingerprint(), {
            SubCollection::from_ids(&c, vec![SetId(1), SetId(4)]).fingerprint()
        });
    }

    /// A hash-map [`SelectionCache`] for hook tests (the real sharded,
    /// persistable implementation lives in `setdisc-plan`).
    #[derive(Default)]
    struct TestCache {
        map: std::sync::Mutex<std::collections::HashMap<(u128, usize), EntityId>>,
        hits: std::sync::atomic::AtomicUsize,
        records: std::sync::atomic::AtomicUsize,
    }

    impl SelectionCache for TestCache {
        fn lookup(&self, view: &SubCollection<'_>) -> Option<EntityId> {
            let hit = self
                .map
                .lock()
                .unwrap()
                .get(&(view.fingerprint().as_u128(), view.len()))
                .copied();
            if hit.is_some() {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            hit
        }

        fn record(&self, view: &SubCollection<'_>, detail: &crate::strategy::SelectionDetail) {
            self.records
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.map
                .lock()
                .unwrap()
                .insert((view.fingerprint().as_u128(), view.len()), detail.entity);
        }
    }

    #[test]
    fn selection_cache_serves_identical_sequences_and_skips_exclusions() {
        let c = figure1();
        let cache = Arc::new(TestCache::default());
        let run = |cache: Option<Arc<TestCache>>, unknown_at: Option<usize>| {
            let mut engine = Engine::new(&c, &[], KLp::<AvgDepth>::new(2));
            if let Some(cache) = cache {
                engine.set_selection_cache(Some(cache));
            }
            let target = c.set(crate::entity::SetId(4)).clone();
            let mut asked = Vec::new();
            while let Some(e) = engine.next_question() {
                let answer = if unknown_at == Some(asked.len()) {
                    Answer::Unknown
                } else if target.contains(e) {
                    Answer::Yes
                } else {
                    Answer::No
                };
                asked.push(e);
                engine.answer(e, answer);
            }
            (asked, engine.outcome())
        };
        // Cold pass records, warm pass hits; both match the cache-off run.
        let plain = run(None, None);
        let cold = run(Some(Arc::clone(&cache)), None);
        assert!(cache.records.load(std::sync::atomic::Ordering::Relaxed) > 0);
        assert_eq!(cache.hits.load(std::sync::atomic::Ordering::Relaxed), 0);
        let warm = run(Some(Arc::clone(&cache)), None);
        assert_eq!(plain, cold);
        assert_eq!(plain, warm);
        assert!(cache.hits.load(std::sync::atomic::Ordering::Relaxed) > 0);
        // An Unknown answer excludes an entity: every later selection must
        // bypass the cache (neither lookups nor records).
        let hits_before = cache.hits.load(std::sync::atomic::Ordering::Relaxed);
        let records_before = cache.records.load(std::sync::atomic::Ordering::Relaxed);
        let with_unknown = run(Some(Arc::clone(&cache)), Some(0));
        assert!(
            with_unknown.0.len() > 1,
            "session continued past the Unknown"
        );
        assert_eq!(
            cache.hits.load(std::sync::atomic::Ordering::Relaxed),
            hits_before + 1,
            "only the pre-Unknown root selection may hit"
        );
        assert_eq!(
            cache.records.load(std::sync::atomic::Ordering::Relaxed),
            records_before,
            "excluded-path selections are never recorded"
        );
        // And the unknown run matches a cache-off run of the same plan.
        assert_eq!(with_unknown, run(None, Some(0)));
    }

    /// Drives a backtracking session against a lying oracle with the §6
    /// confirm-and-reject loop: answer questions (lying at `lie_at`
    /// question indices), and whenever the session resolves, confirm —
    /// rejecting wrong resolutions re-opens the search. Returns the
    /// discovered set (if converged) and the total interactions.
    fn drive_noisy(
        c: &Collection,
        target_id: crate::entity::SetId,
        lie_at: &[usize],
        strategy: KLp<AvgDepth>,
    ) -> (Option<crate::entity::SetId>, usize) {
        let target = c.set(target_id).clone();
        let mut engine = Engine::new(c, &[], strategy);
        engine.set_backtracking(true);
        let mut asked = 0usize;
        let mut interactions = 0usize;
        loop {
            while let Some(e) = engine.next_question() {
                let truth = target.contains(e);
                let lie = lie_at.contains(&asked);
                asked += 1;
                interactions += 1;
                let a = if truth != lie {
                    Answer::Yes
                } else {
                    Answer::No
                };
                engine.answer(e, a);
                assert!(interactions < 200, "runaway session");
            }
            match engine.candidate_ids() {
                [] => return (None, interactions),
                [only] => {
                    let only = *only;
                    interactions += 1; // the confirmation question
                    if only == target_id {
                        return (Some(only), interactions);
                    }
                    engine.reject(only);
                }
                _ => return (None, interactions), // stuck unresolved
            }
        }
    }

    #[test]
    fn backtracking_recovers_a_single_erroneous_answer() {
        // Lie on the first question, answer truthfully afterwards: without
        // recovery the session dead-ends or resolves wrong; with recovery
        // plus confirmation it always converges to the true target.
        let c = figure1();
        for target_id in 0..c.len() as u32 {
            let target_id = crate::entity::SetId(target_id);
            let (got, _) = drive_noisy(&c, target_id, &[0], KLp::<AvgDepth>::new(2));
            assert_eq!(got, Some(target_id), "target {target_id:?} not recovered");
        }
    }

    #[test]
    fn backtracking_recovers_errors_at_any_depth() {
        let c = figure1();
        for target_id in 0..c.len() as u32 {
            let target_id = crate::entity::SetId(target_id);
            for lie_pos in 0..3usize {
                let (got, n) = drive_noisy(&c, target_id, &[lie_pos], KLp::<AvgDepth>::new(2));
                assert_eq!(got, Some(target_id), "target {target_id:?} lie {lie_pos}");
                // §6 cost envelope: one error costs at most one extra run
                // of the error-free session plus the confirmations.
                assert!(n <= 2 * 4 + 4, "{n} interactions for lie {lie_pos}");
            }
        }
    }

    #[test]
    fn contradiction_without_backtracking_still_closes() {
        // Regression for the bug path the service maps to "session closed":
        // default sessions keep the empty-candidate contradiction behavior.
        let c = figure1();
        let mut engine = Engine::new(&c, &[], MostEven::new());
        let e = engine.next_question().unwrap();
        engine.answer(e, Answer::Yes);
        // Assert the exact opposite of the first answer — no set survives.
        engine.answer(e, Answer::No);
        assert_eq!(engine.candidate_count(), 0);
        assert_eq!(engine.backtracks(), 0);
    }

    #[test]
    fn unconfident_answers_are_flipped_first() {
        // Entity e=4 lives only in S2 (id 1); entity f=5 only in S3 (id 2).
        // Yes-on-e (unconfident) then Yes-on-f (confident) contradicts:
        // flipping *either* answer alone yields a consistent replay, so the
        // recovery's choice reveals its ordering. Unconfident-first must
        // flip the older e answer and resolve to S3 — plain recency would
        // flip f and resolve to S2.
        let c = figure1();
        let mut engine = Engine::new(&c, &[], MostEven::new());
        engine.set_backtracking(true);
        engine.answer_full(crate::entity::EntityId(4), Answer::Yes, false);
        assert_eq!(engine.candidate_ids(), &[crate::entity::SetId(1)]);
        engine.answer_full(crate::entity::EntityId(5), Answer::Yes, true);
        assert_eq!(engine.backtracks(), 1);
        assert_eq!(engine.candidate_ids(), &[crate::entity::SetId(2)]);
        assert_eq!(
            engine.history(),
            &[
                (crate::entity::EntityId(4), Answer::No),
                (crate::entity::EntityId(5), Answer::Yes),
            ]
        );
    }

    #[test]
    fn rejection_is_remembered_across_recoveries() {
        // Reject S2, then contradict: the recovery replay must not
        // resurrect the refuted set even when a flip would make it
        // consistent again.
        let c = figure1();
        let mut engine = Engine::new(&c, &[], MostEven::new());
        engine.set_backtracking(true);
        engine.answer_full(crate::entity::EntityId(4), Answer::Yes, false);
        assert_eq!(engine.candidate_ids(), &[crate::entity::SetId(1)]);
        engine.reject(crate::entity::SetId(1));
        // Recovery flips the unconfident Yes; S2 stays filtered out.
        assert!(engine.backtracks() >= 1);
        assert!(!engine.candidate_ids().contains(&crate::entity::SetId(1)));
        assert!(engine.candidate_count() > 0);
    }

    #[test]
    fn backtracking_recovers_two_errors() {
        // Two lies at different depths: within the MAX_FLIPS = 2 §6
        // envelope, the confirm-and-reject loop still converges.
        let c = figure1();
        for target_id in 0..c.len() as u32 {
            let target_id = crate::entity::SetId(target_id);
            let (got, _) = drive_noisy(&c, target_id, &[0, 2], KLp::<AvgDepth>::new(2));
            assert_eq!(got, Some(target_id), "target {target_id:?}, two lies");
        }
    }

    #[test]
    fn next_questions_is_pure_and_ranked() {
        let c = figure1();
        let mut engine = Engine::new(&c, &[], KLp::<AvgDepth>::new(2));
        let single = engine.next_question().unwrap();
        let batch = engine.next_questions(3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], single, "rank 1 of the batch is the single pick");
        let all_distinct: FxHashSet<_> = batch.iter().collect();
        assert_eq!(all_distinct.len(), 3);
        // Pure: repeated call returns the same batch, nothing committed.
        assert_eq!(engine.next_questions(3), batch);
        assert_eq!(engine.questions_asked(), 0);
        assert!(engine.history().is_empty());
        // Each later rank is what the strategy picks with earlier ranks
        // excluded — verify rank 2 directly.
        let mut excl = FxHashSet::default();
        excl.insert(batch[0]);
        let view = engine.candidates();
        let mut fresh = KLp::<AvgDepth>::new(2);
        assert_eq!(fresh.select_excluding(&view, &excl), Some(batch[1]));
    }

    #[test]
    fn answer_choice_applies_first_applicable_option_semantics() {
        let c = figure1();
        let target = c.set(crate::entity::SetId(5)).clone();
        // Batch loop: choose the first option in the target, or "none".
        let mut mc = Engine::new(&c, &[], KLp::<AvgDepth>::new(2));
        let mut interactions = 0usize;
        while !mc.is_resolved() {
            let batch = mc.next_questions(3);
            if batch.is_empty() {
                break;
            }
            let choice = batch
                .iter()
                .position(|&e| target.contains(e))
                .unwrap_or(batch.len());
            mc.answer_choice(&batch, choice, true);
            interactions += 1;
        }
        assert_eq!(mc.outcome().discovered(), Some(crate::entity::SetId(5)));
        // A replayed engine fed the identical implied assertions matches
        // the multiple-choice transcript exactly.
        let mut replay = Engine::new(&c, &[], KLp::<AvgDepth>::new(2));
        for &(e, a) in mc.history() {
            replay.answer(e, a);
        }
        assert_eq!(replay.outcome(), mc.outcome());
        assert!(interactions <= mc.questions_asked());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn answer_choice_rejects_out_of_range() {
        let c = figure1();
        let mut engine = Engine::new(&c, &[], MostEven::new());
        let batch = engine.next_questions(2);
        engine.answer_choice(&batch, 3, true);
    }

    #[test]
    fn partition_buffers_are_recycled() {
        // After the first two answers the three id buffers rotate through
        // the engine; subsequent answers must not grow capacity beyond the
        // initial candidate count.
        let c = figure1();
        let mut engine = Engine::new(&c, &[], MostEven::new());
        let target = c.set(crate::entity::SetId(5)).clone();
        while let Some(e) = engine.next_question() {
            let a = if target.contains(e) {
                Answer::Yes
            } else {
                Answer::No
            };
            engine.answer(e, a);
        }
        assert_eq!(engine.outcome().discovered(), Some(crate::entity::SetId(5)));
        assert!(engine.spare_a.ids.capacity() <= 7);
        assert!(engine.spare_b.ids.capacity() <= 7);
    }
}
