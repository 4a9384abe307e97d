//! One layer further down: timing wrappers around the strategy and the
//! plan cache, and replays of a recorded session through a direct `Engine`
//! and through `SubCollection::partition`.

use crate::check::Transcript;
use crate::client::Job;
use crate::speed::append_scaled;
use crate::trace;
use setdisc_core::engine::SelectionCache;
use setdisc_core::prelude::*;
use setdisc_core::strategy::SelectionDetail;
use setdisc_plan::{PlanCache, ScopedPlanCache, StrategyKey};
use setdisc_util::FxHashSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Times every selection the wrapped strategy makes.
pub struct TimedStrategy<S> {
    pub inner: S,
    pub select_ns: Vec<u64>,
    pub tag: u64,
}

impl<S> TimedStrategy<S> {
    pub fn new(inner: S, tag: u64) -> Self {
        TimedStrategy {
            inner,
            select_ns: Vec::new(),
            tag,
        }
    }
}

impl<S: SelectionStrategy> SelectionStrategy for TimedStrategy<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        let _s = trace::span("lookahead.select", self.tag);
        let t = Instant::now();
        let pick = self.inner.select_excluding(view, excluded);
        self.select_ns.push(ns_since(t));
        pick
    }

    fn select_with_detail(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<SelectionDetail> {
        let _s = trace::span("lookahead.select", self.tag);
        let t = Instant::now();
        let detail = self.inner.select_with_detail(view, excluded);
        self.select_ns.push(ns_since(t));
        detail
    }
}

#[derive(Default)]
pub struct CacheTimes {
    pub lookup_ns: Vec<u64>,
    pub record_ns: Vec<u64>,
}

/// Times every lookup and record on the wrapped plan cache.
pub struct TimedCache {
    inner: ScopedPlanCache,
    times: Mutex<CacheTimes>,
    tag: u64,
}

impl SelectionCache for TimedCache {
    fn lookup(&self, view: &SubCollection<'_>) -> Option<EntityId> {
        let _s = trace::span("plan.lookup", self.tag);
        let t = Instant::now();
        let hit = self.inner.lookup(view);
        let ns = ns_since(t);
        self.times
            .lock()
            .expect("timing lock is never held across a panic")
            .lookup_ns
            .push(ns);
        hit
    }

    fn record(&self, view: &SubCollection<'_>, detail: &SelectionDetail) {
        let _s = trace::span("plan.record", self.tag);
        let t = Instant::now();
        self.inner.record(view, detail);
        let ns = ns_since(t);
        self.times
            .lock()
            .expect("timing lock is never held across a panic")
            .record_ns
            .push(ns);
    }
}

/// Everything the engine replay measured.
#[derive(Default)]
pub struct EngineReplay {
    pub next_ns: Vec<u64>,
    pub answer_ns: Vec<u64>,
    pub select_ns: Vec<u64>,
    pub cache: CacheTimes,
    pub questions: u64,
    pub informative: u64,
    pub evaluated: u64,
    pub selections: u64,
    pub memo_entries: u64,
    pub mismatches: u64,
}

impl EngineReplay {
    /// Adds `o`, its times multiplied by `f`.
    pub fn append_scaled(&mut self, o: &EngineReplay, f: f64) {
        append_scaled(&mut self.next_ns, &o.next_ns, f);
        append_scaled(&mut self.answer_ns, &o.answer_ns, f);
        append_scaled(&mut self.select_ns, &o.select_ns, f);
        append_scaled(&mut self.cache.lookup_ns, &o.cache.lookup_ns, f);
        append_scaled(&mut self.cache.record_ns, &o.cache.record_ns, f);
        self.questions += o.questions;
        self.informative += o.informative;
        self.evaluated += o.evaluated;
        self.selections += o.selections;
        self.memo_entries += o.memo_entries;
        self.mismatches += o.mismatches;
    }
}

/// Replays one session through a direct `Engine` with k-LP(k, AD) wrapped
/// in [`TimedStrategy`] and the shared plan cache wrapped in
/// [`TimedCache`]. The session must ask exactly the recorded questions.
pub fn replay_engine(
    coll: &Arc<Collection>,
    plan: &Arc<PlanCache>,
    key: StrategyKey,
    job: &Job,
    recorded: &Transcript,
    tag: u64,
    out: &mut EngineReplay,
) {
    let _session = trace::span("engine.session", tag);
    let examples: Vec<EntityId> = job.examples.iter().map(|&e| EntityId(e)).collect();
    let strategy = TimedStrategy::new(KLp::<AvgDepth>::new(job.k), tag);
    let cache = Arc::new(TimedCache {
        inner: ScopedPlanCache::new_prevalidated(Arc::clone(plan), key, coll),
        times: Mutex::new(CacheTimes::default()),
        tag,
    });
    let mut engine = Engine::new(Arc::clone(coll), &examples, strategy)
        .with_selection_cache(Arc::clone(&cache) as Arc<dyn SelectionCache>);
    let mut step = 0;
    while !engine.is_resolved() {
        let t = Instant::now();
        let pick = {
            let _s = trace::span("engine.next_question", tag);
            engine.next_question()
        };
        out.next_ns.push(ns_since(t));
        let Some(entity) = pick else {
            out.mismatches += 1;
            break;
        };
        if let Some((informative, evaluated)) = engine.last_selection_stats() {
            out.informative += u64::from(informative);
            out.evaluated += u64::from(evaluated);
            out.selections += 1;
        }
        match recorded.steps.get(step) {
            Some(s) if s.entity == entity.0 => {}
            _ => {
                out.mismatches += 1;
                break;
            }
        }
        let answer = if recorded.steps[step].yes {
            Answer::Yes
        } else {
            Answer::No
        };
        let t = Instant::now();
        {
            let _s = trace::span("engine.answer", tag);
            engine.answer(entity, answer);
        }
        out.answer_ns.push(ns_since(t));
        out.questions += 1;
        step += 1;
    }
    if step != recorded.steps.len() {
        out.mismatches += 1;
    }
    out.memo_entries += engine.strategy().inner.cache_len() as u64;
    out.select_ns.append(&mut engine.strategy_mut().select_ns);
    drop(engine);
    let times = Arc::try_unwrap(cache)
        .ok()
        .map(|c| c.times.into_inner().expect("timing lock is never poisoned"))
        .unwrap_or_default();
    out.cache.lookup_ns.extend(times.lookup_ns);
    out.cache.record_ns.extend(times.record_ns);
}

/// Times `SubCollection::partition` on every answered view of a recorded
/// session.
pub fn replay_partitions(coll: &Collection, job: &Job, t: &Transcript, ns: &mut Vec<u64>) {
    let examples: Vec<EntityId> = job.examples.iter().map(|&e| EntityId(e)).collect();
    let mut view = coll.supersets_of(&examples);
    for step in &t.steps {
        let _s = trace::span("subcollection.partition", 0);
        let start = Instant::now();
        let (yes, no) = view.partition(EntityId(step.entity));
        ns.push(ns_since(start));
        view = if step.yes { yes } else { no };
    }
}
