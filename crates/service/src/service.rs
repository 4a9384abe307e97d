//! The transport-free request dispatcher.
//!
//! [`Service`] owns the snapshot [`Registry`] and the [`SessionTable`] and
//! maps one wire [`Request`] to one JSON response line. It holds no
//! per-connection state, so any number of transport threads (TCP
//! connections, the stdio loop, in-process load clients) can call
//! [`Service::handle_line`] on a shared reference concurrently; ordering is
//! only guaranteed per caller, which matches the one-line-in/one-line-out
//! protocol contract.

use crate::proto::{error_response_coded, parse_request, Request};
use crate::snapshot::{Registry, SnapshotHandle};
use crate::table::{ServiceEngine, SessionEntry, SessionTable, TraceStep};
use setdisc_core::discovery::Answer;
use setdisc_core::engine::Engine;
use setdisc_core::entity::EntityId;
use setdisc_util::obs::{self, Counter};
use setdisc_util::report::JsonObject;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Counters for everything the hardened service edge sheds, bounds, or
/// contains. Shared by the dispatcher (panics) and the TCP transport
/// (connection-level limits). Stored on the metric core's [`Counter`]
/// cells, which both the session-less `status` op and the `metrics` op
/// read — one storage location, so the two surfaces can never disagree.
/// `status` reports each field only once it is nonzero (unless
/// `verbose:true`), so fault-free transcripts stay byte-identical to the
/// pre-hardening protocol.
#[derive(Debug, Default)]
pub struct EdgeStats {
    /// Request dispatches that panicked and were contained.
    pub panics: Counter,
    /// Sessions force-closed because a dispatch panicked inside them.
    pub quarantined: Counter,
    /// Connections shed at accept time (global connection cap).
    pub shed_connections: Counter,
    /// Requests rejected over the per-connection request cap.
    pub shed_requests: Counter,
    /// Request lines rejected for exceeding the byte cap.
    pub too_large: Counter,
    /// Connections dropped on an expired read/write deadline.
    pub deadline_drops: Counter,
    /// Transient accept() errors tolerated with backoff.
    pub accept_retries: Counter,
}

impl EdgeStats {
    /// Relaxed-increment helper (counters are statistics, not
    /// synchronization).
    pub fn bump(counter: &Counter) {
        counter.incr();
    }

    /// The counters in stable exposition order, with their wire names —
    /// the single source both `status` and `metrics` iterate.
    pub fn named(&self) -> [(&'static str, &Counter); 7] {
        [
            ("panics", &self.panics),
            ("quarantined", &self.quarantined),
            ("shed_connections", &self.shed_connections),
            ("shed_requests", &self.shed_requests),
            ("too_large", &self.too_large),
            ("deadline_drops", &self.deadline_drops),
            ("accept_retries", &self.accept_retries),
        ]
    }
}

/// Service-wide limits and defaults.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Maximum live sessions before `create` is rejected.
    pub max_sessions: usize,
    /// Default yes/no question budget for sessions created without one.
    pub default_budget: u64,
    /// Idle timeout applied by [`Service::evict_idle`]; `None` disables
    /// eviction.
    pub idle_timeout: Option<Duration>,
    /// Node bound of the per-snapshot plan cache shared by every session
    /// with a deterministic strategy; `0` disables plan caching entirely.
    /// Cached selections are bit-identical to uncached ones (pinned by the
    /// `setdisc-plan` property tests), so this is a performance knob only
    /// — the wire protocol is unaffected.
    pub plan_cache_capacity: usize,
    /// Where [`Service::persist_plans`] writes the learned plan (the serve
    /// binary calls it on shutdown and from the periodic checkpointer);
    /// `None` disables persistence.
    pub plan_persist: Option<std::path::PathBuf>,
    /// Transport-edge limits applied by the TCP server (line/connection/
    /// request caps, I/O deadlines, drain budget).
    pub edge: crate::server::EdgeLimits,
    /// Global memory budget in bytes over everything the service accounts
    /// — loaded collections, plan caches, and session entries. `None`
    /// disables governance (the seed behavior); set, it arms the
    /// registry's degradation ladder: plan-cache shrinks, then
    /// cold-snapshot unloads, then shedding new `create`s with the
    /// structured `overloaded` shape. Established sessions are never
    /// touched (DESIGN.md §13).
    pub memory: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_sessions: 100_000,
            default_budget: 10_000,
            idle_timeout: None,
            plan_cache_capacity: 1 << 18,
            plan_persist: None,
            edge: crate::server::EdgeLimits::default(),
            memory: None,
        }
    }
}

/// A discovery service: named snapshots plus a table of live sessions.
pub struct Service {
    registry: Registry,
    table: SessionTable,
    config: ServiceConfig,
    stats: EdgeStats,
    journal: Option<crate::journal::ServiceJournal>,
}

impl Default for Service {
    fn default() -> Self {
        Self::new(ServiceConfig::default())
    }
}

impl Service {
    /// Empty service with the given limits.
    pub fn new(config: ServiceConfig) -> Self {
        let registry = Registry::new();
        registry.set_budget(config.memory.unwrap_or(0));
        Self {
            registry,
            table: SessionTable::new(config.max_sessions),
            config,
            stats: EdgeStats::default(),
            journal: None,
        }
    }

    /// Attaches the session journal: from here on, every request/response
    /// pair [`Service::handle_line`] processes is appended to it in
    /// dispatch order. Called once at boot (before the service is shared
    /// across transport threads).
    pub fn set_journal(&mut self, journal: crate::journal::ServiceJournal) {
        self.journal = Some(journal);
    }

    /// The attached session journal, if any (the serve binary syncs it on
    /// clean shutdown).
    pub fn journal(&self) -> Option<&crate::journal::ServiceJournal> {
        self.journal.as_ref()
    }

    /// The snapshot registry (load collections through this).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The service's configured limits (the TCP transport reads its edge
    /// caps from here).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Counters of everything shed, bounded, or contained at the edge.
    pub fn edge_stats(&self) -> &EdgeStats {
        &self.stats
    }

    /// Number of live sessions.
    pub fn open_sessions(&self) -> usize {
        self.table.len()
    }

    /// Accounted bytes of the session table (admission-time estimates,
    /// maintained on insert/remove/evict).
    pub fn session_bytes(&self) -> usize {
        self.table.accounted_bytes()
    }

    /// Evicts idle sessions per the configured timeout; returns the count
    /// (0 when eviction is disabled).
    pub fn evict_idle(&self) -> usize {
        match self.config.idle_timeout {
            Some(timeout) => self.table.evict_idle(timeout),
            None => 0,
        }
    }

    /// Pushes the accounted byte totals into the always-on `util::obs`
    /// memory gauges (`setdisc_mem_bytes{component=...}`). Called on every
    /// create outcome and metrics read, so scrapes and the `metrics` op
    /// agree on one storage location.
    pub fn refresh_mem_gauges(&self) {
        obs::mem_set(
            obs::MemComponent::Collections,
            self.registry.collections_bytes() as u64,
        );
        obs::mem_set(
            obs::MemComponent::PlanCaches,
            self.registry.plan_cache_bytes() as u64,
        );
        obs::mem_set(
            obs::MemComponent::Sessions,
            self.table.accounted_bytes() as u64,
        );
    }

    /// Handles one protocol line, returning one response line (no trailing
    /// newline).
    pub fn handle_line(&self, line: &str) -> String {
        let response = match parse_request(line) {
            Ok(req) => self.handle(req),
            Err(e) => err_response(&e),
        };
        // Journal the exchange as one record — request and response
        // together, so a torn tail can only lose whole exchanges. Edge
        // errors produced inside the transports never reach this choke
        // point and are deliberately not journaled (they depend on socket
        // state no replay could reproduce).
        if let Some(journal) = &self.journal {
            journal.record(line, &response);
        }
        response
    }

    /// Handles one parsed request, containing panics: a dispatch that
    /// unwinds (strategy bug, poisoned invariant, injected fault) yields a
    /// structured `"internal"` error instead of killing the transport
    /// thread and hanging the client mid-read, and the session the request
    /// addressed — whose engine state may be torn mid-mutation — is
    /// quarantined (removed, never resumed). All *other* sessions are
    /// untouched: shard locks recover from poisoning (see
    /// `table::lock_shard`), and the chaos suite asserts their question
    /// sequences stay bit-identical to direct engine runs.
    pub fn handle(&self, req: Request) -> String {
        let session = req.session();
        let op = req.op();
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(req))) {
            Ok(response) => response,
            Err(_) => {
                EdgeStats::bump(&self.stats.panics);
                let mut msg = format!("internal error handling {op:?}");
                if let Some(id) = session {
                    if self.table.remove(id) {
                        EdgeStats::bump(&self.stats.quarantined);
                        msg = format!("{msg}; session {id} quarantined and closed");
                    }
                }
                error_response_coded("internal", &msg, None)
            }
        }
    }

    fn dispatch(&self, req: Request) -> String {
        setdisc_util::faults::trip("service.dispatch");
        let _span = obs::span(obs::Site::ServiceDispatch);
        match req {
            Request::Create {
                collection,
                strategy,
                examples,
                budget,
                prior,
                recover,
                explain,
            } => self.create(
                &collection,
                strategy,
                &examples,
                budget,
                &prior,
                recover,
                explain,
            ),
            Request::Ask { session, choices } => self.ask(session, choices),
            Request::Answer {
                session,
                entity,
                answer,
                confident,
            } => self.answer(session, &entity, answer, confident),
            Request::AnswerChoice {
                session,
                choice,
                confident,
            } => self.answer_choice(session, choice, confident),
            Request::Status { session } => self.status(session),
            Request::ServiceStatus { verbose } => self.service_status(verbose),
            Request::Metrics { prometheus } => self.metrics(prometheus),
            Request::Trace { session } => self.trace(session),
            Request::Explain { session } => self.explain(session),
            Request::Close { session } => self.close(session),
            Request::Collections => self.collections(),
        }
    }

    /// Service-level status (a session-less `status` request): open-session
    /// count plus, per collection, shape and plan-cache statistics — node
    /// count, hits, misses, and hit rate. Plan fields appear only for
    /// snapshots that actually carry a cache, so existing transcripts
    /// (which never install one before asking) stay byte-identical.
    fn service_status(&self, verbose: bool) -> String {
        let items = self
            .registry
            .snapshots()
            .into_iter()
            .map(|snap| {
                let mut obj = JsonObject::new()
                    .str("name", snap.name())
                    .int("sets", snap.collection().len() as u64)
                    .int("entities", snap.collection().distinct_entities() as u64);
                if let Some(cache) = snap.plan_cache() {
                    let stats = cache.stats();
                    obj = obj
                        .int("plan_nodes", stats.nodes)
                        .int("plan_hits", stats.hits)
                        .int("plan_misses", stats.misses)
                        .num("plan_hit_rate", stats.hit_rate());
                    // Additive: present only once a weighted (§6 prior)
                    // plan has actually served, so classic transcripts are
                    // unchanged.
                    if stats.weighted_hits > 0 {
                        obj = obj.int("plan_weighted_hits", stats.weighted_hits);
                    }
                }
                obj
            })
            .collect();
        let mut obj = JsonObject::new()
            .bool("ok", true)
            .str("op", "status")
            .int("sessions", self.table.len() as u64);
        // Edge counters are additive: emitted only once nonzero, so
        // fault-free transcripts (and the committed goldens) stay
        // byte-identical to the pre-hardening protocol. `verbose:true`
        // opts into the stable all-fields schema instead.
        for (key, counter) in self.stats.named() {
            let value = counter.get();
            if verbose || value > 0 {
                obj = obj.int(key, value);
            }
        }
        // Verbose opts into the memory-accounting block (plain status
        // lines — and the committed goldens — stay byte-identical).
        if verbose {
            self.refresh_mem_gauges();
            let governor = self.registry.governor();
            obj = obj
                .int(
                    "mem_collections_bytes",
                    self.registry.collections_bytes() as u64,
                )
                .int("mem_plan_bytes", self.registry.plan_cache_bytes() as u64)
                .int("mem_sessions_bytes", self.table.accounted_bytes() as u64)
                .int("mem_total_bytes", obs::mem_total())
                .int("mem_budget_bytes", governor.budget() as u64)
                .int("mem_plan_shrinks", governor.plan_shrinks())
                .int("mem_unloads", governor.unloads())
                .int("mem_sheds", governor.sheds());
        }
        obj.array("collections", items).encode()
    }

    /// The `util::obs` exposition surface: site histograms (count, sum,
    /// p50/p90/p99 in µs — or raw values for the Table-4 prune sites),
    /// the edge counters (all of them, zeros included — scrapers need a
    /// stable schema), and per-collection plan-cache statistics read
    /// through the same [`setdisc_plan::PlanCache::stats`] atomics the
    /// `status` op reports.
    fn metrics(&self, prometheus: bool) -> String {
        self.refresh_mem_gauges();
        let sites = obs::snapshot();
        if prometheus {
            return JsonObject::new()
                .bool("ok", true)
                .str("op", "metrics")
                .str("text", &self.render_prometheus(&sites))
                .encode();
        }
        let site_items = sites
            .iter()
            .map(|s| {
                JsonObject::new()
                    .str("site", s.name)
                    .int("count", s.histogram.count)
                    .int("sum", s.histogram.sum)
                    .int("p50", s.histogram.quantile(0.50))
                    .int("p90", s.histogram.quantile(0.90))
                    .int("p99", s.histogram.quantile(0.99))
            })
            .collect();
        let edge_items = self
            .stats
            .named()
            .into_iter()
            .map(|(key, counter)| {
                JsonObject::new()
                    .str("counter", key)
                    .int("value", counter.get())
            })
            .collect();
        let coll_items = self
            .registry
            .snapshots()
            .into_iter()
            .map(|snap| {
                let mut obj = JsonObject::new()
                    .str("name", snap.name())
                    .int("sets", snap.collection().len() as u64)
                    .int("entities", snap.collection().distinct_entities() as u64);
                if let Some(cache) = snap.plan_cache() {
                    let stats = cache.stats();
                    obj = obj
                        .int("plan_nodes", stats.nodes)
                        .int("plan_hits", stats.hits)
                        .int("plan_misses", stats.misses)
                        .int("plan_inserted", stats.inserted)
                        .int("plan_evicted", stats.evicted)
                        .int("plan_weighted_hits", stats.weighted_hits);
                }
                obj
            })
            .collect();
        let governor = self.registry.governor();
        JsonObject::new()
            .bool("ok", true)
            .str("op", "metrics")
            .bool("armed", obs::armed())
            .int("sessions", self.table.len() as u64)
            // Process-wide trace-ring truncation (additive): per-session
            // `dropped` figures die with their sessions; this one survives.
            .int("trace_dropped", crate::table::trace_dropped_total())
            // Memory accounting is always-on (additive fields): the three
            // component gauges, their sum, and the governor's budget and
            // ladder counters.
            .int(
                "mem_collections_bytes",
                self.registry.collections_bytes() as u64,
            )
            .int("mem_plan_bytes", self.registry.plan_cache_bytes() as u64)
            .int("mem_sessions_bytes", self.table.accounted_bytes() as u64)
            .int("mem_total_bytes", obs::mem_total())
            .int("mem_budget_bytes", governor.budget() as u64)
            .int("mem_plan_shrinks", governor.plan_shrinks())
            .int("mem_unloads", governor.unloads())
            .int("mem_sheds", governor.sheds())
            .array("sites", site_items)
            .array("edge", edge_items)
            .array("collections", coll_items)
            .encode()
    }

    /// Prometheus text exposition (version 0.0.4 subset: `# TYPE` comments
    /// plus `name{label="value"} number` samples, one per line).
    fn render_prometheus(&self, sites: &[obs::SiteStats]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("# TYPE setdisc_sessions_open gauge\n");
        let _ = writeln!(out, "setdisc_sessions_open {}", self.table.len());
        out.push_str("# TYPE setdisc_site_events_total counter\n");
        for s in sites {
            let _ = writeln!(
                out,
                "setdisc_site_events_total{{site=\"{}\"}} {}",
                s.name, s.histogram.count
            );
        }
        out.push_str("# TYPE setdisc_site_value_sum counter\n");
        for s in sites {
            let _ = writeln!(
                out,
                "setdisc_site_value_sum{{site=\"{}\"}} {}",
                s.name, s.histogram.sum
            );
        }
        for (metric, q) in [
            ("setdisc_site_value_p50", 0.50),
            ("setdisc_site_value_p90", 0.90),
            ("setdisc_site_value_p99", 0.99),
        ] {
            let _ = writeln!(out, "# TYPE {metric} gauge");
            for s in sites {
                let _ = writeln!(
                    out,
                    "{metric}{{site=\"{}\"}} {}",
                    s.name,
                    s.histogram.quantile(q)
                );
            }
        }
        out.push_str("# TYPE setdisc_edge_total counter\n");
        for (key, counter) in self.stats.named() {
            let _ = writeln!(
                out,
                "setdisc_edge_total{{counter=\"{key}\"}} {}",
                counter.get()
            );
        }
        out.push_str("# TYPE setdisc_trace_dropped_total counter\n");
        let _ = writeln!(
            out,
            "setdisc_trace_dropped_total {}",
            crate::table::trace_dropped_total()
        );
        // Per-kernel predicted-vs-actual counting cost (milli-ns per cost
        // unit): the same cells as the `cost_model.*` sites, re-labelled by
        // kernel so dashboards can chart the dispatch heuristic's error
        // without parsing site names.
        for (metric, kind) in [
            ("setdisc_cost_model_error_count", "counter"),
            ("setdisc_cost_model_error_sum", "counter"),
            ("setdisc_cost_model_error_p50", "gauge"),
            ("setdisc_cost_model_error_p90", "gauge"),
            ("setdisc_cost_model_error_p99", "gauge"),
        ] {
            let _ = writeln!(out, "# TYPE {metric} {kind}");
            for s in sites {
                let Some(kernel) = s.name.strip_prefix("cost_model.") else {
                    continue;
                };
                let value = match metric {
                    "setdisc_cost_model_error_count" => s.histogram.count,
                    "setdisc_cost_model_error_sum" => s.histogram.sum,
                    "setdisc_cost_model_error_p50" => s.histogram.quantile(0.50),
                    "setdisc_cost_model_error_p90" => s.histogram.quantile(0.90),
                    _ => s.histogram.quantile(0.99),
                };
                let _ = writeln!(out, "{metric}{{kernel=\"{kernel}\"}} {value}");
            }
        }
        out.push_str("# TYPE setdisc_mem_bytes gauge\n");
        for component in obs::MEM_COMPONENTS {
            let _ = writeln!(
                out,
                "setdisc_mem_bytes{{component=\"{}\"}} {}",
                component.name(),
                obs::mem_bytes(component)
            );
        }
        let governor = self.registry.governor();
        out.push_str("# TYPE setdisc_mem_budget_bytes gauge\n");
        let _ = writeln!(out, "setdisc_mem_budget_bytes {}", governor.budget());
        out.push_str("# TYPE setdisc_mem_governor_total counter\n");
        for (action, value) in [
            ("plan_shrink", governor.plan_shrinks()),
            ("unload", governor.unloads()),
            ("shed", governor.sheds()),
        ] {
            let _ = writeln!(
                out,
                "setdisc_mem_governor_total{{action=\"{action}\"}} {value}"
            );
        }
        for (metric, pick) in [
            ("setdisc_plan_nodes", 0usize),
            ("setdisc_plan_hits_total", 1),
            ("setdisc_plan_misses_total", 2),
            ("setdisc_plan_inserted_total", 3),
            ("setdisc_plan_evicted_total", 4),
            ("setdisc_plan_weighted_hits_total", 5),
        ] {
            let kind = if pick == 0 { "gauge" } else { "counter" };
            let _ = writeln!(out, "# TYPE {metric} {kind}");
            for snap in self.registry.snapshots() {
                let Some(cache) = snap.plan_cache() else {
                    continue;
                };
                let stats = cache.stats();
                let value = [
                    stats.nodes,
                    stats.hits,
                    stats.misses,
                    stats.inserted,
                    stats.evicted,
                    stats.weighted_hits,
                ][pick];
                let _ = writeln!(out, "{metric}{{collection=\"{}\"}} {value}", snap.name());
            }
        }
        out
    }

    /// The `trace` op: the session's retained ring, oldest first, plus how
    /// many events the capacity bound has dropped.
    fn trace(&self, session: u64) -> String {
        self.with_session(session, |entry| {
            let events = entry
                .trace
                .events()
                .map(|(seq, step)| {
                    let obj = JsonObject::new().int("seq", *seq);
                    match step {
                        TraceStep::Ask {
                            entity,
                            candidates,
                            select_us,
                            informative,
                            evaluated,
                        } => obj
                            .str("kind", "ask")
                            .str("entity", entity)
                            .int("candidates", *candidates)
                            .int("select_us", *select_us)
                            .int("informative", u64::from(*informative))
                            .int("evaluated", u64::from(*evaluated)),
                        TraceStep::Answer {
                            entity,
                            answer,
                            confident,
                            before,
                            after,
                            backtracks,
                        } => obj
                            .str("kind", "answer")
                            .str("entity", entity)
                            .str("answer", answer)
                            .bool("confident", *confident)
                            .int("before", *before)
                            .int("after", *after)
                            .int("backtracks", *backtracks),
                        TraceStep::Explain {
                            entity,
                            candidates,
                            plan,
                            bound,
                            kernel,
                            count_ns,
                        } => obj
                            .str("kind", "explain")
                            .str("entity", entity)
                            .int("candidates", *candidates)
                            .str("plan", plan)
                            .int("bound", *bound)
                            .str("kernel", kernel)
                            .int("count_ns", *count_ns),
                    }
                })
                .collect();
            JsonObject::new()
                .bool("ok", true)
                .str("op", "trace")
                .int("session", session)
                .int("dropped", entry.trace.dropped())
                .array("events", events)
                .encode()
        })
    }

    /// The `explain` op: the provenance record of the session's latest
    /// fresh selection. Session-less-safe — an unknown session errors like
    /// any session op, a session created without `"explain":true` answers
    /// `armed:false`, and an armed session that has not selected yet
    /// answers `armed:true` with no record. The ranked/counter block is
    /// present only when the strategy actually ran (plan hits carry no
    /// trace: the plan is the why).
    fn explain(&self, session: u64) -> String {
        self.with_session(session, |entry| {
            let base = JsonObject::new()
                .bool("ok", true)
                .str("op", "explain")
                .int("session", session);
            if !entry.engine.explain_enabled() {
                return base.bool("armed", false).encode();
            }
            let Some(p) = entry.engine.provenance() else {
                return base.bool("armed", true).encode();
            };
            let mut obj = base
                .bool("armed", true)
                .int("question", p.question as u64)
                .str("entity", &entry.snapshot.entity_label(p.entity))
                .int("candidates", p.candidates as u64)
                .int("view_len", u64::from(p.view_len))
                .str("plan", p.plan.name())
                .int("bound", p.bound)
                .obj(
                    "dispatch",
                    JsonObject::new()
                        .str(
                            "kernel",
                            if p.dispatch.use_postings {
                                "postings"
                            } else {
                                "elements"
                            },
                        )
                        .int("total_elements", p.dispatch.total_elements)
                        .int("scan_cost", p.dispatch.scan_cost)
                        .int("factor", p.dispatch.factor),
                )
                .int("count_ns", p.measured_count_ns);
            if let Some(trace) = &p.trace {
                let ranked = trace
                    .ranked
                    .iter()
                    .map(|c| {
                        JsonObject::new()
                            .str("entity", &entry.snapshot.entity_label(c.entity))
                            .int("count", u64::from(c.count))
                            .int("rank", u64::from(c.rank))
                            .str("outcome", c.outcome.name())
                    })
                    .collect();
                obj = obj
                    .array("ranked", ranked)
                    .int("informative", u64::from(trace.informative))
                    .int("evaluated", u64::from(trace.evaluated))
                    .int("pruned_duplicate", u64::from(trace.pruned_duplicate))
                    .int("pruned_bound", u64::from(trace.pruned_bound))
                    .bool("memo_hit", trace.memo_hit);
            }
            obj.encode()
        })
    }

    /// Writes the most-populated plan cache to the configured persist path
    /// (see [`ServiceConfig::plan_persist`]); returns the persisted
    /// collection's name and node count, or `None` when persistence is
    /// disabled or nothing was learned.
    pub fn persist_plans(&self) -> Result<Option<(String, u64)>, String> {
        let Some(path) = &self.config.plan_persist else {
            return Ok(None);
        };
        let mut best: Option<(String, std::sync::Arc<setdisc_plan::PlanCache>)> = None;
        for snap in self.registry.snapshots() {
            if let Some(cache) = snap.plan_cache() {
                if best.as_ref().is_none_or(|(_, b)| cache.len() > b.len()) {
                    best = Some((snap.name().to_string(), cache));
                }
            }
        }
        match best {
            Some((name, cache)) => {
                let nodes = setdisc_plan::save_plan(&cache, path)
                    .map_err(|e| format!("persist plan to {}: {e}", path.display()))?;
                Ok(Some((name, nodes)))
            }
            None => Ok(None),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn create(
        &self,
        collection: &str,
        strategy: crate::strategy::StrategySpec,
        examples: &[String],
        budget: Option<u64>,
        prior: &[u64],
        recover: bool,
        explain: bool,
    ) -> String {
        // `acquire` materializes a lazily registered (or governor-unloaded)
        // snapshot and takes the lease the session will hold: from here to
        // entry drop, the degradation ladder cannot unload this snapshot.
        let (snapshot, lease) = match self.registry.acquire(collection) {
            Ok(Some(pair)) => pair,
            Ok(None) => return err_response(&format!("unknown collection {collection:?}")),
            Err(crate::snapshot::AcquireError::Pressure(msg)) => {
                return error_response_coded("overloaded", &msg, Some(1));
            }
            Err(crate::snapshot::AcquireError::Build(msg)) => return err_response(&msg),
        };
        let mut initial: Vec<EntityId> = Vec::with_capacity(examples.len());
        for token in examples {
            match snapshot.resolve_entity(token) {
                Some(id) => initial.push(id),
                None => return err_response(&format!("unknown entity {token:?}")),
            }
        }
        // A §6 prior must cover the whole collection; a prior that
        // GCD-normalizes to uniform is served by the (bit-identical, see
        // `setdisc_core::weights`) unweighted path so it shares the classic
        // plan cache instead of fragmenting it.
        let weights = if prior.is_empty() {
            None
        } else {
            if prior.len() != snapshot.collection().len() {
                return err_response(&format!(
                    "prior covers {} sets but collection {collection:?} has {}",
                    prior.len(),
                    snapshot.collection().len()
                ));
            }
            match setdisc_core::weights::WeightTable::new(prior) {
                Ok(table) if table.is_uniform() => None,
                Ok(table) => Some(std::sync::Arc::new(table)),
                Err(e) => return err_response(&e),
            }
        };
        let (built, label, plan_key) = match &weights {
            Some(w) => {
                let built = match strategy.build_weighted(w.clone()) {
                    Ok(b) => b,
                    Err(e) => return err_response(&e),
                };
                (
                    built,
                    strategy.weighted_label(w),
                    strategy.weighted_plan_key(w),
                )
            }
            None => (strategy.build(), strategy.label(), strategy.plan_key()),
        };
        let mut engine: ServiceEngine = Engine::new(
            SnapshotHandle(std::sync::Arc::clone(&snapshot)),
            &initial,
            built,
        );
        if recover {
            engine.set_backtracking(true);
        }
        if explain {
            // Provenance capture is read-only: the armed engine's question
            // sequence is bit-identical to an unarmed one (pinned by the
            // explain-purity property test).
            engine.set_explain(true);
        }
        // Deterministic strategies share the snapshot's plan cache: every
        // selection is served from (and recorded into) the cross-session
        // decision tree. Randomized strategies get no cache (no plan_key),
        // and weighted sessions key under the prior's fingerprint so they
        // never share nodes with the unweighted plan. The snapshot's cache
        // matches its collection by construction (validated at lazy init /
        // plan install), so the scope skips the O(collection) identity
        // re-hash on this per-create path.
        if self.config.plan_cache_capacity > 0 {
            if let Some(key) = plan_key {
                let cache = snapshot.plan_cache_or_init(self.config.plan_cache_capacity);
                let scope = setdisc_plan::ScopedPlanCache::new_prevalidated(
                    cache,
                    key,
                    snapshot.collection(),
                );
                engine.set_selection_cache(Some(std::sync::Arc::new(scope)));
            }
        }
        let candidates = engine.candidate_count();
        let entry = SessionEntry::new(
            engine,
            snapshot,
            collection.to_string(),
            label,
            budget.unwrap_or(self.config.default_budget),
        )
        .with_lease(lease);
        // Memory admission runs before the table allocates an id, so a
        // shed create consumes nothing a later replay would observe. The
        // ladder may shrink plan caches or unload cold snapshots here;
        // only when both rungs fail is this create refused — established
        // sessions are never touched.
        if !self
            .registry
            .admit(self.table.accounted_bytes() + entry.accounted_bytes())
        {
            // Dropping the entry releases the lease; the reclaim pass can
            // then unload the snapshot this refused create materialized.
            drop(entry);
            self.registry.reclaim(self.table.accounted_bytes());
            self.refresh_mem_gauges();
            return error_response_coded(
                "overloaded",
                "memory budget exhausted; new sessions are shed, established sessions continue",
                Some(1),
            );
        }
        match self.table.insert(entry) {
            Ok(id) => {
                self.refresh_mem_gauges();
                JsonObject::new()
                    .bool("ok", true)
                    .str("op", "create")
                    .int("session", id)
                    .int("candidates", candidates as u64)
                    .encode()
            }
            // Session-count exhaustion is the same backpressure class as
            // the byte budget: structured, retryable, never a hard error.
            Err(e) => error_response_coded("overloaded", &e, Some(1)),
        }
    }

    fn ask(&self, session: u64, choices: Option<usize>) -> String {
        self.with_session(session, |entry| {
            let questions = entry.engine.questions_asked() as u64;
            let done = |reason: &str, entry: &SessionEntry| {
                let mut obj = JsonObject::new()
                    .bool("ok", true)
                    .str("op", "ask")
                    .int("session", session)
                    .bool("done", true)
                    .str("reason", reason)
                    .int("questions", entry.engine.questions_asked() as u64)
                    .int("candidates", entry.engine.candidate_count() as u64);
                if let Some(found) = discovered_label(entry) {
                    obj = obj.str("discovered", &found);
                }
                obj.encode()
            };
            if entry.engine.is_resolved() {
                return done("resolved", entry);
            }
            if questions >= entry.budget {
                return done("budget", entry);
            }
            // Re-asking before answering returns the outstanding question
            // (or §7 batch) verbatim; a fresh ask selects one.
            if entry.pending.is_empty() {
                let candidates = entry.engine.candidate_count() as u64;
                let started = std::time::Instant::now();
                entry.pending = match choices {
                    Some(b) if b > 1 => entry.engine.next_questions(b),
                    _ => entry.engine.next_question().into_iter().collect(),
                };
                let select_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                if let Some(&first) = entry.pending.first() {
                    let (informative, evaluated) =
                        entry.engine.last_selection_stats().unwrap_or((0, 0));
                    let entity = entry.snapshot.entity_label(first);
                    entry.trace.push(TraceStep::Ask {
                        entity,
                        candidates,
                        select_us,
                        informative,
                        evaluated,
                    });
                    // Explain-armed sessions also ring a compact provenance
                    // event beside the ask (the full record stays on the
                    // engine for the `explain` op).
                    let explained = entry.engine.provenance().map(|p| TraceStep::Explain {
                        entity: entry.snapshot.entity_label(p.entity),
                        candidates: p.candidates as u64,
                        plan: p.plan.name(),
                        bound: p.bound,
                        kernel: if p.dispatch.use_postings {
                            "postings"
                        } else {
                            "elements"
                        },
                        count_ns: p.measured_count_ns,
                    });
                    if let Some(step) = explained {
                        entry.trace.push(step);
                    }
                }
            }
            match entry.pending.first().copied() {
                Some(first) => {
                    let mut obj = JsonObject::new()
                        .bool("ok", true)
                        .str("op", "ask")
                        .int("session", session)
                        .bool("done", false)
                        .str("entity", &entry.snapshot.entity_label(first))
                        .int("questions", questions);
                    // Additive: the batch appears only when there is more
                    // than one option, so classic transcripts are
                    // byte-identical.
                    if entry.pending.len() > 1 {
                        let labels: Vec<String> = entry
                            .pending
                            .iter()
                            .map(|&e| entry.snapshot.entity_label(e))
                            .collect();
                        obj = obj.strs("entities", &labels);
                    }
                    obj.encode()
                }
                // Every informative entity excluded: the session cannot
                // make progress — report the survivors.
                None => done("exhausted", entry),
            }
        })
    }

    fn answer(&self, session: u64, entity: &str, answer: Answer, confident: bool) -> String {
        let result = self.with_session_raw(session, |entry| {
            let Some(id) = entry.snapshot.resolve_entity(entity) else {
                return Err(format!("unknown entity {entity:?}"));
            };
            entry.pending.clear();
            let before = entry.engine.candidate_count() as u64;
            let applied = entry.engine.history().len();
            entry.engine.answer_full(id, answer, confident);
            trace_answers(entry, applied, before, confident);
            Ok(answer_outcome(entry))
        });
        self.finish_answer(session, result)
    }

    fn answer_choice(&self, session: u64, choice: u64, confident: bool) -> String {
        let result = self.with_session_raw(session, |entry| {
            if entry.pending.is_empty() {
                return Err("no outstanding question batch to choose from".to_string());
            }
            let batch = std::mem::take(&mut entry.pending);
            if choice > batch.len() as u64 {
                // Hand the batch back: an invalid pick must not consume it.
                let err = format!("choice {choice} out of range for {} options", batch.len());
                entry.pending = batch;
                return Err(err);
            }
            let before = entry.engine.candidate_count() as u64;
            let applied = entry.engine.history().len();
            entry
                .engine
                .answer_choice(&batch, choice as usize, confident);
            trace_answers(entry, applied, before, confident);
            Ok(answer_outcome(entry))
        });
        self.finish_answer(session, result)
    }

    /// Common tail of both answer forms: report the contradiction closure
    /// or the surviving-candidate counts (plus the §6 backtrack count once
    /// any recovery has fired).
    fn finish_answer(&self, session: u64, result: Option<Result<AnswerOutcome, String>>) -> String {
        match result {
            None => unknown_session(session),
            Some(Err(e)) => err_response(&e),
            Some(Ok(Err(questions))) => {
                self.table.remove(session);
                err_response(&format!(
                    "answers contradict every candidate set after {questions} questions; session closed"
                ))
            }
            Some(Ok(Ok((candidates, questions, backtracks)))) => {
                let mut obj = JsonObject::new()
                    .bool("ok", true)
                    .str("op", "answer")
                    .int("session", session)
                    .int("candidates", candidates)
                    .int("questions", questions);
                if backtracks > 0 {
                    obj = obj.int("backtracks", backtracks);
                }
                obj.encode()
            }
        }
    }

    fn status(&self, session: u64) -> String {
        self.with_session(session, |entry| {
            let mut obj = JsonObject::new()
                .bool("ok", true)
                .str("op", "status")
                .int("session", session)
                .str("collection", &entry.collection_name)
                .str("strategy", &entry.strategy_label)
                .int("candidates", entry.engine.candidate_count() as u64)
                .int("questions", entry.engine.questions_asked() as u64)
                .int("unknowns", entry.engine.unknowns() as u64)
                .int("budget", entry.budget)
                .bool("done", entry.engine.is_resolved());
            if entry.engine.backtracks() > 0 {
                obj = obj.int("backtracks", entry.engine.backtracks() as u64);
            }
            if let Some(found) = discovered_label(entry) {
                obj = obj.str("discovered", &found);
            }
            obj.encode()
        })
    }

    fn close(&self, session: u64) -> String {
        if self.table.remove(session) {
            JsonObject::new()
                .bool("ok", true)
                .str("op", "close")
                .int("session", session)
                .encode()
        } else {
            unknown_session(session)
        }
    }

    fn collections(&self) -> String {
        let items = self
            .registry
            .list()
            .into_iter()
            .map(|info| {
                JsonObject::new()
                    .str("name", &info.name)
                    .int("sets", info.sets as u64)
                    .int("entities", info.entities as u64)
                    .str("state", info.state)
                    .int("bytes", info.bytes as u64)
                    .int("plan_bytes", info.plan_bytes as u64)
            })
            .collect();
        JsonObject::new()
            .bool("ok", true)
            .str("op", "collections")
            .array("collections", items)
            .encode()
    }

    fn with_session(&self, session: u64, f: impl FnOnce(&mut SessionEntry) -> String) -> String {
        self.with_session_raw(session, f)
            .unwrap_or_else(|| unknown_session(session))
    }

    fn with_session_raw<R>(
        &self,
        session: u64,
        f: impl FnOnce(&mut SessionEntry) -> R,
    ) -> Option<R> {
        self.table.with(session, f)
    }
}

/// Post-answer state: `Err(questions)` when the assertions killed every
/// candidate (and §6 recovery, if armed, could not repair the transcript),
/// else `(candidates, questions, backtracks)`.
type AnswerOutcome = Result<(u64, u64, u64), usize>;

fn answer_outcome(entry: &SessionEntry) -> AnswerOutcome {
    if entry.engine.candidate_count() == 0 {
        // Inconsistent assertions: the session is dead. Report and
        // release it (the wire client cannot back out an answer).
        return Err(entry.engine.questions_asked());
    }
    Ok((
        entry.engine.candidate_count() as u64,
        entry.engine.questions_asked() as u64,
        entry.engine.backtracks() as u64,
    ))
}

/// Pushes one trace event per history entry an answer op appended
/// (several for a §7 choice — its implied assertions). Events record the
/// transcript *as the engine holds it*, so a §6 recovery that rewrote the
/// just-applied entry traces the corrected answer; the op-level
/// before/after candidate counts and backtrack total are shared across
/// the batch.
fn trace_answers(entry: &mut SessionEntry, applied: usize, before: u64, confident: bool) {
    let after = entry.engine.candidate_count() as u64;
    let backtracks = entry.engine.backtracks() as u64;
    let new: Vec<(EntityId, Answer)> = entry.engine.history()[applied..].to_vec();
    for (id, ans) in new {
        let entity = entry.snapshot.entity_label(id);
        entry.trace.push(TraceStep::Answer {
            entity,
            answer: answer_token(ans),
            confident,
            before,
            after,
            backtracks,
        });
    }
}

/// The wire token for an answer (the inverse of the parser's accepted
/// spellings).
fn answer_token(answer: Answer) -> &'static str {
    match answer {
        Answer::Yes => "yes",
        Answer::No => "no",
        Answer::Unknown => "unknown",
    }
}

/// The resolved set's label when exactly one candidate remains.
fn discovered_label(entry: &SessionEntry) -> Option<String> {
    match entry.engine.candidate_ids() {
        [single] => Some(entry.snapshot.set_label(*single)),
        _ => None,
    }
}

fn err_response(message: &str) -> String {
    JsonObject::new()
        .bool("ok", false)
        .str("error", message)
        .encode()
}

fn unknown_session(session: u64) -> String {
    err_response(&format!("unknown session {session}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use setdisc_util::report::{parse_json, JsonValue};

    fn figure1_service() -> Service {
        let svc = Service::default();
        svc.registry().install_fixture("figure1").unwrap();
        svc
    }

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        v.get(key).unwrap_or_else(|| panic!("missing {key}: {v:?}"))
    }

    fn call(svc: &Service, line: &str) -> JsonValue {
        parse_json(&svc.handle_line(line)).expect("responses are valid JSON")
    }

    #[test]
    fn full_conversation_discovers_a_set() {
        let svc = figure1_service();
        let resp = call(
            &svc,
            r#"{"op":"create","collection":"figure1","strategy":"most-even"}"#,
        );
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        let id = field(&resp, "session").as_u64().unwrap();
        assert_eq!(field(&resp, "candidates").as_u64(), Some(7));

        // Target S2 = {a, d, e}: answer membership questions truthfully.
        let target = ["a", "d", "e"];
        loop {
            let resp = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
            if field(&resp, "done").as_bool() == Some(true) {
                assert_eq!(field(&resp, "reason").as_str(), Some("resolved"));
                assert_eq!(field(&resp, "discovered").as_str(), Some("S2"));
                break;
            }
            let entity = field(&resp, "entity").as_str().unwrap().to_string();
            let ans = if target.contains(&entity.as_str()) {
                "yes"
            } else {
                "no"
            };
            let resp = call(
                &svc,
                &format!(
                    r#"{{"op":"answer","session":{id},"entity":"{entity}","answer":"{ans}"}}"#
                ),
            );
            assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        }
        let status = call(&svc, &format!(r#"{{"op":"status","session":{id}}}"#));
        assert_eq!(field(&status, "done").as_bool(), Some(true));
        assert_eq!(field(&status, "discovered").as_str(), Some("S2"));
        let close = call(&svc, &format!(r#"{{"op":"close","session":{id}}}"#));
        assert_eq!(field(&close, "ok").as_bool(), Some(true));
        assert_eq!(svc.open_sessions(), 0);
        // Closed session is gone.
        let resp = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
    }

    #[test]
    fn ask_is_idempotent_until_answered() {
        let svc = figure1_service();
        let resp = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        let id = field(&resp, "session").as_u64().unwrap();
        let a1 = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
        let a2 = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
        assert_eq!(
            field(&a1, "entity").as_str(),
            field(&a2, "entity").as_str(),
            "repeated ask returns the outstanding question"
        );
    }

    #[test]
    fn budget_halts_ask() {
        let svc = figure1_service();
        let resp = call(
            &svc,
            r#"{"op":"create","collection":"figure1","strategy":"most-even","budget":1}"#,
        );
        let id = field(&resp, "session").as_u64().unwrap();
        let ask = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
        let entity = field(&ask, "entity").as_str().unwrap().to_string();
        call(
            &svc,
            &format!(r#"{{"op":"answer","session":{id},"entity":"{entity}","answer":"no"}}"#),
        );
        let ask = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
        assert_eq!(field(&ask, "done").as_bool(), Some(true));
        assert_eq!(field(&ask, "reason").as_str(), Some("budget"));
        assert!(field(&ask, "candidates").as_u64().unwrap() > 1);
    }

    #[test]
    fn contradiction_closes_the_session() {
        let svc = figure1_service();
        let resp = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        let id = field(&resp, "session").as_u64().unwrap();
        // e → only S2; then i → only S5: contradiction.
        call(
            &svc,
            &format!(r#"{{"op":"answer","session":{id},"entity":"e","answer":"yes"}}"#),
        );
        let resp = call(
            &svc,
            &format!(r#"{{"op":"answer","session":{id},"entity":"i","answer":"yes"}}"#),
        );
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        assert!(field(&resp, "error")
            .as_str()
            .unwrap()
            .contains("contradict"));
        assert_eq!(svc.open_sessions(), 0);
    }

    #[test]
    fn unknown_answers_exclude_and_continue() {
        let svc = figure1_service();
        let resp = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        let id = field(&resp, "session").as_u64().unwrap();
        let ask = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
        let first = field(&ask, "entity").as_str().unwrap().to_string();
        call(
            &svc,
            &format!(r#"{{"op":"answer","session":{id},"entity":"{first}","answer":"unknown"}}"#),
        );
        let ask = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
        let second = field(&ask, "entity").as_str().unwrap().to_string();
        assert_ne!(first, second, "excluded entity is not re-asked");
        let status = call(&svc, &format!(r#"{{"op":"status","session":{id}}}"#));
        assert_eq!(field(&status, "unknowns").as_u64(), Some(1));
        assert_eq!(field(&status, "questions").as_u64(), Some(0));
    }

    #[test]
    fn examples_narrow_creation_and_errors_are_reported() {
        let svc = figure1_service();
        let resp = call(
            &svc,
            r#"{"op":"create","collection":"figure1","examples":["d"]}"#,
        );
        assert_eq!(field(&resp, "candidates").as_u64(), Some(3));
        let resp = call(
            &svc,
            r#"{"op":"create","collection":"figure1","examples":["zzz"]}"#,
        );
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        let resp = call(&svc, r#"{"op":"create","collection":"missing"}"#);
        assert!(field(&resp, "error")
            .as_str()
            .unwrap()
            .contains("unknown collection"));
        let resp = call(&svc, "garbage");
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
    }

    #[test]
    fn collections_lists_registry() {
        let svc = figure1_service();
        svc.registry().install_fixture("copyadd:10:0.5:1").unwrap();
        let resp = call(&svc, r#"{"op":"collections"}"#);
        let list = field(&resp, "collections").as_array().unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(field(&list[0], "name").as_str(), Some("copyadd:10:0.5:1"));
        assert_eq!(field(&list[1], "sets").as_u64(), Some(7));
        // Governance fields are always present: load state and accounted
        // bytes per collection (plan bytes 0 until a cache exists).
        assert_eq!(field(&list[0], "state").as_str(), Some("loaded"));
        assert!(field(&list[0], "bytes").as_u64().unwrap() > 0);
        assert_eq!(field(&list[0], "plan_bytes").as_u64(), Some(0));
        // A lazily registered fixture lists as `registered` with nothing
        // resident, and `create` materializes it transparently.
        svc.registry().register_fixture("copyadd:12:0.5:9").unwrap();
        let resp = call(&svc, r#"{"op":"collections"}"#);
        let list = field(&resp, "collections").as_array().unwrap();
        assert_eq!(field(&list[1], "state").as_str(), Some("registered"));
        assert_eq!(field(&list[1], "bytes").as_u64(), Some(0));
        assert_eq!(field(&list[1], "sets").as_u64(), Some(0));
        let made = call(&svc, r#"{"op":"create","collection":"copyadd:12:0.5:9"}"#);
        assert_eq!(field(&made, "ok").as_bool(), Some(true));
        let resp = call(&svc, r#"{"op":"collections"}"#);
        let list = field(&resp, "collections").as_array().unwrap();
        assert_eq!(field(&list[1], "state").as_str(), Some("loaded"));
        assert_eq!(field(&list[1], "sets").as_u64(), Some(12));
    }

    #[test]
    fn service_status_reports_plan_cache_hit_rates() {
        let svc = figure1_service();
        // Before any session: no cache installed, no plan fields.
        let resp = call(&svc, r#"{"op":"status"}"#);
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        assert_eq!(field(&resp, "sessions").as_u64(), Some(0));
        let list = field(&resp, "collections").as_array().unwrap();
        assert!(list[0].get("plan_nodes").is_none());

        // One full truthful session populates the plan; a second identical
        // one is served from it.
        for _ in 0..2 {
            let resp = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
            let id = field(&resp, "session").as_u64().unwrap();
            let target = ["a", "d", "e"];
            loop {
                let resp = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
                if field(&resp, "done").as_bool() == Some(true) {
                    break;
                }
                let entity = field(&resp, "entity").as_str().unwrap().to_string();
                let ans = if target.contains(&entity.as_str()) {
                    "yes"
                } else {
                    "no"
                };
                call(
                    &svc,
                    &format!(
                        r#"{{"op":"answer","session":{id},"entity":"{entity}","answer":"{ans}"}}"#
                    ),
                );
            }
            call(&svc, &format!(r#"{{"op":"close","session":{id}}}"#));
        }
        let resp = call(&svc, r#"{"op":"status"}"#);
        let list = field(&resp, "collections").as_array().unwrap();
        assert!(field(&list[0], "plan_nodes").as_u64().unwrap() > 0);
        assert!(field(&list[0], "plan_hits").as_u64().unwrap() > 0);
        let rate = field(&list[0], "plan_hit_rate").as_f64().unwrap();
        assert!(rate > 0.0 && rate <= 1.0);
    }

    #[test]
    fn plan_capacity_zero_disables_caching() {
        let svc = Service::new(ServiceConfig {
            plan_cache_capacity: 0,
            ..ServiceConfig::default()
        });
        svc.registry().install_fixture("figure1").unwrap();
        let resp = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        let id = field(&resp, "session").as_u64().unwrap();
        call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
        assert!(
            svc.registry()
                .get("figure1")
                .unwrap()
                .plan_cache()
                .is_none(),
            "no cache may be created when disabled"
        );
    }

    #[test]
    fn persist_plans_round_trips_through_config_path() {
        let dir = std::env::temp_dir().join(format!("setdisc_svc_persist_{}", std::process::id()));
        let path = dir.join("figure1.plan");
        let svc = Service::new(ServiceConfig {
            plan_persist: Some(path.clone()),
            ..ServiceConfig::default()
        });
        svc.registry().install_fixture("figure1").unwrap();
        assert_eq!(svc.persist_plans(), Ok(None), "nothing learned yet");
        let resp = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        let id = field(&resp, "session").as_u64().unwrap();
        call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
        let (name, nodes) = svc.persist_plans().unwrap().expect("one node learned");
        assert_eq!(name, "figure1");
        assert!(nodes >= 1);
        // A fresh service boots warm from the persisted plan and serves the
        // first root question from cache.
        let svc2 = figure1_service();
        let snap = svc2.registry().get("figure1").unwrap();
        let loaded = setdisc_plan::load_plan(&path, 0).unwrap();
        snap.install_plan_cache(std::sync::Arc::new(loaded))
            .unwrap();
        let resp = call(&svc2, r#"{"op":"create","collection":"figure1"}"#);
        let id = field(&resp, "session").as_u64().unwrap();
        call(&svc2, &format!(r#"{{"op":"ask","session":{id}}}"#));
        let stats = snap.plan_cache().unwrap().stats();
        assert!(stats.hits >= 1, "warm boot must hit: {stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn weighted_create_labels_and_separate_plans() {
        let svc = figure1_service();
        // A skewed prior on S2 flows into the strategy label; a uniform
        // (after GCD) prior is served by the classic path.
        let resp = call(
            &svc,
            r#"{"op":"create","collection":"figure1","prior":[1,50,1,1,1,1,1]}"#,
        );
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        let id = field(&resp, "session").as_u64().unwrap();
        let status = call(&svc, &format!(r#"{{"op":"status","session":{id}}}"#));
        let label = field(&status, "strategy").as_str().unwrap();
        assert!(label.starts_with("k-LP(k=2,AD,w:"), "{label}");
        let resp = call(
            &svc,
            r#"{"op":"create","collection":"figure1","prior":[3,3,3,3,3,3,3]}"#,
        );
        let id = field(&resp, "session").as_u64().unwrap();
        let status = call(&svc, &format!(r#"{{"op":"status","session":{id}}}"#));
        assert_eq!(field(&status, "strategy").as_str(), Some("k-LP(k=2,AD)"));
        // Validation errors surface verbatim.
        let resp = call(
            &svc,
            r#"{"op":"create","collection":"figure1","prior":[1,2]}"#,
        );
        assert!(field(&resp, "error").as_str().unwrap().contains("covers"));
        let resp = call(
            &svc,
            r#"{"op":"create","collection":"figure1","prior":[1,0,1,1,1,1,1]}"#,
        );
        assert!(field(&resp, "error").as_str().unwrap().contains("zero"));
        let resp = call(
            &svc,
            r#"{"op":"create","collection":"figure1","strategy":"info-gain","prior":[1,50,1,1,1,1,1]}"#,
        );
        assert!(field(&resp, "error")
            .as_str()
            .unwrap()
            .contains("does not support a prior"));
    }

    #[test]
    fn weighted_sessions_hit_their_own_plan_and_report_it() {
        let svc = figure1_service();
        let create = r#"{"op":"create","collection":"figure1","prior":[1,50,1,1,1,1,1]}"#;
        // Two identical weighted sessions: the second is served warm.
        for _ in 0..2 {
            let resp = call(&svc, create);
            let id = field(&resp, "session").as_u64().unwrap();
            let target = ["a", "d", "e"];
            loop {
                let resp = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
                if field(&resp, "done").as_bool() == Some(true) {
                    assert_eq!(field(&resp, "discovered").as_str(), Some("S2"));
                    break;
                }
                let entity = field(&resp, "entity").as_str().unwrap().to_string();
                let ans = if target.contains(&entity.as_str()) {
                    "yes"
                } else {
                    "no"
                };
                call(
                    &svc,
                    &format!(
                        r#"{{"op":"answer","session":{id},"entity":"{entity}","answer":"{ans}"}}"#
                    ),
                );
            }
            call(&svc, &format!(r#"{{"op":"close","session":{id}}}"#));
        }
        let resp = call(&svc, r#"{"op":"status"}"#);
        let list = field(&resp, "collections").as_array().unwrap();
        assert!(
            field(&list[0], "plan_weighted_hits").as_u64().unwrap() > 0,
            "warm weighted run must report weighted plan hits"
        );
    }

    #[test]
    fn recover_session_backtracks_instead_of_closing() {
        let svc = figure1_service();
        let resp = call(
            &svc,
            r#"{"op":"create","collection":"figure1","recover":true}"#,
        );
        let id = field(&resp, "session").as_u64().unwrap();
        // e → only S2 (a lie, marked unconfident); then f → only S3:
        // contradiction. Recovery flips the unconfident entry and the
        // session survives with S3 as the sole candidate.
        call(
            &svc,
            &format!(
                r#"{{"op":"answer","session":{id},"entity":"e","answer":"yes","confident":false}}"#
            ),
        );
        let resp = call(
            &svc,
            &format!(r#"{{"op":"answer","session":{id},"entity":"f","answer":"yes"}}"#),
        );
        assert_eq!(field(&resp, "ok").as_bool(), Some(true), "{resp:?}");
        assert_eq!(field(&resp, "candidates").as_u64(), Some(1));
        assert_eq!(field(&resp, "backtracks").as_u64(), Some(1));
        let status = call(&svc, &format!(r#"{{"op":"status","session":{id}}}"#));
        assert_eq!(field(&status, "discovered").as_str(), Some("S3"));
        assert_eq!(field(&status, "backtracks").as_u64(), Some(1));
        // Without recover, the same lies close the session (regression for
        // the empty-candidate-set path).
        let resp = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        let id = field(&resp, "session").as_u64().unwrap();
        call(
            &svc,
            &format!(r#"{{"op":"answer","session":{id},"entity":"e","answer":"yes"}}"#),
        );
        let resp = call(
            &svc,
            &format!(r#"{{"op":"answer","session":{id},"entity":"f","answer":"yes"}}"#),
        );
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        assert!(field(&resp, "error")
            .as_str()
            .unwrap()
            .contains("contradict"));
    }

    #[test]
    fn multiple_choice_ask_batches_and_choice_resolves() {
        let svc = figure1_service();
        let resp = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        let id = field(&resp, "session").as_u64().unwrap();
        let ask = call(
            &svc,
            &format!(r#"{{"op":"ask","session":{id},"choices":3}}"#),
        );
        let batch: Vec<String> = field(&ask, "entities")
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect();
        assert_eq!(batch.len(), 3);
        assert_eq!(field(&ask, "entity").as_str(), Some(batch[0].as_str()));
        // Re-ask (even without "choices") returns the outstanding batch.
        let again = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
        assert_eq!(field(&again, "entities").as_array().unwrap().len(), 3);
        // Out-of-range pick leaves the batch outstanding; a truthful pick
        // consumes it. First-applicable semantics: No for every entity
        // before the pick, Yes at the pick (or all No for "none of these"),
        // so between 1 and 3 questions are charged.
        let target = ["a", "d", "e"];
        let resp = call(
            &svc,
            &format!(r#"{{"op":"answer","session":{id},"choice":4}}"#),
        );
        assert!(field(&resp, "error")
            .as_str()
            .unwrap()
            .contains("out of range"));
        let choice = batch
            .iter()
            .position(|e| target.contains(&e.as_str()))
            .unwrap_or(batch.len());
        let resp = call(
            &svc,
            &format!(r#"{{"op":"answer","session":{id},"choice":{choice}}}"#),
        );
        assert_eq!(field(&resp, "ok").as_bool(), Some(true), "{resp:?}");
        let asked = field(&resp, "questions").as_u64().unwrap();
        assert!((1..=3).contains(&asked), "charged {asked} questions");
        // A choice with no outstanding batch is an error.
        let resp = call(
            &svc,
            &format!(r#"{{"op":"answer","session":{id},"choice":0}}"#),
        );
        assert!(field(&resp, "error")
            .as_str()
            .unwrap()
            .contains("no outstanding"));
        // The session still resolves truthfully for target S2.
        loop {
            let resp = call(
                &svc,
                &format!(r#"{{"op":"ask","session":{id},"choices":4}}"#),
            );
            if field(&resp, "done").as_bool() == Some(true) {
                assert_eq!(field(&resp, "discovered").as_str(), Some("S2"));
                break;
            }
            let batch: Vec<String> = match field(&resp, "entities").as_array() {
                Some(items) => items
                    .iter()
                    .map(|v| v.as_str().unwrap().to_string())
                    .collect(),
                None => vec![field(&resp, "entity").as_str().unwrap().to_string()],
            };
            let choice = batch
                .iter()
                .position(|e| target.contains(&e.as_str()))
                .unwrap_or(batch.len());
            let resp = call(
                &svc,
                &format!(r#"{{"op":"answer","session":{id},"choice":{choice}}}"#),
            );
            assert_eq!(field(&resp, "ok").as_bool(), Some(true), "{resp:?}");
        }
    }

    #[test]
    fn verbose_status_emits_every_edge_counter() {
        let svc = figure1_service();
        // Default: a fault-free service shows no edge counters at all.
        let resp = call(&svc, r#"{"op":"status"}"#);
        assert!(resp.get("panics").is_none());
        // Verbose: the full stable schema, zeros included.
        let resp = call(&svc, r#"{"op":"status","verbose":true}"#);
        for key in [
            "panics",
            "quarantined",
            "shed_connections",
            "shed_requests",
            "too_large",
            "deadline_drops",
            "accept_retries",
        ] {
            assert_eq!(field(&resp, key).as_u64(), Some(0), "{key}");
        }
    }

    #[test]
    fn metrics_op_reports_sites_edges_and_plans() {
        let svc = figure1_service();
        let resp = call(&svc, r#"{"op":"metrics"}"#);
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        assert_eq!(field(&resp, "op").as_str(), Some("metrics"));
        assert_eq!(field(&resp, "sessions").as_u64(), Some(0));
        let sites = field(&resp, "sites").as_array().unwrap();
        assert_eq!(sites.len(), setdisc_util::obs::SITES.len());
        for s in sites {
            for key in ["site", "count", "sum", "p50", "p90", "p99"] {
                assert!(s.get(key).is_some(), "site missing {key}: {s:?}");
            }
        }
        // Edge counters appear zero-valued (stable schema), and read the
        // same cells as status.
        let edge = field(&resp, "edge").as_array().unwrap();
        assert_eq!(edge.len(), 7);
        assert_eq!(field(&edge[0], "counter").as_str(), Some("panics"));
        assert_eq!(field(&edge[0], "value").as_u64(), Some(0));
        // Plan counters reconcile with the status report after a session.
        let create = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        let id = field(&create, "session").as_u64().unwrap();
        call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
        let metrics = call(&svc, r#"{"op":"metrics"}"#);
        let status = call(&svc, r#"{"op":"status"}"#);
        let m = &field(&metrics, "collections").as_array().unwrap()[0];
        let s = &field(&status, "collections").as_array().unwrap()[0];
        assert_eq!(
            field(m, "plan_hits").as_u64(),
            field(s, "plan_hits").as_u64()
        );
        assert_eq!(
            field(m, "plan_misses").as_u64(),
            field(s, "plan_misses").as_u64()
        );
        assert!(field(m, "plan_inserted").as_u64().unwrap() >= 1);
    }

    #[test]
    fn prometheus_rendering_matches_the_minimal_grammar() {
        let svc = figure1_service();
        let resp = call(&svc, r#"{"op":"metrics","format":"prometheus"}"#);
        let text = field(&resp, "text").as_str().unwrap();
        let mut samples = 0;
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "bad comment: {line}");
                continue;
            }
            samples += 1;
            let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| {
                panic!("sample must be `name value`: {line}");
            });
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
            let bare = match name.split_once('{') {
                Some((metric, labels)) => {
                    assert!(labels.ends_with('}'), "unclosed labels: {line}");
                    let body = &labels[..labels.len() - 1];
                    let (key, val) = body.split_once("=\"").unwrap_or_else(|| {
                        panic!("label must be key=\"value\": {line}");
                    });
                    assert!(val.ends_with('"'), "unterminated label: {line}");
                    assert!(
                        key.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                        "bad label key in: {line}"
                    );
                    metric
                }
                None => name,
            };
            assert!(
                bare.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "bad metric name in: {line}"
            );
            assert!(bare.starts_with("setdisc_"), "unprefixed metric: {line}");
        }
        assert!(samples > 20, "expected a full exposition, got {samples}");
    }

    #[test]
    fn trace_records_asks_and_answers_for_replay() {
        let svc = figure1_service();
        let resp = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        let id = field(&resp, "session").as_u64().unwrap();
        let target = ["a", "d", "e"];
        loop {
            let resp = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
            if field(&resp, "done").as_bool() == Some(true) {
                break;
            }
            let entity = field(&resp, "entity").as_str().unwrap().to_string();
            let ans = if target.contains(&entity.as_str()) {
                "yes"
            } else {
                "no"
            };
            call(
                &svc,
                &format!(
                    r#"{{"op":"answer","session":{id},"entity":"{entity}","answer":"{ans}"}}"#
                ),
            );
        }
        let trace = call(&svc, &format!(r#"{{"op":"trace","session":{id}}}"#));
        assert_eq!(field(&trace, "ok").as_bool(), Some(true));
        assert_eq!(field(&trace, "dropped").as_u64(), Some(0));
        let events = field(&trace, "events").as_array().unwrap();
        let asks: Vec<_> = events
            .iter()
            .filter(|e| field(e, "kind").as_str() == Some("ask"))
            .collect();
        let answers: Vec<_> = events
            .iter()
            .filter(|e| field(e, "kind").as_str() == Some("answer"))
            .collect();
        assert_eq!(asks.len(), answers.len(), "one selection per answer");
        assert!(!asks.is_empty());
        // Ask events carry the view size and selection timing; every
        // answer narrows (before > after on this truthful run).
        for ask in &asks {
            assert!(field(ask, "candidates").as_u64().unwrap() >= 2);
            assert!(ask.get("select_us").is_some());
        }
        for ans in &answers {
            let before = field(ans, "before").as_u64().unwrap();
            let after = field(ans, "after").as_u64().unwrap();
            assert!(before >= after, "answers narrow: {before} -> {after}");
        }
        // The traced (entity, answer) pairs replay to the same resolution
        // on a fresh direct engine (bit-identity is asserted end-to-end in
        // the e2e_concurrent suite).
        let status = call(&svc, &format!(r#"{{"op":"status","session":{id}}}"#));
        assert_eq!(
            field(&status, "questions").as_u64(),
            Some(answers.len() as u64)
        );
        // Unknown sessions error like any session op.
        let missing = call(&svc, r#"{"op":"trace","session":999}"#);
        assert_eq!(field(&missing, "ok").as_bool(), Some(false));
    }

    #[test]
    fn capacity_limit_applies_to_create() {
        let svc = Service::new(ServiceConfig {
            max_sessions: 1,
            ..ServiceConfig::default()
        });
        svc.registry().install_fixture("figure1").unwrap();
        let first = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        assert_eq!(field(&first, "ok").as_bool(), Some(true));
        let second = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        assert_eq!(field(&second, "ok").as_bool(), Some(false));
        assert!(field(&second, "error").as_str().unwrap().contains("full"));
        // Session exhaustion is structured backpressure, not a hard error.
        assert_eq!(field(&second, "code").as_str(), Some("overloaded"));
        assert_eq!(field(&second, "retry_after").as_u64(), Some(1));
    }

    #[test]
    fn memory_budget_sheds_creates_but_never_established_sessions() {
        let svc = figure1_service();
        let first = call(
            &svc,
            r#"{"op":"create","collection":"figure1","examples":["d"]}"#,
        );
        let id = field(&first, "session").as_u64().unwrap();
        // Tighten the budget below what a second session would need: the
        // ladder cannot unload figure1 (the live session holds its lease),
        // so the create is shed with the structured overloaded shape.
        let registry = svc.registry();
        registry.set_budget(
            registry.collections_bytes() + registry.plan_cache_bytes() + svc.session_bytes() + 4096,
        );
        let second = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        assert_eq!(field(&second, "ok").as_bool(), Some(false));
        assert_eq!(field(&second, "code").as_str(), Some("overloaded"));
        assert_eq!(field(&second, "retry_after").as_u64(), Some(1));
        assert!(registry.governor().sheds() >= 1);
        assert_eq!(registry.governor().unloads(), 0, "leased snapshot kept");
        // The established session is untouched and still serves.
        let resp = call(&svc, &format!(r#"{{"op":"ask","session":{id}}}"#));
        assert_eq!(field(&resp, "ok").as_bool(), Some(true));
        let status = call(&svc, r#"{"op":"status","verbose":true}"#);
        assert_eq!(field(&status, "sessions").as_u64(), Some(1));
        assert!(field(&status, "mem_sheds").as_u64().unwrap() >= 1);
        assert!(field(&status, "mem_total_bytes").as_u64().unwrap() > 0);
        // Closing the session releases the lease; the same create now
        // fits after the ladder reclaims what it must.
        call(&svc, &format!(r#"{{"op":"close","session":{id}}}"#));
        let third = call(&svc, r#"{"op":"create","collection":"figure1"}"#);
        assert_eq!(field(&third, "ok").as_bool(), Some(true), "{third:?}");
    }
}
