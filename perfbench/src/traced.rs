//! The traced run's replay of recorded sessions one layer further down at
//! a time: over the socket to a `serve` booted as the workload boots it,
//! over the socket to one booted with telemetry the other way, through
//! `Service::handle_line` in process, through a direct `Engine` with timed
//! strategy and plan cache, and through `SubCollection::partition`.
//!
//! Each replaying client runs every recorded session through all the
//! layers back to back, reversing their order every other session, so the
//! layers share the host's speed state and their differences hold. The
//! replay runs in one-second slices with a yardstick sample between them,
//! and every time is scaled to the reference speed like the end-to-end
//! timings.

use crate::check::Transcript;
use crate::client::{run_session, InProc, Job, Tcp, Timing, Transport};
use crate::gen::Corpus;
use crate::layers::{self, EngineReplay};
use crate::report::{percentile, Report};
use crate::serve::Server;
use crate::speed::{self, append_scaled};
use crate::trace;
use setdisc_core::prelude::*;
use setdisc_plan::{PlanCache, StrategyKey};
use setdisc_service::{Service, ServiceConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the workload boots the program.
pub struct Boot<'a> {
    pub corpus: &'a Corpus,
    pub file: &'a Path,
    /// Warm plan file (`wire_warm`); `None` boots with an empty plan.
    pub plan: Option<&'a Path>,
    /// Telemetry armed (`serve --metrics`).
    pub metrics: bool,
    pub serve: &'a PathBuf,
}

impl Boot<'_> {
    pub fn serve_args(&self, metrics: bool, plan_copy: &Path) -> Vec<String> {
        let mut args = vec![
            "--load".to_string(),
            format!("c={}", self.file.display()),
            "--checkpoint-ms".to_string(),
            "0".to_string(),
        ];
        if let Some(plan) = self.plan {
            // serve rewrites its plan file on drain; give it a copy.
            let _ = std::fs::copy(plan, plan_copy);
            args.push("--plan-cache".to_string());
            args.push(plan_copy.display().to_string());
        }
        if metrics {
            args.push("--metrics".to_string());
        }
        args
    }

    /// An in-process service booted as `serve` would be.
    pub fn service(&self) -> Result<Service, String> {
        let service = Service::new(ServiceConfig::default());
        service.registry().load_file("c", self.file)?;
        if let Some(plan) = self.plan {
            let cache = setdisc_plan::load_plan(plan, ServiceConfig::default().plan_cache_capacity)
                .map_err(|e| format!("load plan: {e}"))?;
            let snap = service.registry().get("c").ok_or("collection not loaded")?;
            snap.install_plan_cache(Arc::new(cache))?;
        }
        Ok(service)
    }
}

/// The recorded sessions, per client, in the order they ran.
pub type Recorded = Vec<Vec<(usize, Transcript)>>;

/// The layers a recorded session is replayed through.
#[derive(Clone, Copy)]
enum Layer {
    /// `serve` booted as the workload boots it.
    Socket,
    /// `serve` with telemetry armed the other way.
    OtherTelemetry,
    InProcess,
    Engine,
    /// The engine on an empty plan, where the workload's plan is warm and
    /// so is never written: it times the plan-cache records.
    ColdEngine,
    Partition,
}

/// What the replay measured; times in ns.
#[derive(Default)]
struct Times {
    socket: Timing,
    other: Timing,
    in_process: Timing,
    create_ns: Vec<u64>,
    engine: EngineReplay,
    cold: EngineReplay,
    partition_ns: Vec<u64>,
    /// Replayed sessions that failed or did not repeat the recording.
    mismatches: u64,
}

impl Times {
    fn append_scaled(&mut self, o: &Times, f: f64) {
        self.socket.append_scaled(&o.socket, f);
        self.other.append_scaled(&o.other, f);
        self.in_process.append_scaled(&o.in_process, f);
        append_scaled(&mut self.create_ns, &o.create_ns, f);
        self.engine.append_scaled(&o.engine, f);
        self.cold.append_scaled(&o.cold, f);
        append_scaled(&mut self.partition_ns, &o.partition_ns, f);
        self.mismatches += o.mismatches;
    }
}

/// What every replaying client shares.
struct Shared<'a> {
    corpus: &'a Corpus,
    jobs: &'a [Job],
    service: &'a Service,
    coll: &'a Arc<Collection>,
    plan: &'a Arc<PlanCache>,
    cold_plan: Option<Arc<PlanCache>>,
    key: StrategyKey,
    layers: Vec<Layer>,
}

/// One replaying client: the sessions one client of the recorded run ran.
struct Lane<'a> {
    sessions: &'a [(usize, Transcript)],
    next: usize,
    socket: Tcp,
    other: Tcp,
    times: Times,
    spans: Vec<trace::Span>,
}

impl Lane<'_> {
    fn finished(&self) -> bool {
        self.next >= self.sessions.len()
    }

    /// Replays whole sessions through every layer until `deadline`.
    fn run_until(&mut self, sh: &Shared<'_>, deadline: Instant) {
        let sessions = self.sessions;
        while Instant::now() < deadline && !self.finished() {
            let tag = self.next as u64;
            let (job, recorded) = &sessions[self.next];
            let job = &sh.jobs[*job];
            let mut order = sh.layers.clone();
            if self.next % 2 == 1 {
                order.reverse();
            }
            self.next += 1;
            let t = &mut self.times;
            for layer in order {
                match layer {
                    Layer::Socket | Layer::OtherTelemetry | Layer::InProcess => {
                        let mut in_process = InProc(sh.service);
                        let (transport, into): (&mut dyn Transport, _) = match layer {
                            Layer::Socket => (&mut self.socket, &mut t.socket),
                            Layer::OtherTelemetry => (&mut self.other, &mut t.other),
                            _ => (&mut in_process, &mut t.in_process),
                        };
                        let mut one = Timing::default();
                        let same = match run_session(transport, "c", sh.corpus, job, tag, &mut one)
                        {
                            Ok(r) => {
                                r.steps == recorded.steps && r.discovered == recorded.discovered
                            }
                            Err(_) => false,
                        };
                        into.append_scaled(&one, 1.0);
                        t.mismatches += u64::from(!same);
                        if let Layer::InProcess = layer {
                            t.create_ns.push(one.create_ns);
                        }
                    }
                    Layer::Engine => layers::replay_engine(
                        sh.coll,
                        sh.plan,
                        sh.key,
                        job,
                        recorded,
                        tag,
                        &mut t.engine,
                    ),
                    Layer::ColdEngine => {
                        if let Some(cold) = &sh.cold_plan {
                            layers::replay_engine(
                                sh.coll,
                                cold,
                                sh.key,
                                job,
                                recorded,
                                tag,
                                &mut t.cold,
                            )
                        }
                    }
                    Layer::Partition => {
                        layers::replay_partitions(sh.coll, job, recorded, &mut t.partition_ns)
                    }
                }
            }
        }
        self.spans.extend(trace::take());
    }
}

fn sum(v: &[u64]) -> u64 {
    v.iter().sum()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Replays `recorded` through every layer and adds the session-layer
/// metrics. Returns the number of replayed sessions that did not repeat
/// their recorded transcript, and the engine replay (whose selections are
/// the lookahead figures of a workload whose sessions select).
pub fn session_layers(
    boot: &Boot<'_>,
    jobs: &[Job],
    recorded: &Recorded,
    key: StrategyKey,
    out: &Path,
    report: &mut Report,
    spans: &mut Vec<Vec<trace::Span>>,
) -> Result<(u64, EngineReplay), String> {
    let questions: u64 = recorded
        .iter()
        .flatten()
        .map(|(_, t)| t.steps.len() as u64)
        .sum::<u64>()
        .max(1);
    let capacity = ServiceConfig::default().plan_cache_capacity;
    let server = Server::boot(
        boot.serve,
        &boot.serve_args(boot.metrics, &out.join("replay.plan")),
    )?;
    let other = Server::boot(
        boot.serve,
        &boot.serve_args(!boot.metrics, &out.join("other.plan")),
    )?;
    setdisc_util::obs::arm(boot.metrics);
    let service = boot.service()?;
    let coll =
        Arc::new(Collection::from_raw_sets(boot.corpus.sets.clone()).map_err(|e| e.to_string())?);
    let empty = || Arc::new(PlanCache::for_collection(&coll, capacity));
    let (plan, cold_plan) = match boot.plan {
        Some(p) => {
            let warm =
                setdisc_plan::load_plan(p, capacity).map_err(|e| format!("load plan: {e}"))?;
            (Arc::new(warm), Some(empty()))
        }
        None => (empty(), None),
    };
    let mut order = vec![
        Layer::Socket,
        Layer::OtherTelemetry,
        Layer::InProcess,
        Layer::Engine,
        Layer::Partition,
    ];
    if cold_plan.is_some() {
        order.push(Layer::ColdEngine);
    }
    let shared = Shared {
        corpus: boot.corpus,
        jobs,
        service: &service,
        coll: &coll,
        plan: &plan,
        cold_plan,
        key,
        layers: order,
    };
    let mut lanes = Vec::new();
    for sessions in recorded {
        lanes.push(Lane {
            sessions,
            next: 0,
            socket: Tcp::connect(&server.addr)?,
            other: Tcp::connect(&other.addr)?,
            times: Times::default(),
            spans: Vec::new(),
        });
    }
    let mut t = Times::default();
    let mut y = speed::sample();
    while !lanes.iter().all(Lane::finished) {
        let deadline = Instant::now() + Duration::from_secs(1);
        std::thread::scope(|s| {
            for lane in lanes.iter_mut() {
                let shared = &shared;
                s.spawn(move || lane.run_until(shared, deadline));
            }
        });
        let next = speed::sample();
        let f = speed::scale(y, next);
        for lane in &mut lanes {
            t.append_scaled(&std::mem::take(&mut lane.times), f);
        }
        y = next;
    }
    spans.extend(lanes.into_iter().map(|l| l.spans));
    drop(shared);
    server.shutdown()?;
    other.shutdown()?;

    let snap = service.registry().get("c").ok_or("collection not loaded")?;
    let served_plan = snap.plan_cache();
    let stats = served_plan.as_ref().map(|p| p.stats()).unwrap_or_default();
    let plan_bytes = served_plan.as_ref().map_or(0, |p| p.accounted_bytes());
    let collection_bytes = snap.collection_bytes();

    // Open sessions: the session table's accounted bytes per session.
    let mut open = Vec::new();
    for job in jobs.iter().take(64) {
        let examples: Vec<String> = job.examples.iter().map(|e| format!("\"e{e}\"")).collect();
        let resp = service.handle_line(&format!(
            "{{\"op\":\"create\",\"collection\":\"c\",\"k\":{},\"examples\":[{}]}}",
            job.k,
            examples.join(",")
        ));
        if let Some(id) = resp
            .split("\"session\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
        {
            service.handle_line(&format!("{{\"op\":\"ask\",\"session\":{id}}}"));
            open.push(id.to_string());
        }
    }
    let table_bytes = service.session_bytes() as f64 / service.open_sessions().max(1) as f64;
    for id in &open {
        service.handle_line(&format!("{{\"op\":\"close\",\"session\":{id}}}"));
    }

    // Plan load: the warm plan file, or the plan these sessions learned.
    let plan_file = match boot.plan {
        Some(p) => p.to_path_buf(),
        None => {
            let p = out.join("learned.plan");
            if let Some(plan) = &served_plan {
                setdisc_plan::save_plan(plan, &p).map_err(|e| format!("save plan: {e}"))?;
            }
            p
        }
    };
    let before = speed::sample();
    let started = Instant::now();
    let loaded = setdisc_plan::load_plan(&plan_file, capacity);
    let load_ms = started.elapsed().as_secs_f64() * 1e3 * speed::scale(before, speed::sample());
    loaded.map_err(|e| format!("load plan: {e}"))?;
    drop(snap);
    drop(service);
    setdisc_util::obs::arm(false);
    spans.push(trace::take());

    let q = questions as f64;
    let socket_ns = sum(&t.socket.request_ns);
    let handle_ns = sum(&t.in_process.request_ns);
    let engine_ns = sum(&t.engine.next_ns) + sum(&t.engine.answer_ns);
    let below_engine =
        sum(&t.engine.select_ns) + sum(&t.engine.cache.lookup_ns) + sum(&t.engine.cache.record_ns);
    // A warm plan is never written; its records are timed on the cold one.
    let mut record_ns = if boot.plan.is_some() {
        t.cold.cache.record_ns.clone()
    } else {
        t.engine.cache.record_ns.clone()
    };
    let (mut armed, mut disarmed) = (t.socket.question_ns.clone(), t.other.question_ns.clone());
    if !boot.metrics {
        std::mem::swap(&mut armed, &mut disarmed);
    }
    let diff_us = |a: u64, b: u64| (a as f64 - b as f64) / 1e3;
    report.add(
        "server.rtt_us_p50",
        us(percentile(&mut t.socket.request_ns, 0.5)),
        "us",
    );
    report.add(
        "server.self_us_per_question",
        diff_us(socket_ns, handle_ns) / q,
        "us",
    );
    report.add(
        "proto.bytes_per_question",
        t.in_process.question_bytes as f64 / q,
        "bytes",
    );
    report.add("service.handle_us_per_question", us(handle_ns) / q, "us");
    report.add(
        "service.self_us_per_question",
        diff_us(handle_ns, engine_ns) / q,
        "us",
    );
    report.add(
        "service.create_us_p50",
        us(percentile(&mut t.create_ns, 0.5)),
        "us",
    );
    report.add("table.bytes_per_session", table_bytes, "bytes");
    report.add("plan.hit_rate", stats.hit_rate(), "ratio");
    report.add(
        "plan.lookup_us_p50",
        us(percentile(&mut t.engine.cache.lookup_ns.clone(), 0.5)),
        "us",
    );
    report.add(
        "plan.record_us_p50",
        us(percentile(&mut record_ns, 0.5)),
        "us",
    );
    report.add("plan.bytes", plan_bytes as f64, "bytes");
    report.add("plan.load_ms", load_ms, "ms");
    report.add(
        "engine.next_question_us_p50",
        us(percentile(&mut t.engine.next_ns.clone(), 0.5)),
        "us",
    );
    report.add(
        "engine.next_question_us_p99",
        us(percentile(&mut t.engine.next_ns.clone(), 0.99)),
        "us",
    );
    report.add(
        "engine.answer_us_p50",
        us(percentile(&mut t.engine.answer_ns.clone(), 0.5)),
        "us",
    );
    report.add(
        "engine.self_us_per_question",
        diff_us(engine_ns, below_engine) / q,
        "us",
    );
    report.add(
        "subcollection.partition_ns_p50",
        percentile(&mut t.partition_ns, 0.5) as f64,
        "ns",
    );
    report.add("collection.bytes", collection_bytes as f64, "bytes");
    report.add(
        "obs.armed_us_per_question",
        diff_us(percentile(&mut armed, 0.5), percentile(&mut disarmed, 0.5)),
        "us",
    );
    Ok((
        t.mismatches + t.engine.mismatches + t.cold.mismatches,
        t.engine,
    ))
}

/// Lookahead and builder figures from trees built with a timed k-LP.
#[derive(Default)]
pub struct TreeLayers {
    pub select_ns: Vec<u64>,
    pub informative: u64,
    pub evaluated: u64,
    pub selections: u64,
    pub memo_entries: u64,
    pub builder_self_ns: u64,
}

impl TreeLayers {
    fn append_scaled(&mut self, o: &TreeLayers, f: f64) {
        append_scaled(&mut self.select_ns, &o.select_ns, f);
        self.informative += o.informative;
        self.evaluated += o.evaluated;
        self.selections += o.selections;
        self.memo_entries += o.memo_entries;
        self.builder_self_ns += (o.builder_self_ns as f64 * f) as u64;
    }
}

/// Builds one tree per view with k-LP(k, AD) wrapped in a timer. About
/// once a second, between trees, a yardstick sample scales the times of
/// the trees built since the last one.
pub fn tree_layers(coll: &Collection, views: &[Vec<u32>], k: u32) -> Result<TreeLayers, String> {
    let mut out = TreeLayers::default();
    let mut segment = TreeLayers::default();
    let mut y = speed::sample();
    let mut since = Instant::now();
    for (i, examples) in views.iter().enumerate() {
        let ex: Vec<EntityId> = examples.iter().map(|&e| EntityId(e)).collect();
        let view = coll.supersets_of(&ex);
        let mut strategy =
            layers::TimedStrategy::new(KLp::<AvgDepth>::new(k).record_stats(true), i as u64);
        let t = Instant::now();
        let tree = {
            let _s = trace::span("builder.build_tree", i as u64);
            build_tree(&view, &mut strategy).map_err(|e| e.to_string())?
        };
        let build_ns = t.elapsed().as_nanos() as u64;
        let select: u64 = strategy.select_ns.iter().sum();
        segment.builder_self_ns += build_ns.saturating_sub(select);
        segment.select_ns.append(&mut strategy.select_ns);
        for node in &strategy.inner.stats().nodes {
            segment.informative += u64::from(node.informative);
            segment.evaluated += u64::from(node.evaluated);
        }
        segment.selections += tree.n_internal() as u64;
        segment.memo_entries += strategy.inner.cache_len() as u64;
        if since.elapsed() >= Duration::from_secs(1) || i + 1 == views.len() {
            let next = speed::sample();
            out.append_scaled(&std::mem::take(&mut segment), speed::scale(y, next));
            y = next;
            since = Instant::now();
        }
    }
    Ok(out)
}

/// The lookahead, builder and input-layer metrics.
pub fn add_lookahead(
    report: &mut Report,
    mut select_ns: Vec<u64>,
    informative: u64,
    evaluated: u64,
    selections: u64,
    memo: u64,
) {
    report.add(
        "lookahead.select_us_p50",
        us(percentile(&mut select_ns, 0.5)),
        "us",
    );
    report.add(
        "lookahead.select_us_p99",
        us(percentile(&mut select_ns, 0.99)),
        "us",
    );
    report.add("lookahead.selections", selections as f64, "count");
    let nodes = select_ns.len().max(1) as f64;
    report.add(
        "lookahead.evaluated_per_selection",
        evaluated as f64 / nodes,
        "count",
    );
    let prune = if informative == 0 {
        0.0
    } else {
        1.0 - evaluated as f64 / informative as f64
    };
    report.add("lookahead.prune_rate", prune, "ratio");
    report.add("lookahead.memo_entries", memo as f64, "count");
}

/// `io.parse_self_s` and `collection.build_s` on the workload's corpus,
/// each timed between two yardstick samples.
pub fn add_io(report: &mut Report, corpus: &Corpus, file: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("read corpus: {e}"))?;
    let before = speed::sample();
    let t = Instant::now();
    let parsed = setdisc_core::io::parse_collection(&text);
    let parse_s = t.elapsed().as_secs_f64() * speed::scale(before, speed::sample());
    drop(parsed.map_err(|e| e.to_string())?);
    let raw = corpus.sets.clone();
    let before = speed::sample();
    let t = Instant::now();
    let built = Collection::from_raw_sets(raw);
    let build_s = t.elapsed().as_secs_f64() * speed::scale(before, speed::sample());
    drop(built.map_err(|e| e.to_string())?);
    report.add("io.parse_self_s", parse_s - build_s, "s");
    report.add("collection.build_s", build_s, "s");
    Ok(())
}
