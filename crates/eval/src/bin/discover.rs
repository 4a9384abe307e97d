//! Interactive set-discovery REPL — the paper's opening scenario as a tool.
//!
//! ```text
//! discover <sets.txt> [--strategy NAME] [--metric ad|h] [--k N] [--beam Q]
//!          [--examples e1,e2] [--plan-cache PATH] [--trace] [--explain]
//! discover precompute (<sets.txt> | --fixture SPEC) --out PATH
//!          [--strategy NAME] [--metric ad|h] [--k N] [--beam Q]
//!          [--max-nodes N] [--max-depth D]
//! ```
//!
//! `sets.txt` uses the `setdisc_core::io` format (one set per line,
//! `name: member member …`). The tool filters to supersets of `--examples`,
//! then asks membership questions on stdin (`y` / `n` / `?` for don't-know
//! / `q` to stop) until one set remains.
//!
//! `--plan-cache PATH` loads a question plan (if the file exists; it must
//! match the collection) so selections come from the persisted decision
//! tree, and writes the updated plan back on exit — the same file format
//! the `serve` binary's `--plan-cache` consumes. The `precompute`
//! subcommand builds such a file offline: it expands the strategy's
//! decision tree breadth-first to the node/depth budget and saves it, so a
//! service boots warm without ever paying the lookahead cost online.
//!
//! `--trace` records the same structured question trace the service's
//! `trace` wire op exposes (ask events with selection timing and Table-4
//! prune counts, answer events with candidate-set deltas) and prints it as
//! one JSON object after the conversation ends — so a terminal run can be
//! diffed event-for-event against a wire-protocol run.
//!
//! `--explain` arms the engine's decision provenance (the same record the
//! service's `explain` wire op reports): after each question is selected,
//! the full why — ranked candidates with Table-4 prune outcomes,
//! plan-cache disposition, counting-kernel dispatch with its predicted
//! cost inputs and measured pass time — prints as one JSON line. The two
//! flags compose: with both, `--trace` additionally rings a compact
//! explain event beside each ask, exactly as the service does. Arming
//! explain never changes which questions are asked (a pinned engine
//! property).
//!
//! The CLI is a thin terminal driver over the *same* stack the network
//! service runs: collections become `setdisc_service::Snapshot`s,
//! strategies are built through `StrategySpec`, and the question loop steps
//! a sans-IO `Engine` — so a terminal conversation and a wire-protocol
//! conversation with the same configuration ask identical questions.

use setdisc_core::analysis::CollectionProfile;
use setdisc_core::discovery::Answer;
use setdisc_core::engine::Engine;
use setdisc_core::weights::WeightTable;
use setdisc_plan::{PlanCache, PrecomputeBudget, ScopedPlanCache};
use setdisc_service::strategy::BoxedStrategy;
use setdisc_service::{Snapshot, SnapshotHandle, StrategySpec};
use setdisc_util::report::JsonObject;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: discover <sets.txt> [--strategy klp|klp-le|klp-lve|most-even|info-gain|\
         indist-pairs|lb1|random] [--metric ad|h] [--k N] [--beam Q] [--examples e1,e2,...]\n\
         \x20                [--plan-cache PATH] [--prior w1,w2,...] [--trace] [--explain]\n\
         \x20      discover precompute (<sets.txt> | --fixture SPEC) --out PATH\n\
         \x20                [--strategy ...] [--metric ad|h] [--k N] [--beam Q]\n\
         \x20                [--prior w1,w2,...] [--max-nodes N] [--max-depth D]"
    );
    std::process::exit(2);
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Everything both modes share: the source collection and strategy spec.
struct CommonArgs {
    path: Option<String>,
    fixture: Option<String>,
    strategy_name: String,
    metric: Option<String>,
    k: Option<u64>,
    beam: Option<u64>,
    examples: Vec<String>,
    plan_cache: Option<String>,
    prior: Option<Vec<u64>>,
    trace: bool,
    explain: bool,
    out: Option<String>,
    max_nodes: usize,
    max_depth: u32,
}

fn parse_args(args: impl Iterator<Item = String>) -> (bool, CommonArgs) {
    let mut precompute = false;
    let mut c = CommonArgs {
        path: None,
        fixture: None,
        strategy_name: "klp".to_string(),
        metric: None,
        k: None,
        beam: None,
        examples: Vec::new(),
        plan_cache: None,
        prior: None,
        trace: false,
        explain: false,
        out: None,
        max_nodes: 4096,
        max_depth: 16,
    };
    let mut it = args.peekable();
    if it.peek().map(String::as_str) == Some("precompute") {
        precompute = true;
        it.next();
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--strategy" => c.strategy_name = it.next().unwrap_or_else(|| usage()),
            "--metric" => c.metric = Some(it.next().unwrap_or_else(|| usage())),
            "--k" => {
                c.k = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--beam" => {
                c.beam = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--examples" => {
                c.examples = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(str::to_string)
                    .collect()
            }
            "--plan-cache" => c.plan_cache = Some(it.next().unwrap_or_else(|| usage())),
            "--trace" => c.trace = true,
            "--explain" => c.explain = true,
            "--prior" => {
                c.prior = Some(
                    it.next()
                        .unwrap_or_else(|| usage())
                        .split(',')
                        .map(|w| w.parse().map_err(|_| ()))
                        .collect::<Result<Vec<u64>, ()>>()
                        .unwrap_or_else(|()| usage()),
                )
            }
            "--fixture" => c.fixture = Some(it.next().unwrap_or_else(|| usage())),
            "--out" => c.out = Some(it.next().unwrap_or_else(|| usage())),
            "--max-nodes" => {
                c.max_nodes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--max-depth" => {
                c.max_depth = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            other if c.path.is_none() && !other.starts_with('-') => {
                c.path = Some(other.to_string())
            }
            _ => usage(),
        }
    }
    (precompute, c)
}

/// Builds the snapshot from a file path or a fixture spec.
fn load_snapshot(c: &CommonArgs) -> Arc<Snapshot> {
    match (&c.path, &c.fixture) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            Snapshot::parse(path.clone(), &text)
                .unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")))
        }
        (None, Some(spec)) => setdisc_service::snapshot::fixture(spec).unwrap_or_else(|e| die(&e)),
        _ => usage(),
    }
}

fn parse_spec(c: &CommonArgs) -> StrategySpec {
    // `--beam` selects the k-LPLE family unless one was named explicitly.
    let mut name = c.strategy_name.clone();
    if c.beam.is_some() && name == "klp" {
        name = "klp-le".to_string();
    }
    StrategySpec::parse(&name, c.metric.as_deref(), c.k, c.beam, None).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

/// Resolves `--prior` into a weight table for the loaded collection.
/// `None` when no prior was given *or* it is uniform (a uniform prior is
/// the unweighted problem — keep the classic shareable plan partition).
fn build_prior(c: &CommonArgs, snapshot: &Snapshot) -> Option<Arc<WeightTable>> {
    let raw = c.prior.as_deref()?;
    if raw.len() != snapshot.collection().len() {
        die(&format!(
            "--prior covers {} sets but {} has {}",
            raw.len(),
            snapshot.name(),
            snapshot.collection().len()
        ));
    }
    let table = WeightTable::new(raw).unwrap_or_else(|e| die(&e));
    if table.is_uniform() {
        return None;
    }
    Some(Arc::new(table))
}

/// Builds the (strategy, label, plan key) triple the spec + optional prior
/// resolve to — the same resolution the service's `create` performs.
fn resolve_strategy(
    spec: &StrategySpec,
    weights: Option<&Arc<WeightTable>>,
) -> (BoxedStrategy, String, Option<setdisc_plan::StrategyKey>) {
    match weights {
        Some(w) => {
            let strategy = spec
                .build_weighted(Arc::clone(w))
                .unwrap_or_else(|e| die(&e));
            (strategy, spec.weighted_label(w), spec.weighted_plan_key(w))
        }
        None => (spec.build(), spec.label(), spec.plan_key()),
    }
}

fn run_precompute(c: &CommonArgs) {
    let snapshot = load_snapshot(c);
    let spec = parse_spec(c);
    let weights = build_prior(c, &snapshot);
    let (mut strategy, label, key) = resolve_strategy(&spec, weights.as_ref());
    let Some(key) = key else {
        die("the random strategy cannot be precomputed (no shareable plan)");
    };
    let out = c.out.as_deref().unwrap_or_else(|| usage());
    let collection = snapshot.collection();
    // Each of the cache's shards evicts at its own bound and hash shards
    // fill unevenly, so the cache gets twice the node budget: every shard
    // then has about twice the room its expected share of the computed
    // nodes needs. Spare capacity costs nothing, as shard tables grow only
    // with the nodes they hold.
    let capacity = c.max_nodes.saturating_mul(2).max(1024);
    let cache = Arc::new(PlanCache::for_collection(collection, capacity));
    let budget = PrecomputeBudget {
        max_nodes: c.max_nodes,
        max_depth: c.max_depth,
    };
    let report = setdisc_plan::precompute(&cache, key, collection, strategy.as_mut(), &budget);
    let nodes = setdisc_plan::save_plan(&cache, out)
        .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    println!(
        "precomputed {} ({label}): {} nodes to depth {}{} -> {out} ({nodes} saved)",
        snapshot.name(),
        report.computed + report.already_cached,
        report.depth_reached,
        if report.truncated {
            " (budget hit; deeper tree remains)"
        } else {
            " (complete)"
        },
    );
}

/// Renders a provenance record as the same JSON shape the service's
/// `explain` wire op reports (minus the session envelope), so terminal
/// and wire explanations diff field-for-field.
fn render_provenance(p: &setdisc_core::engine::Provenance, snapshot: &Snapshot) -> JsonObject {
    let mut obj = JsonObject::new()
        .int("question", p.question as u64)
        .str("entity", &snapshot.entity_label(p.entity))
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
    if let Some(t) = &p.trace {
        let ranked = t
            .ranked
            .iter()
            .map(|c| {
                JsonObject::new()
                    .str("entity", &snapshot.entity_label(c.entity))
                    .int("count", u64::from(c.count))
                    .int("rank", u64::from(c.rank))
                    .str("outcome", c.outcome.name())
            })
            .collect();
        obj = obj
            .array("ranked", ranked)
            .int("informative", u64::from(t.informative))
            .int("evaluated", u64::from(t.evaluated))
            .int("pruned_duplicate", u64::from(t.pruned_duplicate))
            .int("pruned_bound", u64::from(t.pruned_bound))
            .bool("memo_hit", t.memo_hit);
    }
    obj
}

fn main() {
    let (precompute, args) = parse_args(std::env::args().skip(1));
    if precompute {
        run_precompute(&args);
        return;
    }

    let snapshot = load_snapshot(&args);
    let spec = parse_spec(&args);

    let profile = CollectionProfile::new(snapshot.collection(), 500, 0);
    println!(
        "{} sets, {} entities ({} informative); expected ≥{:.2} questions, worst case {}",
        profile.n_sets,
        profile.distinct_entities,
        profile.informative_entities,
        profile.lb_avg_questions,
        profile.worst_case_questions
    );

    let initial: Vec<setdisc_core::EntityId> = args
        .examples
        .iter()
        .map(|name| {
            snapshot
                .resolve_entity(name)
                .unwrap_or_else(|| die(&format!("unknown example entity {name:?}")))
        })
        .collect();

    // The exact engine type the service's session table stores, resolved
    // through the same strategy-plus-prior path its `create` uses.
    let weights = build_prior(&args, &snapshot);
    let (strategy, label, plan_key) = resolve_strategy(&spec, weights.as_ref());
    let mut engine: Engine<SnapshotHandle, BoxedStrategy> =
        Engine::new(SnapshotHandle(Arc::clone(&snapshot)), &initial, strategy);
    if args.explain {
        // Provenance capture is read-only — the question sequence is
        // bit-identical to an unarmed run.
        engine.set_explain(true);
    }

    // Load (or lazily create) the shared plan so this terminal session
    // reads and extends the same decision tree a service would. Loaded
    // plans keep the same capacity a fresh one gets — bounding the cache
    // to exactly its payload would make each run evict the prefix the
    // previous run saved.
    const PLAN_CAPACITY: usize = 1 << 18;
    let plan = args.plan_cache.as_deref().map(|path| {
        let cache = if Path::new(path).exists() {
            let cache = setdisc_plan::load_plan(path, PLAN_CAPACITY)
                .unwrap_or_else(|e| die(&format!("cannot load plan {path}: {e}")));
            if !cache.matches(snapshot.collection()) {
                die(&format!("plan {path} was built for a different collection"));
            }
            println!("loaded plan cache: {} nodes", cache.len());
            // Plans are partitioned by strategy key — a weighted session
            // never reads an unweighted plan (and vice versa), so say so
            // up front instead of silently running cold.
            if let Some(key) = plan_key {
                if !cache.covers_strategy(key) {
                    eprintln!(
                        "note: plan {path} has no nodes for {label} \
                         ({} other strategies present); it will be extended on exit",
                        cache.strategy_keys().len()
                    );
                }
            }
            Arc::new(cache)
        } else {
            Arc::new(PlanCache::for_collection(
                snapshot.collection(),
                PLAN_CAPACITY,
            ))
        };
        if let Some(key) = plan_key {
            if let Some(scope) =
                ScopedPlanCache::new(Arc::clone(&cache), key, snapshot.collection())
            {
                engine.set_selection_cache(Some(Arc::new(scope)));
            }
        } else {
            eprintln!("note: the random strategy shares no plan; cache not consulted");
        }
        (path.to_string(), cache)
    });

    println!(
        "{} candidate sets match your examples ({label})",
        engine.candidate_count()
    );

    let mut trace: Option<Vec<JsonObject>> = args.trace.then(Vec::new);
    let mut seq = 0u64;
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    while !engine.is_resolved() {
        let candidates = engine.candidate_count() as u64;
        let started = std::time::Instant::now();
        let Some(entity) = engine.next_question() else {
            println!("no more informative questions — remaining candidates:");
            break;
        };
        if let Some(events) = trace.as_mut() {
            let select_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            let (informative, evaluated) = engine.last_selection_stats().unwrap_or((0, 0));
            events.push(
                JsonObject::new()
                    .int("seq", seq)
                    .str("kind", "ask")
                    .str("entity", &snapshot.entity_label(entity))
                    .int("candidates", candidates)
                    .int("select_us", select_us)
                    .int("informative", u64::from(informative))
                    .int("evaluated", u64::from(evaluated)),
            );
            seq += 1;
        }
        if args.explain {
            if let Some(p) = engine.provenance() {
                // Full record to the terminal; a compact ring event into
                // the trace (the same composition the service performs).
                println!("  explain {}", render_provenance(p, &snapshot).encode());
                if let Some(events) = trace.as_mut() {
                    events.push(
                        JsonObject::new()
                            .int("seq", seq)
                            .str("kind", "explain")
                            .str("entity", &snapshot.entity_label(p.entity))
                            .int("candidates", p.candidates as u64)
                            .str("plan", p.plan.name())
                            .int("bound", p.bound)
                            .str(
                                "kernel",
                                if p.dispatch.use_postings {
                                    "postings"
                                } else {
                                    "elements"
                                },
                            )
                            .int("count_ns", p.measured_count_ns),
                    );
                    seq += 1;
                }
            }
        }
        print!(
            "is {:?} in your set? [y/n/?/q] ",
            snapshot.entity_label(entity)
        );
        std::io::stdout().flush().ok();
        let line = match lines.next() {
            Some(Ok(l)) => l,
            _ => break,
        };
        let answer = match line.trim() {
            "y" | "yes" => Answer::Yes,
            "n" | "no" => Answer::No,
            "?" => Answer::Unknown,
            "q" | "quit" => break,
            other => {
                println!("  (unrecognized {other:?}; asking again)");
                continue;
            }
        };
        let before = engine.candidate_count() as u64;
        engine.answer(entity, answer);
        if let Some(events) = trace.as_mut() {
            let token = match answer {
                Answer::Yes => "yes",
                Answer::No => "no",
                Answer::Unknown => "unknown",
            };
            events.push(
                JsonObject::new()
                    .int("seq", seq)
                    .str("kind", "answer")
                    .str("entity", &snapshot.entity_label(entity))
                    .str("answer", token)
                    .int("before", before)
                    .int("after", engine.candidate_count() as u64)
                    .int("backtracks", engine.backtracks() as u64),
            );
            seq += 1;
        }
    }
    let outcome = engine.outcome();
    match outcome.discovered() {
        Some(id) => println!(
            "→ your set is {:?} (after {} questions)",
            snapshot.set_label(id),
            outcome.questions
        ),
        None => {
            for id in &outcome.candidates {
                println!("  - {}", snapshot.set_label(*id));
            }
            println!("({} candidates remain)", outcome.candidates.len());
        }
    }
    if let Some(events) = trace {
        let obj = JsonObject::new()
            .str("op", "trace")
            .int("questions", outcome.questions as u64)
            .array("events", events);
        println!("{}", obj.encode());
    }
    if let Some((path, cache)) = plan {
        match setdisc_plan::save_plan(&cache, &path) {
            Ok(nodes) => println!("saved plan cache: {nodes} nodes -> {path}"),
            Err(e) => eprintln!("warning: could not save plan {path}: {e}"),
        }
    }
}
