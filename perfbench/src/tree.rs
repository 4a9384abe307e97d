//! `tree_build`: offline decision-tree construction (Algorithm 3, the
//! setting of Fig. 3) with k-LP(3, AD) over 160 two-example views
//! of the `web_sessions` corpus, one caller.

use crate::check::{self, Step, TNode, Transcript};
use crate::client::Job;
use crate::layers::TimedStrategy;
use crate::report::{median_f64, peak_rss_mb, percentile, Report};
use crate::speed;
use crate::traced::{self, Boot, Recorded};
use crate::web;
use crate::{trace, Args};
use setdisc_core::prelude::*;
use setdisc_service::StrategySpec;
use std::time::{Duration, Instant};

const VIEWS: usize = 160;
/// View sizes: at least 100 sets (paper §5.2.1), at most 300 so that no
/// single tree dominates a round, spread evenly over `SIZE_BINS` bins so
/// that a round's work varies little from seed to seed.
const VIEW_SETS: (usize, usize) = (100, 300);
const SIZE_BINS: usize = 40;
/// Views whose root-to-leaf paths the traced run replays as sessions.
const SESSION_VIEWS: usize = 8;
const K: u32 = 3;

pub fn run(args: &Args) -> Result<Report, String> {
    let inp = web::inputs(args.seed, VIEWS, VIEW_SETS, SIZE_BINS)?;
    let corpus = &inp.corpus;

    // Set-up: the program builds the collection from the raw sets.
    let raw = corpus.sets.clone();
    let before = speed::sample();
    let t = Instant::now();
    let coll = Collection::from_raw_sets(raw).map_err(|e| e.to_string())?;
    let setup_s = t.elapsed().as_secs_f64() * speed::scale(before, speed::sample());

    let views: Vec<Vec<EntityId>> = inp
        .seeds
        .iter()
        .map(|s| s.examples.map(EntityId).to_vec())
        .collect();
    if args.trace {
        trace::arm();
        return traced(&inp, &coll);
    }

    // Whole rounds over every view until the time is up. About once a
    // second, between trees, a yardstick sample scales the trees built
    // since the last one to the reference host speed.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut first: Vec<Vec<TNode>> = Vec::new();
    let (mut round_s, mut per_question_ns, mut rates) = (Vec::<f64>::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut leaves, mut total_depth) = (0u64, 0u64);
    let mut correct = true;
    // Trees since the last yardstick sample: (round, build ns, the time of
    // each question's selection).
    let mut segment: Vec<(usize, u64, Vec<u64>)> = Vec::new();
    let mut y = speed::sample();
    let mut segment_start = Instant::now();
    let mut flush =
        |segment: &mut Vec<(usize, u64, Vec<u64>)>, start: &mut Instant, round_s: &mut Vec<f64>| {
            let took = start.elapsed().as_secs_f64();
            let next = speed::sample();
            let scale = speed::scale(y, next);
            rates.push(segment.len() as f64 / took / scale);
            for (round, ns, selections) in segment.drain(..) {
                if round_s.len() <= round {
                    round_s.resize(round + 1, 0.0);
                }
                round_s[round] += ns as f64 * scale / 1e9;
                speed::append_scaled(&mut per_question_ns, &selections, scale);
            }
            y = next;
            *start = Instant::now();
        };
    let mut round = 0;
    while Instant::now() < deadline {
        for (i, ex) in views.iter().enumerate() {
            let view = coll.supersets_of(ex);
            // Each question of the tree is one selection; timing it costs
            // two clock reads against tens of microseconds of lookahead.
            let mut klp = TimedStrategy::new(KLp::<AvgDepth>::new(K), i as u64);
            let t = Instant::now();
            let built = build_tree(&view, &mut klp);
            let ns = t.elapsed().as_nanos() as u64;
            attempted += 1;
            let tree = match built {
                Ok(tree) => tree,
                Err(e) => {
                    eprintln!("tree_build: view {i}: {e}");
                    failed += 1;
                    continue;
                }
            };
            segment.push((round, ns, klp.select_ns));
            let mine = check::tree_of(&tree);
            let verdict = if first.len() == i {
                let v = check::check_tree(corpus, &inp.seeds[i].view, &mine).map(|depths| {
                    leaves += depths.len() as u64;
                    total_depth += depths.iter().map(|&(_, d)| u64::from(d)).sum::<u64>();
                });
                first.push(mine);
                v
            } else if first[i] != mine {
                Err("differs from the tree built in the first round".to_string())
            } else {
                Ok(())
            };
            if let Err(e) = verdict {
                eprintln!("tree_build: view {i}: {e}");
                failed += 1;
                correct = false;
            }
            if segment_start.elapsed() >= Duration::from_secs(1) {
                flush(&mut segment, &mut segment_start, &mut round_s);
            }
        }
        round += 1;
    }
    if !segment.is_empty() {
        flush(&mut segment, &mut segment_start, &mut round_s);
    }

    let mut report = Report {
        correct: correct && failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics: Vec::new(),
    };
    report.add("setup_s", setup_s, "s");
    report.add(
        "question_p50_us",
        percentile(&mut per_question_ns, 0.5) as f64 / 1e3,
        "us",
    );
    report.add(
        "question_p99_us",
        percentile(&mut per_question_ns, 0.99) as f64 / 1e3,
        "us",
    );
    report.add("sessions_per_s", median_f64(&mut rates), "1/s");
    report.add(
        "questions_per_target",
        total_depth as f64 / leaves.max(1) as f64,
        "questions",
    );
    report.add("tree_build_s", median_f64(&mut round_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(None), "MB");
    eprintln!("tree_build: {round} rounds of {} trees", views.len());
    Ok(report)
}

/// The traced run: every tree built once with a timed k-LP, then the
/// root-to-leaf paths of the first views replayed as sessions through
/// every session layer.
fn traced(inp: &web::Inputs, coll: &Collection) -> Result<Report, String> {
    let views: Vec<Vec<u32>> = inp.seeds.iter().map(|s| s.examples.to_vec()).collect();
    let tl = traced::tree_layers(coll, &views, K)?;
    let mut report = Report {
        correct: true,
        attempted: views.len() as u64,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut spans = vec![trace::take()];

    // Each leaf of a tree is a session's target; its path is the session.
    let (mut jobs, mut recorded): (Vec<Job>, Recorded) = (Vec::new(), vec![Vec::new(), Vec::new()]);
    for (i, seed) in inp.seeds.iter().take(SESSION_VIEWS).enumerate() {
        let ex: Vec<EntityId> = seed.examples.map(EntityId).to_vec();
        let mut klp = KLp::<AvgDepth>::new(K);
        let tree = build_tree(&coll.supersets_of(&ex), &mut klp).map_err(|e| e.to_string())?;
        let tree = check::tree_of(&tree);
        if let Err(e) = check::check_tree(&inp.corpus, &seed.view, &tree) {
            eprintln!("tree_build: view {i}: {e}");
            report.correct = false;
            report.failed += 1;
        }
        let counts = check::leaf_counts(&tree);
        for target in seed.view.iter().map(|&s| s as usize) {
            let mut node = 0;
            let steps = check::path_to(&tree, &inp.corpus, target)
                .into_iter()
                .map(|(entity, yes)| {
                    if let TNode::Inner { yes: y, no: n, .. } = tree[node] {
                        node = if yes { y } else { n };
                    }
                    Step {
                        entity,
                        yes,
                        candidates: counts[node],
                    }
                })
                .collect();
            recorded[jobs.len() % 2].push((
                jobs.len(),
                Transcript {
                    initial: seed.view.len(),
                    steps,
                    discovered: Some(target),
                },
            ));
            jobs.push(Job {
                examples: seed.examples.to_vec(),
                k: K,
                target,
            });
        }
    }
    let serve = crate::serve::build()?;
    let boot = Boot {
        corpus: &inp.corpus,
        file: &inp.file,
        plan: None,
        metrics: false,
        serve: &serve,
    };
    let spec = StrategySpec {
        k: K,
        ..StrategySpec::default()
    };
    let key = spec.plan_key().expect("k-LP has a plan key");
    let out = crate::out_dir();
    let (bad, _) =
        traced::session_layers(&boot, &jobs, &recorded, key, &out, &mut report, &mut spans)?;
    traced::add_lookahead(
        &mut report,
        tl.select_ns,
        tl.informative,
        tl.evaluated,
        tl.selections,
        tl.memo_entries,
    );
    report.add("builder.self_s", tl.builder_self_ns as f64 / 1e9, "s");
    traced::add_io(&mut report, &inp.corpus, &inp.file)?;
    if bad > 0 {
        eprintln!("tree_build: {bad} sessions along tree paths differ from the tree");
        report.correct = false;
    }
    trace::write(&out.join("trace-tree_build.json"), &spans)
        .map_err(|e| format!("write trace: {e}"))?;
    Ok(report)
}
