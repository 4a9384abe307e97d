//! `wire_warm`: the real `serve` binary over loopback TCP with a full
//! k-LP(2) plan and armed telemetry; every selection is a plan hit.

use crate::check;
use crate::client::{Job, Tcp};
use crate::gen::{self, Rng};
use crate::report::{median_f64, peak_rss_mb, percentile, Report};
use crate::serve::Server;
use crate::sessions::{self, Client};
use crate::speed;
use crate::traced::{self, Boot, Recorded};
use crate::{trace, Args};
use setdisc_core::prelude::*;
use setdisc_plan::{PlanCache, PrecomputeBudget};
use setdisc_service::{ServiceConfig, StrategySpec};
use std::sync::Arc;

/// The offline tree is rebuilt every `ROUND_EVERY` one-second slices.
const ROUND_EVERY: u64 = 2;
const CLIENTS: usize = 2;

pub fn run(args: &Args) -> Result<Report, String> {
    let params = gen::CopyAddParams::standard();
    let corpus = gen::copy_add(&params, args.seed);
    let file = gen::cached_file("copyadd", args.seed, &corpus)
        .map_err(|e| format!("write corpus: {e}"))?;
    let out = crate::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;

    // The full k-LP(2) plan, made before the timed part.
    let coll = Collection::from_raw_sets(corpus.sets.clone()).map_err(|e| e.to_string())?;
    let spec = StrategySpec::default();
    let key = spec.plan_key().expect("k-LP has a plan key");
    let plan = Arc::new(PlanCache::for_collection(
        &coll,
        ServiceConfig::default().plan_cache_capacity,
    ));
    let made = setdisc_plan::precompute(
        &plan,
        key,
        &coll,
        spec.build().as_mut(),
        &PrecomputeBudget {
            max_nodes: coll.len(),
            max_depth: u32::MAX,
        },
    );
    if made.truncated {
        return Err("the plan precompute did not cover the whole tree".into());
    }
    let plan_file = out.join(format!("wire-{}.plan", args.seed));
    setdisc_plan::save_plan(&plan, &plan_file).map_err(|e| format!("save plan: {e}"))?;
    drop(plan);

    let serve = crate::serve::build()?;
    let boot = Boot {
        corpus: &corpus,
        file: &file,
        plan: Some(&plan_file),
        metrics: true,
        serve: &serve,
    };
    // Sessions give no examples and every set is a target.
    let mut targets: Vec<usize> = (0..corpus.sets.len()).collect();
    let mut rng = Rng::new(args.seed ^ 0x03a1_e0ff);
    for i in (1..targets.len()).rev() {
        targets.swap(i, rng.below(i + 1));
    }
    let jobs: Vec<Job> = targets
        .iter()
        .map(|&target| Job {
            examples: Vec::new(),
            k: 2,
            target,
        })
        .collect();

    let before = speed::sample();
    let server = Server::boot(&serve, &boot.serve_args(true, &out.join("serve.plan")))?;
    let setup_s = server.setup_s * speed::scale(before, speed::sample());
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let idx = (c..jobs.len()).step_by(CLIENTS).collect();
        clients.push(Client::new(Box::new(Tcp::connect(&server.addr)?), idx));
    }
    if args.trace {
        trace::arm();
        for c in &mut clients {
            c.limit = 1_500;
            c.record = true;
        }
    }
    // The offline tree with the same strategy and no plan cache: the answer
    // every session is checked against, and, rebuilt between slices, the
    // tree-build time.
    let build_reference = || {
        let mut klp = KLp::<AvgDepth>::new(2);
        build_tree(&coll.full_view(), &mut klp).map_err(|e| e.to_string())
    };
    let tree = check::tree_of(&build_reference()?);
    let counts = check::leaf_counts(&tree);
    let measured = sessions::run_measured(
        &mut clients,
        &corpus,
        &jobs,
        args.seconds,
        ROUND_EVERY,
        |job, t| check::check_against_tree(&tree, &counts, &corpus, jobs[job].target, t),
        || build_reference().map(drop),
    )?;
    let rss = peak_rss_mb(server.pid());
    let drained = server.shutdown();

    let all: Vec<u32> = (0..corpus.sets.len() as u32).collect();
    let mut correct = drained.is_ok();
    if let Err(e) = &drained {
        eprintln!("wire_warm: {e}");
    }
    if let Err(e) = check::check_tree(&corpus, &all, &tree) {
        eprintln!("wire_warm: offline tree: {e}");
        correct = false;
    }
    for (job, e) in &measured.failed {
        eprintln!("wire_warm: session for job {job}: {e}");
    }
    let failed = measured.failed.len() as u64;
    let mut report = Report {
        correct: correct && failed == 0,
        attempted: measured.attempted.max(1),
        failed,
        metrics: Vec::new(),
    };
    let mut question_ns = sessions::question_ns(&clients);
    if args.trace {
        // With spans armed: the traced run's own question p50, to set
        // against the untraced runs' for the tracing overhead.
        eprintln!(
            "wire_warm: traced question p50 {:.3} us",
            percentile(&mut question_ns, 0.5) as f64 / 1e3
        );
        let recorded: Recorded = clients.iter().map(|c| c.done.clone()).collect();
        let mut spans: Vec<Vec<trace::Span>> = clients
            .iter_mut()
            .map(|c| std::mem::take(&mut c.spans))
            .collect();
        drop(clients);
        let (bad, _) =
            traced::session_layers(&boot, &jobs, &recorded, key, &out, &mut report, &mut spans)?;
        // The sessions make no selection (every one is a plan hit); the
        // lookahead figures are those of the offline tree.
        let tl = traced::tree_layers(&coll, &[Vec::new()], 2)?;
        traced::add_lookahead(
            &mut report,
            tl.select_ns,
            tl.informative,
            tl.evaluated,
            tl.selections,
            tl.memo_entries,
        );
        report.add("builder.self_s", tl.builder_self_ns as f64 / 1e9, "s");
        traced::add_io(&mut report, &corpus, &file)?;
        if bad > 0 {
            eprintln!("wire_warm: {bad} replayed sessions differ from the recorded run");
            report.correct = false;
        }
        trace::write(&out.join("trace-wire_warm.json"), &spans)
            .map_err(|e| format!("write trace: {e}"))?;
        return Ok(report);
    }
    let sessions = measured.attempted - failed;
    report.add("setup_s", setup_s, "s");
    report.add(
        "question_p50_us",
        percentile(&mut question_ns, 0.5) as f64 / 1e3,
        "us",
    );
    report.add(
        "question_p99_us",
        percentile(&mut question_ns, 0.99) as f64 / 1e3,
        "us",
    );
    report.add(
        "sessions_per_s",
        median_f64(&mut measured.rates.clone()),
        "1/s",
    );
    report.add(
        "questions_per_target",
        measured.questions as f64 / sessions.max(1) as f64,
        "questions",
    );
    report.add(
        "tree_build_s",
        median_f64(&mut measured.rounds.clone()),
        "s",
    );
    report.add("peak_rss_mb", rss, "MB");
    eprintln!(
        "wire_warm: {} sessions, {} questions, {} plan nodes",
        sessions, measured.questions, made.computed
    );
    Ok(report)
}
