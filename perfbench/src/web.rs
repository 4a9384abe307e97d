//! `web_sessions`: interactive discovery (Algorithm 2) over a
//! web-tables-like corpus of about 10^5 sets, two clients in process.

use crate::check;
use crate::client::{InProc, Job};
use crate::gen::{self, Corpus, Rng};
use crate::report::{median_f64, peak_rss_mb, percentile, Report};
use crate::sessions::{self, Client};
use crate::speed;
use crate::traced::{self, Boot, Recorded};
use crate::{trace, Args};
use setdisc_core::prelude::*;
use setdisc_service::{Service, ServiceConfig, StrategySpec};
use std::time::Instant;

/// A seed query: two example entities and the sets containing both.
pub struct Seed {
    pub examples: [u32; 2],
    pub view: Vec<u32>,
}

/// Two-entity seed queries whose candidate sub-collection holds between
/// `lo` and `hi` sets (paper §5.2.1 asks for at least 100): two members of
/// a uniformly chosen set, among those in at least `lo` sets, kept when
/// they co-occur often enough. No pair is drawn twice. With `bins` above 1
/// the range is cut into that many equal bins that each take an equal
/// share of the queries, so the sizes vary little from seed to seed. Stops
/// early, with fewer, when the corpus has no more.
pub fn seeds(
    corpus: &Corpus,
    postings: &[Vec<u32>],
    seed: u64,
    n: usize,
    (lo, hi): (usize, usize),
    bins: usize,
) -> Vec<Seed> {
    let mut rng = Rng::new(seed ^ 0x5eed_5eed);
    let mut out = Vec::with_capacity(n);
    let mut room = vec![n.div_ceil(bins); bins];
    let mut seen = std::collections::HashSet::new();
    let mut frequent: Vec<u32> = Vec::new();
    let mut tries = 0usize;
    while out.len() < n && tries < 800 * n {
        tries += 1;
        frequent.clear();
        let set = &corpus.sets[rng.below(corpus.sets.len())];
        frequent.extend(set.iter().filter(|&&e| postings[e as usize].len() >= lo));
        if frequent.len() < 2 {
            continue;
        }
        let a = frequent[rng.below(frequent.len())];
        let b = frequent[rng.below(frequent.len())];
        let (a, b) = (a.min(b), a.max(b));
        if a == b || !seen.insert((a, b)) {
            continue;
        }
        let (short, other) = if postings[a as usize].len() <= postings[b as usize].len() {
            (&postings[a as usize], b)
        } else {
            (&postings[b as usize], a)
        };
        let mut view = Vec::new();
        for &s in short {
            if corpus.contains(s as usize, other) {
                view.push(s);
                if view.len() > hi {
                    break;
                }
            }
        }
        if !(lo..=hi).contains(&view.len()) {
            continue;
        }
        let bin = (view.len() - lo) * bins / (hi - lo + 1);
        if room[bin] > 0 {
            room[bin] -= 1;
            out.push(Seed {
                examples: [a, b],
                view,
            });
        }
    }
    out
}

/// Seed queries generated per run: their sessions outnumber what two
/// clients finish in a 20 s run, so no seed repeats. (The corpus has only a
/// few tens of thousands of qualifying pairs; drawing many more than this
/// makes the search slow.)
const SEEDS: usize = 24_000;
const TARGETS_PER_SEED: usize = 4;
/// Views whose offline k-LP(2) trees are rebuilt every `ROUND_EVERY`
/// one-second slices.
const REFERENCE_VIEWS: usize = 64;
const REFERENCE_MAX_SETS: usize = 300;
const ROUND_EVERY: u64 = 2;
const CLIENTS: usize = 2;

pub struct Inputs {
    pub corpus: Corpus,
    pub file: std::path::PathBuf,
    pub seeds: Vec<Seed>,
}

/// The seed of the web-tables corpus. Like the paper's evaluation, every
/// run uses one corpus, and `--seed` picks the seed queries and targets.
/// With a corpus per seed, the vocabulary sizes drawn for the few most
/// popular classes made one corpus's trees cost about 25% more than
/// another's in every view-size range, which spread `tree_build`'s timings
/// by up to 0.18 (q3 - q1 over the median) across ten seeds.
pub const CORPUS_SEED: u64 = 1;

/// The corpus (cached on disk) and the seed queries of `seed`.
pub fn inputs(
    seed: u64,
    n_seeds: usize,
    sizes: (usize, usize),
    bins: usize,
) -> Result<Inputs, String> {
    let corpus = gen::web_tables(&gen::WEB_STANDARD, CORPUS_SEED);
    let file =
        gen::cached_file("web", CORPUS_SEED, &corpus).map_err(|e| format!("write corpus: {e}"))?;
    let postings = corpus.postings();
    let seeds = seeds(&corpus, &postings, seed, n_seeds, sizes, bins);
    Ok(Inputs {
        corpus,
        file,
        seeds,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let t = Instant::now();
    let inp = inputs(args.seed, SEEDS, (100, 2_000), 1)?;
    eprintln!(
        "web_sessions: inputs made in {:.1} s: {} sets, {} entities, {} memberships, {} seed queries",
        t.elapsed().as_secs_f64(),
        inp.corpus.sets.len(),
        inp.corpus.universe,
        inp.corpus.sets.iter().map(Vec::len).sum::<usize>(),
        inp.seeds.len()
    );
    let (corpus, seeds) = (&inp.corpus, &inp.seeds);
    let mut rng = Rng::new(args.seed ^ 0x07a5_9e75);
    let mut jobs = Vec::new();
    let mut per_client = vec![Vec::new(); CLIENTS];
    for (i, s) in seeds.iter().enumerate() {
        for _ in 0..TARGETS_PER_SEED {
            per_client[i % CLIENTS].push(jobs.len());
            jobs.push(Job {
                examples: s.examples.to_vec(),
                k: 2,
                target: s.view[rng.below(s.view.len())] as usize,
            });
        }
    }
    // The benchmark's own share of the process's memory, in heap bytes.
    let vec_bytes = |len: usize| (len * 4 + 24) as f64 / 1e6;
    eprintln!(
        "web_sessions: own inputs: corpus {:.1} MB, seed views {:.1} MB, jobs {:.1} MB",
        corpus.sets.iter().map(|s| vec_bytes(s.len())).sum::<f64>(),
        seeds.iter().map(|s| vec_bytes(s.view.len())).sum::<f64>(),
        jobs.len() as f64 * (std::mem::size_of::<Job>() as f64 / 1e6 + vec_bytes(2))
            + per_client
                .iter()
                .map(|c| vec_bytes(2 * c.len()))
                .sum::<f64>(),
    );
    let reference: Vec<usize> = (0..seeds.len())
        .filter(|&i| seeds[i].view.len() <= REFERENCE_MAX_SETS)
        .take(REFERENCE_VIEWS)
        .collect();

    // Set-up: the program loads the corpus file.
    let before = speed::sample();
    let t = Instant::now();
    let service = Service::new(ServiceConfig::default());
    service.registry().load_file("c", &inp.file)?;
    let setup_s = t.elapsed().as_secs_f64() * speed::scale(before, speed::sample());
    let snap = service.registry().get("c").ok_or("corpus not loaded")?;

    let mut clients: Vec<Client<'_>> = per_client
        .iter()
        .map(|jobs| Client::new(Box::new(InProc(&service)), jobs.clone()))
        .collect();
    if args.trace {
        trace::arm();
        for c in &mut clients {
            c.limit = 400;
            c.record = true;
        }
    }

    // Offline k-LP(2) trees over the reference views: the cache-off answer
    // the sessions are checked against, and, rebuilt between slices, the
    // tree-build time.
    let build_reference = || -> Result<Vec<DecisionTree>, String> {
        reference
            .iter()
            .map(|&i| {
                let ex = seeds[i].examples.map(EntityId);
                let mut klp = KLp::<AvgDepth>::new(2);
                build_tree(&snap.collection().supersets_of(&ex), &mut klp)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())
    };
    let trees: Vec<(Vec<usize>, Vec<check::TNode>)> = build_reference()?
        .iter()
        .map(|t| {
            let t = check::tree_of(t);
            (check::leaf_counts(&t), t)
        })
        .collect();
    let mut correct = true;
    for (&i, (_, tree)) in reference.iter().zip(&trees) {
        if let Err(e) = check::check_tree(corpus, &seeds[i].view, tree) {
            eprintln!("web_sessions: reference tree {i}: {e}");
            correct = false;
        }
    }
    // Each session against the benchmark's own copy of the corpus, and on
    // a reference view against the offline tree as well.
    let seed_of = |job: usize| job / TARGETS_PER_SEED;
    let check = |job: usize, t: &check::Transcript| {
        let seed = &seeds[seed_of(job)];
        check::check_session(corpus, &seed.view, jobs[job].target, t)?;
        match reference.iter().position(|&i| i == seed_of(job)) {
            Some(r) => {
                let (counts, tree) = &trees[r];
                check::check_against_tree(tree, counts, corpus, jobs[job].target, t)
            }
            None => Ok(()),
        }
    };
    let measured = sessions::run_measured(
        &mut clients,
        corpus,
        &jobs,
        args.seconds,
        ROUND_EVERY,
        check,
        || build_reference().map(drop),
    )?;
    for (job, e) in &measured.failed {
        eprintln!("web_sessions: session for job {job}: {e}");
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
            "web_sessions: traced question p50 {:.3} us",
            percentile(&mut question_ns, 0.5) as f64 / 1e3
        );
        let recorded: Recorded = clients.iter().map(|c| c.done.clone()).collect();
        let mut spans: Vec<Vec<trace::Span>> = clients
            .iter_mut()
            .map(|c| std::mem::take(&mut c.spans))
            .collect();
        drop(clients);
        drop(snap);
        drop(service);
        layers(&inp, &jobs, &recorded, &reference, &mut report, &mut spans)?;
        trace::write(&crate::out_dir().join("trace-web_sessions.json"), &spans)
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
    report.add("peak_rss_mb", peak_rss_mb(None), "MB");
    eprintln!(
        "web_sessions: {} sessions, {} questions, {} samples",
        sessions,
        measured.questions,
        question_ns.len()
    );
    Ok(report)
}

fn layers(
    inp: &Inputs,
    jobs: &[Job],
    recorded: &Recorded,
    reference: &[usize],
    report: &mut Report,
    spans: &mut Vec<Vec<trace::Span>>,
) -> Result<(), String> {
    let serve = crate::serve::build()?;
    let boot = Boot {
        corpus: &inp.corpus,
        file: &inp.file,
        plan: None,
        metrics: false,
        serve: &serve,
    };
    let key = StrategySpec::default()
        .plan_key()
        .expect("k-LP has a plan key");
    let (bad, eng) =
        traced::session_layers(&boot, jobs, recorded, key, &crate::out_dir(), report, spans)?;
    traced::add_lookahead(
        report,
        eng.select_ns,
        eng.informative,
        eng.evaluated,
        eng.selections,
        eng.memo_entries,
    );
    let coll = Collection::from_raw_sets(inp.corpus.sets.clone()).map_err(|e| e.to_string())?;
    let views: Vec<Vec<u32>> = reference
        .iter()
        .map(|&i| inp.seeds[i].examples.to_vec())
        .collect();
    let tl = traced::tree_layers(&coll, &views, 2)?;
    report.add("builder.self_s", tl.builder_self_ns as f64 / 1e9, "s");
    traced::add_io(report, &inp.corpus, &inp.file)?;
    if bad > 0 {
        eprintln!("web_sessions: {bad} replayed sessions differ from the recorded run");
        report.correct = false;
    }
    Ok(())
}
