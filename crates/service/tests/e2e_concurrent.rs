//! End-to-end service tests: many concurrent wire clients, every session's
//! question sequence and outcome asserted *bit-identical* to a direct
//! single-threaded `Session` run with the same collection, strategy and
//! initial examples.

use setdisc_core::discovery::{Answer, Session};
use setdisc_core::engine::Engine;
use setdisc_core::entity::{EntityId, SetId};
use setdisc_service::load::{Client, InProcessClient, SocketClient};
use setdisc_service::proto::{create_request, create_request_ext};
use setdisc_service::strategy::StrategySpec;
use setdisc_service::{Service, ServiceConfig, Snapshot};
use setdisc_util::report::{parse_json, JsonValue};
use std::sync::{Arc, Mutex};

/// A deterministic per-question answer plan: truthful membership in the
/// target, except the listed question indices answer Unknown.
struct Plan<'a> {
    snapshot: &'a Snapshot,
    target: SetId,
    unknown_at: &'a [usize],
}

impl Plan<'_> {
    fn answer_for(&self, entity: EntityId, index: usize) -> Answer {
        if self.unknown_at.contains(&index) {
            Answer::Unknown
        } else if self.snapshot.collection().set(self.target).contains(entity) {
            Answer::Yes
        } else {
            Answer::No
        }
    }
}

/// Reference run: the plan against a direct in-process `Session`, recording
/// the asked entity sequence and the final outcome.
fn reference_run(plan: &Plan<'_>) -> (Vec<EntityId>, Vec<SetId>) {
    let mut session = Session::new(
        plan.snapshot.collection(),
        &[],
        StrategySpec::default().build(),
    );
    let mut asked = Vec::new();
    while let Some(entity) = session.next_question() {
        let answer = plan.answer_for(entity, asked.len());
        asked.push(entity);
        session.answer(entity, answer);
    }
    (asked, session.outcome().candidates)
}

/// Wire run: the same plan through the protocol, any transport.
fn wire_run(client: &mut dyn Client, collection: &str, plan: &Plan<'_>) -> (Vec<EntityId>, usize) {
    let line = create_request(collection, &StrategySpec::default(), &[], None);
    let resp = call(client, &line);
    let id = field_u64(&resp, "session");
    let mut asked = Vec::new();
    let survivors;
    loop {
        let resp = call(client, &format!(r#"{{"op":"ask","session":{id}}}"#));
        if resp.get("done").and_then(JsonValue::as_bool) == Some(true) {
            survivors = field_u64(&resp, "candidates") as usize;
            break;
        }
        let name = resp
            .get("entity")
            .and_then(JsonValue::as_str)
            .expect("ask must name an entity")
            .to_string();
        let entity = plan.snapshot.resolve_entity(&name).expect("known entity");
        let answer = match plan.answer_for(entity, asked.len()) {
            Answer::Yes => "yes",
            Answer::No => "no",
            Answer::Unknown => "unknown",
        };
        asked.push(entity);
        call(
            client,
            &format!(r#"{{"op":"answer","session":{id},"entity":"{name}","answer":"{answer}"}}"#),
        );
    }
    call(client, &format!(r#"{{"op":"close","session":{id}}}"#));
    (asked, survivors)
}

fn call(client: &mut dyn Client, line: &str) -> JsonValue {
    let resp = client.call(line).expect("transport");
    let v = parse_json(&resp).expect("valid JSON response");
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "request {line} failed: {resp}"
    );
    v
}

fn field_u64(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("missing {key}"))
}

/// Work queue shared by the client threads: (collection name, target,
/// unknown indices).
type Job = (String, SetId, Vec<usize>);

fn run_concurrently(service: &Arc<Service>, jobs: Vec<Job>, threads: usize) {
    let queue = Arc::new(Mutex::new(jobs));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let queue = Arc::clone(&queue);
            let service = Arc::clone(service);
            scope.spawn(move || {
                let mut client = InProcessClient {
                    service: Arc::clone(&service),
                };
                loop {
                    let job = queue.lock().unwrap().pop();
                    let Some((collection, target, unknown_at)) = job else {
                        break;
                    };
                    let snapshot = service.registry().get(&collection).unwrap();
                    let plan = Plan {
                        snapshot: &snapshot,
                        target,
                        unknown_at: &unknown_at,
                    };
                    let (ref_asked, ref_outcome) = reference_run(&plan);
                    let (wire_asked, wire_survivors) = wire_run(&mut client, &collection, &plan);
                    assert_eq!(
                        ref_asked, wire_asked,
                        "question sequence diverged for target {target} of {collection}"
                    );
                    assert_eq!(
                        ref_outcome.len(),
                        wire_survivors,
                        "outcome diverged for target {target} of {collection}"
                    );
                    if ref_outcome.len() == 1 {
                        assert_eq!(ref_outcome[0], target, "wrong set discovered");
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_wire_sessions_match_direct_sessions_bit_for_bit() {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    service.registry().install_fixture("figure1").unwrap();
    service
        .registry()
        .install_fixture("copyadd:60:0.7:11")
        .unwrap();

    let mut jobs: Vec<Job> = Vec::new();
    // Every target of figure1, truthful.
    for t in 0..7 {
        jobs.push(("figure1".into(), SetId(t), vec![]));
    }
    // Every target of the synthetic collection, truthful.
    let n = service
        .registry()
        .get("copyadd:60:0.7:11")
        .unwrap()
        .collection()
        .len();
    for t in 0..n {
        jobs.push(("copyadd:60:0.7:11".into(), SetId(t as u32), vec![]));
    }
    // A few targets with "don't know" replies injected at fixed indices —
    // the §6 exclusion path must also be wire-identical.
    for t in 0..5 {
        jobs.push(("copyadd:60:0.7:11".into(), SetId(t), vec![1]));
        jobs.push(("figure1".into(), SetId(t % 7), vec![0, 2]));
    }

    run_concurrently(&service, jobs, 16);
    assert_eq!(service.open_sessions(), 0, "every session closed");
}

#[test]
fn shared_plan_cache_sessions_match_cache_off_direct_sessions() {
    // The PR-5 tentpole at the service layer: every wire session shares the
    // snapshot's plan cache (on by default), including repeat visits to the
    // same targets (cache-warm paths) and don't-know injections (which must
    // bypass the cache). The reference is a *direct* Session with no cache
    // attached, so any cache-induced drift in entity choice or outcome
    // fails the bit-identity assertions inside `run_concurrently`.
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let fixture = "copyadd:60:0.7:11";
    service.registry().install_fixture(fixture).unwrap();
    let n = service.registry().get(fixture).unwrap().collection().len() as u32;

    let mut jobs: Vec<Job> = Vec::new();
    // Two truthful rounds over every target: round one fills the plan,
    // round two is served from it (the jobs interleave freely across 16
    // threads, so "rounds" really means every prefix is visited twice).
    for round in 0..2 {
        for t in 0..n {
            jobs.push((fixture.into(), SetId(t), vec![]));
        }
        // Don't-know paths ride along in both rounds.
        for t in 0..6 {
            jobs.push((fixture.into(), SetId(t), vec![round, 2]));
        }
    }
    run_concurrently(&service, jobs, 16);
    assert_eq!(service.open_sessions(), 0);

    let cache = service
        .registry()
        .get(fixture)
        .unwrap()
        .plan_cache()
        .expect("default config installs a plan cache on first create");
    let stats = cache.stats();
    assert!(stats.nodes > 0, "sessions recorded plan nodes: {stats:?}");
    assert!(
        stats.hits > 0,
        "repeat targets must be served from the shared plan: {stats:?}"
    );
}

/// §6/§7 job: a session that either lies (flagged unconfident) at a fixed
/// question index with `recover:true`, or asks multiple-choice screens of
/// a fixed width, verified bit-identical to a direct `Engine` run.
enum ModeJob {
    Noisy { target: SetId, lie_at: usize },
    Mcq { target: SetId, width: usize },
}

/// Direct reference for a lying session: a backtracking engine answering
/// truthfully except at `lie_at` (flipped, unconfident). Returns the asked
/// entity sequence, surviving candidates, and the backtrack count.
fn noisy_reference(
    snapshot: &Snapshot,
    target: SetId,
    lie_at: usize,
) -> (Vec<EntityId>, Vec<SetId>, u64) {
    let target_set = snapshot.collection().set(target);
    let mut engine = Engine::new(snapshot.collection(), &[], StrategySpec::default().build());
    engine.set_backtracking(true);
    let mut asked = Vec::new();
    while let Some(entity) = engine.next_question() {
        let truthful = target_set.contains(entity);
        let (member, confident) = if asked.len() == lie_at {
            (!truthful, false)
        } else {
            (truthful, true)
        };
        let answer = if member { Answer::Yes } else { Answer::No };
        asked.push(entity);
        engine.answer_full(entity, answer, confident);
    }
    let backtracks = engine.backtracks() as u64;
    (asked, engine.outcome().candidates, backtracks)
}

/// Direct reference for a multiple-choice session: truthful first-member
/// picks over width-`width` screens. Returns the flattened screen entity
/// sequence and the surviving candidates.
fn mcq_reference(snapshot: &Snapshot, target: SetId, width: usize) -> (Vec<EntityId>, Vec<SetId>) {
    let target_set = snapshot.collection().set(target);
    let mut engine = Engine::new(snapshot.collection(), &[], StrategySpec::default().build());
    let mut asked = Vec::new();
    while !engine.is_resolved() {
        let batch = engine.next_questions(width);
        if batch.is_empty() {
            break;
        }
        asked.extend(batch.iter().copied());
        let choice = batch
            .iter()
            .position(|&e| target_set.contains(e))
            .unwrap_or(batch.len());
        engine.answer_choice(&batch, choice, true);
    }
    (asked, engine.outcome().candidates)
}

/// Wire run of a lying session (`recover:true`); also asserts the final
/// `status` reports the reference's backtrack count.
fn wire_noisy_run(
    client: &mut dyn Client,
    collection: &str,
    snapshot: &Snapshot,
    target: SetId,
    lie_at: usize,
    expected_backtracks: u64,
) -> (Vec<EntityId>, usize) {
    let target_set = snapshot.collection().set(target);
    let line = create_request_ext(collection, &StrategySpec::default(), &[], None, None, true);
    let id = field_u64(&call(client, &line), "session");
    let mut asked = Vec::new();
    let survivors;
    loop {
        let resp = call(client, &format!(r#"{{"op":"ask","session":{id}}}"#));
        if resp.get("done").and_then(JsonValue::as_bool) == Some(true) {
            survivors = field_u64(&resp, "candidates") as usize;
            break;
        }
        let name = resp
            .get("entity")
            .and_then(JsonValue::as_str)
            .expect("ask must name an entity")
            .to_string();
        let entity = snapshot.resolve_entity(&name).expect("known entity");
        let truthful = target_set.contains(entity);
        let (member, confident) = if asked.len() == lie_at {
            (!truthful, false)
        } else {
            (truthful, true)
        };
        asked.push(entity);
        let answer = if member { "yes" } else { "no" };
        let line = if confident {
            format!(r#"{{"op":"answer","session":{id},"entity":"{name}","answer":"{answer}"}}"#)
        } else {
            format!(
                r#"{{"op":"answer","session":{id},"entity":"{name}","answer":"{answer}","confident":false}}"#
            )
        };
        call(client, &line);
    }
    let status = call(client, &format!(r#"{{"op":"status","session":{id}}}"#));
    let wire_backtracks = status
        .get("backtracks")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    assert_eq!(
        wire_backtracks, expected_backtracks,
        "backtrack count diverged for target {target} (lie at {lie_at})"
    );
    call(client, &format!(r#"{{"op":"close","session":{id}}}"#));
    (asked, survivors)
}

/// Wire run of a multiple-choice session: truthful picks over `choices`
/// screens, flattening every screen into the asked sequence.
fn wire_mcq_run(
    client: &mut dyn Client,
    collection: &str,
    snapshot: &Snapshot,
    target: SetId,
    width: usize,
) -> (Vec<EntityId>, usize) {
    let target_set = snapshot.collection().set(target);
    let line = create_request(collection, &StrategySpec::default(), &[], None);
    let id = field_u64(&call(client, &line), "session");
    let mut asked = Vec::new();
    let survivors;
    loop {
        let resp = call(
            client,
            &format!(r#"{{"op":"ask","session":{id},"choices":{width}}}"#),
        );
        if resp.get("done").and_then(JsonValue::as_bool) == Some(true) {
            survivors = field_u64(&resp, "candidates") as usize;
            break;
        }
        let batch: Vec<EntityId> = match resp.get("entities").and_then(JsonValue::as_array) {
            Some(items) => items
                .iter()
                .map(|v| {
                    let name = v.as_str().expect("entity name");
                    snapshot.resolve_entity(name).expect("known entity")
                })
                .collect(),
            None => {
                let name = resp
                    .get("entity")
                    .and_then(JsonValue::as_str)
                    .expect("ask must name an entity");
                vec![snapshot.resolve_entity(name).expect("known entity")]
            }
        };
        asked.extend(batch.iter().copied());
        let choice = batch
            .iter()
            .position(|&e| target_set.contains(e))
            .unwrap_or(batch.len());
        call(
            client,
            &format!(r#"{{"op":"answer","session":{id},"choice":{choice}}}"#),
        );
    }
    call(client, &format!(r#"{{"op":"close","session":{id}}}"#));
    (asked, survivors)
}

#[test]
fn noisy_and_multiple_choice_wire_sessions_match_direct_engine_runs() {
    // §6 + §7 over the wire, concurrently: 16 threads drain a queue mixing
    // recover:true sessions with an unconfident lie at varying depths and
    // multiple-choice sessions of varying widths. Every session's asked
    // sequence, survivor count, and (for noisy jobs) backtrack count must
    // be bit-identical to a direct single-threaded Engine run.
    let service = Arc::new(Service::new(ServiceConfig::default()));
    service.registry().install_fixture("figure1").unwrap();
    service
        .registry()
        .install_fixture("copyadd:60:0.7:11")
        .unwrap();

    let mut jobs: Vec<(String, ModeJob)> = Vec::new();
    for t in 0..7u32 {
        jobs.push((
            "figure1".into(),
            ModeJob::Noisy {
                target: SetId(t),
                lie_at: (t as usize) % 3,
            },
        ));
        jobs.push((
            "figure1".into(),
            ModeJob::Mcq {
                target: SetId(t),
                width: 2 + (t as usize) % 3,
            },
        ));
    }
    let n = service
        .registry()
        .get("copyadd:60:0.7:11")
        .unwrap()
        .collection()
        .len() as u32;
    for t in (0..n).step_by(4) {
        jobs.push((
            "copyadd:60:0.7:11".into(),
            ModeJob::Noisy {
                target: SetId(t),
                lie_at: (t as usize) % 4,
            },
        ));
        jobs.push((
            "copyadd:60:0.7:11".into(),
            ModeJob::Mcq {
                target: SetId(t),
                width: 2 + (t as usize) % 3,
            },
        ));
    }

    let queue = Arc::new(Mutex::new(jobs));
    std::thread::scope(|scope| {
        for _ in 0..16 {
            let queue = Arc::clone(&queue);
            let service = Arc::clone(&service);
            scope.spawn(move || {
                let mut client = InProcessClient {
                    service: Arc::clone(&service),
                };
                loop {
                    let job = queue.lock().unwrap().pop();
                    let Some((collection, mode)) = job else { break };
                    let snapshot = service.registry().get(&collection).unwrap();
                    match mode {
                        ModeJob::Noisy { target, lie_at } => {
                            let (ref_asked, ref_outcome, ref_backtracks) =
                                noisy_reference(&snapshot, target, lie_at);
                            let (wire_asked, wire_survivors) = wire_noisy_run(
                                &mut client,
                                &collection,
                                &snapshot,
                                target,
                                lie_at,
                                ref_backtracks,
                            );
                            assert_eq!(
                                ref_asked, wire_asked,
                                "noisy sequence diverged for target {target} of {collection}"
                            );
                            assert_eq!(ref_outcome.len(), wire_survivors);
                        }
                        ModeJob::Mcq { target, width } => {
                            let (ref_asked, ref_outcome) = mcq_reference(&snapshot, target, width);
                            let (wire_asked, wire_survivors) =
                                wire_mcq_run(&mut client, &collection, &snapshot, target, width);
                            assert_eq!(
                                ref_asked, wire_asked,
                                "screen sequence diverged for target {target} of {collection}"
                            );
                            assert_eq!(ref_outcome.len(), wire_survivors);
                            if ref_outcome.len() == 1 {
                                assert_eq!(ref_outcome[0], target, "wrong set discovered");
                            }
                        }
                    }
                }
            });
        }
    });
    assert_eq!(service.open_sessions(), 0, "every session closed");
}

#[test]
fn socket_sessions_match_direct_sessions() {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    service.registry().install_fixture("figure1").unwrap();
    let (addr, _handle) =
        setdisc_service::server::spawn_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let snapshot = service.registry().get("figure1").unwrap();

    std::thread::scope(|scope| {
        for t in 0..7u32 {
            let snapshot = Arc::clone(&snapshot);
            scope.spawn(move || {
                let mut client = SocketClient::connect(addr).unwrap();
                let plan = Plan {
                    snapshot: &snapshot,
                    target: SetId(t),
                    unknown_at: &[],
                };
                let (ref_asked, ref_outcome) = reference_run(&plan);
                let (wire_asked, wire_survivors) = wire_run(&mut client, "figure1", &plan);
                assert_eq!(ref_asked, wire_asked);
                assert_eq!(ref_outcome, vec![SetId(t)]);
                assert_eq!(wire_survivors, 1);
            });
        }
    });
}

#[test]
fn sessions_interleave_without_cross_talk() {
    // Two sessions over the same snapshot advanced in lock-step from one
    // client: answers to one must not leak into the other.
    let service = Arc::new(Service::new(ServiceConfig::default()));
    service.registry().install_fixture("figure1").unwrap();
    let snapshot = service.registry().get("figure1").unwrap();
    let mut client = InProcessClient {
        service: Arc::clone(&service),
    };

    let plans = [
        Plan {
            snapshot: &snapshot,
            target: SetId(0),
            unknown_at: &[],
        },
        Plan {
            snapshot: &snapshot,
            target: SetId(5),
            unknown_at: &[],
        },
    ];
    let line = create_request("figure1", &StrategySpec::default(), &[], None);
    let ids = [
        field_u64(&call(&mut client, &line), "session"),
        field_u64(&call(&mut client, &line), "session"),
    ];
    let mut asked: [Vec<EntityId>; 2] = [Vec::new(), Vec::new()];
    let mut done = [false, false];
    while !(done[0] && done[1]) {
        for s in 0..2 {
            if done[s] {
                continue;
            }
            let id = ids[s];
            let resp = call(&mut client, &format!(r#"{{"op":"ask","session":{id}}}"#));
            if resp.get("done").and_then(JsonValue::as_bool) == Some(true) {
                let label = resp.get("discovered").and_then(JsonValue::as_str).unwrap();
                assert_eq!(label, snapshot.set_label(plans[s].target));
                done[s] = true;
                continue;
            }
            let name = resp
                .get("entity")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string();
            let entity = snapshot.resolve_entity(&name).unwrap();
            let answer = match plans[s].answer_for(entity, asked[s].len()) {
                Answer::Yes => "yes",
                _ => "no",
            };
            asked[s].push(entity);
            call(
                &mut client,
                &format!(
                    r#"{{"op":"answer","session":{id},"entity":"{name}","answer":"{answer}"}}"#
                ),
            );
        }
    }
    for (s, plan) in plans.iter().enumerate() {
        let (ref_asked, _) = reference_run(plan);
        assert_eq!(
            asked[s], ref_asked,
            "session {s} diverged under interleaving"
        );
    }
}

#[test]
fn session_traces_replay_bit_identical_to_a_direct_engine() {
    // The telemetry tentpole's correctness claim for traces: the ring is a
    // faithful transcript. Replaying a session's trace — asks checked
    // against a fresh direct engine's selections, answers applied as
    // recorded — must reproduce the exact question sequence, the exact
    // per-step candidate counts, and the exact outcome.
    let service = Arc::new(Service::new(ServiceConfig::default()));
    service.registry().install_fixture("figure1").unwrap();
    let snapshot = service.registry().get("figure1").unwrap();
    let mut client = InProcessClient {
        service: Arc::clone(&service),
    };

    for t in 0..7u32 {
        let target = SetId(t);
        let plan = Plan {
            snapshot: &snapshot,
            target,
            unknown_at: &[],
        };
        // Drive a truthful wire session, retrieving the trace before close.
        let line = create_request("figure1", &StrategySpec::default(), &[], None);
        let resp = call(&mut client, &line);
        let id = field_u64(&resp, "session");
        let mut asked = 0usize;
        let survivors;
        loop {
            let resp = call(&mut client, &format!(r#"{{"op":"ask","session":{id}}}"#));
            if resp.get("done").and_then(JsonValue::as_bool) == Some(true) {
                survivors = field_u64(&resp, "candidates");
                break;
            }
            let name = resp
                .get("entity")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string();
            let entity = snapshot.resolve_entity(&name).unwrap();
            let answer = match plan.answer_for(entity, asked) {
                Answer::Yes => "yes",
                _ => "no",
            };
            asked += 1;
            call(
                &mut client,
                &format!(
                    r#"{{"op":"answer","session":{id},"entity":"{name}","answer":"{answer}"}}"#
                ),
            );
        }
        let trace = call(&mut client, &format!(r#"{{"op":"trace","session":{id}}}"#));
        call(&mut client, &format!(r#"{{"op":"close","session":{id}}}"#));

        assert_eq!(field_u64(&trace, "dropped"), 0, "short session never drops");
        let events = trace.get("events").and_then(JsonValue::as_array).unwrap();
        assert_eq!(events.len(), 2 * asked, "one ask + one answer per question");

        // Replay against a cache-free direct engine.
        let mut engine = Engine::new(snapshot.collection(), &[], StrategySpec::default().build());
        for ev in events {
            let name = ev.get("entity").and_then(JsonValue::as_str).unwrap();
            let entity = snapshot.resolve_entity(name).unwrap();
            match ev.get("kind").and_then(JsonValue::as_str).unwrap() {
                "ask" => {
                    assert_eq!(
                        field_u64(ev, "candidates"),
                        engine.candidate_count() as u64,
                        "view size at selection, target {t}"
                    );
                    let next = engine
                        .next_question()
                        .expect("direct engine has a question");
                    assert_eq!(next, entity, "traced ask diverged, target {t}");
                }
                "answer" => {
                    assert_eq!(field_u64(ev, "before"), engine.candidate_count() as u64);
                    let answer = match ev.get("answer").and_then(JsonValue::as_str).unwrap() {
                        "yes" => Answer::Yes,
                        "no" => Answer::No,
                        _ => Answer::Unknown,
                    };
                    engine.answer(entity, answer);
                    assert_eq!(
                        field_u64(ev, "after"),
                        engine.candidate_count() as u64,
                        "candidate delta, target {t}"
                    );
                    assert_eq!(field_u64(ev, "backtracks"), 0, "truthful run");
                }
                other => panic!("unknown trace kind {other:?}"),
            }
        }
        let outcome = engine.outcome();
        assert_eq!(
            outcome.candidates.len() as u64,
            survivors,
            "replayed outcome size, target {t}"
        );
        if let Some(discovered) = outcome.discovered() {
            assert_eq!(discovered, target, "replayed to the wrong set");
        }
    }
    assert_eq!(service.open_sessions(), 0, "every session closed");
}
