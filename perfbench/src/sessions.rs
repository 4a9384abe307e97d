//! The closed-loop session loop of `web_sessions` and `wire_warm`: one
//! thread per client, each running its own jobs one session at a time in
//! one-second slices, with the completed sessions checked between slices.

use crate::check::Transcript;
use crate::client::{run_session, Job, Timing, Transport};
use crate::gen::Corpus;
use crate::trace;
use std::time::{Duration, Instant};

/// Question-time samples reserved per client and run second. The buffer is
/// written once before the run, so its pages count in the benchmark's peak
/// memory whatever the program's speed.
const SAMPLES_PER_SECOND: usize = 50_000;

pub struct Client<'a> {
    pub transport: Box<dyn Transport + Send + 'a>,
    /// Indices into the job list, in the order this client runs them.
    pub jobs: Vec<usize>,
    next: usize,
    /// Stop after this many sessions (`usize::MAX`: only the deadline).
    pub limit: usize,
    /// Keep every transcript, request time and create time: the traced run
    /// replays the transcripts and breaks the times down. Otherwise each
    /// transcript is dropped once checked and only question times are kept.
    pub record: bool,
    /// `(job, transcript)` of completed sessions, in order: every one when
    /// `record` is set, else those not yet checked.
    pub done: Vec<(usize, Transcript)>,
    /// Sessions that hit a transport or protocol error.
    pub errors: Vec<(usize, String)>,
    pub timing: Timing,
    pub create_ns: Vec<u64>,
    pub spans: Vec<trace::Span>,
}

impl<'a> Client<'a> {
    pub fn new(transport: Box<dyn Transport + Send + 'a>, jobs: Vec<usize>) -> Self {
        Client {
            transport,
            jobs,
            next: 0,
            limit: usize::MAX,
            record: false,
            done: Vec::new(),
            errors: Vec::new(),
            timing: Timing::default(),
            create_ns: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn finished(&self) -> bool {
        self.next >= self.limit || self.jobs.is_empty() || !self.errors.is_empty()
    }

    /// Runs whole sessions until `deadline`; the job list wraps around.
    fn run_until(&mut self, corpus: &Corpus, jobs: &[Job], deadline: Instant) {
        while Instant::now() < deadline && !self.finished() {
            let idx = self.jobs[self.next % self.jobs.len()];
            let tag = self.next as u64;
            self.next += 1;
            let mut timing = Timing::default();
            match run_session(
                self.transport.as_mut(),
                "c",
                corpus,
                &jobs[idx],
                tag,
                &mut timing,
            ) {
                Ok(t) => {
                    self.done.push((idx, t));
                    self.timing.question_ns.extend(&timing.question_ns);
                    if self.record {
                        self.timing.request_ns.extend(&timing.request_ns);
                        self.timing.question_bytes += timing.question_bytes;
                        self.create_ns.push(timing.create_ns);
                    }
                }
                // A broken connection fails every later session too; one
                // recorded failure is enough.
                Err(e) => self.errors.push((idx, e)),
            }
        }
        self.spans.extend(trace::take());
    }
}

/// Runs every client on its own thread until `deadline`; returns the
/// measured interval in ns.
fn run_slice(clients: &mut [Client<'_>], corpus: &Corpus, jobs: &[Job], deadline: Instant) -> u64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            s.spawn(move || c.run_until(corpus, jobs, deadline));
        }
    });
    start.elapsed().as_nanos() as u64
}

/// Question times merged over every client.
pub fn question_ns(clients: &[Client<'_>]) -> Vec<u64> {
    clients
        .iter()
        .flat_map(|c| c.timing.question_ns.iter().copied())
        .collect()
}

/// What a measured run of sessions gives, at the reference host speed.
pub struct Measured {
    /// Sessions completed per second, one figure per one-second slice.
    pub rates: Vec<f64>,
    /// Seconds of each `round` run between slices.
    pub rounds: Vec<f64>,
    /// Sessions started, and the questions of those that passed.
    pub attempted: u64,
    pub questions: u64,
    /// `(job, reason)` of each session that failed a check or hit an error.
    pub failed: Vec<(usize, String)>,
}

/// Runs the clients for `seconds` one-second slices. Between slices, while
/// the program is idle, it takes a yardstick sample, scales the slice's
/// question times and session rate by it, and checks the sessions the
/// slice completed with `check(job, transcript)`. After every
/// `round_every` slices it times `round` the same way.
pub fn run_measured(
    clients: &mut [Client<'_>],
    corpus: &Corpus,
    jobs: &[Job],
    seconds: u64,
    round_every: u64,
    check: impl Fn(usize, &Transcript) -> Result<(), String>,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<Measured, String> {
    let mut out = Measured {
        rates: Vec::new(),
        rounds: Vec::new(),
        attempted: 0,
        questions: 0,
        failed: Vec::new(),
    };
    let cap = SAMPLES_PER_SECOND * seconds as usize;
    for c in clients.iter_mut() {
        c.timing.question_ns = vec![u64::MAX; cap];
        c.timing.question_ns.clear();
    }
    let mut checked = vec![0; clients.len()];
    let mut y = crate::speed::sample();
    for slice in 0..seconds {
        let marks: Vec<usize> = clients.iter().map(|c| c.timing.question_ns.len()).collect();
        let took_ns = run_slice(
            clients,
            corpus,
            jobs,
            Instant::now() + Duration::from_secs(1),
        );
        let next = crate::speed::sample();
        let scale = crate::speed::scale(y, next);
        let mut sessions = 0;
        for ((c, q), from) in clients.iter_mut().zip(marks).zip(&mut checked) {
            for ns in &mut c.timing.question_ns[q..] {
                *ns = (*ns as f64 * scale) as u64;
            }
            sessions += c.done.len() - *from;
            for (job, t) in &c.done[*from..] {
                match check(*job, t) {
                    Ok(()) => out.questions += t.steps.len() as u64,
                    Err(e) => out.failed.push((*job, e)),
                }
            }
            out.attempted += (c.done.len() - *from) as u64;
            if c.record {
                *from = c.done.len();
            } else {
                c.done.clear();
            }
        }
        out.rates
            .push(sessions as f64 * 1e9 / took_ns as f64 / scale);
        y = next;
        if (slice + 1) % round_every == 0 {
            let t = Instant::now();
            round()?;
            let took = t.elapsed().as_secs_f64();
            let next = crate::speed::sample();
            out.rounds.push(took * crate::speed::scale(y, next));
            y = next;
        }
        if clients.iter().all(Client::finished) {
            break;
        }
    }
    for c in clients.iter() {
        out.attempted += c.errors.len() as u64;
        out.failed.extend(c.errors.iter().cloned());
    }
    Ok(out)
}
