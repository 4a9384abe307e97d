//! The simulated user: a truthful closed-loop client that drives one
//! session at a time through the wire protocol, in process or over TCP.

use crate::check::{Step, Transcript};
use crate::gen::Corpus;
use crate::trace;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// One line in, one line out.
pub trait Transport {
    fn call(&mut self, line: &str) -> Result<String, String>;
}

pub struct InProc<'a>(pub &'a setdisc_service::Service);

impl Transport for InProc<'_> {
    fn call(&mut self, line: &str) -> Result<String, String> {
        Ok(self.0.handle_line(line))
    }
}

pub struct Tcp {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Tcp {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Tcp {
            reader: BufReader::new(stream),
            writer,
            buf: String::new(),
        })
    }
}

impl Transport for Tcp {
    fn call(&mut self, line: &str) -> Result<String, String> {
        let mut req = String::with_capacity(line.len() + 1);
        req.push_str(line);
        req.push('\n');
        self.writer
            .write_all(req.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.buf.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A session to run: the example entities, the strategy's lookahead depth
/// and the target set the simulated user has in mind.
#[derive(Clone, Debug)]
pub struct Job {
    pub examples: Vec<u32>,
    pub k: u32,
    pub target: usize,
}

/// Client-side measurements of one session.
#[derive(Default)]
pub struct Timing {
    /// ask+answer round trip per question, ns.
    pub question_ns: Vec<u64>,
    /// Each request's own round trip, ns (ask and answer only).
    pub request_ns: Vec<u64>,
    pub create_ns: u64,
    /// Request plus response bytes of the ask and answer exchanges,
    /// newlines included.
    pub question_bytes: u64,
}

impl Timing {
    /// Adds `o`'s question and request times, multiplied by `f`, and its
    /// bytes.
    pub fn append_scaled(&mut self, o: &Timing, f: f64) {
        crate::speed::append_scaled(&mut self.question_ns, &o.question_ns, f);
        crate::speed::append_scaled(&mut self.request_ns, &o.request_ns, f);
        self.question_bytes += o.question_bytes;
    }
}

/// `"key":` followed by a number or a string, from a flat JSON object.
fn field<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = resp.find(&pat)? + pat.len();
    let rest = &resp[at..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.split('"').next();
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn num(resp: &str, key: &str) -> Result<u64, String> {
    field(resp, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("response lacks {key:?}: {resp}"))
}

fn ok(resp: String) -> Result<String, String> {
    if resp.starts_with("{\"ok\":true") {
        Ok(resp)
    } else {
        Err(format!("request failed: {resp}"))
    }
}

fn create_line(collection: &str, job: &Job) -> String {
    let examples: Vec<String> = job.examples.iter().map(|e| format!("\"e{e}\"")).collect();
    format!(
        "{{\"op\":\"create\",\"collection\":\"{collection}\",\"strategy\":\"klp\",\"k\":{},\"examples\":[{}]}}",
        job.k,
        examples.join(",")
    )
}

/// Runs one session to its end: create, then ask and answer truthfully
/// until the program reports it is done, then close. Each question is
/// timed from sending the ask to receiving the answer's response.
pub fn run_session(
    t: &mut dyn Transport,
    collection: &str,
    corpus: &Corpus,
    job: &Job,
    session_tag: u64,
    timing: &mut Timing,
) -> Result<Transcript, String> {
    let _session = trace::span("client.session", session_tag);
    let started = Instant::now();
    let resp = {
        let _s = trace::span("client.create", session_tag);
        ok(t.call(&create_line(collection, job))?)?
    };
    timing.create_ns = started.elapsed().as_nanos() as u64;
    let id = num(&resp, "session")?;
    let mut out = Transcript {
        initial: num(&resp, "candidates")? as usize,
        ..Transcript::default()
    };
    let ask = format!("{{\"op\":\"ask\",\"session\":{id}}}");
    loop {
        let t0 = Instant::now();
        let resp = {
            let _s = trace::span("client.ask", session_tag);
            ok(t.call(&ask)?)?
        };
        let t1 = Instant::now();
        if field(&resp, "done") == Some("true") {
            out.discovered = field(&resp, "discovered")
                .and_then(|s| s.strip_prefix('s'))
                .and_then(|s| s.parse().ok());
            break;
        }
        let entity: u32 = field(&resp, "entity")
            .and_then(|s| s.strip_prefix('e'))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("ask named no entity: {resp}"))?;
        let yes = corpus.contains(job.target, entity);
        let line = format!(
            "{{\"op\":\"answer\",\"session\":{id},\"entity\":\"e{entity}\",\"answer\":\"{}\"}}",
            if yes { "yes" } else { "no" }
        );
        let t2 = Instant::now();
        let answer = {
            let _s = trace::span("client.answer", session_tag);
            ok(t.call(&line)?)?
        };
        let t3 = Instant::now();
        timing.question_ns.push((t3 - t0).as_nanos() as u64);
        timing.request_ns.push((t1 - t0).as_nanos() as u64);
        timing.request_ns.push((t3 - t2).as_nanos() as u64);
        timing.question_bytes += (ask.len() + resp.len() + line.len() + answer.len() + 4) as u64;
        out.steps.push(Step {
            entity,
            yes,
            candidates: num(&answer, "candidates")? as usize,
        });
        if out.steps.len() > 10_000 {
            return Err("session does not end".into());
        }
    }
    let _s = trace::span("client.close", session_tag);
    ok(t.call(&format!("{{\"op\":\"close\",\"session\":{id}}}"))?)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_of_flat_responses() {
        let r = r#"{"ok":true,"op":"ask","session":3,"done":false,"entity":"e12","questions":0}"#;
        assert_eq!(field(r, "entity"), Some("e12"));
        assert_eq!(field(r, "done"), Some("false"));
        assert_eq!(num(r, "session"), Ok(3));
        assert_eq!(field(r, "discovered"), None);
    }
}
