//! The repository's benchmark: end-to-end and per-layer metrics of the
//! set-discovery engine and its service on three seeded workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload web_sessions|wire_warm|tree_build --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). See
//! `perfbench/README.md`.

mod check;
mod client;
mod gen;
mod layers;
mod report;
mod serve;
mod sessions;
mod speed;
mod trace;
mod traced;
mod tree;
mod web;
mod wire;

use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Where runs write plan files and traces (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn main() {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "web_sessions" => web::run(&args),
        "wire_warm" => wire::run(&args),
        "tree_build" => tree::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (web_sessions, wire_warm, tree_build)"
        )),
    });
    if trace::armed() {
        eprintln!(
            "perfbench: one armed span costs {:.0} ns; a traced question records two (ask, answer) on the client side",
            trace::span_cost_ns()
        );
    }
    match result {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
