//! Hot-path kernel timings with a JSON artifact (`BENCH_hotpath.json`).
//!
//! Unlike the per-figure benches this target is a self-contained harness
//! (no criterion) because it must emit a machine-readable baseline:
//!
//! ```text
//! cargo bench -p setdisc-bench --bench bench_hotpath -- \
//!     --scale smoke --out BENCH_hotpath.json \
//!     [--filter substr] [--compare BASELINE.json]
//! cargo bench -p setdisc-bench --bench bench_hotpath -- \
//!     --scale smoke --calibrate
//! ```
//!
//! `--compare` reads a previously emitted document *before* running (so it
//! may name the same path as `--out`) and prints per-kernel median deltas
//! after the run — the workflow `ci.sh` uses to show every PR's effect on
//! the committed baseline.
//!
//! `--calibrate` is a separate mode: instead of the kernel suite it forces
//! both counting kernels over a size range, fits ns-per-element and
//! ns-per-scan-unit by least squares through the origin, and prints the
//! implied break-even dispatch factor next to the committed constants —
//! the measured input for re-fitting the `use_postings` cost model
//! (ROADMAP item 3, DESIGN.md §14).

use setdisc_bench::hotpath::{
    compare_lines, run_calibration, run_kernels, span_overhead, to_json, HotpathScale,
    SPAN_OVERHEAD_CEILING,
};

fn main() {
    let mut scale = HotpathScale::Smoke;
    let mut out: Option<String> = None;
    let mut filter: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut calibrate = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--calibrate" => calibrate = true,
            "--scale" => {
                let v = args.next().expect("--scale needs a value");
                scale = HotpathScale::parse(&v)
                    .unwrap_or_else(|| panic!("unknown scale {v:?} (smoke|default)"));
            }
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--filter" => filter = Some(args.next().expect("--filter needs a substring")),
            "--compare" => compare = Some(args.next().expect("--compare needs a path")),
            // `cargo bench` passes --bench through to the target; ignore it
            // and any other criterion-style flag so the harness composes.
            _ => {}
        }
    }

    if calibrate {
        eprintln!("cost-model calibration: forced counting kernels over full views");
        for line in run_calibration(scale).lines() {
            println!("{line}");
        }
        return;
    }

    // Read the baseline up front: --compare and --out may be the same file.
    let baseline = compare.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        (path, text)
    });

    let reports = run_kernels(scale, filter.as_deref());
    if let Some((path, text)) = &baseline {
        eprintln!("vs baseline {path}:");
        match compare_lines(text, &reports) {
            Ok(lines) => {
                for line in lines {
                    eprintln!("{line}");
                }
            }
            Err(e) => eprintln!("  (comparison unavailable: {e})"),
        }
    }
    let doc = to_json(scale, &reports);
    match &out {
        Some(path) => {
            doc.write(path).expect("write JSON artifact");
            eprintln!("wrote {path}");
        }
        None => println!("{}", doc.encode()),
    }
    if let Some(ratio) = span_overhead(&reports) {
        eprintln!(
            "disarmed span: {ratio:.2}x obs_span_baseline (ceiling {SPAN_OVERHEAD_CEILING}x)"
        );
        if ratio > SPAN_OVERHEAD_CEILING {
            eprintln!("disarmed span exceeds its ceiling: a clock read, lock or allocation?");
            std::process::exit(1);
        }
    }
}
