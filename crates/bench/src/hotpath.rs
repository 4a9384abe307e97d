//! Selection hot-path kernels with a JSON trajectory artifact.
//!
//! `bench_hotpath` times the innermost kernels of tree construction — the
//! counting pass, partitioning, k-LP / gain-k lookahead, and the exact
//! optimal solver — and emits `BENCH_hotpath.json` so every perf PR can
//! compare against the committed baseline. Unlike the per-figure criterion
//! benches this harness is self-contained (plain wall-clock medians) because
//! it must also produce a machine-readable artifact.

use setdisc_core::builder::build_tree;
use setdisc_core::cost::AvgDepth;
use setdisc_core::lookahead::{GainK, KLp};
use setdisc_core::optimal::OptimalSolver;
use setdisc_core::subcollection::SubStorage;
use setdisc_util::obs;
use setdisc_util::report::{fmt_duration, parse_json, JsonObject, JsonValue};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Workload scale for the hotpath kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HotpathScale {
    /// Seconds — the CI smoke configuration.
    Smoke,
    /// Tens of seconds — for local before/after comparisons.
    Default,
}

impl HotpathScale {
    /// Parses `"smoke" | "default"`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "smoke" => Some(Self::Smoke),
            "default" => Some(Self::Default),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Smoke => "smoke",
            Self::Default => "default",
        }
    }

    fn pick<T>(self, smoke: T, default: T) -> T {
        match self {
            Self::Smoke => smoke,
            Self::Default => default,
        }
    }
}

/// One timed kernel: median/mean wall clock per iteration plus a
/// kernel-specific throughput figure.
pub struct KernelReport {
    /// Kernel name (stable across PRs — the JSON key).
    pub name: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Measured samples.
    pub samples: usize,
    /// Work items processed per iteration (trees, partitions, elements…).
    pub items_per_iter: u64,
    /// Unit of `items_per_iter` (e.g. `"trees"`).
    pub unit: &'static str,
}

impl KernelReport {
    /// Items per second at the median iteration time.
    pub fn throughput(&self) -> f64 {
        if self.median_ns <= 0.0 {
            return 0.0;
        }
        self.items_per_iter as f64 * 1e9 / self.median_ns
    }

    fn to_json(&self) -> JsonObject {
        JsonObject::new()
            .str("kernel", &self.name)
            .num("median_ns", self.median_ns)
            .num("mean_ns", self.mean_ns)
            .int("samples", self.samples as u64)
            .int("items_per_iter", self.items_per_iter)
            .str("unit", self.unit)
            .num("items_per_sec", self.throughput())
    }
}

/// Times `f` (which performs `items` units of work per call): two warm-up
/// calls, then `samples` measured calls.
pub fn time_kernel(
    name: &str,
    samples: usize,
    items: u64,
    unit: &'static str,
    mut f: impl FnMut() -> u64,
) -> KernelReport {
    let mut acc = 0u64;
    for _ in 0..2 {
        acc = acc.wrapping_add(f());
    }
    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        acc = acc.wrapping_add(f());
        times.push(start.elapsed());
    }
    black_box(acc);
    times.sort_unstable();
    let median = times[times.len() / 2];
    let mean = times.iter().sum::<Duration>() / times.len() as u32;
    KernelReport {
        name: name.to_string(),
        median_ns: median.as_nanos() as f64,
        mean_ns: mean.as_nanos() as f64,
        samples,
        items_per_iter: items,
        unit,
    }
}

/// Runs every hotpath kernel (optionally filtered by substring) and returns
/// the reports in execution order.
pub fn run_kernels(scale: HotpathScale, filter: Option<&str>) -> Vec<KernelReport> {
    let mut reports = Vec::new();
    let mut run =
        |name: &str, samples: usize, items: u64, unit: &'static str, f: &mut dyn FnMut() -> u64| {
            if let Some(pat) = filter {
                if !name.contains(pat) {
                    return;
                }
            }
            let rep = time_kernel(name, samples, items, unit, f);
            eprintln!(
                "{:>32}  median {:>10}  {:>14.0} {}/s",
                rep.name,
                fmt_duration(Duration::from_nanos(rep.median_ns as u64)),
                rep.throughput(),
                rep.unit
            );
            reports.push(rep);
        };

    // Fig. 3 kernel: k-LP tree build over a copy-add collection (α = 0.9,
    // d = 10–15) — the headline construction-throughput workload.
    let n_tree = scale.pick(120, 300);
    let samples = scale.pick(9, 15);
    let copyadd = crate::synthetic(n_tree, 0.9);
    for k in [2u32, 3] {
        run(
            &format!("klp_k{k}_tree_copyadd_n{n_tree}"),
            samples,
            1,
            "trees",
            &mut || {
                let mut s = KLp::<AvgDepth>::new(k);
                let tree = build_tree(&copyadd.full_view(), &mut s).expect("tree");
                tree.total_depth()
            },
        );
    }

    // Same kernel on web-table seed-query sub-collections.
    let (web, lists) = crate::web_subcollections(15, 3, scale.pick(40, 60));
    let web_ids = lists.first().expect("a sub-collection").clone();
    run(
        &format!("klp_k3_tree_web_n{}", web_ids.len()),
        samples,
        1,
        "trees",
        &mut || {
            let mut s = KLp::<AvgDepth>::new(3);
            let tree = build_tree(&crate::view_of(&web, &web_ids), &mut s).expect("tree");
            tree.total_depth()
        },
    );

    // Unpruned gain-k bound (the Fig. 4 baseline's inner call).
    let small = crate::synthetic(scale.pick(30, 40), 0.9);
    run(
        &format!("gaink_k2_bound_copyadd_n{}", small.len()),
        samples,
        1,
        "bounds",
        &mut || {
            let (_, l) = GainK::<AvgDepth>::new(2)
                .bound(&small.full_view())
                .expect("bound");
            l
        },
    );

    // Exact optimal solver on a small collection (memo-heavy workload).
    let tiny = crate::synthetic(scale.pick(13, 15), 0.8);
    run(
        &format!("optimal_ad_copyadd_n{}", tiny.len()),
        samples,
        1,
        "solves",
        &mut || {
            let mut solver = OptimalSolver::<AvgDepth>::new();
            solver.optimal_cost(&tiny.full_view()).expect("small")
        },
    );

    // Raw counting pass over a larger collection — the innermost loop.
    let big = crate::synthetic(scale.pick(2_000, 8_000), 0.9);
    let big_view = big.full_view();
    let elements = big_view.total_elements() as u64;
    run(
        &format!("count_entities_copyadd_n{}", big.len()),
        samples.max(10),
        elements,
        "elements",
        &mut || {
            let mut out = Vec::new();
            big_view.count_entities(&mut out);
            out.len() as u64
        },
    );

    // The same counting pass forced through the bitmap machinery: each
    // occurring entity's postings intersected with the view bitmap,
    // fingerprints included (the k-LP candidate-generation shape).
    run(
        &format!("count_entities_bitmap_n{}", big.len()),
        samples.max(10),
        elements,
        "elements",
        &mut || {
            let mut out = Vec::new();
            big_view.count_entities_with_fp_postings(&mut out);
            out.len() as u64
        },
    );

    // Partition sweep: split the big view on each of a slice of entities.
    let informative = big_view.informative_entities();
    let probes: Vec<_> = informative
        .iter()
        .step_by((informative.len() / 200).max(1))
        .map(|ec| ec.entity)
        .collect();
    run(
        &format!("partition_copyadd_n{}", big.len()),
        samples.max(10),
        probes.len() as u64,
        "partitions",
        &mut || {
            let mut acc = 0u64;
            for &e in &probes {
                let (yes, no) = big_view.partition(e);
                acc = acc.wrapping_add(yes.len() as u64 ^ no.len() as u64);
            }
            acc
        },
    );

    // The pure bitmap split kernel: same probes, storage recycled, so the
    // timing is AND/ANDNOT + popcount + yes-side fingerprint only.
    run(
        &format!("partition_bitmap_n{}", big.len()),
        samples.max(10),
        probes.len() as u64,
        "partitions",
        &mut || {
            let mut acc = 0u64;
            let mut yes = SubStorage::new();
            let mut no = SubStorage::new();
            for &e in &probes {
                let (y, n) = big_view.partition_into(e, yes, no);
                acc = acc.wrapping_add(y.len() as u64 ^ n.len() as u64);
                yes = y.into_storage();
                no = n.into_storage();
            }
            acc
        },
    );

    // The id-vector merge reference the bitmap kernels replaced (also the
    // correctness oracle the property tests pin against).
    run(
        &format!("partition_merge_n{}", big.len()),
        samples.max(10),
        probes.len() as u64,
        "partitions",
        &mut || {
            let mut acc = 0u64;
            let mut yes = SubStorage::new();
            let mut no = SubStorage::new();
            for &e in &probes {
                let (y, n) = big_view.partition_into_merge(e, yes, no);
                acc = acc.wrapping_add(y.len() as u64 ^ n.len() as u64);
                yes = y.into_storage();
                no = n.into_storage();
            }
            acc
        },
    );

    // Telemetry guard pair: the same accumulate loop with and without a
    // disarmed span at each step. A disarmed span is one relaxed load
    // (DESIGN.md §12); `bench_hotpath` fails when the pair's ratio exceeds
    // `SPAN_OVERHEAD_CEILING`.
    obs::arm(false);
    let span_iters: u64 = scale.pick(1_000_000, 4_000_000);
    run(
        "obs_span_disarmed",
        samples.max(10),
        span_iters,
        "spans",
        &mut || {
            let mut acc = 0u64;
            for i in 0..span_iters {
                let _span = obs::span(obs::Site::EngineSelect);
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        },
    );
    run(
        "obs_span_baseline",
        samples.max(10),
        span_iters,
        "spans",
        &mut || {
            let mut acc = 0u64;
            for i in 0..span_iters {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        },
    );

    reports
}

/// Ceiling on [`span_overhead`]. A disarmed span is one relaxed load and
/// a `None`: on a 2-vCPU host the ratio read 5.1–5.9 idle and 10.1–11.8
/// with both cores busy, while a clock read on the disarmed path read
/// 63–93. The ceiling sits between, 2.5× above the loaded readings.
pub const SPAN_OVERHEAD_CEILING: f64 = 30.0;

/// Median `obs_span_disarmed` over median `obs_span_baseline` from the same
/// run; `None` unless the run measured both (`--filter` can skip them).
pub fn span_overhead(reports: &[KernelReport]) -> Option<f64> {
    let median = |name: &str| reports.iter().find(|r| r.name == name).map(|r| r.median_ns);
    Some(median("obs_span_disarmed")? / median("obs_span_baseline")?)
}

/// One calibration measurement: a forced run of a counting kernel over a
/// view whose predicted cost driver is `units` (total elements for the
/// element pass, index scan cost for the postings sweep).
#[derive(Debug, Clone, Copy)]
pub struct CalibrationPoint {
    /// Collection size (sets) the view was taken over.
    pub n: usize,
    /// Predicted cost units for this kernel on this view.
    pub units: u64,
    /// Median nanoseconds for one forced pass.
    pub median_ns: f64,
}

/// Measured calibration data for both counting kernels, with the
/// least-squares fits the `calibrate` report prints. Feeds ROADMAP item 3:
/// the committed dispatch factors (1 for the count-only pass, 2 for the
/// fingerprint variants) encode an assumed ratio between the per-unit
/// costs of the two kernels, and this report measures that ratio on the
/// current machine.
#[derive(Debug, Default)]
pub struct Calibration {
    /// Element-pass points (`units` = view total elements).
    pub elements: Vec<CalibrationPoint>,
    /// Postings-sweep points (`units` = index scan cost).
    pub postings: Vec<CalibrationPoint>,
}

/// Least-squares slope through the origin for `median_ns = c × units`:
/// `c = Σ(units·ns) / Σ(units²)`. Zero when there is nothing to fit.
fn fit_through_origin(points: &[CalibrationPoint]) -> f64 {
    let num: f64 = points.iter().map(|p| p.units as f64 * p.median_ns).sum();
    let den: f64 = points.iter().map(|p| (p.units as f64).powi(2)).sum();
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Calibration {
    /// Fitted nanoseconds per element for the forced element pass.
    pub fn ns_per_element(&self) -> f64 {
        fit_through_origin(&self.elements)
    }

    /// Fitted nanoseconds per scan unit for the forced postings sweep.
    pub fn ns_per_scan_unit(&self) -> f64 {
        fit_through_origin(&self.postings)
    }

    /// The break-even dispatch factor the fits imply. The dispatcher sweeps
    /// postings when `total_elements > factor × scan_cost`; cost parity
    /// holds at `elements · c_e = scan · c_s`, i.e. the measured factor is
    /// `c_s / c_e`. Zero when the element fit is degenerate.
    pub fn fitted_factor(&self) -> f64 {
        let e = self.ns_per_element();
        if e > 0.0 {
            self.ns_per_scan_unit() / e
        } else {
            0.0
        }
    }

    /// Renders the calibrate report: per-point measurements, the two fitted
    /// constants, and the implied dispatch factor next to the committed
    /// ones.
    pub fn lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, points) in [("elements", &self.elements), ("postings", &self.postings)] {
            for p in points {
                lines.push(format!(
                    "{:>10} n={:<6} units={:<9} median={:>10}  {:>8.3} ns/unit",
                    name,
                    p.n,
                    p.units,
                    fmt_duration(Duration::from_nanos(p.median_ns as u64)),
                    if p.units > 0 {
                        p.median_ns / p.units as f64
                    } else {
                        0.0
                    },
                ));
            }
        }
        lines.push(format!(
            "fitted: {:.3} ns/element, {:.3} ns/scan-unit",
            self.ns_per_element(),
            self.ns_per_scan_unit()
        ));
        lines.push(format!(
            "fitted dispatch factor {:.2} (committed: 1 for count-only, 2 for fingerprint passes)",
            self.fitted_factor()
        ));
        lines
    }
}

/// Runs the calibration workload: forced element-pass and postings-sweep
/// counting over full views of copy-add collections across a size range,
/// timing each and recording the predicted cost units the dispatcher would
/// have compared. The same measurement the armed
/// `setdisc_cost_model_error` histograms collect in production, but under
/// controlled sizes and with both kernels forced on every view.
pub fn run_calibration(scale: HotpathScale) -> Calibration {
    use setdisc_core::subcollection::EntityStats;
    let sizes: &[usize] = scale.pick(
        &[250, 500, 1_000, 2_000],
        &[500, 1_000, 2_000, 4_000, 8_000],
    );
    let samples = scale.pick(7, 11);
    let mut cal = Calibration::default();
    for &n in sizes {
        let coll = crate::synthetic(n, 0.9);
        let view = coll.full_view();
        let preview = view.dispatch_preview(2);
        let mut out: Vec<EntityStats> = Vec::new();
        let rep = time_kernel(
            &format!("calibrate_elements_n{n}"),
            samples,
            preview.total_elements,
            "elements",
            || {
                out.clear();
                view.count_entities_with_fp_elements(&mut out);
                out.len() as u64
            },
        );
        cal.elements.push(CalibrationPoint {
            n,
            units: preview.total_elements,
            median_ns: rep.median_ns,
        });
        let rep = time_kernel(
            &format!("calibrate_postings_n{n}"),
            samples,
            preview.scan_cost,
            "scan-units",
            || {
                out.clear();
                view.count_entities_with_fp_postings(&mut out);
                out.len() as u64
            },
        );
        cal.postings.push(CalibrationPoint {
            n,
            units: preview.scan_cost,
            median_ns: rep.median_ns,
        });
    }
    cal
}

/// Renders a per-kernel comparison of `reports` against a previously
/// emitted `BENCH_hotpath.json` document, one line per kernel
/// (`name old → new speedup`); kernels present on only one side are
/// called out. Errors on unparseable baselines.
pub fn compare_lines(baseline_json: &str, reports: &[KernelReport]) -> Result<Vec<String>, String> {
    let doc = parse_json(baseline_json).map_err(|e| format!("bad baseline JSON: {e}"))?;
    let kernels = doc
        .get("kernels")
        .and_then(JsonValue::as_array)
        .ok_or("baseline has no kernels array")?;
    let mut old: Vec<(String, f64)> = Vec::new();
    for k in kernels {
        let name = k
            .get("kernel")
            .and_then(JsonValue::as_str)
            .ok_or("kernel entry without a name")?;
        let median = k
            .get("median_ns")
            .and_then(JsonValue::as_f64)
            .ok_or("kernel entry without median_ns")?;
        old.push((name.to_string(), median));
    }
    let mut lines = Vec::new();
    for rep in reports {
        match old.iter().find(|(name, _)| *name == rep.name) {
            Some((_, old_ns)) if rep.median_ns > 0.0 => lines.push(format!(
                "{:>32}  {:>10} -> {:>10}  {:>6.2}x",
                rep.name,
                fmt_duration(Duration::from_nanos(*old_ns as u64)),
                fmt_duration(Duration::from_nanos(rep.median_ns as u64)),
                old_ns / rep.median_ns,
            )),
            Some(_) => {}
            None => lines.push(format!("{:>32}  (new kernel, no baseline)", rep.name)),
        }
    }
    for (name, _) in &old {
        if !reports.iter().any(|r| r.name == *name) {
            lines.push(format!("{name:>32}  (in baseline only)"));
        }
    }
    Ok(lines)
}

/// Encodes the reports as the `BENCH_hotpath.json` document.
pub fn to_json(scale: HotpathScale, reports: &[KernelReport]) -> JsonObject {
    JsonObject::new()
        .str("bench", "hotpath")
        .str("scale", scale.name())
        .array(
            "kernels",
            reports.iter().map(KernelReport::to_json).collect(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_kernel_reports_sane_numbers() {
        let rep = time_kernel("noop", 3, 7, "items", || 1);
        assert_eq!(rep.samples, 3);
        assert_eq!(rep.items_per_iter, 7);
        assert!(rep.median_ns >= 0.0);
        assert!(rep.throughput() >= 0.0);
    }

    #[test]
    fn json_document_shape() {
        let rep = time_kernel("noop", 2, 1, "items", || 1);
        let doc = to_json(HotpathScale::Smoke, &[rep]).encode();
        assert!(doc.contains("\"bench\":\"hotpath\""));
        assert!(doc.contains("\"scale\":\"smoke\""));
        assert!(doc.contains("\"kernel\":\"noop\""));
    }

    #[test]
    fn compare_reports_speedups_and_mismatches() {
        let mut fast = time_kernel("shared", 2, 1, "items", || 1);
        fast.median_ns = 500.0;
        let baseline = to_json(
            HotpathScale::Smoke,
            &[
                KernelReport {
                    name: "shared".into(),
                    median_ns: 1000.0,
                    mean_ns: 1000.0,
                    samples: 2,
                    items_per_iter: 1,
                    unit: "items",
                },
                KernelReport {
                    name: "retired".into(),
                    median_ns: 10.0,
                    mean_ns: 10.0,
                    samples: 2,
                    items_per_iter: 1,
                    unit: "items",
                },
            ],
        )
        .encode();
        let mut fresh = time_kernel("fresh", 2, 1, "items", || 1);
        fresh.median_ns = 7.0;
        let lines = compare_lines(&baseline, &[fast, fresh]).unwrap();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("shared") && lines[0].contains("2.00x"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("no baseline"));
        assert!(lines[2].contains("in baseline only"));
        assert!(compare_lines("not json", &[]).is_err());
        assert!(compare_lines("{\"bench\":\"hotpath\"}", &[]).is_err());
    }

    #[test]
    fn fit_recovers_a_known_slope() {
        // Exact points on median_ns = 3 × units fit back to 3.
        let points: Vec<CalibrationPoint> = [10u64, 100, 1000]
            .iter()
            .map(|&units| CalibrationPoint {
                n: units as usize,
                units,
                median_ns: 3.0 * units as f64,
            })
            .collect();
        let slope = fit_through_origin(&points);
        assert!((slope - 3.0).abs() < 1e-9, "{slope}");
        assert_eq!(fit_through_origin(&[]), 0.0);
    }

    #[test]
    fn calibration_report_shape() {
        let mut cal = Calibration::default();
        cal.elements.push(CalibrationPoint {
            n: 100,
            units: 1000,
            median_ns: 2000.0,
        });
        cal.postings.push(CalibrationPoint {
            n: 100,
            units: 250,
            median_ns: 1500.0,
        });
        assert!((cal.ns_per_element() - 2.0).abs() < 1e-9);
        assert!((cal.ns_per_scan_unit() - 6.0).abs() < 1e-9);
        assert!((cal.fitted_factor() - 3.0).abs() < 1e-9);
        let lines = cal.lines();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("elements"));
        assert!(lines[1].contains("postings"));
        assert!(lines[2].contains("ns/element"));
        assert!(lines[3].contains("committed: 1 for count-only"));
        // Degenerate element fit must not divide by zero.
        assert_eq!(Calibration::default().fitted_factor(), 0.0);
    }

    #[test]
    fn span_overhead_pairs_the_guard_kernels() {
        let rep = |name: &str, median_ns| KernelReport {
            name: name.to_string(),
            median_ns,
            mean_ns: median_ns,
            samples: 1,
            items_per_iter: 1,
            unit: "spans",
        };
        let both = [
            rep("obs_span_disarmed", 30.0),
            rep("obs_span_baseline", 10.0),
        ];
        assert_eq!(span_overhead(&both), Some(3.0));
        assert_eq!(span_overhead(&both[..1]), None);
        assert_eq!(span_overhead(&both[1..]), None);
    }

    #[test]
    fn scale_parses() {
        assert_eq!(HotpathScale::parse("smoke"), Some(HotpathScale::Smoke));
        assert_eq!(HotpathScale::parse("default"), Some(HotpathScale::Default));
        assert_eq!(HotpathScale::parse("paper"), None);
    }
}
