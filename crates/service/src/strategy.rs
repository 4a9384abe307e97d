//! Strategy specifications: the bridge from wire-level strategy
//! descriptions to boxed [`SelectionStrategy`] values.
//!
//! Both the service's `create` request and the `discover` CLI build their
//! engines through [`StrategySpec`], so a terminal session and a service
//! session configured the same way are *constructed* the same way — one
//! code path, bit-identical question sequences.

use setdisc_core::cost::{AvgDepth, Height};
use setdisc_core::lookahead::KLp;
use setdisc_core::strategy::{
    IndistinguishablePairs, InfoGain, Lb1, MostEven, RandomInformative, SelectionStrategy,
    WeightedMostEven,
};
use setdisc_core::weights::WeightTable;
use std::sync::Arc;

/// A boxed, table-storable selection strategy.
pub type BoxedStrategy = Box<dyn SelectionStrategy + Send>;

/// Cost metric selector (`ad` = average depth, `h` = height).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Average depth (AD), the paper's default.
    AvgDepth,
    /// Height (H), the worst-case metric.
    Height,
}

impl Metric {
    /// Parses `"ad"` / `"h"`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "ad" => Ok(Metric::AvgDepth),
            "h" => Ok(Metric::Height),
            other => Err(format!("unknown metric {other:?} (want ad|h)")),
        }
    }
}

/// Which selection family to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StrategyKind {
    /// k-LP (Algorithm 1) with the full candidate set.
    KLp,
    /// k-LPLE: beam of `q` most-even candidates at every level.
    KLpLe,
    /// k-LPLVE: beam of `q` at the selection level, one below.
    KLpLve,
    /// Most-even partitioning (§4.2.1).
    MostEven,
    /// Information gain (§4.2.2).
    InfoGain,
    /// Indistinguishable pairs (§4.2.3).
    IndistPairs,
    /// 1-step cost lower bound (§4.2.4).
    Lb1,
    /// Uniform random informative entity (ablation baseline).
    Random,
}

/// A fully-specified strategy configuration, parseable from wire fields and
/// buildable into a [`BoxedStrategy`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct StrategySpec {
    /// Selection family.
    pub kind: StrategyKind,
    /// Cost metric for the lookahead/bound families.
    pub metric: Metric,
    /// Lookahead depth for the k-LP families.
    pub k: u32,
    /// Beam width for the limited families.
    pub beam: usize,
    /// Seed for the random baseline.
    pub seed: u64,
}

impl Default for StrategySpec {
    fn default() -> Self {
        Self {
            kind: StrategyKind::KLp,
            metric: Metric::AvgDepth,
            k: 2,
            beam: 10,
            seed: 0,
        }
    }
}

impl StrategySpec {
    /// Parses the wire fields: a family name (`klp`, `klp-le`, `klp-lve`,
    /// `most-even`, `info-gain`, `indist-pairs`, `lb1`, `random`) plus
    /// optional metric / k / beam / seed overrides.
    pub fn parse(
        name: &str,
        metric: Option<&str>,
        k: Option<u64>,
        beam: Option<u64>,
        seed: Option<u64>,
    ) -> Result<Self, String> {
        let kind = match name {
            "klp" => StrategyKind::KLp,
            "klp-le" => StrategyKind::KLpLe,
            "klp-lve" => StrategyKind::KLpLve,
            "most-even" => StrategyKind::MostEven,
            "info-gain" => StrategyKind::InfoGain,
            "indist-pairs" => StrategyKind::IndistPairs,
            "lb1" => StrategyKind::Lb1,
            "random" => StrategyKind::Random,
            other => return Err(format!("unknown strategy {other:?}")),
        };
        let mut spec = Self {
            kind,
            ..Self::default()
        };
        if let Some(m) = metric {
            spec.metric = Metric::parse(m)?;
        }
        if let Some(k) = k {
            if k == 0 || k > 16 {
                return Err(format!("k={k} out of range (1..=16)"));
            }
            spec.k = k as u32;
        }
        if let Some(q) = beam {
            if q == 0 || q > 1_000_000 {
                return Err(format!("beam={q} out of range"));
            }
            spec.beam = q as usize;
        }
        if let Some(s) = seed {
            spec.seed = s;
        }
        Ok(spec)
    }

    /// Builds the configured strategy.
    pub fn build(&self) -> BoxedStrategy {
        match (self.kind, self.metric) {
            (StrategyKind::KLp, Metric::AvgDepth) => Box::new(KLp::<AvgDepth>::new(self.k)),
            (StrategyKind::KLp, Metric::Height) => Box::new(KLp::<Height>::new(self.k)),
            (StrategyKind::KLpLe, Metric::AvgDepth) => {
                Box::new(KLp::<AvgDepth>::limited(self.k, self.beam))
            }
            (StrategyKind::KLpLe, Metric::Height) => {
                Box::new(KLp::<Height>::limited(self.k, self.beam))
            }
            (StrategyKind::KLpLve, Metric::AvgDepth) => {
                Box::new(KLp::<AvgDepth>::limited_variable(self.k, self.beam))
            }
            (StrategyKind::KLpLve, Metric::Height) => {
                Box::new(KLp::<Height>::limited_variable(self.k, self.beam))
            }
            (StrategyKind::MostEven, _) => Box::new(MostEven::new()),
            (StrategyKind::InfoGain, _) => Box::new(InfoGain::new()),
            (StrategyKind::IndistPairs, _) => Box::new(IndistinguishablePairs::new()),
            (StrategyKind::Lb1, Metric::AvgDepth) => Box::new(Lb1::<AvgDepth>::new()),
            (StrategyKind::Lb1, Metric::Height) => Box::new(Lb1::<Height>::new()),
            (StrategyKind::Random, _) => Box::new(RandomInformative::new(self.seed)),
        }
    }

    /// Builds the configured strategy under a per-set prior (§6 weighted
    /// AD). Only the families whose weighted math is implemented qualify:
    /// the k-LP lookaheads under the AD metric (weighted total depth) and
    /// most-even (weighted balance). Everything else is an error the wire
    /// layer reports verbatim.
    pub fn build_weighted(&self, weights: Arc<WeightTable>) -> Result<BoxedStrategy, String> {
        match (self.kind, self.metric) {
            (StrategyKind::KLp, Metric::AvgDepth) => {
                Ok(Box::new(KLp::<AvgDepth>::new(self.k).with_prior(weights)))
            }
            (StrategyKind::KLpLe, Metric::AvgDepth) => Ok(Box::new(
                KLp::<AvgDepth>::limited(self.k, self.beam).with_prior(weights),
            )),
            (StrategyKind::KLpLve, Metric::AvgDepth) => Ok(Box::new(
                KLp::<AvgDepth>::limited_variable(self.k, self.beam).with_prior(weights),
            )),
            (StrategyKind::MostEven, _) => Ok(Box::new(WeightedMostEven::new(weights))),
            _ => Err(format!(
                "strategy {} does not support a prior \
                 (want klp|klp-le|klp-lve with metric ad, or most-even)",
                self.label()
            )),
        }
    }

    /// The display name [`Self::build_weighted`] would produce, mirroring
    /// [`Self::label`].
    pub fn weighted_label(&self, weights: &WeightTable) -> String {
        let fp = weights.fp();
        match self.kind {
            StrategyKind::KLp => format!("k-LP(k={},AD,w:{fp:016x})", self.k),
            StrategyKind::KLpLe => format!("k-LPLE(k={},q={},AD,w:{fp:016x})", self.k, self.beam),
            StrategyKind::KLpLve => format!("k-LPLVE(k={},q={},AD,w:{fp:016x})", self.k, self.beam),
            StrategyKind::MostEven => format!("MostEven(w:{fp:016x})"),
            _ => self.label(),
        }
    }

    /// The configured strategy's display name (e.g. `"k-LP(k=2,AD)"`) —
    /// derived from the fields, without constructing the strategy, so the
    /// service's create path builds each strategy exactly once. Agreement
    /// with the built strategy's `name()` is asserted by tests.
    pub fn label(&self) -> String {
        let m = match self.metric {
            Metric::AvgDepth => "AD",
            Metric::Height => "H",
        };
        match self.kind {
            StrategyKind::KLp => format!("k-LP(k={},{m})", self.k),
            StrategyKind::KLpLe => format!("k-LPLE(k={},q={},{m})", self.k, self.beam),
            StrategyKind::KLpLve => format!("k-LPLVE(k={},q={},{m})", self.k, self.beam),
            StrategyKind::MostEven => "MostEven".into(),
            StrategyKind::InfoGain => "InfoGain".into(),
            StrategyKind::IndistPairs => "IndistPairs".into(),
            StrategyKind::Lb1 => format!("LB1({m})"),
            StrategyKind::Random => "Random".into(),
        }
    }

    /// The plan-cache key of this configuration, or `None` for strategies
    /// whose selections must not be shared across sessions (the random
    /// baseline advances per-session RNG state). Metric-free families map
    /// the metric tag to 0 so equivalent configurations share one plan; the
    /// beam tag is 0 for the unlimited family for the same reason.
    pub fn plan_key(&self) -> Option<setdisc_plan::StrategyKey> {
        let family = match self.kind {
            StrategyKind::KLp => 0,
            StrategyKind::KLpLe => 1,
            StrategyKind::KLpLve => 2,
            StrategyKind::MostEven => 3,
            StrategyKind::InfoGain => 4,
            StrategyKind::IndistPairs => 5,
            StrategyKind::Lb1 => 6,
            StrategyKind::Random => return None,
        };
        let metric_sensitive = matches!(
            self.kind,
            StrategyKind::KLp | StrategyKind::KLpLe | StrategyKind::KLpLve | StrategyKind::Lb1
        );
        let metric = match (metric_sensitive, self.metric) {
            (false, _) | (true, Metric::AvgDepth) => 0,
            (true, Metric::Height) => 1,
        };
        let (k, beam) = match self.kind {
            StrategyKind::KLp => (self.k, 0),
            StrategyKind::KLpLe | StrategyKind::KLpLve => (self.k, self.beam as u32),
            _ => (0, 0),
        };
        Some(setdisc_plan::StrategyKey {
            family,
            metric,
            k,
            beam,
            weight_fp: 0,
        })
    }

    /// The plan-cache key of this configuration under `weights`, or `None`
    /// when the configuration has no key or no weighted build (weighted
    /// plans must never be shared with the unweighted strategy, and vice
    /// versa — the prior's fingerprint keeps the key spaces disjoint).
    pub fn weighted_plan_key(&self, weights: &WeightTable) -> Option<setdisc_plan::StrategyKey> {
        let weighted_buildable = matches!(
            (self.kind, self.metric),
            (StrategyKind::KLp, Metric::AvgDepth)
                | (StrategyKind::KLpLe, Metric::AvgDepth)
                | (StrategyKind::KLpLve, Metric::AvgDepth)
                | (StrategyKind::MostEven, _)
        );
        if !weighted_buildable {
            return None;
        }
        self.plan_key().map(|key| setdisc_plan::StrategyKey {
            weight_fp: weights.fp(),
            ..key
        })
    }

    /// The wire-level family name this spec round-trips through
    /// ([`Self::parse`] of this name restores [`Self::kind`]).
    pub fn family_name(&self) -> &'static str {
        match self.kind {
            StrategyKind::KLp => "klp",
            StrategyKind::KLpLe => "klp-le",
            StrategyKind::KLpLve => "klp-lve",
            StrategyKind::MostEven => "most-even",
            StrategyKind::InfoGain => "info-gain",
            StrategyKind::IndistPairs => "indist-pairs",
            StrategyKind::Lb1 => "lb1",
            StrategyKind::Random => "random",
        }
    }

    /// The wire-level metric name (`"ad"` / `"h"`).
    pub fn metric_name(&self) -> &'static str {
        match self.metric {
            Metric::AvgDepth => "ad",
            Metric::Height => "h",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_label_cover_families() {
        let spec = StrategySpec::parse("klp", Some("ad"), Some(2), None, None).unwrap();
        assert_eq!(spec.label(), "k-LP(k=2,AD)");
        let spec = StrategySpec::parse("klp-le", Some("h"), Some(3), Some(10), None).unwrap();
        assert_eq!(spec.label(), "k-LPLE(k=3,q=10,H)");
        let spec = StrategySpec::parse("most-even", None, None, None, None).unwrap();
        assert_eq!(spec.label(), "MostEven");
        let spec = StrategySpec::parse("random", None, None, None, Some(7)).unwrap();
        assert_eq!(spec.label(), "Random");
        let spec = StrategySpec::parse("lb1", Some("h"), None, None, None).unwrap();
        assert_eq!(spec.label(), "LB1(H)");
    }

    #[test]
    fn parse_rejects_bad_fields() {
        assert!(StrategySpec::parse("nope", None, None, None, None).is_err());
        assert!(StrategySpec::parse("klp", Some("zz"), None, None, None).is_err());
        assert!(StrategySpec::parse("klp", None, Some(0), None, None).is_err());
        assert!(StrategySpec::parse("klp-le", None, None, Some(0), None).is_err());
    }

    #[test]
    fn label_agrees_with_built_strategy_name() {
        for kind in [
            "klp",
            "klp-le",
            "klp-lve",
            "most-even",
            "info-gain",
            "indist-pairs",
            "lb1",
            "random",
        ] {
            for metric in ["ad", "h"] {
                let spec =
                    StrategySpec::parse(kind, Some(metric), Some(3), Some(7), Some(1)).unwrap();
                assert_eq!(spec.label(), spec.build().name(), "{kind}/{metric}");
            }
        }
    }

    #[test]
    fn plan_keys_separate_configurations_and_exclude_random() {
        let mut seen = std::collections::HashSet::new();
        for kind in ["klp", "klp-le", "klp-lve", "most-even", "lb1"] {
            for metric in ["ad", "h"] {
                for k in [1u64, 2] {
                    let spec =
                        StrategySpec::parse(kind, Some(metric), Some(k), Some(5), None).unwrap();
                    seen.insert(spec.plan_key().expect("deterministic strategies have keys"));
                }
            }
        }
        // klp/klp-le/klp-lve × 2 metrics × 2 depths = 12, lb1 × 2 metrics,
        // most-even collapses metric and k → 1 key. Total distinct = 15.
        assert_eq!(seen.len(), 15);
        // Metric-free families share one plan across metric spellings.
        let a = StrategySpec::parse("info-gain", Some("ad"), None, None, None).unwrap();
        let b = StrategySpec::parse("info-gain", Some("h"), None, None, None).unwrap();
        assert_eq!(a.plan_key(), b.plan_key());
        // The random baseline must never share plans.
        let r = StrategySpec::parse("random", None, None, None, Some(3)).unwrap();
        assert_eq!(r.plan_key(), None);
    }

    #[test]
    fn weighted_builds_label_and_key_agree() {
        let weights = Arc::new(WeightTable::new(&[5, 1, 1, 1, 1, 1, 1]).unwrap());
        for kind in ["klp", "klp-le", "klp-lve", "most-even"] {
            let spec = StrategySpec::parse(kind, Some("ad"), Some(2), Some(5), None).unwrap();
            let built = spec
                .build_weighted(Arc::clone(&weights))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(built.name(), spec.weighted_label(&weights), "{kind}");
            let wkey = spec.weighted_plan_key(&weights).expect(kind);
            assert_eq!(wkey.weight_fp, weights.fp());
            assert_eq!(
                setdisc_plan::StrategyKey {
                    weight_fp: 0,
                    ..wkey
                },
                spec.plan_key().unwrap(),
                "weighted key differs from unweighted only in the prior"
            );
        }
        // Height-metric lookahead and the other greedy families refuse.
        for (kind, metric) in [
            ("klp", "h"),
            ("info-gain", "ad"),
            ("lb1", "ad"),
            ("random", "ad"),
        ] {
            let spec = StrategySpec::parse(kind, Some(metric), None, None, None).unwrap();
            let err = spec
                .build_weighted(Arc::clone(&weights))
                .err()
                .unwrap_or_else(|| panic!("{kind}/{metric} should refuse a prior"));
            assert!(err.contains("does not support a prior"), "{err}");
            assert_eq!(spec.weighted_plan_key(&weights), None, "{kind}/{metric}");
        }
    }

    #[test]
    fn built_strategies_select_on_a_view() {
        let snap = crate::snapshot::fixture("figure1").unwrap();
        let view = snap.collection().full_view();
        for name in [
            "klp",
            "klp-le",
            "klp-lve",
            "most-even",
            "info-gain",
            "indist-pairs",
            "lb1",
            "random",
        ] {
            let mut s = StrategySpec::parse(name, None, None, None, None)
                .unwrap()
                .build();
            assert!(s.select(&view).is_some(), "{name}");
        }
    }
}
