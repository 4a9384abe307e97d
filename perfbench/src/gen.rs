//! The benchmark's own seeded input generators.
//!
//! They live here rather than in `setdisc-synth` so that a change to the
//! program's generators cannot change a workload. Both write the
//! `setdisc_core::io` text format (`name: member member ...`) with entity
//! ids renumbered in order of first appearance, so the ids the program's
//! parser interns equal the ids of the benchmark's own copy, and
//! `Collection::from_raw_sets` over that copy builds the same collection.

use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// splitmix64: small, seedable, and independent of the program's PRNG.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over ranks `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A generated collection: sorted, duplicate-free sets of entity ids
/// numbered by first appearance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Corpus {
    pub sets: Vec<Vec<u32>>,
    pub universe: u32,
}

impl Corpus {
    /// Cleans raw sets (paper §5.2.1: at least `min_len` distinct elements,
    /// duplicates removed) and renumbers entities by first appearance.
    fn clean(raw: Vec<Vec<u32>>, min_len: usize) -> Corpus {
        let mut seen: HashSet<Vec<u32>> = HashSet::new();
        let mut relabel: Vec<u32> = Vec::new();
        let mut next = 0u32;
        let mut sets = Vec::with_capacity(raw.len());
        for mut set in raw {
            set.sort_unstable();
            set.dedup();
            if set.len() < min_len || !seen.insert(set.clone()) {
                continue;
            }
            let mut out: Vec<u32> = set
                .iter()
                .map(|&e| {
                    let e = e as usize;
                    if relabel.len() <= e {
                        relabel.resize(e + 1, u32::MAX);
                    }
                    if relabel[e] == u32::MAX {
                        relabel[e] = next;
                        next += 1;
                    }
                    relabel[e]
                })
                .collect();
            out.sort_unstable();
            sets.push(out);
        }
        Corpus {
            sets,
            universe: next,
        }
    }

    /// Writes the text format; set `i` is named `s<i>`, entity `e` is
    /// `e<e>`. Members are written in id order, so first appearance in the
    /// text matches the id numbering.
    pub fn write_text(&self, mut w: impl Write) -> io::Result<()> {
        for (i, set) in self.sets.iter().enumerate() {
            write!(w, "s{i}:")?;
            for e in set {
                write!(w, " e{e}")?;
            }
            w.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Inverted index: entity → sorted set indices.
    pub fn postings(&self) -> Vec<Vec<u32>> {
        let mut post = vec![Vec::new(); self.universe as usize];
        for (i, set) in self.sets.iter().enumerate() {
            for &e in set {
                post[e as usize].push(i as u32);
            }
        }
        post
    }

    pub fn contains(&self, set: usize, entity: u32) -> bool {
        self.sets[set].binary_search(&entity).is_ok()
    }
}

/// Parameters of the web-tables-like corpus. The fields mirror
/// `WebTablesConfig` in `crates/synth/src/webtables.rs`.
#[derive(Clone, Debug)]
pub struct WebParams {
    /// Columns (sets) generated before cleaning.
    pub columns: usize,
    pub classes: usize,
    /// Inclusive class-vocabulary size range.
    pub vocab: (usize, usize),
    /// Inclusive column-size range.
    pub size: (usize, usize),
    pub class_zipf: f64,
    pub entity_zipf: f64,
    /// Share of each class vocabulary taken from the pool of entities
    /// shared across classes.
    pub ambiguous: f64,
    /// Per-member chance of being replaced by a uniform entity.
    pub noise_rate: f64,
}

/// The `web_sessions` / `tree_build` corpus: the shape of
/// `WebTablesConfig::default()`, the repository's stand-in for the paper's
/// web-table corpus (DESIGN.md section 4), with only the column count
/// raised from 12,000 to about 10^5. The values are copied rather than
/// read from `setdisc-synth`, so a change there cannot change a workload.
pub const WEB_STANDARD: WebParams = WebParams {
    columns: 100_000,
    classes: 60,
    vocab: (800, 4_000),
    size: (8, 120),
    class_zipf: 0.9,
    entity_zipf: 0.8,
    ambiguous: 0.04,
    noise_rate: 0.01,
};

/// Web-table columns, generated as `setdisc_synth::webtables::generate`
/// does with the benchmark's own PRNG. Each class vocabulary holds fresh
/// entities and a few from a pool shared across classes, in random
/// popularity order. A column samples one class (Zipf popularity) and
/// draws distinct members from its vocabulary (Zipf popularity within the
/// class, topped up uniformly when the head is exhausted); each member is
/// then replaced by uniform noise with a small chance.
pub fn web_tables(p: &WebParams, seed: u64) -> Corpus {
    let mut rng = Rng::new(seed);
    let avg_vocab = (p.vocab.0 + p.vocab.1) / 2;
    let pool = ((avg_vocab as f64 * p.ambiguous * p.classes as f64)
        .sqrt()
        .ceil() as usize)
        .max(8);
    let mut next = pool as u32;
    let vocabs: Vec<Vec<u32>> = (0..p.classes)
        .map(|_| {
            let n = rng.range(p.vocab.0, p.vocab.1);
            let shared = ((n as f64 * p.ambiguous) as usize).min(pool);
            let mut v: Vec<u32> = distinct(&mut rng, pool, shared)
                .into_iter()
                .map(|i| i as u32)
                .collect();
            v.extend(next..next + (n - shared) as u32);
            next += (n - shared) as u32;
            for i in (1..v.len()).rev() {
                v.swap(i, rng.below(i + 1));
            }
            v
        })
        .collect();
    let universe = next as usize;
    let class_pick = Zipf::new(p.classes, p.class_zipf);
    let within: Vec<Zipf> = vocabs
        .iter()
        .map(|v| Zipf::new(v.len(), p.entity_zipf))
        .collect();
    let mut raw = Vec::with_capacity(p.columns);
    for _ in 0..p.columns {
        let c = class_pick.sample(&mut rng);
        let vocab = &vocabs[c];
        let want = rng.range(p.size.0, p.size.1).min(vocab.len());
        let mut col: Vec<u32> = Vec::with_capacity(want);
        let mut attempts = 0;
        while col.len() < want && attempts < want * 30 {
            attempts += 1;
            let e = vocab[within[c].sample(&mut rng)];
            if !col.contains(&e) {
                col.push(e);
            }
        }
        if col.len() < want {
            for i in distinct(&mut rng, vocab.len(), want) {
                if col.len() >= want {
                    break;
                }
                if !col.contains(&vocab[i]) {
                    col.push(vocab[i]);
                }
            }
        }
        for e in &mut col {
            if rng.unit() < p.noise_rate {
                *e = rng.below(universe) as u32;
            }
        }
        raw.push(col);
    }
    Corpus::clean(raw, 3)
}

/// `k` distinct indices of `0..n`, uniformly (a partial Fisher-Yates).
fn distinct(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k.min(n) {
        let j = i + rng.below(n - i);
        idx.swap(i, j);
    }
    idx.truncate(k.min(n));
    idx
}

/// Parameters of the copy-add collection (paper §5.2.2).
#[derive(Clone, Debug)]
pub struct CopyAddParams {
    pub sets: usize,
    pub size: (usize, usize),
    pub alpha: f64,
}

impl CopyAddParams {
    /// The `wire_warm` collection.
    pub fn standard() -> Self {
        CopyAddParams {
            sets: 20_000,
            size: (20, 30),
            alpha: 0.9,
        }
    }
}

/// Copy-add: each set copies `ceil(alpha * s)` members of a uniformly
/// chosen earlier set and draws the rest fresh.
pub fn copy_add(p: &CopyAddParams, seed: u64) -> Corpus {
    let mut rng = Rng::new(seed);
    let mut raw: Vec<Vec<u32>> = Vec::with_capacity(p.sets);
    let mut next = 0u32;
    // Duplicates are dropped by cleaning, so generate until enough survive.
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    while seen.len() < p.sets {
        let s = rng.range(p.size.0, p.size.1);
        let copy = (p.alpha * s as f64).ceil() as usize;
        let mut set: Vec<u32> = Vec::with_capacity(s);
        if !raw.is_empty() {
            let src = &raw[rng.below(raw.len())];
            set.extend(
                distinct(&mut rng, src.len(), copy)
                    .into_iter()
                    .map(|i| src[i]),
            );
        }
        while set.len() < s {
            set.push(next);
            next += 1;
        }
        set.sort_unstable();
        if seen.insert(set.clone()) {
            raw.push(set);
        }
    }
    Corpus::clean(raw, 1)
}

/// Where generated inputs are cached: one file per generator and seed,
/// under a git-ignored directory of the checkout.
pub fn cache_path(kind: &str, seed: u64) -> PathBuf {
    Path::new(".bench_cache").join(format!("{kind}-{seed}.txt"))
}

/// Writes `corpus` to its cache file unless the file already holds exactly
/// this text (a file left by other generator parameters is replaced),
/// returning the path. The text is streamed, never held whole, so the
/// cache's state does not change the run's peak memory. The write goes
/// through a temporary name so that a run cut short never leaves a torn
/// file behind.
pub fn cached_file(kind: &str, seed: u64, corpus: &Corpus) -> io::Result<PathBuf> {
    let path = cache_path(kind, seed);
    if let Ok(file) = File::open(&path) {
        let mut same = SameAs {
            file: BufReader::new(file),
            same: true,
            buf: Vec::new(),
        };
        corpus.write_text(&mut same)?;
        if same.same && same.file.read(&mut [0u8])? == 0 {
            return Ok(path);
        }
    }
    std::fs::create_dir_all(path.parent().expect("cache path has a parent"))?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let mut w = BufWriter::new(File::create(&tmp)?);
    corpus.write_text(&mut w)?;
    w.flush()?;
    drop(w);
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// A writer that compares what is written with a file's bytes.
struct SameAs<R> {
    file: R,
    same: bool,
    buf: Vec<u8>,
}

impl<R: Read> Write for SameAs<R> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.same {
            self.buf.resize(data.len(), 0);
            self.same = self.file.read_exact(&mut self.buf).is_ok() && self.buf == data;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_web() -> WebParams {
        WebParams {
            columns: 3_000,
            classes: 8,
            vocab: (60, 150),
            size: (5, 40),
            ..WEB_STANDARD
        }
    }

    fn text(c: &Corpus) -> Vec<u8> {
        let mut out = Vec::new();
        c.write_text(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    #[test]
    fn generators_are_byte_identical_per_seed_and_differ_across_seeds() {
        let p = small_web();
        assert_eq!(text(&web_tables(&p, 7)), text(&web_tables(&p, 7)));
        assert_ne!(text(&web_tables(&p, 7)), text(&web_tables(&p, 8)));
        let c = CopyAddParams {
            sets: 500,
            ..CopyAddParams::standard()
        };
        assert_eq!(text(&copy_add(&c, 7)), text(&copy_add(&c, 7)));
        assert_ne!(text(&copy_add(&c, 7)), text(&copy_add(&c, 8)));
    }

    #[test]
    fn the_cache_compares_whole_files() {
        let corpus = copy_add(
            &CopyAddParams {
                sets: 200,
                ..CopyAddParams::standard()
            },
            5,
        );
        let want = text(&corpus);
        let same = |bytes: &[u8]| {
            let mut w = SameAs {
                file: bytes,
                same: true,
                buf: Vec::new(),
            };
            corpus.write_text(&mut w).unwrap();
            w.same && w.file.is_empty()
        };
        assert!(same(&want));
        assert!(!same(&want[..want.len() - 1]));
        assert!(!same(&[&want[..], b"s9: e1\n"].concat()));
        let mut flipped = want.clone();
        flipped[want.len() / 2] ^= 1;
        assert!(!same(&flipped));
    }

    #[test]
    fn corpora_are_clean_and_numbered_by_first_appearance() {
        let web = web_tables(&small_web(), 3);
        let copy = copy_add(
            &CopyAddParams {
                sets: 500,
                ..CopyAddParams::standard()
            },
            3,
        );
        for (corpus, min_len) in [(&web, 3), (&copy, 1)] {
            let mut seen = HashSet::new();
            let mut first = 0u32;
            for set in &corpus.sets {
                assert!(set.len() >= min_len);
                assert!(set.windows(2).all(|w| w[0] < w[1]));
                assert!(seen.insert(set.clone()), "duplicate set");
                for &e in set {
                    assert!(e <= first, "entity {e} appears before {first}");
                    first = first.max(e + 1);
                }
            }
            assert_eq!(first, corpus.universe);
        }
        assert_eq!(copy.sets.len(), 500);
    }
}
