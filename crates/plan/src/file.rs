//! Versioned binary persistence for a [`PlanCache`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      8 bytes  b"SDPLAN2\n"   (version rides in the magic)
//! coll_fp   16 bytes  collection content identity (u128)
//! coll_len   4 bytes  collection set count
//! count      8 bytes  number of nodes
//! checksum   8 bytes  FxHasher over the payload bytes
//! payload    count × 98-byte node records, sorted by key
//! ```
//!
//! Each node record is `family u8 | metric u8 | k u32 | beam u32 |
//! weight_fp u64 | fp u128 | len u32 | entity u32 | bound u64 |
//! informative u32 | evaluated u32 | yes_fp u128 | yes_len u32 |
//! no_fp u128 | no_len u32`. Version 2 added the 8-byte prior fingerprint
//! (`0` = unweighted); version-1 files are rejected by magic — plans are a
//! cache, regenerating beats silently mis-keying. The header binds the
//! file to one collection (checked again at attach time via
//! [`PlanCache::matches`]) and the checksum rejects truncated or corrupted
//! payloads before a single node is trusted.

use crate::cache::{PlanCache, PlanKey, PlanNode, StrategyKey};
use setdisc_core::entity::EntityId;
use setdisc_util::{Fingerprint, FxHasher};
use std::hash::Hasher as _;
use std::io::{self, Write};
use std::path::Path;

/// File magic; the trailing digit is the format version.
pub const MAGIC: [u8; 8] = *b"SDPLAN2\n";

/// Bytes per serialized node record.
const NODE_BYTES: usize = 98;

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_fp(out: &mut Vec<u8>, fp: Fingerprint) {
    out.extend_from_slice(&fp.as_u128().to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| corrupt("truncated plan payload"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn fp(&mut self) -> io::Result<Fingerprint> {
        let raw = u128::from_le_bytes(self.take(16)?.try_into().expect("16"));
        Ok(Fingerprint::from_u128(raw))
    }
}

/// Monotonic discriminator so concurrent saves to one path (e.g. the
/// checkpointer racing a shutdown persist) never share a temp file.
static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Serializes every resident node of `cache` (deterministic order) to
/// `path` — crash-safely.
///
/// The bytes are staged in a process-unique sibling temp file, fsynced,
/// and atomically renamed over `path` (whose directory is then fsynced so
/// the rename itself survives power loss). A reader therefore always sees
/// either the previous complete plan or the new complete plan, never a
/// torn mix — a crash (or an injected fault; see the `plan.save.*` hook
/// sites) between any two steps leaves the last good file in place. The
/// stale temp file a crash can leave behind is harmless: temp names are
/// never reused across processes and the loader only reads `path`.
pub fn save_plan(cache: &PlanCache, path: impl AsRef<Path>) -> io::Result<u64> {
    let _span = setdisc_util::obs::span(setdisc_util::obs::Site::PlanSave);
    let nodes = cache.export_nodes();
    let mut payload = Vec::with_capacity(nodes.len() * NODE_BYTES);
    for (key, node) in &nodes {
        payload.push(key.strategy.family);
        payload.push(key.strategy.metric);
        put_u32(&mut payload, key.strategy.k);
        put_u32(&mut payload, key.strategy.beam);
        put_u64(&mut payload, key.strategy.weight_fp);
        put_fp(&mut payload, key.fp);
        put_u32(&mut payload, key.len);
        put_u32(&mut payload, node.entity.0);
        put_u64(&mut payload, node.bound);
        put_u32(&mut payload, node.informative);
        put_u32(&mut payload, node.evaluated);
        put_fp(&mut payload, node.yes.0);
        put_u32(&mut payload, node.yes.1);
        put_fp(&mut payload, node.no.0);
        put_u32(&mut payload, node.no.1);
    }
    let mut h = FxHasher::default();
    h.write(&payload);

    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    let result = write_staged(cache, &nodes, &payload, h.finish(), &tmp, path);
    if result.is_err() {
        // Best effort: a failed save must not litter; the main file is
        // untouched either way.
        std::fs::remove_file(&tmp).ok();
    }
    result?;
    Ok(nodes.len() as u64)
}

/// The staged write: temp file → fsync → rename → directory fsync. Split
/// out so `save_plan` can clean up the temp on any failure.
fn write_staged(
    cache: &PlanCache,
    nodes: &[(PlanKey, PlanNode)],
    payload: &[u8],
    checksum: u64,
    tmp: &Path,
    path: &Path,
) -> io::Result<()> {
    {
        let mut f = io::BufWriter::new(std::fs::File::create(tmp)?);
        f.write_all(&MAGIC)?;
        f.write_all(&cache.collection_fp().as_u128().to_le_bytes())?;
        f.write_all(&cache.collection_len().to_le_bytes())?;
        f.write_all(&(nodes.len() as u64).to_le_bytes())?;
        f.write_all(&checksum.to_le_bytes())?;
        // Chaos hook: an injected `short` fault tears the staged payload,
        // an injected `err` aborts mid-write — either way `path` keeps the
        // last good plan.
        setdisc_util::faults::check_io("plan.save.write")?;
        let keep = setdisc_util::faults::short_len("plan.save.write.payload", payload.len());
        f.write_all(&payload[..keep])?;
        if keep < payload.len() {
            f.flush()?;
            return Err(io::Error::other("injected fault: short plan write"));
        }
        f.flush()?;
        f.get_ref().sync_all()?;
    }
    setdisc_util::faults::check_io("plan.save.rename")?;
    std::fs::rename(tmp, path)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        // Persist the rename itself. Directory fsync is best-effort: some
        // filesystems/platforms refuse to open a directory for sync.
        if let Ok(dir) = std::fs::File::open(parent) {
            dir.sync_all().ok();
        }
    }
    Ok(())
}

/// Reads a plan file into a fresh cache bounded to at least `capacity`
/// nodes (raised to the file's node count so a warm boot never evicts its
/// own payload). The caller still validates the collection via
/// [`PlanCache::matches`] before attaching.
pub fn load_plan(path: impl AsRef<Path>, capacity: usize) -> io::Result<PlanCache> {
    let bytes = std::fs::read(path)?;
    let mut c = Cursor {
        bytes: &bytes,
        pos: 0,
    };
    if c.take(8)? != MAGIC {
        return Err(corrupt("not a plan file (bad magic/version)"));
    }
    let collection_fp = c.fp()?;
    let collection_len = c.u32()?;
    let count = c.u64()?;
    let checksum = c.u64()?;
    let payload = &bytes[c.pos..];
    let expected = (count as usize).saturating_mul(NODE_BYTES);
    if payload.len() != expected {
        return Err(corrupt(format!(
            "plan payload is {} bytes, expected {expected} for {count} nodes",
            payload.len(),
        )));
    }
    let mut h = FxHasher::default();
    h.write(payload);
    if h.finish() != checksum {
        return Err(corrupt("plan payload checksum mismatch"));
    }

    let cache =
        PlanCache::with_identity(collection_fp, collection_len, capacity.max(count as usize));
    for _ in 0..count {
        let strategy = StrategyKey {
            family: c.u8()?,
            metric: c.u8()?,
            k: c.u32()?,
            beam: c.u32()?,
            weight_fp: c.u64()?,
        };
        let key = PlanKey {
            strategy,
            fp: c.fp()?,
            len: c.u32()?,
        };
        let node = PlanNode {
            entity: EntityId(c.u32()?),
            bound: c.u64()?,
            informative: c.u32()?,
            evaluated: c.u32()?,
            yes: (c.fp()?, c.u32()?),
            no: (c.fp()?, c.u32()?),
        };
        // Provenance: hits on these nodes report a file origin (`explain`
        // distinguishes warm-boot plans from online-learned ones).
        cache.insert_loaded(key, node);
    }
    Ok(cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use setdisc_core::collection::Collection;

    fn figure1() -> Collection {
        Collection::from_raw_sets(vec![
            vec![0, 1, 2, 3],
            vec![0, 3, 4],
            vec![0, 1, 2, 3, 5],
            vec![0, 1, 2, 6, 7],
            vec![0, 1, 7, 8],
            vec![0, 1, 9, 10],
            vec![0, 1, 6],
        ])
        .unwrap()
    }

    fn sample_cache() -> (Collection, PlanCache) {
        let c = figure1();
        let cache = PlanCache::for_collection(&c, 1024);
        for i in 0..40u64 {
            cache.insert(
                PlanKey {
                    strategy: StrategyKey {
                        family: (i % 3) as u8,
                        metric: (i % 2) as u8,
                        k: 2,
                        beam: 10,
                        weight_fp: if i % 5 == 0 { 0xfeed_beef | 1 } else { 0 },
                    },
                    fp: Fingerprint::of(i),
                    len: 7,
                },
                PlanNode {
                    entity: EntityId(i as u32),
                    bound: i * 3,
                    informative: 10,
                    evaluated: 2,
                    yes: (Fingerprint::of(i + 1), 3),
                    no: (Fingerprint::of(i + 2), 4),
                },
            );
        }
        (c, cache)
    }

    #[test]
    fn save_load_round_trips_every_node() {
        let (c, cache) = sample_cache();
        let dir = std::env::temp_dir().join("setdisc_plan_test_roundtrip");
        let path = dir.join("figure1.plan");
        let written = save_plan(&cache, &path).unwrap();
        assert_eq!(written, 40);
        let loaded = load_plan(&path, 0).unwrap();
        assert!(loaded.matches(&c));
        assert_eq!(loaded.export_nodes(), cache.export_nodes());
        assert!(loaded.capacity() >= 40, "payload never self-evicts");
        // Saves are byte-stable for identical content.
        let path2 = dir.join("figure1b.plan");
        save_plan(&loaded, &path2).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&path2).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_files_are_rejected() {
        let (_, cache) = sample_cache();
        let dir = std::env::temp_dir().join("setdisc_plan_test_corrupt");
        let path = dir.join("x.plan");
        save_plan(&cache, &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(load_plan(&path, 0).is_err());

        // Flipped payload byte → checksum mismatch.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = load_plan(&path, 0).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncation → payload length mismatch.
        std::fs::write(&path, &good[..good.len() - 7]).unwrap();
        assert!(load_plan(&path, 0).is_err());

        // Truncation on an exact record boundary is still caught (the
        // header's count no longer matches the payload).
        std::fs::write(&path, &good[..good.len() - 98]).unwrap();
        let err = load_plan(&path, 0).unwrap_err();
        assert!(err.to_string().contains("expected"), "{err}");

        // Truncated header.
        std::fs::write(&path, &good[..20]).unwrap();
        assert!(load_plan(&path, 0).is_err());

        // A version-1 file (pre-weight_fp magic) is rejected outright —
        // its 90-byte records would mis-align under the v2 codec.
        let mut v1 = good.clone();
        v1[..8].copy_from_slice(b"SDPLAN1\n");
        std::fs::write(&path, &v1).unwrap();
        let err = load_plan(&path, 0).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn weighted_plan_does_not_cover_the_unweighted_strategy() {
        // A file holding only weighted-key nodes loads fine, but a loader
        // about to serve the unweighted configuration can (and must) detect
        // that the plan shares zero nodes with it.
        let c = figure1();
        let cache = PlanCache::for_collection(&c, 1024);
        let weighted = StrategyKey {
            family: 0,
            metric: 0,
            k: 2,
            beam: 0,
            weight_fp: 0xabcd_ef01 | 1,
        };
        for i in 0..8u64 {
            cache.insert(
                PlanKey {
                    strategy: weighted,
                    fp: Fingerprint::of(i),
                    len: 7,
                },
                PlanNode {
                    entity: EntityId(i as u32),
                    bound: i,
                    informative: 1,
                    evaluated: 1,
                    yes: (Fingerprint::of(i + 1), 3),
                    no: (Fingerprint::of(i + 2), 4),
                },
            );
        }
        let dir = std::env::temp_dir().join("setdisc_plan_test_weighted_cov");
        let path = dir.join("weighted.plan");
        save_plan(&cache, &path).unwrap();
        let loaded = load_plan(&path, 0).unwrap();
        assert!(loaded.matches(&c));
        assert_eq!(loaded.strategy_keys(), vec![weighted]);
        let unweighted = StrategyKey {
            weight_fp: 0,
            ..weighted
        };
        assert!(loaded.covers_strategy(weighted));
        assert!(
            !loaded.covers_strategy(unweighted),
            "weighted nodes must not satisfy the unweighted key"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
