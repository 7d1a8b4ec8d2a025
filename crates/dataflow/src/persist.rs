//! The versioned, fingerprinted, corruption-tolerant cache-file format
//! shared by every disk-persisted memo cache in the workspace, and the one
//! generic [`save`] and [`load`] every cache file goes through.
//!
//! It lives in this bottom-of-the-stack crate so that the search-level
//! sweep caches (`fusecu-search`) and the arch- and fusion-level caches
//! (`fusecu-arch`, `fusecu-fusion`) persist through one format without a
//! dependency cycle. Each memo cache is declared once, as a [`Section`]
//! with its record [`Codec`], in the cache registry of
//! `fusecu_search::cache`, which also names the file that holds it.
//!
//! ## Format
//!
//! A cache file is line-oriented UTF-8 so it diffs and greps cleanly:
//!
//! ```text
//! fusecu-cache v1
//! fingerprint 0.1.0-f2-03ab…   (crate version, format version, model digests)
//! checksum 79b2…               (hash of everything below this line)
//! section principle 33
//! 1024 768 768 32768 0 1 …     (one record per line, u64 tokens)
//! section exhaustive 33
//! …
//! ```
//!
//! Records hold only *reconstruction inputs* (shapes, loop orders, tile
//! sizes); derived quantities (memory accesses, NRA classes) are recomputed
//! through the cost model on load, so a loaded entry is bit-identical to a
//! freshly computed one by construction. Serialization is hand-rolled —
//! the workspace vendors dependency stubs and has no serde.
//!
//! ## Fingerprints and model digests
//!
//! The base [`fingerprint`] covers the crate version, [`FORMAT_VERSION`],
//! and a **behavioral digest of the cost model**: the evaluated memory
//! accesses of both [`CostModel`] policies over a fixed probe grid of
//! nests. If the cost model's equations change — even without a crate
//! version bump — the digest changes, every cache file goes stale, and the
//! next run is a cold start instead of silently serving entries scored by
//! the old model. Layers whose cached values depend on *more* than the
//! cost model (the arch crate's operator cache stores mapping-searched
//! compute cycles verbatim) stamp their files with
//! [`fingerprint_with`]`(their_digest)` so their model drift invalidates
//! too.
//!
//! ## Invalidation and robustness
//!
//! Every anomaly is a cold start, never an error: a missing file, a magic
//! or fingerprint mismatch, a checksum mismatch, a malformed token, or a
//! record that fails semantic validation all make the loader return
//! nothing and leave the cache untouched. Loading is all-or-nothing per
//! file: one bad record discards the whole file, since a file that fails
//! validation anywhere is not trusted anywhere. Saving writes to a
//! temporary sibling and renames, so a crashed writer can at worst leave a
//! stale temp file, never a torn cache file. Temp names are unique per
//! writer (`.tmp.<pid>.<seq>`), so two processes — or two threads of one
//! daemon — snapshotting the same path concurrently each rename a
//! complete file into place instead of interleaving writes into a shared
//! `.tmp`; readers racing either writer see the old file or a new one,
//! never a mix.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};

use crate::loopnest::{CostModel, Dataflow, LoopNest, PartialSumPolicy};
use crate::memo::{MemoCache, SectionCounters};
use crate::tiling::Tiling;
use fusecu_ir::{MatMul, MmDim};

/// Bumped whenever the record layout or fingerprint scheme changes; part
/// of the fingerprint, so old files become cold starts instead of
/// misparses. (v2: the fingerprint gained the behavioral cost-model
/// digest and moved to `fusecu-dataflow`.)
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: &str = "fusecu-cache v1";

/// A behavioral digest of the cost model: both partial-sum policies
/// evaluated over a fixed probe grid of shapes, orders, and tilings. Any
/// change to the memory-access equations changes this value.
pub fn cost_model_digest() -> u64 {
    let mut h = DefaultHasher::new();
    // Schema first (field/variant additions change the Debug rendering)…
    format!("{:?}|{:?}", CostModel::paper(), CostModel::read_write()).hash(&mut h);
    // …then behavior: evaluated traffic over probes exercising every
    // reuse regime (untiled, streamed, revisited) on awkward shapes.
    for model in [CostModel::paper(), CostModel::read_write()] {
        for mm in [MatMul::new(13, 7, 29), MatMul::new(64, 64, 64), MatMul::new(5, 100, 3)] {
            for order in LoopNest::orders() {
                for tiling in [Tiling::new(1, 1, 1), Tiling::new(4, 7, 3), Tiling::new(13, 7, 29)] {
                    model.evaluate(mm, &LoopNest::new(order, tiling)).total().hash(&mut h);
                }
            }
        }
    }
    h.finish()
}

/// The base fingerprint every cache file is stamped with: crate version,
/// format version, and the behavioral [`cost_model_digest`]. A file whose
/// fingerprint differs from the running binary's is treated as stale and
/// ignored.
pub fn fingerprint() -> String {
    format!(
        "{}-f{}-{:016x}",
        env!("CARGO_PKG_VERSION"),
        FORMAT_VERSION,
        cost_model_digest()
    )
}

/// A fingerprint extended with a caller-supplied model digest, for cache
/// layers whose stored values depend on more than the cost model (e.g.
/// the arch crate's mapping/cycle model). Different digests never
/// collide with each other or with the base [`fingerprint`].
pub fn fingerprint_with(extra_digest: &str) -> String {
    let mut h = DefaultHasher::new();
    extra_digest.hash(&mut h);
    format!("{}-x{:016x}", fingerprint(), h.finish())
}

/// Where cache files live: `$FUSECU_CACHE_DIR` if set, else
/// `target/fusecu-cache` relative to the working directory (the figure
/// binaries run from the workspace root, so this lands next to the build
/// artifacts and is cleaned by `cargo clean`).
pub fn default_cache_dir() -> PathBuf {
    match std::env::var_os("FUSECU_CACHE_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => Path::new("target").join("fusecu-cache"),
    }
}

/// An in-memory cache file: named sections of fixed-width-free u64
/// records. The codec layer above decides what the tokens mean.
#[derive(Debug, Default)]
pub struct CacheFile {
    sections: Vec<(String, Vec<Vec<u64>>)>,
}

impl CacheFile {
    /// An empty file.
    pub fn new() -> CacheFile {
        CacheFile::default()
    }

    /// Appends a section. Records are sorted so the on-disk bytes are
    /// deterministic regardless of cache iteration order.
    pub fn push_section(&mut self, name: &str, mut records: Vec<Vec<u64>>) {
        records.sort_unstable();
        self.sections.push((name.to_string(), records));
    }

    /// The records of `name`, or an empty slice if the section is absent.
    pub fn section(&self, name: &str) -> &[Vec<u64>] {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, recs)| recs.as_slice())
            .unwrap_or(&[])
    }

    /// Total number of records across all sections.
    pub fn records(&self) -> usize {
        self.sections.iter().map(|(_, r)| r.len()).sum()
    }

    fn body(&self) -> String {
        let mut body = String::new();
        for (name, records) in &self.sections {
            let _ = writeln!(body, "section {} {}", name, records.len());
            for record in records {
                let tokens: Vec<String> = record.iter().map(u64::to_string).collect();
                let _ = writeln!(body, "{}", tokens.join(" "));
            }
        }
        body
    }

    /// [`CacheFile::save_with`] under the base [`fingerprint`].
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.save_with(path, &fingerprint())
    }

    /// Writes the file atomically under an explicit fingerprint:
    /// serialize to a writer-unique temp sibling, then rename over
    /// `path`. Creates the parent directory if needed. Because the temp
    /// name carries the process id and a per-process sequence number,
    /// concurrent writers never share a temp file: the last rename wins
    /// whole, and a concurrent reader observes either the previous
    /// complete file or a new complete file.
    pub fn save_with(&self, path: &Path, fingerprint: &str) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let body = self.body();
        let mut h = DefaultHasher::new();
        body.hash(&mut h);
        let text = format!(
            "{MAGIC}\nfingerprint {fingerprint}\nchecksum {:016x}\n{body}",
            h.finish()
        );
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        fs::write(&tmp, text)?;
        fs::rename(&tmp, path).inspect_err(|_| {
            // Renaming failed (e.g. the directory vanished): don't leave
            // the orphaned temp behind.
            let _ = fs::remove_file(&tmp);
        })
    }

    /// [`CacheFile::load_with`] under the base [`fingerprint`].
    pub fn load(path: &Path) -> Option<CacheFile> {
        CacheFile::load_with(path, &fingerprint())
    }

    /// Parses a file previously written by [`CacheFile::save_with`] under
    /// the same fingerprint. Returns `None` — a cold start — on a missing
    /// file, wrong magic, a fingerprint that differs from `fingerprint`
    /// (stale model digest, crate version, or format version), checksum
    /// mismatch, or any malformed line.
    pub fn load_with(path: &Path, fingerprint: &str) -> Option<CacheFile> {
        let text = fs::read_to_string(path).ok()?;
        let mut lines = text.lines();
        if lines.next()? != MAGIC {
            return None;
        }
        let fp = lines.next()?.strip_prefix("fingerprint ")?;
        if fp != fingerprint {
            return None;
        }
        let want = lines.next()?.strip_prefix("checksum ")?;
        let body_start = text.match_indices('\n').nth(2)?.0 + 1;
        let mut h = DefaultHasher::new();
        text[body_start..].hash(&mut h);
        // The exact rendering the writer made, so that a flipped bit in
        // the checksum line is refused even where it only changes the
        // case of a hex digit.
        if format!("{:016x}", h.finish()) != want {
            return None;
        }

        let mut file = CacheFile::new();
        let mut lines = lines.peekable();
        while let Some(header) = lines.next() {
            let rest = header.strip_prefix("section ")?;
            let (name, count) = rest.split_once(' ')?;
            let count: usize = count.parse().ok()?;
            let mut records = Vec::with_capacity(count);
            for _ in 0..count {
                let line = lines.next()?;
                let record: Option<Vec<u64>> =
                    line.split(' ').map(|tok| tok.parse().ok()).collect();
                records.push(record?);
            }
            file.sections.push((name.to_string(), records));
        }
        Some(file)
    }
}

/// How one memo cache's entries are written as records and read back.
/// `decode` validates what it reads and answers `None` for any record a
/// fresh computation could not have produced.
pub struct Codec<K, V> {
    /// One entry as a record of tokens.
    pub encode: fn(&K, &V) -> Vec<u64>,
    /// The entry of a record, or `None` when the record is malformed.
    pub decode: fn(&[u64]) -> Option<(K, V)>,
}

/// One memo cache under its section name, with the codec of its records
/// when it is persisted (`None` for a cache kept in memory only).
pub struct Section<'a, K, V> {
    /// The section's name in stats reports and in its cache file.
    pub name: &'static str,
    /// The cache.
    pub cache: &'a MemoCache<K, V>,
    /// How its entries are written to and read from a file.
    pub codec: Option<Codec<K, V>>,
}

/// A [`Section`] without its key and value types, so that caches of
/// different types can be listed, counted, cleared, saved and loaded
/// together.
pub trait CacheSection: Send + Sync {
    /// The section's name.
    fn name(&self) -> &'static str;
    /// The cache's counters under the section's name.
    fn counters(&self) -> SectionCounters;
    /// [`MemoCache::clear`].
    fn clear(&self);
    /// [`MemoCache::evict_all`].
    fn evict_all(&self) -> usize;
    /// Every completed entry as a record; none for a section without a
    /// codec.
    fn records(&self) -> Vec<Vec<u64>>;
    /// Decodes every record or none: on success, the preload of the
    /// decoded entries, which returns how many it inserted.
    fn decode(&self, records: &[Vec<u64>]) -> Option<Box<dyn FnOnce() -> usize + '_>>;
}

impl<K, V> CacheSection for Section<'_, K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn counters(&self) -> SectionCounters {
        self.cache.counters(self.name)
    }

    fn clear(&self) {
        self.cache.clear();
    }

    fn evict_all(&self) -> usize {
        self.cache.evict_all()
    }

    fn records(&self) -> Vec<Vec<u64>> {
        let Some(codec) = &self.codec else {
            return Vec::new();
        };
        self.cache.snapshot().iter().map(|(k, v)| (codec.encode)(k, v)).collect()
    }

    fn decode(&self, records: &[Vec<u64>]) -> Option<Box<dyn FnOnce() -> usize + '_>> {
        let codec = self.codec.as_ref()?;
        let entries = records.iter().map(|r| (codec.decode)(r)).collect::<Option<Vec<_>>>()?;
        Some(Box::new(move || self.cache.preload(entries)))
    }
}

/// Writes every completed entry of `sections`, one section each in the
/// order given, to the file at `path` stamped with `fingerprint`
/// ([`CacheFile::save_with`]). Returns the number of entries written.
pub fn save(path: &Path, fingerprint: &str, sections: &[&dyn CacheSection]) -> io::Result<usize> {
    let mut file = CacheFile::new();
    for section in sections {
        file.push_section(section.name(), section.records());
    }
    file.save_with(path, fingerprint)?;
    Ok(file.records())
}

/// Preloads `sections` from the file at `path`, all or nothing: when the
/// file is missing, stamped with another fingerprint, damaged, or holds
/// one record that does not decode, nothing is preloaded and 0 returned.
/// Otherwise returns the number of entries inserted.
pub fn load(path: &Path, fingerprint: &str, sections: &[&dyn CacheSection]) -> usize {
    let Some(file) = CacheFile::load_with(path, fingerprint) else {
        return 0;
    };
    let preloads: Option<Vec<_>> = sections
        .iter()
        .map(|section| section.decode(file.section(section.name())))
        .collect();
    preloads.map_or(0, |preloads| preloads.into_iter().map(|preload| preload()).sum())
}

/// Cursor over one record's tokens; decoding fails (`None`) on underrun,
/// and [`RecordReader::finish`] fails on leftover tokens, so a record with
/// the wrong shape is rejected rather than misread.
pub struct RecordReader<'a> {
    fields: &'a [u64],
    pos: usize,
}

impl<'a> RecordReader<'a> {
    /// A reader over `fields`.
    pub fn new(fields: &'a [u64]) -> RecordReader<'a> {
        RecordReader { fields, pos: 0 }
    }

    /// The next token.
    pub fn u64(&mut self) -> Option<u64> {
        let v = *self.fields.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    /// The next token as a strict boolean (only 0 or 1 accepted).
    pub fn bool(&mut self) -> Option<bool> {
        match self.u64()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Succeeds only if every token was consumed.
    pub fn finish(self) -> Option<()> {
        (self.pos == self.fields.len()).then_some(())
    }
}

/// Appends a matmul shape (3 tokens).
pub fn encode_mm(mm: MatMul, out: &mut Vec<u64>) {
    out.extend([mm.m(), mm.k(), mm.l()]);
}

/// Decodes a matmul shape; rejects zero dimensions.
pub fn decode_mm(r: &mut RecordReader<'_>) -> Option<MatMul> {
    let (m, k, l) = (r.u64()?, r.u64()?, r.u64()?);
    MatMul::try_new(m, k, l).ok()
}

/// Appends a cost model (1 token: the partial-sum policy discriminant).
pub fn encode_model(model: &CostModel, out: &mut Vec<u64>) {
    out.push(match model.partial_sums {
        PartialSumPolicy::PerVisit => 0,
        PartialSumPolicy::ReadWrite => 1,
    });
}

/// Decodes a cost model.
pub fn decode_model(r: &mut RecordReader<'_>) -> Option<CostModel> {
    let partial_sums = match r.u64()? {
        0 => PartialSumPolicy::PerVisit,
        1 => PartialSumPolicy::ReadWrite,
        _ => return None,
    };
    Some(CostModel { partial_sums })
}

fn encode_dim(d: MmDim) -> u64 {
    match d {
        MmDim::M => 0,
        MmDim::K => 1,
        MmDim::L => 2,
    }
}

fn decode_dim(v: u64) -> Option<MmDim> {
    match v {
        0 => Some(MmDim::M),
        1 => Some(MmDim::K),
        2 => Some(MmDim::L),
        _ => None,
    }
}

/// Appends a dataflow's reconstruction inputs (9 tokens: shape, loop
/// order, tile sizes). Derived costs are recomputed on decode.
pub fn encode_dataflow(df: &Dataflow, out: &mut Vec<u64>) {
    encode_mm(df.mm(), out);
    out.extend(df.nest().order.map(encode_dim));
    out.extend(MmDim::ALL.map(|d| df.tiling().tile(d)));
}

/// Decodes and re-scores a dataflow under `model`. Rejects non-permutation
/// orders and tiles outside `[1, dim]`, so a tampered record can never
/// reach the panicking constructors.
pub fn decode_dataflow(model: &CostModel, r: &mut RecordReader<'_>) -> Option<Dataflow> {
    let mm = decode_mm(r)?;
    let order = [decode_dim(r.u64()?)?, decode_dim(r.u64()?)?, decode_dim(r.u64()?)?];
    if order[0] == order[1] || order[0] == order[2] || order[1] == order[2] {
        return None;
    }
    let tiles = [r.u64()?, r.u64()?, r.u64()?];
    for (d, t) in MmDim::ALL.into_iter().zip(tiles) {
        if t == 0 || t > mm.dim(d) {
            return None;
        }
    }
    let nest = LoopNest::new(order, Tiling::new(tiles[0], tiles[1], tiles[2]));
    Some(model.dataflow(mm, nest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-tmp")
            .join(name)
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(fingerprint(), fingerprint());
        assert!(fingerprint().contains("-f2-"));
        assert_eq!(cost_model_digest(), cost_model_digest());
    }

    #[test]
    fn extended_fingerprints_are_distinct_and_stable() {
        assert_eq!(fingerprint_with("arch-v1"), fingerprint_with("arch-v1"));
        assert_ne!(fingerprint_with("arch-v1"), fingerprint_with("arch-v2"));
        assert_ne!(fingerprint_with("arch-v1"), fingerprint());
        assert!(fingerprint_with("arch-v1").starts_with(&fingerprint()));
    }

    #[test]
    fn digest_change_forces_a_cold_start() {
        // The ROADMAP's invalidation requirement: a file written under one
        // model digest must be invisible to a binary running another.
        let dir = test_dir("persist-digest");
        let path = dir.join("digest.cache");
        let mut file = CacheFile::new();
        file.push_section("s", vec![vec![1, 2, 3]]);
        file.save_with(&path, &fingerprint_with("model-digest-A")).unwrap();
        assert!(CacheFile::load_with(&path, &fingerprint_with("model-digest-A")).is_some());
        assert!(
            CacheFile::load_with(&path, &fingerprint_with("model-digest-B")).is_none(),
            "stale digest must cold-start"
        );
        assert!(
            CacheFile::load(&path).is_none(),
            "digest-stamped file must be invisible to the base fingerprint"
        );
    }

    #[test]
    fn dataflow_codec_round_trips() {
        let model = CostModel::read_write();
        let mm = MatMul::new(64, 32, 48);
        let df = model.dataflow(
            mm,
            LoopNest::new([MmDim::K, MmDim::M, MmDim::L], Tiling::new(8, 32, 6)),
        );
        let mut rec = Vec::new();
        encode_dataflow(&df, &mut rec);
        let mut r = RecordReader::new(&rec);
        let back = decode_dataflow(&model, &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, df);
    }

    #[test]
    fn dataflow_codec_rejects_tampered_records() {
        let model = CostModel::paper();
        let mm = MatMul::new(64, 32, 48);
        let df = model.dataflow(
            mm,
            LoopNest::new([MmDim::M, MmDim::K, MmDim::L], Tiling::new(8, 32, 6)),
        );
        let mut rec = Vec::new();
        encode_dataflow(&df, &mut rec);
        for (idx, bad) in [
            (0usize, 0u64),    // zero dimension
            (3, 1),            // repeated loop dim (order becomes [K, K, L])
            (6, 0),            // zero tile
            (6, 65),           // tile exceeds its dimension
            (5, 9),            // out-of-range dim discriminant
        ] {
            let mut tampered = rec.clone();
            tampered[idx] = bad;
            let mut r = RecordReader::new(&tampered);
            assert!(
                decode_dataflow(&model, &mut r).is_none(),
                "token {idx} <- {bad} accepted"
            );
        }
    }

    #[test]
    fn cache_file_round_trips_and_sorts() {
        let dir = test_dir("persist-unit");
        let path = dir.join("file.cache");
        let mut file = CacheFile::new();
        file.push_section("alpha", vec![vec![9, 9], vec![1, 2], vec![3]]);
        file.push_section("beta", vec![]);
        file.save(&path).unwrap();
        let loaded = CacheFile::load(&path).unwrap();
        assert_eq!(loaded.section("alpha"), &[vec![1, 2], vec![3], vec![9, 9]]);
        assert!(loaded.section("beta").is_empty());
        assert!(loaded.section("missing").is_empty());
        assert_eq!(loaded.records(), 3);
        // Saving twice produces identical bytes (deterministic format).
        let first = fs::read(&path).unwrap();
        file.save(&path).unwrap();
        assert_eq!(fs::read(&path).unwrap(), first);
    }

    #[test]
    fn cache_file_rejects_anomalies() {
        let dir = test_dir("persist-unit");
        let path = dir.join("anomalies.cache");
        let mut file = CacheFile::new();
        file.push_section("s", vec![vec![1, 2, 3]]);
        file.save(&path).unwrap();
        let good = fs::read_to_string(&path).unwrap();

        assert!(CacheFile::load(&dir.join("missing.cache")).is_none());
        for bad in [
            good.replacen("fusecu-cache v1", "fusecu-cache v0", 1),
            good.replacen("fingerprint ", "fingerprint stale-", 1),
            good.replacen("1 2 3", "1 2 4", 1), // checksum catches content flips
            good.replacen("1 2 3", "1 x 3", 1), // non-numeric token
            good.replacen("section s 1", "section s 2", 1), // count overrun
            format!("{good}trailing garbage\n"),
        ] {
            fs::write(&path, &bad).unwrap();
            assert!(CacheFile::load(&path).is_none(), "accepted: {bad:?}");
        }
    }
}
