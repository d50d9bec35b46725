//! Out-of-core corpus shards.
//!
//! A [`ShardStore`] holds a corpus as fixed-size on-disk shards — contiguous
//! company ranges in a compact binary format — plus a JSON `manifest.json`
//! carrying the global vocabulary, per-shard company ranges, token counts and
//! FNV-1a checksums. Training streams one shard at a time through a
//! [`ShardReader`], so peak memory is one shard's companies instead of the
//! whole corpus.
//!
//! The [`CorpusSource`] trait abstracts over "companies arrive in shard-sized
//! batches": the in-memory [`Corpus`] implements it as a single borrowed
//! shard, and [`ShardStore`] implements it by decoding shard files on demand.
//! Both views expose the *same* companies in the *same* global order, which
//! is what lets sharded training reproduce in-memory training bit for bit.

use crate::company::{Company, InstallEvent, Sic2};
use crate::corpus::Corpus;
use crate::time::Month;
use crate::vocab::{ProductId, Vocabulary};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::path::{Path, PathBuf};

/// Shard boundaries are kept multiples of this, except for the final shard.
///
/// It equals the per-chunk document granularity of the AD-LDA Gibbs sweep
/// (`DOC_CHUNK` in `hlm-lda`), so a shard-local chunk index plus the shard's
/// global chunk offset addresses exactly the same document range — and hence
/// the same per-chunk RNG stream — as the in-memory sweep. `hlm-lda` pins the
/// correspondence with a test.
pub const SHARD_ALIGN: usize = 64;

/// File name of the shard-store manifest inside the store directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Manifest schema version.
pub const MANIFEST_VERSION: u32 = 1;

/// Magic bytes opening every shard file.
const SHARD_MAGIC: &[u8; 8] = b"HLMSHRD1";

/// Bytes of one stored install event (see [`encode_shard`]).
const EVENT_BYTES: usize = 14;

/// An error reading or writing a shard store: an I/O failure or a corrupt /
/// inconsistent on-disk artifact.
#[derive(Debug)]
pub struct ShardError {
    msg: String,
}

impl ShardError {
    fn new(msg: impl Into<String>) -> Self {
        ShardError { msg: msg.into() }
    }

    fn io(ctx: &str, path: &Path, e: std::io::Error) -> Self {
        ShardError::new(format!("{ctx} {}: {e}", path.display()))
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard store: {}", self.msg)
    }
}

impl std::error::Error for ShardError {}

/// A corpus seen as an ordered sequence of company shards.
///
/// Contract: shards partition `0..n_companies()` into contiguous, ascending
/// ranges; `shard(s)` returns exactly the companies of `shard_span(s)`, in
/// global order. Every span except the last must be a multiple of
/// [`SHARD_ALIGN`] long. Sources are `Sync`: out-of-core training reads the
/// next shard on a second thread while the current one samples.
pub trait CorpusSource: Sync {
    /// The global vocabulary.
    fn vocab(&self) -> &Vocabulary;
    /// Total number of companies across all shards.
    fn n_companies(&self) -> usize;
    /// Number of shards.
    fn n_shards(&self) -> usize;
    /// Half-open global company range `[lo, hi)` of shard `s`.
    fn shard_span(&self, s: usize) -> (usize, usize);
    /// The companies of shard `s`, in global order. Borrowed for in-memory
    /// sources, owned (decoded from disk) for streaming sources.
    ///
    /// # Panics
    /// Streaming sources panic on I/O failure or checksum mismatch; use
    /// [`ShardStore::read_shard`] for recoverable access.
    fn shard(&self, s: usize) -> Cow<'_, [Company]>;
    /// Calls `f` on each company of shard `s`, in global order: the
    /// companies of [`CorpusSource::shard`], which a streaming source need
    /// not hold decoded all at once.
    ///
    /// # Panics
    /// As [`CorpusSource::shard`].
    fn for_each_company(&self, s: usize, f: &mut dyn FnMut(&Company)) {
        self.shard(s).iter().for_each(f);
    }
    /// Install-base tokens of shard `s`, if known without reading it.
    fn shard_tokens(&self, _s: usize) -> Option<usize> {
        None
    }
    /// Total install-base tokens across all shards.
    fn total_tokens(&self) -> usize;
}

impl CorpusSource for Corpus {
    fn vocab(&self) -> &Vocabulary {
        Corpus::vocab(self)
    }

    fn n_companies(&self) -> usize {
        self.len()
    }

    fn n_shards(&self) -> usize {
        1
    }

    fn shard_span(&self, s: usize) -> (usize, usize) {
        assert_eq!(s, 0, "in-memory corpus has exactly one shard");
        (0, self.len())
    }

    fn shard(&self, s: usize) -> Cow<'_, [Company]> {
        assert_eq!(s, 0, "in-memory corpus has exactly one shard");
        Cow::Borrowed(self.companies())
    }

    fn total_tokens(&self) -> usize {
        Corpus::total_tokens(self)
    }
}

/// An in-memory corpus exposed with a multi-shard layout — the RAM-backed
/// counterpart of [`ShardStore`] for layout-sensitive consumers (online VB's
/// minibatches) and for testing streaming paths against in-memory ones.
pub struct MemShardSource<'a> {
    corpus: &'a Corpus,
    shard_size: usize,
}

impl<'a> MemShardSource<'a> {
    /// Wraps `corpus` with shards of `shard_size` companies (the last one
    /// short).
    ///
    /// # Panics
    /// Panics unless `shard_size` is a positive multiple of [`SHARD_ALIGN`].
    pub fn new(corpus: &'a Corpus, shard_size: usize) -> Self {
        assert!(
            shard_size > 0 && shard_size.is_multiple_of(SHARD_ALIGN),
            "shard_size must be a positive multiple of {SHARD_ALIGN}, got {shard_size}"
        );
        MemShardSource { corpus, shard_size }
    }
}

impl CorpusSource for MemShardSource<'_> {
    fn vocab(&self) -> &Vocabulary {
        self.corpus.vocab()
    }

    fn n_companies(&self) -> usize {
        self.corpus.len()
    }

    fn n_shards(&self) -> usize {
        self.corpus.len().div_ceil(self.shard_size).max(1)
    }

    fn shard_span(&self, s: usize) -> (usize, usize) {
        let lo = s * self.shard_size;
        (
            lo.min(self.corpus.len()),
            (lo + self.shard_size).min(self.corpus.len()),
        )
    }

    fn shard(&self, s: usize) -> Cow<'_, [Company]> {
        let (lo, hi) = self.shard_span(s);
        Cow::Borrowed(&self.corpus.companies()[lo..hi])
    }

    fn total_tokens(&self) -> usize {
        Corpus::total_tokens(self.corpus)
    }
}

/// The shard size (companies per shard) that splits `n_companies` into
/// `n_shards` near-equal parts while keeping every boundary a multiple of
/// [`SHARD_ALIGN`]. The final shard absorbs the remainder.
pub fn aligned_shard_size(n_companies: usize, n_shards: usize) -> usize {
    assert!(n_shards > 0, "need at least one shard");
    let raw = n_companies.div_ceil(n_shards).max(1);
    raw.div_ceil(SHARD_ALIGN) * SHARD_ALIGN
}

/// 64-bit FNV-1a over a byte slice (shard-file integrity checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Per-shard manifest record: file name, company range, token/byte counts,
/// content checksum, and the number of distinct vocabulary entries the shard
/// actually uses (its "vocab delta" against an empty store).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardEntry {
    pub file: String,
    pub company_lo: u64,
    pub company_hi: u64,
    pub tokens: u64,
    pub bytes: u64,
    pub checksum: u64,
    pub products_used: u32,
}

/// The store manifest: global counts, the merged vocabulary, and one
/// [`ShardEntry`] per shard in company order. Everything `hlm stats` needs is
/// here, so stats at any scale are O(shards) memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    pub version: u32,
    pub n_companies: u64,
    pub shard_size: u64,
    pub total_tokens: u64,
    pub vocab: Vec<String>,
    pub shards: Vec<ShardEntry>,
}

/// Streaming writer: feed shards in company order, then [`finish`]
/// (writing the manifest) to obtain the readable [`ShardStore`].
///
/// [`finish`]: ShardWriter::finish
pub struct ShardWriter {
    dir: PathBuf,
    vocab: Vocabulary,
    shard_size: usize,
    entries: Vec<ShardEntry>,
    next_lo: usize,
    total_tokens: u64,
    closed: bool,
}

impl ShardWriter {
    /// Creates the store directory (if needed) and an empty writer. Every
    /// shard except the last must hold exactly `shard_size` companies, and
    /// `shard_size` must be a multiple of [`SHARD_ALIGN`].
    pub fn create(
        dir: impl Into<PathBuf>,
        vocab: Vocabulary,
        shard_size: usize,
    ) -> Result<Self, ShardError> {
        assert!(
            shard_size > 0 && shard_size.is_multiple_of(SHARD_ALIGN),
            "shard_size must be a positive multiple of {SHARD_ALIGN}, got {shard_size}"
        );
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ShardError::io("cannot create store directory", &dir, e))?;
        Ok(ShardWriter {
            dir,
            vocab,
            shard_size,
            entries: Vec::new(),
            next_lo: 0,
            total_tokens: 0,
            closed: false,
        })
    }

    /// Appends the next shard. `companies` must continue the global order:
    /// shard `s` covers companies `[s * shard_size, s * shard_size + len)`.
    pub fn write_shard(&mut self, companies: &[Company]) -> Result<(), ShardError> {
        assert!(!self.closed, "writer already finished");
        assert!(!companies.is_empty(), "empty shard");
        if let Some(last) = self.entries.last() {
            assert_eq!(
                (last.company_hi - last.company_lo) as usize,
                self.shard_size,
                "only the final shard may be short; shard {} was",
                self.entries.len() - 1
            );
        }
        assert!(
            companies.len() <= self.shard_size,
            "shard of {} companies exceeds shard_size {}",
            companies.len(),
            self.shard_size
        );
        for c in companies {
            for e in c.events() {
                assert!(
                    self.vocab.contains(e.product),
                    "company {} references product outside the vocabulary",
                    c.duns
                );
            }
        }
        let lo = self.next_lo;
        let hi = lo + companies.len();
        let bytes = encode_shard(lo, hi, companies);
        let file = shard_file_name(self.entries.len());
        let path = self.dir.join(&file);
        std::fs::write(&path, &bytes)
            .map_err(|e| ShardError::io("cannot write shard", &path, e))?;
        let tokens: u64 = companies.iter().map(|c| c.product_count() as u64).sum();
        let mut used = vec![false; self.vocab.len()];
        for c in companies {
            for e in c.events() {
                used[e.product.index()] = true;
            }
        }
        self.entries.push(ShardEntry {
            file,
            company_lo: lo as u64,
            company_hi: hi as u64,
            tokens,
            bytes: bytes.len() as u64,
            checksum: fnv1a(&bytes),
            products_used: used.iter().filter(|&&u| u).count() as u32,
        });
        self.next_lo = hi;
        self.total_tokens += tokens;
        Ok(())
    }

    /// Writes the manifest and reopens the store for reading.
    pub fn finish(mut self) -> Result<ShardStore, ShardError> {
        assert!(!self.entries.is_empty(), "store needs at least one shard");
        self.closed = true;
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            n_companies: self.next_lo as u64,
            shard_size: self.shard_size as u64,
            total_tokens: self.total_tokens,
            vocab: self.vocab.iter().map(|(_, n)| n.to_string()).collect(),
            shards: std::mem::take(&mut self.entries),
        };
        let path = self.dir.join(MANIFEST_FILE);
        let text = serde_json::to_string(&manifest)
            .map_err(|e| ShardError::new(format!("cannot encode manifest: {e}")))?;
        std::fs::write(&path, text)
            .map_err(|e| ShardError::io("cannot write manifest", &path, e))?;
        ShardStore::open(&self.dir)
    }
}

/// An on-disk sharded corpus, opened from its manifest. Reading a shard
/// decodes one file and verifies its FNV-1a checksum; the full corpus is
/// never materialised.
pub struct ShardStore {
    dir: PathBuf,
    manifest: Manifest,
    vocab: Vocabulary,
}

impl ShardStore {
    /// True when `dir` contains a shard-store manifest.
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(MANIFEST_FILE).is_file()
    }

    /// Opens a store, validating the manifest's internal consistency
    /// (version, contiguous spans, token totals) without touching shard
    /// files.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ShardError> {
        let dir = dir.into();
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ShardError::io("cannot read manifest", &path, e))?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| ShardError::new(format!("corrupt manifest {}: {e}", path.display())))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(ShardError::new(format!(
                "manifest version {} unsupported (expected {MANIFEST_VERSION})",
                manifest.version
            )));
        }
        if manifest.shards.is_empty() {
            return Err(ShardError::new("manifest lists no shards"));
        }
        let mut expect_lo = 0u64;
        let mut tokens = 0u64;
        for (i, s) in manifest.shards.iter().enumerate() {
            if s.company_lo != expect_lo || s.company_hi <= s.company_lo {
                return Err(ShardError::new(format!(
                    "shard {i} span [{}, {}) does not continue at {expect_lo}",
                    s.company_lo, s.company_hi
                )));
            }
            let len = s.company_hi - s.company_lo;
            if i + 1 < manifest.shards.len() && len != manifest.shard_size {
                return Err(ShardError::new(format!(
                    "interior shard {i} holds {len} companies, expected {}",
                    manifest.shard_size
                )));
            }
            expect_lo = s.company_hi;
            tokens += s.tokens;
        }
        if expect_lo != manifest.n_companies || tokens != manifest.total_tokens {
            return Err(ShardError::new(
                "manifest totals disagree with per-shard entries",
            ));
        }
        let vocab = Vocabulary::new(manifest.vocab.clone());
        Ok(ShardStore {
            dir,
            manifest,
            vocab,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Reads and decodes shard `s`, verifying size, checksum and header
    /// against the manifest.
    pub fn read_shard(&self, s: usize) -> Result<Vec<Company>, ShardError> {
        let (lo, hi) = self.shard_span(s);
        let mut companies = Vec::with_capacity(hi - lo);
        self.stream_shard(s, &mut |c| companies.push(c))?;
        Ok(companies)
    }

    /// Reads shard `s` and verifies its size and checksum, then decodes it
    /// one company at a time into `f` and checks its header against the
    /// manifest.
    fn stream_shard(&self, s: usize, f: &mut dyn FnMut(Company)) -> Result<(), ShardError> {
        let entry = &self.manifest.shards[s];
        let path = self.dir.join(&entry.file);
        let bytes =
            std::fs::read(&path).map_err(|e| ShardError::io("cannot read shard", &path, e))?;
        if bytes.len() as u64 != entry.bytes || fnv1a(&bytes) != entry.checksum {
            return Err(ShardError::new(format!(
                "shard {s} ({}) fails its checksum",
                path.display()
            )));
        }
        let (lo, hi) = decode_shard(&bytes, f)
            .map_err(|msg| ShardError::new(format!("shard {s} ({}): {msg}", path.display())))?;
        if (lo, hi) != (entry.company_lo as usize, entry.company_hi as usize) {
            return Err(ShardError::new(format!(
                "shard {s} header span [{lo}, {hi}) disagrees with manifest"
            )));
        }
        Ok(())
    }

    /// Sequential reader over all shards in company order.
    pub fn reader(&self) -> ShardReader<'_> {
        ShardReader {
            store: self,
            next: 0,
        }
    }
}

impl CorpusSource for ShardStore {
    fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    fn n_companies(&self) -> usize {
        self.manifest.n_companies as usize
    }

    fn n_shards(&self) -> usize {
        self.manifest.shards.len()
    }

    fn shard_span(&self, s: usize) -> (usize, usize) {
        let e = &self.manifest.shards[s];
        (e.company_lo as usize, e.company_hi as usize)
    }

    fn shard(&self, s: usize) -> Cow<'_, [Company]> {
        Cow::Owned(
            self.read_shard(s)
                .unwrap_or_else(|e| panic!("unreadable shard while streaming: {e}")),
        )
    }

    /// Decodes one company at a time from the verified shard bytes, so the
    /// shard is never held decoded whole.
    fn for_each_company(&self, s: usize, f: &mut dyn FnMut(&Company)) {
        self.stream_shard(s, &mut |c| f(&c))
            .unwrap_or_else(|e| panic!("unreadable shard while streaming: {e}"));
    }

    fn shard_tokens(&self, s: usize) -> Option<usize> {
        Some(self.manifest.shards[s].tokens as usize)
    }

    fn total_tokens(&self) -> usize {
        self.manifest.total_tokens as usize
    }
}

/// Sequential shard iterator yielding `(shard_index, companies)`.
pub struct ShardReader<'a> {
    store: &'a ShardStore,
    next: usize,
}

impl Iterator for ShardReader<'_> {
    type Item = Result<(usize, Vec<Company>), ShardError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.store.n_shards() {
            return None;
        }
        let s = self.next;
        self.next += 1;
        Some(self.store.read_shard(s).map(|cs| (s, cs)))
    }
}

fn shard_file_name(index: usize) -> String {
    format!("shard_{index:05}.bin")
}

/// Binary layout (all integers little-endian):
///
/// ```text
/// magic "HLMSHRD1" · lo u64 · hi u64 · tokens u64
/// per company:
///   duns u64 · name_len u32 · name utf-8 · industry u8 · country u16
///   site_count u32 · employees u32 · revenue_musd f64-bits
///   n_events u32 · per event: product u16 · first_seen i32 · last_seen i32
///                             · confidence f32-bits
/// ```
fn encode_shard(lo: usize, hi: usize, companies: &[Company]) -> Vec<u8> {
    let tokens: u64 = companies.iter().map(|c| c.product_count() as u64).sum();
    let mut out = Vec::with_capacity(32 + companies.len() * 64);
    out.extend_from_slice(SHARD_MAGIC);
    out.extend_from_slice(&(lo as u64).to_le_bytes());
    out.extend_from_slice(&(hi as u64).to_le_bytes());
    out.extend_from_slice(&tokens.to_le_bytes());
    for c in companies {
        out.extend_from_slice(&c.duns.to_le_bytes());
        out.extend_from_slice(&(c.name.len() as u32).to_le_bytes());
        out.extend_from_slice(c.name.as_bytes());
        out.push(c.industry.0);
        out.extend_from_slice(&c.country.to_le_bytes());
        out.extend_from_slice(&c.site_count.to_le_bytes());
        out.extend_from_slice(&c.employees.to_le_bytes());
        out.extend_from_slice(&c.revenue_musd.to_bits().to_le_bytes());
        out.extend_from_slice(&(c.product_count() as u32).to_le_bytes());
        for e in c.events() {
            out.extend_from_slice(&e.product.0.to_le_bytes());
            out.extend_from_slice(&e.first_seen.0.to_le_bytes());
            out.extend_from_slice(&e.last_seen.0.to_le_bytes());
            out.extend_from_slice(&e.confidence.to_bits().to_le_bytes());
        }
    }
    out
}

/// Decodes a shard file written by [`encode_shard`], handing each company
/// to `f` in order, and returns the header's company span.
fn decode_shard(bytes: &[u8], f: &mut dyn FnMut(Company)) -> Result<(usize, usize), String> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.take(8)? != SHARD_MAGIC {
        return Err("bad magic".to_string());
    }
    let lo = cur.u64()? as usize;
    let hi = cur.u64()? as usize;
    let tokens = cur.u64()?;
    if hi <= lo {
        return Err(format!("bad span [{lo}, {hi})"));
    }
    let mut seen_tokens = 0u64;
    for _ in lo..hi {
        let duns = cur.u64()?;
        let name_len = cur.u32()? as usize;
        let name = std::str::from_utf8(cur.take(name_len)?)
            .map_err(|_| "company name is not UTF-8".to_string())?
            .to_string();
        let industry = Sic2(cur.u8()?);
        let country = cur.u16()?;
        let mut c = Company::new(duns, name, industry, country);
        c.site_count = cur.u32()?;
        c.employees = cur.u32()?;
        c.revenue_musd = f64::from_bits(cur.u64()?);
        let n_events = cur.u32()? as usize;
        // Stored events are the already-merged install base — one event per
        // product, sorted by `(first_seen, product)` — so they install in
        // one move. The capacity is capped by the bytes left, so a bad count
        // cannot reserve more than the file holds.
        let mut events = Vec::with_capacity(n_events.min(cur.remaining() / EVENT_BYTES));
        for _ in 0..n_events {
            events.push(InstallEvent {
                product: ProductId(cur.u16()?),
                first_seen: Month(cur.i32()?),
                last_seen: Month(cur.i32()?),
                confidence: f32::from_bits(cur.u32()?),
            });
        }
        if !c.set_events(events) {
            return Err("duplicate product within a stored company".to_string());
        }
        seen_tokens += n_events as u64;
        f(c);
    }
    if cur.pos != bytes.len() {
        return Err("trailing bytes after last company".to_string());
    }
    if seen_tokens != tokens {
        return Err("header token count disagrees with body".to_string());
    }
    Ok((lo, hi))
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| "truncated shard".to_string())?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, String> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Writes an in-memory corpus out as a shard store (test/tooling helper; the
/// streaming generator in `hlm-datagen` never materialises the corpus).
pub fn write_corpus_sharded(
    corpus: &Corpus,
    dir: impl Into<PathBuf>,
    n_shards: usize,
) -> Result<ShardStore, ShardError> {
    let size = aligned_shard_size(corpus.len(), n_shards);
    let mut w = ShardWriter::create(dir, corpus.vocab().clone(), size)?;
    for chunk in corpus.companies().chunks(size) {
        w.write_shard(chunk)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus(n: usize) -> Corpus {
        let vocab = Vocabulary::standard();
        let companies = (0..n)
            .map(|i| {
                let mut c = Company::new(
                    10_000 + i as u64,
                    format!("company_{i}"),
                    Sic2((i % 83) as u8),
                    (i % 5) as u16,
                );
                c.site_count = 1 + (i % 3) as u32;
                c.employees = 10 * i as u32;
                c.revenue_musd = 0.25 * i as f64;
                for j in 0..(1 + i % 4) {
                    c.add_event(InstallEvent {
                        product: ProductId(((i * 7 + j * 11) % 38) as u16),
                        first_seen: Month::from_ym(2000 + (j as i32 % 10), 1 + (i as u32 % 12)),
                        last_seen: Month::from_ym(2015, 6),
                        confidence: 0.5 + 0.1 * j as f32,
                    });
                }
                c
            })
            .collect();
        Corpus::new(vocab, companies)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hlm_shard_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_preserves_companies_bit_for_bit() {
        let corpus = tiny_corpus(200);
        let dir = tmp_dir("round_trip");
        let store = write_corpus_sharded(&corpus, &dir, 3).unwrap();
        assert_eq!(store.n_companies(), 200);
        assert_eq!(
            store.n_shards(),
            200usize.div_ceil(aligned_shard_size(200, 3))
        );
        assert_eq!(store.total_tokens(), corpus.total_tokens());
        assert_eq!(store.vocab(), corpus.vocab());
        let mut all = Vec::new();
        for item in store.reader() {
            let (s, companies) = item.unwrap();
            let (lo, hi) = store.shard_span(s);
            assert_eq!(companies.len(), hi - lo);
            all.extend(companies);
        }
        assert_eq!(all.as_slice(), corpus.companies());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corpus_is_a_single_shard_source() {
        let corpus = tiny_corpus(70);
        assert_eq!(CorpusSource::n_shards(&corpus), 1);
        assert_eq!(corpus.shard_span(0), (0, 70));
        assert_eq!(corpus.shard(0).as_ref(), corpus.companies());
        assert_eq!(CorpusSource::total_tokens(&corpus), corpus.total_tokens());
    }

    #[test]
    fn tampered_shard_is_rejected() {
        let corpus = tiny_corpus(64);
        let dir = tmp_dir("tamper");
        let store = write_corpus_sharded(&corpus, &dir, 1).unwrap();
        let path = dir.join(&store.manifest().shards[0].file);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        let err = store.read_shard(0).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A one-shard store of `company` whose two stored events went through
    /// `tamper` (given the file bytes and the offset of the first event),
    /// re-sealed so that only the decoder can object.
    fn store_with_tampered_events(tag: &str, tamper: impl FnOnce(&mut [u8], usize)) -> ShardStore {
        let mut company = Company::new(10_000, "acme", Sic2(7), 1);
        company.add_event(InstallEvent::at(ProductId(5), Month::from_ym(2001, 3)));
        company.add_event(InstallEvent::at(ProductId(9), Month::from_ym(2004, 8)));
        let corpus = Corpus::new(Vocabulary::standard(), vec![company]);
        let dir = tmp_dir(tag);
        let store = write_corpus_sharded(&corpus, &dir, 1).unwrap();
        let path = dir.join(&store.manifest().shards[0].file);
        let mut bytes = std::fs::read(&path).unwrap();
        // Header, then duns, name length, name, industry, country, sites,
        // employees, revenue and the event count.
        tamper(
            &mut bytes,
            32 + 8 + 4 + "acme".len() + 1 + 2 + 4 + 4 + 8 + 4,
        );
        std::fs::write(&path, &bytes).unwrap();
        let mut manifest = store.manifest().clone();
        manifest.shards[0].checksum = fnv1a(&bytes);
        let text = serde_json::to_string(&manifest).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), text).unwrap();
        ShardStore::open(&dir).unwrap()
    }

    #[test]
    fn duplicate_product_within_a_stored_company_is_rejected() {
        let store = store_with_tampered_events("dup_product", |bytes, at| {
            // The second event names the first event's product.
            bytes.copy_within(at..at + 2, at + EVENT_BYTES);
        });
        let err = store.read_shard(0).unwrap_err();
        assert!(
            err.to_string()
                .contains("duplicate product within a stored company"),
            "{err}"
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn out_of_order_stored_events_decode_sorted_as_add_event_sorts_them() {
        let store = store_with_tampered_events("out_of_order", |bytes, at| {
            let (first, second) = bytes[at..at + 2 * EVENT_BYTES].split_at_mut(EVENT_BYTES);
            first.swap_with_slice(second);
        });
        let decoded = store.read_shard(0).unwrap();
        // Replaying the events in their stored (swapped) order through
        // `add_event` is the reference.
        let mut replayed = Company::new(10_000, "acme", Sic2(7), 1);
        replayed.add_event(InstallEvent::at(ProductId(9), Month::from_ym(2004, 8)));
        replayed.add_event(InstallEvent::at(ProductId(5), Month::from_ym(2001, 3)));
        assert_eq!(decoded[0].events(), replayed.events());
        assert_eq!(decoded[0].product_sequence(), [ProductId(5), ProductId(9)]);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn inconsistent_manifest_is_rejected() {
        let corpus = tiny_corpus(130);
        let dir = tmp_dir("manifest");
        let store = write_corpus_sharded(&corpus, &dir, 2).unwrap();
        let mut manifest = store.manifest().clone();
        manifest.total_tokens += 1;
        let path = dir.join(MANIFEST_FILE);
        std::fs::write(&path, serde_json::to_string(&manifest).unwrap()).unwrap();
        assert!(ShardStore::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aligned_shard_size_is_aligned_and_covers() {
        for n in [1usize, 63, 64, 65, 1000, 4096] {
            for shards in 1..6 {
                let size = aligned_shard_size(n, shards);
                assert_eq!(size % SHARD_ALIGN, 0);
                assert!(size * shards >= n, "n={n} shards={shards} size={size}");
            }
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
