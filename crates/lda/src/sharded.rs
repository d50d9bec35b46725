//! Shard state for the collapsed Gibbs trainer, kept in memory or spilled
//! to disk.
//!
//! [`GibbsTrainer`](crate::GibbsTrainer) sweeps a corpus one *shard* of
//! documents at a time, and any shard layout yields the model of a single
//! shard bit for bit. The correspondence rests on four invariants:
//!
//! 1. **Init.** Token topics are drawn from one sequential RNG in global
//!    document order; visiting shards in order consumes the identical
//!    stream.
//! 2. **Chunk streams.** Shard spans are multiples of the sweep's document
//!    chunk, so a shard-local chunk plus the shard's global chunk offset
//!    (`SweepCtx::chunk_base`) addresses exactly the documents — and the
//!    `(seed, sweep, chunk)` RNG stream — of a single-shard sweep.
//! 3. **Ordered merge.** Every chunk samples against the immutable
//!    sweep-start snapshot; per-chunk count deltas are folded into an
//!    accumulator in global chunk order — the same additions, on the same
//!    values, in the same order at any shard layout (hlm-par's
//!    ordered-reduction contract).
//! 4. **Exact spill.** A shard's token assignments and doc-topic rows
//!    round-trip through a checksummed binary encoding. Each row keeps only
//!    its entries whose bits are not those of `+0.0`, with the `f64` bits
//!    verbatim, so no floating-point value is ever re-derived and the
//!    encoding grows with the tokens, not with documents × topics.
//!
//! Between visits a shard's [`ShardState`] lives in one of two places
//! ([`ShardStore`]). Without a spill directory every shard stays in memory
//! and its token arrays are built once; checkpoints then carry each shard's
//! state in the spill encoding. With a spill directory only the visited
//! shard is in memory and the others sit in spill files, versioned by
//! completed sweeps so a kill at any step boundary resumes bit-identically
//! from a checkpoint that holds only the small global tables.

use crate::gibbs::DOC_CHUNK;
use crate::{WeightedDoc, WeightedTokens};
use hlm_corpus::shard::fnv1a;
use hlm_linalg::Matrix;
use hlm_resilience::ResilienceError;
use rand::rngs::StdRng;
use rand::Rng;
use std::borrow::Cow;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, SyncSender};
use std::thread::Scope;

/// A corpus of weighted documents arriving in ordered shards.
///
/// Contract: shard spans partition `0..n_docs()` contiguously and in order,
/// and every span except the last is a multiple of the Gibbs document chunk
/// (64; [`hlm_corpus::shard::SHARD_ALIGN`] keeps on-disk stores aligned).
/// `shard_docs(s)` must return the same documents every time it is called —
/// out-of-core training re-reads each shard once per pass, on a second
/// thread one shard step ahead of the sampling, hence `Sync`.
pub trait DocShardSource: Sync {
    /// Total number of documents.
    fn n_docs(&self) -> usize;
    /// Number of shards.
    fn n_shards(&self) -> usize;
    /// Half-open global document range of shard `s`.
    fn shard_span(&self, s: usize) -> (usize, usize);
    /// The documents of shard `s`, in global order — borrowed when the
    /// source already holds them in memory.
    fn shard_docs(&self, s: usize) -> Cow<'_, [WeightedDoc]>;
    /// Calls `f` on each document of shard `s`, in global order: the
    /// documents of [`DocShardSource::shard_docs`], which a streaming source
    /// need not hold all at once.
    fn for_each_doc(&self, s: usize, f: &mut dyn FnMut(&WeightedTokens)) {
        self.shard_docs(s).iter().for_each(|doc| f(doc));
    }
    /// Tokens of shard `s`, if known without reading it: lets out-of-core
    /// training size its buffers once for the largest shard.
    fn shard_tokens(&self, _s: usize) -> Option<usize> {
        None
    }
}

/// A plain document slice is a single shard.
impl DocShardSource for [WeightedDoc] {
    fn n_docs(&self) -> usize {
        self.len()
    }

    fn n_shards(&self) -> usize {
        1
    }

    fn shard_span(&self, _s: usize) -> (usize, usize) {
        (0, self.len())
    }

    fn shard_docs(&self, _s: usize) -> Cow<'_, [WeightedDoc]> {
        Cow::Borrowed(self)
    }
}

impl DocShardSource for Vec<WeightedDoc> {
    fn n_docs(&self) -> usize {
        self.as_slice().n_docs()
    }

    fn n_shards(&self) -> usize {
        1
    }

    fn shard_span(&self, s: usize) -> (usize, usize) {
        self.as_slice().shard_span(s)
    }

    fn shard_docs(&self, s: usize) -> Cow<'_, [WeightedDoc]> {
        self.as_slice().shard_docs(s)
    }
}

/// An in-memory document slice exposed as aligned shards — the reference
/// implementation the streaming path is tested against.
pub struct MemDocShards<'a> {
    docs: &'a [WeightedDoc],
    shard_size: usize,
}

impl<'a> MemDocShards<'a> {
    /// Splits `docs` into `n_shards` near-equal aligned shards.
    pub fn new(docs: &'a [WeightedDoc], n_shards: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        let raw = docs.len().div_ceil(n_shards).max(1);
        Self::with_shard_size(docs, raw.div_ceil(DOC_CHUNK) * DOC_CHUNK)
    }

    /// Splits `docs` into shards of exactly `shard_size` documents (last one
    /// short). `shard_size` must be a positive multiple of 64.
    pub fn with_shard_size(docs: &'a [WeightedDoc], shard_size: usize) -> Self {
        assert!(
            shard_size > 0 && shard_size.is_multiple_of(DOC_CHUNK),
            "shard_size must be a positive multiple of {DOC_CHUNK}"
        );
        MemDocShards { docs, shard_size }
    }
}

impl DocShardSource for MemDocShards<'_> {
    fn n_docs(&self) -> usize {
        self.docs.len()
    }

    fn n_shards(&self) -> usize {
        self.docs.len().div_ceil(self.shard_size).max(1)
    }

    fn shard_span(&self, s: usize) -> (usize, usize) {
        let lo = s * self.shard_size;
        (
            lo.min(self.docs.len()),
            (lo + self.shard_size).min(self.docs.len()),
        )
    }

    fn shard_docs(&self, s: usize) -> Cow<'_, [WeightedDoc]> {
        let (lo, hi) = self.shard_span(s);
        Cow::Borrowed(&self.docs[lo..hi])
    }
}

/// Magic bytes opening every spill (format v2: sparse doc-topic rows).
const SPILL_MAGIC: &[u8; 8] = b"HLMGSPL2";
/// Magic of the retired dense format v1, recognised only to reject it by
/// name.
const SPILL_MAGIC_V1: &[u8; 8] = b"HLMGSPL1";
/// Spill header bytes: magic, shard, version, document and token counts.
const SPILL_HEADER: usize = 40;
/// Bytes of one stored doc-topic entry: `u16` topic, `u64` value bits.
const SPILL_ENTRY: usize = 10;

/// A shard's flat token arrays, built from its documents (documents are
/// contiguous; `tok_doc` holds shard-local indices).
#[derive(Default)]
pub(crate) struct ShardTokens {
    pub(crate) tok_doc: Vec<u32>,
    pub(crate) tok_word: Vec<u32>,
    pub(crate) tok_weight: Vec<f64>,
    /// Token range of each document: `doc_start[d]..doc_start[d + 1]`.
    pub(crate) doc_start: Vec<usize>,
}

impl ShardTokens {
    /// Rebuilds the arrays from `docs`, reusing the buffers and sizing them
    /// exactly.
    ///
    /// # Panics
    /// Panics if a document references a word outside the vocabulary of
    /// `m` or carries a weight that is not finite and positive.
    fn load(&mut self, docs: &[WeightedDoc], m: usize) {
        self.clear();
        self.reserve_exact(docs.iter().map(Vec::len).sum(), docs.len());
        for doc in docs {
            self.push_doc(doc, m);
        }
    }

    /// Rebuilds the arrays from shard `s` of `source` one document at a
    /// time ([`DocShardSource::for_each_doc`]), reusing the buffers.
    ///
    /// # Panics
    /// As [`ShardTokens::load`].
    fn load_streamed<S: DocShardSource + ?Sized>(&mut self, source: &S, s: usize, m: usize) {
        self.clear();
        source.for_each_doc(s, &mut |doc| self.push_doc(doc, m));
    }

    /// Grows the (cleared) buffers to hold exactly `n_tokens` tokens in
    /// `n_docs` documents.
    fn reserve_exact(&mut self, n_tokens: usize, n_docs: usize) {
        self.tok_doc.reserve_exact(n_tokens);
        self.tok_word.reserve_exact(n_tokens);
        self.tok_weight.reserve_exact(n_tokens);
        self.doc_start.reserve_exact(n_docs + 1);
    }

    fn clear(&mut self) {
        self.tok_doc.clear();
        self.tok_word.clear();
        self.tok_weight.clear();
        self.doc_start.clear();
        self.doc_start.push(0);
    }

    fn push_doc(&mut self, doc: &WeightedTokens, m: usize) {
        let d = self.n_docs() as u32;
        for &(w, weight) in doc {
            assert!(w < m, "word {w} outside vocabulary of {m}");
            assert!(
                weight.is_finite() && weight > 0.0,
                "token weight must be positive, got {weight}"
            );
            self.tok_doc.push(d);
            self.tok_word.push(w as u32);
            self.tok_weight.push(weight);
        }
        self.doc_start.push(self.tok_doc.len());
    }

    fn n_docs(&self) -> usize {
        self.doc_start.len().saturating_sub(1)
    }
}

/// One shard's sampler state: its token arrays, the token assignments and
/// the dense doc-topic rows.
#[derive(Default)]
pub(crate) struct ShardState {
    pub(crate) tokens: ShardTokens,
    pub(crate) tok_z: Vec<u16>,
    /// `n_docs × k` doc-topic counts.
    pub(crate) n_dk: Vec<f64>,
}

impl ShardState {
    /// Rebuilds the token arrays from `docs`, reusing the buffers, and
    /// zero-sizes the doc-topic block for `k` topics.
    ///
    /// # Panics
    /// As [`ShardTokens::load`].
    fn load_tokens(&mut self, docs: &[WeightedDoc], k: usize, m: usize) {
        self.tokens.load(docs, m);
        self.n_dk.clear();
        self.n_dk.resize(docs.len() * k, 0.0);
    }

    /// Draws every token's initial topic from `rng` in document order and
    /// adds the tokens to the shard's and the global count tables.
    fn draw_topics(&mut self, rng: &mut StdRng, k: usize, n_kw: &mut Matrix, n_k: &mut [f64]) {
        let t = &self.tokens;
        self.tok_z.clear();
        self.tok_z.reserve_exact(t.tok_word.len());
        for ((&d, &w), &weight) in t.tok_doc.iter().zip(&t.tok_word).zip(&t.tok_weight) {
            let z = rng.gen_range(0..k);
            self.tok_z.push(z as u16);
            self.n_dk[d as usize * k + z] += weight;
            n_kw.add_at(z, w as usize, weight);
            n_k[z] += weight;
        }
    }

    /// Overwrites the assignments and doc-topic rows from a spill encoding,
    /// checked against this shard's loaded tokens.
    fn decode(
        &mut self,
        bytes: &[u8],
        shard: usize,
        version: u64,
        k: usize,
    ) -> Result<(), &'static str> {
        let body = verify_spill(bytes)?;
        self.decode_body(body, shard, version, k)
    }

    fn decode_body(
        &mut self,
        body: &[u8],
        shard: usize,
        version: u64,
        k: usize,
    ) -> Result<(), &'static str> {
        let n_tokens = self.tokens.tok_word.len();
        decode_spill_body(
            body,
            shard,
            version,
            n_tokens,
            k,
            &mut self.tok_z,
            &mut self.n_dk,
        )
    }

    /// Decodes a spill read and verified by [`load_spill`] into the
    /// assignments and doc-topic rows, whose tokens must already be loaded,
    /// and records the read: its bytes, and its seconds from the start of
    /// the file read to the end of the decode.
    fn install_spill(
        &mut self,
        spill: &VerifiedSpill,
        shard: usize,
        version: u64,
        k: usize,
    ) -> Result<(), ResilienceError> {
        let t0 = std::time::Instant::now();
        let body = &spill.bytes[..spill.bytes.len() - 8];
        self.decode_body(body, shard, version, k).map_err(|what| {
            ResilienceError::corrupt(format!("spill {}: {what}", spill.path.display()))
        })?;
        let rec = hlm_obs::global();
        if rec.is_enabled() {
            rec.add("lda.spill.bytes_read", spill.bytes.len() as u64);
            rec.observe(
                "lda.spill_seconds",
                spill.read_seconds + t0.elapsed().as_secs_f64(),
            );
        }
        Ok(())
    }
}

/// What the prefetch worker builds for one item: a shard's token arrays
/// and, when asked for, its spill read and checksum-verified.
struct Fetched {
    tokens: ShardTokens,
    spill: Option<VerifiedSpill>,
}

/// What the prefetch worker hands over for one item: what it built, a
/// typed error, or the payload of a panic to re-raise on the sampling
/// thread.
type Handoff = std::thread::Result<Result<Fetched, ResilienceError>>;

/// The sampling thread's end of the prefetch worker. Dropping it stops the
/// worker at its next hand-over.
pub(crate) struct Prefetch {
    items: Receiver<Handoff>,
    /// Returns the worker its token buffer once an item is installed.
    spent: SyncSender<ShardTokens>,
}

impl Prefetch {
    /// The next step's input, blocking until the worker hands it over; the
    /// wait is observed as `lda.gibbs.prefetch_wait_seconds`.
    pub(crate) fn next(&self) -> Result<Prefetched<'_>, ResilienceError> {
        let rec = hlm_obs::global();
        let t0 = rec.is_enabled().then(std::time::Instant::now);
        let next = self.recv();
        if let Some(t0) = t0 {
            rec.observe(
                "lda.gibbs.prefetch_wait_seconds",
                t0.elapsed().as_secs_f64(),
            );
        }
        next
    }

    /// The next item, blocking until the worker hands it over. A worker
    /// error is returned here, a worker panic re-raised here, so both
    /// surface where the shard is needed.
    fn recv(&self) -> Result<Prefetched<'_>, ResilienceError> {
        let handoff = self
            .items
            .recv()
            .expect("the prefetch worker hands over every item it runs ahead of");
        let fetched = handoff.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        Ok(Prefetched {
            fetched,
            spent: &self.spent,
        })
    }
}

/// One item of the prefetch worker, received and not yet installed.
pub(crate) struct Prefetched<'p> {
    fetched: Fetched,
    spent: &'p SyncSender<ShardTokens>,
}

impl Prefetched<'_> {
    /// Swaps the token arrays into `state`, handing its previous ones to the
    /// worker to refill, and sizes the doc-topic block for `k` topics; given
    /// a shard step `(dir, shard, version)`, decodes the step's spill into
    /// `state` too, read now if the worker did not read it.
    fn install(
        self,
        state: &mut ShardState,
        k: usize,
        step: Option<(&Path, usize, u64)>,
    ) -> Result<(), ResilienceError> {
        let Fetched { mut tokens, spill } = self.fetched;
        std::mem::swap(&mut state.tokens, &mut tokens);
        state.n_dk.resize(state.tokens.n_docs() * k, 0.0);
        // The worker waits for its buffer before it builds the next item;
        // if it has stopped, nobody needs it back.
        let _ = self.spent.send(tokens);
        if let Some((dir, shard, version)) = step {
            let spill = match spill {
                Some(spill) => spill,
                None => load_spill(dir, shard, version)?,
            };
            state.install_spill(&spill, shard, version, k)?;
        }
        Ok(())
    }
}

/// What the prefetch worker reads from: the source and the spill directory,
/// never anything the sampling thread mutates.
struct Prefetcher<'a, S: ?Sized> {
    source: &'a S,
    dir: PathBuf,
    m: usize,
}

impl<S: DocShardSource + ?Sized> Prefetcher<'_, S> {
    /// Builds every item in order, handing each over before building the
    /// next in the buffer the sampling thread returns, and stops at the
    /// first failure or once the sampling thread has dropped its end.
    fn run(
        self,
        fresh: bool,
        steps: Range<u64>,
        items: SyncSender<Handoff>,
        spent: Receiver<ShardTokens>,
    ) {
        let n_shards = self.source.n_shards();
        // A fresh fit first loads every shard's tokens for the initial
        // draw. With a single shard a step's spill is the one the step
        // before it is still writing, so the sampling thread reads it.
        let init = (0..if fresh { n_shards } else { 0 }).map(|s| (s, None));
        let steps = steps.map(|step| {
            let s = (step % n_shards as u64) as usize;
            (s, (n_shards > 1).then_some(step / n_shards as u64))
        });
        let mut first = ShardTokens::default();
        if let Some((n_tokens, n_docs)) = largest_shard(self.source) {
            first.reserve_exact(n_tokens, n_docs);
        }
        let mut buffer = Some(first);
        for (s, version) in init.chain(steps) {
            let Some(tokens) = buffer.take().or_else(|| spent.recv().ok()) else {
                return;
            };
            let item =
                std::panic::catch_unwind(AssertUnwindSafe(|| self.build(tokens, s, version)));
            let failed = !matches!(item, Ok(Ok(_)));
            if items.send(item).is_err() || failed {
                return;
            }
        }
    }

    /// Shard `s`'s token arrays, loaded into `tokens`, and, given a
    /// version, its spill.
    fn build(
        &self,
        mut tokens: ShardTokens,
        s: usize,
        version: Option<u64>,
    ) -> Result<Fetched, ResilienceError> {
        tokens.load_streamed(self.source, s, self.m);
        let spill = version.map(|v| load_spill(&self.dir, s, v)).transpose()?;
        Ok(Fetched { tokens, spill })
    }
}

/// Where each shard's [`ShardState`] lives between visits: all shards in
/// memory, or — with a spill directory — one reusable buffer in memory and
/// every shard in versioned spill files.
pub(crate) struct ShardStore<'a, S: DocShardSource + ?Sized> {
    source: &'a S,
    k: usize,
    m: usize,
    spill: Option<Spill>,
    /// In memory: every shard's state, by shard. Spilled: the one buffer
    /// every visit loads into.
    states: Vec<ShardState>,
}

/// The spill directory of an out-of-core fit.
struct Spill {
    dir: PathBuf,
    /// Per shard, spill versions strictly below this are already pruned.
    retained_lo: Vec<u64>,
}

impl<'a, S: DocShardSource + ?Sized> ShardStore<'a, S> {
    fn new(
        source: &'a S,
        k: usize,
        m: usize,
        spill_dir: Option<&Path>,
    ) -> Result<Self, ResilienceError> {
        validate_spans(source);
        let n_shards = source.n_shards();
        let spill = match spill_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| ResilienceError::io("create work dir", e))?;
                Some(Spill {
                    dir: dir.to_path_buf(),
                    retained_lo: vec![0; n_shards],
                })
            }
            None => None,
        };
        let n_states = if spill.is_some() { 1 } else { n_shards };
        let mut states: Vec<ShardState> = (0..n_states).map(|_| ShardState::default()).collect();
        if let Some((n_tokens, n_docs)) = spill.as_ref().and_then(|_| largest_shard(source)) {
            // The one buffer every shard visits, sized once for the largest.
            let state = &mut states[0];
            state.tokens.reserve_exact(n_tokens, n_docs);
            state.tok_z.reserve_exact(n_tokens);
            state.n_dk.reserve_exact(n_docs * k);
        }
        Ok(ShardStore {
            source,
            k,
            m,
            spill,
            states,
        })
    }

    /// A fresh fit's shards, with stale spills discarded; see
    /// [`ShardStore::draw_initial`].
    pub(crate) fn fresh(
        source: &'a S,
        k: usize,
        m: usize,
        spill_dir: Option<&Path>,
    ) -> Result<Self, ResilienceError> {
        let store = Self::new(source, k, m, spill_dir)?;
        if let Some(spill) = &store.spill {
            clear_spills(&spill.dir)?;
        }
        Ok(store)
    }

    /// Draws a fresh fit's initial topic assignments shard by shard from
    /// one sequential RNG in global document order, adding them to
    /// `n_kw`/`n_k`. Spilled shards take their tokens from `prefetch`,
    /// started with `fresh` set, and are written out at version 0.
    pub(crate) fn draw_initial(
        &mut self,
        prefetch: Option<&Prefetch>,
        rng: &mut StdRng,
        n_kw: &mut Matrix,
        n_k: &mut [f64],
    ) -> Result<(), ResilienceError> {
        let (k, m, source) = (self.k, self.m, self.source);
        for s in 0..source.n_shards() {
            let state = self.slot(s);
            match prefetch {
                Some(prefetch) => {
                    prefetch.recv()?.install(state, k, None)?;
                    state.n_dk.fill(0.0);
                }
                None => state.load_tokens(&source.shard_docs(s), k, m),
            }
            state.draw_topics(rng, k, n_kw, n_k);
            self.leave(s, 0)?;
        }
        Ok(())
    }

    /// Reopens the shards of a fit checkpointed after `step` shard steps.
    /// In memory, `carried` holds each shard's state from the checkpoint;
    /// spilled, every shard must hold the spill version the step implies.
    ///
    /// # Errors
    /// [`ResilienceError::Mismatch`] when the carried states or the spill
    /// files do not fit the source.
    pub(crate) fn resume(
        source: &'a S,
        k: usize,
        m: usize,
        spill_dir: Option<&Path>,
        step: u64,
        carried: &[&[u8]],
    ) -> Result<Self, ResilienceError> {
        let n_shards = source.n_shards();
        let mut store = Self::new(source, k, m, spill_dir)?;
        if let Some(spill) = &mut store.spill {
            for s in 0..n_shards {
                let v = expected_version(step, n_shards, s);
                if !spill_path(&spill.dir, s, v).is_file() {
                    return Err(ResilienceError::Mismatch {
                        reason: format!(
                            "work dir lacks spill version {v} for shard {s}; \
                             cannot resume from step {step}"
                        ),
                    });
                }
                spill.retained_lo[s] = v;
            }
            return Ok(store);
        }
        if carried.len() != n_shards {
            return Err(ResilienceError::Mismatch {
                reason: format!(
                    "checkpoint carries {} in-memory shard states, the fit has {n_shards} \
                     shards (a checkpoint of an out-of-core fit resumes only with its \
                     spill directory)",
                    carried.len()
                ),
            });
        }
        for (s, (state, bytes)) in store.states.iter_mut().zip(carried).enumerate() {
            state.load_tokens(&source.shard_docs(s), k, m);
            // The checkpoint envelope is checksummed, so a state that does
            // not decode belongs to another corpus or configuration.
            state
                .decode(bytes, s, expected_version(step, n_shards, s), k)
                .map_err(|what| ResilienceError::Mismatch {
                    reason: format!("checkpoint state of shard {s}: {what}"),
                })?;
        }
        Ok(store)
    }

    fn slot(&mut self, s: usize) -> &mut ShardState {
        let i = if self.spill.is_some() { 0 } else { s };
        &mut self.states[i]
    }

    /// Starts the prefetch worker of a spilled fit on `scope`: one thread
    /// that builds, in order, the tokens of every shard for the initial
    /// draw when `fresh` is set, then the input of every step in `steps` —
    /// each one item ahead of its consumer, since the rendezvous channel
    /// holds exactly one shard in flight. The worker starts on an item
    /// once the one before it is handed over, so the item before that has
    /// been fully processed, spill written; step `t`'s spill is written by
    /// the item `n_shards` before it, which is that far back whenever there
    /// are two shards or more. In memory, or with nothing to fetch, no
    /// thread starts.
    pub(crate) fn prefetch<'scope>(
        &self,
        scope: &'scope Scope<'scope, '_>,
        fresh: bool,
        steps: Range<u64>,
    ) -> Option<Prefetch>
    where
        'a: 'scope,
    {
        let spill = self.spill.as_ref().filter(|_| fresh || !steps.is_empty())?;
        let worker = Prefetcher {
            source: self.source,
            dir: spill.dir.clone(),
            m: self.m,
        };
        let (items_tx, items) = std::sync::mpsc::sync_channel(0);
        let (spent, spent_rx) = std::sync::mpsc::sync_channel(1);
        std::thread::Builder::new()
            .name("hlm-gibbs-prefetch".into())
            .spawn_scoped(scope, move || worker.run(fresh, steps, items_tx, spent_rx))
            .expect("spawn the shard prefetch thread");
        Some(Prefetch { items, spent })
    }

    /// Shard `s` at the start of sweep `sweep`, ready to sample. A spilled
    /// shard is installed from `next`, this step's prefetched input, into
    /// the one reused buffer and its spill decoded there.
    pub(crate) fn visit(
        &mut self,
        s: usize,
        sweep: u64,
        next: Option<Prefetched<'_>>,
    ) -> Result<&mut ShardState, ResilienceError> {
        let k = self.k;
        let Some(spill) = &self.spill else {
            return Ok(&mut self.states[s]);
        };
        let next = next.expect("a spilled shard is visited with its prefetched input");
        let state = &mut self.states[0];
        next.install(state, k, Some((&spill.dir, s, sweep)))?;
        Ok(state)
    }

    /// Ends a visit of shard `s`, whose state is now at spill `version`
    /// (sweeps completed): spilled shards are written out.
    pub(crate) fn leave(&mut self, s: usize, version: u64) -> Result<(), ResilienceError> {
        match &self.spill {
            Some(spill) => write_spill(&spill.dir, s, version, &self.states[0], self.k),
            None => Ok(()),
        }
    }

    /// Drops the spill versions of shard `s` that no resume can need any
    /// more, given the sweep just finished for it and the step of the
    /// latest checkpoint (`None` before the first one).
    pub(crate) fn prune(&mut self, s: usize, sweep: u64, last_ckpt: Option<u64>) {
        let n_shards = self.source.n_shards();
        let Some(spill) = &mut self.spill else {
            return;
        };
        let keep = match last_ckpt {
            Some(step) => expected_version(step, n_shards, s),
            None => sweep + 1,
        };
        for v in spill.retained_lo[s]..keep {
            let _ = std::fs::remove_file(spill_path(&spill.dir, s, v));
        }
        spill.retained_lo[s] = spill.retained_lo[s].max(keep);
    }

    /// Appends every in-memory shard's state, in the spill encoding, to a
    /// checkpoint payload taken after `step` shard steps: a newline, then
    /// per shard a `u64` LE length and the encoding. Spilled shards add
    /// nothing — their state is in the spill files.
    pub(crate) fn append_states(&self, step: u64, out: &mut Vec<u8>) {
        if self.spill.is_some() {
            return;
        }
        out.push(b'\n');
        let n_shards = self.states.len();
        for (s, state) in self.states.iter().enumerate() {
            let v = expected_version(step, n_shards, s);
            let bytes = encode_spill(s, v, &state.tok_z, &state.n_dk, self.k);
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
    }
}

/// Splits what [`ShardStore::append_states`] appended into the per-shard
/// encodings (none for a payload without a newline tail).
pub(crate) fn split_states(tail: &[u8]) -> Result<Vec<&[u8]>, ResilienceError> {
    let mut rest = tail;
    let mut states = Vec::new();
    while !rest.is_empty() {
        let len = rest
            .get(..8)
            .map(|b| le_u64(b) as usize)
            .ok_or_else(|| ResilienceError::corrupt("gibbs payload: truncated shard length"))?;
        let bytes = 8usize
            .checked_add(len)
            .and_then(|end| rest.get(8..end))
            .ok_or_else(|| ResilienceError::corrupt("gibbs payload: truncated shard state"))?;
        states.push(bytes);
        rest = &rest[8 + len..];
    }
    Ok(states)
}

fn spill_path(dir: &Path, shard: usize, version: u64) -> PathBuf {
    dir.join(format!("gibbs_shard_{shard:05}_v{version}.bin"))
}

/// Removes every spill file a fit could have left in `dir`.
fn clear_spills(dir: &Path) -> Result<(), ResilienceError> {
    let entries = std::fs::read_dir(dir).map_err(|e| ResilienceError::io("read work dir", e))?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("gibbs_shard_") && name.ends_with(".bin") {
            std::fs::remove_file(entry.path())
                .map_err(|e| ResilienceError::io("remove stale spill", e))?;
        }
    }
    Ok(())
}

/// Writes a shard's spill atomically (temp file + rename); see
/// [`encode_spill`] for the layout.
fn write_spill(
    dir: &Path,
    shard: usize,
    version: u64,
    state: &ShardState,
    k: usize,
) -> Result<(), ResilienceError> {
    let rec = hlm_obs::global();
    let t0 = rec.is_enabled().then(std::time::Instant::now);
    let bytes = encode_spill(shard, version, &state.tok_z, &state.n_dk, k);
    let path = spill_path(dir, shard, version);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| ResilienceError::io("write spill", e))?;
    std::fs::rename(&tmp, &path).map_err(|e| ResilienceError::io("commit spill", e))?;
    if let Some(t0) = t0 {
        rec.add("lda.spill.bytes_written", bytes.len() as u64);
        rec.observe("lda.spill_seconds", t0.elapsed().as_secs_f64());
    }
    Ok(())
}

/// A spill file read whole with its checksum verified, and the seconds the
/// read and the check took.
struct VerifiedSpill {
    path: PathBuf,
    bytes: Vec<u8>,
    read_seconds: f64,
}

/// Reads a shard's spill at an exact version and verifies its checksum;
/// [`ShardState::install_spill`] checks and decodes the rest.
fn load_spill(dir: &Path, shard: usize, version: u64) -> Result<VerifiedSpill, ResilienceError> {
    let t0 = std::time::Instant::now();
    let path = spill_path(dir, shard, version);
    let bytes = std::fs::read(&path).map_err(|e| ResilienceError::io("read spill", e))?;
    if let Err(what) = verify_spill(&bytes) {
        return Err(ResilienceError::corrupt(format!(
            "spill {}: {what}",
            path.display()
        )));
    }
    Ok(VerifiedSpill {
        path,
        bytes,
        read_seconds: t0.elapsed().as_secs_f64(),
    })
}

/// Encodes one shard's state as a v2 spill:
///
/// - header: magic `HLMGSPL2`, then shard, version, document count and
///   token count as `u64` LE;
/// - the token assignments as raw `u16` LE;
/// - per document row of `n_dk`: `nnz: u32` LE, then `nnz` entries of
///   `topic: u16` LE and the value's `f64` bits as `u64` LE, in strictly
///   increasing topic order, for every entry whose bits are not zero;
/// - an FNV-1a trailer over everything before it.
///
/// Only `+0.0` (all bits zero) is left out, and the decoder's zero fill
/// restores exactly those bits; every other value — `-0.0`, subnormals,
/// the non-integer residues of weighted tokens — is stored verbatim, so a
/// round trip is bit-exact. The size is O(tokens), not O(docs × K).
fn encode_spill(shard: usize, version: u64, tok_z: &[u16], n_dk: &[f64], k: usize) -> Vec<u8> {
    let n_docs = n_dk.len() / k;
    // Capacity for about one entry per token; rows with residues grow it.
    let mut bytes =
        Vec::with_capacity(SPILL_HEADER + tok_z.len() * (2 + SPILL_ENTRY) + n_docs * 4 + 8);
    bytes.extend_from_slice(SPILL_MAGIC);
    for field in [shard as u64, version, n_docs as u64, tok_z.len() as u64] {
        bytes.extend_from_slice(&field.to_le_bytes());
    }
    for &z in tok_z {
        bytes.extend_from_slice(&z.to_le_bytes());
    }
    for row in n_dk.chunks_exact(k) {
        let nnz_at = bytes.len();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut nnz = 0u32;
        for (t, v) in row.iter().enumerate() {
            let bits = v.to_bits();
            if bits != 0 {
                bytes.extend_from_slice(&(t as u16).to_le_bytes());
                bytes.extend_from_slice(&bits.to_le_bytes());
                nnz += 1;
            }
        }
        bytes[nnz_at..nnz_at + 4].copy_from_slice(&nnz.to_le_bytes());
    }
    let sum = fnv1a(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Checks a spill's length and FNV-1a trailer and returns the body the
/// trailer covers.
fn verify_spill(bytes: &[u8]) -> Result<&[u8], &'static str> {
    if bytes.len() < SPILL_HEADER + 8 {
        return Err("truncated");
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    if fnv1a(body) != le_u64(trailer) {
        return Err("checksum mismatch");
    }
    Ok(body)
}

/// Decodes the body of a v2 spill written by [`encode_spill`], its trailer
/// already verified ([`verify_spill`]), into `tok_z` and `n_dk`
/// (`n_docs × k`, overwritten in full), checking the magic, the header
/// against the expected shard, version and shape, and every row
/// structurally. Returns what is wrong instead of panicking on any input.
fn decode_spill_body(
    body: &[u8],
    shard: usize,
    version: u64,
    n_tokens: usize,
    k: usize,
    tok_z: &mut Vec<u16>,
    n_dk: &mut [f64],
) -> Result<(), &'static str> {
    if &body[..8] == SPILL_MAGIC_V1 {
        return Err("dense spill format v1 from an older build is not read; \
                    restart the fit instead of resuming");
    }
    if &body[..8] != SPILL_MAGIC {
        return Err("bad magic");
    }
    let u64_at = |o: usize| le_u64(&body[o..]);
    let n_docs = n_dk.len() / k;
    if u64_at(8) != shard as u64
        || u64_at(16) != version
        || u64_at(24) != n_docs as u64
        || u64_at(32) != n_tokens as u64
    {
        return Err("header does not match the shard's documents");
    }
    let z_end = SPILL_HEADER + n_tokens * 2;
    let z_bytes = body
        .get(SPILL_HEADER..z_end)
        .ok_or("truncated assignments")?;
    tok_z.clear();
    tok_z.extend(
        z_bytes
            .chunks_exact(2)
            .map(|b| u16::from_le_bytes([b[0], b[1]])),
    );
    if tok_z.iter().any(|&z| usize::from(z) >= k) {
        return Err("token assignment outside the topic range");
    }
    n_dk.fill(0.0);
    let mut o = z_end;
    for row in n_dk.chunks_exact_mut(k) {
        let head = body.get(o..o + 4).ok_or("truncated row")?;
        let nnz = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        o += 4;
        if nnz > k {
            return Err("row has more entries than topics");
        }
        let entries = body.get(o..o + nnz * SPILL_ENTRY).ok_or("truncated row")?;
        o += nnz * SPILL_ENTRY;
        let mut next_topic = 0;
        for e in entries.chunks_exact(SPILL_ENTRY) {
            let t = usize::from(u16::from_le_bytes([e[0], e[1]]));
            let bits = le_u64(&e[2..]);
            if t >= k {
                return Err("row topic outside the topic range");
            }
            if t < next_topic {
                return Err("row topics are not strictly increasing");
            }
            if bits == 0 {
                return Err("row stores a +0.0 entry");
            }
            row[t] = f64::from_bits(bits);
            next_topic = t + 1;
        }
    }
    if o != body.len() {
        return Err("trailing bytes after the last row");
    }
    Ok(())
}

/// The little-endian `u64` in the first eight bytes of `b`; callers pass at
/// least eight.
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("an 8-byte slice"))
}

/// The spill version every shard must hold when `step` shard-steps are done:
/// `sweep + 1` for shards already processed in the current sweep, `sweep`
/// otherwise.
fn expected_version(step: u64, n_shards: usize, shard: usize) -> u64 {
    let sweep = step / n_shards as u64;
    let done = step % n_shards as u64;
    sweep + u64::from((shard as u64) < done)
}

/// The most tokens and the most documents in any one shard, if the source
/// knows every shard's token count without reading it. Buffers sized to
/// these once never grow, so no shard leaves a freed smaller block behind.
fn largest_shard<S: DocShardSource + ?Sized>(source: &S) -> Option<(usize, usize)> {
    (0..source.n_shards()).try_fold((0, 0), |(n_tokens, n_docs), s| {
        let (lo, hi) = source.shard_span(s);
        let tokens = source.shard_tokens(s)?;
        Some((n_tokens.max(tokens), n_docs.max(hi - lo)))
    })
}

fn validate_spans<S: DocShardSource + ?Sized>(source: &S) {
    let n_shards = source.n_shards();
    assert!(n_shards > 0, "source must expose at least one shard");
    let mut expect_lo = 0;
    for s in 0..n_shards {
        let (lo, hi) = source.shard_span(s);
        assert_eq!(lo, expect_lo, "shard {s} does not continue the span");
        assert!(hi >= lo, "shard {s} has a negative span");
        assert!(
            s == n_shards - 1 || (hi - lo) % DOC_CHUNK == 0,
            "interior shard {s} span of {} is not a multiple of {DOC_CHUNK}",
            hi - lo
        );
        expect_lo = hi;
    }
    assert_eq!(expect_lo, source.n_docs(), "spans must cover all documents");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::{GibbsTrainer, GIBBS_CHECKPOINT_KIND};
    use crate::model::LdaConfig;
    use crate::unit_weights;
    use hlm_resilience::{CheckpointStore, MemIo, RunGuard, TrainControl};
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Direct access to an out-of-core trainer's spill files.
    impl GibbsTrainer {
        fn spill_path(&self, shard: usize, version: u64) -> PathBuf {
            spill_path(self.spill_dir.as_deref().unwrap(), shard, version)
        }

        fn read_spill(
            &self,
            shard: usize,
            version: u64,
            docs: &[WeightedDoc],
            k: usize,
        ) -> Result<(Vec<u16>, Vec<f64>), ResilienceError> {
            let mut state = ShardState::default();
            state.load_tokens(docs, k, self.config().vocab_size);
            let spill = load_spill(self.spill_dir.as_deref().unwrap(), shard, version)?;
            state.install_spill(&spill, shard, version, k)?;
            Ok((state.tok_z, state.n_dk))
        }
    }

    fn planted_docs(n_docs: usize, seed: u64) -> Vec<WeightedDoc> {
        let mut rng = StdRng::seed_from_u64(seed);
        unit_weights(
            &(0..n_docs)
                .map(|i| {
                    let base = if i % 2 == 0 { 0usize } else { 3 };
                    (0..8).map(|_| base + rng.gen_range(0..3)).collect()
                })
                .collect::<Vec<_>>(),
        )
    }

    fn cfg(n_topics: usize, seed: u64) -> LdaConfig {
        LdaConfig {
            n_topics,
            vocab_size: 6,
            n_iters: 40,
            burn_in: 20,
            sample_lag: 5,
            seed,
            alpha: Some(0.5),
            beta: 0.1,
            optimize_alpha: true,
            ..Default::default()
        }
    }

    fn work_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hlm_sharded_gibbs_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sharded_fit_is_bit_identical_to_in_memory_at_any_shard_count() {
        let docs = planted_docs(200, 1);
        let full = GibbsTrainer::new(cfg(2, 7)).fit(&docs);
        for n_shards in [1, 2, 4] {
            let dir = work_dir(&format!("mem_{n_shards}"));
            let trainer = GibbsTrainer::with_spill_dir(cfg(2, 7), &dir);
            let model = trainer.fit(&MemDocShards::new(&docs, n_shards));
            assert_eq!(model.phi(), full.phi(), "n_shards={n_shards}");
            assert_eq!(model.alpha(), full.alpha(), "n_shards={n_shards}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn sharded_sparse_sampler_and_weighted_tokens_match_in_memory() {
        // k = 24 widens the dense kernel's tables past the paper's K;
        // fractional weights leave tiny count residues in them.
        let mut rng = StdRng::seed_from_u64(91);
        let docs: Vec<WeightedDoc> = (0..150)
            .map(|_| {
                (0..10)
                    .map(|_| (rng.gen_range(0..6), 0.25 + rng.gen::<f64>()))
                    .collect()
            })
            .collect();
        let c = cfg(24, 23);
        let full = GibbsTrainer::new(c.clone()).fit(&docs);
        let dir = work_dir("sparse");
        let model = GibbsTrainer::with_spill_dir(c, &dir).fit(&MemDocShards::new(&docs, 3));
        assert_eq!(model.phi(), full.phi());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_mid_pass_and_resume_is_bit_identical() {
        let docs = planted_docs(200, 2);
        let c = cfg(2, 11);
        let full = GibbsTrainer::new(c.clone()).fit(&docs);
        let source = MemDocShards::new(&docs, 4);
        let n_shards = source.n_shards();

        let dir = work_dir("resume");
        let trainer = GibbsTrainer::with_spill_dir(c, &dir);
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        // Abort mid-sweep: step 90 is sweep 22 (past burn-in), shard 2 of 4.
        let abort_step = 22 * n_shards as u64 + 2;
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(abort_step));
        let err = trainer.fit_resumable(&source, &mut ctrl, None).unwrap_err();
        assert!(err.is_interruption());

        let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
        assert_eq!(ckpt.iteration, abort_step);
        let resumed = trainer
            .fit_resumable(&source, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap();
        assert_eq!(resumed.phi(), full.phi(), "resume must be bit-identical");
        assert_eq!(resumed.alpha(), full.alpha());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_detects_missing_spills_and_wrong_source() {
        let docs = planted_docs(128, 3);
        let c = cfg(2, 5);
        let source = MemDocShards::new(&docs, 2);
        let dir = work_dir("guards");
        let trainer = GibbsTrainer::with_spill_dir(c, &dir);
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(9));
        trainer.fit_resumable(&source, &mut ctrl, None).unwrap_err();
        let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();

        // Different shard layout.
        let other = MemDocShards::new(&docs, 1);
        let err = trainer
            .fit_resumable(&other, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap_err();
        assert!(matches!(err, ResilienceError::Mismatch { .. }));

        // Spills gone.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        let err = trainer
            .fit_resumable(&source, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap_err();
        assert!(matches!(err, ResilienceError::Mismatch { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_spill_is_rejected() {
        let docs = planted_docs(64, 4);
        let dir = work_dir("corrupt");
        let trainer = GibbsTrainer::with_spill_dir(cfg(2, 5), &dir);
        let source = MemDocShards::new(&docs, 1);
        // Run once so a spill exists, then flip a byte and read it back.
        let _ = trainer.fit(&source);
        let path = trainer.spill_path(0, 40);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&path, bytes).unwrap();
        let err = trainer.read_spill(0, 40, &docs, 2).unwrap_err();
        assert!(matches!(err, ResilienceError::Corrupt { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_versions_are_pruned_without_checkpointing() {
        let docs = planted_docs(128, 6);
        let dir = work_dir("prune");
        let trainer = GibbsTrainer::with_spill_dir(cfg(2, 9), &dir);
        let _ = trainer.fit(&MemDocShards::new(&docs, 2));
        // Without a checkpoint sink nothing pins old versions, so only the
        // newest spill per shard survives — not one file per sweep.
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert!(files <= 2, "spill files must stay bounded, found {files}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The dense v1 spill layout older builds wrote: the v2 header under the
    /// v1 magic, the raw assignments, every doc-topic value's bits, and the
    /// FNV-1a trailer.
    fn v1_spill(shard: usize, version: u64, tok_z: &[u16], n_dk: &[f64], k: usize) -> Vec<u8> {
        let mut bytes = SPILL_MAGIC_V1.to_vec();
        let n_docs = n_dk.len() / k;
        for field in [shard as u64, version, n_docs as u64, tok_z.len() as u64] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        for &z in tok_z {
            bytes.extend_from_slice(&z.to_le_bytes());
        }
        for &v in n_dk {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        sealed(bytes)
    }

    /// Appends the FNV-1a trailer, so a tampered body still passes the
    /// checksum and only the structural checks can reject it.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let sum = fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    fn decode(
        bytes: &[u8],
        n_tokens: usize,
        n_docs: usize,
        k: usize,
    ) -> Result<(Vec<u16>, Vec<f64>), &'static str> {
        let mut tok_z = Vec::new();
        // NaN fill: every `+0.0` in the output must come from the decoder.
        let mut n_dk = vec![f64::NAN; n_docs * k];
        decode_spill_body(
            verify_spill(bytes)?,
            3,
            7,
            n_tokens,
            k,
            &mut tok_z,
            &mut n_dk,
        )?;
        Ok((tok_z, n_dk))
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        /// Any doc-topic block survives write→read bit for bit: all-zero
        /// rows, fully dense rows (`nnz = K`) and mixed rows holding `-0.0`,
        /// subnormals, weighted-token residues and arbitrary finite values.
        #[test]
        fn spill_codec_round_trips_any_rows_bit_for_bit(
            seed in 0u64..u64::MAX,
            n_docs in 0usize..12,
            k in 1usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut n_dk = Vec::with_capacity(n_docs * k);
            for _ in 0..n_docs {
                // 0: all-zero row, 1: no +0.0 drawn, 2: mixed.
                let shape = rng.gen_range(0..3);
                for _ in 0..k {
                    let class = match shape {
                        0 => 0,
                        1 => rng.gen_range(1..6),
                        _ => rng.gen_range(0..6),
                    };
                    n_dk.push(match class {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
                        3 => {
                            let w = 0.25 + rng.gen::<f64>();
                            (0.1 + w) + 0.2 - w - 0.3
                        }
                        4 => rng.gen_range(1..50) as f64,
                        _ => loop {
                            let v = f64::from_bits(rng.gen());
                            if v.is_finite() {
                                break v;
                            }
                        },
                    });
                }
            }
            let n_tokens = rng.gen_range(0..50);
            let tok_z: Vec<u16> = (0..n_tokens).map(|_| rng.gen_range(0..k) as u16).collect();
            let bytes = encode_spill(3, 7, &tok_z, &n_dk, k);
            let (z, dk) = decode(&bytes, n_tokens, n_docs, k).unwrap();
            proptest::prop_assert_eq!(z, tok_z);
            proptest::prop_assert_eq!(bits(&dk), bits(&n_dk));
        }
    }

    #[test]
    fn spill_codec_keeps_signed_zeros_subnormals_and_residues() {
        let k = 5;
        #[rustfmt::skip]
        let n_dk = [
            0.0, 0.0, 0.0, 0.0, 0.0,
            1.0, 2.0, 3.0, 4.0, 5.0,
            -0.0, f64::MIN_POSITIVE / 2.0, 0.1 + 0.2 - 0.3, 0.0, f64::from_bits(1),
        ];
        let tok_z = [0u16, 4, 2];
        let bytes = encode_spill(3, 7, &tok_z, &n_dk, k);
        // Rows store 0, 5 (nnz = K) and 4 entries: the +0.0 is the only
        // value left out.
        assert_eq!(
            bytes.len(),
            SPILL_HEADER + 2 * tok_z.len() + 3 * 4 + 9 * SPILL_ENTRY + 8
        );
        let (z, dk) = decode(&bytes, tok_z.len(), 3, k).unwrap();
        assert_eq!(z, tok_z);
        assert_eq!(bits(&dk), bits(&n_dk));
    }

    #[test]
    fn sparse_spill_is_a_tenth_of_dense_at_k128() {
        // Eight tokens per document, as in the generated corpora.
        let (k, n_docs) = (128, 640);
        let mut rng = StdRng::seed_from_u64(17);
        let mut tok_z = Vec::new();
        let mut n_dk = vec![0.0; n_docs * k];
        for d in 0..n_docs {
            for _ in 0..8 {
                let z = rng.gen_range(0..k);
                tok_z.push(z as u16);
                n_dk[d * k + z] += 1.0;
            }
        }
        let sparse = encode_spill(0, 0, &tok_z, &n_dk, k).len();
        let dense = v1_spill(0, 0, &tok_z, &n_dk, k).len();
        assert!(sparse * 10 <= dense, "v2 {sparse} B vs v1 {dense} B");
    }

    /// Reads a hand-built spill for two documents of two tokens each
    /// (K = 4) whose doc-topic rows are the raw bytes `rows`.
    fn read_hand_built(rows: &[u8]) -> Result<(Vec<u16>, Vec<f64>), ResilienceError> {
        let docs: Vec<WeightedDoc> = vec![vec![(0, 1.0), (1, 1.0)], vec![(2, 1.0), (3, 1.0)]];
        let mut body = SPILL_MAGIC.to_vec();
        for field in [0u64, 0, 2, 4] {
            body.extend_from_slice(&field.to_le_bytes());
        }
        for z in [0u16, 1, 2, 3] {
            body.extend_from_slice(&z.to_le_bytes());
        }
        body.extend_from_slice(rows);
        let dir = work_dir(&format!("hand_{:016x}", fnv1a(rows)));
        std::fs::create_dir_all(&dir).unwrap();
        let trainer = GibbsTrainer::with_spill_dir(cfg(4, 1), &dir);
        std::fs::write(trainer.spill_path(0, 0), sealed(body)).unwrap();
        let result = trainer.read_spill(0, 0, &docs, 4);
        std::fs::remove_dir_all(&dir).unwrap();
        result
    }

    /// Asserts the hand-built spill is rejected as corrupt by the check
    /// whose message contains `why`.
    fn assert_corrupt(rows: &[u8], why: &str) {
        match read_hand_built(rows) {
            Err(ResilienceError::Corrupt { what }) if what.contains(why) => {}
            other => panic!("expected Corrupt({why:?}), got {other:?}"),
        }
    }

    /// One encoded row: the `nnz` field as given, then the entries.
    fn row(nnz: u32, entries: &[(u16, u64)]) -> Vec<u8> {
        let mut out = nnz.to_le_bytes().to_vec();
        for &(t, b) in entries {
            out.extend_from_slice(&t.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    const ONE: u64 = 0x3ff0_0000_0000_0000;

    #[test]
    fn well_formed_hand_built_spill_decodes() {
        // The control for the tampered bodies below: the same layout with
        // nothing wrong reads back.
        let rows = [row(2, &[(0, ONE), (1, ONE)]), row(2, &[(2, ONE), (3, ONE)])].concat();
        let (z, dk) = read_hand_built(&rows).unwrap();
        assert_eq!(z, [0, 1, 2, 3]);
        assert_eq!(dk, [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn spill_row_with_more_entries_than_topics_is_corrupt() {
        let entries: Vec<(u16, u64)> = (0..5).map(|t| (t, ONE)).collect();
        assert_corrupt(
            &[row(5, &entries), row(0, &[])].concat(),
            "more entries than topics",
        );
    }

    #[test]
    fn spill_row_topic_outside_range_is_corrupt() {
        assert_corrupt(
            &[row(1, &[(4, ONE)]), row(0, &[])].concat(),
            "outside the topic range",
        );
    }

    #[test]
    fn spill_row_topics_not_increasing_are_corrupt() {
        assert_corrupt(
            &[row(2, &[(1, ONE), (1, ONE)]), row(0, &[])].concat(),
            "not strictly increasing",
        );
        assert_corrupt(
            &[row(2, &[(1, ONE), (0, ONE)]), row(0, &[])].concat(),
            "not strictly increasing",
        );
    }

    #[test]
    fn spill_row_storing_a_zero_is_corrupt() {
        assert_corrupt(
            &[row(2, &[(0, 0), (1, ONE)]), row(0, &[])].concat(),
            "+0.0 entry",
        );
    }

    #[test]
    fn truncated_spill_row_is_corrupt() {
        // The second row claims two entries but the body ends after one.
        assert_corrupt(
            &[row(1, &[(0, ONE)]), row(2, &[(2, ONE)])].concat(),
            "truncated row",
        );
    }

    #[test]
    fn trailing_bytes_after_spill_rows_are_corrupt() {
        assert_corrupt(
            &[row(1, &[(0, ONE)]), row(0, &[]), vec![0; 3]].concat(),
            "trailing bytes",
        );
    }

    #[test]
    fn spill_token_assignment_outside_range_is_rejected() {
        let bytes = encode_spill(3, 7, &[0, 5], &[1.0, 0.0, 0.0, 1.0], 2);
        assert_eq!(
            decode(&bytes, 2, 2, 2).unwrap_err(),
            "token assignment outside the topic range"
        );
    }

    #[test]
    fn resume_over_v1_spills_is_a_typed_error() {
        // A fit checkpointed by an older build left dense v1 spills behind;
        // this build must refuse them by name rather than misread them.
        let docs = planted_docs(128, 8);
        let source = MemDocShards::new(&docs, 2);
        let n_shards = source.n_shards();
        let dir = work_dir("v1");
        let trainer = GibbsTrainer::with_spill_dir(cfg(2, 13), &dir);
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(9));
        trainer.fit_resumable(&source, &mut ctrl, None).unwrap_err();
        let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
        for s in 0..n_shards {
            let v = expected_version(ckpt.iteration, n_shards, s);
            let (tok_z, n_dk) = trainer.read_spill(s, v, &source.shard_docs(s), 2).unwrap();
            std::fs::write(trainer.spill_path(s, v), v1_spill(s, v, &tok_z, &n_dk, 2)).unwrap();
        }
        let err = trainer
            .fit_resumable(&source, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap_err();
        assert!(matches!(err, ResilienceError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("format v1"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    thread_local! {
        /// What each thread that read a [`Hooked`] source holds until it
        /// exits.
        static HELD: RefCell<Vec<Arc<()>>> = const { RefCell::new(Vec::new()) };
    }

    /// Shards that run `hook` with the index of every `shard_docs` call
    /// before serving it, and leave a share of `alive` with each thread that
    /// calls, dropped only when that thread exits.
    struct Hooked<'a> {
        inner: MemDocShards<'a>,
        calls: AtomicUsize,
        hook: Box<dyn Fn(usize) + Sync + 'a>,
        alive: Arc<()>,
    }

    impl<'a> Hooked<'a> {
        fn new(inner: MemDocShards<'a>, hook: impl Fn(usize) + Sync + 'a) -> Self {
            Hooked {
                inner,
                calls: AtomicUsize::new(0),
                hook: Box::new(hook),
                alive: Arc::new(()),
            }
        }

        /// Waits until every thread that read the source has exited.
        fn assert_readers_exit(&self) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Arc::strong_count(&self.alive) > 1 {
                assert!(
                    Instant::now() < deadline,
                    "a thread that read the shards is still running"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    impl DocShardSource for Hooked<'_> {
        fn n_docs(&self) -> usize {
            self.inner.n_docs()
        }

        fn n_shards(&self) -> usize {
            self.inner.n_shards()
        }

        fn shard_span(&self, s: usize) -> (usize, usize) {
            self.inner.shard_span(s)
        }

        fn shard_docs(&self, s: usize) -> Cow<'_, [WeightedDoc]> {
            (self.hook)(self.calls.fetch_add(1, Ordering::SeqCst));
            HELD.with(|held| held.borrow_mut().push(Arc::clone(&self.alive)));
            self.inner.shard_docs(s)
        }
    }

    #[test]
    fn spill_corrupted_while_the_step_before_samples_fails_its_step_after_that_checkpoint() {
        let docs = planted_docs(256, 21);
        let n_shards = 4;
        let dir = work_dir("corrupt_ahead");
        let trainer = GibbsTrainer::with_spill_dir(cfg(2, 17), &dir);
        // Step 10 visits shard 2 in sweep 2 and reads its spill version 2.
        // Its input is the worker's call 4 + 10 (after the four of the
        // initial draw), made while step 9 samples.
        let (step, shard, version) = (10u64, 2, 2);
        let target = trainer.spill_path(shard, version);
        let source = Hooked::new(MemDocShards::new(&docs, n_shards), |call| {
            if call == n_shards + step as usize {
                let mut bytes = std::fs::read(&target).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 1;
                std::fs::write(&target, bytes).unwrap();
            }
        });
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store);
        let err = trainer.fit_resumable(&source, &mut ctrl, None).unwrap_err();
        assert!(matches!(err, ResilienceError::Corrupt { .. }), "{err}");
        let name = format!("gibbs_shard_{shard:05}_v{version}.bin");
        assert!(err.to_string().contains(&name), "{err}");
        let last = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
        assert_eq!(
            last.iteration, step,
            "the step before the corrupt spill commits its checkpoint first"
        );
        source.assert_readers_exit();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_with_a_shard_in_flight_stops_the_worker_and_resumes_bit_identically() {
        let docs = planted_docs(256, 22);
        let c = cfg(2, 19);
        let full = GibbsTrainer::new(c.clone()).fit(&docs);
        // The worker is always one item ahead, so when step 13 aborts its
        // input is being built or waits to be handed over.
        let abort = || RunGuard::unlimited().abort_at_iteration(13);
        let in_memory_err = GibbsTrainer::new(c.clone())
            .fit_resumable(
                &MemDocShards::new(&docs, 4),
                &mut TrainControl::noop().with_guard(abort()),
                None,
            )
            .unwrap_err();

        let dir = work_dir("abort_ahead");
        let trainer = GibbsTrainer::with_spill_dir(c, &dir);
        let source = Hooked::new(MemDocShards::new(&docs, 4), |_| {});
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store).with_guard(abort());
        let err = trainer.fit_resumable(&source, &mut ctrl, None).unwrap_err();
        assert!(
            matches!(err, ResilienceError::Cancelled { iteration: 13 }),
            "{err}"
        );
        assert_eq!(err.to_string(), in_memory_err.to_string());
        source.assert_readers_exit();

        let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
        assert_eq!(ckpt.iteration, 13);
        let resumed = trainer
            .fit_resumable(&source, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap();
        assert_eq!(resumed.phi(), full.phi(), "resume must be bit-identical");
        assert_eq!(resumed.alpha(), full.alpha());
        source.assert_readers_exit();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_shard_spilled_fit_matches_in_memory_through_kill_and_resume() {
        // With one shard the worker prefetches tokens only: the next spill
        // is the one the current step writes, read on the sampling thread.
        let docs = planted_docs(150, 23);
        let c = cfg(2, 29);
        let full = GibbsTrainer::new(c.clone()).fit(&docs);
        let dir = work_dir("single");
        let trainer = GibbsTrainer::with_spill_dir(c, &dir);
        let source = MemDocShards::new(&docs, 1);
        assert_eq!(trainer.fit(&source).phi(), full.phi());

        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(25));
        assert!(trainer
            .fit_resumable(&source, &mut ctrl, None)
            .unwrap_err()
            .is_interruption());
        let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
        let resumed = trainer
            .fit_resumable(&source, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap();
        assert_eq!(resumed.phi(), full.phi());
        assert_eq!(resumed.alpha(), full.alpha());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_panic_reading_ahead_resurfaces_at_its_step_with_its_message() {
        let docs = planted_docs(256, 24);
        let dir = work_dir("panic_ahead");
        let trainer = GibbsTrainer::with_spill_dir(cfg(2, 31), &dir);
        // Call 4 + 6 builds step 6's input while step 5 samples.
        let source = Hooked::new(MemDocShards::new(&docs, 4), |call| {
            if call == 4 + 6 {
                panic!("unreadable shard while streaming: injected");
            }
        });
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            trainer.fit_resumable(&source, &mut ctrl, None)
        }));
        let payload = caught.expect_err("the worker's panic reaches the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default();
        assert_eq!(message, "unreadable shard while streaming: injected");
        let last = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
        assert_eq!(last.iteration, 6, "steps before the panic are checkpointed");
        source.assert_readers_exit();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
