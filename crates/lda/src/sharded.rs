//! Out-of-core AD-LDA: collapsed Gibbs over an on-disk sharded corpus.
//!
//! [`ShardedGibbsTrainer`] reproduces [`GibbsTrainer`](crate::GibbsTrainer)
//! **bit for bit** while holding only one shard of documents in memory at a
//! time. The correspondence rests on four invariants:
//!
//! 1. **Init.** Token topics are drawn from one sequential RNG in global
//!    document order; visiting shards in order consumes the identical
//!    stream.
//! 2. **Chunk streams.** Shard spans are multiples of the sweep's document
//!    chunk, so a shard-local chunk plus the shard's global chunk offset
//!    (`SweepCtx::chunk_base`) addresses exactly the documents — and the
//!    `(seed, sweep, chunk)` RNG stream — of the whole-corpus sweep.
//! 3. **Ordered merge.** Every chunk samples against the immutable
//!    sweep-start snapshot; per-chunk count deltas are folded into an
//!    accumulator in global chunk order — the same additions, on the same
//!    values, in the same order as the in-memory merge (hlm-par's
//!    ordered-reduction contract).
//! 4. **Exact spill.** Between visits, a shard's token assignments and
//!    doc-topic rows live in a checksummed binary spill file. Each row keeps
//!    only its entries whose bits are not those of `+0.0`, with the `f64`
//!    bits verbatim, so no floating-point value is ever re-derived and the
//!    file grows with the tokens, not with documents × topics.
//!
//! Checkpoints are per *shard step* (one shard of one sweep): they carry the
//! small global tables, while the large per-shard state stays in the spill
//! files, versioned by completed sweeps so a kill at any step boundary
//! resumes bit-identically.

use crate::gibbs::{
    accumulate_phi_row, build_views, delta_stride, gibbs_log_likelihood, merge_chunk_delta,
    minka_alpha_accumulate, minka_alpha_finish, sampler_counter, sweep_budget, sweep_chunk,
    SweepCtx, SweepScratch, WordAliasTables, DOC_CHUNK,
};
use crate::model::{LdaConfig, LdaModel, SamplerChoice};
use crate::WeightedDoc;
use hlm_corpus::shard::fnv1a;
use hlm_linalg::Matrix;
use hlm_par::Pool;
use hlm_resilience::{Checkpoint, ResilienceError, TrainControl};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// A corpus of weighted documents arriving in ordered shards.
///
/// Contract: shard spans partition `0..n_docs()` contiguously and in order,
/// and every span except the last is a multiple of the Gibbs document chunk
/// (64; [`hlm_corpus::shard::SHARD_ALIGN`] keeps on-disk stores aligned).
/// `shard_docs(s)` must return the same documents every time it is called —
/// training re-reads each shard once per pass.
pub trait DocShardSource {
    /// Total number of documents.
    fn n_docs(&self) -> usize;
    /// Number of shards.
    fn n_shards(&self) -> usize;
    /// Half-open global document range of shard `s`.
    fn shard_span(&self, s: usize) -> (usize, usize);
    /// The documents of shard `s`, in global order.
    fn shard_docs(&self, s: usize) -> Vec<WeightedDoc>;
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

    fn shard_docs(&self, s: usize) -> Vec<WeightedDoc> {
        let (lo, hi) = self.shard_span(s);
        self.docs[lo..hi].to_vec()
    }
}

/// Checkpoint kind tag for sharded collapsed-Gibbs runs.
pub const SHARDED_GIBBS_CHECKPOINT_KIND: &str = "lda-gibbs-sharded";

/// Global state at a shard-step boundary. The per-shard token assignments
/// and doc-topic rows are *not* here — they live in versioned spill files
/// under the trainer's work directory; `step` pins which version each shard
/// must hold.
#[derive(Serialize, Deserialize)]
struct ShardedGibbsState {
    /// Shard steps completed: `sweep * n_shards + shards_done_in_sweep`.
    step: u64,
    n_shards: u64,
    n_docs: u64,
    alpha: f64,
    /// Sweep-start snapshot tables (the tables every chunk samples against).
    n_kw: Matrix,
    n_k: Vec<f64>,
    /// Merge accumulator: snapshot plus the deltas of the shards already
    /// processed this sweep.
    acc_kw: Matrix,
    acc_k: Vec<f64>,
    /// Partial Minka-update sums for a mid-sweep kill on an alpha-update
    /// sweep.
    minka_num: f64,
    minka_den: f64,
    phi_acc: Matrix,
    n_samples: u64,
}

/// Magic bytes opening every spill file (format v2: sparse doc-topic rows).
const SPILL_MAGIC: &[u8; 8] = b"HLMGSPL2";
/// Magic of the retired dense format v1, recognised only to reject it by
/// name.
const SPILL_MAGIC_V1: &[u8; 8] = b"HLMGSPL1";
/// Spill header bytes: magic, shard, version, document and token counts.
const SPILL_HEADER: usize = 40;
/// Bytes of one stored doc-topic entry: `u16` topic, `u64` value bits.
const SPILL_ENTRY: usize = 10;

/// Out-of-core collapsed Gibbs trainer. See the module docs for the
/// bit-identity argument; `work_dir` holds the per-shard spill files and
/// must survive (together with the checkpoint store) for kill/resume.
#[derive(Debug, Clone)]
pub struct ShardedGibbsTrainer {
    cfg: LdaConfig,
    work_dir: PathBuf,
}

impl ShardedGibbsTrainer {
    /// Creates a trainer spilling per-shard state under `work_dir`.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent.
    pub fn new(cfg: LdaConfig, work_dir: impl Into<PathBuf>) -> Self {
        cfg.validate();
        ShardedGibbsTrainer {
            cfg,
            work_dir: work_dir.into(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LdaConfig {
        &self.cfg
    }

    /// Trains on a sharded source and returns the estimated model —
    /// bit-identical to `GibbsTrainer::fit` on the concatenated documents.
    ///
    /// # Panics
    /// Panics on malformed documents or an I/O failure in the work
    /// directory.
    pub fn fit<S: DocShardSource + ?Sized>(&self, source: &S) -> LdaModel {
        self.fit_resumable(source, &mut TrainControl::noop(), None)
            .expect("noop control cannot interrupt training")
    }

    /// Like [`fit`](Self::fit), but consults `ctrl` at every shard-step
    /// boundary (one shard of one sweep — so watchdog iterations count shard
    /// steps, not sweeps) and optionally resumes from a checkpoint written
    /// by an earlier run over the same source and work directory.
    ///
    /// # Errors
    /// Interruptions and divergence as reported by `ctrl`;
    /// [`ResilienceError::Mismatch`] when the checkpoint does not fit the
    /// source or the work dir lacks a spill it needs;
    /// [`ResilienceError::Corrupt`] for a damaged spill. Spills in the dense
    /// v1 format of older builds count as corrupt: a fit started by an
    /// older build cannot be resumed and must be restarted without a
    /// checkpoint (a fresh run clears the stale spills).
    pub fn fit_resumable<S: DocShardSource + ?Sized>(
        &self,
        source: &S,
        ctrl: &mut TrainControl,
        resume: Option<&Checkpoint>,
    ) -> Result<LdaModel, ResilienceError> {
        let k = self.cfg.n_topics;
        let m = self.cfg.vocab_size;
        let beta = self.cfg.beta;
        let beta_sum = beta * m as f64;
        let kind = self.cfg.sampler.resolve(k);
        let n_docs = source.n_docs();
        let n_shards = source.n_shards();
        validate_spans(source);

        std::fs::create_dir_all(&self.work_dir)
            .map_err(|e| ResilienceError::io("create work dir", e))?;

        // Per-shard state buffers, sized once for the largest shard and
        // reused by every shard step.
        let max_shard_docs = (0..n_shards)
            .map(|s| {
                let (lo, hi) = source.shard_span(s);
                hi - lo
            })
            .max()
            .unwrap_or(0);
        let mut dk_buf = vec![0.0f64; max_shard_docs * k];
        let mut tok_z: Vec<u16> = Vec::new();

        let mut alpha = self.cfg.effective_alpha();
        let mut n_kw = Matrix::zeros(k, m);
        let mut n_k = vec![0.0f64; k];
        let mut acc_kw = Matrix::zeros(k, m);
        let mut acc_k = vec![0.0f64; k];
        let mut phi_acc = Matrix::zeros(k, m);
        let mut n_samples = 0u64;
        let mut minka_num = 0.0;
        let mut minka_den = 0.0;
        let mut start_step = 0u64;

        if let Some(ckpt) = resume {
            let state = decode_state(ckpt, n_docs, n_shards, k, m)?;
            start_step = state.step;
            alpha = state.alpha;
            n_kw = state.n_kw;
            n_k = state.n_k;
            acc_kw = state.acc_kw;
            acc_k = state.acc_k;
            minka_num = state.minka_num;
            minka_den = state.minka_den;
            phi_acc = state.phi_acc;
            n_samples = state.n_samples;
            // Every shard must hold the spill version the checkpoint
            // expects: `sweep + 1` for shards already processed this sweep,
            // `sweep` for the rest.
            for s in 0..n_shards {
                let v = expected_version(start_step, n_shards, s);
                if !self.spill_path(s, v).is_file() {
                    return Err(ResilienceError::Mismatch {
                        reason: format!(
                            "work dir lacks spill version {v} for shard {s}; \
                             cannot resume from step {start_step}"
                        ),
                    });
                }
            }
        } else {
            // Fresh run: discard stale spills, then draw the initial topic
            // assignments from one sequential RNG in global document order —
            // the same stream the in-memory sampler consumes.
            self.clear_spills()?;
            let mut rng = StdRng::seed_from_u64(self.cfg.seed);
            for s in 0..n_shards {
                let docs = source.shard_docs(s);
                validate_docs(&docs, m);
                tok_z.clear();
                let n_dk = &mut dk_buf[..docs.len() * k];
                n_dk.fill(0.0);
                for (d, doc) in docs.iter().enumerate() {
                    for &(w, weight) in doc {
                        let z = rng.gen_range(0..k);
                        tok_z.push(z as u16);
                        n_dk[d * k + z] += weight;
                        n_kw.add_at(z, w, weight);
                        n_k[z] += weight;
                    }
                }
                self.write_spill(s, 0, &tok_z, n_dk, k)?;
            }
        }

        let pool = Pool::global();
        let rec = hlm_obs::global();
        // The word alias tables are a pure function of the sweep-start
        // snapshot `(n_kw, n_k)`, so rebuilding them at sweep start (or on a
        // mid-sweep resume, from the checkpointed snapshot) reproduces the
        // in-memory trainer's per-sweep tables bit for bit.
        let mut alias_tables = (kind == SamplerChoice::AliasMh).then(|| WordAliasTables::new(k, m));
        let mut sweep_mh_proposed = 0u64;
        let mut sweep_mh_accepted = 0u64;
        let total_steps = self.cfg.n_iters as u64 * n_shards as u64;
        // Spill versions strictly below this are already pruned, per shard.
        let mut retained_lo: Vec<u64> = (0..n_shards)
            .map(|s| expected_version(start_step, n_shards, s))
            .collect();
        let mut last_ckpt_step = start_step;
        let mut saves_seen = ctrl.saves();
        // Until some checkpoint exists there is nothing to resume from, so
        // only the newest spill version matters.
        let mut have_ckpt = resume.is_some();

        for step in start_step..total_steps {
            ctrl.begin_iteration(step)?;
            let sweep = step / n_shards as u64;
            let s = (step % n_shards as u64) as usize;
            if s == 0 {
                // Sweep start: the accumulator begins at the snapshot.
                acc_kw.copy_from(&n_kw);
                acc_k.copy_from_slice(&n_k);
                minka_num = 0.0;
                minka_den = 0.0;
            }
            if s == 0 || step == start_step {
                rec.add(sampler_counter(kind), 1);
                sweep_mh_proposed = 0;
                sweep_mh_accepted = 0;
                if let Some(tables) = alias_tables.as_mut() {
                    tables.rebuild(&n_kw, &n_k, beta, beta_sum);
                }
            }
            let sweep_t0 = rec.is_enabled().then(std::time::Instant::now);

            let docs = source.shard_docs(s);
            validate_docs(&docs, m);
            let (span_lo, span_hi) = source.shard_span(s);
            debug_assert_eq!(span_hi - span_lo, docs.len());
            let n_dk = &mut dk_buf[..docs.len() * k];
            self.read_spill_into(s, sweep, &docs, k, &mut tok_z, n_dk)?;

            // Flat token arrays, local to the shard; chunk_base lifts local
            // chunk ids to global ones.
            let shard_tokens = tok_z.len();
            let mut tok_doc: Vec<u32> = Vec::with_capacity(shard_tokens);
            let mut tok_word: Vec<u32> = Vec::with_capacity(shard_tokens);
            let mut tok_weight: Vec<f64> = Vec::with_capacity(shard_tokens);
            let mut doc_start = Vec::with_capacity(docs.len() + 1);
            doc_start.push(0usize);
            for (d, doc) in docs.iter().enumerate() {
                for &(w, weight) in doc {
                    tok_doc.push(d as u32);
                    tok_word.push(w as u32);
                    tok_weight.push(weight);
                }
                doc_start.push(doc_start.last().unwrap() + doc.len());
            }

            let ctx = SweepCtx {
                tok_doc: &tok_doc,
                tok_word: &tok_word,
                tok_weight: &tok_weight,
                n_kw: &n_kw,
                n_k: &n_k,
                k,
                m,
                alpha,
                beta,
                beta_sum,
                seed: self.cfg.seed,
                sweep,
                chunk_base: span_lo / DOC_CHUNK,
                kind,
                alias: alias_tables.as_ref(),
            };
            let stride = delta_stride(kind, k, m);
            let n_chunks = hlm_par::chunk_count(docs.len(), DOC_CHUNK);
            let mut delta_buf = vec![0.0f64; n_chunks * stride];
            let mut views = build_views(
                &mut tok_z,
                n_dk,
                &mut delta_buf,
                &doc_start,
                docs.len(),
                k,
                stride,
            );
            hlm_par::par_for_each_scratch(
                &pool,
                sweep_budget(shard_tokens, k, kind),
                &mut views,
                || SweepScratch::new(k, m, kind),
                |scratch, c, view| sweep_chunk(scratch, &ctx, c, view),
            );
            for view in &views {
                sweep_mh_proposed += view.mh_proposed;
                sweep_mh_accepted += view.mh_accepted;
            }
            drop(views);
            for chunk_delta in delta_buf.chunks_exact(stride) {
                merge_chunk_delta(kind, chunk_delta, acc_kw.as_mut_slice(), &mut acc_k, k, m);
            }

            let alpha_sweep =
                self.cfg.optimize_alpha && (sweep as usize) < self.cfg.burn_in && sweep % 10 == 9;
            if alpha_sweep {
                // The shard's doc-topic rows are final for this sweep, so
                // the Minka sums accumulate shard by shard in global
                // document order — the order the in-memory update uses.
                minka_alpha_accumulate(
                    alpha,
                    k,
                    n_dk.chunks_exact(k),
                    &mut minka_num,
                    &mut minka_den,
                );
            }

            self.write_spill(s, sweep + 1, &tok_z, n_dk, k)?;

            if s == n_shards - 1 {
                // Sweep end: publish the merged tables and run the
                // end-of-sweep bookkeeping exactly as the in-memory sampler
                // does.
                n_kw.copy_from(&acc_kw);
                n_k.copy_from_slice(&acc_k);
                if alpha_sweep {
                    alpha = minka_alpha_finish(alpha, k, minka_num, minka_den);
                }
                let iter = sweep as usize;
                let past_burn_in = iter >= self.cfg.burn_in;
                let on_lag =
                    (iter - self.cfg.burn_in.min(iter)).is_multiple_of(self.cfg.sample_lag);
                if past_burn_in && on_lag {
                    for (t, &nk) in n_k.iter().enumerate().take(k) {
                        let phi_row = &mut phi_acc.as_mut_slice()[t * m..(t + 1) * m];
                        accumulate_phi_row(phi_row, n_kw.row(t), nk, beta, beta_sum);
                    }
                    n_samples += 1;
                }
                if kind == SamplerChoice::AliasMh {
                    rec.add("lda.mh.proposed", sweep_mh_proposed);
                    rec.add("lda.mh.accepted", sweep_mh_accepted);
                    if rec.is_enabled() && sweep_mh_proposed > 0 {
                        rec.trace(
                            "lda.mh.acceptance_rate",
                            sweep,
                            sweep_mh_accepted as f64 / sweep_mh_proposed as f64,
                        );
                    }
                }
                if let Some(t0) = sweep_t0 {
                    rec.observe("lda.gibbs.sweep_seconds", t0.elapsed().as_secs_f64());
                    rec.add("lda.gibbs.sweeps", 1);
                    rec.trace(
                        "lda.gibbs.log_likelihood",
                        sweep,
                        gibbs_log_likelihood(&n_kw, &n_k, beta),
                    );
                }
                ctrl.check_metric(sweep, "topic mass", n_k.iter().sum())?;
            } else if let Some(t0) = sweep_t0 {
                rec.observe("lda.gibbs.shard_seconds", t0.elapsed().as_secs_f64());
            }

            ctrl.checkpoint(step + 1, || {
                encode_state(&ShardedGibbsState {
                    step: step + 1,
                    n_shards: n_shards as u64,
                    n_docs: n_docs as u64,
                    alpha,
                    n_kw: n_kw.clone(),
                    n_k: n_k.clone(),
                    acc_kw: acc_kw.clone(),
                    acc_k: acc_k.clone(),
                    minka_num,
                    minka_den,
                    phi_acc: phi_acc.clone(),
                    n_samples,
                })
            });
            if ctrl.saves() > saves_seen {
                saves_seen = ctrl.saves();
                last_ckpt_step = step + 1;
                have_ckpt = true;
            }
            // Prune spill versions no resume-from-latest-checkpoint can
            // need any more.
            let keep = if have_ckpt {
                expected_version(last_ckpt_step, n_shards, s)
            } else {
                sweep + 1
            };
            for v in retained_lo[s]..keep {
                let _ = std::fs::remove_file(self.spill_path(s, v));
            }
            retained_lo[s] = retained_lo[s].max(keep);
        }

        assert!(
            n_samples > 0,
            "no phi samples collected; check burn_in / n_iters"
        );
        phi_acc.scale_mut(1.0 / n_samples as f64);
        phi_acc.normalize_rows();
        Ok(LdaModel::new(phi_acc, alpha, beta))
    }

    /// Materializes a model directly from a checkpoint — the rollback path.
    /// Fails if the checkpoint predates burn-in (no phi samples yet).
    pub fn model_from_checkpoint(&self, ckpt: &Checkpoint) -> Result<LdaModel, ResilienceError> {
        if ckpt.kind != SHARDED_GIBBS_CHECKPOINT_KIND {
            return Err(ResilienceError::Mismatch {
                reason: format!("kind {} != {SHARDED_GIBBS_CHECKPOINT_KIND}", ckpt.kind),
            });
        }
        let state: ShardedGibbsState = parse_payload(&ckpt.payload)?;
        if state.n_samples == 0 {
            return Err(ResilienceError::Mismatch {
                reason: "checkpoint predates burn-in: no phi samples collected".to_string(),
            });
        }
        let mut phi = state.phi_acc;
        phi.scale_mut(1.0 / state.n_samples as f64);
        phi.normalize_rows();
        Ok(LdaModel::new(phi, state.alpha, self.cfg.beta))
    }

    fn spill_path(&self, shard: usize, version: u64) -> PathBuf {
        self.work_dir
            .join(format!("gibbs_shard_{shard:05}_v{version}.bin"))
    }

    /// Removes every spill file this trainer could have written.
    fn clear_spills(&self) -> Result<(), ResilienceError> {
        let entries = std::fs::read_dir(&self.work_dir)
            .map_err(|e| ResilienceError::io("read work dir", e))?;
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
        &self,
        shard: usize,
        version: u64,
        tok_z: &[u16],
        n_dk: &[f64],
        k: usize,
    ) -> Result<(), ResilienceError> {
        let rec = hlm_obs::global();
        let t0 = rec.is_enabled().then(std::time::Instant::now);
        let bytes = encode_spill(shard, version, tok_z, n_dk, k);
        let path = self.spill_path(shard, version);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes).map_err(|e| ResilienceError::io("write spill", e))?;
        std::fs::rename(&tmp, &path).map_err(|e| ResilienceError::io("commit spill", e))?;
        if let Some(t0) = t0 {
            rec.add("lda.spill.bytes_written", bytes.len() as u64);
            rec.observe("lda.spill_seconds", t0.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Reads a shard's spill at an exact version into `tok_z` and the dense
    /// doc-topic block `n_dk` (`docs.len() × k`, overwritten in full),
    /// verifying the checksum, the format and that the shapes match the
    /// freshly loaded documents.
    fn read_spill_into(
        &self,
        shard: usize,
        version: u64,
        docs: &[WeightedDoc],
        k: usize,
        tok_z: &mut Vec<u16>,
        n_dk: &mut [f64],
    ) -> Result<(), ResilienceError> {
        let rec = hlm_obs::global();
        let t0 = rec.is_enabled().then(std::time::Instant::now);
        let path = self.spill_path(shard, version);
        let bytes = std::fs::read(&path).map_err(|e| ResilienceError::io("read spill", e))?;
        let n_tokens = docs.iter().map(Vec::len).sum();
        decode_spill(&bytes, shard, version, n_tokens, k, tok_z, n_dk).map_err(|what| {
            ResilienceError::corrupt(format!("spill {}: {what}", path.display()))
        })?;
        if let Some(t0) = t0 {
            rec.add("lda.spill.bytes_read", bytes.len() as u64);
            rec.observe("lda.spill_seconds", t0.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// [`read_spill_into`](Self::read_spill_into) into fresh buffers.
    #[cfg(test)]
    fn read_spill(
        &self,
        shard: usize,
        version: u64,
        docs: &[WeightedDoc],
        k: usize,
    ) -> Result<(Vec<u16>, Vec<f64>), ResilienceError> {
        let mut tok_z = Vec::new();
        let mut n_dk = vec![0.0; docs.len() * k];
        self.read_spill_into(shard, version, docs, k, &mut tok_z, &mut n_dk)?;
        Ok((tok_z, n_dk))
    }
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

/// Decodes a v2 spill written by [`encode_spill`] into `tok_z` and `n_dk`
/// (`n_docs × k`, overwritten in full), checking the trailer, the magic,
/// the header against the expected shard, version and shape, and every row
/// structurally. Returns what is wrong instead of panicking on any input.
fn decode_spill(
    bytes: &[u8],
    shard: usize,
    version: u64,
    n_tokens: usize,
    k: usize,
    tok_z: &mut Vec<u16>,
    n_dk: &mut [f64],
) -> Result<(), &'static str> {
    if bytes.len() < SPILL_HEADER + 8 {
        return Err("truncated");
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    if fnv1a(body) != le_u64(trailer) {
        return Err("checksum mismatch");
    }
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

fn validate_docs(docs: &[WeightedDoc], m: usize) {
    for doc in docs {
        for &(w, weight) in doc {
            assert!(w < m, "word {w} outside vocabulary of {m}");
            assert!(
                weight.is_finite() && weight > 0.0,
                "token weight must be positive, got {weight}"
            );
        }
    }
}

fn encode_state(state: &ShardedGibbsState) -> Vec<u8> {
    serde_json::to_string(state)
        .expect("sharded gibbs state serializes")
        .into_bytes()
}

fn parse_payload(payload: &[u8]) -> Result<ShardedGibbsState, ResilienceError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ResilienceError::corrupt("sharded gibbs payload is not UTF-8"))?;
    serde_json::from_str(text)
        .map_err(|e| ResilienceError::corrupt(format!("sharded gibbs payload does not parse: {e}")))
}

fn decode_state(
    ckpt: &Checkpoint,
    n_docs: usize,
    n_shards: usize,
    k: usize,
    m: usize,
) -> Result<ShardedGibbsState, ResilienceError> {
    if ckpt.kind != SHARDED_GIBBS_CHECKPOINT_KIND {
        return Err(ResilienceError::Mismatch {
            reason: format!("kind {} != {SHARDED_GIBBS_CHECKPOINT_KIND}", ckpt.kind),
        });
    }
    let state = parse_payload(&ckpt.payload)?;
    if state.n_docs != n_docs as u64 || state.n_shards != n_shards as u64 {
        return Err(ResilienceError::Mismatch {
            reason: format!(
                "checkpoint is for {} docs in {} shards, source has {n_docs} in {n_shards}",
                state.n_docs, state.n_shards
            ),
        });
    }
    if state.n_kw.rows() != k
        || state.n_kw.cols() != m
        || state.acc_kw.rows() != k
        || state.acc_kw.cols() != m
        || state.n_k.len() != k
        || state.acc_k.len() != k
        || state.phi_acc.rows() != k
        || state.phi_acc.cols() != m
    {
        return Err(ResilienceError::Mismatch {
            reason: "checkpoint count-table shapes do not match the configuration".to_string(),
        });
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::GibbsTrainer;
    use crate::unit_weights;
    use hlm_resilience::{CheckpointStore, MemIo, RunGuard};

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
            let trainer = ShardedGibbsTrainer::new(cfg(2, 7), &dir);
            let model = trainer.fit(&MemDocShards::new(&docs, n_shards));
            assert_eq!(model.phi(), full.phi(), "n_shards={n_shards}");
            assert_eq!(model.alpha(), full.alpha(), "n_shards={n_shards}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn sharded_sparse_sampler_and_weighted_tokens_match_in_memory() {
        // k > 16 exercises the SparseLDA bucket path; fractional weights
        // exercise the residue clamps.
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
        let model = ShardedGibbsTrainer::new(c, &dir).fit(&MemDocShards::new(&docs, 3));
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
        let trainer = ShardedGibbsTrainer::new(c, &dir);
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        // Abort mid-sweep: step 90 is sweep 22 (past burn-in), shard 2 of 4.
        let abort_step = 22 * n_shards as u64 + 2;
        let mut ctrl = TrainControl::new(SHARDED_GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(abort_step));
        let err = trainer.fit_resumable(&source, &mut ctrl, None).unwrap_err();
        assert!(err.is_interruption());

        let ckpt = store
            .latest_good(SHARDED_GIBBS_CHECKPOINT_KIND)
            .unwrap()
            .unwrap();
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
        let trainer = ShardedGibbsTrainer::new(c, &dir);
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(SHARDED_GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(9));
        trainer.fit_resumable(&source, &mut ctrl, None).unwrap_err();
        let ckpt = store
            .latest_good(SHARDED_GIBBS_CHECKPOINT_KIND)
            .unwrap()
            .unwrap();

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
        let trainer = ShardedGibbsTrainer::new(cfg(2, 5), &dir);
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
        let trainer = ShardedGibbsTrainer::new(cfg(2, 9), &dir);
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
        decode_spill(bytes, 3, 7, n_tokens, k, &mut tok_z, &mut n_dk)?;
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
        let trainer = ShardedGibbsTrainer::new(cfg(4, 1), &dir);
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
        let trainer = ShardedGibbsTrainer::new(cfg(2, 13), &dir);
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(SHARDED_GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(9));
        trainer.fit_resumable(&source, &mut ctrl, None).unwrap_err();
        let ckpt = store
            .latest_good(SHARDED_GIBBS_CHECKPOINT_KIND)
            .unwrap()
            .unwrap();
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
}
