//! The two training workloads: `train-k3-inmem` (the paper's operating
//! point through CSV, the dense kernel and the RepStore build) and
//! `train-k128-sharded` (out of core: shard decode, alias-MH sampling,
//! spills and per-step checkpoints).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hlm_core::representations::{binary_docs, lda_representations};
use hlm_core::similarity::DistanceMetric;
use hlm_core::CompanyFilter;
use hlm_corpus::io::{from_csv, to_csv};
use hlm_corpus::{CompanyId, CorpusSource, ShardStore, Split, Vocabulary};
use hlm_datagen::{generate, generate_sharded, GeneratorConfig};
use hlm_engine::{
    fit_lda_resilient, fit_lda_sharded_gibbs, CheckpointStore, Engine, LdaEstimator, RunGuard,
    TrainPlan,
};
use hlm_lda::{document_completion_perplexity, LdaConfig, SamplerChoice, WeightedDoc};
use hlm_resilience::FsIo;
use serde::Value;

use crate::report::Record;
use crate::stats::{median, quantile};
use crate::trace::{
    busy_share, set_recorder, IoStats, ObsReadout, StepClock, TimedIo, TimedSource,
};
use crate::Ctx;

const INMEM_COMPANIES: usize = 100_000;
const INMEM_TOPICS: usize = 3;
const INMEM_SWEEPS: usize = 200;

const SHARDED_COMPANIES: usize = 50_000;
const SHARDED_SHARDS: usize = 8;
const SHARDED_TOPICS: usize = 128;
const SHARDED_SWEEPS: usize = 20;
/// Held-out companies for the sharded model's perplexity, generated from a
/// different seed so none of them is in the shards.
const SHARDED_HELDOUT: usize = 5_000;

/// Set-ups per run; `setup_s` is their median. The sharded set-up is
/// short, so it repeats more often to steady its median.
const INMEM_SETUPS: usize = 3;
const SHARDED_SETUPS: usize = 5;
/// Jobs per plain run at least (the budget may fit more), so the
/// determinism check has a pair and step percentiles have samples.
const MIN_REPS: usize = 2;
/// A guard deadline no run reaches: it only makes the guard read the
/// benchmark's clock at every iteration boundary.
const FAR_DEADLINE_MS: u64 = 30 * 24 * 3600 * 1000;

pub fn lda_config(topics: usize, sweeps: usize, seed: u64, sampler: SamplerChoice) -> LdaConfig {
    LdaConfig {
        n_topics: topics,
        vocab_size: Vocabulary::standard().len(),
        n_iters: sweeps,
        burn_in: sweeps / 2,
        sample_lag: 5,
        seed,
        sampler,
        ..Default::default()
    }
}

/// One timed job: corpus on disk → model → perplexity (→ sales app).
#[derive(Default)]
struct JobOut {
    train_s: f64,
    /// `(stage, seconds)` in job order; their sum reconciles with `train_s`.
    stages: Vec<(&'static str, f64)>,
    fit_s: f64,
    steps_ms: Vec<f64>,
    perplexity: f64,
    tokens: usize,
    shard_reads: u64,
    shard_read_s: f64,
    ckpt_writes: u64,
    ckpt_write_s: f64,
    ckpt_bytes: u64,
}

fn guard(clock: &StepClock) -> RunGuard {
    RunGuard::unlimited()
        .with_clock(Box::new(clock.clone()))
        .with_deadline_millis(FAR_DEADLINE_MS)
}

/// Runs `job` repeatedly for the run's budget (half of it plain and half
/// traced when tracing) and fills in the record.
fn measure(
    ctx: &Ctx,
    rec: &mut Record,
    sweeps: usize,
    mut job: impl FnMut(&Ctx, bool) -> Result<JobOut, String>,
) {
    let phases: &[bool] = if ctx.traced { &[false, true] } else { &[false] };
    let phase_budget = ctx.budget / phases.len() as u32;
    let mut outs: [Vec<JobOut>; 2] = [Vec::new(), Vec::new()];
    let mut obs = None;
    for &traced in phases {
        set_recorder(traced);
        let min_reps = if ctx.traced { 1 } else { MIN_REPS };
        let t0 = Instant::now();
        while outs[traced as usize].len() < min_reps || t0.elapsed() < phase_budget {
            rec.attempted += 1;
            match job(ctx, traced) {
                Ok(out) => outs[traced as usize].push(out),
                Err(e) => {
                    rec.failed += 1;
                    rec.check("job", false, e);
                    break;
                }
            }
        }
        if traced {
            obs = Some(ObsReadout::take());
        }
        set_recorder(false);
    }

    let [plain, traced] = outs;
    let Some(first) = plain.first() else {
        return;
    };
    let pick =
        |outs: &[JobOut], f: fn(&JobOut) -> f64| median(&outs.iter().map(f).collect::<Vec<_>>());
    let train_s = pick(&plain, |o| o.train_s);
    let fit_s = pick(&plain, |o| o.fit_s);
    let steps: Vec<f64> = plain
        .iter()
        .flat_map(|o| o.steps_ms.iter().copied())
        .collect();
    rec.set("train_s", train_s);
    rec.set("heldout_perplexity", first.perplexity);
    rec.set("p50_ms", quantile(&steps, 0.5));
    rec.set("p90_ms", quantile(&steps, 0.9));
    rec.set("p99_ms", quantile(&steps, 0.99));
    rec.set("ops_per_s", (first.tokens * sweeps) as f64 / fit_s);

    let ppl_bits: Vec<u64> = plain
        .iter()
        .chain(&traced)
        .map(|o| o.perplexity.to_bits())
        .collect();
    rec.check(
        "perplexity_finite",
        first.perplexity.is_finite() && first.perplexity > 1.0,
        format!("{}", first.perplexity),
    );
    rec.check(
        "perplexity_bit_identical",
        ppl_bits.len() >= 2 && ppl_bits.iter().all(|&b| b == ppl_bits[0]),
        format!("{} fits of one seed, traced and plain", ppl_bits.len()),
    );
    rec.info(
        "jobs_train_s",
        Value::Map(vec![
            (
                "plain".into(),
                Value::Seq(plain.iter().map(|o| Value::F64(o.train_s)).collect()),
            ),
            (
                "traced".into(),
                Value::Seq(traced.iter().map(|o| Value::F64(o.train_s)).collect()),
            ),
        ]),
    );

    let (Some(obs), false) = (obs, traced.is_empty()) else {
        return;
    };
    let t_train = pick(&traced, |o| o.train_s);
    let t_fit = pick(&traced, |o| o.fit_s);
    let stage = |name: &str| {
        median(
            &traced
                .iter()
                .map(|o| {
                    o.stages
                        .iter()
                        .filter(|(n, _)| *n == name)
                        .map(|(_, s)| s)
                        .sum::<f64>()
                })
                .collect::<Vec<_>>(),
        )
    };
    let stage_names: Vec<&str> = traced[0].stages.iter().map(|(n, _)| *n).collect();
    let stage_sum: f64 = stage_names.iter().map(|n| stage(n)).sum();
    let t_steps: Vec<f64> = traced
        .iter()
        .flat_map(|o| o.steps_ms.iter().copied())
        .collect();
    let shard_read_s = pick(&traced, |o| o.shard_read_s);
    let ckpt_write_s = pick(&traced, |o| o.ckpt_write_s);
    rec.set("corpus.load_s", stage("corpus.load"));
    rec.set("corpus.prep_s", stage("corpus.prep"));
    rec.set("corpus.shard_read_s", shard_read_s);
    rec.set(
        "corpus.shard_reads",
        pick(&traced, |o| o.shard_reads as f64),
    );
    rec.set("engine.fit_s", t_fit);
    rec.set("lda.step_ms_p50", quantile(&t_steps, 0.5));
    rec.set("lda.step_ms_p99", quantile(&t_steps, 0.99));
    rec.set("lda.eval_s", stage("lda.eval"));
    rec.set("lda.fit_residual_s", t_fit - shard_read_s - ckpt_write_s);
    let proposed = obs.counter("lda.mh.proposed");
    rec.set(
        "lda.mh_accept_share",
        if proposed > 0 {
            obs.counter("lda.mh.accepted") as f64 / proposed as f64
        } else {
            0.0
        },
    );
    rec.set("resilience.ckpt_write_s", ckpt_write_s);
    rec.set(
        "resilience.ckpt_writes",
        pick(&traced, |o| o.ckpt_writes as f64),
    );
    rec.set(
        "resilience.ckpt_mb",
        pick(&traced, |o| o.ckpt_bytes as f64) / (1024.0 * 1024.0),
    );
    let fit_wall: f64 = traced.iter().map(|o| o.fit_s).sum();
    rec.set("par.busy_share", busy_share(&obs, fit_wall));
    rec.set("core.bundle_build_s", stage("core.bundle_build"));
    rec.set("stages.sum_share", stage_sum / t_train);
    rec.set("obs.trace_overhead_share", (t_train - train_s) / train_s);
    rec.check(
        "stages_reconcile",
        (stage_sum / t_train - 1.0).abs() <= 0.10,
        format!("stages sum to {stage_sum:.4}s of train_s {t_train:.4}s"),
    );
    rec.info(
        "reconciliation",
        Value::Map(
            stage_names
                .iter()
                .map(|n| (n.to_string(), Value::F64(stage(n))))
                .chain([("train_s".to_string(), Value::F64(t_train))])
                .collect(),
        ),
    );
}

/// Times `f` and records it as a span under `parent` and as a stage.
fn stage<T>(
    ctx: &Ctx,
    out: &mut JobOut,
    parent: usize,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let (v, secs) = ctx.spans.time(name, Some(parent), f);
    out.stages.push((name, secs));
    v
}

// ---------------------------------------------------------------------------
// train-k3-inmem
// ---------------------------------------------------------------------------

pub fn run_inmem(ctx: &Ctx, rec: &mut Record) {
    let dir = ctx.work.join("csv");
    let mut setups = Vec::new();
    for _ in 0..INMEM_SETUPS {
        let (written, secs) = ctx.spans.time("setup", None, || write_csv(ctx.seed, &dir));
        if let Err(e) = written {
            rec.check("setup", false, e);
            return;
        }
        setups.push(secs);
    }
    rec.set("setup_s", median(&setups));
    rec.info(
        "inputs",
        Value::Map(vec![
            ("companies".into(), Value::U64(INMEM_COMPANIES as u64)),
            ("topics".into(), Value::U64(INMEM_TOPICS as u64)),
            ("sweeps".into(), Value::U64(INMEM_SWEEPS as u64)),
            ("sampler".into(), Value::Str("auto".into())),
            ("split".into(), Value::Str("paper 70/10/20".into())),
        ]),
    );
    measure(ctx, rec, INMEM_SWEEPS, |ctx, _traced| job_inmem(ctx, &dir));
}

fn write_csv(seed: u64, dir: &Path) -> Result<(), String> {
    let corpus = generate(&GeneratorConfig::with_size_and_seed(INMEM_COMPANIES, seed));
    let (companies, events) = to_csv(&corpus);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("companies.csv"), companies).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("events.csv"), events).map_err(|e| e.to_string())
}

fn job_inmem(ctx: &Ctx, dir: &Path) -> Result<JobOut, String> {
    let mut out = JobOut::default();
    let t_job = Instant::now();
    let root = ctx.spans.open("train.job", None);
    let corpus = stage(ctx, &mut out, root, "corpus.load", || {
        let companies = std::fs::read_to_string(dir.join("companies.csv"))?;
        let events = std::fs::read_to_string(dir.join("events.csv"))?;
        from_csv(Vocabulary::standard(), &companies, &events)
            .map_err(|e| std::io::Error::other(e.to_string()))
    })
    .map_err(|e| format!("load: {e}"))?;
    let (train, test, all) = stage(ctx, &mut out, root, "corpus.prep", || {
        let split = Split::paper(&corpus, ctx.seed);
        let all: Vec<CompanyId> = corpus.ids().collect();
        (
            binary_docs(&corpus, &split.train),
            binary_docs(&corpus, &split.test),
            binary_docs(&corpus, &all),
        )
    });
    out.tokens = train.iter().map(Vec::len).sum();

    let clock = StepClock::new();
    let config = lda_config(INMEM_TOPICS, INMEM_SWEEPS, ctx.seed, SamplerChoice::Auto);
    let plan = TrainPlan::new().with_guard(guard(&clock));
    let t_fit = Instant::now();
    let fit = stage(ctx, &mut out, root, "engine.fit", || {
        fit_lda_resilient(config, LdaEstimator::Gibbs, &train, plan)
    })
    .map_err(|e| format!("fit: {e}"))?;
    let fit_end = Instant::now();
    out.fit_s = (fit_end - t_fit).as_secs_f64();
    out.steps_ms = clock.step_millis(fit_end);
    let model = fit.model;

    out.perplexity = stage(ctx, &mut out, root, "lda.eval", || {
        document_completion_perplexity(&model, &test)
    });
    let app = stage(ctx, &mut out, root, "core.bundle_build", || {
        let reps = lda_representations(&model, &all);
        Engine::new(corpus).sales_app(reps, DistanceMetric::Cosine)
    })
    .map_err(|e| format!("sales app: {e}"))?;
    let t_end = Instant::now();
    out.train_s = (t_end - t_job).as_secs_f64();
    ctx.spans.close(root);

    let probe = app
        .find_similar(CompanyId(0), 10, &CompanyFilter::default())
        .map_err(|e| format!("probe: {e}"))?;
    if probe.len() != 10 {
        return Err(format!(
            "sales app probe returned {} neighbours",
            probe.len()
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// train-k128-sharded
// ---------------------------------------------------------------------------

pub fn run_sharded(ctx: &Ctx, rec: &mut Record) {
    let shards = ctx.work.join("shards");
    let mut setups = Vec::new();
    let mut heldout: Vec<WeightedDoc> = Vec::new();
    for _ in 0..SHARDED_SETUPS {
        let (made, secs) = ctx.spans.time("setup", None, || -> Result<_, String> {
            let _ = std::fs::remove_dir_all(&shards);
            let cfg = GeneratorConfig::with_size_and_seed(SHARDED_COMPANIES, ctx.seed);
            generate_sharded(&cfg, SHARDED_SHARDS, &shards).map_err(|e| e.to_string())?;
            let held = generate(&GeneratorConfig::with_size_and_seed(
                SHARDED_HELDOUT,
                ctx.seed ^ 0x4845_4c44_4f55_5400,
            ));
            let ids: Vec<CompanyId> = held.ids().collect();
            Ok(binary_docs(&held, &ids))
        });
        match made {
            Ok(docs) => heldout = docs,
            Err(e) => {
                rec.check("setup", false, e);
                return;
            }
        }
        setups.push(secs);
    }
    rec.set("setup_s", median(&setups));
    rec.info(
        "inputs",
        Value::Map(vec![
            ("companies".into(), Value::U64(SHARDED_COMPANIES as u64)),
            ("shards".into(), Value::U64(SHARDED_SHARDS as u64)),
            (
                "heldout_companies".into(),
                Value::U64(SHARDED_HELDOUT as u64),
            ),
            ("topics".into(), Value::U64(SHARDED_TOPICS as u64)),
            ("sweeps".into(), Value::U64(SHARDED_SWEEPS as u64)),
            ("sampler".into(), Value::Str("alias".into())),
            ("checkpoint_every".into(), Value::U64(1)),
        ]),
    );
    measure(ctx, rec, SHARDED_SWEEPS, |ctx, traced| {
        let ckpt = ctx.work.join("ckpt");
        let spills = ctx.work.join("spills");
        let out = job_sharded(ctx, traced, &shards, &ckpt, &spills, &heldout);
        let _ = std::fs::remove_dir_all(&ckpt);
        let _ = std::fs::remove_dir_all(&spills);
        out
    });
}

fn job_sharded(
    ctx: &Ctx,
    traced: bool,
    shards: &Path,
    ckpt: &Path,
    spills: &Path,
    heldout: &[WeightedDoc],
) -> Result<JobOut, String> {
    let mut out = JobOut::default();
    let reads = Arc::new(IoStats::default());
    let writes = Arc::new(IoStats::default());
    let t_job = Instant::now();
    let root = ctx.spans.open("train.job", None);
    let store = stage(ctx, &mut out, root, "corpus.load", || {
        ShardStore::open(shards)
    })
    .map_err(|e| format!("open shards: {e}"))?;
    out.tokens = store.total_tokens();

    let clock = StepClock::new();
    let config = lda_config(
        SHARDED_TOPICS,
        SHARDED_SWEEPS,
        ctx.seed,
        SamplerChoice::AliasMh,
    );
    let checkpoints = if traced {
        let io = FsIo::new(PathBuf::from(ckpt)).map_err(|e| e.to_string())?;
        CheckpointStore::new(Box::new(TimedIo {
            inner: io,
            stats: Arc::clone(&writes),
        }))
    } else {
        CheckpointStore::on_disk(ckpt).map_err(|e| e.to_string())?
    };
    let plan = TrainPlan::new()
        .with_store(checkpoints)
        .with_guard(guard(&clock));
    let timed = TimedSource {
        inner: &store,
        stats: Arc::clone(&reads),
    };
    let source: &dyn CorpusSource = if traced { &timed } else { &store };
    let t_fit = Instant::now();
    let fit = stage(ctx, &mut out, root, "engine.fit", || {
        fit_lda_sharded_gibbs(config, source, spills, plan)
    })
    .map_err(|e| format!("fit: {e}"))?;
    let fit_end = Instant::now();
    out.fit_s = (fit_end - t_fit).as_secs_f64();
    out.steps_ms = clock.step_millis(fit_end);
    if fit.checkpoints_written == 0 {
        return Err("sharded fit wrote no checkpoints".into());
    }
    let model = fit.model;
    out.perplexity = stage(ctx, &mut out, root, "lda.eval", || {
        document_completion_perplexity(&model, heldout)
    });
    let t_end = Instant::now();
    out.train_s = (t_end - t_job).as_secs_f64();
    ctx.spans.close(root);
    out.shard_reads = reads.calls();
    out.shard_read_s = reads.seconds();
    out.ckpt_writes = writes.calls();
    out.ckpt_write_s = writes.seconds();
    out.ckpt_bytes = writes.bytes();
    Ok(out)
}
