//! `query-scan-200k`: one in-process caller scanning the exact f64 store
//! with keys that never repeat, so the serving cache never hits and the
//! scan and top-k dominate.

use std::time::{Duration, Instant};

use hlm_core::representations::{binary_docs, lda_representations};
use hlm_core::similarity::DistanceMetric;
use hlm_core::{CompanyFilter, SalesApplication};
use hlm_corpus::{CompanyId, Split};
use hlm_datagen::{generate, GeneratorConfig};
use hlm_engine::{fit_lda_resilient, Engine, LdaEstimator, TrainPlan};
use hlm_lda::{document_completion_perplexity, SamplerChoice};
use hlm_linalg::Matrix;
use serde::Value;

use crate::report::Record;
use crate::stats::{mean, median, quantile, SplitMix64};
use crate::trace::{busy_share, set_recorder, ObsReadout};
use crate::train::lda_config;
use crate::Ctx;

const COMPANIES: usize = 200_000;
const TOPICS: usize = 16;
const SWEEPS: usize = 30;
const SETUPS: usize = 2;
const K: usize = 10;
const BATCH: usize = 16;
/// Single calls per round of the fixed mix (then one 16-query similar batch
/// and one 16-query whitespace batch).
const SINGLES_PER_ROUND: usize = 16;
/// Every n-th single query is kept for the recall check.
const RECALL_EVERY: usize = 16;

struct Served {
    app: SalesApplication,
    fit_s: f64,
    perplexity: f64,
}

fn setup(seed: u64) -> Result<Served, String> {
    let corpus = generate(&GeneratorConfig::with_size_and_seed(COMPANIES, seed));
    let split = Split::paper(&corpus, seed);
    let train = binary_docs(&corpus, &split.train);
    let test = binary_docs(&corpus, &split.test);
    let config = lda_config(TOPICS, SWEEPS, seed, SamplerChoice::Auto);
    let t0 = Instant::now();
    let fit = fit_lda_resilient(config, LdaEstimator::Gibbs, &train, TrainPlan::new())
        .map_err(|e| format!("fit: {e}"))?;
    let fit_s = t0.elapsed().as_secs_f64();
    let perplexity = document_completion_perplexity(&fit.model, &test);
    let all: Vec<CompanyId> = corpus.ids().collect();
    let reps = lda_representations(&fit.model, &binary_docs(&corpus, &all));
    let app = Engine::new(corpus)
        .sales_app(reps, DistanceMetric::Cosine)
        .map_err(|e| format!("sales app: {e}"))?;
    Ok(Served {
        app,
        fit_s,
        perplexity,
    })
}

/// What one phase of the call mix measured.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    call_s: f64,
    queries: usize,
    single_us: Vec<f64>,
    batch_us_per_q: Vec<f64>,
    whitespace_us_per_q: Vec<f64>,
    /// `(query, returned ids)` kept for the recall check.
    kept: Vec<(usize, Vec<usize>)>,
    errors: u64,
    calls: u64,
}

fn run_mix(
    app: &SalesApplication,
    keys: &mut impl Iterator<Item = u32>,
    budget: Duration,
) -> Phase {
    let filter = CompanyFilter::default();
    let mut ph = Phase::default();
    let t0 = Instant::now();
    'outer: while t0.elapsed() < budget {
        for i in 0..SINGLES_PER_ROUND {
            let Some(q) = keys.next() else { break 'outer };
            let c0 = Instant::now();
            let got = app.find_similar(CompanyId(q), K, &filter);
            let took = c0.elapsed().as_secs_f64();
            ph.calls += 1;
            ph.call_s += took;
            ph.single_us.push(took * 1e6);
            match got {
                Ok(r) => {
                    ph.queries += 1;
                    if i % RECALL_EVERY == 0 {
                        ph.kept
                            .push((q as usize, r.iter().map(|s| s.id.index()).collect()));
                    }
                }
                Err(_) => ph.errors += 1,
            }
        }
        let batch: Vec<CompanyId> = keys.by_ref().take(BATCH).map(CompanyId).collect();
        let whitespace: Vec<CompanyId> = keys.by_ref().take(BATCH).map(CompanyId).collect();
        if whitespace.len() < BATCH {
            break;
        }
        let c0 = Instant::now();
        let got = app.find_similar_batch(&batch, K, &filter);
        let took = c0.elapsed().as_secs_f64();
        ph.calls += 1;
        ph.call_s += took;
        ph.batch_us_per_q.push(took * 1e6 / BATCH as f64);
        match got {
            Ok(r) => {
                ph.queries += BATCH;
                ph.kept.push((
                    batch[0].index(),
                    r[0].iter().map(|s| s.id.index()).collect(),
                ));
            }
            Err(_) => ph.errors += 1,
        }
        let c0 = Instant::now();
        let got = app.recommend_whitespace_batch(&whitespace, K, &filter);
        let took = c0.elapsed().as_secs_f64();
        ph.calls += 1;
        ph.call_s += took;
        ph.whitespace_us_per_q.push(took * 1e6 / BATCH as f64);
        match got {
            Ok(_) => ph.queries += BATCH,
            Err(_) => ph.errors += 1,
        }
    }
    ph.wall_s = t0.elapsed().as_secs_f64();
    ph
}

/// Cosine distance as the store defines it: `1 − clamp(cos)`, and 1.0 when
/// either vector is zero.
fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
}

/// Top-10 recall of `got` for row `q` against a brute-force scan of
/// `reps`. A returned row counts when its true distance is within the true
/// 10th-nearest distance (plus rounding slack), so exact ties at the
/// boundary cannot make a correct answer look wrong.
pub fn recall_at_10(reps: &Matrix, q: usize, got: &[usize]) -> f64 {
    let query = reps.row(q);
    let mut dist: Vec<(f64, usize)> = (0..reps.rows())
        .filter(|&r| r != q)
        .map(|r| (cosine_distance(query, reps.row(r)), r))
        .collect();
    let want = K.min(dist.len());
    if want == 0 {
        return 1.0;
    }
    dist.select_nth_unstable_by(want - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let kth = dist[want - 1].0;
    let hits = got
        .iter()
        .take(want)
        .filter(|&&r| {
            r != q && r < reps.rows() && cosine_distance(query, reps.row(r)) <= kth + 1e-12
        })
        .count();
    hits as f64 / want as f64
}

pub fn run(ctx: &Ctx, rec: &mut Record) {
    let mut setups = Vec::new();
    let mut fits = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so two never coexist in memory.
        drop(served.take());
        let (made, secs) = ctx.spans.time("setup", None, || setup(ctx.seed));
        match made {
            Ok(s) => {
                fits.push(s.fit_s);
                served = Some(s);
            }
            Err(e) => {
                rec.check("setup", false, e);
                return;
            }
        }
        setups.push(secs);
    }
    let served = served.expect("at least one set-up");
    rec.set("setup_s", median(&setups));
    rec.set("train_s", median(&fits));
    rec.set("heldout_perplexity", served.perplexity);
    rec.check(
        "perplexity_finite",
        served.perplexity.is_finite() && served.perplexity > 1.0,
        format!("{}", served.perplexity),
    );
    rec.info(
        "inputs",
        Value::Map(vec![
            ("companies".into(), Value::U64(COMPANIES as u64)),
            ("topics".into(), Value::U64(TOPICS as u64)),
            ("sweeps".into(), Value::U64(SWEEPS as u64)),
            ("store".into(), Value::Str("flat f64 cosine".into())),
            (
                "mix".into(),
                Value::Str(format!(
                    "{SINGLES_PER_ROUND} single + 1 batch{BATCH} similar + 1 batch{BATCH} whitespace, k={K}"
                )),
            ),
        ]),
    );

    // Uniform keys without repetition: one seeded permutation, consumed in
    // order across both phases.
    let perm = SplitMix64::new(ctx.seed ^ 0x5155_4552_5900_0000).permutation(COMPANIES);
    let mut keys = perm.into_iter();
    let phases: &[bool] = if ctx.traced { &[false, true] } else { &[false] };
    let phase_budget = ctx.budget / phases.len() as u32;
    let mut results: Vec<Phase> = Vec::new();
    let mut obs = None;
    for &traced in phases {
        set_recorder(traced);
        let id = ctx.spans.open("query.mix", None);
        results.push(run_mix(&served.app, &mut keys, phase_budget));
        ctx.spans.close(id);
        if traced {
            obs = Some(ObsReadout::take());
        }
        set_recorder(false);
    }

    let reps = served.app.representations();
    let mut recalls = Vec::new();
    for ph in &results {
        for (q, got) in &ph.kept {
            recalls.push(recall_at_10(reps, *q, got));
        }
    }
    let recall = mean(&recalls);
    rec.check(
        "recall_at_10_exact",
        !recalls.is_empty() && recall >= 1.0,
        format!(
            "{recall} over {} queries against a brute-force scan",
            recalls.len()
        ),
    );

    let plain = &results[0];
    rec.attempted = results.iter().map(|p| p.calls).sum();
    rec.failed = results.iter().map(|p| p.errors).sum();
    let qps = plain.queries as f64 / plain.wall_s;
    rec.set("p50_ms", quantile(&plain.single_us, 0.5) / 1e3);
    rec.set("p90_ms", quantile(&plain.single_us, 0.9) / 1e3);
    rec.set("p99_ms", quantile(&plain.single_us, 0.99) / 1e3);
    rec.set("ops_per_s", qps);
    rec.set("queries_per_s", qps);
    rec.set("query_p50_us", quantile(&plain.single_us, 0.5));
    rec.set("query_p99_us", quantile(&plain.single_us, 0.99));
    rec.set("recall_at_10", recall);
    rec.info(
        "calls",
        Value::Map(vec![
            ("single".into(), Value::U64(plain.single_us.len() as u64)),
            (
                "batch16".into(),
                Value::U64(plain.batch_us_per_q.len() as u64),
            ),
            (
                "whitespace16".into(),
                Value::U64(plain.whitespace_us_per_q.len() as u64),
            ),
        ]),
    );

    let (Some(obs), Some(traced)) = (obs, results.get(1)) else {
        return;
    };
    rec.set("core.single_us_p50", median(&traced.single_us));
    rec.set("core.batch16_us_per_query", median(&traced.batch_us_per_q));
    rec.set(
        "core.whitespace16_us_per_query",
        median(&traced.whitespace_us_per_q),
    );
    let hits = obs.counter("serve.cache_hit") as f64;
    let misses = obs.counter("serve.cache_miss") as f64;
    rec.set(
        "core.cache_hit_share",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    rec.set("par.busy_share", busy_share(&obs, traced.call_s));
    rec.set("stages.sum_share", traced.call_s / traced.wall_s);
    let traced_qps = traced.queries as f64 / traced.wall_s;
    rec.set("obs.trace_overhead_share", qps / traced_qps - 1.0);
}
