//! `serve-http-zipf`: an in-process `hlm_serve::Server` under open-loop
//! HTTP load with Zipf-distributed company keys and a hot swap every two
//! seconds.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hlm_core::representations::binary_docs;
use hlm_core::similarity::DistanceMetric;
use hlm_corpus::{Corpus, Split};
use hlm_datagen::{generate, GeneratorConfig};
use hlm_engine::{fit_lda_resilient, Engine, LdaEstimator, ServeOptions, TrainPlan};
use hlm_lda::{document_completion_perplexity, LdaModel, SamplerChoice};
use hlm_serve::{bundle_from_model, BundleLoader, Server, ServerConfig, ServerHandle};
use serde::Value;

use crate::loadgen::{run_phase, Kind, Limits, Outcome, Pace, PhaseResult, Planned, SwapOutcome};
use crate::report::Record;
use crate::stats::{mean, median, quantile, SplitMix64, Zipf};
use crate::trace::{busy_share, set_recorder, ObsReadout};
use crate::train::lda_config;
use crate::Ctx;

const COMPANIES: usize = 20_000;
const TOPICS: usize = 5;
const SWEEPS: usize = 200;
const SETUPS: usize = 3;
const K: usize = 10;
const TOP: usize = 5;
/// Nominal offered rate for `p50_ms`/`p99_ms`.
const NOMINAL_RPS: f64 = 2_500.0;
/// The fixed ladder `max_rps` climbs.
const LADDER_RPS: &[f64] = &[2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0];
/// Sub-windows per rung; a rung's p99 is their median.
const RUNG_WINDOWS: u32 = 3;
/// One cycle is a nominal-rate window (`p50_ms` and `p99_ms` are medians
/// over them) and a saturated burst (`ops_per_s` pools them).
const WINDOW: Duration = Duration::from_millis(400);
const BURST: Duration = Duration::from_millis(250);
/// Requests in flight per connection in a burst, and the plan rate that
/// keeps that pipeline full.
const SATURATION_DEPTH: usize = 32;
const SATURATION_PLAN_RPS: f64 = 40_000.0;
/// How the load budget is shared out: cycles, reads beside swaps, and the
/// ladder.
const CYCLE_SHARE: f64 = 0.65;
const SWAP_SHARE: f64 = 0.27;
const LADDER_SHARE: f64 = 0.08;
/// Latency limit on p99 for a ladder rung to pass.
const SLO_P99_MS: f64 = 5.0;
const SWAP_EVERY: Duration = Duration::from_secs(2);
const WARMUP: Duration = Duration::from_millis(500);
/// A stretch is generator-saturated when the client sent the typical
/// request more than this late: a generator that cannot keep up falls
/// further behind with every request. Its p99 lag and offered share are
/// reported but do not decide, since on a shared host one stall delays
/// client and server threads alike.
const MAX_LAG_P50_MS: f64 = 1.0;
/// How long a phase may overrun its schedule before unanswered requests
/// count as failed.
const GRACE: Duration = Duration::from_secs(3);

struct Setup {
    handle: ServerHandle,
    corpus: Arc<Corpus>,
    fit_s: f64,
    perplexity: f64,
    /// Seconds each hot-swap candidate took to build inside the loader.
    builds: Arc<Mutex<Vec<f64>>>,
}

fn fit(train: &[Vec<(usize, f64)>], seed: u64) -> Result<LdaModel, String> {
    let config = lda_config(TOPICS, SWEEPS, seed, SamplerChoice::Auto);
    fit_lda_resilient(config, LdaEstimator::Gibbs, train, TrainPlan::new())
        .map(|f| f.model)
        .map_err(|e| format!("fit: {e}"))
}

fn setup(seed: u64) -> Result<Setup, String> {
    let corpus = generate(&GeneratorConfig::with_size_and_seed(COMPANIES, seed));
    let split = Split::paper(&corpus, seed);
    let train = binary_docs(&corpus, &split.train);
    let test = binary_docs(&corpus, &split.test);
    let t0 = Instant::now();
    let serving = fit(&train, seed)?;
    let fit_s = t0.elapsed().as_secs_f64();
    let perplexity = document_completion_perplexity(&serving, &test);
    // The swap candidate is fitted up front; the loader only builds its
    // serving bundle (representations, RepStore, fresh cache generation).
    let candidate = fit(&train, seed.wrapping_add(1))?;

    let engine = Arc::new(Engine::new(corpus));
    let bundle = bundle_from_model(
        &engine,
        serving,
        0,
        DistanceMetric::Cosine,
        ServeOptions::default(),
    )?;
    let builds = Arc::new(Mutex::new(Vec::new()));
    let loader: BundleLoader = {
        let engine = Arc::clone(&engine);
        let builds = Arc::clone(&builds);
        Box::new(move || {
            let t0 = Instant::now();
            let b = bundle_from_model(
                &engine,
                candidate.clone(),
                0,
                DistanceMetric::Cosine,
                ServeOptions::default(),
            );
            builds
                .lock()
                .expect("build log lock")
                .push(t0.elapsed().as_secs_f64());
            b
        })
    };
    let config = ServerConfig {
        workers: 2,
        // Keep-alive connections carry a whole run's pipelined requests.
        max_requests_per_conn: usize::MAX,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Arc::clone(&engine), bundle, Some(loader))
        .map_err(|e| format!("bind: {e}"))?;
    Ok(Setup {
        handle: server.start(),
        corpus: engine.corpus_arc(),
        fit_s,
        perplexity,
        builds,
    })
}

/// Deterministic request stream: Zipf(1) company keys and a 50/25/25
/// similar/whitespace/recommend mix, all from the run seed.
struct Requests {
    zipf: Zipf,
    mix: SplitMix64,
    corpus: Arc<Corpus>,
}

impl Requests {
    fn plan(&mut self, rps: f64, length: Duration) -> Vec<Planned> {
        let n = (rps * length.as_secs_f64()).round() as usize;
        (0..n)
            .map(|i| {
                let company = self.zipf.next_key();
                let u = self.mix.next_f64();
                let (kind, target) = if u < 0.5 {
                    (
                        Kind::Similar,
                        format!("/v1/similar?company={company}&k={K}"),
                    )
                } else if u < 0.75 {
                    (
                        Kind::Whitespace,
                        format!("/v1/whitespace?company={company}&k={K}"),
                    )
                } else {
                    let history: Vec<String> = self
                        .corpus
                        .company(hlm_corpus::CompanyId(company))
                        .product_set()
                        .iter()
                        .map(|p| p.index().to_string())
                        .collect();
                    let history = if history.is_empty() {
                        "0".into()
                    } else {
                        history.join(",")
                    };
                    (
                        Kind::Recommend,
                        format!("/v1/recommend?history={history}&top={TOP}"),
                    )
                };
                Planned {
                    due: Duration::from_secs_f64(i as f64 / rps),
                    kind,
                    target,
                }
            })
            .collect()
    }
}

/// One constant-rate stretch of load, or one window of it.
struct Stretch {
    rps: f64,
    outcomes: Vec<Outcome>,
    swaps: Vec<SwapOutcome>,
    violations: Vec<String>,
}

impl Stretch {
    fn new(rps: f64, result: PhaseResult) -> Stretch {
        Stretch {
            rps,
            outcomes: result.outcomes,
            swaps: result.swaps,
            violations: result.violations,
        }
    }

    /// Consecutive windows of `len` by due time (requests only).
    fn windows(&self, len: Duration) -> Vec<Stretch> {
        let mut out: Vec<Stretch> = Vec::new();
        for o in &self.outcomes {
            let w = (o.due.as_secs_f64() / len.as_secs_f64()) as usize;
            while out.len() <= w {
                out.push(Stretch {
                    rps: self.rps,
                    outcomes: Vec::new(),
                    swaps: Vec::new(),
                    violations: Vec::new(),
                });
            }
            out[w].outcomes.push(o.clone());
        }
        out.retain(|w| !w.outcomes.is_empty());
        out
    }

    fn latencies_ms(&self, kind: Option<Kind>) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| kind.is_none_or(|k| o.kind == k))
            // A failed or refused request misses any latency limit.
            .map(|o| o.latency.map_or(f64::INFINITY, |l| l.as_secs_f64() * 1e3))
            .collect()
    }

    fn p(&self, q: f64) -> f64 {
        quantile(&self.latencies_ms(None), q)
    }

    fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.latency.is_none()).count()
    }

    fn lag_ms(&self, q: f64) -> f64 {
        let lags: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.lag.as_secs_f64() * 1e3)
            .collect();
        quantile(&lags, q)
    }

    /// The span the requests were due over divided by the span it took to
    /// send them: the offered rate as a share of the target rate.
    fn offered_share(&self) -> f64 {
        let first = self
            .outcomes
            .iter()
            .map(|o| o.due)
            .min()
            .unwrap_or_default();
        let last_due = self
            .outcomes
            .iter()
            .map(|o| o.due)
            .max()
            .unwrap_or_default();
        let last_sent = self
            .outcomes
            .iter()
            .map(|o| o.due + o.lag)
            .max()
            .unwrap_or_default();
        let sent_span = (last_sent - first).as_secs_f64();
        if sent_span <= 0.0 {
            return 1.0;
        }
        ((last_due - first).as_secs_f64() / sent_span).min(1.0)
    }

    /// The generator fell behind: it sent the typical request late.
    fn saturated(&self) -> bool {
        self.lag_ms(0.5) > MAX_LAG_P50_MS
    }
}

/// The median over windows of a per-window statistic, leaving out windows
/// in which the generator fell behind.
fn window_median(windows: &[Stretch], f: impl Fn(&Stretch) -> f64) -> f64 {
    let valid: Vec<f64> = windows.iter().filter(|w| !w.saturated()).map(f).collect();
    median(&valid)
}

/// One ladder rung, judged on the median of its sub-windows so a single
/// scheduling hiccup on the host cannot decide it.
struct Rung {
    stretch: Stretch,
    p99_ms: f64,
    saturated: bool,
    passes: bool,
}

impl Rung {
    fn judge(stretch: Stretch, length: Duration) -> Rung {
        let subs = stretch.windows(length / RUNG_WINDOWS);
        let p99_ms = median(&subs.iter().map(|w| w.p(0.99)).collect::<Vec<_>>());
        let saturated = 2 * subs.iter().filter(|w| w.saturated()).count() > subs.len();
        // No growing backlog: the last window is answered within the limit
        // at its median too.
        let backlog_ok = subs.last().is_some_and(|w| w.p(0.5) <= SLO_P99_MS);
        Rung {
            passes: p99_ms <= SLO_P99_MS && backlog_ok,
            stretch,
            p99_ms,
            saturated,
        }
    }
}

/// Everything one phase (plain or traced) of the run measured.
struct Phase {
    warmup: Stretch,
    /// Reads alone at the nominal rate, one stretch per cycle.
    windows: Vec<Stretch>,
    /// Closed-loop bursts at `SATURATION_DEPTH` requests in flight per
    /// connection, one per cycle.
    bursts: Vec<Stretch>,
    /// Answered requests per second over all bursts.
    saturation_rps: f64,
    /// `(count, seconds)` the server's `serve.e2e_seconds` histogram grew
    /// by during the windows.
    worker: (u64, f64),
    /// Reads at the nominal rate with a swap in every swap period.
    swapping: Stretch,
    ladder: Vec<Rung>,
    max_rps: f64,
    censored: bool,
}

impl Phase {
    fn stretches(&self) -> impl Iterator<Item = &Stretch> {
        std::iter::once(&self.warmup)
            .chain(&self.windows)
            .chain(&self.bursts)
            .chain(std::iter::once(&self.swapping))
            .chain(self.ladder.iter().map(|r| &r.stretch))
    }

    /// All nominal-rate windows as one stretch.
    fn nominal(&self) -> Stretch {
        Stretch {
            rps: NOMINAL_RPS,
            outcomes: self
                .windows
                .iter()
                .flat_map(|w| w.outcomes.clone())
                .collect(),
            swaps: Vec::new(),
            violations: Vec::new(),
        }
    }
}

fn run_load(
    addr: SocketAddr,
    reqs: &mut Requests,
    budget: Duration,
    limits: Limits,
) -> Result<Phase, String> {
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stretch = |reqs: &mut Requests, rps: f64, length: Duration, swapping: bool, pace: Pace| {
        let plan = reqs.plan(rps, length);
        let swaps: Vec<Duration> = (0..)
            .map(|i| SWAP_EVERY / 2 + SWAP_EVERY * i)
            .take_while(|t| swapping && *t < length)
            .collect();
        run_phase(addr, conns, &plan, &swaps, pace, limits, GRACE)
            .map(|result| Stretch::new(rps, result))
            .map_err(|e| format!("load generator: {e}"))
    };
    let warmup = stretch(reqs, NOMINAL_RPS, WARMUP, false, Pace::Open)?;
    // Short cycles of a nominal-rate window and a saturated burst, each on
    // fresh connections (so fresh server threads): the medians and pooled
    // rates then average over thread placement and host hiccups instead of
    // resting on one stretch.
    let cycle = WINDOW + BURST;
    let n_cycles = ((budget.as_secs_f64() * CYCLE_SHARE) / cycle.as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let mut windows = Vec::with_capacity(n_cycles);
    let mut bursts = Vec::with_capacity(n_cycles);
    // The server's enqueue-to-answer histogram over the windows alone
    // (zero unless the recorder is on), for the traced reconciliation.
    let mut worker = (0, 0.0);
    for _ in 0..n_cycles {
        let before = ObsReadout::take().histogram("serve.e2e_seconds");
        windows.push(stretch(reqs, NOMINAL_RPS, WINDOW, false, Pace::Open)?);
        let after = ObsReadout::take().histogram("serve.e2e_seconds");
        worker.0 += after.0 - before.0;
        worker.1 += after.1 - before.1;
        let closed = Pace::Closed {
            depth: SATURATION_DEPTH,
            until: BURST,
        };
        bursts.push(stretch(reqs, SATURATION_PLAN_RPS, BURST, false, closed)?);
    }
    let answered: usize = bursts
        .iter()
        .map(|b| b.outcomes.iter().filter(|o| o.latency.is_some()).count())
        .sum();
    let saturation_rps = answered as f64 / (BURST.as_secs_f64() * n_cycles as f64);
    // Swaps get their own stretch: each holds a core for longer than the
    // latency limit, so they would decide every percentile they share a
    // window with.
    let n_swaps = ((budget.as_secs_f64() * SWAP_SHARE) / SWAP_EVERY.as_secs_f64())
        .floor()
        .max(1.0) as u32;
    let swapping = stretch(reqs, NOMINAL_RPS, SWAP_EVERY * n_swaps, true, Pace::Open)?;

    let rung_len = budget.mul_f64(LADDER_SHARE) / LADDER_RPS.len() as u32;
    let mut ladder: Vec<Rung> = Vec::new();
    for &rps in LADDER_RPS {
        let rung = Rung::judge(stretch(reqs, rps, rung_len, false, Pace::Open)?, rung_len);
        let stop = rung.saturated || !rung.passes;
        ladder.push(rung);
        if stop {
            break;
        }
    }
    let passed = ladder
        .iter()
        .take_while(|r| !r.saturated && r.passes)
        .count();
    // The client, not the server, was the limit when the climb ended on a
    // saturated rung or never failed: the result is then a lower bound.
    let above = ladder.get(passed).filter(|r| !r.saturated);
    let censored = above.is_none();
    let max_rps = match (passed.checked_sub(1).map(|i| &ladder[i]), above) {
        // Interpolate where p99 crosses the limit between the last passing
        // rung and the first failing one.
        (Some(last), Some(next)) if next.p99_ms.is_finite() => {
            let frac = ((SLO_P99_MS - last.p99_ms) / (next.p99_ms - last.p99_ms)).clamp(0.0, 1.0);
            last.stretch.rps + frac * (next.stretch.rps - last.stretch.rps)
        }
        (Some(last), _) => last.stretch.rps,
        // Even the lowest rung failed: scale it down by how far it missed.
        (None, _) => ladder[0].stretch.rps * (SLO_P99_MS / ladder[0].p99_ms).min(1.0),
    };
    Ok(Phase {
        warmup,
        windows,
        bursts,
        saturation_rps,
        worker,
        swapping,
        ladder,
        max_rps,
        censored,
    })
}

pub fn run(ctx: &Ctx, rec: &mut Record) {
    let mut setups = Vec::new();
    let mut fits = Vec::new();
    let mut current: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = current.take() {
            old.handle.shutdown();
        }
        let (made, secs) = ctx.spans.time("setup", None, || setup(ctx.seed));
        match made {
            Ok(s) => {
                fits.push(s.fit_s);
                current = Some(s);
            }
            Err(e) => {
                rec.check("setup", false, e);
                return;
            }
        }
        setups.push(secs);
    }
    let s = current.expect("at least one set-up");
    rec.set("setup_s", median(&setups));
    rec.set("train_s", median(&fits));
    rec.set("heldout_perplexity", s.perplexity);
    rec.check(
        "perplexity_finite",
        s.perplexity.is_finite() && s.perplexity > 1.0,
        format!("{}", s.perplexity),
    );
    let limits = Limits {
        companies: s.corpus.len() as u64,
        products: s.corpus.vocab().len() as u64,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rec.info(
        "inputs",
        Value::Map(vec![
            ("companies".into(), Value::U64(COMPANIES as u64)),
            ("topics".into(), Value::U64(TOPICS as u64)),
            ("sweeps".into(), Value::U64(SWEEPS as u64)),
            ("workers".into(), Value::U64(2)),
            ("connections".into(), Value::U64(nproc as u64)),
            ("nominal_rps".into(), Value::F64(NOMINAL_RPS)),
            (
                "ladder_rps".into(),
                Value::Seq(LADDER_RPS.iter().map(|&r| Value::F64(r)).collect()),
            ),
            ("slo_p99_ms".into(), Value::F64(SLO_P99_MS)),
            (
                "mix".into(),
                Value::Str("50% similar, 25% whitespace, 25% recommend; Zipf(1) keys".into()),
            ),
            ("swap_every_s".into(), Value::F64(SWAP_EVERY.as_secs_f64())),
        ]),
    );

    let mut reqs = Requests {
        zipf: Zipf::new(COMPANIES, 1.0, ctx.seed),
        mix: SplitMix64::new(ctx.seed ^ 0x4d49_5800),
        corpus: Arc::clone(&s.corpus),
    };
    let phases: &[bool] = if ctx.traced { &[false, true] } else { &[false] };
    let phase_budget = ctx.budget / phases.len() as u32;
    let mut results = Vec::new();
    let mut obs = None;
    for &traced in phases {
        set_recorder(traced);
        let id = ctx.spans.open("serve.load", None);
        let t0 = Instant::now();
        let phase = run_load(s.handle.addr(), &mut reqs, phase_budget, limits);
        let wall = t0.elapsed().as_secs_f64();
        ctx.spans.close(id);
        if traced {
            obs = Some((ObsReadout::take(), wall));
        }
        set_recorder(false);
        match phase {
            Ok(p) => results.push(p),
            Err(e) => {
                rec.check("load", false, e);
                break;
            }
        }
    }
    let builds = s.builds.lock().expect("build log lock").clone();
    s.handle.shutdown();
    let Some(plain) = results.first() else {
        return;
    };

    let all_stretches = || results.iter().flat_map(Phase::stretches);
    let violations: Vec<&String> = all_stretches().flat_map(|st| &st.violations).collect();
    rec.check(
        "responses_valid",
        violations.is_empty(),
        violations
            .iter()
            .take(3)
            .map(|v| v.as_str())
            .collect::<Vec<_>>()
            .join("; "),
    );
    let swaps: Vec<&SwapOutcome> = all_stretches().flat_map(|st| &st.swaps).collect();
    rec.check(
        "swaps_bump_generation",
        !swaps.is_empty() && swaps.iter().all(|sw| sw.generation.is_some()),
        format!("{} swaps", swaps.len()),
    );
    let swap_ms: Vec<f64> = swaps
        .iter()
        .map(|sw| sw.round_trip.as_secs_f64() * 1e3)
        .collect();
    // A window in which the generator fell behind is not a server number;
    // the run is invalid if most windows are like that.
    let on_time = plain.windows.iter().filter(|w| !w.saturated()).count();
    rec.check(
        "generator_on_time",
        2 * on_time > plain.windows.len(),
        format!(
            "{on_time} of {} nominal windows on time; lag p99 {:.3} ms, offered {:.4} of {NOMINAL_RPS} req/s",
            plain.windows.len(),
            plain.nominal().lag_ms(0.99),
            plain.nominal().offered_share(),
        ),
    );
    // Ladder rungs past the limit may fail requests by design; every other
    // request and swap must succeed.
    let counted: Vec<&Stretch> = plain
        .windows
        .iter()
        .chain(&plain.bursts)
        .chain([&plain.swapping])
        .collect();
    rec.attempted = counted
        .iter()
        .map(|st| st.outcomes.len() + st.swaps.len())
        .sum::<usize>() as u64;
    rec.failed = counted
        .iter()
        .map(|st| st.failed() + st.swaps.iter().filter(|sw| sw.generation.is_none()).count())
        .sum::<usize>() as u64;
    for (name, q) in [("p50_ms", 0.5), ("p90_ms", 0.9), ("p99_ms", 0.99)] {
        rec.set(name, finite(window_median(&plain.windows, |w| w.p(q))));
    }
    rec.set("ops_per_s", plain.saturation_rps);
    rec.set("max_rps", plain.max_rps);
    rec.set("swap_ms", median(&swap_ms));
    rec.info(
        "ladder",
        Value::Seq(
            results
                .iter()
                .flat_map(|p| &p.ladder)
                .map(|r| {
                    let st = &r.stretch;
                    Value::Map(vec![
                        ("rps".into(), Value::F64(st.rps)),
                        ("p50_ms".into(), Value::F64(finite(st.p(0.5)))),
                        ("p99_ms".into(), Value::F64(finite(r.p99_ms))),
                        ("lag_p99_ms".into(), Value::F64(st.lag_ms(0.99))),
                        ("offered_share".into(), Value::F64(st.offered_share())),
                        ("failed".into(), Value::U64(st.failed() as u64)),
                        ("meets_slo".into(), Value::Bool(r.passes)),
                        ("generator_saturated".into(), Value::Bool(r.saturated)),
                    ])
                })
                .collect(),
        ),
    );
    rec.info("max_rps_censored", Value::Bool(plain.censored));
    rec.info(
        "cycles",
        Value::Seq(
            plain
                .windows
                .iter()
                .zip(&plain.bursts)
                .map(|(w, b)| {
                    let answered = b.outcomes.iter().filter(|o| o.latency.is_some()).count();
                    Value::Map(vec![
                        ("p50_ms".into(), Value::F64(finite(w.p(0.5)))),
                        ("p90_ms".into(), Value::F64(finite(w.p(0.9)))),
                        ("p99_ms".into(), Value::F64(finite(w.p(0.99)))),
                        ("lag_p50_ms".into(), Value::F64(w.lag_ms(0.5))),
                        (
                            "burst_rps".into(),
                            Value::F64(answered as f64 / BURST.as_secs_f64()),
                        ),
                    ])
                })
                .collect(),
        ),
    );

    let (Some((obs, wall)), Some(traced)) = (obs, results.get(1)) else {
        return;
    };
    let t_nominal = &traced.nominal();
    let p99_of = |kind| finite(quantile(&t_nominal.latencies_ms(Some(kind)), 0.99));
    rec.set("serve.similar_p99_ms", p99_of(Kind::Similar));
    rec.set("serve.whitespace_p99_ms", p99_of(Kind::Whitespace));
    rec.set("serve.recommend_p99_ms", p99_of(Kind::Recommend));
    rec.set("serve.swap_window_p99_ms", finite(traced.swapping.p(0.99)));
    // Client time from send to answer over the answered requests of the
    // traced nominal windows, against the server's enqueue-to-answer
    // histogram over the same windows.
    let from_send: Vec<f64> = t_nominal
        .outcomes
        .iter()
        .filter_map(|o| {
            o.latency
                .map(|l| (l.saturating_sub(o.lag)).as_secs_f64() * 1e3)
        })
        .collect();
    let client_mean = mean(&from_send);
    let (count, sum) = traced.worker;
    let worker_mean = if count > 0 {
        sum / count as f64 * 1e3
    } else {
        0.0
    };
    rec.set("serve.client_mean_ms", client_mean);
    rec.set("serve.worker_mean_ms", worker_mean);
    rec.set("serve.outside_worker_mean_ms", client_mean - worker_mean);
    rec.check(
        "serve_reconciles",
        count as usize == from_send.len() && worker_mean <= client_mean,
        format!(
            "{count} server answers for {} client answers; worker {worker_mean:.4} ms of client {client_mean:.4} ms",
            from_send.len()
        ),
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
    rec.set("serve.shed", obs.counter("serve.shed") as f64);
    rec.set(
        "serve.deadline_exceeded",
        obs.counter("serve.deadline_exceeded") as f64,
    );
    rec.set("loadgen.lag_ms_p99", t_nominal.lag_ms(0.99));
    rec.set("loadgen.offered_share", t_nominal.offered_share());
    rec.set("core.bundle_build_s", median(&builds));
    rec.set("par.busy_share", busy_share(&obs, wall));
    rec.set(
        "obs.trace_overhead_share",
        window_median(&traced.windows, |w| w.p(0.5)) / window_median(&plain.windows, |w| w.p(0.5))
            - 1.0,
    );
}

/// Infinite percentiles (a stretch with failures past the quantile) are
/// written as the largest finite number so the record stays valid JSON.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}
