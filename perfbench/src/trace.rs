//! Measurement from outside the program: timing wrappers over the public
//! seams (`CorpusSource`, `CheckpointIo`, `Clock`) and the benchmark's own
//! span log. Nothing here changes what the wrapped calls compute.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hlm_corpus::{Company, CorpusSource, Vocabulary};
use hlm_resilience::{CheckpointIo, Clock, ResilienceError};
use serde::Value;

/// Call count, busy time and bytes moved through one wrapped seam.
#[derive(Default)]
pub struct IoStats {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
}

impl IoStats {
    fn record(&self, took: Duration, bytes: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// A [`CorpusSource`] that times every shard decode of the source it wraps.
pub struct TimedSource<'a, S: CorpusSource + ?Sized> {
    pub inner: &'a S,
    pub stats: Arc<IoStats>,
}

impl<S: CorpusSource + ?Sized> CorpusSource for TimedSource<'_, S> {
    fn vocab(&self) -> &Vocabulary {
        self.inner.vocab()
    }

    fn n_companies(&self) -> usize {
        self.inner.n_companies()
    }

    fn n_shards(&self) -> usize {
        self.inner.n_shards()
    }

    fn shard_span(&self, s: usize) -> (usize, usize) {
        self.inner.shard_span(s)
    }

    fn shard(&self, s: usize) -> Cow<'_, [Company]> {
        let t0 = Instant::now();
        let companies = self.inner.shard(s);
        self.stats.record(t0.elapsed(), 0);
        companies
    }

    fn total_tokens(&self) -> usize {
        self.inner.total_tokens()
    }
}

/// A [`CheckpointIo`] that times and sizes every checkpoint write.
pub struct TimedIo<I: CheckpointIo> {
    pub inner: I,
    pub stats: Arc<IoStats>,
}

impl<I: CheckpointIo> CheckpointIo for TimedIo<I> {
    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), ResilienceError> {
        let t0 = Instant::now();
        let out = self.inner.write(name, bytes);
        self.stats.record(t0.elapsed(), bytes.len());
        out
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, ResilienceError> {
        self.inner.read(name)
    }

    fn list(&self) -> Result<Vec<String>, ResilienceError> {
        self.inner.list()
    }
}

/// A [`Clock`] for `RunGuard` that notes the instant of every read. The
/// guard reads its clock once per iteration boundary (a sweep in memory, a
/// shard step when sharded) when a deadline is set, so the gaps between
/// reads are the trainer's step times.
#[derive(Clone)]
pub struct StepClock {
    start: Instant,
    marks: Arc<Mutex<Vec<Instant>>>,
}

impl StepClock {
    pub fn new() -> Self {
        StepClock {
            start: Instant::now(),
            marks: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Step durations in milliseconds: the gaps between consecutive
    /// boundaries, the last one closed by `end`.
    pub fn step_millis(&self, end: Instant) -> Vec<f64> {
        let mut marks = self.marks.lock().expect("step clock lock").clone();
        marks.push(end);
        marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect()
    }
}

impl Clock for StepClock {
    fn elapsed_millis(&self) -> u64 {
        let now = Instant::now();
        self.marks.lock().expect("step clock lock").push(now);
        (now - self.start).as_millis() as u64
    }
}

/// One benchmark-side span: a call into a layer, timed from outside.
struct SpanRecord {
    name: String,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// Spans recorded around calls into each layer, held in memory and written
/// with the run record. Disabled in plain runs: `time` still returns the
/// duration but records nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    records: Mutex<Vec<SpanRecord>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f`, returning its value and wall seconds, and records a span
    /// named `name` under `parent` when enabled.
    pub fn time<T>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, parent);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.close(id);
        (out, secs)
    }

    /// Starts a span and returns its id (a parent for spans opened before
    /// it is closed).
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let mut recs = self.records.lock().expect("span lock");
        let now = (Instant::now() - self.epoch).as_secs_f64() * 1e6;
        recs.push(SpanRecord {
            name: name.to_string(),
            parent,
            start_us: now,
            end_us: now,
        });
        recs.len() - 1
    }

    /// Ends the span `id`.
    pub fn close(&self, id: usize) {
        if !self.enabled {
            return;
        }
        let now = (Instant::now() - self.epoch).as_secs_f64() * 1e6;
        if let Some(s) = self.records.lock().expect("span lock").get_mut(id) {
            s.end_us = now;
        }
    }

    pub fn to_value(&self) -> Value {
        let recs = self.records.lock().expect("span lock");
        Value::Seq(
            recs.iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::Map(vec![
                        ("id".into(), Value::U64(id as u64)),
                        ("name".into(), Value::Str(s.name.clone())),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("start_us".into(), Value::F64(s.start_us)),
                        ("end_us".into(), Value::F64(s.end_us)),
                    ])
                })
                .collect(),
        )
    }
}

/// Counters and histogram sums read from the `hlm-obs` recorder snapshot
/// (zero when the recorder is off or the metric was never touched).
pub struct ObsReadout {
    snap: hlm_obs::Snapshot,
}

impl ObsReadout {
    pub fn take() -> Self {
        ObsReadout {
            snap: hlm_obs::global().snapshot(),
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.snap
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// `(count, sum)` of a histogram.
    pub fn histogram(&self, name: &str) -> (u64, f64) {
        self.snap
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map_or((0, 0.0), |(_, h)| (h.count, h.sum))
    }
}

/// Installs a fresh `hlm-obs` recorder (traced phase) or the no-op one
/// (plain phase).
pub fn set_recorder(enabled: bool) {
    hlm_obs::install(if enabled {
        hlm_obs::Recorder::enabled()
    } else {
        hlm_obs::Recorder::noop()
    });
}

/// `par.busy_share`: worker busy seconds from the recorder divided by
/// `threads × wall seconds` of the measured calls.
pub fn busy_share(obs: &ObsReadout, wall_seconds: f64) -> f64 {
    let (_, busy) = obs.histogram("par.worker_busy_seconds");
    let threads = hlm_par::effective_threads() as f64;
    if wall_seconds > 0.0 {
        busy / (threads * wall_seconds)
    } else {
        0.0
    }
}
