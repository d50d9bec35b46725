//! Metric names, the run record, and its output.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

/// End-to-end metrics: every plain run reports all of them. Each has a
/// definition on every workload (see `layers.json`). Latency percentiles
/// are per-layer: on a shared 2-thread host they do not repeat within any
/// bound a gate could use (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_s", "s"),
    ("heldout_perplexity", "ppl"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics: every traced run reports all of them; a layer that
/// does no work on a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("p99_ms", "ms"),
    ("corpus.load_s", "s"),
    ("corpus.prep_s", "s"),
    ("corpus.shard_read_s", "s"),
    ("corpus.shard_reads", "count"),
    ("engine.fit_s", "s"),
    ("lda.step_ms_p50", "ms"),
    ("lda.step_ms_p99", "ms"),
    ("lda.eval_s", "s"),
    ("lda.fit_residual_s", "s"),
    ("lda.mh_accept_share", "ratio"),
    ("resilience.ckpt_write_s", "s"),
    ("resilience.ckpt_writes", "count"),
    ("resilience.ckpt_mb", "MiB"),
    ("par.busy_share", "ratio"),
    ("core.bundle_build_s", "s"),
    ("core.single_us_p50", "us"),
    ("core.batch16_us_per_query", "us"),
    ("core.whitespace16_us_per_query", "us"),
    ("core.cache_hit_share", "ratio"),
    ("serve.similar_p99_ms", "ms"),
    ("serve.whitespace_p99_ms", "ms"),
    ("serve.recommend_p99_ms", "ms"),
    ("serve.swap_window_p99_ms", "ms"),
    ("serve.client_mean_ms", "ms"),
    ("serve.worker_mean_ms", "ms"),
    ("serve.outside_worker_mean_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.offered_share", "ratio"),
    ("max_rps", "req/s"),
    ("swap_ms", "ms"),
    ("queries_per_s", "q/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("recall_at_10", "ratio"),
    ("stages.sum_share", "ratio"),
    ("obs.trace_overhead_share", "ratio"),
];

/// One named correctness check.
struct Check {
    name: String,
    ok: bool,
    detail: String,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Record {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    checks: Vec<Check>,
    info: Vec<(String, Value)>,
}

impl Record {
    /// Sets a metric; `name` must be one of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a correctness check; any failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Attaches a descriptive field (inputs, reconciliation, …) to the
    /// written record.
    pub fn info(&mut self, key: &str, value: Value) {
        self.info.push((key.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The metrics a run prints: the end-to-end set for a plain run, the
    /// per-layer set for a traced one. A per-layer metric left unset is a
    /// layer that did no work (0); an unset or non-finite end-to-end metric
    /// fails the run.
    fn reported(&mut self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut out = Vec::new();
        let mut problems = Vec::new();
        for &(name, unit) in set {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    problems.push(format!("{name} is not finite"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    problems.push(format!("{name} was not measured"));
                    0.0
                }
            };
            out.push((name, unit, value));
        }
        self.check("metrics_complete", problems.is_empty(), problems.join("; "));
        out
    }

    /// Prints the human-readable summary to stderr, writes the full record
    /// to `record_path`, and prints the one-line result as the last line of
    /// stdout. Returns whether the run was correct.
    pub fn emit(mut self, traced: bool, header: Value, spans: Value, record_path: &Path) -> bool {
        let reported = self.reported(traced);
        for c in &self.checks {
            eprintln!(
                "check {:<28} {} {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        for (name, unit, value) in &reported {
            eprintln!("{name:<34} {value:>16.6} {unit}");
        }
        let metric_map = |names: &[(&'static str, &'static str, f64)]| {
            Value::Map(
                names
                    .iter()
                    .map(|&(name, unit, value)| {
                        (
                            name.to_string(),
                            Value::Map(vec![
                                ("value".into(), Value::F64(value)),
                                ("unit".into(), Value::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let correct = self.correct();
        let result = Value::Map(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), metric_map(&reported)),
        ]);

        let all: Vec<(&'static str, &'static str, f64)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|&(n, u)| self.metrics.get(n).map(|&v| (n, u, v)))
            .collect();
        let mut full = match header {
            Value::Map(fields) => fields,
            other => vec![("header".into(), other)],
        };
        full.append(&mut self.info);
        full.push((
            "checks".into(),
            Value::Seq(
                self.checks
                    .iter()
                    .map(|c| {
                        Value::Map(vec![
                            ("name".into(), Value::Str(c.name.clone())),
                            ("ok".into(), Value::Bool(c.ok)),
                            ("detail".into(), Value::Str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
        full.push(("all_metrics".into(), metric_map(&all)));
        full.push(("result".into(), result.clone()));
        full.push(("spans".into(), spans));
        let written = record_path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| {
                std::fs::write(
                    record_path,
                    serde_json::to_string(&Value::Map(full)).expect("record serializes"),
                )
            });
        if let Err(e) = written {
            eprintln!("warning: could not write {}: {e}", record_path.display());
        }
        println!(
            "{}",
            serde_json::to_string(&result).expect("result serializes")
        );
        correct
    }
}
