//! The observability contract (DESIGN.md §3.4): the recorder is a read-only
//! observer. Enabling it — at any thread count — must leave every model
//! output bit-identical, and the counter totals it collects must themselves
//! be deterministic across thread counts (they are a function of the work,
//! not of the schedule). Per-worker histograms (busy time, tasks per
//! worker, queue depth) and the pool-lifecycle counters
//! (`par.pool_spawned` / `par.pool_reused`, which depend on how many
//! workers earlier runs already left parked) are wall-clock/schedule
//! dependent by nature and are deliberately excluded from the cross-thread
//! equality.
//!
//! Also pins the JSONL event-log schema (version, record types, required
//! keys, bucket labels) so downstream consumers can rely on it, and checks
//! both sink formats never emit non-finite numbers.
//!
//! Everything lives in one test function: the thread override and the
//! recorder registry are process-global, and the default multi-threaded
//! test harness would otherwise race two tests' installs against each other.

use hlm_lda::document_completion_perplexity;
use hlm_tests::{quick_lda, quick_lda_config, test_corpus, test_split};
use serde::Value;

/// Field lookup on a parsed JSON object (the vendored `Value` keeps maps as
/// ordered pairs).
fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// LDA train + perplexity, summarized as raw bits so `==` is bit-identity.
fn workload(corpus: &hlm_corpus::Corpus, split: &hlm_corpus::Split) -> (Vec<u64>, u64) {
    let (model, _) = quick_lda(corpus, &split.train, 3);
    let test_docs = hlm_core::representations::binary_docs(corpus, &split.test);
    let phi: Vec<u64> = model.phi().as_slice().iter().map(|x| x.to_bits()).collect();
    let ppl = document_completion_perplexity(&model, &test_docs).to_bits();
    (phi, ppl)
}

#[test]
fn recorder_is_a_pure_observer_and_sinks_keep_their_schema() {
    let corpus = test_corpus(200, 71);
    let split = test_split(&corpus);

    // Engage the pool even on this deliberately small workload, so the
    // parallel paths are the ones being observed.
    hlm_par::set_par_threshold(Some(0));

    // Baseline: recorder disabled (the default no-op), serial run.
    hlm_engine::set_threads(1);
    let baseline = workload(&corpus, &split);

    // Recorder enabled at 1, 2 and 7 threads: outputs must stay bit-identical
    // to the instrumented-off baseline, and counter totals must agree across
    // thread counts.
    let mut counter_sets: Vec<Vec<(String, u64)>> = Vec::new();
    let mut last_snapshot = None;
    for threads in [1usize, 2, 7] {
        hlm_engine::set_threads(threads);
        assert_eq!(hlm_engine::effective_threads(), threads);
        hlm_obs::install(hlm_obs::Recorder::enabled());
        let out = workload(&corpus, &split);
        assert_eq!(
            out, baseline,
            "{threads}-thread run with recorder enabled differs from baseline"
        );
        let snap = hlm_obs::global().snapshot();
        counter_sets.push(
            snap.counters
                .iter()
                .filter(|(k, _)| !k.starts_with("par.pool_"))
                .cloned()
                .collect(),
        );
        last_snapshot = Some(snap);
    }
    // --- Spill I/O ------------------------------------------------------
    // The sharded trainer's spills are its main I/O. Every spill it reads
    // was written earlier in the fit, and the spills written but never read
    // are exactly the final versions left in the work dir, so the two byte
    // counters pair up to the byte.
    hlm_obs::install(hlm_obs::Recorder::enabled());
    let spill_dir = std::env::temp_dir().join(format!("hlm_obs_spills_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill_dir);
    let docs = hlm_core::representations::binary_docs(&corpus, &split.train);
    let shards = hlm_lda::MemDocShards::new(&docs, 2);
    hlm_lda::GibbsTrainer::with_spill_dir(quick_lda_config(3, corpus.vocab().len()), &spill_dir)
        .fit(&shards);
    let spill_snap = hlm_obs::global().snapshot();
    let spill_counter = |name: &str| -> u64 {
        spill_snap
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    };
    let written = spill_counter("lda.spill.bytes_written");
    let read = spill_counter("lda.spill.bytes_read");
    let left_on_disk: u64 = std::fs::read_dir(&spill_dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    std::fs::remove_dir_all(&spill_dir).unwrap();
    assert!(read > 0, "no spill reads recorded");
    assert_eq!(
        written,
        read + left_on_disk,
        "spill bytes written vs read + final spills on disk"
    );
    let spill_hist = spill_snap
        .histograms
        .iter()
        .find(|(k, _)| k == "lda.spill_seconds")
        .map(|(_, h)| h.count)
        .expect("lda.spill_seconds histogram missing");
    // One write per shard at init, then one read and one write per step.
    let n_shards = hlm_lda::DocShardSource::n_shards(&shards) as u64;
    assert_eq!(spill_hist, n_shards + 2 * 80 * n_shards);
    // Every sweep is timed whole and every shard step on its own, so the
    // shard steps nest inside the sweeps.
    let hist = |name: &str| {
        spill_snap
            .histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| (h.count, h.sum))
            .unwrap_or_else(|| panic!("{name} histogram missing"))
    };
    let (sweeps, sweep_sum) = hist("lda.gibbs.sweep_seconds");
    let (shard_steps, shard_sum) = hist("lda.gibbs.shard_seconds");
    assert_eq!(sweeps, 80, "one sweep observation per sweep");
    assert_eq!(shard_steps, 80 * n_shards, "one shard observation per step");
    // The sampling thread waits on the prefetch worker once per spilled
    // shard step, for that step's input.
    let (waits, _) = hist("lda.gibbs.prefetch_wait_seconds");
    assert_eq!(waits, 80 * n_shards, "one prefetch wait per shard step");
    assert!(
        sweep_sum >= shard_sum,
        "sweeps {sweep_sum}s must cover their shard steps {shard_sum}s"
    );

    // Restore globals for any later process reuse.
    hlm_obs::install(hlm_obs::Recorder::noop());
    hlm_engine::set_threads(0);
    hlm_par::set_par_threshold(None);

    // Counters are totals over the work done, not over the schedule: every
    // thread count must produce the same set with the same values
    // (pool-lifecycle counters excluded above — how many workers spawn vs.
    // get reused depends on what earlier dispatches left parked).
    assert_eq!(
        counter_sets[0], counter_sets[1],
        "counter totals differ between 1 and 2 threads"
    );
    assert_eq!(
        counter_sets[0], counter_sets[2],
        "counter totals differ between 1 and 7 threads"
    );
    let counter = |name: &str| -> u64 {
        counter_sets[0]
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing counter {name:?}"))
    };
    assert!(counter("par.runs") > 0);
    assert!(counter("par.tasks") > 0);
    assert_eq!(counter("lda.gibbs.sweeps"), 80);

    let snap = last_snapshot.expect("at least one snapshot");
    assert!(
        snap.traces
            .iter()
            .any(|t| t.name == "lda.gibbs.log_likelihood" && t.value.is_finite()),
        "per-sweep log-likelihood trace missing"
    );

    // --- JSONL golden schema -------------------------------------------
    let jsonl = snap.to_jsonl();
    hlm_obs::json::check_finite(&jsonl).expect("JSONL must contain only finite numbers");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(!lines.is_empty());
    let meta: Value = serde_json::from_str(lines[0]).expect("meta line is valid JSON");
    assert_eq!(get(&meta, "type").and_then(as_str), Some("meta"));
    assert_eq!(
        get(&meta, "schema").and_then(as_u64),
        Some(u64::from(hlm_obs::SCHEMA_VERSION))
    );
    for key in ["spans", "counters", "gauges", "histograms", "traces"] {
        assert!(
            get(&meta, key).and_then(as_u64).is_some(),
            "meta is missing {key:?}: {:?}",
            lines[0]
        );
    }
    for line in &lines[1..] {
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("invalid JSONL line {line:?}: {e}"));
        let kind = get(&v, "type").and_then(as_str).expect("record has a type");
        let required: &[&str] = match kind {
            "span" => &["seq", "path", "start_ms", "duration_ms"],
            "counter" => &["name", "value"],
            "gauge" => &["name", "value"],
            "histogram" => &["name", "count", "sum", "min", "max", "buckets"],
            "trace" => &["seq", "name", "iteration", "value"],
            other => panic!("unknown record type {other:?} in {line:?}"),
        };
        for key in required {
            match get(&v, key) {
                None | Some(Value::Null) => {
                    panic!("record {line:?} is missing or nulls {key:?}")
                }
                Some(_) => {}
            }
        }
        if kind == "histogram" {
            let Some(Value::Seq(buckets)) = get(&v, "buckets") else {
                panic!("buckets is not an array in {line:?}");
            };
            assert_eq!(buckets.len(), hlm_obs::BUCKET_BOUNDS.len() + 1);
            let le = |b: &Value| get(b, "le").and_then(as_str).map(str::to_string);
            assert_eq!(le(&buckets[0]).as_deref(), Some("1e-6"));
            assert_eq!(le(buckets.last().unwrap()).as_deref(), Some("+Inf"));
        }
    }
    // Counter records in the log match the snapshot totals (the snapshot
    // includes the pool-lifecycle counters the equality check filtered).
    let logged_counters = lines[1..]
        .iter()
        .filter(|l| l.contains("\"type\":\"counter\""))
        .count();
    assert_eq!(logged_counters, snap.counters.len());

    // --- Prometheus snapshot -------------------------------------------
    let prom = snap.to_prometheus();
    assert!(prom.contains("hlm_par_tasks"), "{prom}");
    assert!(prom.contains("hlm_lda_gibbs_sweeps 80"), "{prom}");
    assert!(
        prom.lines().any(|l| l.starts_with("# TYPE")),
        "prometheus output must carry TYPE comments"
    );
    for token in ["NaN", "inf"] {
        assert!(
            !prom.contains(token),
            "prometheus output contains non-finite token {token:?}"
        );
    }
}
