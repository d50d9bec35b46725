//! Workload benchmark for the hidden-layer-models crates.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-k3-inmem --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Runs one workload in this process, drives the library crates through
//! their public functions, times the calls from outside, checks the
//! outputs, and prints one JSON result as the last line of stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The full record (host fingerprint, inputs, checks, every
//! metric measured, spans) goes to `.perfbench/records/` under the current
//! directory. Exits non-zero if a check fails.

mod host;
mod loadgen;
mod query;
mod report;
mod serve;
mod stats;
mod trace;
mod train;
#[cfg(test)]
mod validate;

use std::path::{Path, PathBuf};
use std::time::Duration;

use report::Record;
use serde::Value;
use trace::Spans;

pub const WORKLOADS: &[&str] = &[
    "train-k3-inmem",
    "train-k128-sharded",
    "serve-http-zipf",
    "query-scan-200k",
];

/// What every workload gets to run with.
pub struct Ctx {
    pub seed: u64,
    /// Measurement budget for the run.
    pub budget: Duration,
    pub traced: bool,
    pub spans: Spans,
    /// Scratch directory for this run's files, removed at exit.
    pub work: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // The benchmark runs from the repository root, the directory holding
    // `crates/`.
    let root = std::env::current_dir().expect("current directory");
    if !root.join("crates").is_dir() {
        eprintln!("error: run from the repository root (no crates/ here)");
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    hlm_par::set_threads(nproc);

    let out_dir = root.join(".perfbench");
    let work = out_dir
        .join("work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).expect("create work directory");
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        traced: args.trace,
        spans: Spans::new(args.trace),
        work: work.clone(),
    };

    let mut rec = Record::default();
    match args.workload.as_str() {
        "train-k3-inmem" => train::run_inmem(&ctx, &mut rec),
        "train-k128-sharded" => train::run_sharded(&ctx, &mut rec),
        "serve-http-zipf" => serve::run(&ctx, &mut rec),
        "query-scan-200k" => query::run(&ctx, &mut rec),
        _ => unreachable!("workload validated in parse_args"),
    }
    let peak = hlm_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    rec.set("peak_rss_mb", peak);
    rec.check("peak_rss_read", peak > 0.0, format!("{peak:.1} MiB"));
    if rec.get("ok_share").is_none() {
        let ok = 1.0 - rec.failed as f64 / rec.attempted.max(1) as f64;
        rec.set("ok_share", ok);
    }
    rec.check(
        "no_failed_operations",
        rec.failed == 0,
        format!("{} of {} failed", rec.failed, rec.attempted),
    );
    let _ = std::fs::remove_dir_all(&work);

    let header = Value::Map(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::U64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("host".into(), host::fingerprint(&root)),
    ]);
    let record_path = record_path(&out_dir, &args);
    if !rec.emit(args.trace, header, ctx.spans.to_value(), &record_path) {
        std::process::exit(1);
    }
}

fn record_path(out_dir: &Path, args: &Args) -> PathBuf {
    out_dir.join("records").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ))
}
