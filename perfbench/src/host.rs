//! Host fingerprint: two records are comparable only when these match.

use std::path::Path;
use std::process::Command;

use serde::Value;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs a command to completion and returns its trimmed stdout.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the workspace sources (path and bytes of every file under
/// `crates/` plus the lock file, in sorted order): identifies the code
/// under test when the checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    format!("{h:016x}")
}

pub fn fingerprint(root: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Map(vec![
        ("cpu_model".into(), Value::Str(cpu_model())),
        ("nproc".into(), Value::U64(nproc as u64)),
        (
            "hlm_threads".into(),
            Value::U64(hlm_par::effective_threads() as u64),
        ),
        (
            "rustc".into(),
            Value::Str(command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_sha".into(),
            Value::Str(
                root.join(".git")
                    .exists()
                    .then(|| command_output("git", &["rev-parse", "HEAD"]))
                    .flatten()
                    .unwrap_or_else(|| "none".into()),
            ),
        ),
        ("source_fnv".into(), Value::Str(source_digest(root))),
    ])
}
