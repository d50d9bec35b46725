//! Usage errors of the `hlm` binary as an operator sees them: exit code 2
//! and one `error:` line on stderr.

use std::process::Command;

#[test]
fn retired_bucket_sampler_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_hlm"))
        .args(["topics", "--data", "unused", "--sampler", "bucket"])
        .output()
        .expect("the hlm binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: ") && stderr.contains("--sampler"),
        "{stderr}"
    );
    assert!(stderr.contains("auto|dense|alias"), "{stderr}");
}
