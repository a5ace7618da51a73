//! End-to-end tests of the real `axcc` binary (spawned as a process):
//! exit codes, stdout/stderr separation, JSON validity — the contract a
//! shell script or CI pipeline relies on.

#![allow(clippy::expect_used)] // spawn failures should abort the e2e suite loudly

use std::process::Command;

fn axcc(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_axcc"))
        .args(args)
        .output()
        .expect("spawn axcc");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_exits_zero_on_stdout() {
    let (code, stdout, stderr) = axcc(&["help"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("axcc run"));
    assert!(stderr.is_empty(), "stderr: {stderr}");
}

#[test]
fn usage_errors_exit_two_on_stderr() {
    let (code, stdout, stderr) = axcc(&["run"]); // missing --protocols
    assert_eq!(code, 2);
    assert!(stdout.is_empty(), "stdout: {stdout}");
    assert!(stderr.contains("--protocols"), "stderr: {stderr}");
}

#[test]
fn unknown_command_exits_two() {
    let (code, _, stderr) = axcc(&["bogus"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn quick_run_succeeds() {
    let (code, stdout, _) = axcc(&["run", "--protocols", "reno", "--steps", "300"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("AIMD(1,0.5)"));
    assert!(stdout.contains("efficiency"));
}

#[test]
fn json_output_is_machine_readable() {
    let (code, stdout, _) = axcc(&["score", "--protocol", "reno", "--steps", "300", "--json"]);
    assert_eq!(code, 0);
    let start = stdout.find('{').expect("json object in output");
    let v: serde_json::Value =
        serde_json::from_str(stdout[start..].lines().next().unwrap()).expect("valid json");
    assert!(v["efficiency"].as_f64().is_some());
    assert!(v["tcp_friendliness"].as_f64().is_some());
}

#[test]
fn theorems_gate_exits_zero_when_all_pass() {
    let (code, stdout, _) = axcc(&["theorems", "--steps", "1500"]);
    assert_eq!(code, 0, "{stdout}");
    assert_eq!(stdout.matches("[PASS]").count(), 6, "{stdout}");
    assert_eq!(stdout.matches("[FAIL]").count(), 0, "{stdout}");
}

#[test]
fn gauntlet_shows_robust_aimd_degrading_slower_than_reno() {
    let (code, stdout, _) = axcc(&["gauntlet", "--json"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("R-AIMD degrades strictly slower than AIMD(1,0.5): true"),
        "{stdout}"
    );
    let start = stdout.find('{').expect("json object in output");
    let v: serde_json::Value =
        serde_json::from_str(stdout[start..].lines().next().unwrap()).expect("valid json");
    assert!(v["rows"].as_array().is_some_and(|r| !r.is_empty()));
}

#[test]
fn feasible_is_scriptable() {
    let (code, stdout, _) = axcc(&[
        "feasible",
        "--fast",
        "3",
        "--eff",
        "0.95",
        "--friendly",
        "1",
    ]);
    assert_eq!(code, 0);
    assert!(stdout.contains("Theorem 2"), "{stdout}");
}

#[test]
fn sweep_honours_chunk_size_and_reports_cache_stats() {
    let dir = std::env::temp_dir().join(format!("axcc-e2e-cache-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.to_str().expect("utf-8 temp path");
    let base = [
        "sweep",
        "--experiment",
        "theorems",
        "--smoke",
        "--cache-stats",
        "--cache-dir",
        cache_dir,
    ];

    // Cold run with an explicit (tiny) chunk size: same results, and the
    // store report shows the sharded on-disk layout.
    let mut cold_args: Vec<&str> = base.to_vec();
    cold_args.extend(["--chunk-size", "2"]);
    let (code, cold, cold_err) = axcc(&cold_args);
    assert_eq!(code, 0, "stdout: {cold}\nstderr: {cold_err}");
    assert!(cold.contains("result store: 0 hits"), "{cold}");
    assert!(cold.contains("in-memory index:"), "{cold}");
    assert!(cold.contains("shard"), "{cold}");
    // The wall-clock footer goes to stderr.
    assert!(cold_err.contains("0.0% hit rate"), "{cold_err}");
    assert!(!cold.contains("hit rate"), "{cold}");

    // Warm run at the auto chunk size: answered from disk. Stdout is the
    // cold run's byte for byte, except the store's hit/miss counters.
    let (code, warm, warm_err) = axcc(&base);
    assert_eq!(code, 0, "{warm}");
    assert!(warm_err.contains("100.0% hit rate"), "{warm_err}");
    assert!(warm.contains(" 0 misses this process"), "{warm}");
    let counters = |s: &str| {
        s.lines()
            .filter(|l| !l.starts_with("result store:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        counters(&cold),
        counters(&warm),
        "chunking must not change results"
    );

    // The 10^5-layout invariant end to end: entries live in O(shards)
    // segment files, never one file per digest.
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        files.iter().all(|f| f.ends_with(".seg")),
        "only segment files expected: {files:?}"
    );
    assert!(files.len() <= 16, "O(shards) files, got {files:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_sweep_reports_disabled_store() {
    let (code, stdout, _) = axcc(&[
        "sweep",
        "--experiment",
        "theorems",
        "--smoke",
        "--no-cache",
        "--cache-stats",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("result store: disabled"), "{stdout}");
}
