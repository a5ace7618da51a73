//! # axcc-cli — command-line front end for the axiomatic framework
//!
//! One binary, `axcc`, that exposes the whole repository to the shell:
//!
//! ```text
//! axcc run       --protocols reno,cubic [--bw-mbps 20 --rtt-ms 42 --buffer 100]
//!                [--steps 2000 | --packet --duration 30] [--wire-loss 0.01]
//! axcc score     --protocol pcc [link flags] [--steps 3000]
//! axcc compare   --challenger pcc --defender reno [link flags]
//! axcc table1    [--simulate]          # Table 1
//! axcc table2                          # Table 2 (fluid backend, quick)
//! axcc figure1   [--validate]          # Figure 1
//! axcc theorems                        # Claim 1 + Theorems 1–5 checks
//! axcc shootout                        # §5.2 robustness shootout
//! axcc gauntlet                        # Metric VI under bursty loss
//! axcc extensions                      # §6 extension metrics
//! axcc sweep     --experiment NAME [--jobs N --smoke --no-cache]
//! axcc run-all   [--jobs N --smoke --out-dir results/]
//! axcc list                            # protocol registry
//! axcc help
//! ```
//!
//! Every command is a function from arguments to an output string (plus
//! an exit code), which is what makes the CLI testable end-to-end without
//! spawning processes. That string is deterministic: the only
//! run-to-run-varying output, the sweep commands' wall-clock timings, goes
//! straight to stderr.

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

pub mod args;
mod commands;

pub use args::{ArgError, Args};
pub use commands::{dispatch, CliError, HELP};

/// Run the CLI against a raw argument vector; returns (exit code, output).
/// Errors are rendered into the output so `main` stays trivial.
pub fn run<I: IntoIterator<Item = String>>(raw: I) -> (i32, String) {
    let parsed = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => return (2, format!("error: {e}\n\n{HELP}")),
    };
    match dispatch(&parsed) {
        Ok(out) => (0, out),
        Err(CliError::Usage(msg)) => (2, format!("error: {msg}\n\n{HELP}")),
        Err(CliError::Failed(msg)) => (1, format!("error: {msg}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(s: &str) -> (i32, String) {
        run(s.split_whitespace().map(String::from))
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = cli("help");
        assert_eq!(code, 0);
        assert!(out.contains("axcc run"));
        assert!(out.contains("axcc table2"));
    }

    #[test]
    fn unknown_command_fails_with_usage() {
        let (code, out) = cli("frobnicate");
        assert_eq!(code, 2);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn list_shows_registry() {
        let (code, out) = cli("list");
        assert_eq!(code, 0);
        assert!(out.contains("reno"));
        assert!(out.contains("robust-aimd"));
        assert!(out.contains("aimd(a,b)"));
    }

    #[test]
    fn run_fluid_quick() {
        let (code, out) = cli("run --protocols reno,cubic --steps 400");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("AIMD(1,0.5)"), "{out}");
        assert!(out.contains("CUBIC(0.4,0.8)"), "{out}");
        assert!(out.contains("efficiency"), "{out}");
    }

    #[test]
    fn run_packet_quick() {
        let (code, out) = cli("run --protocols reno --packet --duration 5");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("packets"), "{out}");
    }

    #[test]
    fn run_packet_with_ecn() {
        let (code, out) = cli("run --protocols reno,reno --packet --duration 5 --ecn 20");
        assert_eq!(code, 0, "{out}");
        // ECN run on this short horizon stays loss-free.
        assert!(out.contains("loss bound 0.000"), "{out}");
    }

    #[test]
    fn ecn_requires_packet_backend() {
        let (code, out) = cli("run --protocols reno --ecn 20");
        assert_eq!(code, 2);
        assert!(out.contains("--packet"), "{out}");
    }

    #[test]
    fn run_rejects_unknown_protocol() {
        let (code, out) = cli("run --protocols sprout --steps 100");
        assert_eq!(code, 2);
        assert!(out.contains("sprout"), "{out}");
    }

    #[test]
    fn run_rejects_unknown_flag() {
        let (code, out) = cli("run --protocols reno --stepz 100");
        assert_eq!(code, 2);
        assert!(out.contains("stepz"), "{out}");
    }

    #[test]
    fn score_reports_eight_metrics() {
        let (code, out) = cli("score --protocol reno --steps 600");
        assert_eq!(code, 0, "{out}");
        for label in [
            "efficiency",
            "fast-util",
            "loss bound",
            "fairness",
            "convergence",
            "robustness",
            "tcp-friendliness",
            "latency",
        ] {
            assert!(out.contains(label), "missing {label} in {out}");
        }
    }

    #[test]
    fn compare_reports_friendliness() {
        let (code, out) = cli("compare --challenger aimd(2,0.5) --defender reno --steps 800");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("friendliness"), "{out}");
    }

    #[test]
    fn table1_theory() {
        let (code, out) = cli("table1");
        assert_eq!(code, 0);
        assert!(out.contains("Worst-case"), "{out}");
    }

    #[test]
    fn figure1_theory() {
        let (code, out) = cli("figure1");
        assert_eq!(code, 0);
        assert!(out.contains("dominated surface points: 0"), "{out}");
    }

    #[test]
    fn characterize_scores_full_lineup() {
        let (code, out) = cli("characterize --steps 500");
        assert_eq!(code, 0, "{out}");
        for name in ["AIMD(1,0.5)", "PCC", "Vegas(2,4)", "BBR", "TFRC"] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn feasible_flags_greedy_points() {
        let (code, out) = cli("feasible --fast 2 --eff 0.9 --friendly 1");
        assert_eq!(code, 0);
        assert!(out.contains("Theorem 2"), "{out}");
        let (code, out) = cli("feasible --fast 1 --eff 0.5 --friendly 1");
        assert_eq!(code, 0);
        assert!(out.contains("no theorem rules"), "{out}");
    }

    #[test]
    fn frontier_runs_quickly() {
        let (code, out) = cli("frontier --steps 400");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("frontier (all eight metrics)"), "{out}");
    }

    #[test]
    fn network_parking_lot_runs() {
        let (code, out) = cli("network --protocol reno --hops 2 --steps 800");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("long/short ratio"), "{out}");
        assert!(out.contains("hop 1 utilization"), "{out}");
    }

    #[test]
    fn run_dumps_csv() {
        let path = std::env::temp_dir().join("axcc_cli_test_trace.csv");
        let path_str = path.to_str().unwrap().to_string();
        let (code, out) = cli(&format!("run --protocols reno --steps 50 --csv {path_str}"));
        assert_eq!(code, 0, "{out}");
        let csv = std::fs::read_to_string(&path).expect("csv written");
        assert!(csv.starts_with("step,"));
        assert_eq!(csv.lines().count(), 51);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sweep_runs_one_experiment() {
        let (code, out) = cli("sweep --experiment theorems --smoke --jobs 2 --no-cache");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Claim 1"), "{out}");
        // The wall-clock footer goes to stderr, not into the output.
        assert!(!out.contains("workers in"), "{out}");
    }

    #[test]
    fn sweep_requires_a_known_experiment() {
        let (code, out) = cli("sweep");
        assert_eq!(code, 2);
        assert!(out.contains("--experiment"), "{out}");
        let (code, out) = cli("sweep --experiment nope");
        assert_eq!(code, 2);
        assert!(out.contains("known: table1"), "{out}");
    }

    #[test]
    fn sweep_record_traces_matches_streaming_output() {
        let (code, streamed) = cli("sweep --experiment theorems --smoke --no-cache");
        assert_eq!(code, 0, "{streamed}");
        let (code, traced) = cli("sweep --experiment theorems --smoke --no-cache --record-traces");
        assert_eq!(code, 0, "{traced}");
        assert_eq!(
            streamed, traced,
            "--record-traces must be bit-identical to the streaming default"
        );
    }

    #[test]
    fn sweep_rejects_no_cache_with_cache_dir() {
        let (code, out) = cli("sweep --experiment theorems --no-cache --cache-dir /tmp/x");
        assert_eq!(code, 2);
        assert!(out.contains("mutually exclusive"), "{out}");
    }

    #[test]
    fn run_all_subset_writes_identical_reports_for_any_worker_count() {
        let base = std::env::temp_dir().join("axcc_cli_test_run_all");
        let serial = base.join("serial");
        let parallel = base.join("parallel");
        let mut summaries = Vec::new();
        for (jobs, dir) in [(1, &serial), (8, &parallel)] {
            let dir = dir.display().to_string();
            let (code, out) = cli(&format!(
                "run-all --only theorems --smoke --jobs {jobs} --no-cache --out-dir {dir}"
            ));
            assert_eq!(code, 0, "{out}");
            assert!(out.contains("theorems     ok"), "{out}");
            // The wall-clock timing table goes to stderr.
            assert!(!out.contains("hit rate"), "{out}");
            summaries.push(out.replace(&dir, "DIR"));
        }
        assert_eq!(
            summaries[0], summaries[1],
            "the summary must not depend on --jobs"
        );
        let a = std::fs::read_to_string(serial.join("theorems.txt")).unwrap();
        let b = std::fs::read_to_string(parallel.join("theorems.txt")).unwrap();
        assert_eq!(a, b, "parallel report must be byte-identical to serial");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn run_all_rejects_unknown_subset_names() {
        let (code, out) = cli("run-all --only theorems,bogus --smoke");
        assert_eq!(code, 2);
        assert!(out.contains("bogus"), "{out}");
    }

    #[test]
    fn bench_serve_spawn_smoke() {
        // Tiny closed-loop bench against an in-process daemon: exercises
        // start → warmup → measured levels → graceful drain end to end.
        let path = std::env::temp_dir().join("axcc_cli_test_bench_service.json");
        let path_str = path.to_str().unwrap().to_string();
        let (code, out) = cli(&format!(
            "bench-serve --spawn --levels 1,2 --requests 3 --steps 120 --out {path_str}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("p95"), "{out}");
        assert!(out.contains("spawned daemon:"), "{out}");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let levels = doc.get("levels").and_then(|v| v.as_array()).unwrap();
        assert_eq!(levels.len(), 2);
        for level in levels {
            assert!(
                level
                    .get("throughput_rps")
                    .and_then(|v| v.as_f64())
                    .unwrap()
                    > 0.0
            );
            assert_eq!(level.get("errors").and_then(|v| v.as_f64()), Some(0.0));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bench_serve_rejects_spawn_with_addr() {
        let (code, out) = cli("bench-serve --spawn --addr 127.0.0.1:1");
        assert_eq!(code, 2);
        assert!(out.contains("mutually exclusive"), "{out}");
    }

    #[test]
    fn help_covers_the_service_commands() {
        let (_, out) = cli("help");
        assert!(out.contains("axcc serve"), "{out}");
        assert!(out.contains("bench-serve"), "{out}");
    }

    #[test]
    fn json_flag_emits_json() {
        let (code, out) = cli("score --protocol reno --steps 400 --json");
        assert_eq!(code, 0);
        let json_start = out.find('{').expect("json in output");
        let v: serde_json::Value = serde_json::from_str(&out[json_start..]).expect("valid json");
        assert!(v.get("efficiency").is_some());
    }
}
