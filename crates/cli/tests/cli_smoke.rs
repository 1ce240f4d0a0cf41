//! Smoke tests driving the `optsched` binary end-to-end: the paper example,
//! the generate → schedule JSON round-trip, and error handling on malformed
//! input.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

fn optsched(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_optsched"));
    cmd.args(args);
    cmd
}

fn run(args: &[&str]) -> Output {
    optsched(args).output().expect("spawn optsched")
}

fn run_with_stdin(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = optsched(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn optsched");
    child.stdin.as_mut().expect("piped stdin").write_all(stdin).expect("write stdin");
    child.wait_with_output().expect("wait for optsched")
}

#[test]
fn example_prints_the_paper_optimum() {
    let out = run(&["example"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("optimal schedule length = 14"), "stdout: {stdout}");
    assert!(stdout.contains("schedule length = 14"));
}

#[test]
fn generate_schedule_round_trip_through_json() {
    let generated = run(&["generate", "--nodes", "10", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let graph_json = generated.stdout;
    assert!(!graph_json.is_empty());

    // Pipe the generated graph into `schedule --input -` (the documented
    // `optsched generate | optsched schedule` composition).
    let scheduled = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "astar", "--procs", "3"],
        &graph_json,
    );
    assert!(
        scheduled.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&scheduled.stderr)
    );
    let stdout = String::from_utf8_lossy(&scheduled.stdout);
    assert!(stdout.contains("schedule length:"), "stdout: {stdout}");
    // An invalid schedule would have been reported on stderr by `report`.
    assert!(!String::from_utf8_lossy(&scheduled.stderr).contains("invalid schedule"));

    // `levels` consumes the same format.
    let levels = run_with_stdin(&["levels", "--input", "-"], &graph_json);
    assert!(levels.status.success());
    assert!(String::from_utf8_lossy(&levels.stdout).contains("critical path length"));
}

#[test]
fn json_output_round_trips_as_json() {
    let generated = run(&["generate", "--nodes", "8", "--seed", "3"]);
    assert!(generated.status.success());
    let scheduled = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "list", "--json"],
        &generated.stdout,
    );
    assert!(scheduled.status.success());
    let stdout = String::from_utf8_lossy(&scheduled.stdout);
    // The --json output must itself be parseable JSON (spot-check the shape).
    assert!(stdout.trim_start().starts_with('{'), "stdout: {stdout}");
    assert!(stdout.contains("assignments"));
}

#[test]
fn malformed_input_exits_non_zero() {
    let out = run_with_stdin(&["schedule", "--input", "-"], b"this is not json");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));

    // Valid JSON that is not a graph must also fail cleanly.
    let out = run_with_stdin(&["schedule", "--input", "-"], b"[1, 2, 3]");
    assert!(!out.status.success());

    // A missing file is an error, not a panic.
    let out = run(&["schedule", "--input", "/nonexistent/graph.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn unknown_subcommand_prints_usage_and_fails() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let no_args = run(&[]);
    assert!(!no_args.status.success());
}

#[test]
fn unknown_algorithm_fails() {
    let generated = run(&["generate", "--nodes", "6", "--seed", "1"]);
    assert!(generated.status.success());
    let out = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "quantum"],
        &generated.stdout,
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
}

/// The exhaustive enumerator is schedulable from the CLI and honours
/// `--max-expansions` (it used to ignore limits before the engine refactor):
/// a budget of 1 expansion must cut the run short and fall back to the
/// list-heuristic incumbent, with the budget note on stderr.
#[test]
fn exhaustive_algorithm_honours_max_expansions() {
    let generated = run(&["generate", "--nodes", "8", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let graph_json = generated.stdout;

    // Unbounded: the enumerator is exact on a small instance.
    let exact = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "exhaustive", "--procs", "2"],
        &graph_json,
    );
    assert!(exact.status.success(), "stderr: {}", String::from_utf8_lossy(&exact.stderr));
    let exact_out = String::from_utf8_lossy(&exact.stdout).to_string();
    assert!(exact_out.contains("exhaustive enumeration"), "stdout: {exact_out}");
    let exact_len = exact_out
        .lines()
        .find_map(|l| l.strip_prefix("schedule length:"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("schedule length in output");

    // A* agrees (both dispatched through the same registry).
    let astar = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "astar", "--procs", "2"],
        &graph_json,
    );
    let astar_out = String::from_utf8_lossy(&astar.stdout).to_string();
    assert!(astar_out.contains(&format!("schedule length: {exact_len}")), "stdout: {astar_out}");

    // Bounded: still succeeds, reports the budget note, stays feasible.
    let bounded = run_with_stdin(
        &[
            "schedule", "--input", "-", "--algorithm", "exhaustive", "--procs", "2",
            "--max-expansions", "1",
        ],
        &graph_json,
    );
    assert!(bounded.status.success());
    let note = String::from_utf8_lossy(&bounded.stderr);
    assert!(note.contains("hit its budget"), "stderr: {note}");
    let bounded_len = String::from_utf8_lossy(&bounded.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("schedule length:").and_then(|v| v.trim().parse::<u64>().ok()))
        .expect("schedule length in bounded output");
    assert!(bounded_len >= exact_len, "incumbent cannot beat the optimum");
}

#[test]
fn parallel_duplicate_detection_modes_agree_and_report_counters() {
    let generated = run(&["generate", "--nodes", "8", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let graph_json = generated.stdout;

    let mut lengths = Vec::new();
    for mode in ["local", "sharded"] {
        let out = run_with_stdin(
            &[
                "schedule", "--input", "-", "--algorithm", "parallel", "--ppes", "2",
                "--dup-detection", mode, "--shards", "4", "--procs", "3",
            ],
            &graph_json,
        );
        assert!(out.status.success(), "mode={mode} stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(stdout.contains(&format!("{mode} duplicate detection")), "stdout: {stdout}");
        assert!(stdout.contains("redundant cross-PPE expansions avoided:"), "stdout: {stdout}");
        // Only the sharded mode has a table to report on.
        assert_eq!(mode == "sharded", stdout.contains("closed table"), "stdout: {stdout}");
        let len = stdout
            .lines()
            .find_map(|l| l.strip_prefix("schedule length:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no schedule length in: {stdout}"));
        lengths.push(len);
    }
    assert_eq!(lengths[0], lengths[1], "both modes must return the same optimum");

    // An unknown mode fails cleanly.
    let bad = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "parallel", "--dup-detection", "bogus"],
        &graph_json,
    );
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown duplicate-detection mode"));
}

/// The service pipeline composes on the command line exactly as documented:
/// `optsched requests | optsched batch --requests -`.  The generated corpus
/// is guaranteed to contain a repeated instance and a tight deadline, so the
/// batch must report zero errors *and* at least one cache hit — the same
/// contract the CI smoke step enforces.
#[test]
fn requests_pipe_into_batch_with_cache_hits_and_no_errors() {
    let corpus = run(&["requests", "--count", "10", "--seed", "7"]);
    assert!(corpus.status.success(), "stderr: {}", String::from_utf8_lossy(&corpus.stderr));
    let lines = String::from_utf8_lossy(&corpus.stdout);
    assert_eq!(lines.lines().count(), 10);
    assert!(lines.contains("\"deadline_ms\":"), "corpus must carry a deadline request");

    let batch = run_with_stdin(
        &["batch", "--requests", "-", "--workers", "2", "--min-cache-hits", "1", "--summary"],
        corpus.stdout.as_slice(),
    );
    assert!(batch.status.success(), "stderr: {}", String::from_utf8_lossy(&batch.stderr));
    let out = String::from_utf8_lossy(&batch.stdout);
    assert_eq!(out.lines().count(), 10, "one response per request");
    assert!(out.contains("\"ok\":true"));
    assert!(out.contains("\"cache_hit\":true"), "the duplicate instance must hit the cache");
    assert!(String::from_utf8_lossy(&batch.stderr).contains("batch: 10 responses"));
}

/// `serve` answers the JSON-lines protocol on stdin/stdout, including a
/// structured error for a malformed line (the service must not die on it).
#[test]
fn serve_answers_requests_and_survives_malformed_lines() {
    let corpus = run(&["requests", "--count", "3", "--seed", "11"]);
    assert!(corpus.status.success());
    let mut input = String::from_utf8(corpus.stdout).unwrap();
    input.push_str("this is not json\n");

    let served = run_with_stdin(&["serve", "--workers", "2"], input.as_bytes());
    assert!(served.status.success(), "stderr: {}", String::from_utf8_lossy(&served.stderr));
    let out = String::from_utf8_lossy(&served.stdout);
    assert_eq!(out.lines().count(), 4, "three answers plus one structured error");
    assert!(out.contains("\"ok\":true"));
    assert!(out.contains("\"ok\":false"));
    assert!(out.contains("malformed request"));
    assert!(String::from_utf8_lossy(&served.stderr).contains("served 4 responses"));
}

/// The `wastar` algorithm is schedulable from the CLI, and at `--weight 1.0`
/// it agrees with A* (same registry, same optimum).
#[test]
fn wastar_from_the_cli_matches_astar_at_weight_one() {
    let generated = run(&["generate", "--nodes", "8", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let graph_json = generated.stdout;

    let mut lengths = Vec::new();
    for argv in [
        vec!["schedule", "--input", "-", "--algorithm", "astar", "--procs", "3"],
        vec![
            "schedule", "--input", "-", "--algorithm", "wastar", "--weight", "1.0", "--procs",
            "3",
        ],
        vec![
            "schedule", "--input", "-", "--algorithm", "wastar", "--weight", "1.0", "--procs",
            "3", "--seed-incumbent",
        ],
    ] {
        let out = run_with_stdin(&argv, &graph_json);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let len = stdout
            .lines()
            .find_map(|l| l.strip_prefix("schedule length:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no schedule length in: {stdout}"));
        lengths.push(len);
    }
    assert_eq!(lengths[0], lengths[1], "wastar at w=1 must match astar");
    assert_eq!(lengths[0], lengths[2], "the seeded search stays exact");
}

/// `--algorithm parallel` reports the `peak_live_states` headline, and its
/// per-PPE arenas rebuild states from delta records, banking the deltas the
/// path-cache bases skipped.
#[test]
fn parallel_reports_peak_live_states_and_replay_savings() {
    let generated = run(&["generate", "--nodes", "8", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let out = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "parallel", "--ppes", "2", "--procs", "3"],
        &generated.stdout,
    );
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.lines().any(|l| l.starts_with("peak_live_states")),
        "no peak_live_states counter in: {stdout}"
    );
    let saved = stdout
        .lines()
        .find_map(|l| l.strip_prefix("replayed deltas saved"))
        .and_then(|v| v.trim_start_matches([' ', ':']).trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no replayed-deltas-saved counter in: {stdout}"));
    assert!(saved > 0, "the arena's path-cache bases must bank skipped deltas");
}

/// Every schedule run prints the arena-lifecycle counters
/// (`peak_live_records`, `reclaimed_records`, the path-cache hit rate), and
/// the refcounted arena visibly reclaims dead chains, serial and parallel.
#[test]
fn arena_lifecycle_counters_from_the_cli() {
    let generated = run(&["generate", "--nodes", "10", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let graph_json = generated.stdout;

    let counter = |stdout: &str, name: &str| -> u64 {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim_start_matches([' ', ':']).trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no {name} counter in: {stdout}"))
    };

    for algorithm in ["astar", "parallel"] {
        let out = run_with_stdin(
            &[
                "schedule", "--input", "-", "--algorithm", algorithm, "--ppes", "2", "--procs",
                "3",
            ],
            &graph_json,
        );
        assert!(out.status.success(), "{algorithm}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(stdout.contains("path-cache hit rate"), "stdout: {stdout}");
        assert!(counter(&stdout, "peak_live_records") > 0, "stdout: {stdout}");
        assert!(counter(&stdout, "reclaimed_records") > 0, "{algorithm} must reclaim");
    }
}

/// The regression fixture of the cost-overflow crash: a two-node chain whose
/// node and edge weights are `u64::MAX`, followed by one valid request.
/// `batch` on a single worker used to lose its worker to the overflow panic
/// and hang; now the bad line gets a structured `ok:false` reply at parse
/// time and the valid one is still answered.  `schedule` rejects the same
/// graph with a message and a non-zero exit instead of panicking.
#[test]
fn overflowing_costs_are_rejected_at_parse_time() {
    let fixture = include_str!("fixtures/overflow_chain.jsonl");
    let batch = run_with_stdin(&["batch", "--requests", "-", "--workers", "1"], fixture.as_bytes());
    let out = String::from_utf8_lossy(&batch.stdout);
    let replies: Vec<&str> = out.lines().collect();
    assert_eq!(replies.len(), 2, "one reply per line: {out}");
    assert!(replies[0].contains("\"ok\":false"), "{}", replies[0]);
    assert!(replies[0].contains("cost ceiling"), "{}", replies[0]);
    assert!(replies[1].contains("\"ok\":true"), "{}", replies[1]);
    assert!(!batch.status.success(), "batch exits non-zero when a reply is an error");

    let bad_line = fixture.lines().next().expect("fixture line");
    let start = bad_line.find("{\"nodes\"").expect("graph object");
    let end = bad_line.find(",\"network\"").expect("network follows the graph");
    let graph = &bad_line.as_bytes()[start..end];
    let scheduled = run_with_stdin(&["schedule", "--input", "-"], graph);
    assert!(!scheduled.status.success());
    let stderr = String::from_utf8_lossy(&scheduled.stderr);
    assert!(stderr.contains("cost ceiling"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// Feeds stdin in two chunks with a pause between, keeping the service alive
/// long enough for time-based behaviour (the periodic summary) to fire.
fn run_with_chunked_stdin(args: &[&str], first: &[u8], second: &[u8]) -> Output {
    let mut child = optsched(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn optsched");
    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        stdin.write_all(first).expect("write first chunk");
        stdin.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(120));
        stdin.write_all(second).expect("write second chunk");
    }
    child.wait_with_output().expect("wait for optsched")
}

/// `serve --summary-interval-ms` prints periodic metrics snapshots to stderr
/// while serving, and the final summary surfaces the admission-control and
/// cache-lifecycle counters (shed, degraded, evictions, expirations).
#[test]
fn serve_periodic_summaries_surface_backpressure_counters() {
    let corpus = run(&["requests", "--count", "6", "--seed", "7"]);
    assert!(corpus.status.success());
    let lines = String::from_utf8(corpus.stdout).unwrap();
    let split = lines.find('\n').unwrap() + 1;

    let served = run_with_chunked_stdin(
        &["serve", "--workers", "2", "--summary-interval-ms", "10"],
        &lines.as_bytes()[..split],
        &lines.as_bytes()[split..],
    );
    assert!(served.status.success(), "stderr: {}", String::from_utf8_lossy(&served.stderr));
    let stderr = String::from_utf8_lossy(&served.stderr);
    let metric_lines: Vec<&str> =
        stderr.lines().filter(|l| l.starts_with("serve: ")).collect();
    assert!(
        metric_lines.len() >= 2,
        "at least one periodic snapshot plus the final one, got: {stderr}"
    );
    for needle in ["pending", "shed", "degraded", "evictions", "expired", "hit rate"] {
        assert!(metric_lines[0].contains(needle), "`{needle}` missing from: {}", metric_lines[0]);
    }
    // The final per-connection summary also carries the shed/degrade tallies.
    assert!(stderr.contains("served 6 responses"), "stderr: {stderr}");
    assert!(stderr.contains("0 shed, 0 degraded"), "stderr: {stderr}");
}

/// `batch --summary` surfaces the new counters, and `--cache-max-age-ms 0`
/// is plumbed through: with everything expiring instantly the duplicate
/// instances cannot hit the cache, and the expiry counter shows why.
#[test]
fn batch_summary_reports_cache_lifecycle_counters_and_honours_max_age() {
    let corpus = run(&["requests", "--count", "8", "--seed", "7"]);
    assert!(corpus.status.success());

    let batch = run_with_stdin(
        &["batch", "--requests", "-", "--workers", "2", "--summary", "--cache-max-age-ms", "0"],
        corpus.stdout.as_slice(),
    );
    assert!(batch.status.success(), "stderr: {}", String::from_utf8_lossy(&batch.stderr));
    let stderr = String::from_utf8_lossy(&batch.stderr);
    let summary = stderr
        .lines()
        .find(|l| l.starts_with("batch:"))
        .unwrap_or_else(|| panic!("no summary in: {stderr}"));
    assert!(summary.contains("0 cache hits"), "a 0 ms TTL serves nothing: {summary}");
    assert!(summary.contains("0 shed, 0 degraded"), "{summary}");
    let expired: u64 = summary
        .split(" expired")
        .next()
        .and_then(|s| s.rsplit(", ").next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no expired counter in: {summary}"));
    assert!(expired > 0, "the duplicate lookups must have expired entries: {summary}");
}

/// Writes a small generated graph to a file named after `test`, so a run
/// that rejects its flags before reading any input cannot race a stdin pipe.
fn graph_file(test: &str) -> String {
    let path = std::env::temp_dir().join(format!("optsched-{test}-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path").to_string();
    let generated = run(&["generate", "--nodes", "6", "--seed", "1", "--output", &path]);
    assert!(generated.status.success());
    path
}

/// Flags a subcommand does not take — including the removed
/// `--store`/`--arena-gc`/`--path-cache`/`--election-batch` — fail the run
/// with a message naming the flag, before any search starts.
#[test]
fn unknown_flags_are_rejected_by_name() {
    let graph = graph_file("unknown-flags");
    for flag in ["--store", "--arena-gc", "--path-cache", "--election-batch", "--bogus"] {
        let out = run(&["schedule", "--input", &graph, "--algorithm", "parallel", flag, "1"]);
        assert!(!out.status.success(), "{flag} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} still ran the search");
    }
    // A flag of another subcommand is unknown here too.
    let out = run(&["requests", "--count", "2", "--workers", "2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--workers`"));
    std::fs::remove_file(graph).ok();
}

/// A processor count outside 1..=1024 is refused with a message before any
/// network is built: no panic, and no seconds spent on a network the
/// signature's processor field cannot address.
#[test]
fn out_of_range_processor_counts_are_rejected() {
    let graph = graph_file("procs-out-of-range");
    let cases = [
        ("0", "full", "at least one processor"),
        ("1025", "full", "exceed the limit of 1024"),
        ("1000000000000000003", "mesh", "exceed the limit of 1024"),
    ];
    for (procs, topology, reason) in cases {
        let out = run(&["schedule", "--input", &graph, "--procs", procs, "--topology", topology]);
        assert_eq!(out.status.code(), Some(1), "--procs {procs}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("invalid value `{procs}` for `--procs`")), "{stderr}");
        assert!(stderr.contains(reason), "--procs {procs}: {stderr}");
        assert!(!stderr.contains("panicked"), "--procs {procs}: {stderr}");
        assert!(out.stdout.is_empty());
    }
    std::fs::remove_file(graph).ok();
}

/// A value that does not parse is an error naming the flag, not a silent
/// fallback to the default (`--ppes two` used to run with the default q).
#[test]
fn unparseable_flag_values_are_rejected_by_name() {
    let graph = graph_file("unparseable-values");
    for (flag, value) in [("--ppes", "two"), ("--procs", "3.5"), ("--topology", "torus"), ("--max-expansions", "lots")] {
        let out = run(&["schedule", "--input", &graph, "--algorithm", "parallel", flag, value]);
        assert!(!out.status.success(), "{flag} {value} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("invalid value `{value}` for `{flag}`")),
            "{flag} {value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value} still ran the search");
    }
    let out = run(&["generate", "--nodes", "ten"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("`--nodes`"));
    let out = run(&["serve", "--summary-interval-ms", "soon"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("`--summary-interval-ms`"));
    std::fs::remove_file(graph).ok();
}
