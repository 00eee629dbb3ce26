//! End-to-end tests of the `fifer` CLI binary: argument handling, a real
//! run, and the save/replay round trip.

use std::process::Command;

fn fifer() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fifer"))
}

#[test]
fn help_exits_with_usage() {
    let out = fifer().arg("--help").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--rm"), "usage must document --rm: {err}");
    assert!(err.contains("--replay"));
    assert!(
        err.contains("hybridhist"),
        "usage must list hybridhist: {err}"
    );
    assert!(
        err.contains("--workload"),
        "usage must document --workload: {err}"
    );
    // --large names the cluster SimConfig::large_scale really builds
    let large = fifer::sim::ClusterConfig::large_scale();
    let shape = format!("({} nodes, {} cores)", large.nodes, large.total_cores());
    assert!(
        err.contains(&shape),
        "usage must describe --large as {shape}: {err}"
    );
    // a wrapped description keeps the description column's indent
    let indent = " ".repeat(42);
    for line in err.lines().filter(|l| !l.trim().is_empty()) {
        let heading = ["--", "usage", "exit status"]
            .iter()
            .any(|h| line.starts_with(h));
        assert!(
            heading || line.starts_with(&indent),
            "continuation line lost its indent: {line:?}"
        );
    }
}

#[test]
fn unknown_rm_is_a_named_error() {
    let out = fifer().args(["--rm", "nonsense"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown rm"), "{err}");
}

#[test]
fn removed_engine_flags_are_unknown_arguments() {
    // the simulator has one event engine; its old selection knobs are gone
    for args in [
        &["--shards", "4"][..],
        &["--workers", "2"],
        &["--lookahead", "1"],
        &["--serial-engine"],
        // harvesting is its own RM (`--rm harvest`), not a bolt-on
        &["--rm", "bline", "--harvest"],
        &["--rm", "bline", "--rightsize"],
    ] {
        let out = fifer().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown argument"), "{args:?}: {err}");
    }
}

#[test]
fn invalid_early_exit_rejected() {
    let out = fifer()
        .args(["--early-exit", "1.5"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--early-exit"));
}

#[test]
fn small_run_prints_summary_row() {
    let out = fifer()
        .args([
            "--rm", "bline", "--rate", "5", "--secs", "30", "--seed", "3",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Bline"), "{stdout}");
    assert!(stdout.contains("jobs over 30s"));
}

#[test]
fn save_and_replay_round_trip() {
    let dir = std::env::temp_dir().join("fifer_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let wl = dir.join("wl.csv");
    let summary = dir.join("sum.csv");

    let save = fifer()
        .args([
            "--rm", "bline", "--rate", "5", "--secs", "20", "--seed", "4",
        ])
        .arg("--save-workload")
        .arg(&wl)
        .arg("--out")
        .arg(&summary)
        .output()
        .expect("spawn");
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );
    assert!(wl.exists() && summary.exists());

    let replay = fifer()
        .args(["--rm", "bline", "--seed", "4"])
        .arg("--replay")
        .arg(&wl)
        .output()
        .expect("spawn");
    assert!(replay.status.success());
    let stdout = String::from_utf8_lossy(&replay.stdout);
    // the replayed workload carries the same job count as the saved one
    let saved_jobs = std::fs::read_to_string(&wl).expect("read").lines().count() - 1;
    assert!(
        stdout.contains(&format!("workload: {saved_jobs} jobs")),
        "replay should re-run the {saved_jobs} saved jobs: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_export_round_trips() {
    let dir = std::env::temp_dir().join("fifer_cli_json_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let json = dir.join("r.json");
    let out = fifer()
        .args([
            "--rm", "bline", "--rate", "5", "--secs", "20", "--seed", "6",
        ])
        .arg("--json")
        .arg(&json)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&json).expect("json written");
    assert!(body.contains("\"records\""));
    assert!(body.contains("\"total_spawns\""));
    assert!(body.contains("\"energy_joules\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenants_flag_is_accepted() {
    let out = fifer()
        .args([
            "--rm",
            "fifer",
            "--rate",
            "4",
            "--secs",
            "15",
            "--tenants",
            "3",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Fifer"));
}

#[test]
fn faulted_audited_run_reports_counters_and_stays_clean() {
    let out = fifer()
        .args([
            "--rm",
            "bline",
            "--rate",
            "5",
            "--secs",
            "20",
            "--seed",
            "3",
            "--faults",
            "seed=7,crash=0.05,outage=1@5+5",
            "--audit",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("faults:"), "{stdout}");
    assert!(stdout.contains("node outages"), "{stdout}");
    assert!(stdout.contains("no violations"), "{stdout}");
}

#[test]
fn harvest_rm_reports_utilization_and_stays_audit_clean() {
    let out = fifer()
        .args([
            "--rm", "harvest", "--rate", "5", "--secs", "60", "--seed", "7", "--audit",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Harvest"), "{stdout}");
    assert!(stdout.contains("utilization:"), "{stdout}");
    assert!(
        stdout.contains("harvested"),
        "a harvesting run must report harvested core-hours: {stdout}"
    );
    assert!(stdout.contains("rightsized"), "{stdout}");
    assert!(stdout.contains("no violations"), "{stdout}");
}

#[test]
fn online_retrain_reaches_the_fifer_predictor() {
    let run = |online: bool| -> String {
        let mut cmd = fifer();
        cmd.args([
            "--rm", "fifer", "--rate", "10", "--secs", "400", "--seed", "3",
        ]);
        if online {
            cmd.arg("--online-retrain");
        }
        let out = cmd.output().expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let frozen = run(false);
    let online = run(true);
    assert_ne!(
        frozen, online,
        "retraining the LSTM online must change the run's scaling"
    );
    assert_eq!(online, run(true), "online retraining is deterministic");
}

#[test]
fn hybridhist_on_azure_runs_end_to_end() {
    let out = fifer()
        .args([
            "--rm",
            "hybridhist",
            "--workload",
            "azure",
            "--rate",
            "20",
            "--secs",
            "60",
            "--seed",
            "7",
            "--audit",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("HybridHist"), "{stdout}");
    assert!(stdout.contains("utilization:"), "{stdout}");
    assert!(stdout.contains("no violations"), "{stdout}");
}

#[test]
fn azure_knobs_are_parsed_and_validated() {
    // a legal custom family shape runs; the malformed ones are rows of
    // `out_of_range_inputs_are_named_errors`
    let out = fifer()
        .args([
            "--rm",
            "bline",
            "--workload",
            "azure",
            "--apps",
            "8",
            "--tail-exp",
            "1.1",
            "--trigger-mix",
            "40,30,20,10",
            "--rate",
            "10",
            "--secs",
            "30",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn malformed_fault_spec_is_rejected() {
    for (spec, message) in [
        ("warp=0.5", "unknown fault key"),
        ("crash=1.5", "invalid probability"),
        ("straggler=0.1x0", "invalid factor"),
        ("outage=99999@1+1", "outage node 99999 out of range"),
    ] {
        let out = fifer()
            .args(["--rm", "bline", "--secs", "10", "--faults", spec])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{spec}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{spec}: {err}");
    }
}

#[test]
fn out_of_range_inputs_are_named_errors() {
    for (args, code, message) in [
        (&["--rate", "0"][..], 2, "--rate must be"),
        (&["--rate", "nan"], 2, "--rate must be"),
        (&["--rate", "-5"], 2, "--rate must be"),
        (&["--rate", "inf"], 2, "--rate must be"),
        (&["--workload", "azure", "--apps", "0"], 2, "--apps must be"),
        (
            &["--workload", "azure", "--tail-exp", "-1"],
            2,
            "--tail-exp must be",
        ),
        (
            &["--workload", "azure", "--tail-exp", "nan"],
            2,
            "--tail-exp must be",
        ),
        (
            &["--decision-trace", "/nonexistent/x.jsonl"],
            1,
            "cannot write /nonexistent/x.jsonl",
        ),
        (&["--secs", "2592001"], 2, "--secs must be at most 2592000"),
        (
            &["--rate", "1e9", "--secs", "1"],
            2,
            "--rate × --secs must be",
        ),
        // only proactive scaling has a predictor to retrain
        (
            &["--online-retrain"],
            2,
            "--online-retrain needs a forecasting RM",
        ),
        // zero tenants once ran one silently
        (&["--tenants", "0"], 2, "--tenants must be at least 1"),
        // a warmup at or past the horizon measures no job, and the
        // headline would print zeros as if they were results
        (
            &["--warmup", "10"],
            2,
            "--warmup must be below the horizon of 10 s",
        ),
        (&["--warmup", "99999"], 2, "--warmup must be below"),
        (&["--trace", "bogus"], 2, "unknown trace"),
        (&["--workload", "martian"], 2, "unknown workload"),
        (
            &["--workload", "azure", "--trigger-mix", "50,30,20,10"],
            2,
            "sum to 100",
        ),
        (&["--faults", "outage=99999@1+1"], 2, "outage node 99999"),
        // a flag of the other workload family once ran the default one
        (
            &["--workload", "azure", "--trace", "wits"],
            2,
            "--trace cannot be combined with --workload azure",
        ),
        (&["--apps", "8"], 2, "--apps shapes the azure family"),
        (&["--tail-exp", "1.1"], 2, "--tail-exp shapes the azure"),
        (&["--trigger-mix", "40,30,20,10"], 2, "--trigger-mix shapes"),
    ] {
        // every check runs before the first file is written
        let dir = std::env::temp_dir().join(format!("fifer_cli_rejected_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let out = fifer()
            .current_dir(&dir)
            .args(["--rm", "bline", "--secs", "10"])
            .args(["--out", "s.csv", "--save-workload", "wl.csv"])
            .args(["--decision-trace", "dt.jsonl"])
            .args(args)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(code), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let left = std::fs::read_dir(&dir).expect("scratch dir").count();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(left, 0, "{args:?} left a file behind");
    }
}

#[test]
fn stream_flags_under_replay_are_named_errors() {
    // the replayed file fixes the workload: a flag that would shape a
    // generated stream is refused instead of silently ignored
    for args in [
        &["--mix", "light"][..],
        &["--trace", "wits"],
        &["--workload", "azure"],
        &["--rate", "10"],
        &["--secs", "60"],
        &["--apps", "8"],
        &["--tail-exp", "1.1"],
        &["--trigger-mix", "40,30,20,10"],
    ] {
        let out = fifer()
            .args(["--rm", "bline", "--replay", "wl.csv"])
            .args(args)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        let named = format!("error: {} cannot be combined with --replay", args[0]);
        assert!(err.contains(&named), "{args:?}: {err}");
    }
    let help = fifer().arg("--help").output().expect("spawn");
    let usage = String::from_utf8_lossy(&help.stderr);
    assert!(usage.contains("are rejected with it"), "{usage}");
    assert!(usage.contains("needs a forecasting RM"), "{usage}");
}

#[test]
fn closed_stdout_is_a_quiet_exit() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = fifer()
        .args([
            "--rm",
            "bline",
            "--rate",
            "10",
            "--secs",
            "120",
            "--seed",
            "3",
            "--compare",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut first = String::new();
    // the reader is dropped at the end of the statement, closing the pipe
    // long before the first RM's row is written
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.starts_with("workload:"), "{first}");
    let out = child.wait_with_output().expect("wait");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(out.status.code(), Some(141), "{err}");
}

#[test]
fn replay_of_far_future_arrival_fails_cleanly() {
    let path = std::env::temp_dir().join("fifer_cli_far_future.csv");
    std::fs::write(
        &path,
        "id,app,arrival_us,input_scale\n0,IPA,18446744073709551615,1.0\n",
    )
    .expect("write workload");
    let out = fifer()
        .args(["--rm", "bline", "--replay"])
        .arg(&path)
        .output()
        .expect("spawn");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot replay"), "{err}");
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("horizon cap"), "{err}");
}

#[test]
fn replay_of_huge_input_scale_fails_cleanly() {
    // a scale past `JobStream::MAX_INPUT_SCALE` once saturated the
    // simulator's clock: 1e15 panicked ("cannot schedule into the past")
    // and 1e12 ran for ages
    for scale in ["1e15", "1e12"] {
        let path = std::env::temp_dir().join(format!("fifer_cli_huge_scale_{scale}.csv"));
        std::fs::write(
            &path,
            format!("id,app,arrival_us,input_scale\n0,IPA,100,1.0\n1,IPA,200,{scale}\n"),
        )
        .expect("write workload");
        let out = fifer()
            .args(["--rm", "bline", "--replay"])
            .arg(&path)
            .output()
            .expect("spawn");
        let _ = std::fs::remove_file(&path);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{scale}: {err}");
        assert!(err.contains("cannot replay"), "{scale}: {err}");
        assert!(err.contains("line 3"), "{scale}: {err}");
        assert!(err.contains("above the cap of 1000"), "{scale}: {err}");
    }
}

#[test]
fn replay_spanning_two_mixes_fails_cleanly() {
    // IPA runs in the Heavy and Medium mixes, FaceSecurity only in Light:
    // no one mix's stage pools can route both
    let path = std::env::temp_dir().join("fifer_cli_two_mixes.csv");
    std::fs::write(
        &path,
        "id,app,arrival_us,input_scale\n0,IPA,100,1.0\n1,FaceSecurity,200,1.0\n",
    )
    .expect("write workload");
    let out = fifer()
        .args(["--rm", "bline", "--replay"])
        .arg(&path)
        .output()
        .expect("spawn");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot replay"), "{err}");
    assert!(err.contains("FaceSecurity, IPA"), "{err}");
    assert!(err.contains("no single workload mix"), "{err}");
}

#[test]
fn replay_warmup_is_checked_against_the_replayed_horizon() {
    // the last arrival at 1.5 s gives a replayed horizon of 3 s
    let path = std::env::temp_dir().join("fifer_cli_replay_warmup.csv");
    std::fs::write(
        &path,
        "id,app,arrival_us,input_scale\n0,IPA,100,1.0\n1,IPA,1500000,1.0\n",
    )
    .expect("write workload");
    let out = path.with_extension("out.csv");
    let _ = std::fs::remove_file(&out);
    let run = |warmup: &str| {
        fifer()
            .args(["--rm", "bline", "--warmup", warmup, "--replay"])
            .arg(&path)
            .arg("--out")
            .arg(&out)
            .output()
            .expect("spawn")
    };
    let past = run("3");
    // rejected before the summary file is written
    assert!(!out.exists());
    let inside = run("2");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&out);
    assert_eq!(past.status.code(), Some(2));
    let err = String::from_utf8_lossy(&past.stderr);
    assert!(
        err.contains("--warmup must be below the horizon of 3 s"),
        "{err}"
    );
    assert!(
        inside.status.success(),
        "{}",
        String::from_utf8_lossy(&inside.stderr)
    );
}

#[test]
fn replay_of_missing_file_fails_cleanly() {
    let out = fifer()
        .args(["--replay", "/nonexistent/wl.csv"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot replay"));
}

#[test]
fn model_cache_cold_then_warm_round_trip() {
    let dir = std::env::temp_dir().join("fifer_cli_model_cache_test");
    let _ = std::fs::remove_dir_all(&dir);

    let run = |label: &str| -> String {
        let out = fifer()
            .args([
                "--rm",
                "fifer",
                "--rate",
                "5",
                "--secs",
                "120",
                "--seed",
                "11",
                "--model-cache",
                dir.to_str().expect("utf-8 temp dir"),
            ])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{label}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    // first run trains cold and must say it stored a checkpoint
    let first = run("cold run");
    assert!(
        first.contains("trained cold, checkpoint stored"),
        "first run should report a cold start: {first}"
    );
    // an identical second run must warm-start from that checkpoint
    let second = run("warm run");
    assert!(
        second.contains("warm-started from model cache"),
        "second run should warm-start: {second}"
    );
    // warm-starting must not change the simulation: the summary rows
    // (slo/containers/latency percentiles) are byte-identical
    let row = |s: &str| {
        s.lines()
            .find(|l| l.trim_start().starts_with("Fifer") && !l.contains("predictor"))
            .map(str::to_owned)
    };
    assert_eq!(row(&first), row(&second), "warm start changed the results");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_model_cache_is_a_clean_error() {
    let out = fifer()
        .args(["--rm", "fifer", "--model-cache", "/proc/nonexistent/cache"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open model cache"));
}
