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
    assert!(
        err.contains("--harvest"),
        "usage must document --harvest: {err}"
    );
    assert!(
        err.contains("--rightsize"),
        "usage must document --rightsize: {err}"
    );
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
    assert!(stdout.contains("no violations"), "{stdout}");
}

#[test]
fn harvest_flags_bolt_onto_any_rm() {
    let out = fifer()
        .args([
            "--rm",
            "bline",
            "--rate",
            "5",
            "--secs",
            "60",
            "--seed",
            "7",
            "--harvest",
            "--rightsize",
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
    assert!(stdout.contains("Bline"), "{stdout}");
    assert!(
        stdout.contains("harvest spawns"),
        "--harvest on bline must actually lease idle headroom: {stdout}"
    );
    assert!(stdout.contains("rightsized"), "{stdout}");
    assert!(stdout.contains("no violations"), "{stdout}");
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
    // a legal custom family shape runs...
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
    // ...an unbalanced trigger mix is a named usage error
    let bad = fifer()
        .args(["--workload", "azure", "--trigger-mix", "50,30,20,10"])
        .output()
        .expect("spawn");
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("sum to 100"));
    // ...and so is an unknown family
    let unknown = fifer()
        .args(["--workload", "martian"])
        .output()
        .expect("spawn");
    assert_eq!(unknown.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown workload"));
}

#[test]
fn malformed_fault_spec_is_rejected() {
    let out = fifer()
        .args(["--faults", "warp=0.5"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown fault key"), "{err}");
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
