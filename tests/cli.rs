//! End-to-end tests of the `fifer` CLI binary: argument handling, a real
//! run, and the save/replay round trip.

use std::collections::{BTreeMap, HashMap};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The workload the `--replay` row replays, present in every scratch
/// run's directory: three IPA jobs over 4 s.
const REPLAY_CSV: &str =
    "id,app,arrival_us,input_scale\n0,IPA,100000,1.0\n1,IPA,2000000,1.0\n2,IPA,4000000,1.5\n";

/// What one run shows: its exit status, its output and every file it left
/// in its working directory (a directory reads as empty).
#[derive(Debug, PartialEq)]
struct Outcome {
    code: Option<i32>,
    stdout: String,
    stderr: String,
    files: BTreeMap<String, Vec<u8>>,
}

/// Runs `fifer` with the whitespace-separated `args` in a fresh directory
/// holding only `replay.csv`.
fn run_in_scratch(args: &str) -> Outcome {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fifer_cli_run_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join("replay.csv"), REPLAY_CSV).expect("write the replay fixture");
    let out = fifer()
        .current_dir(&dir)
        .args(args.split_whitespace())
        .output()
        .expect("spawn");
    let files = std::fs::read_dir(&dir)
        .expect("scratch dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().into_string().expect("utf-8 name");
            (name, std::fs::read(e.path()).unwrap_or_default())
        })
        .filter(|(name, _)| name != "replay.csv")
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        files,
    }
}

/// The short run most flag rows start from.
const SMALL: &str = "--rm bline --rate 5 --secs 30 --seed 3";

/// [`SMALL`] on the azure family.
const AZURE: &str = "--rm bline --rate 5 --secs 30 --seed 3 --workload azure";

/// [`SMALL`] under Fifer, whose LSTM a model cache can hold.
const FIFER: &str = "--rm fifer --rate 5 --secs 30 --seed 3";

/// The flag surface: one row per flag `fifer --help` prints, a base
/// command line and the flag with its value, appended to it. The flag
/// must change the run's stdout or a file it writes. Flags are read left
/// to right, so a row may override a flag its base sets.
const SURFACE: [(&str, &str); 24] = [
    (SMALL, "--rm sbatch"),
    (SMALL, "--compare"),
    (SMALL, "--workload azure"),
    (AZURE, "--apps 8"),
    (AZURE, "--tail-exp 1.1"),
    (AZURE, "--trigger-mix 40,30,20,10"),
    (SMALL, "--trace wits"),
    (SMALL, "--mix light"),
    (SMALL, "--rate 6"),
    (SMALL, "--secs 40"),
    (SMALL, "--warmup 1"),
    (SMALL, "--seed 4"),
    (SMALL, "--large"),
    (SMALL, "--early-exit 0.5"),
    (FIFER, "--tenants 3"),
    // the replayed file fixes the workload: no stream flag in the base
    ("--rm bline --seed 3", "--replay replay.csv"),
    (SMALL, "--save-workload wl.csv"),
    (SMALL, "--out s.csv"),
    (SMALL, "--json r.json"),
    (SMALL, "--decision-trace dt.jsonl"),
    (SMALL, "--faults seed=7,crash=0.05,outage=1@5+5"),
    (FIFER, "--model-cache mc"),
    // the first retrain comes after 30 monitor samples (300 s)
    (
        "--rm fifer --rate 10 --secs 400 --seed 3",
        "--online-retrain",
    ),
    (SMALL, "--audit"),
];

/// The first word of `args`: the flag of a row.
fn flag(args: &str) -> &str {
    args.split_whitespace().next().expect("a flag")
}

/// Every flag `--help` prints changes a run, deterministically, and no
/// row names a flag `--help` no longer prints. The flags that act on a
/// predictor are refused, naming themselves, under every RM whose
/// predictor they cannot touch.
#[test]
fn every_help_flag_changes_a_run() {
    let help = fifer().arg("--help").output().expect("spawn");
    let help = String::from_utf8_lossy(&help.stderr);
    let printed: Vec<&str> = help
        .lines()
        .filter(|l| l.starts_with("--"))
        .map(flag)
        .collect();
    let rows: Vec<&str> = SURFACE.iter().map(|(_, with)| flag(with)).collect();
    for flag in &printed {
        assert!(rows.contains(flag), "{flag} has no row in SURFACE");
    }
    for flag in &rows {
        assert!(printed.contains(flag), "--help no longer prints {flag}");
    }

    let mut bases: HashMap<&str, Outcome> = HashMap::new();
    for (base, with) in SURFACE {
        let before = bases.entry(base).or_insert_with(|| run_in_scratch(base));
        assert_eq!(before.code, Some(0), "{base}: {}", before.stderr);
        let args = format!("{base} {with}");
        let after = run_in_scratch(&args);
        assert_eq!(after.code, Some(0), "{args}: {}", after.stderr);
        assert!(
            (&after.stdout, &after.files) != (&before.stdout, &before.files),
            "{} is inert on {base}",
            flag(with)
        );
        assert_eq!(after, run_in_scratch(&args), "{args} is not deterministic");
    }

    for rm in [
        "bline",
        "sbatch",
        "rscale",
        "bpred",
        "harvest",
        "hybridhist",
    ] {
        for with in ["--model-cache mc", "--online-retrain"] {
            let args = format!("--rm {rm} {with}");
            let refused = run_in_scratch(&args);
            assert_eq!(refused.code, Some(2), "{args}");
            let named = format!("error: {} needs", flag(with));
            assert!(
                refused.stderr.contains(&named),
                "{args}: {}",
                refused.stderr
            );
            assert!(refused.files.is_empty(), "{args} left {:?}", refused.files);
        }
    }
}

/// The `--decision-trace` file is, byte for byte, the JSON Lines of the
/// last RM's trace, as the library records it for the same scenario.
#[test]
fn decision_trace_file_is_the_last_rms_trace() {
    use fifer::prelude::*;
    let ran = run_in_scratch(&format!("{SMALL} --compare --decision-trace dt.jsonl"));
    assert_eq!(ran.code, Some(0), "{}", ran.stderr);
    let scenario = Scenario {
        rate: 5.0,
        secs: 30,
        seed: 3,
        ..Scenario::default()
    };
    let stream = scenario.stream();
    let mut cfg = scenario.config(RmKind::HybridHist.config(), &stream);
    cfg.trace.capacity = 1 << 20;
    let (_, trace) = Simulation::new(cfg, &stream).run_with_trace();
    assert!(!trace.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&ran.files["dt.jsonl"]),
        trace.to_jsonl()
    );
}

/// A run past the ring's 2^20 decisions says how many it kept of how
/// many, and the file holds the most recent ones. Slow lane: the file
/// takes about 96 MB.
#[test]
#[ignore]
fn decision_trace_names_the_decisions_it_dropped() {
    let out =
        run_in_scratch("--rm bline --rate 150 --secs 2400 --seed 42 --decision-trace dt.jsonl");
    assert_eq!(out.code, Some(0), "{}", out.stderr);
    let kept = 1u64 << 20;
    let total: u64 = out
        .stderr
        .trim()
        .strip_prefix(&format!("--decision-trace kept the last {kept} of "))
        .and_then(|rest| rest.strip_suffix(" decisions"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no dropped-decisions line: {}", out.stderr));
    assert!(total > kept, "{}", out.stderr);
    let file = String::from_utf8_lossy(&out.files["dt.jsonl"]);
    assert_eq!(file.lines().count() as u64, kept);
    let first = format!("{{\"seq\":{},", total - kept);
    assert!(file.starts_with(&first), "{}", &file[..80]);
}

#[test]
fn small_run_prints_summary_row() {
    let out = run_in_scratch(SMALL);
    assert_eq!(out.code, Some(0), "{}", out.stderr);
    assert!(out.stdout.contains("Bline"), "{}", out.stdout);
    assert!(out.stdout.contains("jobs over 30s"), "{}", out.stdout);
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
    let out = run_in_scratch(&format!("{SMALL} --json r.json"));
    assert_eq!(out.code, Some(0), "{}", out.stderr);
    let body = String::from_utf8_lossy(&out.files["r.json"]);
    assert!(body.contains("\"records\""));
    assert!(body.contains("\"total_spawns\""));
    assert!(body.contains("\"energy_joules\""));
}

/// `--json` under `--compare` prints one document: the last RM's, not
/// one per RM.
#[test]
fn compare_prints_one_json_document() {
    let out = fifer()
        .args("--compare --rate 5 --secs 30 --seed 3 --json /dev/stdout".split_whitespace())
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().filter(|l| *l == "{").count(), 1, "{stdout}");
}

/// The `--json` file under `--compare` is, byte for byte, the file the
/// same command line writes for the last RM alone; an unwritable path
/// fails before any run.
#[test]
fn compare_json_file_is_the_last_rms_file() {
    let compared = run_in_scratch("--compare --rate 5 --secs 30 --seed 3 --json r.json");
    let alone = run_in_scratch("--rm hybridhist --rate 5 --secs 30 --seed 3 --json r.json");
    assert_eq!(compared.code, Some(0), "{}", compared.stderr);
    assert_eq!(alone.code, Some(0), "{}", alone.stderr);
    assert!(compared.files["r.json"] == alone.files["r.json"]);

    let refused = run_in_scratch("--compare --rate 5 --secs 30 --seed 3 --json /proc/none/r.json");
    assert_eq!(refused.code, Some(1));
    assert!(refused.stderr.contains("cannot write /proc/none/r.json"));
    assert!(refused.stdout.is_empty(), "{}", refused.stdout);
}

#[test]
fn tenants_flag_is_accepted() {
    let out = run_in_scratch("--rm fifer --rate 4 --secs 15 --tenants 3");
    assert_eq!(out.code, Some(0), "{}", out.stderr);
    assert!(out.stdout.contains("Fifer"), "{}", out.stdout);
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
    let run = |args: &str| -> String {
        let out = run_in_scratch(args);
        assert_eq!(out.code, Some(0), "{args}: {}", out.stderr);
        out.stdout
    };
    let base = "--rm fifer --rate 10 --secs 400 --seed 3";
    let frozen = run(base);
    let online = run(&format!("{base} --online-retrain"));
    assert_ne!(
        frozen, online,
        "retraining the LSTM online must change the run's scaling"
    );
    assert_eq!(
        online,
        run(&format!("{base} --online-retrain")),
        "online retraining is deterministic"
    );
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
    let out = run_in_scratch(
        "--rm bline --workload azure --apps 8 --tail-exp 1.1 \
         --trigger-mix 40,30,20,10 --rate 10 --secs 30",
    );
    assert_eq!(out.code, Some(0), "{}", out.stderr);
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
        // a parent that is not a directory cannot be created, even by root
        (
            &["--decision-trace", "/dev/null/x.jsonl"],
            1,
            "cannot write /dev/null/x.jsonl",
        ),
        (&["--secs", "2592001"], 2, "--secs must be at most 2592000"),
        (
            &["--rate", "1e9", "--secs", "1"],
            2,
            "--rate × --secs must be",
        ),
        // only the LSTM retrains online, and only a neural predictor has
        // a checkpoint to cache: the flags were once accepted and inert
        (
            &["--online-retrain"],
            2,
            "--online-retrain needs an LSTM-forecasting RM",
        ),
        (
            &["--online-retrain", "--rm", "bpred"],
            2,
            "--online-retrain needs an LSTM-forecasting RM",
        ),
        (
            &["--model-cache", "mc"],
            2,
            "--model-cache needs a neural predictor",
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
        let writes = "--out s.csv --save-workload wl.csv --decision-trace dt.jsonl";
        let out = run_in_scratch(&format!("--rm bline --secs 10 {writes} {}", args.join(" ")));
        assert_eq!(out.code, Some(code), "{args:?}");
        assert!(out.stderr.contains(message), "{args:?}: {}", out.stderr);
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(out.files.is_empty(), "{args:?} left {:?}", out.files.keys());
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
    assert!(usage.contains("needs an LSTM-forecasting RM"), "{usage}");
    assert!(usage.contains("needs a neural predictor"), "{usage}");
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
