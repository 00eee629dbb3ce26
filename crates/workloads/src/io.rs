//! Workload persistence: save and load [`JobStream`]s as CSV so real
//! arrival traces (or expensive generated ones) can be replayed across
//! runs and shared between tools.
//!
//! The format is one header plus one line per job:
//!
//! ```csv
//! id,app,arrival_us,input_scale
//! 0,IPA,12345,1.02
//! ```

use crate::apps::{Application, WorkloadMix};
use crate::request::{JobRequest, JobStream};
use fifer_metrics::report::create_file;
use fifer_metrics::SimTime;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::str::FromStr;

/// Errors from parsing a workload file.
#[derive(Debug)]
pub enum ParseWorkloadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line (1-based line number and reason).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseWorkloadError::Io(e) => write!(f, "i/o error: {e}"),
            ParseWorkloadError::Malformed { line, reason } => {
                write!(f, "malformed workload at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseWorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseWorkloadError::Io(e) => Some(e),
            ParseWorkloadError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for ParseWorkloadError {
    fn from(e: io::Error) -> Self {
        ParseWorkloadError::Io(e)
    }
}

impl FromStr for Application {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Application::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| format!("unknown application {s:?}"))
    }
}

/// The CSV header line.
const HEADER: &str = "id,app,arrival_us,input_scale";

/// Writes a stream in the CSV format to `w`, line by line.
fn write_stream<W: Write>(stream: &JobStream, w: &mut W) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    for j in stream {
        writeln!(
            w,
            "{},{},{},{}",
            j.id,
            j.app,
            j.arrival.as_micros(),
            j.input_scale
        )?;
    }
    Ok(())
}

/// Writes a stream to `path` through a buffer (creating parent
/// directories).
///
/// # Errors
///
/// Returns any I/O error from directory creation or the write.
pub fn save_stream<P: AsRef<Path>>(stream: &JobStream, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(create_file(path)?);
    write_stream(stream, &mut w)?;
    w.flush()
}

/// Parses a stream from CSV text. The mix is the first [`WorkloadMix`]
/// whose pair of applications covers every job.
///
/// # Errors
///
/// Returns [`ParseWorkloadError::Malformed`] on the first bad line: jobs
/// must be in non-decreasing arrival order, none past
/// [`JobStream::MAX_HORIZON`], their input scales positive and at most
/// [`JobStream::MAX_INPUT_SCALE`], and their applications must belong to
/// one mix — the simulator only builds the stage pools of the stream's
/// mix.
pub fn stream_from_csv(text: &str) -> Result<JobStream, ParseWorkloadError> {
    read_stream(text.as_bytes())
}

/// [`stream_from_csv`] over a reader, parsing line by line straight into
/// the stream.
fn read_stream<R: BufRead>(mut r: R) -> Result<JobStream, ParseWorkloadError> {
    let mut stream = JobStream::new(WorkloadMix::ALL[0]);
    // the applications seen so far, as a bit per `Application::ALL` index
    let mut seen = 0u8;
    let mut prev_id = 0;
    let mut text = String::new();
    for i in 0.. {
        text.clear();
        if r.read_line(&mut text)? == 0 {
            break;
        }
        let line = match text.strip_suffix('\n') {
            Some(l) => l.strip_suffix('\r').unwrap_or(l),
            None => &text,
        };
        if i == 0 {
            if line.trim() != HEADER {
                return Err(ParseWorkloadError::Malformed {
                    line: 1,
                    reason: format!("unexpected header {line:?}"),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let bad = |reason: String| ParseWorkloadError::Malformed {
            line: i + 1,
            reason,
        };
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(bad(format!("expected 4 fields, got {}", fields.len())));
        }
        let id: u64 = fields[0].parse().map_err(|e| bad(format!("id: {e}")))?;
        let app: Application = fields[1].parse().map_err(bad)?;
        let arrival_us: u64 = fields[2]
            .parse()
            .map_err(|e| bad(format!("arrival_us: {e}")))?;
        let cap = JobStream::MAX_HORIZON;
        if arrival_us > cap.as_micros() {
            return Err(bad(format!(
                "arrival_us {arrival_us} is past the {} µs ({}-day) horizon cap",
                cap.as_micros(),
                cap.as_secs() / 86_400
            )));
        }
        let input_scale: f64 = fields[3]
            .parse()
            .map_err(|e| bad(format!("input_scale: {e}")))?;
        if !(input_scale.is_finite() && input_scale > 0.0) {
            return Err(bad(format!("input_scale {input_scale} must be positive")));
        }
        if input_scale > JobStream::MAX_INPUT_SCALE {
            return Err(bad(format!(
                "input_scale {input_scale} is above the cap of {}",
                JobStream::MAX_INPUT_SCALE
            )));
        }
        let arrival = SimTime::from_micros(arrival_us);
        if let Some(last) = stream.last_arrival().filter(|&last| arrival < last) {
            return Err(bad(format!(
                "jobs {prev_id} and {id} out of arrival order ({} µs, then {arrival_us} µs)",
                last.as_micros()
            )));
        }
        let bit = 1 << app as u8;
        if seen & bit == 0 {
            seen |= bit;
            if mix_covering(seen).is_none() {
                let apps: Vec<&str> = Application::ALL
                    .into_iter()
                    .filter(|&a| seen & (1 << a as u8) != 0)
                    .map(Application::name)
                    .collect();
                return Err(bad(format!(
                    "applications {} belong to no single workload mix",
                    apps.join(", ")
                )));
            }
        }
        stream.push(JobRequest {
            id,
            app,
            arrival,
            input_scale,
        });
        prev_id = id;
    }
    let mix = mix_covering(seen).expect("checked at every line");
    Ok(stream.with_mix(mix))
}

/// Loads a stream from a CSV file, reading it line by line.
///
/// # Errors
///
/// Propagates I/O errors (non-UTF-8 text included) and malformed content,
/// as [`stream_from_csv`] names it.
pub fn load_stream<P: AsRef<Path>>(path: P) -> Result<JobStream, ParseWorkloadError> {
    read_stream(BufReader::new(File::open(path)?))
}

/// The first mix whose two applications include every one in `seen` (a
/// bit per [`Application::ALL`] index, which is declaration order).
fn mix_covering(seen: u8) -> Option<WorkloadMix> {
    WorkloadMix::ALL.into_iter().find(|m| {
        let [a, b] = m.applications();
        seen & !((1 << a as u8) | (1 << b as u8)) == 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::PoissonTrace;
    use fifer_metrics::SimDuration;
    use std::fs;

    /// The CSV text [`save_stream`] writes.
    fn stream_to_csv(stream: &JobStream) -> String {
        let mut out = Vec::new();
        write_stream(stream, &mut out).expect("writing to a Vec");
        String::from_utf8(out).expect("CSV is UTF-8")
    }

    fn sample_stream() -> JobStream {
        JobStream::generate(
            &PoissonTrace::new(20.0),
            WorkloadMix::Medium,
            SimDuration::from_secs(10),
            3,
        )
    }

    #[test]
    fn csv_round_trips() {
        let original = sample_stream();
        let csv = stream_to_csv(&original);
        let parsed = stream_from_csv(&csv).expect("parse");
        assert_eq!(parsed.len(), original.len());
        assert_eq!(parsed.mix(), original.mix());
        for (a, b) in original.iter().zip(parsed.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.app, b.app);
            assert_eq!(a.arrival, b.arrival);
            assert!((a.input_scale - b.input_scale).abs() < 1e-12);
        }
    }

    #[test]
    fn file_round_trips() {
        let dir = std::env::temp_dir().join("fifer_workloads_io_test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested/stream.csv");
        let original = sample_stream();
        save_stream(&original, &path).expect("save");
        let loaded = load_stream(&path).expect("load");
        assert_eq!(loaded.len(), original.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mix_is_inferred_from_applications() {
        let csv = "id,app,arrival_us,input_scale\n0,IMG,100,1.0\n1,FaceSecurity,200,1.0\n";
        let s = stream_from_csv(csv).expect("parse");
        assert_eq!(s.mix(), WorkloadMix::Light);
        // IPA (Heavy, Medium) and FaceSecurity (Light) share no mix
        let csv = "id,app,arrival_us,input_scale\n0,IPA,100,1.0\n1,FaceSecurity,200,1.0\n";
        let err = stream_from_csv(csv).unwrap_err().to_string();
        assert!(err.contains("FaceSecurity, IPA"), "{err}");
        assert!(err.contains("no single workload mix"), "{err}");
    }

    #[test]
    fn bad_header_rejected() {
        let err = stream_from_csv("nope\n").unwrap_err();
        assert!(matches!(err, ParseWorkloadError::Malformed { line: 1, .. }));
    }

    #[test]
    fn bad_field_counts_rejected() {
        let csv = "id,app,arrival_us,input_scale\n0,IPA,100\n";
        let err = stream_from_csv(csv).unwrap_err();
        assert!(err.to_string().contains("expected 4 fields"));
    }

    #[test]
    fn unknown_application_rejected() {
        let csv = "id,app,arrival_us,input_scale\n0,Nonsense,100,1.0\n";
        let err = stream_from_csv(csv).unwrap_err();
        assert!(err.to_string().contains("unknown application"));
    }

    #[test]
    fn non_positive_scale_rejected() {
        let csv = "id,app,arrival_us,input_scale\n0,IPA,100,0.0\n";
        assert!(stream_from_csv(csv).is_err());
    }

    #[test]
    fn out_of_order_arrivals_rejected() {
        let csv = "id,app,arrival_us,input_scale\n0,IPA,200,1.0\n1,IPA,100,1.0\n";
        let err = stream_from_csv(csv).unwrap_err();
        assert!(err.to_string().contains("out of arrival order"), "{err}");
        // the offending line is named, past an empty line and an equal arrival
        let csv = "id,app,arrival_us,input_scale\n0,IPA,200,1.0\n\n1,IPA,200,1.0\n2,IPA,199,1.0\n";
        let err = stream_from_csv(csv).unwrap_err();
        assert!(
            matches!(err, ParseWorkloadError::Malformed { line: 5, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("jobs 1 and 2"), "{err}");
    }

    #[test]
    fn input_scales_above_the_cap_rejected() {
        let cap = JobStream::MAX_INPUT_SCALE;
        let at_cap = format!("id,app,arrival_us,input_scale\n0,IPA,100,{cap}\n");
        assert_eq!(stream_from_csv(&at_cap).expect("parse").len(), 1);
        for scale in ["1000.0000001", "1e12", "1e15", "inf", "NaN"] {
            let csv = format!("id,app,arrival_us,input_scale\n0,IPA,100,1.0\n1,IPA,200,{scale}\n");
            let err = stream_from_csv(&csv).unwrap_err();
            assert!(
                matches!(err, ParseWorkloadError::Malformed { line: 3, .. }),
                "{scale}: {err}"
            );
        }
        let csv = "id,app,arrival_us,input_scale\n0,IPA,100,1e15\n";
        let err = stream_from_csv(csv).unwrap_err().to_string();
        assert!(err.contains("above the cap of 1000"), "{err}");
    }

    #[test]
    fn crlf_lines_and_a_missing_final_newline_parse() {
        let csv = "id,app,arrival_us,input_scale\r\n0,IPA,100,1.5\r\n1,IPA,200,1.25";
        let s = stream_from_csv(csv).expect("parse");
        let scales: Vec<f64> = s.iter().map(|j| j.input_scale).collect();
        assert_eq!(scales, [1.5, 1.25]);
    }

    #[test]
    fn arrivals_past_the_horizon_cap_rejected() {
        let cap = JobStream::MAX_HORIZON.as_micros();
        let at_cap = format!("id,app,arrival_us,input_scale\n0,IPA,{cap},1.0\n");
        assert_eq!(stream_from_csv(&at_cap).expect("parse").len(), 1);
        for arrival in [cap + 1, u64::MAX] {
            let csv =
                format!("id,app,arrival_us,input_scale\n0,IPA,100,1.0\n1,IPA,{arrival},1.0\n");
            let err = stream_from_csv(&csv).unwrap_err();
            assert!(
                matches!(err, ParseWorkloadError::Malformed { line: 3, .. }),
                "{err}"
            );
            assert!(err.to_string().contains("horizon cap"), "{err}");
        }
    }

    #[test]
    fn empty_lines_are_skipped() {
        let csv = "id,app,arrival_us,input_scale\n0,IPA,100,1.0\n\n";
        let s = stream_from_csv(csv).expect("parse");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn application_from_str_round_trips() {
        for app in Application::ALL {
            let parsed: Application = app.to_string().parse().expect("round trip");
            assert_eq!(parsed, app);
        }
        assert!("garbage".parse::<Application>().is_err());
    }
}
