//! The repo's benchmark: six closed-loop workloads over the public API of
//! the crates, five end-to-end metrics, and a traced pass that splits the
//! cycle layer by layer. See `README.md` beside this crate.
//!
//! ```text
//! pgse-benchmark --workload <name> [--seed 118] [--seconds 10] [--trace 0|1] [--quick]
//! pgse-benchmark --calibrate <N> [--runs 10] [--seed 118] [--seconds 10]
//! ```
//!
//! One process runs one workload and prints, as the last line of its
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. It exits 0 when the outputs were right, 1 when
//! the correctness gate failed, 2 on a usage or set-up error and 3 when
//! its own watchdog fired.

mod calibrate;
mod json;
mod layers;
mod metrics;
mod replay;
mod spans;
mod stats;
mod tiles;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use json::{Metric, RunResult};
use metrics::END_TO_END;
use spans::Tracer;
use workloads::{Pass, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 118;
/// Run length used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;
/// Runs per workload in one calibration set: what the driver takes a
/// median over.
const DEFAULT_RUNS: usize = 10;
/// A single run must end well inside the driver's 180 s limit; past this
/// the watchdog reports the hang and exits.
pub const WATCHDOG: Duration = Duration::from_secs(170);

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Counts ÷ 10 and a failing correctness gate does not fail the run:
    /// smoke use only.
    quick: bool,
    calibrate: Option<usize>,
    /// Runs of every workload in one calibration set.
    runs: usize,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: pgse-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       \
         pgse-benchmark --calibrate N [--runs K] [--seed N] [--seconds S]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        calibrate: None,
        runs: DEFAULT_RUNS,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--calibrate" => {
                let n: usize = value()?.parse().map_err(|_| "--calibrate takes a count")?;
                if n < 2 {
                    return Err("--calibrate needs at least 2 sets".into());
                }
                args.calibrate = Some(n);
            }
            "--runs" => {
                args.runs = value()?.parse().map_err(|_| "--runs takes a count")?;
                if args.runs < 2 {
                    return Err("--runs needs at least 2 runs per set".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && args.calibrate.is_none() {
        return Err("--workload or --calibrate is required".into());
    }
    Ok(args)
}

/// The end-to-end pass: median of repeated cold set-ups, then one full
/// run with tracing off.
fn end_to_end_run(
    w: Workload,
    n_events: usize,
    seed: u64,
) -> Result<(RunResult, Vec<String>), String> {
    let setup_s = workloads::median_setup_seconds(w, n_events, seed)?;
    let off = Tracer::off();
    let pass: Pass = workloads::run(workloads::setup(w, n_events, seed, &off)?, n_events, &off);
    let blocks = stats::blocks(&pass.events, stats::n_cpus());
    let quiet = stats::quiet_blocks(&blocks);
    let lat = stats::block_latencies(&pass.events, &quiet);
    let (tail_p, tail_ms) = stats::supported_tail(&lat, &[0.90, 0.99]);
    eprintln!(
        "{}: {} events, {} of {} blocks quiet (most steal in one {:.1} %), {} latency samples in them, \
         p50 {:.4} ms, p{:.0} {:.4} ms ({})",
        w.name(),
        pass.events.len(),
        quiet.len(),
        blocks.len(),
        quiet.iter().map(|b| b.steal_share).fold(0.0, f64::max) * 100.0,
        lat.len(),
        stats::median(&lat),
        tail_p * 100.0,
        tail_ms,
        w.operation(),
    );
    let values = [
        stats::median(&lat),
        stats::block_throughput(&quiet),
        stats::block_cpu_ms_per_op(&quiet),
        stats::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        setup_s,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(d, value)| {
            (
                d.name.to_string(),
                Metric {
                    value,
                    unit: d.unit.to_string(),
                },
            )
        })
        .collect();
    let result = RunResult {
        correct: pass.problems.is_empty(),
        attempted: pass.attempted,
        failed: pass.failed,
        metrics,
    };
    Ok((result, pass.problems))
}

/// Where the traced pass of `w` writes its spans: `out/` beside the
/// crate's manifest, wherever the run was started from.
fn trace_path(w: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{}.json", w.name()))
}

fn run_workload(w: Workload, args: &Args) -> Result<(RunResult, Vec<String>), String> {
    let seconds = if args.quick {
        args.seconds / 10.0
    } else {
        args.seconds
    };
    let n_events = w.n_events(seconds);
    if args.trace {
        layers::traced_run(w, n_events, args.seed, &trace_path(w))
    } else {
        end_to_end_run(w, n_events, args.seed)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(sets) = args.calibrate {
        return match calibrate::calibrate(sets, args.runs, args.seed, args.seconds) {
            Ok(table) => {
                println!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let w = args
        .workload
        .expect("parse_args requires a workload without --calibrate");

    // Watchdog: a run that hangs is reported and ended, never left to the
    // driver's kill. The run signals completion over the channel.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if done_rx.recv_timeout(WATCHDOG) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!(
                "error: {} did not finish within {WATCHDOG:?}; giving up",
                w.name()
            );
            std::process::exit(3);
        }
    });
    let outcome = run_workload(w, &args);
    drop(done_tx);
    watchdog.join().expect("watchdog thread does not panic");

    let (result, problems) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", w.name());
            return ExitCode::from(2);
        }
    };
    for p in &problems {
        eprintln!("incorrect: {}: {p}", w.name());
    }
    match result.to_json() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {}: {e}", w.name());
            return ExitCode::from(2);
        }
    }
    if result.correct || args.quick {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use std::collections::BTreeSet;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload fanout118 --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Fanout118));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 10.0, true, false)
        );
        let d = parse_args(&argv("--workload steady118")).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse_args(&argv("--workload nosuch")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload steady118 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload steady118 --seconds 0")).is_err());
        let c = parse_args(&argv("--calibrate 3 --runs 5")).unwrap();
        assert_eq!((c.calibrate, c.runs), (Some(3), 5));
        assert!(parse_args(&argv("--calibrate 3 --runs 1")).is_err());
    }

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// workloads and metrics this crate prints, each once, with the same
    /// units — and stay inside the contract's limits.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json is valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .expect("key present")
                .items()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(json::Value::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), expected);
        for (key, decls) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).expect("key present").items();
            assert_eq!(listed.len(), decls.len(), "{key} length");
            for (m, d) in listed.iter().zip(decls) {
                assert_eq!(m.get("name").and_then(json::Value::as_str), Some(d.name));
                assert_eq!(
                    m.get("unit").and_then(json::Value::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    m.get("better").and_then(json::Value::as_str),
                    Some(d.better),
                    "{}",
                    d.name
                );
            }
        }
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "every name is used once"
        );
        assert!(all.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        for m in doc.get("end_to_end").expect("end_to_end").items() {
            let Some(json::Value::Number(bound)) = m.get("bound") else {
                panic!("bound missing")
            };
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
    }

    /// Two `--quick`-length passes of one seed must give identical counts:
    /// the stream's seeded fault accounting, the prototype's exchanged
    /// bytes, the sweep's verdicts and the fan-out's encoded bytes.
    #[test]
    fn same_seed_quick_runs_give_identical_counts() {
        fn counts(w: Workload) -> Vec<u64> {
            let n = w.n_events(DEFAULT_SECONDS / 10.0);
            let off = Tracer::off();
            let ready = workloads::setup(w, n, 118, &off).expect("set-up succeeds");
            let pass = workloads::run(ready, n, &off);
            assert!(
                pass.problems.is_empty(),
                "{}: {:?}",
                w.name(),
                pass.problems
            );
            let ops = pass.events.iter().map(|e| e.ops).sum();
            let mut c = vec![pass.attempted, pass.failed, ops];
            match pass.detail {
                workloads::Detail::Stream(s) => {
                    let r = s.report;
                    c.extend([
                        r.frames_published,
                        r.gn_iterations,
                        r.gain_solves,
                        r.batched_lanes,
                        r.refactor_reuse,
                        r.refactor_full,
                        r.gross_injected,
                        r.rtu_outages,
                        r.suspect_frames,
                        r.cleared_by_lnr,
                        r.frames_restored,
                        r.degraded_area_rounds,
                        r.bad_data_removed,
                        r.pseudo_added,
                    ]);
                }
                workloads::Detail::Proto(p) => {
                    c.extend([p.frames, p.exchanged_bytes, p.pcg_solves, p.pcg_iterations]);
                }
                workloads::Detail::Screen(s) => {
                    c.extend([s.enumerated, s.screened, s.suspects, s.violated_per_cycle]);
                }
                workloads::Detail::Fanout(f) => {
                    c.extend([
                        f.serve.published,
                        f.serve.delivered,
                        f.serve.bytes_encoded,
                        f.serve.encodes_delta,
                    ]);
                }
            }
            c
        }
        for w in Workload::ALL {
            assert_eq!(
                counts(w),
                counts(w),
                "{} counts differ between same-seed runs",
                w.name()
            );
        }
    }
}
