//! `--calibrate N`: N sets of end-to-end runs and the table the regression
//! bounds come from.
//!
//! A set is what the driver compares: `--runs K` runs of every workload
//! (10 by default), run `k` with seed `seed + k`, each in a child process
//! of its own; the set's value of a metric is the median over its runs.
//! Every set uses the same seeds, so the sets differ by what the machine
//! did and by nothing else, and the sets are interleaved — run `k` of
//! every set before run `k + 1` of any — so a slow quarter of an hour
//! slows all of them alike. Per workload × metric the table gives the
//! median of the set medians, the widest interquartile distance inside a
//! set as a share of its median (the driver's spread measure) and the
//! largest pairwise relative gap between set medians; per metric it
//! derives the bound max(5 %, 2 × the worst gap over the workloads).

use std::fmt::Write as _;
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::RunResult;
use crate::metrics::END_TO_END;
use crate::stats::{iqr_share, largest_gap, median};
use crate::workloads::Workload;
use crate::WATCHDOG;

/// Runs one workload in a child process under a wall-clock watchdog.
fn run_child(w: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > WATCHDOG + Duration::from_secs(5) => {
                // The child's own watchdog should have fired already.
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{} (seed {seed}) hung and was killed", w.name()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => return Err(format!("cannot wait for the {} run: {e}", w.name())),
        }
    };
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        stdout
            .read_to_string(&mut out)
            .map_err(|e| format!("cannot read the child's output: {e}"))?;
    }
    if !status.success() {
        return Err(format!("{} (seed {seed}) exited with {status}", w.name()));
    }
    let line = out
        .lines()
        .last()
        .ok_or(format!("{} printed no result", w.name()))?;
    RunResult::from_json(line).map_err(|e| format!("{}: bad result line: {e}", w.name()))
}

/// Runs `sets` interleaved sets of `runs` runs per workload and renders
/// the calibration table as Markdown.
///
/// # Errors
/// When a child run fails, hangs or reports incorrect outputs.
pub fn calibrate(sets: usize, runs: usize, seed: u64, seconds: f64) -> Result<String, String> {
    // values[set][workload][metric] = one value per run.
    let mut values =
        vec![vec![vec![Vec::with_capacity(runs); END_TO_END.len()]; Workload::ALL.len()]; sets];
    let mut failed_ops = 0u64;
    for k in 0..runs {
        for (set, of_set) in values.iter_mut().enumerate() {
            for (wi, w) in Workload::ALL.into_iter().enumerate() {
                let run_seed = seed + k as u64;
                let r = run_child(w, run_seed, seconds)?;
                if !r.correct {
                    return Err(format!("{} (seed {run_seed}) was not correct", w.name()));
                }
                failed_ops += r.failed;
                for (mi, decl) in END_TO_END.iter().enumerate() {
                    let (_, m) = r
                        .metrics
                        .iter()
                        .find(|(name, _)| name == decl.name)
                        .ok_or(format!("{} did not report {}", w.name(), decl.name))?;
                    of_set[wi][mi].push(m.value);
                }
            }
            eprintln!(
                "calibrate: run {}/{runs} of set {}/{sets} done",
                k + 1,
                set + 1
            );
        }
    }

    let mut table = format!(
        "Calibration: {sets} interleaved sets of {runs} runs per workload, seeds {seed}..{}, \
         --seconds {seconds}, {failed_ops} failed operations\n\n\
         | workload | metric | unit | median of set medians | widest IQR / median in a set | largest gap between set medians |\n\
         |---|---|---|---|---|---|\n",
        seed + runs as u64 - 1
    );
    let mut worst_gap = vec![0.0f64; END_TO_END.len()];
    let mut worst_iqr = vec![0.0f64; END_TO_END.len()];
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        for (mi, decl) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = values
                .iter()
                .map(|of_set| median(&of_set[wi][mi]))
                .collect();
            let gap = largest_gap(&medians);
            let iqr = values
                .iter()
                .map(|of_set| iqr_share(&of_set[wi][mi]))
                .fold(0.0, f64::max);
            worst_gap[mi] = worst_gap[mi].max(gap);
            worst_iqr[mi] = worst_iqr[mi].max(iqr);
            let _ = writeln!(
                table,
                "| {} | {} | {} | {:.5} | {:.2} % | {:.2} % |",
                w.name(),
                decl.name,
                decl.unit,
                median(&medians),
                iqr * 100.0,
                gap * 100.0
            );
        }
    }
    table.push_str(
        "\n| metric | widest IQR / median | largest gap | bound = max(5 %, 2 × gap) |\n|---|---|---|---|\n",
    );
    for (mi, decl) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            table,
            "| {} | {:.2} % | {:.2} % | {:.1} % |",
            decl.name,
            worst_iqr[mi] * 100.0,
            worst_gap[mi] * 100.0,
            (2.0 * worst_gap[mi]).max(0.05) * 100.0
        );
    }
    Ok(table)
}
