//! SQL-to-result benchmark of det, UA and AU queries on the row and the
//! vectorized engine.
//!
//! ```text
//! uabench --workload <pdbench|analytics|point-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one client, closed loop. Inputs and the round of
//! operations are derived from the seed; the run loads them into a det, a
//! UA and an AU session (several times, for `setup_s`), checks one round's
//! answers against computations made apart from the engines, then repeats
//! whole rounds for `--seconds`. With `--trace 0` it prints the end-to-end
//! metrics, with `--trace 1` the per-layer metrics of a traced pass. The
//! last line of standard output is the JSON result; see README.md.

mod check;
mod inputs;
mod runner;
mod traced;
mod workloads;

use inputs::{Digest, Inputs, State};
use runner::{checked_round, ops_digest, timed_round, Sem, Sessions};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Vectorized worker threads: fixed, never taken from `UA_VEC_THREADS` or
/// auto-detection. One worker: on a shared two-core host, two workers made
/// the vectorized timings spread about twice as widely as the row engine's
/// between runs, since a parallel section waits for its slower half.
const VEC_THREADS: usize = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Timed rounds a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric `name` with `value` in `unit`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A memory figure of this process from `/proc/self/status` (`VmHWM` is
/// the peak resident set, `VmRSS` the current one), in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("uabench: {e}");
            eprintln!(
                "usage: uabench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::workload(&args.workload, args.seed) else {
        eprintln!(
            "uabench: unknown workload {}; choose one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    ua_vecexec::install();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };

    let inputs = Inputs::generate(w.scale, args.seed, &w.refreshed, w.uncertainty);
    let mut digest = Digest::default();
    inputs.digest_into(&mut digest);
    println!(
        "# workload={} seed={} nproc={nproc} vec_threads={VEC_THREADS} profile={profile}",
        w.name, args.seed
    );
    let sizes: Vec<String> = inputs
        .sizes()
        .iter()
        .map(|(n, s)| format!("{n}={s}"))
        .collect();
    println!(
        "# rows {} uncertainty={} refreshed={}",
        sizes.join(" "),
        w.uncertainty,
        w.refreshed.join(",")
    );
    println!(
        "# digest inputs={:016x} ops={:016x}",
        digest.finish(),
        ops_digest(&w)
    );
    println!("# inputs resident: {:.1} MB", status_mb("VmRSS:"));

    let xdb0 = inputs.xdb(&State::new());
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPEATS {
        drop(loaded.take());
        let (sessions, times) = Sessions::load(&inputs, &xdb0, VEC_THREADS);
        setups.push(times);
        loaded = Some(sessions);
    }
    drop(xdb0);
    let sessions = loaded.expect("at least one set-up");

    let (expected, first) = checked_round(&w, &inputs, &sessions, args.seed);
    println!(
        "# counts per round: ua_certain_rows={} au_certain_rows={} au_ranged_cells={}",
        expected.ua_certain_rows, expected.au_certain_rows, expected.au_ranged_cells
    );
    for line in expected.failed.values() {
        println!("# failed: {line}");
    }
    let mut attempted = first.attempted;
    let mut failed = first.failed;
    let mut mismatches = 0u64;
    let seconds = Duration::from_secs_f64(args.seconds);

    let metrics = if args.trace {
        let (m, a, f) = traced::run(
            &w,
            &inputs,
            &sessions,
            &expected,
            args.seconds,
            &setups,
            &mut mismatches,
        );
        attempted += a;
        failed += f;
        m
    } else {
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.len() < MIN_ROUNDS || start.elapsed() < seconds {
            let tally = timed_round(&w, &inputs, &sessions, &expected, &mut mismatches);
            attempted += tally.attempted;
            failed += tally.failed;
            rounds.push(tally);
        }
        let mut m = vec![Metric::new(
            "setup_s",
            median(setups.iter().map(|s| s.total().as_secs_f64()).collect()),
            "s",
        )];
        for sem in [Sem::Det, Sem::Ua, Sem::Au] {
            for engine in ["row", "vec"] {
                let times: Vec<f64> = rounds
                    .iter()
                    .map(|r| {
                        r.time
                            .get(&(sem, engine))
                            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
                    })
                    .collect();
                m.push(Metric::new(
                    &format!("{}_{engine}_ms", sem.name()),
                    median(times),
                    "ms",
                ));
            }
        }
        // Per round, the mean refresh: rounds refresh tables of different
        // sizes, so a median over single refreshes would fall between them.
        let refreshes: Vec<f64> = rounds
            .iter()
            .map(|r| {
                let total: Duration = r.refreshes.iter().sum();
                total.as_secs_f64() * 1e3 / r.refreshes.len().max(1) as f64
            })
            .collect();
        m.push(Metric::new("refresh_ms", median(refreshes), "ms"));
        m.push(Metric::new("peak_rss_mb", status_mb("VmHWM:"), "MB"));
        m.push(Metric::new(
            "ua_certain_rows",
            expected.ua_certain_rows as f64,
            "rows",
        ));
        m.push(Metric::new(
            "au_certain_rows",
            expected.au_certain_rows as f64,
            "rows",
        ));
        m.push(Metric::new(
            "au_ranged_cells",
            expected.au_ranged_cells as f64,
            "cells",
        ));
        println!("# timed rounds: {}", rounds.len());
        m
    };

    for p in expected.problems.iter().take(20) {
        eprintln!("uabench: check failed: {p}");
    }
    if mismatches > 0 {
        eprintln!("uabench: {mismatches} answers differed from the checked round");
    }
    let correct = expected.problems.is_empty() && mismatches == 0;
    println!("{}", json_result(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
