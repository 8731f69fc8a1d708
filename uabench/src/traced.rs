//! The traced pass: the same rounds with the sessions' stats and trace
//! switched on, broken down by layer.
//!
//! Per-layer figures come from two sources: the benchmark's own timings
//! of its calls into each layer (registration, `Catalog::analyze`, the
//! `query_*` calls, result drop) and what the program already exports for
//! the phases inside one session call — the session and `vecexec` spans
//! of `last_query_trace()`, and the operator tree, memory peak and pool
//! stats of `last_query_stats()`.

use crate::inputs::{Inputs, TABLES};
use crate::runner::{
    engine_name, run_query, semantics, timed_drop, timed_round, Expected, Sem, Sessions,
    SetupTimes, ENGINES,
};
use crate::workloads::{Op, Workload};
use crate::{median, Metric};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use ua_engine::ExecMode;
use ua_obs::{OperatorStats, QueryStats};

/// One closed span of the session thread.
struct Span {
    name: String,
    cat: String,
    depth: usize,
    dur_ns: u64,
}

/// Parse a JSON string literal starting at `s[0] == '"'`; returns the
/// decoded text and the rest after the closing quote.
fn json_str(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.strip_prefix('"')?.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 2..])),
            '\\' => match chars.next()?.1 {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = (0..4)
                        .filter_map(|_| chars.next().map(|(_, c)| c))
                        .collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn field<'a>(rest: &'a str, key: &str) -> Option<&'a str> {
    let start = rest.find(&format!("\"{key}\": "))? + key.len() + 4;
    Some(&rest[start..])
}

fn number_ns(s: &str) -> Option<u64> {
    let end = s.find([',', '}']).unwrap_or(s.len());
    let (us, frac) = s[..end].trim().split_once('.')?;
    Some(us.parse::<u64>().ok()? * 1_000 + frac.parse::<u64>().ok()?)
}

/// The session thread's spans of a Perfetto trace (`ua_obs::to_perfetto_json`
/// output: one event per line, timestamps in µs with three decimals).
fn session_spans(json: &str) -> Vec<Span> {
    let mut open: Vec<(String, String, u64)> = Vec::new();
    let mut spans = Vec::new();
    for line in json.lines() {
        let Some(at) = line.find("{\"name\": ") else {
            continue;
        };
        let Some((name, rest)) = json_str(&line[at + 9..]) else {
            continue;
        };
        let cat = field(rest, "cat").and_then(json_str).map(|(c, _)| c);
        let ph = field(rest, "ph").and_then(|p| p.chars().nth(1));
        let ts = field(rest, "ts").and_then(number_ns);
        let tid = field(rest, "tid").and_then(|t| t.split([',', '}']).next()?.parse::<u64>().ok());
        let (Some(cat), Some(ph), Some(ts), Some(0)) = (cat, ph, ts, tid) else {
            continue;
        };
        match ph {
            'B' => open.push((name, cat, ts)),
            'E' => {
                if let Some((name, cat, start)) = open.pop() {
                    spans.push(Span {
                        name,
                        cat,
                        depth: open.len(),
                        dur_ns: ts.saturating_sub(start),
                    });
                }
            }
            _ => {}
        }
    }
    spans
}

/// Per-round sums of the traced figures.
#[derive(Default)]
struct RoundTrace {
    ns: BTreeMap<String, u64>,
    count: BTreeMap<String, u64>,
}

impl RoundTrace {
    fn add(&mut self, key: impl Into<String>, ns: u64) {
        *self.ns.entry(key.into()).or_default() += ns;
    }

    fn bump(&mut self, key: impl Into<String>, n: u64) {
        *self.count.entry(key.into()).or_default() += n;
    }

    fn peak(&mut self, key: impl Into<String>, n: u64) {
        let v = self.count.entry(key.into()).or_default();
        *v = (*v).max(n);
    }

    fn ns(&self, key: &str) -> u64 {
        self.ns.get(key).copied().unwrap_or(0)
    }

    fn count(&self, key: &str) -> u64 {
        self.count.get(key).copied().unwrap_or(0)
    }
}

/// The `ua-ranges` operator a stats node stands for, if any.
fn ranges_op(name: &str) -> Option<&'static str> {
    match name {
        "HashJoin" | "Join" | "Cross" => Some("join"),
        "Aggregate" => Some("agg"),
        "Distinct" => Some("distinct"),
        "Except" => Some("except"),
        "OuterJoin" => Some("outer_join"),
        _ => None,
    }
}

fn record_stats(rt: &mut RoundTrace, sem: Sem, engine: ExecMode, stats: &QueryStats) {
    if let Some(pool) = &stats.pool {
        rt.bump("pool.tasks", pool.tasks + pool.build_tasks);
        rt.add("pool.busy", pool.worker_busy_ns.iter().sum::<u64>());
    }
    rt.peak(format!("mem.{}", sem.name()), stats.peak_mem_bytes);
    if sem == Sem::Au {
        stats.root.walk(&mut |node: &OperatorStats| {
            rt.bump("ranges.au_rows", node.rows_out);
            if let Some(op) = ranges_op(&node.name) {
                rt.add(format!("ranges.{op}"), node.self_ns());
                if engine == ExecMode::Vectorized && op != "join" && op != "distinct" {
                    rt.add("share.ranges", node.self_ns());
                }
            }
        });
    }
}

fn record_trace(rt: &mut RoundTrace, sem: Sem, engine: ExecMode, json: &str) -> u64 {
    let mut attributed = 0;
    for span in session_spans(json) {
        match (span.cat.as_str(), span.depth) {
            ("session", 0) => {
                attributed += span.dur_ns;
                match span.name.as_str() {
                    "parse" | "plan" | "optimize" => {
                        rt.add(format!("sql.{}", span.name), span.dur_ns);
                        if (sem, engine) == (Sem::Det, ExecMode::Row) {
                            rt.add("share.frontend", span.dur_ns);
                        }
                    }
                    "rewrite" => rt.add("ua.rewrite", span.dur_ns),
                    "execute" if engine == ExecMode::Row => {
                        rt.add(format!("exec.{}", sem.name()), span.dur_ns)
                    }
                    _ => {}
                }
            }
            ("vecexec", _) => rt.add(format!("vecexec.{}.{}", sem.name(), span.name), span.dur_ns),
            _ => {}
        }
    }
    attributed
}

fn traced_round(w: &Workload, inputs: &Inputs, sessions: &Sessions) -> RoundTrace {
    let mut rt = RoundTrace::default();
    let staleness = ua_obs::global().counter("stats.staleness");
    let stale_before = staleness.get();
    for op in &w.round {
        match *op {
            Op::Refresh { table, version } => {
                sessions.refresh(inputs, table, version);
                rt.bump("attempted", 1);
            }
            Op::Query(i) => {
                let q = &w.queries[i];
                for sem in semantics(q) {
                    for engine in ENGINES {
                        let (answer, t) = run_query(sessions, sem, engine, &q.sql);
                        let session = sessions.of(sem);
                        let mut wall = t.as_nanos() as u64;
                        let mut attributed = 0;
                        if let Some(json) = session.last_query_trace() {
                            attributed += record_trace(&mut rt, sem, engine, &json);
                        }
                        rt.bump("queries", 1);
                        rt.bump("attempted", 1);
                        if answer.is_err() {
                            rt.bump("failed", 1);
                        }
                        if sem == Sem::Ua && engine == ExecMode::Row {
                            rt.bump("ua_row_queries", 1);
                        }
                        if let Ok(a) = answer {
                            if let Some(stats) = session.last_query_stats() {
                                record_stats(&mut rt, sem, engine, &stats);
                            }
                            let d = timed_drop(a).as_nanos() as u64;
                            rt.add("result.drop", d);
                            wall += d;
                            attributed += d;
                        }
                        rt.add("wall", wall);
                        rt.add("attributed", attributed.min(wall));
                        rt.add(format!("wall.{}.{}", sem.name(), engine_name(engine)), wall);
                    }
                }
            }
        }
    }
    rt.bump("staleness", staleness.get() - stale_before);
    rt
}

fn set_observed(sessions: &Sessions, on: bool) {
    for sem in [Sem::Det, Sem::Ua, Sem::Au] {
        sessions.of(sem).set_stats_enabled(on);
        sessions.of(sem).set_trace_enabled(on);
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Run the traced pass for about `seconds` and return the per-layer
/// metrics with the operations attempted and failed. Half the time runs
/// untraced rounds, the baseline of the tracing overhead.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    sessions: &Sessions,
    expected: &Expected,
    seconds: f64,
    setups: &[SetupTimes],
    mismatches: &mut u64,
) -> (Vec<Metric>, u64, u64) {
    let stats_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for sem in [Sem::Det, Sem::Ua, Sem::Au] {
                for name in TABLES {
                    sessions.of(sem).catalog().analyze(name);
                }
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let half = Duration::from_secs_f64(seconds / 2.0);
    let start = Instant::now();
    let mut untraced = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    while untraced.len() < 2 || start.elapsed() < half {
        let tally = timed_round(w, inputs, sessions, expected, mismatches);
        attempted += tally.attempted;
        failed += tally.failed;
        untraced.push(tally.time.values().sum::<Duration>().as_secs_f64());
    }

    set_observed(sessions, true);
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 2 || start.elapsed() < half {
        rounds.push(traced_round(w, inputs, sessions));
    }
    set_observed(sessions, false);
    for r in &rounds {
        attempted += r.count("attempted");
        failed += r.count("failed");
    }

    let med = |f: &dyn Fn(&RoundTrace) -> f64| median(rounds.iter().map(f).collect());
    let per_query = |key: &'static str, denom: &'static str| {
        med(&move |r: &RoundTrace| {
            let n = r.count(denom);
            if n == 0 {
                0.0
            } else {
                r.ns(key) as f64 / 1e3 / n as f64
            }
        })
    };
    let round_ms = |key: String| med(&move |r: &RoundTrace| ms(r.ns(&key)));

    let mut m = vec![
        Metric::new(
            "sql.parse_us",
            per_query("sql.parse", "queries"),
            "us/query",
        ),
        Metric::new("sql.plan_us", per_query("sql.plan", "queries"), "us/query"),
        Metric::new(
            "optimize.us",
            per_query("sql.optimize", "queries"),
            "us/query",
        ),
        Metric::new(
            "ua.rewrite_us",
            per_query("ua.rewrite", "ua_row_queries"),
            "us/query",
        ),
    ];
    for sem in [Sem::Det, Sem::Ua, Sem::Au] {
        m.push(Metric::new(
            &format!("exec.{}_ms", sem.name()),
            round_ms(format!("exec.{}", sem.name())),
            "ms/round",
        ));
    }
    for sem in [Sem::Det, Sem::Ua, Sem::Au] {
        // The AU vectorized executor has no separate bind phase.
        let phases: &[&str] = match sem {
            Sem::Au => &["execute", "merge"],
            _ => &["bind", "execute", "merge"],
        };
        for phase in phases {
            m.push(Metric::new(
                &format!("vecexec.{}.{phase}_ms", sem.name()),
                round_ms(format!("vecexec.{}.{phase}", sem.name())),
                "ms/round",
            ));
        }
    }
    m.push(Metric::new(
        "pool.tasks",
        med(&|r| r.count("pool.tasks") as f64),
        "tasks/round",
    ));
    m.push(Metric::new(
        "pool.busy_ms",
        round_ms("pool.busy".into()),
        "ms/round",
    ));
    for op in ["join", "agg", "distinct", "except", "outer_join"] {
        m.push(Metric::new(
            &format!("ranges.{op}_ms"),
            round_ms(format!("ranges.{op}")),
            "ms/round",
        ));
    }
    m.push(Metric::new(
        "ranges.au_rows",
        med(&|r| r.count("ranges.au_rows") as f64),
        "rows/round",
    ));
    let setup_ms = |f: fn(&SetupTimes) -> Duration| {
        median(setups.iter().map(|s| f(s).as_secs_f64() * 1e3).collect())
    };
    m.push(Metric::new(
        "storage.register_det_ms",
        setup_ms(|s| s.det),
        "ms",
    ));
    m.push(Metric::new(
        "storage.register_ua_ms",
        setup_ms(|s| s.ua),
        "ms",
    ));
    m.push(Metric::new(
        "storage.register_au_ms",
        setup_ms(|s| s.au),
        "ms",
    ));
    m.push(Metric::new("storage.stats_ms", median(stats_ms), "ms"));
    m.push(Metric::new(
        "storage.staleness",
        med(&|r| r.count("staleness") as f64),
        "count/round",
    ));
    for sem in [Sem::Det, Sem::Ua, Sem::Au] {
        let key = format!("mem.{}", sem.name());
        let peak = rounds.iter().map(|r| r.count(&key)).max().unwrap_or(0);
        m.push(Metric::new(
            &format!("mem.{}.peak_mb", sem.name()),
            peak as f64 / (1024.0 * 1024.0),
            "MB",
        ));
    }
    m.push(Metric::new(
        "result.drop_ms",
        round_ms("result.drop".into()),
        "ms/round",
    ));
    m.push(Metric::new(
        "trace.unattributed_pct",
        med(&|r| pct(r.ns("wall") - r.ns("attributed"), r.ns("wall"))),
        "%",
    ));
    let traced_s = med(&|r| r.ns("wall") as f64 / 1e9);
    let untraced_s = median(untraced);
    m.push(Metric::new(
        "trace.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
        "%",
    ));
    m.push(Metric::new(
        "share.frontend_pct",
        med(&|r| pct(r.ns("share.frontend"), r.ns("wall.det.row"))),
        "%",
    ));
    m.push(Metric::new(
        "share.ranges_pct",
        med(&|r| pct(r.ns("share.ranges"), r.ns("wall.au.vec"))),
        "%",
    ));
    (m, attempted, failed)
}
