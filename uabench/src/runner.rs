//! Sessions, set-up and the closed loop that runs a workload's rounds.

use crate::check;
use crate::inputs::{Digest, Inputs, State, TABLES};
use crate::workloads::{Op, Query, UaCheck, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use ua_core::UaDb;
use ua_data::tuple::Tuple;
use ua_engine::storage::Table;
use ua_engine::{AuResult, EngineError, ExecMode, UaResult, UaSession};
use ua_models::XDb;
use ua_ranges::AuRelation;

/// Possible worlds sampled per database state for the UA-negation and AU
/// enclosure checks.
const WORLDS_PER_STATE: usize = 3;

/// A query semantics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Sem {
    /// Plain deterministic evaluation over the best-guess world.
    Det,
    /// UA-DB labels (`⟦·⟧_UA`).
    Ua,
    /// AU-DB attribute bounds (`⟦·⟧_AU`).
    Au,
}

impl Sem {
    /// Metric-name spelling.
    pub fn name(self) -> &'static str {
        match self {
            Sem::Det => "det",
            Sem::Ua => "ua",
            Sem::Au => "au",
        }
    }
}

/// The two engines, in the order every query runs on them.
pub const ENGINES: [ExecMode; 2] = [ExecMode::Row, ExecMode::Vectorized];

/// Metric-name spelling of an engine.
pub fn engine_name(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Row => "row",
        ExecMode::Vectorized => "vec",
    }
}

/// The semantics a query runs under.
pub fn semantics(q: &Query) -> Vec<Sem> {
    match q.ua {
        UaCheck::NotRun => vec![Sem::Det, Sem::Au],
        _ => vec![Sem::Det, Sem::Ua, Sem::Au],
    }
}

/// One det, one UA and one AU session over the same data.
pub struct Sessions {
    /// Best-guess-world tables.
    pub det: UaSession,
    /// UA-encoded tables.
    pub ua: UaSession,
    /// AU-encoded tables.
    pub au: UaSession,
}

/// Wall time of one set-up, split by what was loaded.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    /// det registration (statistics included).
    pub det: Duration,
    /// `UaDb::from_xdb` plus UA registration.
    pub ua: Duration,
    /// `AuRelation::from_x_blocks` plus AU registration.
    pub au: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.det + self.ua + self.au
    }
}

impl Sessions {
    /// The session of a semantics.
    pub fn of(&self, sem: Sem) -> &UaSession {
        match sem {
            Sem::Det => &self.det,
            Sem::Ua => &self.ua,
            Sem::Au => &self.au,
        }
    }

    /// Load `inputs` (version 0 of every table, whose x-DB is `xdb`) into
    /// fresh sessions with `threads` vectorized workers, timing each part.
    pub fn load(inputs: &Inputs, xdb: &XDb, threads: usize) -> (Sessions, SetupTimes) {
        let sessions = Sessions {
            det: UaSession::new(),
            ua: UaSession::new(),
            au: UaSession::new(),
        };
        for sem in [Sem::Det, Sem::Ua, Sem::Au] {
            sessions.of(sem).set_vec_threads(threads);
        }
        let state = State::new();
        let det_tables: Vec<(&str, Table)> = TABLES
            .iter()
            .map(|&n| (n, inputs.version(n, &state).det.clone()))
            .collect();
        let mut times = SetupTimes::default();

        let t = Instant::now();
        for (name, table) in det_tables {
            sessions.det.register_table(name, table);
        }
        times.det = t.elapsed();

        let t = Instant::now();
        let uadb = UaDb::from_xdb(xdb);
        for name in TABLES {
            let rel = uadb.relation(name).expect("x-DB holds every table");
            sessions.ua.register_ua_relation(name, rel);
        }
        drop(uadb);
        times.ua = t.elapsed();

        let t = Instant::now();
        for name in TABLES {
            let v = inputs.version(name, &state);
            let rel = AuRelation::from_x_blocks(
                v.xrel.schema().clone(),
                v.blocks.iter().map(Vec::as_slice),
            );
            sessions.au.register_au_relation(name, &rel);
        }
        times.au = t.elapsed();
        (sessions, times)
    }

    /// Replace `table` by `version` in all three sessions through their
    /// registration calls, then look its statistics up once per session —
    /// the lookup finds them stale and recollects them, as the next query
    /// plan would.
    pub fn refresh(&self, inputs: &Inputs, table: &'static str, version: usize) -> Duration {
        let v = &inputs.tables[table][version];
        let det = v.det.clone();
        let t = Instant::now();
        self.det.register_table(table, det);
        self.ua.register_ua_relation(table, &v.ua);
        self.au.register_au_relation(table, &v.au);
        for sem in [Sem::Det, Sem::Ua, Sem::Au] {
            self.of(sem).catalog().stats_of(table);
        }
        t.elapsed()
    }
}

/// A query answer as the caller holds it.
pub enum Answer {
    /// det rows.
    Det(Table),
    /// UA rows with the certainty marker.
    Ua(UaResult),
    /// AU rows in the flattened encoding.
    Au(AuResult),
}

impl Answer {
    /// The table the engine returned.
    pub fn table(&self) -> &Table {
        match self {
            Answer::Det(t) => t,
            Answer::Ua(r) => &r.table,
            Answer::Au(r) => &r.table,
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut h = ua_data::FxHasher::default();
        self.table().schema().names().hash(&mut h);
        self.table().rows().hash(&mut h);
        h.finish()
    }
}

/// Run `sql` under `sem` on `engine`; the returned duration runs from the
/// SQL text to the result in the caller's hands.
pub fn run_query(
    sessions: &Sessions,
    sem: Sem,
    engine: ExecMode,
    sql: &str,
) -> (Result<Answer, EngineError>, Duration) {
    let session = sessions.of(sem);
    session.set_exec_mode(engine);
    let t = Instant::now();
    let answer = match sem {
        Sem::Det => session.query_det(sql).map(Answer::Det),
        Sem::Ua => session.query_ua(sql).map(Answer::Ua),
        Sem::Au => session.query_au(sql).map(Answer::Au),
    };
    (answer, t.elapsed())
}

/// Drop a result, timing it.
pub fn timed_drop(answer: Answer) -> Duration {
    let t = Instant::now();
    drop(answer);
    t.elapsed()
}

/// The position of one execution within a round.
pub type Slot = (usize, Sem, &'static str);

/// What one round's executions must return, and the answer-quality
/// counts they add up to; fixed by the seed.
#[derive(Default)]
pub struct Expected {
    /// Fingerprint of every successful execution's result.
    pub fingerprints: BTreeMap<Slot, u64>,
    /// Executions that failed, with a line naming query, semantics,
    /// engine and error.
    pub failed: BTreeMap<Slot, String>,
    /// UA result rows labeled certain, per round.
    pub ua_certain_rows: u64,
    /// AU result rows with multiplicity lower bound ≥ 1, per round.
    pub au_certain_rows: u64,
    /// AU result cells with differing bounds, per round.
    pub au_ranged_cells: u64,
    /// Problems the checks found.
    pub problems: Vec<String>,
}

impl Expected {
    /// Whether a later execution returned the checked answer (or failed
    /// as the checked round's did).
    pub fn matches(&self, slot: Slot, answer: &Result<Answer, EngineError>) -> bool {
        match answer {
            Ok(a) => self.fingerprints.get(&slot) == Some(&a.fingerprint()),
            Err(_) => self.failed.contains_key(&slot),
        }
    }
}

/// Per-state ground truth for the checks.
struct Truth {
    bgw: ua_data::relation::Database<u64>,
    uadb: UaDb<u64>,
    worlds: Vec<ua_data::relation::Database<u64>>,
}

impl Truth {
    fn of(inputs: &Inputs, state: &State, seed: u64) -> Truth {
        let xdb = inputs.xdb(state);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77_6f72_6c64);
        Truth {
            bgw: xdb.best_guess_world(),
            uadb: UaDb::from_xdb(&xdb),
            worlds: (0..WORLDS_PER_STATE)
                .map(|_| xdb.sample_world(&mut rng))
                .collect(),
        }
    }
}

/// Check every answer of one execution of query `q` in the current
/// state. `answers` holds the query's results per semantics and engine.
fn check_query(
    q: &Query,
    truth: &Truth,
    answers: &BTreeMap<(Sem, &'static str), Answer>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut note = |what: &str, r: Result<(), String>| {
        if let Err(e) = r {
            problems.push(format!("{} {what}: {e}", q.name));
        }
    };
    for sem in semantics(q) {
        if let (Some(row), Some(vec)) = (answers.get(&(sem, "row")), answers.get(&(sem, "vec"))) {
            note(
                &format!("{} row vs vec", sem.name()),
                check::check_engines_agree(row.table(), vec.table()),
            );
        }
    }
    let det_want = (q.reference)(&truth.bgw);
    if let Some(Answer::Det(t)) = answers.get(&(Sem::Det, "row")) {
        note("det", check::check_det(t, &det_want, q.ordered));
    }
    let world_answers: Vec<Vec<Tuple>> = truth.worlds.iter().map(|w| (q.reference)(w)).collect();
    if let Some(Answer::Ua(r)) = answers.get(&(Sem::Ua, "row")) {
        match &q.ua {
            UaCheck::Ra(ra) => match truth.uadb.query(ra) {
                Ok(want) => note("ua", check::check_ua_ra(r, &want)),
                Err(e) => note("ua reference", Err(e.to_string())),
            },
            UaCheck::TopK(core) => match truth.uadb.query(core) {
                Ok(want) => note("ua", check::check_ua_topk(r, &det_want, &want)),
                Err(e) => note("ua reference", Err(e.to_string())),
            },
            UaCheck::Negation => {
                for w in &world_answers {
                    note("ua certain ⊆ world", check::check_ua_certain_in_world(r, w));
                }
            }
            UaCheck::NotRun => {}
        }
    }
    if let Some(Answer::Au(r)) = answers.get(&(Sem::Au, "row")) {
        let rel = r.decode();
        note(
            "au selected guess",
            check::check_au_sg(&rel, &det_want, q.ordered),
        );
        if !q.ordered {
            for w in &world_answers {
                note("au enclosure", check::check_au_encloses(&rel, w));
            }
        }
    }
    problems
}

/// Run one round of `w`, checking every answer against independent
/// evaluation, and return what later rounds must reproduce.
pub fn checked_round(
    w: &Workload,
    inputs: &Inputs,
    sessions: &Sessions,
    seed: u64,
) -> (Expected, Tally) {
    let mut expected = Expected::default();
    let mut tally = Tally::default();
    let mut state = State::new();
    let mut truths: BTreeMap<State, Truth> = BTreeMap::new();
    for (pos, op) in w.round.iter().enumerate() {
        match *op {
            Op::Refresh { table, version } => {
                tally.refresh(sessions.refresh(inputs, table, version));
                state.insert(table, version);
            }
            Op::Query(i) => {
                let q = &w.queries[i];
                let mut answers = BTreeMap::new();
                for sem in semantics(q) {
                    for engine in ENGINES {
                        let (answer, t) = run_query(sessions, sem, engine, &q.sql);
                        tally.attempted += 1;
                        let slot = (pos, sem, engine_name(engine));
                        match answer {
                            Ok(a) => {
                                expected.fingerprints.insert(slot, a.fingerprint());
                                answers.insert((sem, engine_name(engine)), a);
                            }
                            Err(e) => {
                                tally.failed += 1;
                                if !(q.au_known_fault && sem == Sem::Au) {
                                    expected.problems.push(format!(
                                        "{} {}: unexpected error {e}",
                                        q.name,
                                        sem.name()
                                    ));
                                }
                                expected.failed.insert(
                                    slot,
                                    format!("{} {} {}: {e}", q.name, sem.name(), slot.2),
                                );
                            }
                        }
                        tally.add(sem, engine, t);
                    }
                }
                let truth = truths
                    .entry(state.clone())
                    .or_insert_with(|| Truth::of(inputs, &state, seed));
                expected.problems.extend(check_query(q, truth, &answers));
                if let Some(Answer::Ua(r)) = answers.get(&(Sem::Ua, "row")) {
                    expected.ua_certain_rows += r.certainty_counts().0 as u64;
                }
                if let Some(Answer::Au(r)) = answers.get(&(Sem::Au, "row")) {
                    let rel = r.decode();
                    expected.au_certain_rows +=
                        rel.rows().iter().filter(|t| t.mult.lb >= 1).count() as u64;
                    expected.au_ranged_cells += check::ranged_cells(&rel);
                }
            }
        }
    }
    if state.values().any(|&v| v != 0) {
        expected
            .problems
            .push("the round does not return every table to version 0".into());
    }
    (expected, tally)
}

/// Times and counts of one round.
#[derive(Default)]
pub struct Tally {
    /// Wall time per semantics and engine.
    pub time: BTreeMap<(Sem, &'static str), Duration>,
    /// Each refresh's wall time.
    pub refreshes: Vec<Duration>,
    /// Executions and refreshes attempted.
    pub attempted: u64,
    /// Executions that failed.
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, sem: Sem, engine: ExecMode, t: Duration) {
        *self.time.entry((sem, engine_name(engine))).or_default() += t;
    }

    fn refresh(&mut self, t: Duration) {
        self.attempted += 1;
        self.refreshes.push(t);
    }
}

/// Run one untraced round, timing each query from SQL text to the dropped
/// result; answers are compared with the checked round between the query
/// and the drop, outside the timed span.
pub fn timed_round(
    w: &Workload,
    inputs: &Inputs,
    sessions: &Sessions,
    expected: &Expected,
    mismatches: &mut u64,
) -> Tally {
    let mut tally = Tally::default();
    for (pos, op) in w.round.iter().enumerate() {
        match *op {
            Op::Refresh { table, version } => {
                tally.refresh(sessions.refresh(inputs, table, version));
            }
            Op::Query(i) => {
                let q = &w.queries[i];
                for sem in semantics(q) {
                    for engine in ENGINES {
                        let (answer, mut t) = run_query(sessions, sem, engine, &q.sql);
                        tally.attempted += 1;
                        if !expected.matches((pos, sem, engine_name(engine)), &answer) {
                            *mismatches += 1;
                        }
                        match answer {
                            Ok(a) => t += timed_drop(a),
                            Err(_) => tally.failed += 1,
                        }
                        tally.add(sem, engine, t);
                    }
                }
            }
        }
    }
    tally
}

/// Digest of a workload's operation list.
pub fn ops_digest(w: &Workload) -> u64 {
    let mut d = Digest::default();
    d.write_str(w.name);
    for op in &w.round {
        match *op {
            Op::Query(i) => {
                let q = &w.queries[i];
                d.write_str(q.name);
                d.write_str(&q.sql);
                for sem in semantics(q) {
                    d.write_str(sem.name());
                }
            }
            Op::Refresh { table, version } => d.write_str(&format!("refresh {table} {version}")),
        }
    }
    d.finish()
}
