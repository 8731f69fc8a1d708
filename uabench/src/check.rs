//! Answer checks made apart from the engines.
//!
//! Each check compares an engine answer with an independent computation
//! (see `workloads`) or with a property the method must have, and returns
//! a description of the first difference.

use std::collections::BTreeMap;
use ua_data::relation::Relation;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::storage::Table;
use ua_engine::UaResult;
use ua_ranges::{check_encloses_world, sg_rows, AuRelation};
use ua_semiring::pair::Ua;

/// Largest AU relation plus world size handed to the dense-matrix
/// enclosure oracle in one piece.
const ORACLE_MAX_NODES: usize = 600;

fn values_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(_), _) | (_, Value::Float(_)) => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
            _ => false,
        },
        _ => a == b,
    }
}

fn tuples_match(a: &Tuple, b: &Tuple) -> bool {
    a.arity() == b.arity() && a.iter().zip(b.iter()).all(|(x, y)| values_match(x, y))
}

/// `got` and `want` hold the same rows in the same order (floats compared
/// with a relative tolerance, since an independent sum may add in another
/// order).
pub fn same_sequence(got: &[Tuple], want: &[Tuple]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if !tuples_match(g, w) {
            return Err(format!("row {i} is {g}, expected {w}"));
        }
    }
    Ok(())
}

/// `got` and `want` hold the same rows as bags.
pub fn same_bag(got: &[Tuple], want: &[Tuple]) -> Result<(), String> {
    let mut g = got.to_vec();
    let mut w = want.to_vec();
    g.sort();
    w.sort();
    same_sequence(&g, &w)
}

/// A det answer against the independent evaluation.
pub fn check_det(got: &Table, want: &[Tuple], ordered: bool) -> Result<(), String> {
    if ordered {
        same_sequence(got.rows(), want)
    } else {
        same_bag(got.rows(), want)
    }
}

/// The row and vectorized engines returned byte-identical tables.
pub fn check_engines_agree(row: &Table, vec: &Table) -> Result<(), String> {
    if row.schema().names() != vec.schema().names() {
        return Err(format!(
            "schemas differ: {:?} vs {:?}",
            row.schema().names(),
            vec.schema().names()
        ));
    }
    if row.rows() != vec.rows() {
        let first = row
            .rows()
            .iter()
            .zip(vec.rows())
            .position(|(a, b)| a != b)
            .unwrap_or(row.len().min(vec.len()));
        return Err(format!(
            "rows differ from position {first} ({} vs {} rows)",
            row.len(),
            vec.len()
        ));
    }
    Ok(())
}

/// A UA answer on an RA⁺ query equals the paper-reference semantics
/// (`UaDb::query`).
pub fn check_ua_ra(got: &UaResult, want: &Relation<Ua<u64>>) -> Result<(), String> {
    let g = got.decode().sorted_tuples();
    let w = want.sorted_tuples();
    if g.len() != w.len() {
        return Err(format!("{} distinct rows, expected {}", g.len(), w.len()));
    }
    for ((gt, ga), (wt, wa)) in g.iter().zip(&w) {
        if gt != wt || ga != wa {
            return Err(format!(
                "row {gt} annotated (cert {}, det {}), expected {wt} (cert {}, det {})",
                ga.cert, ga.det, wa.cert, wa.det
            ));
        }
    }
    Ok(())
}

/// A UA answer under ORDER BY … LIMIT: its rows are the det answer in
/// order, and no row is labeled certain more often than `UaDb::query` of
/// the RA⁺ core makes it certain.
pub fn check_ua_topk(
    got: &UaResult,
    det: &[Tuple],
    core: &Relation<Ua<u64>>,
) -> Result<(), String> {
    let rows = got.rows_with_certainty();
    let plain: Vec<Tuple> = rows.iter().map(|(t, _)| t.clone()).collect();
    same_sequence(&plain, det)?;
    let mut certain: BTreeMap<&Tuple, u64> = BTreeMap::new();
    for (t, c) in &rows {
        if *c {
            *certain.entry(t).or_default() += 1;
        }
    }
    for (t, n) in certain {
        let cert = core.annotation(t).cert;
        if n > cert {
            return Err(format!(
                "row {t} labeled certain {n} times, reference certain multiplicity {cert}"
            ));
        }
    }
    Ok(())
}

fn counts(rows: &[Tuple]) -> BTreeMap<&Tuple, u64> {
    let mut m: BTreeMap<&Tuple, u64> = BTreeMap::new();
    for t in rows {
        *m.entry(t).or_default() += 1;
    }
    m
}

/// Every row a UA answer labels certain appears (with at least that many
/// copies) in the det answer of one possible world.
pub fn check_ua_certain_in_world(got: &UaResult, world: &[Tuple]) -> Result<(), String> {
    let certain: Vec<Tuple> = got
        .rows_with_certainty()
        .into_iter()
        .filter_map(|(t, c)| c.then_some(t))
        .collect();
    let have = counts(world);
    for (t, n) in counts(&certain) {
        let m = have.get(t).copied().unwrap_or(0);
        if m < n {
            return Err(format!(
                "row {t} labeled certain {n} times but appears {m} times in a sampled world"
            ));
        }
    }
    Ok(())
}

/// The AU selected-guess world equals the det answer (in order, for
/// ORDER BY … LIMIT).
pub fn check_au_sg(got: &AuRelation, det: &[Tuple], ordered: bool) -> Result<(), String> {
    if ordered {
        let mut sg = Vec::new();
        for r in got.rows() {
            sg.extend(std::iter::repeat_n(r.bg_tuple(), r.mult.bg as usize));
        }
        same_sequence(&sg, det)
    } else {
        same_bag(&sg_rows(got), det)
    }
}

/// `check_encloses_world`, split by a column in which every AU row is a
/// definite point: a world row can then be charged only to AU rows with
/// the same value there, so the check decomposes exactly and each piece
/// stays small for the oracle's dense max-flow.
pub fn check_au_encloses(got: &AuRelation, world: &[Tuple]) -> Result<(), String> {
    let arity = got.schema().arity();
    let split = (0..arity).find(|&c| {
        got.rows()
            .iter()
            .all(|r| r.values[c].is_point() && !r.values[c].is_null())
    });
    let Some(c) = split else {
        if got.rows().len() + world.len() > ORACLE_MAX_NODES {
            return Err(format!(
                "{} AU rows and {} world rows: too large for the enclosure oracle",
                got.rows().len(),
                world.len()
            ));
        }
        return check_encloses_world(got, world);
    };
    let mut au_parts: BTreeMap<&Value, AuRelation> = BTreeMap::new();
    for r in got.rows() {
        au_parts
            .entry(&r.values[c].bg)
            .or_insert_with(|| AuRelation::new(got.schema().clone()))
            .push(r.clone());
    }
    let mut world_parts: BTreeMap<&Value, Vec<Tuple>> = BTreeMap::new();
    for t in world {
        world_parts.entry(&t[c]).or_default().push(t.clone());
    }
    for (key, rows) in &world_parts {
        if !au_parts.contains_key(key) {
            return Err(format!(
                "upper-bound violation: world row {} matches no AU tuple's ranges",
                rows[0]
            ));
        }
    }
    for (key, part) in &au_parts {
        let rows = world_parts.get(key).map(Vec::as_slice).unwrap_or(&[]);
        if part.rows().len() + rows.len() > ORACLE_MAX_NODES {
            return Err(format!(
                "partition {key} too large for the enclosure oracle"
            ));
        }
        check_encloses_world(part, rows)?;
    }
    Ok(())
}

/// AU result cells whose lower and upper bounds differ (definite NULLs
/// are exact and not counted).
pub fn ranged_cells(rel: &AuRelation) -> u64 {
    rel.rows()
        .iter()
        .flat_map(|r| r.values.iter())
        .filter(|v| !v.is_point() && !v.is_null())
        .count() as u64
}

#[cfg(test)]
mod tests {
    //! The checker must fail when it should: each test feeds it a real
    //! engine result and a corrupted copy, and asserts that the real one
    //! passes and the copy is reported.

    use super::*;
    use crate::inputs::{Inputs, State};
    use crate::runner::Sessions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ua_core::UaDb;
    use ua_data::algebra::RaExpr;
    use ua_data::expr::Expr;
    use ua_engine::ExecMode;
    use ua_ranges::{AuTuple, RangeValue};

    const SQL: &str = "SELECT l.orderkey, l.quantity FROM lineitem l WHERE l.quantity < 20";

    fn core() -> RaExpr {
        RaExpr::table("lineitem")
            .select(Expr::named("quantity").lt(Expr::lit(20i64)))
            .project(["orderkey", "quantity"])
    }

    fn fixture() -> (Inputs, Sessions) {
        ua_vecexec::install();
        let inputs = Inputs::generate(0.001, 11, &[], 0.3);
        let (sessions, _) = Sessions::load(&inputs, &inputs.xdb(&State::new()), 1);
        (inputs, sessions)
    }

    fn worlds(inputs: &Inputs, n: usize) -> Vec<Vec<Tuple>> {
        let xdb = inputs.xdb(&State::new());
        let mut rng = StdRng::seed_from_u64(3);
        (0..n)
            .map(|_| {
                let w = xdb.sample_world(&mut rng);
                crate::workloads::bag(&ua_data::eval(&core(), &w).expect("eval"))
            })
            .collect()
    }

    fn rebuild(rel: &AuRelation, f: impl Fn(usize, &AuTuple) -> AuTuple) -> AuRelation {
        let mut out = AuRelation::new(rel.schema().clone());
        for (i, r) in rel.rows().iter().enumerate() {
            out.push(f(i, r));
        }
        out
    }

    #[test]
    fn dropped_det_row_is_reported() {
        let (inputs, s) = fixture();
        let want =
            crate::workloads::bag(&ua_data::eval(&core(), &inputs.bgw(&State::new())).unwrap());
        let got = s.det.query_det(SQL).unwrap();
        check_det(&got, &want, false).expect("the real answer passes");
        let mut rows = got.rows().to_vec();
        rows.remove(rows.len() / 2);
        let corrupted = Table::from_rows(got.schema().clone(), rows);
        assert!(check_det(&corrupted, &want, false).is_err());
    }

    #[test]
    fn row_wrongly_labeled_certain_is_reported() {
        let (inputs, s) = fixture();
        let want = UaDb::from_xdb(&inputs.xdb(&State::new()))
            .query(&core())
            .unwrap();
        for mode in [ExecMode::Row, ExecMode::Vectorized] {
            s.ua.set_exec_mode(mode);
            let got = s.ua.query_ua(SQL).unwrap();
            check_ua_ra(&got, &want).expect("the real answer passes");
            let marker = got.table.schema().arity() - 1;
            let uncertain = got
                .table
                .rows()
                .iter()
                .position(|r| r[marker] == Value::Int(0))
                .expect("an uncertain row at 30% uncertainty");
            let rows: Vec<Tuple> = got
                .table
                .rows()
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    if i == uncertain {
                        let mut v = r.to_vec();
                        v[marker] = Value::Int(1);
                        Tuple::new(v)
                    } else {
                        r.clone()
                    }
                })
                .collect();
            let corrupted = UaResult {
                table: Table::from_rows(got.table.schema().clone(), rows),
            };
            assert!(check_ua_ra(&corrupted, &want).is_err());
        }
    }

    #[test]
    fn narrowed_au_bound_is_reported() {
        let (inputs, s) = fixture();
        let got = s.au.query_au(SQL).unwrap().decode();
        let worlds = worlds(&inputs, 8);
        for w in &worlds {
            check_au_encloses(&got, w).expect("the real answer encloses every world");
        }
        // A world row covered by exactly one AU row whose range around it
        // is wider than a point: narrowing that range to its selected
        // guess leaves the world row uncovered.
        let (w, j, c) = worlds
            .iter()
            .enumerate()
            .find_map(|(wi, w)| {
                w.iter().find_map(|t| {
                    let covering: Vec<usize> = (0..got.rows().len())
                        .filter(|&j| got.rows()[j].covers(t))
                        .collect();
                    let [j] = covering[..] else { return None };
                    let r = &got.rows()[j];
                    (0..t.arity())
                        .find(|&c| t[c] != r.values[c].bg)
                        .map(|c| (wi, j, c))
                })
            })
            .expect("a world row away from its selected guess");
        let narrowed = rebuild(&got, |i, r| {
            let mut r = r.clone();
            if i == j {
                r.values[c] = RangeValue::point(r.values[c].bg.clone());
            }
            r
        });
        assert!(check_au_encloses(&narrowed, &worlds[w]).is_err());
    }

    #[test]
    fn raised_au_lower_bound_is_reported() {
        let (inputs, s) = fixture();
        s.au.set_exec_mode(ExecMode::Vectorized);
        let got = s.au.query_au(SQL).unwrap().decode();
        let worlds = worlds(&inputs, 8);
        for w in &worlds {
            check_au_encloses(&got, w).expect("the real answer encloses every world");
        }
        // An uncertain AU row that no row of some world falls in: claiming
        // it certain is a false certainty.
        let (w, j) = worlds
            .iter()
            .enumerate()
            .find_map(|(wi, w)| {
                got.rows()
                    .iter()
                    .position(|r| {
                        r.mult.lb == 0 && r.mult.bg >= 1 && !w.iter().any(|t| r.covers(t))
                    })
                    .map(|j| (wi, j))
            })
            .expect("a possible row absent from some world");
        let raised = rebuild(&got, |i, r| {
            let mut r = r.clone();
            if i == j {
                r.mult.lb = r.mult.bg;
            }
            r
        });
        assert!(check_au_encloses(&raised, &worlds[w]).is_err());
    }
}
