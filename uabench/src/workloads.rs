//! The three workloads: fixed operation lists derived from the seed.
//!
//! Every query carries its SQL text and an independent way to compute its
//! deterministic answer over any possible world: the `ua-data` K-relation
//! evaluator for RA⁺ queries, plain Rust over the world's rows for
//! aggregation, Top-K, EXCEPT and the anti-join.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use ua_data::algebra::RaExpr;
use ua_data::expr::Expr;
use ua_data::relation::{Database, Relation};
use ua_data::tuple::Tuple;
use ua_data::value::Value;

/// Computes a query's deterministic answer (a bag of rows) over one world.
pub type Reference = Box<dyn Fn(&Database<u64>) -> Vec<Tuple>>;

/// How a query's UA answer is checked, or whether UA runs it at all.
pub enum UaCheck {
    /// RA⁺: the decoded answer must equal `UaDb::query` on this expression.
    Ra(RaExpr),
    /// RA⁺ core under a trailing ORDER BY … LIMIT: rows must equal the det
    /// answer in order, and a row labeled certain must be certain in
    /// `UaDb::query` of the core.
    TopK(RaExpr),
    /// EXCEPT / outer join: every row labeled certain must appear in the
    /// det answer of each sampled world.
    Negation,
    /// Aggregation or DISTINCT: UA rejects these by design; not attempted.
    NotRun,
}

/// One query of a workload.
pub struct Query {
    /// Short name (`Q1`, `A3`, …).
    pub name: &'static str,
    /// The SQL text every semantics runs.
    pub sql: String,
    /// The UA check (or `NotRun`).
    pub ua: UaCheck,
    /// The independent det evaluation.
    pub reference: Reference,
    /// Whether row order is part of the answer (ORDER BY … LIMIT). AU
    /// orders and truncates by the selected-guess world, so the enclosure
    /// check does not apply to these.
    pub ordered: bool,
    /// Whether AU fails on this query because of the known alias/star-join
    /// fault (see the README). Such operations are counted as failed.
    pub au_known_fault: bool,
}

/// One step of a round.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Run query `i` under every semantics it supports, on both engines.
    Query(usize),
    /// Replace `table`'s det, UA and AU representations by `version`.
    Refresh {
        /// The table.
        table: &'static str,
        /// The pre-generated version to load.
        version: usize,
    },
}

/// A workload: data scale, the refreshed tables, the queries and the
/// fixed round every run repeats.
pub struct Workload {
    /// The name given on the command line.
    pub name: &'static str,
    /// TPC-H scale factor of the generated data.
    pub scale: f64,
    /// Share of eligible cells made uncertain.
    pub uncertainty: f64,
    /// Tables with a second, pre-generated version.
    pub refreshed: Vec<&'static str>,
    /// The queries.
    pub queries: Vec<Query>,
    /// The round: every refreshed table is refreshed an even number of
    /// times, so each round starts from the same state.
    pub round: Vec<Op>,
}

/// The workloads, by name.
pub const NAMES: [&str; 3] = ["pdbench", "analytics", "point-mix"];

/// Build the workload `name` for `seed`, or `None` for an unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    match name {
        "pdbench" => Some(pdbench(&mut rng)),
        "analytics" => Some(analytics(&mut rng)),
        "point-mix" => Some(point_mix(&mut rng)),
        _ => None,
    }
}

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];

fn ra_query(
    name: &'static str,
    sql: String,
    ra: RaExpr,
    ordered: bool,
    au_known_fault: bool,
) -> Query {
    let eval_ra = ra.clone();
    Query {
        name,
        sql,
        ua: UaCheck::Ra(ra),
        reference: Box::new(move |db| {
            bag(&ua_data::eval(&eval_ra, db).expect("reference evaluation"))
        }),
        ordered,
        au_known_fault,
    }
}

fn rust_query(
    name: &'static str,
    sql: String,
    ua: UaCheck,
    ordered: bool,
    reference: Reference,
) -> Query {
    Query {
        name,
        sql,
        ua,
        reference,
        ordered,
        au_known_fault: false,
    }
}

/// The paper's Section 11.1 queries (TPC-H Q3, Q6, Q7 shapes) with
/// parameters drawn from the seed; `orders` is refreshed twice a round.
fn pdbench(rng: &mut StdRng) -> Workload {
    // Q1 runs for three order dates 600 days apart, so each round reads
    // three disjoint 121-day windows of orders.
    let seg = SEGMENTS[rng.gen_range(0..SEGMENTS.len())];
    let d1: i64 = rng.gen_range(570..=600);
    let q1 = |name: &'static str, d: i64| {
        ra_query(
            name,
            format!(
                "SELECT orders.orderkey, orders.orderdate, orders.shippriority \
                 FROM customer, orders, lineitem \
                 WHERE customer.mktsegment <> '{seg}' AND customer.custkey = orders.custkey \
                 AND lineitem.orderkey = orders.orderkey AND orders.orderdate < {d} \
                 AND lineitem.shipdate > {d}"
            ),
            RaExpr::table("customer")
                .select(Expr::named("mktsegment").ne(Expr::lit(seg)))
                .join(
                    RaExpr::table("orders"),
                    Expr::named("customer.custkey").eq(Expr::named("orders.custkey")),
                )
                .select(Expr::named("orderdate").lt(Expr::lit(d)))
                .join(
                    RaExpr::table("lineitem"),
                    Expr::named("lineitem.orderkey").eq(Expr::named("orders.orderkey")),
                )
                .select(Expr::named("shipdate").gt(Expr::lit(d)))
                .project(["orders.orderkey", "orderdate", "shippriority"]),
            false,
            false,
        )
    };
    let q1a = q1("Q1a", d1);
    let q1b = q1("Q1b", d1 + 600);
    let q1c = q1("Q1c", d1 + 1200);

    // TPC-H Q6's validation parameters, with the year drawn.
    let ship_lo: i64 = 365 * rng.gen_range(1..=5i64);
    let ship_hi = ship_lo + 365;
    let (disc_lo, disc_hi, qty) = (0.05, 0.07, 24);
    let q2 = ra_query(
        "Q2",
        format!(
            "SELECT orderkey, extendedprice, discount FROM lineitem \
             WHERE shipdate >= {ship_lo} AND shipdate < {ship_hi} \
             AND discount BETWEEN {disc_lo} AND {disc_hi} AND quantity < {qty}"
        ),
        RaExpr::table("lineitem")
            .select(
                Expr::named("shipdate")
                    .ge(Expr::lit(ship_lo))
                    .and(Expr::named("shipdate").lt(Expr::lit(ship_hi)))
                    .and(Expr::named("discount").between(Expr::lit(disc_lo), Expr::lit(disc_hi)))
                    .and(Expr::named("quantity").lt(Expr::lit(qty))),
            )
            .project(["orderkey", "extendedprice", "discount"]),
        false,
        false,
    );

    let n1: i64 = rng.gen_range(0..25);
    let n2: i64 = (n1 + rng.gen_range(1..25i64)) % 25;
    let q3 = ra_query(
        "Q3",
        format!(
            "SELECT supplier.suppkey, customer.custkey, lineitem.shipdate \
             FROM supplier, lineitem, orders, customer \
             WHERE supplier.suppkey = lineitem.suppkey AND orders.orderkey = lineitem.orderkey \
             AND customer.custkey = orders.custkey AND supplier.nationkey = {n1} \
             AND customer.nationkey = {n2}"
        ),
        RaExpr::table("supplier")
            .select(Expr::named("nationkey").eq(Expr::lit(n1)))
            .join(
                RaExpr::table("lineitem"),
                Expr::named("supplier.suppkey").eq(Expr::named("lineitem.suppkey")),
            )
            .join(
                RaExpr::table("orders"),
                Expr::named("orders.orderkey").eq(Expr::named("lineitem.orderkey")),
            )
            .join(
                RaExpr::table("customer").select(Expr::named("nationkey").eq(Expr::lit(n2))),
                Expr::named("customer.custkey").eq(Expr::named("orders.custkey")),
            )
            .project(["supplier.suppkey", "customer.custkey", "lineitem.shipdate"]),
        false,
        false,
    );

    Workload {
        name: "pdbench",
        scale: 0.006,
        uncertainty: 0.1,
        refreshed: vec!["orders"],
        queries: vec![q1a, q1b, q1c, q2, q3],
        round: vec![
            Op::Query(0),
            Op::Query(3),
            Op::Refresh {
                table: "orders",
                version: 1,
            },
            Op::Query(4),
            Op::Query(1),
            Op::Refresh {
                table: "orders",
                version: 0,
            },
            Op::Query(2),
        ],
    }
}

/// Pipeline breakers and negation: GROUP BY, DISTINCT, ORDER BY … LIMIT,
/// EXCEPT [ALL] and the LEFT JOIN … IS NULL anti-join; `customer` is
/// refreshed twice a round.
fn analytics(rng: &mut StdRng) -> Workload {
    let d1: i64 = rng.gen_range(1500..1600);
    let a1 = rust_query(
        "A1",
        format!(
            "SELECT l.suppkey, COUNT(*) AS cnt, SUM(l.quantity) AS qty, \
             AVG(l.quantity) AS avg_qty, MIN(l.shipdate) AS first_ship, \
             MAX(l.extendedprice) AS top_price \
             FROM lineitem l WHERE l.shipdate < {d1} GROUP BY l.suppkey"
        ),
        UaCheck::NotRun,
        false,
        Box::new(move |db| {
            let li = Rows::of(db, "lineitem");
            let (sk, q, ship, price) = (
                li.col("suppkey"),
                li.col("quantity"),
                li.col("shipdate"),
                li.col("extendedprice"),
            );
            let mut groups: BTreeMap<Value, (i64, i64, i64, f64)> = BTreeMap::new();
            for t in li.rows.iter().filter(|t| int(t, ship) < d1) {
                let g = groups
                    .entry(t[sk].clone())
                    .or_insert((0, 0, i64::MAX, f64::MIN));
                g.0 += 1;
                g.1 += int(t, q);
                g.2 = g.2.min(int(t, ship));
                g.3 = g.3.max(float(t, price));
            }
            groups
                .into_iter()
                .map(|(k, (n, qty, first, top))| {
                    Tuple::new(vec![
                        k,
                        Value::Int(n),
                        Value::Int(qty),
                        Value::float(qty as f64 / n as f64),
                        Value::Int(first),
                        Value::float(top),
                    ])
                })
                .collect()
        }),
    );

    let d2: i64 = rng.gen_range(1200..1300);
    let a2 = rust_query(
        "A2",
        format!(
            "SELECT c.mktsegment, COUNT(*) AS n_orders, SUM(o.shippriority) AS urgent \
             FROM customer c, orders o \
             WHERE c.custkey = o.custkey AND o.orderdate >= {d2} GROUP BY c.mktsegment"
        ),
        UaCheck::NotRun,
        false,
        Box::new(move |db| {
            let c = Rows::of(db, "customer");
            let o = Rows::of(db, "orders");
            let (ck, seg) = (c.col("custkey"), c.col("mktsegment"));
            let (ock, od, prio) = (o.col("custkey"), o.col("orderdate"), o.col("shippriority"));
            let mut orders_of: BTreeMap<Value, Vec<&Tuple>> = BTreeMap::new();
            for t in o.rows.iter().filter(|t| int(t, od) >= d2) {
                orders_of.entry(t[ock].clone()).or_default().push(t);
            }
            let mut groups: BTreeMap<Value, (i64, i64)> = BTreeMap::new();
            for cust in &c.rows {
                for ord in orders_of.get(&cust[ck]).into_iter().flatten() {
                    let g = groups.entry(cust[seg].clone()).or_default();
                    g.0 += 1;
                    g.1 += int(ord, prio);
                }
            }
            groups
                .into_iter()
                .map(|(k, (n, urgent))| Tuple::new(vec![k, Value::Int(n), Value::Int(urgent)]))
                .collect()
        }),
    );

    let d3: i64 = rng.gen_range(600..650);
    let a3 = rust_query(
        "A3",
        format!("SELECT DISTINCT o.custkey, o.shippriority FROM orders o WHERE o.orderdate < {d3}"),
        UaCheck::NotRun,
        false,
        Box::new(move |db| {
            let o = Rows::of(db, "orders");
            let (ck, od, prio) = (o.col("custkey"), o.col("orderdate"), o.col("shippriority"));
            o.rows
                .iter()
                .filter(|t| int(t, od) < d3)
                .map(|t| Tuple::new(vec![t[ck].clone(), t[prio].clone()]))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect()
        }),
    );

    // Filtered on a key column: AU's LIMIT counts tuples outside the
    // selected-guess world too, which a filter on an uncertain column
    // admits, and then the AU answer's selected guess misses det rows
    // (see the README).
    let s4: i64 = rng.gen_range(14..=16);
    let k4 = 100;
    let a4 = rust_query(
        "A4",
        format!(
            "SELECT l.orderkey, l.suppkey, l.extendedprice FROM lineitem l \
             WHERE l.suppkey < {s4} \
             ORDER BY l.extendedprice DESC, l.orderkey, l.suppkey LIMIT {k4}"
        ),
        UaCheck::TopK(
            RaExpr::table("lineitem")
                .select(Expr::named("suppkey").lt(Expr::lit(s4)))
                .project(["orderkey", "suppkey", "extendedprice"]),
        ),
        true,
        Box::new(move |db| {
            let li = Rows::of(db, "lineitem");
            let (ok, sk, price) = (
                li.col("orderkey"),
                li.col("suppkey"),
                li.col("extendedprice"),
            );
            let mut rows: Vec<Tuple> = li
                .rows
                .iter()
                .filter(|t| int(t, sk) < s4)
                .map(|t| Tuple::new(vec![t[ok].clone(), t[sk].clone(), t[price].clone()]))
                .collect();
            rows.sort_by(|a, b| b[2].cmp(&a[2]).then(a[0].cmp(&b[0])).then(a[1].cmp(&b[1])));
            rows.truncate(k4);
            rows
        }),
    );

    let bal: i64 = rng.gen_range(6000..6200);
    let d5: i64 = rng.gen_range(240..260);
    let a5 = rust_query(
        "A5",
        format!(
            "SELECT c.custkey FROM customer c WHERE c.acctbal > {bal} \
             EXCEPT SELECT o.custkey FROM orders o WHERE o.orderdate < {d5}"
        ),
        UaCheck::Negation,
        false,
        Box::new(move |db| {
            let c = Rows::of(db, "customer");
            let o = Rows::of(db, "orders");
            let (ck, cb) = (c.col("custkey"), c.col("acctbal"));
            let (ock, od) = (o.col("custkey"), o.col("orderdate"));
            let right: BTreeSet<&Value> = o
                .rows
                .iter()
                .filter(|t| int(t, od) < d5)
                .map(|t| &t[ock])
                .collect();
            c.rows
                .iter()
                .filter(|t| float(t, cb) > bal as f64 && !right.contains(&t[ck]))
                .map(|t| Tuple::new(vec![t[ck].clone()]))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect()
        }),
    );

    let d6: i64 = rng.gen_range(240..260);
    let a6 = rust_query(
        "A6",
        format!(
            "SELECT o.custkey FROM orders o WHERE o.shippriority = 0 AND o.orderdate < {d6} \
             EXCEPT ALL \
             SELECT o.custkey FROM orders o WHERE o.shippriority = 1 AND o.orderdate < {d6}"
        ),
        UaCheck::Negation,
        false,
        Box::new(move |db| {
            let o = Rows::of(db, "orders");
            let (ock, od, prio) = (o.col("custkey"), o.col("orderdate"), o.col("shippriority"));
            let mut budget: BTreeMap<&Value, i64> = BTreeMap::new();
            for t in o
                .rows
                .iter()
                .filter(|t| int(t, od) < d6 && int(t, prio) == 1)
            {
                *budget.entry(&t[ock]).or_default() += 1;
            }
            let mut out = Vec::new();
            for t in o
                .rows
                .iter()
                .filter(|t| int(t, od) < d6 && int(t, prio) == 0)
            {
                match budget.get_mut(&t[ock]) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => out.push(Tuple::new(vec![t[ock].clone()])),
                }
            }
            out
        }),
    );

    let nations: i64 = 5;
    let d7: i64 = rng.gen_range(240..260);
    let a7 = rust_query(
        "A7",
        format!(
            "SELECT cc.custkey, cc.nationkey \
             FROM (SELECT c.custkey, c.nationkey FROM customer c WHERE c.nationkey < {nations}) cc \
             LEFT JOIN (SELECT o.custkey, o.orderkey FROM orders o WHERE o.orderdate < {d7}) x \
             ON cc.custkey = x.custkey WHERE x.orderkey IS NULL"
        ),
        UaCheck::Negation,
        false,
        Box::new(move |db| {
            let c = Rows::of(db, "customer");
            let o = Rows::of(db, "orders");
            let (ck, cn) = (c.col("custkey"), c.col("nationkey"));
            let (ock, od) = (o.col("custkey"), o.col("orderdate"));
            let ordered: BTreeSet<&Value> = o
                .rows
                .iter()
                .filter(|t| int(t, od) < d7)
                .map(|t| &t[ock])
                .collect();
            c.rows
                .iter()
                .filter(|t| int(t, cn) < nations && !ordered.contains(&t[ck]))
                .map(|t| Tuple::new(vec![t[ck].clone(), t[cn].clone()]))
                .collect()
        }),
    );

    Workload {
        name: "analytics",
        scale: 0.003,
        uncertainty: 0.05,
        refreshed: vec!["customer"],
        queries: vec![a1, a2, a3, a4, a5, a6, a7],
        round: vec![
            Op::Query(0),
            Op::Query(1),
            Op::Query(2),
            Op::Refresh {
                table: "customer",
                version: 1,
            },
            Op::Query(3),
            Op::Query(4),
            Op::Query(5),
            Op::Query(6),
            Op::Refresh {
                table: "customer",
                version: 0,
            },
        ],
    }
}

/// Many short queries — key lookups, a small Top-K, small star joins
/// around `nation` written with aliases — interleaved with refreshes of
/// `supplier` and `customer`. The per-region star join runs once per
/// region, so each round reads every customer's uncertain cells.
fn point_mix(rng: &mut StdRng) -> Workload {
    // Key ranges of the scale below (customers 300, orders 3000).
    let cust: i64 = rng.gen_range(0..300);
    let p1 = ra_query(
        "P1",
        format!(
            "SELECT c.custkey, c.name, c.mktsegment, c.acctbal FROM customer c \
             WHERE c.custkey = {cust}"
        ),
        RaExpr::table("customer")
            .select(Expr::named("custkey").eq(Expr::lit(cust)))
            .project(["custkey", "name", "mktsegment", "acctbal"]),
        false,
        false,
    );

    let order: i64 = rng.gen_range(0..3000);
    let p2 = ra_query(
        "P2",
        format!(
            "SELECT o.orderkey, o.custkey, o.orderdate, o.totalprice FROM orders o \
             WHERE o.orderkey = {order}"
        ),
        RaExpr::table("orders")
            .select(Expr::named("orderkey").eq(Expr::lit(order)))
            .project(["orderkey", "custkey", "orderdate", "totalprice"]),
        false,
        false,
    );

    let n3: i64 = rng.gen_range(10..=14);
    let p3 = rust_query(
        "P3",
        format!(
            "SELECT s.suppkey, s.acctbal FROM supplier s WHERE s.nationkey < {n3} \
             ORDER BY s.acctbal DESC, s.suppkey LIMIT 5"
        ),
        UaCheck::TopK(
            RaExpr::table("supplier")
                .select(Expr::named("nationkey").lt(Expr::lit(n3)))
                .project(["suppkey", "acctbal"]),
        ),
        true,
        Box::new(move |db| {
            let s = Rows::of(db, "supplier");
            let (sk, sn, bal) = (s.col("suppkey"), s.col("nationkey"), s.col("acctbal"));
            let mut rows: Vec<Tuple> = s
                .rows
                .iter()
                .filter(|t| int(t, sn) < n3)
                .map(|t| Tuple::new(vec![t[sk].clone(), t[bal].clone()]))
                .collect();
            rows.sort_by(|a, b| b[1].cmp(&a[1]).then(a[0].cmp(&b[0])));
            rows.truncate(5);
            rows
        }),
    );

    let region_star = |name: &'static str, region: i64| {
        ra_query(
            name,
            format!(
                "SELECT r.name, n.name, c.custkey, c.mktsegment, c.acctbal \
                 FROM region r, nation n, customer c \
                 WHERE n.regionkey = r.regionkey AND c.nationkey = n.nationkey \
                 AND r.regionkey = {region}"
            ),
            RaExpr::table("region")
                .alias("r")
                .select(Expr::named("r.regionkey").eq(Expr::lit(region)))
                .join(
                    RaExpr::table("nation").alias("n"),
                    Expr::named("n.regionkey").eq(Expr::named("r.regionkey")),
                )
                .join(
                    RaExpr::table("customer").alias("c"),
                    Expr::named("c.nationkey").eq(Expr::named("n.nationkey")),
                )
                .project(["r.name", "n.name", "c.custkey", "c.mktsegment", "c.acctbal"]),
            false,
            false,
        )
    };
    let p4 = ["P4.0", "P4.1", "P4.2", "P4.3", "P4.4"]
        .into_iter()
        .zip(0..)
        .map(|(name, region)| region_star(name, region));

    let region5: i64 = rng.gen_range(0..5);
    let p5 = ra_query(
        "P5",
        format!(
            "SELECT n.name, s.suppkey, c.custkey FROM nation n, supplier s, customer c \
             WHERE s.nationkey = n.nationkey AND c.nationkey = n.nationkey \
             AND n.regionkey = {region5}"
        ),
        RaExpr::table("nation")
            .alias("n")
            .select(Expr::named("n.regionkey").eq(Expr::lit(region5)))
            .join(
                RaExpr::table("supplier").alias("s"),
                Expr::named("s.nationkey").eq(Expr::named("n.nationkey")),
            )
            .join(
                RaExpr::table("customer").alias("c"),
                Expr::named("c.nationkey").eq(Expr::named("n.nationkey")),
            )
            .project(["n.name", "s.suppkey", "c.custkey"]),
        false,
        false,
    );

    let order6: i64 = rng.gen_range(0..3000);
    let p6 = ra_query(
        "P6",
        format!(
            "SELECT o.orderkey, o.orderdate, c.name, n.name FROM orders o, customer c, nation n \
             WHERE o.custkey = c.custkey AND c.nationkey = n.nationkey \
             AND o.orderkey = {order6}"
        ),
        RaExpr::table("orders")
            .alias("o")
            .select(Expr::named("o.orderkey").eq(Expr::lit(order6)))
            .join(
                RaExpr::table("customer").alias("c"),
                Expr::named("o.custkey").eq(Expr::named("c.custkey")),
            )
            .join(
                RaExpr::table("nation").alias("n"),
                Expr::named("c.nationkey").eq(Expr::named("n.nationkey")),
            )
            .project(["o.orderkey", "o.orderdate", "c.name", "n.name"]),
        false,
        false,
    );

    // The known fault: `n` has three join neighbours, written with
    // aliases. Its inputs (`region`, `nation`) do not depend on the seed
    // and are never refreshed, so AU fails on it in every run.
    let p7 = ra_query(
        "P7",
        "SELECT r.name, n.name FROM region r, nation n, nation m, region q \
         WHERE n.regionkey = r.regionkey AND m.nationkey = n.nationkey \
         AND q.regionkey = n.regionkey"
            .to_string(),
        RaExpr::table("region")
            .alias("r")
            .join(
                RaExpr::table("nation").alias("n"),
                Expr::named("n.regionkey").eq(Expr::named("r.regionkey")),
            )
            .join(
                RaExpr::table("nation").alias("m"),
                Expr::named("m.nationkey").eq(Expr::named("n.nationkey")),
            )
            .join(
                RaExpr::table("region").alias("q"),
                Expr::named("q.regionkey").eq(Expr::named("n.regionkey")),
            )
            .project(["r.name", "n.name"]),
        false,
        true,
    );

    let order8: i64 = rng.gen_range(0..3000);
    let p8 = ra_query(
        "P8",
        format!(
            "SELECT l.orderkey, l.quantity, l.extendedprice, l.discount, l.shipdate \
             FROM lineitem l WHERE l.orderkey = {order8}"
        ),
        RaExpr::table("lineitem")
            .select(Expr::named("orderkey").eq(Expr::lit(order8)))
            .project([
                "orderkey",
                "quantity",
                "extendedprice",
                "discount",
                "shipdate",
            ]),
        false,
        false,
    );

    // Order keys are dense, so the range holds exactly 500 orders.
    let order9: i64 = rng.gen_range(0..2500);
    let p9 = ra_query(
        "P9",
        format!(
            "SELECT o.orderkey, o.orderdate, o.shippriority, o.totalprice FROM orders o \
             WHERE o.orderkey BETWEEN {order9} AND {}",
            order9 + 499
        ),
        RaExpr::table("orders")
            .select(Expr::named("orderkey").between(Expr::lit(order9), Expr::lit(order9 + 499)))
            .project(["orderkey", "orderdate", "shippriority", "totalprice"]),
        false,
        false,
    );

    let mut queries = vec![p1, p2, p3, p5, p6, p7, p8, p9];
    queries.extend(p4);
    let star = |region: usize| Op::Query(8 + region);
    let refresh = |table, version| Op::Refresh { table, version };
    Workload {
        name: "point-mix",
        scale: 0.002,
        uncertainty: 0.2,
        refreshed: vec!["supplier", "customer"],
        queries,
        round: vec![
            Op::Query(0),
            Op::Query(1),
            Op::Query(2),
            refresh("supplier", 1),
            star(0),
            star(1),
            Op::Query(3),
            refresh("customer", 1),
            star(2),
            Op::Query(4),
            Op::Query(5),
            refresh("supplier", 0),
            star(3),
            Op::Query(6),
            Op::Query(7),
            Op::Query(2),
            star(4),
            refresh("customer", 0),
        ],
    }
}

/// A relation expanded into a bag of rows.
pub fn bag(rel: &Relation<u64>) -> Vec<Tuple> {
    let mut out = Vec::new();
    for (t, &n) in rel.iter() {
        out.extend(std::iter::repeat_n(t.clone(), n as usize));
    }
    out
}

/// One world table's rows plus column lookup.
struct Rows<'a> {
    rel: &'a Relation<u64>,
    rows: Vec<Tuple>,
}

impl<'a> Rows<'a> {
    fn of(db: &'a Database<u64>, table: &str) -> Rows<'a> {
        let rel = db.get(table).expect("table in world");
        Rows {
            rel,
            rows: bag(rel),
        }
    }

    fn col(&self, name: &str) -> usize {
        self.rel.schema().resolve(name).expect("column exists")
    }
}

fn int(t: &Tuple, i: usize) -> i64 {
    match &t[i] {
        Value::Int(n) => *n,
        other => panic!("expected an integer, found {other:?}"),
    }
}

fn float(t: &Tuple, i: usize) -> f64 {
    t[i].as_f64().expect("numeric value")
}
