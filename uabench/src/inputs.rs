//! Seeded inputs: TPC-H-shaped tables with PDBench cell-level uncertainty,
//! held in the forms the sessions load, plus the pre-generated versions
//! that refreshes swap in.
//!
//! Everything here is the benchmark's own data generation and is excluded
//! from `setup_s`. The program's encoders (`UaDb::from_xdb`,
//! `AuRelation::from_x_blocks`) run at set-up time, on the data kept here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use ua_core::UaDb;
#[cfg(test)]
use ua_data::relation::Database;
use ua_data::relation::Relation;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_datagen::pdbench::{inject_db, PdbenchConfig, UncertainDb};
use ua_datagen::queries::pdbench_uncertain_columns;
use ua_datagen::tpch::{generate, TpchConfig};
use ua_engine::storage::Table;
use ua_models::{XDb, XRelation};
use ua_ranges::AuRelation;
use ua_semiring::pair::Ua;

/// The TPC-H tables every workload loads, in registration order.
pub const TABLES: [&str; 6] = [
    "region", "nation", "supplier", "customer", "orders", "lineitem",
];

/// One version of one table, in every form the benchmark needs.
pub struct Version {
    /// Best-guess-world rows: what det sessions load.
    pub det: Table,
    /// The x-relation (ground truth: alternatives with probabilities).
    pub xrel: XRelation,
    /// The x-blocks `AuRelation::from_x_blocks` consumes.
    pub blocks: Vec<Vec<(Tuple, f64)>>,
    /// Pre-encoded UA relation (used by refreshes only; set-up encodes
    /// from the x-DB itself).
    pub ua: Relation<Ua<u64>>,
    /// Pre-encoded AU relation (used by refreshes only).
    pub au: AuRelation,
}

impl Version {
    fn new(det: Table, xrel: XRelation, name: &str) -> Version {
        let blocks = x_blocks(&xrel);
        let mut single = XDb::new();
        single.insert(name, xrel.clone());
        let ua = UaDb::from_xdb(&single)
            .relation(name)
            .expect("relation was inserted")
            .clone();
        let au = AuRelation::from_x_blocks(xrel.schema().clone(), blocks.iter().map(Vec::as_slice));
        Version {
            det,
            xrel,
            blocks,
            ua,
            au,
        }
    }
}

/// The x-blocks of an x-relation: each x-tuple's alternatives with their
/// probabilities.
fn x_blocks(xrel: &XRelation) -> Vec<Vec<(Tuple, f64)>> {
    xrel.xtuples()
        .iter()
        .map(|xt| {
            xt.alternatives
                .iter()
                .map(|a| (a.tuple.clone(), a.probability))
                .collect()
        })
        .collect()
}

/// All generated inputs of one run.
pub struct Inputs {
    /// Versions per table; version 0 is loaded at set-up, refreshes swap
    /// in the others.
    pub tables: BTreeMap<&'static str, Vec<Version>>,
}

/// Which version of each table is loaded (a table absent from the map is
/// at version 0).
pub type State = BTreeMap<&'static str, usize>;

/// Inject PDBench uncertainty into `tables` (each TPC-H table's eligible
/// columns).
fn inject(tables: &[(&'static str, &Table)], seed: u64, uncertainty: f64) -> UncertainDb {
    let tables: Vec<(&str, &Table, &[&str])> = tables
        .iter()
        .map(|&(name, table)| (name, table, pdbench_uncertain_columns(name)))
        .collect();
    inject_db(
        &tables,
        &PdbenchConfig {
            uncertainty,
            seed,
            ..Default::default()
        },
    )
}

/// A second version of a table: the same keys and rows, with every
/// uncertainty-eligible numeric value nudged (integers by up to ±3,
/// floats by up to ±1 %), so selectivities and sizes stay those of the
/// original.
fn perturbed(name: &str, table: &Table, rng: &mut StdRng) -> Table {
    let cols: Vec<usize> = pdbench_uncertain_columns(name)
        .iter()
        .map(|c| table.schema().resolve(c).expect("eligible column exists"))
        .collect();
    let rows = table
        .rows()
        .iter()
        .map(|row| {
            let mut values = row.to_vec();
            for &c in &cols {
                values[c] = match &values[c] {
                    Value::Int(n) => Value::Int(n + rng.gen_range(-3..=3i64)),
                    Value::Float(f) => Value::float(f.get() * rng.gen_range(0.99..1.01)),
                    other => other.clone(),
                };
            }
            Tuple::new(values)
        })
        .collect();
    Table::from_rows(table.schema().clone(), rows)
}

impl Inputs {
    /// Generate a TPC-H database at `scale` from `seed`, make an
    /// `uncertainty` share of its eligible cells uncertain, and
    /// pre-generate a second version of each `refreshed` table (values
    /// nudged, uncertainty injected afresh).
    pub fn generate(scale: f64, seed: u64, refreshed: &[&'static str], uncertainty: f64) -> Inputs {
        let data = generate(&TpchConfig::new(scale, seed));
        let db = inject(&data.tables(), seed, uncertainty);
        let mut tables: BTreeMap<&'static str, Vec<Version>> = BTreeMap::new();
        for name in TABLES {
            let xrel = db.xdb.get(name).expect("injected table").clone();
            tables.insert(name, vec![Version::new(db.bgw[name].clone(), xrel, name)]);
        }
        let alt_seed = seed ^ 0x5eed_f00d_cafe_0001;
        let mut rng = StdRng::seed_from_u64(alt_seed);
        for &(name, table) in data.tables().iter().filter(|(n, _)| refreshed.contains(n)) {
            let second = perturbed(name, table, &mut rng);
            let alt = inject(&[(name, &second)], alt_seed, uncertainty);
            let xrel = alt.xdb.get(name).expect("injected table").clone();
            tables
                .get_mut(name)
                .expect("refreshed table is a TPC-H table")
                .push(Version::new(alt.bgw[name].clone(), xrel, name));
        }
        Inputs { tables }
    }

    /// The version of `name` loaded in `state`.
    pub fn version(&self, name: &str, state: &State) -> &Version {
        let versions = &self.tables[name];
        &versions[state.get(name).copied().unwrap_or(0)]
    }

    /// The x-DB of a state.
    pub fn xdb(&self, state: &State) -> XDb {
        let mut xdb = XDb::new();
        for name in TABLES {
            xdb.insert(name, self.version(name, state).xrel.clone());
        }
        xdb
    }

    /// The best-guess world of a state.
    #[cfg(test)]
    pub fn bgw(&self, state: &State) -> Database<u64> {
        self.xdb(state).best_guess_world()
    }

    /// Row counts of version 0, for the run's header.
    pub fn sizes(&self) -> Vec<(&'static str, usize)> {
        TABLES
            .iter()
            .map(|&n| (n, self.tables[n][0].det.len()))
            .collect()
    }

    /// Feed every generated table version (best-guess rows and x-tuple
    /// alternatives with probability bits) into a digest.
    pub fn digest_into(&self, d: &mut Digest) {
        for (name, versions) in &self.tables {
            for (i, v) in versions.iter().enumerate() {
                d.write_str(&format!("{name}#{i}"));
                for row in v.det.rows() {
                    d.write_str(&row.to_string());
                }
                for xt in v.xrel.xtuples() {
                    for alt in &xt.alternatives {
                        d.write_str(&alt.tuple.to_string());
                        d.write_u64(alt.probability.to_bits());
                    }
                    d.write_u64(u64::from(xt.optional));
                }
            }
        }
    }
}

/// A 64-bit FNV-1a digest: stable across runs, platforms and builds.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix in raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix in a string and a separator.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Mix in a number.
    pub fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
