//! Random select–join query generation per the paper's §4.2 setup.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use volcano_rel::builder::{join, select_one};
use volcano_rel::{Catalog, Cmp, CmpOp, ColumnDef, JoinPred, RelExpr, TableId};

/// Workload parameters; defaults reproduce §4.2.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of input relations (the paper sweeps 2–8).
    pub num_relations: usize,
    /// Minimum relation cardinality (paper: 1,200 records).
    pub min_card: u64,
    /// Maximum relation cardinality (paper: 7,200 records).
    pub max_card: u64,
    /// Number of integer join/selection columns per relation.
    pub int_columns: usize,
    /// Probability that a new join edge reuses an attribute already used
    /// by another edge at the same relation — this is what creates
    /// *interesting orders* for the property-driven search to exploit.
    pub shared_attr_probability: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_relations: 4,
            min_card: 1_200,
            max_card: 7_200,
            int_columns: 4,
            shared_attr_probability: 0.8,
        }
    }
}

impl WorkloadConfig {
    /// Config for `n` relations, other parameters per the paper.
    pub fn relations(n: usize) -> Self {
        WorkloadConfig {
            num_relations: n,
            ..WorkloadConfig::default()
        }
    }
}

/// One benchmark query with its private catalog.
pub struct GeneratedQuery {
    /// The catalog the query runs against.
    pub catalog: Catalog,
    /// The query: joins over selections over scans.
    pub expr: RelExpr,
    /// Number of input relations.
    pub num_relations: usize,
}

/// Query `q` of Figure 4's complexity level `n`: seed `n·10 000 + q`
/// over [`WorkloadConfig::relations`]. The figure and its ablation
/// table read this one stream.
pub fn fig4_query(n: usize, q: usize) -> GeneratedQuery {
    generate_query(&WorkloadConfig::relations(n), n as u64 * 10_000 + q as u64)
}

/// Generate one random select–join query.
///
/// The join graph is a random spanning tree over the relations (so the
/// query has exactly `n - 1` binary joins and needs no Cartesian
/// products), each relation carries one selection placed directly above
/// its scan ("as many selections as input relations"), and 100-byte rows
/// are modelled with `int_columns` integer columns plus a string filler.
pub fn generate_query(config: &WorkloadConfig, seed: u64) -> GeneratedQuery {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = config.num_relations;
    assert!(n >= 1);

    let mut catalog = Catalog::new();
    let mut tables: Vec<TableId> = Vec::with_capacity(n);
    for i in 0..n {
        let card = rng.gen_range(config.min_card..=config.max_card) as f64;
        let mut cols: Vec<ColumnDef> = (0..config.int_columns)
            .map(|c| {
                // c0 is a unique key (selection target); the remaining
                // columns are join candidates with medium/low distinct
                // counts, so join results grow and plan choice matters.
                let distinct = if c == 0 {
                    card
                } else {
                    // Moderate, fairly uniform growth (~3x per join):
                    // large enough that intermediate results dominate and
                    // no join order can avoid them, small enough that
                    // per-input costs — where order-based plans win — stay
                    // a meaningful share of total cost.
                    if rng.gen_range(0..5) < 4 {
                        card / 10.0
                    } else {
                        100.0
                    }
                };
                ColumnDef::int(&format!("c{c}"), distinct.max(1.0))
            })
            .collect();
        // Pad the row to 100 bytes (paper: "records of 100 bytes").
        let pad = 100u32.saturating_sub(8 * config.int_columns as u32);
        cols.push(ColumnDef::str("filler", pad, card));
        tables.push(catalog.add_table(&format!("t{i}"), card, cols));
    }

    // Selection per relation, above its scan: ranges on the key column
    // (System R's 1/3 selectivity), or equality on a categorical column
    // (selectivity ≥ 1/100) — selective but not annihilating, so the
    // intermediate results that drive plan choice stay meaningful.
    let mut leaves: Vec<RelExpr> = Vec::with_capacity(n);
    for &t in &tables {
        let table = catalog.table(t);
        let categorical: Vec<_> = table
            .columns
            .iter()
            .take(config.int_columns)
            .filter(|c| c.distinct <= 100.0)
            .collect();
        let cmp = if rng.gen_bool(0.85) || categorical.is_empty() {
            let col = &table.columns[0];
            Cmp::new(col.attr, CmpOp::Lt, rng.gen_range(0..1_000_000i64))
        } else {
            let col = categorical[rng.gen_range(0..categorical.len())];
            Cmp::new(
                col.attr,
                CmpOp::Eq,
                rng.gen_range(0..col.distinct as i64 + 1),
            )
        };
        leaves.push(select_one(RelExpr::leaf(volcano_rel::RelOp::Get(t)), cmp));
    }

    // Random spanning tree: connect each new relation to a random
    // already-connected one.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    // The first relation in the order is the *hub*: with probability
    // `shared_attr_probability`, an edge joins the new relation to the
    // hub on the hub's designated join attribute (the star-schema /
    // N-way-common-key pattern). Runs of joins sharing one attribute are
    // what give a property-driven search interesting orders to exploit;
    // non-hub edges pick a random partner and fresh attributes.
    let join_col = |rng: &mut StdRng, catalog: &Catalog, idx: usize| {
        // Join columns exclude c0 (the unique key), so join
        // selectivities stay in a range where results grow.
        let t = catalog.table_by_name(&format!("t{idx}")).unwrap();
        t.columns[rng.gen_range(1..config.int_columns)].attr
    };
    let hub_attr = join_col(&mut rng, &catalog, order[0]);
    let mut expr: Option<RelExpr> = None;
    let mut joined: Vec<usize> = Vec::new();

    for &rel in &order {
        let leaf = leaves[rel].clone();
        match expr.take() {
            None => {
                expr = Some(leaf);
                joined.push(rel);
            }
            Some(acc) => {
                let pa = if rng.gen_bool(config.shared_attr_probability) {
                    hub_attr
                } else {
                    let partner = joined[rng.gen_range(0..joined.len())];
                    join_col(&mut rng, &catalog, partner)
                };
                let ra = join_col(&mut rng, &catalog, rel);
                // The accumulated expression is on the left; its schema
                // contains `pa`.
                expr = Some(join(acc, leaf, JoinPred::eq(pa, ra)));
                joined.push(rel);
            }
        }
    }

    GeneratedQuery {
        catalog,
        expr: expr.expect("at least one relation"),
        num_relations: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcano_core::model::Operator;

    #[test]
    fn query_shape_matches_paper_setup() {
        for n in 2..=6 {
            let q = generate_query(&WorkloadConfig::relations(n), 42 + n as u64);
            assert_eq!(q.num_relations, n);
            // n scans, n selections, n-1 joins.
            assert_eq!(q.expr.node_count(), 3 * n - 1);
            assert_eq!(count_ops(&q.expr, "join"), n - 1);
            assert_eq!(count_ops(&q.expr, "select"), n);
            assert_eq!(count_ops(&q.expr, "get"), n);
        }
    }

    #[test]
    fn rows_are_100_bytes() {
        let q = generate_query(&WorkloadConfig::relations(3), 7);
        for t in q.catalog.tables() {
            assert_eq!(t.row_width(), 100);
            assert!(t.card >= 1_200.0 && t.card <= 7_200.0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_query(&WorkloadConfig::relations(5), 99);
        let b = generate_query(&WorkloadConfig::relations(5), 99);
        assert_eq!(a.expr, b.expr);
    }

    fn count_ops(e: &RelExpr, name: &str) -> usize {
        let mut c = usize::from(e.op.name() == name);
        for i in &e.inputs {
            c += count_ops(i, name);
        }
        c
    }
}
