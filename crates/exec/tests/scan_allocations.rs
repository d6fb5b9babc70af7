//! Allocation regression for the vectorized scan: a scan reuses its
//! batch's buffers, the selection vector among them, whatever stages
//! follow it, so what it allocates does not grow with the number of
//! batches. Counted with the counting allocator the `fig4` harness
//! installs, here as this test binary's own; counts are per thread, and
//! a degree-1 plan runs on the calling thread.

#[allow(dead_code)]
#[path = "../../bench/src/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations, Counting};
use volcano_core::{PhysicalProps, SearchOptions};
use volcano_exec::{BatchConfig, Database, Engine, ExecOptions};
use volcano_rel::{explain_plan, Catalog, ColumnDef, RelModel, RelOptimizer, RelProps, Value};
use volcano_sql::plan_query;

#[global_allocator]
static ALLOC: Counting = Counting;

/// A table of 20 000 rows, one of 5 000 and a 100-row `dim` that both
/// join on `b`; no NULLs, so every page holds as many rows and every
/// batch is as long.
fn database() -> (Database, Catalog) {
    let mut catalog = Catalog::new();
    let columns = || vec![ColumnDef::int("a", 20_000.0), ColumnDef::int("b", 100.0)];
    catalog.add_table("long", 20_000.0, columns());
    catalog.add_table("short", 5_000.0, columns());
    catalog.add_table("dim", 100.0, vec![ColumnDef::int("id", 100.0)]);
    let db = Database::in_memory(catalog.clone());
    for (table, rows) in [("long", 20_000), ("short", 5_000)] {
        let id = catalog.table_by_name(table).unwrap().id;
        for i in 0..rows {
            db.insert(id, vec![Value::Int(i), Value::Int(i % 100)]);
        }
    }
    let dim = catalog.table_by_name("dim").unwrap().id;
    for i in 0..100 {
        db.insert(dim, vec![Value::Int(i)]);
    }
    let pages = db
        .table(catalog.table_by_name("short").unwrap().id)
        .num_pages();
    assert!(pages > 20, "{pages} pages: the scan must run many batches");
    (db, catalog)
}

/// `sql(table)`, a `COUNT(*)` whose plan shows `shape`, allocates as
/// often over `long` as over `short`, at a batch size that reads page by
/// page (a batch is at least one page) and at one that reads several
/// pages a batch. The buffers grow with the batch, not with the table:
/// at batch size 1 024 the columns grow a few times more than at 16, so
/// the two sizes are each compared with themselves.
fn assert_allocations_independent_of_length(shape: &str, sql: impl Fn(&str) -> String) {
    let (db, catalog) = database();
    let allocs = |table: &str, batch_size: usize| {
        let sql = sql(table);
        let q = plan_query(&sql, &mut catalog.clone()).unwrap();
        let model = RelModel::with_defaults(catalog.clone());
        let mut opt = RelOptimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&q.expr);
        let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();
        let explained = explain_plan(&catalog, &plan);
        assert!(
            explained.contains(shape),
            "{sql}: expected {shape}\n{explained}"
        );
        let cfg = BatchConfig::with_batch_size(batch_size);
        let opts = ExecOptions::new().with_executor(Engine::Fused(cfg));
        let before = allocations();
        let rows = db.execute(&plan, &opts, None);
        let made = allocations() - before;
        assert!(
            matches!(rows[0][0], Value::Int(n) if n > 0),
            "{sql}: the query keeps some rows"
        );
        made
    };
    for batch_size in [16, 1_024] {
        let (long, short) = (allocs("long", batch_size), allocs("short", batch_size));
        assert_eq!(
            long,
            short,
            "{}, batch size {batch_size}: the long table allocated {long} times, the short {short}",
            sql("t")
        );
    }
}

/// A predicated scan keeps its selection buffer across batches.
#[test]
fn a_predicated_scan_allocates_the_same_whatever_its_length() {
    assert_allocations_independent_of_length("filter_scan(", |t| {
        format!("SELECT COUNT(*) FROM {t} WHERE {t}.b < 50")
    });
}

/// The probe side of a hash join writes a batch of another shape than
/// its scan decodes; the scan still refills a batch of its own shape.
#[test]
fn a_probing_scan_allocates_the_same_whatever_its_length() {
    assert_allocations_independent_of_length("hash_join[dim.id = ", |t| {
        format!("SELECT COUNT(*) FROM {t}, dim WHERE {t}.b = dim.id")
    });
}
