//! Allocation regression for the vectorized scan: a predicated scan
//! reuses its batch's buffers, the selection vector among them, so what
//! it allocates does not grow with the number of batches. Counted with
//! the counting allocator the `fig4` harness installs, here as this test
//! binary's own; counts are per thread, and a degree-1 plan runs on the
//! calling thread.

#[allow(dead_code)]
#[path = "../../bench/src/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations, Counting};
use volcano_core::{PhysicalProps, SearchOptions};
use volcano_exec::{BatchConfig, Database, Engine, ExecOptions};
use volcano_rel::{Catalog, ColumnDef, RelModel, RelOptimizer, RelProps, Value};
use volcano_sql::plan_query;

#[global_allocator]
static ALLOC: Counting = Counting;

/// The same `COUNT(*) ... WHERE` over a table and over one four times
/// its length allocates the same number of times, at a batch size that
/// reads page by page (a batch is at least one page) and at one that
/// reads several pages a batch. The buffers grow with the batch, not
/// with the table: at batch size 1 024 the columns grow a few times more
/// than at 16, so the two sizes are each compared with themselves.
#[test]
fn a_predicated_scan_allocates_the_same_whatever_its_length() {
    let mut catalog = Catalog::new();
    let columns = || vec![ColumnDef::int("a", 20_000.0), ColumnDef::int("b", 100.0)];
    catalog.add_table("long", 20_000.0, columns());
    catalog.add_table("short", 5_000.0, columns());
    let db = Database::in_memory(catalog.clone());
    // No NULLs: every page holds as many rows, so every batch is as long.
    for (table, rows) in [("long", 20_000), ("short", 5_000)] {
        let id = catalog.table_by_name(table).unwrap().id;
        for i in 0..rows {
            db.insert(id, vec![Value::Int(i), Value::Int(i % 100)]);
        }
    }
    let pages = db
        .table(catalog.table_by_name("short").unwrap().id)
        .num_pages();
    assert!(pages > 20, "{pages} pages: the scan must run many batches");
    let allocs = |table: &str, batch_size: usize| {
        let sql = format!("SELECT COUNT(*) FROM {table} WHERE {table}.b < 50");
        let q = plan_query(&sql, &mut catalog.clone()).unwrap();
        let model = RelModel::with_defaults(catalog.clone());
        let mut opt = RelOptimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&q.expr);
        let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();
        let cfg = BatchConfig::with_batch_size(batch_size);
        let opts = ExecOptions::new().with_executor(Engine::Fused(cfg));
        let before = allocations();
        let rows = db.execute(&plan, &opts, None);
        let made = allocations() - before;
        assert!(
            matches!(rows[0][0], Value::Int(n) if n > 0),
            "{sql}: the predicate keeps some rows"
        );
        made
    };
    for batch_size in [16, 1_024] {
        let (long, short) = (allocs("long", batch_size), allocs("short", batch_size));
        assert_eq!(
            long, short,
            "batch size {batch_size}: the long table allocated {long} times, the short {short}"
        );
    }
}
