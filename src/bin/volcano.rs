//! `volcano` — a small command-line shell over the whole stack.
//!
//! Reads a `;`-separated script from a file argument or stdin:
//!
//! ```text
//! CREATE TABLE emp (id INT, dept INT DISTINCT 20, salary INT DISTINCT 100) CARD 2000;
//! CREATE TABLE dept (id INT DISTINCT 20, region INT DISTINCT 4) CARD 20;
//! GENERATE SEED 42;
//! EXPLAIN SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id ORDER BY emp.id;
//! SELECT dept, COUNT(*) FROM emp GROUP BY dept;
//! ```
//!
//! Usage: `volcano [script.sql]` (defaults to stdin), or
//! `cargo run --bin volcano -- script.sql`.
//!
//! The shell is one [`Session`] of the serving layer: `SET EXECUTOR`,
//! `SET PLAN_CACHE`, and `SET FEEDBACK` are session state, and `PREPARE`
//! / `EXECUTE` go through the session (and so through admission
//! control, like any other client of the shared database).

use std::io::Read;
use std::sync::Arc;

use volcano::core::SearchOptions;
use volcano::exec::{
    BatchConfig, Database, Engine, ExecOptions, Server, ServerConfig, Session, TrafficClass,
};
use volcano::rel::catalog::ColType;
use volcano::rel::{
    explain_expr, explain_plan, Catalog, ColumnDef, RelModel, RelModelOptions, RelOptimizer,
    RelProps,
};
use volcano::sql::{
    lower, parse_script, AstQuery, ExecutorSetting, PlanCacheSetting, Query, Statement,
};

struct Shell {
    catalog: Catalog,
    /// The shell's one serving-layer session (created lazily together
    /// with the database, so all CREATE TABLE statements can precede
    /// it). Owns the prepared statements and the per-session `SET`
    /// state; the database underneath takes `&self` everywhere.
    session: Option<Session>,
    /// User-supplied cost limit (§3): queries whose best plan exceeds it
    /// are rejected instead of executed.
    cost_limit: Option<f64>,
    /// Execution engine for subsequent queries (tuple or vectorized).
    /// Mirrored into the session.
    executor: Engine,
    /// Morsel-driven parallel degree for the vectorized engine (1 =
    /// serial).
    /// The optimizer sees it as a physical property: at degree > 1 it
    /// weighs gather plans against serial ones and keeps whichever is
    /// cheaper.
    parallel_degree: u32,
}

impl Shell {
    fn new() -> Self {
        Shell {
            catalog: Catalog::new(),
            session: None,
            cost_limit: None,
            executor: Engine::Tuple,
            parallel_degree: 1,
        }
    }

    fn model_options(&self) -> RelModelOptions {
        RelModelOptions::default().with_parallel_degree(self.parallel_degree)
    }

    /// The shell's session, creating the database on first use.
    fn session(&mut self) -> &mut Session {
        if self.session.is_none() {
            let db = Database::in_memory(self.catalog.clone());
            db.set_parallel_degree(self.parallel_degree);
            let server = Server::new(db, ServerConfig::default());
            let mut session = server.session(TrafficClass::Interactive);
            session.set_executor(self.executor);
            self.session = Some(session);
        }
        self.session.as_mut().expect("just created")
    }

    fn db(&mut self) -> Arc<Database> {
        self.session().db().clone()
    }

    /// Lower a query against the catalog it will be planned with: the
    /// database's once it exists (its statistics and feedback memory),
    /// the shell's own before. Lowering may allocate aggregate attrs, so
    /// the caller plans and executes against the returned copy.
    fn lower(&self, ast: &AstQuery) -> Result<(Catalog, Query), String> {
        let mut catalog = match &self.session {
            Some(session) => (*session.db().catalog()).clone(),
            None => self.catalog.clone(),
        };
        let q = lower(ast, &mut catalog).map_err(|e| e.to_string())?;
        Ok((catalog, q))
    }

    fn run(&mut self, stmt: Statement) -> Result<(), String> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                card,
            } => {
                if self.session.is_some() {
                    return Err(
                        "CREATE TABLE must precede GENERATE / queries in this shell".to_string()
                    );
                }
                let cols: Vec<ColumnDef> = columns
                    .into_iter()
                    .map(|c| {
                        let ty = match c.ty.as_str() {
                            "INT" | "INTEGER" => ColType::Int,
                            "FLOAT" | "DOUBLE" => ColType::Float,
                            "STRING" | "TEXT" | "VARCHAR" => ColType::Str,
                            "BOOL" | "BOOLEAN" => ColType::Bool,
                            other => return Err(format!("unknown type {other}")),
                        };
                        let width = c.width.unwrap_or(match ty {
                            ColType::Str => 16,
                            _ => 8,
                        });
                        if c.indexed && ty != ColType::Int {
                            return Err(format!(
                                "column {}: only INT columns can be INDEXED",
                                c.name
                            ));
                        }
                        Ok(ColumnDef {
                            name: c.name,
                            ty,
                            width,
                            distinct: c.distinct.unwrap_or(card),
                            indexed: c.indexed,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                self.catalog.add_table(&name, card, cols);
                println!("created table {name} (card {card})");
                Ok(())
            }
            Statement::SetCostLimit(limit) => {
                self.cost_limit = limit;
                match limit {
                    Some(l) => println!("cost limit set to {l} ms"),
                    None => println!("cost limit off"),
                }
                Ok(())
            }
            Statement::SetExecutor(setting) => {
                match setting {
                    ExecutorSetting::Tuple => {
                        self.executor = Engine::Tuple;
                        println!("executor: {}", self.executor.label());
                    }
                    ExecutorSetting::Fused {
                        batch_size,
                        parallel,
                    } => {
                        let cfg = match batch_size {
                            Some(n) => BatchConfig::with_batch_size(n),
                            None => BatchConfig::default(),
                        };
                        self.executor = Engine::Fused(cfg);
                        if let Some(degree) = parallel {
                            self.parallel_degree = degree.max(1);
                            if let Some(session) = &self.session {
                                session.db().set_parallel_degree(self.parallel_degree);
                            }
                        }
                        println!(
                            "executor: {} (batch size {}, parallel degree {})",
                            self.executor.label(),
                            cfg.batch_size,
                            self.parallel_degree
                        );
                    }
                }
                let executor = self.executor;
                if let Some(session) = &mut self.session {
                    session.set_executor(executor);
                }
                Ok(())
            }
            Statement::Generate { seed } => {
                self.db().generate(seed);
                println!(
                    "generated data for {} table(s)",
                    self.catalog.tables().len()
                );
                Ok(())
            }
            Statement::Explain {
                query: ast,
                analyze,
            } => {
                let (catalog, q) = self.lower(&ast)?;
                println!("-- logical algebra --");
                print!("{}", explain_expr(&catalog, &q.expr));
                let model = RelModel::new(catalog.clone(), self.model_options());
                let mut opt = RelOptimizer::new(&model, SearchOptions::default());
                let root = opt.insert_tree(&q.expr);
                let goal = RelProps::sorted(q.order_by.clone());
                let plan = opt
                    .find_best_plan(root, goal, None)
                    .map_err(|e| e.to_string())?;
                println!("-- physical plan --");
                print!("{}", explain_plan(&catalog, &plan));
                println!(
                    "-- search: {} goals, {} moves, memo ~{} KB --",
                    opt.stats().goals_optimized,
                    opt.stats().total_moves(),
                    opt.stats().memo_bytes / 1024
                );
                if analyze {
                    let db = self.db();
                    let analyzed =
                        volcano::exec::execute_analyzed(&db, &catalog, &plan, self.executor);
                    println!("-- analyze ({} result rows) --", analyzed.rows.len());
                    print!("{}", analyzed.report());
                    // Machine-readable export: per-node measurements plus
                    // the search and plan-cache statistics, one JSON object.
                    println!("-- json --");
                    println!(
                        "{{\"analyze\":{},\"search\":{},\"plan_cache\":{},\"feedback\":{}}}",
                        analyzed.to_json(),
                        opt.stats().to_json(),
                        db.plan_cache().stats().to_json(),
                        db.feedback_stats().to_json()
                    );
                }
                Ok(())
            }
            Statement::Query(ast) => {
                let (catalog, q) = self.lower(&ast)?;
                let cost_limit = self.cost_limit;
                let model = RelModel::new(catalog, self.model_options());
                let mut opt = RelOptimizer::new(&model, SearchOptions::default());
                let root = opt.insert_tree(&q.expr);
                let goal = RelProps::sorted(q.order_by.clone());
                let limit = cost_limit.map(|l| volcano::rel::RelCost::new(0.0, l));
                let plan = opt
                    .find_best_plan(root, goal, limit)
                    .map_err(|e| match cost_limit {
                        Some(l) => format!("{e} (cost limit {l} ms)"),
                        None => e.to_string(),
                    })?;
                let session = self.session();
                let opts = ExecOptions::new()
                    .with_executor(session.executor())
                    .with_feedback(session.feedback_enabled());
                let rows = session.db().execute(&plan, &opts, None);
                for row in &rows {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    println!("{}", cells.join(" | "));
                }
                println!("({} rows)", rows.len());
                Ok(())
            }
            Statement::DropTable { name } => {
                if self.catalog.drop_table(&name).is_none() {
                    return Err(format!("unknown table {name}"));
                }
                if let Some(session) = &self.session {
                    session.db().drop_table(&name);
                }
                println!("dropped table {name}");
                Ok(())
            }
            Statement::SetPlanCache(setting) => {
                let db = self.db();
                match setting {
                    PlanCacheSetting::On => {
                        self.session().set_plan_cache(true);
                        println!("plan cache on (capacity {})", db.plan_cache().capacity());
                    }
                    PlanCacheSetting::Off => {
                        // Session-level bypass: the shared cache and its
                        // contents are untouched for other sessions.
                        self.session().set_plan_cache(false);
                        println!("plan cache off");
                    }
                    PlanCacheSetting::Capacity(n) => {
                        db.set_plan_cache_capacity(n);
                        self.session().set_plan_cache(true);
                        println!("plan cache on (capacity {})", db.plan_cache().capacity());
                    }
                }
                Ok(())
            }
            Statement::SetFeedback(on) => {
                self.session().set_feedback(on);
                if on {
                    println!("feedback on (adaptive re-optimization)");
                } else {
                    println!("feedback off");
                }
                Ok(())
            }
            Statement::Prepare { name, query } => {
                let params = self.session().prepare_ast(&name, &query);
                println!("prepared {name} ({params} parameter(s))");
                Ok(())
            }
            Statement::Execute { name, params } => {
                let out = self
                    .session()
                    .execute(&name, &params)
                    .map_err(|e| e.to_string())?;
                if out.degraded {
                    println!("-- note: admitted degraded (greedy search) --");
                }
                let out = out.outcome;
                for row in &out.rows {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    println!("{}", cells.join(" | "));
                }
                println!("({} rows, plan cache {})", out.rows.len(), out.cache);
                Ok(())
            }
        }
    }
}

fn main() {
    let mut input = String::new();
    match std::env::args().nth(1) {
        Some(path) => {
            input = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        }
        None => {
            std::io::stdin()
                .read_to_string(&mut input)
                .expect("read stdin");
        }
    }
    let stmts = match parse_script(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };
    let mut shell = Shell::new();
    for stmt in stmts {
        if let Err(e) = shell.run(stmt) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
