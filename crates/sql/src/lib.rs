//! # volcano-sql — a small SQL-like front end
//!
//! "The translation from a user interface into a logical algebra
//! expression must be performed by the parser" (§2.2). This crate is that
//! parser: a hand-written lexer ([`lexer`]) and recursive-descent parser
//! ([`parser`]) for a compact SQL subset, and a lowering pass ([`lower()`])
//! from the AST to the `volcano-rel` logical algebra.
//!
//! Supported:
//!
//! ```sql
//! SELECT * | col, tab.col, COUNT(*), SUM(tab.col), ...
//! FROM t1, t2 [, ...]
//! [WHERE a.x = b.y AND t.c < 5 AND ...]     -- conjunctions only
//! [GROUP BY cols] [ORDER BY cols]
//! ```
//! plus `UNION` / `INTERSECT` / `EXCEPT` between two such blocks.
//!
//! # Example
//!
//! ```
//! use volcano_sql::plan_query;
//! use volcano_rel::{Catalog, ColumnDef};
//!
//! let mut catalog = Catalog::new();
//! catalog.add_table("emp", 1000.0, vec![
//!     ColumnDef::int("id", 1000.0),
//!     ColumnDef::int("dept", 20.0),
//! ]);
//! catalog.add_table("dept", 20.0, vec![ColumnDef::int("id", 20.0)]);
//!
//! let q = plan_query(
//!     "SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id ORDER BY emp.id",
//!     &mut catalog,
//! ).unwrap();
//! assert_eq!(q.expr.display(), "project(join(get, get))");
//! assert_eq!(q.order_by.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod param;
pub mod parser;
pub mod stmt;

pub use ast::{Query as AstQuery, SelectStmt};
pub use lower::{lower, lower_with_params, LowerError, Query};
pub use param::{parameterize, shape_key, BindError, ParamQuery};
pub use parser::{parse, ParseError};
pub use stmt::{
    parse_script, parse_statement, ColumnSpec, ExecutorSetting, PlanCacheSetting, Statement,
};

/// Parse and lower in one step.
pub fn plan_query(sql: &str, catalog: &mut volcano_rel::Catalog) -> Result<Query, QueryError> {
    let ast = parse(sql).map_err(QueryError::Parse)?;
    lower(&ast, catalog).map_err(QueryError::Lower)
}

/// Error from [`plan_query`].
#[derive(Debug)]
pub enum QueryError {
    /// Syntax error.
    Parse(ParseError),
    /// Semantic error (unknown table/column, ...).
    Lower(LowerError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "parse error: {e}"),
            QueryError::Lower(e) => write!(f, "semantic error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}
