//! Top-level statements for the CLI: DDL, data generation, EXPLAIN, and
//! queries.
//!
//! ```text
//! CREATE TABLE emp (id INT, dept INT DISTINCT 20, name STRING WIDTH 24) CARD 1000;
//! GENERATE SEED 42;
//! EXPLAIN SELECT * FROM emp WHERE id < 10;
//! SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept;
//! ```

use volcano_rel::Value;

use crate::ast::Query;
use crate::lexer::{tokenize, Token};
use crate::parser::{parse, ParseError};

/// A column in a CREATE TABLE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Type name: `INT`, `FLOAT`, `STRING`, or `BOOL`.
    pub ty: String,
    /// Byte width (defaults per type).
    pub width: Option<u32>,
    /// Distinct-value estimate (defaults to the table cardinality).
    pub distinct: Option<f64>,
    /// Maintain a B+tree index on this column.
    pub indexed: bool,
}

/// The execution engine choice, as set from the CLI.
///
/// ```text
/// SET EXECUTOR TUPLE;                -- classic tuple-at-a-time iterators
/// SET EXECUTOR FUSED;                -- vectorized engine, default batch size
/// SET EXECUTOR FUSED 4096;           -- vectorized engine, explicit batch size
/// SET EXECUTOR FUSED PARALLEL 8;     -- morsel-driven parallel, 8 workers
/// SET EXECUTOR FUSED 4096 PARALLEL 8; -- both knobs at once
/// SET EXECUTOR FUSED PARALLEL 1;     -- back to serial vectorized execution
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorSetting {
    /// The tuple-at-a-time iterator engine.
    Tuple,
    /// The vectorized engine (`FUSED`), with an optional batch size
    /// (`None` = the engine default).
    Fused {
        /// Rows per batch, if given explicitly.
        batch_size: Option<usize>,
        /// Morsel-driven parallel degree, if given explicitly
        /// (`None` = leave the current degree unchanged; `Some(1)`
        /// explicitly reverts to serial execution).
        parallel: Option<u32>,
    },
}

/// The plan-cache switch, as set from the CLI.
///
/// ```text
/// SET PLAN_CACHE ON;     -- enable (default capacity)
/// SET PLAN_CACHE OFF;    -- disable and clear
/// SET PLAN_CACHE 256;    -- enable with an entry capacity
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanCacheSetting {
    /// Enable with the default capacity.
    On,
    /// Disable and clear.
    Off,
    /// Enable with an explicit entry capacity.
    Capacity(usize),
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (cols...) [CARD n]`.
    CreateTable {
        /// Table name.
        name: String,
        /// Columns.
        columns: Vec<ColumnSpec>,
        /// Estimated row count (default 1000).
        card: f64,
    },
    /// `GENERATE [SEED n]`: populate all tables synthetically.
    Generate {
        /// RNG seed.
        seed: u64,
    },
    /// `SET COST LIMIT n | SET COST LIMIT OFF`: the §3 user-interface
    /// facility to "catch" unreasonable queries — subsequent queries fail
    /// when no plan fits the limit (cost-model milliseconds).
    SetCostLimit(Option<f64>),
    /// `SET EXECUTOR TUPLE | FUSED [n] [PARALLEL k]`: choose the execution engine
    /// for subsequent queries (results are engine-invariant; only the
    /// unit of transfer between operators changes).
    SetExecutor(ExecutorSetting),
    /// `EXPLAIN [ANALYZE] <query>`: show the logical expression and the
    /// chosen plan; with ANALYZE, also execute and report per-operator
    /// actual row counts.
    Explain {
        /// The query.
        query: Query,
        /// Execute and report actual row counts?
        analyze: bool,
    },
    /// `DROP TABLE name`: remove a table; bumps the stats epoch so
    /// cached plans over it can never be served again.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `SET PLAN_CACHE ON | OFF | <capacity>`.
    SetPlanCache(PlanCacheSetting),
    /// `SET FEEDBACK ON | OFF`: harvest actual cardinalities from
    /// executions into the optimizer's selectivity memory, so cached
    /// plans that estimates got wrong are re-optimized under observed
    /// statistics.
    SetFeedback(bool),
    /// `PREPARE name AS <query>`: parameterize and remember a statement
    /// under a name for later `EXECUTE`.
    Prepare {
        /// Statement name.
        name: String,
        /// The (possibly `$n`-parameterized) query.
        query: Query,
    },
    /// `EXECUTE name [(v, ...)]`: run a prepared statement with the
    /// given parameter values.
    Execute {
        /// Statement name.
        name: String,
        /// Values for the statement's explicit `$n` slots.
        params: Vec<Value>,
    },
    /// A query to optimize and execute.
    Query(Query),
}

/// Parse a `;`-separated script into statements. The split respects
/// string literals, so `'a;b'` stays inside one statement.
pub fn parse_script(input: &str) -> Result<Vec<Statement>, ParseError> {
    let mut stmts = Vec::new();
    for piece in split_statements(input) {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        stmts.push(parse_statement(piece)?);
    }
    Ok(stmts)
}

/// Split on `;` outside single-quoted strings.
fn split_statements(input: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in input.chars() {
        match c {
            '\'' => {
                in_str = !in_str;
                cur.push(c);
            }
            ';' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Parse one statement (no trailing semicolon).
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    let trimmed = input.trim_start();
    let head = trimmed
        .split_whitespace()
        .next()
        .unwrap_or("")
        .to_ascii_uppercase();
    match head.as_str() {
        "CREATE" => parse_create(trimmed),
        "DROP" => parse_drop(trimmed),
        "GENERATE" => parse_generate(trimmed),
        "PREPARE" => parse_prepare(trimmed),
        "EXECUTE" => parse_execute(trimmed),
        "SET" => parse_set(trimmed),
        "EXPLAIN" => {
            let rest = trimmed[7..].trim_start();
            let (rest, analyze) = match rest.get(..7) {
                Some(head) if head.eq_ignore_ascii_case("analyze") => (&rest[7..], true),
                _ => (rest, false),
            };
            Ok(Statement::Explain {
                query: parse(rest)?,
                analyze,
            })
        }
        _ => Ok(Statement::Query(parse(trimmed)?)),
    }
}

fn unexpected(expected: &str, found: Option<Token>) -> ParseError {
    ParseError::Unexpected {
        found,
        expected: expected.to_string(),
    }
}

fn parse_create(input: &str) -> Result<Statement, ParseError> {
    let toks = tokenize(input).map_err(ParseError::Lex)?;
    let mut i = 0;
    let kw = |toks: &[Token], i: &mut usize, kw: &str| -> Result<(), ParseError> {
        match toks.get(*i) {
            Some(t) if t.is_kw(kw) => {
                *i += 1;
                Ok(())
            }
            other => Err(unexpected(&format!("keyword {kw}"), other.cloned())),
        }
    };
    kw(&toks, &mut i, "create")?;
    kw(&toks, &mut i, "table")?;
    let name = match toks.get(i) {
        Some(Token::Ident(s)) => {
            i += 1;
            s.clone()
        }
        other => return Err(unexpected("table name", other.cloned())),
    };
    match toks.get(i) {
        Some(Token::LParen) => i += 1,
        other => return Err(unexpected("'('", other.cloned())),
    }
    let mut columns = Vec::new();
    loop {
        let col_name = match toks.get(i) {
            Some(Token::Ident(s)) => {
                i += 1;
                s.clone()
            }
            other => return Err(unexpected("column name", other.cloned())),
        };
        let ty = match toks.get(i) {
            Some(Token::Ident(s)) => {
                i += 1;
                s.to_ascii_uppercase()
            }
            other => return Err(unexpected("column type", other.cloned())),
        };
        let mut width = None;
        let mut distinct = None;
        let mut indexed = false;
        loop {
            match toks.get(i) {
                Some(t) if t.is_kw("indexed") => {
                    i += 1;
                    indexed = true;
                }
                Some(t) if t.is_kw("width") => {
                    i += 1;
                    match toks.get(i) {
                        Some(Token::Int(n)) => {
                            width = Some(*n as u32);
                            i += 1;
                        }
                        other => return Err(unexpected("width value", other.cloned())),
                    }
                }
                Some(t) if t.is_kw("distinct") => {
                    i += 1;
                    match toks.get(i) {
                        Some(Token::Int(n)) => {
                            distinct = Some(*n as f64);
                            i += 1;
                        }
                        other => return Err(unexpected("distinct value", other.cloned())),
                    }
                }
                _ => break,
            }
        }
        columns.push(ColumnSpec {
            name: col_name,
            ty,
            width,
            distinct,
            indexed,
        });
        match toks.get(i) {
            Some(Token::Comma) => i += 1,
            Some(Token::RParen) => {
                i += 1;
                break;
            }
            other => return Err(unexpected("',' or ')'", other.cloned())),
        }
    }
    let mut card = 1000.0;
    if matches!(toks.get(i), Some(t) if t.is_kw("card")) {
        i += 1;
        match toks.get(i) {
            Some(Token::Int(n)) => {
                card = *n as f64;
                i += 1;
            }
            other => return Err(unexpected("cardinality", other.cloned())),
        }
    }
    if let Some(t) = toks.get(i) {
        return Err(unexpected("end of statement", Some(t.clone())));
    }
    Ok(Statement::CreateTable {
        name,
        columns,
        card,
    })
}

fn parse_drop(input: &str) -> Result<Statement, ParseError> {
    let toks = tokenize(input).map_err(ParseError::Lex)?;
    match toks.as_slice() {
        [d, t, Token::Ident(name)] if d.is_kw("drop") && t.is_kw("table") => {
            Ok(Statement::DropTable { name: name.clone() })
        }
        _ => Err(unexpected("DROP TABLE <name>", toks.get(1).cloned())),
    }
}

fn parse_prepare(input: &str) -> Result<Statement, ParseError> {
    // PREPARE <name> AS <query> — the tail is handed to the query parser
    // verbatim, so it may contain $n placeholders.
    let rest = input["PREPARE".len()..].trim_start();
    let name_len = rest
        .find(char::is_whitespace)
        .ok_or_else(|| unexpected("PREPARE <name> AS <query>", None))?;
    let (name, rest) = rest.split_at(name_len);
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(unexpected(
            "prepared statement name",
            Some(Token::Ident(name.to_string())),
        ));
    }
    let rest = rest.trim_start();
    let Some(query_text) = rest
        .get(..2)
        .filter(|h| h.eq_ignore_ascii_case("as"))
        .map(|_| &rest[2..])
        .filter(|t| t.starts_with(char::is_whitespace))
    else {
        return Err(unexpected(
            "keyword AS",
            Some(Token::Ident(
                rest.split_whitespace().next().unwrap_or("").to_string(),
            )),
        ));
    };
    Ok(Statement::Prepare {
        name: name.to_string(),
        query: parse(query_text)?,
    })
}

fn parse_execute(input: &str) -> Result<Statement, ParseError> {
    let toks = tokenize(input).map_err(ParseError::Lex)?;
    let name = match (toks.first(), toks.get(1)) {
        (Some(e), Some(Token::Ident(name))) if e.is_kw("execute") => name.clone(),
        _ => {
            return Err(unexpected(
                "EXECUTE <name> [(v, ...)]",
                toks.get(1).cloned(),
            ))
        }
    };
    let mut params = Vec::new();
    let mut i = 2;
    if i < toks.len() {
        match toks.get(i) {
            Some(Token::LParen) => i += 1,
            other => return Err(unexpected("'('", other.cloned())),
        }
        loop {
            match toks.get(i) {
                Some(Token::Int(n)) => params.push(Value::Int(*n)),
                Some(Token::Float(x)) => params.push(Value::float(*x)),
                Some(Token::Str(s)) => params.push(Value::Str(s.clone())),
                other => return Err(unexpected("parameter literal", other.cloned())),
            }
            i += 1;
            match toks.get(i) {
                Some(Token::Comma) => i += 1,
                Some(Token::RParen) => {
                    i += 1;
                    break;
                }
                other => return Err(unexpected("',' or ')'", other.cloned())),
            }
        }
        if let Some(t) = toks.get(i) {
            return Err(unexpected("end of statement", Some(t.clone())));
        }
    }
    Ok(Statement::Execute { name, params })
}

fn parse_set(input: &str) -> Result<Statement, ParseError> {
    let toks = tokenize(input).map_err(ParseError::Lex)?;
    if matches!(toks.get(1), Some(t) if t.is_kw("executor")) {
        return parse_set_executor(&toks);
    }
    if matches!(toks.get(1), Some(t) if t.is_kw("plan_cache")) {
        let setting = match toks.as_slice() {
            [_, _, t] if t.is_kw("on") => PlanCacheSetting::On,
            [_, _, t] if t.is_kw("off") => PlanCacheSetting::Off,
            [_, _, Token::Int(n)] if *n >= 1 => PlanCacheSetting::Capacity(*n as usize),
            _ => {
                return Err(unexpected(
                    "SET PLAN_CACHE <ON|OFF|capacity>",
                    toks.get(2).cloned(),
                ))
            }
        };
        return Ok(Statement::SetPlanCache(setting));
    }
    if matches!(toks.get(1), Some(t) if t.is_kw("feedback")) {
        let on = match toks.as_slice() {
            [_, _, t] if t.is_kw("on") => true,
            [_, _, t] if t.is_kw("off") => false,
            _ => return Err(unexpected("SET FEEDBACK <ON|OFF>", toks.get(2).cloned())),
        };
        return Ok(Statement::SetFeedback(on));
    }
    match toks.as_slice() {
        [s, c, l, Token::Int(n)]
            if s.is_kw("set") && c.is_kw("cost") && l.is_kw("limit") && *n >= 0 =>
        {
            Ok(Statement::SetCostLimit(Some(*n as f64)))
        }
        [s, c, l, Token::Float(x)]
            if s.is_kw("set") && c.is_kw("cost") && l.is_kw("limit") && *x >= 0.0 =>
        {
            Ok(Statement::SetCostLimit(Some(*x)))
        }
        [s, c, l, off]
            if s.is_kw("set") && c.is_kw("cost") && l.is_kw("limit") && off.is_kw("off") =>
        {
            Ok(Statement::SetCostLimit(None))
        }
        _ => Err(unexpected("SET COST LIMIT <n|OFF>", toks.get(1).cloned())),
    }
}

const EXECUTOR_USAGE: &str = "SET EXECUTOR <TUPLE|FUSED [n] [PARALLEL k]>";

/// Parse the `[n] [PARALLEL k]` tail of the vectorized executor.
fn parse_executor_knobs(rest: &[Token]) -> Result<(Option<usize>, Option<u32>), ParseError> {
    match rest {
        [] => Ok((None, None)),
        [Token::Int(n)] if *n >= 1 => Ok((Some(*n as usize), None)),
        [p, Token::Int(d)] if p.is_kw("parallel") && *d >= 1 => Ok((None, Some(*d as u32))),
        [Token::Int(n), p, Token::Int(d)] if p.is_kw("parallel") && *n >= 1 && *d >= 1 => {
            Ok((Some(*n as usize), Some(*d as u32)))
        }
        _ => Err(unexpected(EXECUTOR_USAGE, rest.first().cloned())),
    }
}

fn parse_set_executor(toks: &[Token]) -> Result<Statement, ParseError> {
    let setting = match toks {
        [_, _, t] if t.is_kw("tuple") => ExecutorSetting::Tuple,
        [_, _, t, rest @ ..] if t.is_kw("fused") => {
            let (batch_size, parallel) = parse_executor_knobs(rest)?;
            ExecutorSetting::Fused {
                batch_size,
                parallel,
            }
        }
        _ => return Err(unexpected(EXECUTOR_USAGE, toks.get(2).cloned())),
    };
    Ok(Statement::SetExecutor(setting))
}

fn parse_generate(input: &str) -> Result<Statement, ParseError> {
    let toks = tokenize(input).map_err(ParseError::Lex)?;
    let mut seed = 0u64;
    match toks.as_slice() {
        [t] if t.is_kw("generate") => {}
        [t, s, Token::Int(n)] if t.is_kw("generate") && s.is_kw("seed") && *n >= 0 => {
            seed = *n as u64;
        }
        _ => return Err(unexpected("GENERATE [SEED n]", toks.get(1).cloned())),
    }
    Ok(Statement::Generate { seed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Condition;

    #[test]
    fn create_table_full() {
        let s = parse_statement(
            "CREATE TABLE emp (id INT, dept INT DISTINCT 20, name STRING WIDTH 24 DISTINCT 900) CARD 1000",
        )
        .unwrap();
        let Statement::CreateTable {
            name,
            columns,
            card,
        } = s
        else {
            panic!()
        };
        assert_eq!(name, "emp");
        assert_eq!(card, 1000.0);
        assert_eq!(columns.len(), 3);
        assert_eq!(columns[1].distinct, Some(20.0));
        assert_eq!(columns[2].width, Some(24));
        assert_eq!(columns[2].ty, "STRING");
    }

    #[test]
    fn generate_with_and_without_seed() {
        assert_eq!(
            parse_statement("GENERATE").unwrap(),
            Statement::Generate { seed: 0 }
        );
        assert_eq!(
            parse_statement("GENERATE SEED 7").unwrap(),
            Statement::Generate { seed: 7 }
        );
    }

    #[test]
    fn set_cost_limit() {
        assert_eq!(
            parse_statement("SET COST LIMIT 5000").unwrap(),
            Statement::SetCostLimit(Some(5000.0))
        );
        assert_eq!(
            parse_statement("SET COST LIMIT OFF").unwrap(),
            Statement::SetCostLimit(None)
        );
        assert!(parse_statement("SET COST").is_err());
    }

    #[test]
    fn set_executor() {
        assert_eq!(
            parse_statement("SET EXECUTOR TUPLE").unwrap(),
            Statement::SetExecutor(ExecutorSetting::Tuple)
        );
        let vectorized = |batch_size, parallel| {
            Statement::SetExecutor(ExecutorSetting::Fused {
                batch_size,
                parallel,
            })
        };
        for kw in ["fused", "FUSED"] {
            let parsed = |tail: &str| parse_statement(&format!("SET EXECUTOR {kw}{tail}")).unwrap();
            assert_eq!(parsed(""), vectorized(None, None));
            assert_eq!(parsed(" 4096"), vectorized(Some(4096), None));
            assert_eq!(parsed(" PARALLEL 8"), vectorized(None, Some(8)));
            assert_eq!(parsed(" 1024 parallel 4"), vectorized(Some(1024), Some(4)));
        }
        assert!(parse_statement("SET EXECUTOR").is_err());
        assert!(parse_statement("SET EXECUTOR ROW").is_err());
        // The vectorized engine has one spelling.
        assert!(parse_statement("SET EXECUTOR BATCH").is_err());
        assert!(parse_statement("SET EXECUTOR FUSED 0").is_err());
        assert!(parse_statement("SET EXECUTOR FUSED PARALLEL 0").is_err());
        assert!(parse_statement("SET EXECUTOR FUSED PARALLEL").is_err());
    }

    #[test]
    fn set_plan_cache() {
        assert_eq!(
            parse_statement("SET PLAN_CACHE ON").unwrap(),
            Statement::SetPlanCache(PlanCacheSetting::On)
        );
        assert_eq!(
            parse_statement("set plan_cache off").unwrap(),
            Statement::SetPlanCache(PlanCacheSetting::Off)
        );
        assert_eq!(
            parse_statement("SET PLAN_CACHE 256").unwrap(),
            Statement::SetPlanCache(PlanCacheSetting::Capacity(256))
        );
        assert!(parse_statement("SET PLAN_CACHE 0").is_err());
        assert!(parse_statement("SET PLAN_CACHE maybe").is_err());
    }

    #[test]
    fn set_feedback() {
        assert_eq!(
            parse_statement("SET FEEDBACK ON").unwrap(),
            Statement::SetFeedback(true)
        );
        assert_eq!(
            parse_statement("set feedback off").unwrap(),
            Statement::SetFeedback(false)
        );
        assert!(parse_statement("SET FEEDBACK").is_err());
        assert!(parse_statement("SET FEEDBACK maybe").is_err());
        assert!(parse_statement("SET FEEDBACK 1").is_err());
    }

    #[test]
    fn drop_table() {
        assert_eq!(
            parse_statement("DROP TABLE emp").unwrap(),
            Statement::DropTable { name: "emp".into() }
        );
        assert!(parse_statement("DROP emp").is_err());
        assert!(parse_statement("DROP TABLE").is_err());
    }

    #[test]
    fn prepare_and_execute() {
        let s = parse_statement("PREPARE q1 AS SELECT * FROM emp WHERE salary > $0").unwrap();
        let Statement::Prepare { name, query } = s else {
            panic!()
        };
        assert_eq!(name, "q1");
        let Query::Select(sel) = query else { panic!() };
        assert!(matches!(sel.conditions[0], Condition::ColParam(_, _, 0)));

        assert_eq!(
            parse_statement("EXECUTE q1 (5, 1.5, 'x')").unwrap(),
            Statement::Execute {
                name: "q1".into(),
                params: vec![Value::Int(5), Value::float(1.5), Value::Str("x".into())],
            }
        );
        assert_eq!(
            parse_statement("execute q1").unwrap(),
            Statement::Execute {
                name: "q1".into(),
                params: vec![],
            }
        );
        assert!(parse_statement("PREPARE q1 SELECT * FROM emp").is_err());
        assert!(parse_statement("PREPARE q1").is_err());
        assert!(parse_statement("EXECUTE q1 (").is_err());
        assert!(parse_statement("EXECUTE q1 (1,)").is_err());
        assert!(parse_statement("EXECUTE q1 (1) extra").is_err());
    }

    #[test]
    fn explain_and_query() {
        assert!(matches!(
            parse_statement("EXPLAIN SELECT * FROM t").unwrap(),
            Statement::Explain { analyze: false, .. }
        ));
        assert!(matches!(
            parse_statement("EXPLAIN ANALYZE SELECT * FROM t").unwrap(),
            Statement::Explain { analyze: true, .. }
        ));
        assert!(matches!(
            parse_statement("SELECT * FROM t").unwrap(),
            Statement::Query(_)
        ));
    }

    #[test]
    fn script_splits_on_semicolons_outside_strings() {
        let stmts = parse_script(
            "CREATE TABLE t (x INT) CARD 10; SELECT * FROM t WHERE s = 'a;b'; GENERATE;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(matches!(stmts[1], Statement::Query(_)));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_statement("CREATE TABLE").is_err());
        assert!(parse_statement("CREATE TABLE t x INT").is_err());
        assert!(parse_statement("GENERATE SEED x").is_err());
    }
}
