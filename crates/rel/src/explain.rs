//! Human-readable plan and expression rendering with catalog names.
//!
//! The generic `Plan::explain` prints attribute ids (`a17`); this module
//! resolves them back to `table.column` names for people.

use std::fmt::Write as _;

use crate::catalog::Catalog;
use crate::ids::AttrId;
use crate::ops::RelOp;
use crate::predicate::{JoinPred, Pred};
use crate::{RelAlg, RelExpr, RelPlan};

fn attr_name(catalog: &Catalog, a: AttrId) -> String {
    match catalog.attr_name(a) {
        Some((t, c)) => format!("{t}.{c}"),
        None => format!("{a}"),
    }
}

fn attrs_name(catalog: &Catalog, attrs: &[AttrId]) -> String {
    attrs
        .iter()
        .map(|&a| attr_name(catalog, a))
        .collect::<Vec<_>>()
        .join(", ")
}

fn pred_name(catalog: &Catalog, p: &Pred) -> String {
    if p.is_empty() {
        return "true".to_string();
    }
    p.terms()
        .iter()
        .map(|c| {
            format!(
                "{} {} {}",
                attr_name(catalog, c.attr),
                c.op.symbol(),
                c.value
            )
        })
        .collect::<Vec<_>>()
        .join(" AND ")
}

fn join_pred_name(catalog: &Catalog, p: &JoinPred) -> String {
    if p.is_cross() {
        return "cross".to_string();
    }
    p.pairs()
        .iter()
        .map(|&(l, r)| format!("{} = {}", attr_name(catalog, l), attr_name(catalog, r)))
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// One physical operator with names resolved.
pub fn alg_description(catalog: &Catalog, alg: &RelAlg) -> String {
    match alg {
        RelAlg::FileScan(t) => format!("file_scan({})", catalog.table(*t).name),
        RelAlg::IndexScan(t, a) => format!(
            "index_scan({}, {})",
            catalog.table(*t).name,
            attr_name(catalog, *a)
        ),
        RelAlg::FilterScan(t, p) => format!(
            "filter_scan({}, {})",
            catalog.table(*t).name,
            pred_name(catalog, p)
        ),
        RelAlg::Filter(p) => format!("filter[{}]", pred_name(catalog, p)),
        RelAlg::ProjectOp(attrs) => format!("project[{}]", attrs_name(catalog, attrs)),
        RelAlg::MergeJoin(p) => format!("merge_join[{}]", join_pred_name(catalog, p)),
        RelAlg::HybridHashJoin(p) => {
            format!("hybrid_hash_join[{}]", join_pred_name(catalog, p))
        }
        RelAlg::NestedLoops(p) => format!("nested_loops[{}]", join_pred_name(catalog, p)),
        RelAlg::MultiWayHashJoin { inner, outer } => format!(
            "multiway_hash_join[{}; {}]",
            join_pred_name(catalog, inner),
            join_pred_name(catalog, outer)
        ),
        RelAlg::Sort(attrs) => format!("sort[{}]", attrs_name(catalog, attrs)),
        RelAlg::Gather(n) => format!("gather({n})"),
        RelAlg::StreamAggregate(s) | RelAlg::HashAggregate(s) => format!(
            "{}[group by {}]",
            alg.name(),
            attrs_name(catalog, &s.group_by)
        ),
        RelAlg::PartialHashAggregate(s, n) => format!(
            "partial_hash_aggregate({n})[group by {}]",
            attrs_name(catalog, &s.group_by)
        ),
        RelAlg::FinalHashAggregate(s) => format!(
            "final_hash_aggregate[group by {}]",
            attrs_name(catalog, &s.group_by)
        ),
        other => other.name().to_string(),
    }
}

/// Render a physical plan as an indented tree with resolved names, costs,
/// and delivered orderings.
pub fn explain_plan(catalog: &Catalog, plan: &RelPlan) -> String {
    let mut out = String::new();
    render(catalog, plan, 0, &mut out);
    out
}

fn render(catalog: &Catalog, plan: &RelPlan, depth: usize, out: &mut String) {
    let order = if plan.delivered.sort.is_empty() {
        String::new()
    } else {
        format!("  [sorted: {}]", attrs_name(catalog, &plan.delivered.sort))
    };
    let _ = writeln!(
        out,
        "{:indent$}{}  (cost {}){}",
        "",
        alg_description(catalog, &plan.alg),
        plan.cost,
        order,
        indent = depth * 2
    );
    for i in &plan.inputs {
        render(catalog, i, depth + 1, out);
    }
}

/// Render a logical expression with resolved names.
pub fn explain_expr(catalog: &Catalog, expr: &RelExpr) -> String {
    fn go(catalog: &Catalog, e: &RelExpr, depth: usize, out: &mut String) {
        let label = match &e.op {
            RelOp::Get(t) => format!("get({})", catalog.table(*t).name),
            RelOp::Select(p) => format!("select[{}]", pred_name(catalog, p)),
            RelOp::Project(attrs) => format!("project[{}]", attrs_name(catalog, attrs)),
            RelOp::Join(p) => format!("join[{}]", join_pred_name(catalog, p)),
            RelOp::Union => "union".to_string(),
            RelOp::Intersect => "intersect".to_string(),
            RelOp::Difference => "difference".to_string(),
            RelOp::Aggregate(s) => {
                format!("aggregate[group by {}]", attrs_name(catalog, &s.group_by))
            }
            RelOp::PartialAggregate(s) => format!(
                "partial_aggregate[group by {}]",
                attrs_name(catalog, &s.group_by)
            ),
            RelOp::FinalAggregate(s) => format!(
                "final_aggregate[group by {}]",
                attrs_name(catalog, &s.group_by)
            ),
        };
        let _ = writeln!(out, "{:indent$}{label}", "", indent = depth * 2);
        for i in &e.inputs {
            go(catalog, i, depth + 1, out);
        }
    }
    let mut out = String::new();
    go(catalog, expr, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{join_on, select_one};
    use crate::{Catalog, Cmp, ColumnDef, QueryBuilder, RelModel, RelProps};
    use volcano_core::{PhysicalProps, SearchOptions};

    fn setup() -> (RelModel, RelPlan) {
        let mut c = Catalog::new();
        c.add_table(
            "emp",
            1_000.0,
            vec![ColumnDef::int("id", 1_000.0), ColumnDef::int("dept", 20.0)],
        );
        c.add_table("dept", 20.0, vec![ColumnDef::int("id", 20.0)]);
        let model = RelModel::with_defaults(c);
        let q = QueryBuilder::new(model.catalog());
        let expr = join_on(
            select_one(q.scan("emp"), Cmp::lt(q.attr("emp", "id"), 500i64)),
            q.scan("dept"),
            q.attr("emp", "dept"),
            q.attr("dept", "id"),
        );
        let mut opt = crate::RelOptimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&expr);
        let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();
        (model, plan)
    }

    #[test]
    fn plan_explain_uses_names() {
        let (model, plan) = setup();
        let text = explain_plan(model.catalog(), &plan);
        assert!(text.contains("emp"), "{text}");
        assert!(text.contains("dept"), "{text}");
        assert!(
            !text.contains("a0 "),
            "raw attr ids should be resolved: {text}"
        );
        assert!(text.contains("cost"));
    }

    #[test]
    fn expr_explain_uses_names() {
        let mut c = Catalog::new();
        c.add_table("t", 10.0, vec![ColumnDef::int("x", 10.0)]);
        let q = QueryBuilder::new(&c);
        let e = select_one(q.scan("t"), Cmp::eq(q.attr("t", "x"), 1i64));
        let text = explain_expr(&c, &e);
        assert!(text.contains("select[t.x = 1]"), "{text}");
        assert!(text.contains("get(t)"), "{text}");
    }
}
