//! The join rules that would create Cartesian products reject them in
//! their condition code, so a firing always produces a substitute and
//! `SearchStats::transform_fired` equals `substitutes_produced`. Checked
//! on every binding of Figure 4's queries up to six relations: `condition`
//! is false exactly when `apply` returns nothing.

use volcano_bench::fig4_query;
use volcano_core::{match_pattern, ExprId, RuleCtx, SearchOptions};
use volcano_rel::{JoinSpace, RelModel, RelModelOptions, RelOptimizer};

/// Queries per level: enough to see both outcomes at every size.
const QUERIES: usize = 8;

/// (bindings the rule fires on, bindings it rejects) over the explored
/// memos of Figure 4's queries at `n` relations in `space`.
fn condition_matches_apply(rule_name: &str, space: JoinSpace, n: usize) -> (usize, usize) {
    let (mut fired, mut rejected) = (0, 0);
    for q in 0..QUERIES {
        let query = fig4_query(n, q);
        let options = RelModelOptions {
            join_space: space,
            ..RelModelOptions::paper_fig4()
        };
        let model = RelModel::new(query.catalog.clone(), options);
        let mut opt = RelOptimizer::new(&model, SearchOptions::default());
        opt.insert_tree(&query.expr);
        opt.explore();
        let memo = opt.memo();
        let ctx = RuleCtx::new(memo);
        let rule = volcano_core::Model::transformations(&model)
            .iter()
            .find(|r| r.name() == rule_name)
            .expect("the join space registers the rule");
        for e in (0..memo.num_exprs()).map(ExprId::from_index) {
            for b in match_pattern(memo, rule.pattern(), e) {
                let fires = rule.condition(&b, &ctx);
                let produced = !rule.apply(&b, &ctx).is_empty();
                assert_eq!(
                    fires, produced,
                    "{rule_name}, query {q} at {n} relations, binding {b:?}: \
                     condition {fires} but apply produced {produced}"
                );
                if fires {
                    fired += 1;
                } else {
                    rejected += 1;
                }
            }
        }
    }
    (fired, rejected)
}

#[test]
fn join_rules_reject_in_condition_exactly_what_apply_would_drop() {
    for (rule, space) in [
        ("join_assoc", JoinSpace::Bushy),
        ("join_left_exchange", JoinSpace::LeftDeep),
    ] {
        for n in 3..=6 {
            let (fired, rejected) = condition_matches_apply(rule, space, n);
            assert!(fired > 0, "{rule} at {n} relations never fired");
            if n >= 4 {
                assert!(rejected > 0, "{rule} at {n} relations rejected nothing");
            }
        }
    }
}
