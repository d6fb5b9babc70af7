//! The relational model's cost floors (`Model::cost_floor`): every class's
//! floor is a lower bound on each of its plans, and branch-and-bound with
//! floors returns the plans an unpruned search returns.
//!
//! A floor above a class's optimal cost would prune that plan, so the
//! bound is checked against the optimum of every class of the memo, for
//! every goal the search can ask of a class (serial, and the parallel
//! degree the model offers), from a search with pruning off.
//!
//! The same holds for the bound a memoized failure keeps
//! (`Winner::Failure::bound`): a later request whose limit does not admit
//! it fails without search, so a bound above the goal's optimum would
//! lose that plan. Every recorded bound is checked against the optimum
//! of its (class, goal) from a search with pruning off.

use volcano::core::memo::Winner;
use volcano::core::{Cost, GoalId, PhysicalProps, SearchOptions};
use volcano::rel::{
    Catalog, ColumnDef, RelCost, RelExpr, RelModel, RelModelOptions, RelOptimizer, RelPlan,
    RelProps,
};
use volcano_bench::workload::{generate_query, WorkloadConfig};
use volcano_core::Model;
use volcano_sql::plan_query;

fn unpruned() -> SearchOptions {
    SearchOptions {
        pruning: false,
        ..SearchOptions::default()
    }
}

/// Optimize `expr` without pruning, then every class of its memo for
/// each of `goals`, and assert the class's floor is at most each optimal
/// cost. Returns how many (class, goal) optima were checked.
fn assert_floors_hold(model: &RelModel, expr: &RelExpr, goals: &[RelProps], tag: &str) -> usize {
    let mut opt = RelOptimizer::new(model, unpruned());
    let root = opt.insert_tree(expr);
    opt.find_best_plan(root, RelProps::any(), None)
        .unwrap_or_else(|e| panic!("{tag}: {e:?}"));
    let mut checked = 0;
    for g in opt.memo().group_ids() {
        let floor = model.cost_floor(opt.memo().logical_props(g));
        assert!(floor.total() > 0.0, "{tag}: class {g:?} has no floor");
        for goal in goals {
            let Ok(plan) = opt.find_best_plan(g, goal.clone(), None) else {
                continue;
            };
            assert!(
                floor.cheaper_or_equal(&plan.cost),
                "{tag}: class {g:?} floor {} above its optimum {} for {goal:?}",
                floor.total(),
                plan.cost.total()
            );
            checked += 1;
        }
    }
    checked
}

#[test]
fn fig4_class_floors_bound_every_optimum() {
    let model_opts = RelModelOptions::paper_fig4();
    for n in 2..=7 {
        for share in [0.8, 1.0] {
            for seed in 0..4 {
                let config = WorkloadConfig {
                    shared_attr_probability: share,
                    ..WorkloadConfig::relations(n)
                };
                let q = generate_query(&config, seed);
                let model = RelModel::new(q.catalog.clone(), model_opts.clone());
                let tag = format!("fig4 n={n} share={share} seed={seed}");
                let checked = assert_floors_hold(&model, &q.expr, &[RelProps::any()], &tag);
                assert!(checked >= 2 * n, "{tag}: only {checked} optima");
            }
        }
    }
}

/// A star schema like the `e2e` benchmark's: `fact(id, d1..d6, v)` and
/// six dimensions `dimK(id, attr)`.
fn star_catalog() -> Catalog {
    let mut c = Catalog::new();
    let mut fact = vec![ColumnDef::int("id", 20_000.0)];
    for (k, card) in [50.0, 40.0, 30.0, 20.0, 15.0, 10.0].into_iter().enumerate() {
        fact.push(ColumnDef::int(&format!("d{}", k + 1), card));
        c.add_table(
            &format!("dim{}", k + 1),
            card,
            vec![ColumnDef::int("id", card), ColumnDef::int("attr", 5.0)],
        );
    }
    fact.push(ColumnDef::int("v", 100.0));
    c.add_table("fact", 20_000.0, fact);
    c
}

/// The fact table joined to its first `dims` dimensions, with a selection
/// on the fact table (the `star_cold` statements' shape).
fn star_sql(dims: usize) -> String {
    let tables: Vec<String> = (1..=dims).map(|k| format!("dim{k}")).collect();
    let joins: Vec<String> = (1..=dims)
        .map(|k| format!("fact.d{k} = dim{k}.id"))
        .collect();
    format!(
        "SELECT fact.id FROM fact, {} WHERE {} AND fact.v < 30",
        tables.join(", "),
        joins.join(" AND ")
    )
}

#[test]
fn star_sql_class_floors_bound_every_optimum() {
    for degree in [1, 2] {
        for dims in 1..=6 {
            let mut catalog = star_catalog();
            let q = plan_query(&star_sql(dims), &mut catalog).expect("star query plans");
            let model = RelModel::new(
                catalog,
                RelModelOptions::default().with_parallel_degree(degree),
            );
            let goals = [RelProps::any(), RelProps::parallel(degree)];
            let tag = format!("star dims={dims} degree={degree}");
            assert_floors_hold(&model, &q.expr, &goals[..degree as usize], &tag);
        }
    }
}

/// Optimize `expr` for each of `goals` with pruning on, under no limit
/// and under limits below the optimum (each in a fresh optimizer, so the
/// root is searched, not answered by its winner), and assert that every
/// failure the searches memoized keeps a bound no higher than the
/// optimum an unpruned search finds for the same class and goal — and,
/// when the bound says the goal has no plan at all, that the unpruned
/// search found none. Returns how many recorded failures were checked.
fn assert_failure_bounds_hold(
    model: &RelModel,
    expr: &RelExpr,
    goals: &[RelProps],
    tag: &str,
) -> usize {
    let mut plain = RelOptimizer::new(model, unpruned());
    let plain_root = plain.insert_tree(expr);
    let mut optima = Vec::new();
    for goal in goals {
        let plan = plain.find_best_plan(plain_root, goal.clone(), None);
        optima.push(plan.map(|p| p.cost));
    }
    let mut checked = 0;
    for (goal, optimum) in goals.iter().zip(&optima) {
        let Ok(optimum) = optimum else { continue };
        for factor in [None, Some(0.9), Some(0.5)] {
            let mut opt = RelOptimizer::new(model, SearchOptions::default());
            let root = opt.insert_tree(expr);
            assert_eq!(root, plain_root);
            let limit = factor.map(|f| RelCost::io(optimum.total() * f));
            let _ = opt.find_best_plan(root, goal.clone(), limit);
            let memo = opt.memo();
            // Exploration does not depend on pruning, so both memos number
            // their classes alike; goals are matched by their properties.
            assert_eq!(
                memo.num_allocated_groups(),
                plain.memo().num_allocated_groups()
            );
            for g in memo.group_ids() {
                for i in 0..memo.num_goals() {
                    let id = GoalId::from_index(i);
                    let Some(Winner::Failure { bound, .. }) = memo.winner(g, id) else {
                        continue;
                    };
                    let want = memo.goal(id);
                    let Some(pid) = plain.memo().find_goal(&want.required, &want.excluded) else {
                        continue;
                    };
                    let Some(Winner::Optimal(best)) = plain.memo().winner(g, pid) else {
                        continue;
                    };
                    let bound = bound.as_ref().unwrap_or_else(|| {
                        panic!("{tag}: class {g:?} {want:?} has a plan, yet its failure found none")
                    });
                    assert!(
                        bound.cheaper_or_equal(&best.total_cost),
                        "{tag} limit {factor:?}: class {g:?} {want:?} failure bound {} above its \
                         optimum {}",
                        bound.total(),
                        best.total_cost.total()
                    );
                    checked += 1;
                }
            }
        }
    }
    checked
}

#[test]
fn fig4_failure_bounds_bound_every_optimum() {
    let model_opts = RelModelOptions::paper_fig4();
    let mut checked = 0;
    for n in 2..=7 {
        for seed in 0..4 {
            let q = generate_query(&WorkloadConfig::relations(n), seed);
            let model = RelModel::new(q.catalog.clone(), model_opts.clone());
            let tag = format!("fig4 n={n} seed={seed}");
            checked += assert_failure_bounds_hold(&model, &q.expr, &[RelProps::any()], &tag);
        }
    }
    println!("{checked} fig4 failure bounds checked");
    assert!(checked >= 1000, "only {checked} failure bounds checked");
}

#[test]
fn star_sql_failure_bounds_bound_every_optimum() {
    let mut checked = 0;
    for degree in [1, 2] {
        for dims in 1..=6 {
            let mut catalog = star_catalog();
            let q = plan_query(&star_sql(dims), &mut catalog).expect("star query plans");
            let model = RelModel::new(
                catalog,
                RelModelOptions::default().with_parallel_degree(degree),
            );
            let goals = [RelProps::any(), RelProps::parallel(degree)];
            let tag = format!("star dims={dims} degree={degree}");
            checked += assert_failure_bounds_hold(&model, &q.expr, &goals[..degree as usize], &tag);
        }
    }
    println!("{checked} star failure bounds checked");
    assert!(checked >= 1500, "only {checked} failure bounds checked");
}

fn best(model: &RelModel, expr: &RelExpr, opts: SearchOptions) -> RelPlan {
    let mut opt = RelOptimizer::new(model, opts);
    let root = opt.insert_tree(expr);
    opt.find_best_plan(root, RelProps::any(), None).unwrap()
}

#[test]
fn star_sql_plans_cost_the_same_with_and_without_pruning() {
    for degree in [1, 2] {
        for dims in 1..=6 {
            let mut catalog = star_catalog();
            let q = plan_query(&star_sql(dims), &mut catalog).expect("star query plans");
            let model = RelModel::new(
                catalog,
                RelModelOptions::default().with_parallel_degree(degree),
            );
            let pruned = best(&model, &q.expr, SearchOptions::default());
            let plain = best(&model, &q.expr, unpruned());
            assert_eq!(
                pruned.cost.total().to_bits(),
                plain.cost.total().to_bits(),
                "dims={dims} degree={degree}: {} vs {}",
                pruned.cost.total(),
                plain.cost.total()
            );
        }
    }
}

/// A limit below the root's floor fails the query at once, with no goal
/// optimized: it cannot admit any plan.
#[test]
fn a_limit_below_the_root_floor_fails_without_search() {
    let mut catalog = star_catalog();
    let q = plan_query(&star_sql(3), &mut catalog).expect("star query plans");
    let model = RelModel::with_defaults(catalog);
    let mut opt = RelOptimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&q.expr);
    let floor = model.cost_floor(opt.memo().logical_props(root));
    let limit = RelCost::io(floor.total() * 0.5);
    assert!(opt
        .find_best_plan(root, RelProps::any(), Some(limit))
        .is_err());
    assert_eq!(opt.stats().goals_optimized, 0);
    assert_eq!(opt.stats().goals_floored, 1);
    // The failure was not recorded: an unlimited request still finds the plan.
    let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();
    assert!(floor.cheaper_or_equal(&plan.cost));
}
