//! The exploration fixpoint against a naive saturation loop, and against
//! the search space the query's join graph says it must reach.
//!
//! The engine fires each (rule, binding) once: a multi-level rule is
//! re-run on an expression only when a class under one of its nested
//! pattern positions changed, and then only over the bindings that
//! contain a change; and it explores bottom-up, installing each
//! substitute as it is produced. The loop below knows nothing of that —
//! it re-runs every rule on every live expression, all bindings, until a
//! whole sweep leaves the memo unchanged — and is written against the
//! public `Memo` / `match_pattern` / `insert_subst` API alone. Both must
//! reach the same logical search space: same live classes, same live
//! expressions, same members per class (class and expression *numbers*
//! differ, because the two derive things in different orders).
//!
//! Cases past seven relations are `#[ignore]`d to keep the debug run
//! short; CI runs them in release with `--include-ignored`.

use std::collections::{HashMap, HashSet};

use volcano_bench::workload::{generate_query, GeneratedQuery, WorkloadConfig};
use volcano_core::model::Operator;
use volcano_core::toy::{ToyAlg, ToyModel, ToyOp, ToyProps};
use volcano_core::{
    match_pattern, Binding, BindingChild, Enforcer, ExprId, ExprTree, GroupId, ImplementationRule,
    Memo, Model, Optimizer, Pattern, RuleCtx, SearchOptions, SearchStats, SubstExpr,
    TransformationRule,
};
use volcano_rel::builder::select_one;
use volcano_rel::{
    AttrId, Catalog, Cmp, CmpOp, ColumnDef, RelExpr, RelModel, RelModelOptions, RelOp, RelOptimizer,
};
use volcano_sql::plan_query;

/// Naive saturation: every rule, every live expression, every binding,
/// until nothing changes.
fn saturate<M: Model>(model: &M, memo: &mut Memo<M>) {
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < memo.num_exprs() {
            let e = ExprId::from_index(i);
            i += 1;
            for rule in model.transformations() {
                for b in match_pattern(memo, rule.pattern(), e) {
                    if !memo.is_live(e) {
                        break;
                    }
                    let ctx = RuleCtx::new(memo);
                    if !rule.condition(&b, &ctx) {
                        continue;
                    }
                    let target = memo.group_of(e);
                    for s in rule.apply(&b, &ctx) {
                        changed |= memo.insert_subst(model, &s, target);
                    }
                }
            }
        }
    }
}

fn live_exprs<M: Model>(memo: &Memo<M>) -> Vec<ExprId> {
    (0..memo.num_exprs())
        .map(ExprId::from_index)
        .filter(|&e| memo.is_live(e))
        .collect()
}

/// Assert the two memos hold the same classes with the same members, by
/// growing the class correspondence bottom-up from the leaf operators:
/// an expression of `a` whose input classes are all mapped must exist in
/// `b` under the mapped inputs, and fixes the image of its own class.
fn assert_same_search_space<M: Model>(a: &Memo<M>, b: &Memo<M>, tag: &str) {
    assert_eq!(a.num_groups(), b.num_groups(), "{tag}: live classes");
    let (live_a, live_b) = (live_exprs(a), live_exprs(b));
    assert_eq!(live_a.len(), live_b.len(), "{tag}: live expressions");
    let in_b: HashMap<(M::Op, Vec<GroupId>), GroupId> = live_b
        .iter()
        .map(|&e| {
            let (op, inputs) = b.expr(e);
            ((op.clone(), inputs.to_vec()), b.group_of(e))
        })
        .collect();
    let mut image: HashMap<GroupId, GroupId> = HashMap::new();
    let mut pending = live_a;
    loop {
        let before = pending.len();
        pending.retain(|&e| {
            let (op, inputs) = a.expr(e);
            let mapped: Option<Vec<GroupId>> =
                inputs.iter().map(|g| image.get(g).copied()).collect();
            let Some(mapped) = mapped else {
                return true;
            };
            let class = *in_b
                .get(&(op.clone(), mapped))
                .unwrap_or_else(|| panic!("{tag}: {op:?} over {inputs:?} has no counterpart"));
            let previous = image.insert(a.group_of(e), class);
            assert!(
                previous.is_none_or(|p| p == class),
                "{tag}: members of one class landed in two"
            );
            false
        });
        if pending.len() == before {
            break;
        }
    }
    assert!(pending.is_empty(), "{tag}: {} unreachable", pending.len());
    // Injective on classes, hence (equal counts, distinct keys per memo)
    // a bijection on expressions that respects class membership.
    let distinct: HashSet<GroupId> = image.values().copied().collect();
    assert_eq!(
        distinct.len(),
        image.len(),
        "{tag}: two classes share an image"
    );
    assert_eq!(image.len(), a.num_groups(), "{tag}: unmapped classes");
}

/// Explore `query` with the engine and with the naive loop, assert both
/// reach the same search space, and return the engine's statistics.
fn assert_engine_matches_naive<M: Model>(model: &M, query: &ExprTree<M>, tag: &str) -> SearchStats {
    let mut opt = Optimizer::new(model, SearchOptions::default());
    opt.insert_tree(query);
    opt.explore();

    let mut naive: Memo<M> = Memo::new();
    naive.insert_tree(model, query);
    saturate(model, &mut naive);

    assert_same_search_space(opt.memo(), &naive, tag);
    opt.stats().clone()
}

fn toy_chain(n: usize) -> (ToyModel, ExprTree<ToyModel>) {
    let tables: Vec<(String, u64)> = (0..n)
        .map(|i| (format!("t{i}"), 100 + 211 * i as u64))
        .collect();
    let refs: Vec<(&str, u64)> = tables.iter().map(|(s, c)| (s.as_str(), *c)).collect();
    let model = ToyModel::with_tables(&refs);
    let mut e = ExprTree::leaf(ToyOp::Get("t0".into()));
    for i in 1..n {
        e = ExprTree::new(
            ToyOp::Join,
            vec![e, ExprTree::leaf(ToyOp::Get(format!("t{i}")))],
        );
    }
    (model, e)
}

#[test]
fn toy_chains_reach_the_naive_fixpoint() {
    for n in 2..=6 {
        let (model, query) = toy_chain(n);
        assert_engine_matches_naive(&model, &query, &format!("toy chain n={n}"));
        // A selection on top exercises the toy model's other operators.
        let selected = ExprTree::new(ToyOp::Select, vec![query]);
        assert_engine_matches_naive(&model, &selected, &format!("toy select n={n}"));
    }
}

/// The generator's queries at `n` relations and `seed`, with a join edge
/// on the hub's attribute with probability `hub` (the share of edges
/// that run through the hub; [`STAR`] is the `e2e` benchmark's
/// `fig4_optimize` configuration).
fn fig4_query(n: usize, seed: u64, hub: f64) -> GeneratedQuery {
    let mut config = WorkloadConfig::relations(n);
    config.shared_attr_probability = hub;
    generate_query(&config, seed)
}

/// Every join edge on the hub's attribute.
const STAR: f64 = 1.0;
/// The generator's default hub share.
const DEFAULT_HUB: f64 = 0.8;
/// A hub share whose queries merge classes during exploration: with most
/// edges off the hub, two derivations of one relation subset can start
/// in different classes, and a merge then cascades.
const SPARSE_HUB: f64 = 0.3;

/// A model whose only rules make a merge uncover a binding: `h(x) → f(x)`
/// proves `h(x)`'s class equal to `f(x)`'s, and `p(h(x)) → w(x)` matches
/// through that class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum MergeOp {
    A,
    F,
    H,
    P,
    W,
    Q,
}

impl Operator for MergeOp {
    fn arity(&self) -> usize {
        match self {
            MergeOp::A => 0,
            MergeOp::Q => 2,
            _ => 1,
        }
    }

    fn name(&self) -> &str {
        "merge-op"
    }
}

struct MergeModel {
    rules: Vec<Box<dyn TransformationRule<MergeModel>>>,
}

impl Model for MergeModel {
    type Op = MergeOp;
    type Alg = ToyAlg;
    type LogicalProps = ();
    type PhysProps = ToyProps;
    type Cost = f64;

    fn derive_logical_props(&self, _: &MergeOp, _: &[&()]) {}

    fn transformations(&self) -> &[Box<dyn TransformationRule<Self>>] {
        &self.rules
    }

    fn implementations(&self) -> &[Box<dyn ImplementationRule<Self>>] {
        &[]
    }

    fn enforcers(&self) -> &[Box<dyn Enforcer<Self>>] {
        &[]
    }
}

/// `from(?x) → to(?x)`, or, with `inner`, `from(inner(?x)) → to(?x)`.
struct Rewrite {
    pattern: Pattern<MergeModel>,
    to: MergeOp,
}

impl Rewrite {
    fn new(from: MergeOp, inner: Option<MergeOp>, to: MergeOp) -> Self {
        let is = |op: MergeOp| move |o: &MergeOp| *o == op;
        let mut pattern = Pattern::Any;
        for op in inner.into_iter().chain([from]) {
            pattern = Pattern::op("op", is(op), vec![pattern]);
        }
        Rewrite { pattern, to }
    }
}

impl TransformationRule<MergeModel> for Rewrite {
    fn name(&self) -> &'static str {
        "rewrite"
    }

    fn pattern(&self) -> &Pattern<MergeModel> {
        &self.pattern
    }

    fn apply(
        &self,
        b: &Binding<MergeModel>,
        _: &RuleCtx<'_, MergeModel>,
    ) -> Vec<SubstExpr<MergeModel>> {
        let x = match &b.children[0] {
            BindingChild::Group(g) => *g,
            BindingChild::Bound(inner) => inner.input_group(0),
        };
        vec![SubstExpr::Node {
            op: self.to,
            inputs: vec![SubstExpr::Group(x)],
        }]
    }
}

/// The walk finishes `f(a)`'s class, then matches `p(f(a))` against it and
/// finds no `h`. Only afterwards does `h(a)` get explored, and its class is
/// merged into `f(a)`'s. `p(h(a))` is now a binding the walk will not
/// revisit, and the sweep fires it.
#[test]
fn the_sweep_fires_what_a_merge_into_a_walked_class_uncovers() {
    let model = MergeModel {
        rules: vec![
            Box::new(Rewrite::new(MergeOp::H, None, MergeOp::F)),
            Box::new(Rewrite::new(MergeOp::P, Some(MergeOp::H), MergeOp::W)),
        ],
    };
    let leaf = |op| ExprTree::new(op, vec![ExprTree::leaf(MergeOp::A)]);
    let query = ExprTree::new(
        MergeOp::Q,
        vec![
            ExprTree::new(MergeOp::P, vec![leaf(MergeOp::F)]),
            leaf(MergeOp::H),
        ],
    );
    let mut opt = Optimizer::new(&model, SearchOptions::default());
    opt.insert_tree(&query);
    opt.explore();
    assert_eq!(opt.stats().group_merges, 1);
    // The walk, the sweep that installs `w(a)`, and one that finds nothing.
    assert_eq!(opt.stats().explore_passes, 3);
    assert_engine_matches_naive(&model, &query, "merge model");
}

/// The paper's rule set, and the default one (selection push-down and
/// merge, filter scans, nested loops) on the same query with one more
/// selection above the joins, which push-down carries to its relation
/// and merge folds into the selection already there. Returns the
/// engine's statistics of every search at [`SPARSE_HUB`].
fn assert_fig4_reach_the_naive_fixpoint(
    sizes: std::ops::RangeInclusive<usize>,
) -> Vec<SearchStats> {
    let mut sparse = Vec::new();
    for n in sizes {
        for seed in 0..3u64 {
            for hub in [DEFAULT_HUB, SPARSE_HUB] {
                let q = fig4_query(n, seed, hub);
                let model = RelModel::new(q.catalog.clone(), RelModelOptions::paper_fig4());
                let tag = format!("fig4 n={n} seed={seed} hub={hub}");
                let paper = assert_engine_matches_naive(&model, &q.expr, &tag);

                let key = q.catalog.tables()[0].columns[0].attr;
                let above = select_one(q.expr.clone(), Cmp::new(key, CmpOp::Gt, 7));
                let model = RelModel::new(q.catalog.clone(), RelModelOptions::default());
                let tag = format!("fig4 default n={n} seed={seed} hub={hub}");
                let default = assert_engine_matches_naive(&model, &above, &tag);
                if hub == SPARSE_HUB {
                    sparse.extend([paper, default]);
                }
            }
        }
    }
    sparse
}

/// The sparse-hub queries exercise the memo's class merge: some of their
/// searches merge classes, and at least one merge cascades into another.
fn assert_merges_cascade(sparse: &[SearchStats]) {
    let merges: u64 = sparse.iter().map(|s| s.group_merges).sum();
    assert!(merges > 0, "no sparse-hub search merged a class");
    assert!(
        sparse.iter().any(|s| s.group_merges >= 2),
        "no sparse-hub search merged twice"
    );
}

#[test]
fn fig4_queries_reach_the_naive_fixpoint() {
    assert_merges_cascade(&assert_fig4_reach_the_naive_fixpoint(2..=7));
}

#[test]
#[ignore = "eight and nine relations; run in release with --include-ignored"]
fn fig4_queries_reach_the_naive_fixpoint_at_8_and_9_relations() {
    assert_merges_cascade(&assert_fig4_reach_the_naive_fixpoint(8..=9));
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

/// The `star_cold` statements' shape: the fact table joined to its first
/// `dims` dimensions, with a selection on the fact table, SQL text in,
/// under the default rule set that SQL path optimizes with.
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
fn star_sql_queries_reach_the_naive_fixpoint() {
    for dims in 1..=6 {
        let mut catalog = star_catalog();
        let q = plan_query(&star_sql(dims), &mut catalog).expect("star query plans");
        let model = RelModel::with_defaults(catalog);
        assert_engine_matches_naive(&model, &q.expr, &format!("star sql dims={dims}"));
    }
}

/// The number of connected relation subsets of `q`'s join graph,
/// singletons included, computed from the join predicates: the classes a
/// bushy search without Cartesian products must hold above the
/// selections.
fn connected_subsets(q: &GeneratedQuery) -> usize {
    let n = q.num_relations;
    let relation_of: HashMap<AttrId, usize> = (q.catalog.tables().iter().enumerate())
        .flat_map(|(i, t)| t.columns.iter().map(move |c| (c.attr, i)))
        .collect();
    let mut adjacent = vec![0u32; n];
    fn edges(e: &RelExpr, relation_of: &HashMap<AttrId, usize>, adjacent: &mut [u32]) {
        if let RelOp::Join(p) = &e.op {
            for (l, r) in p.pairs() {
                let (a, b) = (relation_of[l], relation_of[r]);
                adjacent[a] |= 1 << b;
                adjacent[b] |= 1 << a;
            }
        }
        for i in &e.inputs {
            edges(i, relation_of, adjacent);
        }
    }
    edges(&q.expr, &relation_of, &mut adjacent);
    let connected = |set: u32| {
        let mut reached = set & set.wrapping_neg();
        loop {
            let next = (0..n)
                .filter(|&i| reached & 1 << i != 0)
                .fold(reached, |r, i| r | (adjacent[i] & set));
            if next == reached {
                return reached == set;
            }
            reached = next;
        }
    };
    (1u32..1 << n).filter(|&s| connected(s)).count()
}

/// Explore `q` under the paper's rule set, assert that the memo's live
/// classes are one per connected relation subset plus one `Get` class per
/// relation (the subset of one relation is its selection's class), and
/// return the search statistics.
fn assert_exhaustive(q: &GeneratedQuery, tag: &str) -> SearchStats {
    let model = RelModel::new(q.catalog.clone(), RelModelOptions::paper_fig4());
    let mut opt = RelOptimizer::new(&model, SearchOptions::default());
    opt.insert_tree(&q.expr);
    opt.explore();
    assert_eq!(
        opt.memo().num_groups(),
        connected_subsets(q) + q.num_relations,
        "{tag}: live classes"
    );
    opt.stats().clone()
}

fn assert_fig4_exhaustive(sizes: std::ops::RangeInclusive<usize>) {
    for n in sizes {
        for seed in 0..4u64 {
            for hub in [DEFAULT_HUB, STAR, SPARSE_HUB] {
                let tag = format!("n={n} seed={seed} hub={hub}");
                assert_exhaustive(&fig4_query(n, seed, hub), &tag);
            }
        }
    }
}

#[test]
fn fig4_memos_hold_every_connected_subset() {
    assert_fig4_exhaustive(2..=7);
}

#[test]
#[ignore = "eight and nine relations; run in release with --include-ignored"]
fn fig4_memos_hold_every_connected_subset_at_8_and_9_relations() {
    assert_fig4_exhaustive(8..=9);
}

/// Bottom-up exploration derives each class once: on the `e2e`
/// benchmark's queries no class is merged away and no expression retired.
#[test]
fn star_fig4_exploration_merges_no_class() {
    for n in 2..=7 {
        for seed in 0..4u64 {
            let tag = format!("n={n} seed={seed}");
            let stats = assert_exhaustive(&fig4_query(n, seed, STAR), &tag);
            assert_eq!(stats.group_merges, 0, "{tag}: group merges");
            assert_eq!(stats.dead_exprs, 0, "{tag}: retired expressions");
        }
    }
}
