//! The assembled relational model specification.

use volcano_core::model::Model;
use volcano_core::rules::{Enforcer, ImplementationRule, TransformationRule};

use crate::catalog::Catalog;
use crate::cost::RelCost;
use crate::ops::RelOp;
use crate::props::{AggPhase, RelLogical, RelProps};
use crate::rules::implement::{
    FileScanRule, FilterRule, FilterScanRule, FinalHashAggRule, HashAggRule, HashJoinRule,
    HashSetOpRule, IndexScanRule, MergeJoinRule, MergeSetOpRule, MultiWayJoinRule, NestedLoopsRule,
    PartialHashAggRule, ProjectRule, SetOpKind, StreamAggRule,
};
use crate::rules::transform::{
    AggSplit, BottomJoinCommute, JoinAssoc, JoinCommute, JoinLeftExchange, SelectMerge,
    SelectPushdown, SetOpAssoc,
};
use crate::rules::{GatherEnforcer, SortEnforcer};

/// The relative margin [`RelModel`]'s cost floors are shaved by. A floor
/// sums the tables' scan I/O in table-id order, a plan in the order of its
/// tree, and a parallel scan divides each table's I/O apart; the margin,
/// far above the rounding of a few dozen additions, keeps such a
/// difference from ever pruning the optimal plan.
const FLOOR_MARGIN: f64 = 1.0 - 1e-9;

/// Which join orders the transformation rules enumerate — Starburst's
/// search-space parameter (§5), expressed Volcano-style as a rule-set
/// choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinSpace {
    /// All bushy trees (commutativity + associativity), as in the
    /// paper's experiments.
    #[default]
    Bushy,
    /// Left-deep trees only ("no composite inner"): bottom-join
    /// commutativity + left-join exchange.
    LeftDeep,
}

/// Configuration of the relational model: which rules are generated into
/// the optimizer and how aggressive the alternatives are.
///
/// "Parameterizing the rules and their conditions, e.g., to control the
/// thoroughness of the search" (§2.1) happens here, at optimizer
/// *generation* time — exactly like regenerating the optimizer from an
/// edited model specification.
#[derive(Debug, Clone)]
pub struct RelModelOptions {
    /// Join-order search space (bushy vs. left-deep).
    pub join_space: JoinSpace,
    /// Include the selection push-down rule.
    pub enable_select_pushdown: bool,
    /// Include the selection-cascade merge rule.
    pub enable_select_merge: bool,
    /// Include the nested-loops join algorithm.
    pub enable_nested_loops: bool,
    /// Include the multi-operator `Select(Get)` → `FilterScan` rule.
    pub enable_filter_scan: bool,
    /// Include the three-way `MultiWayHashJoin` implementation rule —
    /// the §6 extensibility demonstration. Off by default to keep the
    /// baseline algorithm repertoire identical to the paper's.
    pub enable_multiway_join: bool,
    /// Main memory available to each hash join, in bytes. The default
    /// (infinite) reproduces the paper's §4.2 assumption that hash joins
    /// proceed "without partition files"; finite values make the cost a
    /// function of memory and shift plans toward sort-based operators as
    /// memory shrinks.
    pub hash_join_memory_bytes: f64,
    /// Include set-operation associativity rules (union, intersection).
    pub enable_set_op_transforms: bool,
    /// How many alternative consistent key orders merge-based binary
    /// operators offer (1 = declared order only, 2 = also the order with
    /// the first two keys swapped; §3's alternative property vectors).
    pub sort_order_variants: usize,
    /// Parallel degree the gather enforcer may offer (worker count for
    /// morsel-driven batch execution). `1` (the default) generates no
    /// gather enforcer at all, making the model — search space, costs,
    /// and plans — bit-identical to the serial configuration.
    pub parallel_degree: u32,
}

impl Default for RelModelOptions {
    fn default() -> Self {
        RelModelOptions {
            join_space: JoinSpace::Bushy,
            enable_select_pushdown: true,
            enable_select_merge: true,
            enable_nested_loops: true,
            enable_filter_scan: true,
            enable_multiway_join: false,
            hash_join_memory_bytes: f64::INFINITY,
            enable_set_op_transforms: true,
            sort_order_variants: 1,
            parallel_degree: 1,
        }
    }
}

impl RelModelOptions {
    /// The configuration of the paper's §4.2 experiments: operators get,
    /// select, join; algorithms file scan, filter, sort, merge-join,
    /// hybrid hash join; transformation rules generating all plans
    /// including bushy ones; selections arrive already placed on scans.
    pub fn paper_fig4() -> Self {
        RelModelOptions {
            join_space: JoinSpace::Bushy,
            enable_select_pushdown: false,
            enable_select_merge: false,
            enable_nested_loops: false,
            enable_filter_scan: false,
            enable_multiway_join: false,
            hash_join_memory_bytes: f64::INFINITY,
            enable_set_op_transforms: false,
            sort_order_variants: 1,
            parallel_degree: 1,
        }
    }

    /// This configuration with the gather enforcer offering `degree`-way
    /// parallelism.
    pub fn with_parallel_degree(mut self, degree: u32) -> Self {
        self.parallel_degree = degree.max(1);
        self
    }
}

/// The relational model: catalog + rule set + property functions.
pub struct RelModel {
    catalog: Catalog,
    options: RelModelOptions,
    transforms: Vec<Box<dyn TransformationRule<RelModel>>>,
    impls: Vec<Box<dyn ImplementationRule<RelModel>>>,
    enforcers: Vec<Box<dyn Enforcer<RelModel>>>,
}

impl RelModel {
    /// Assemble the model ("generate the optimizer") for a catalog with
    /// the given options.
    pub fn new(catalog: Catalog, options: RelModelOptions) -> Self {
        let mut transforms: Vec<Box<dyn TransformationRule<RelModel>>> = match options.join_space {
            JoinSpace::Bushy => vec![Box::new(JoinCommute::new()), Box::new(JoinAssoc::new())],
            JoinSpace::LeftDeep => vec![
                Box::new(BottomJoinCommute::new()),
                Box::new(JoinLeftExchange::new()),
            ],
        };
        if options.enable_select_pushdown {
            transforms.push(Box::new(SelectPushdown::new()));
        }
        if options.enable_select_merge {
            transforms.push(Box::new(SelectMerge::new()));
        }
        if options.enable_set_op_transforms {
            transforms.push(Box::new(SetOpAssoc::union()));
            transforms.push(Box::new(SetOpAssoc::intersect()));
        }
        if options.parallel_degree > 1 {
            // Two-phase aggregation only pays off when there are workers
            // to share the partial phase; a serial model stays
            // bit-identical to the pre-parallel configuration.
            transforms.push(Box::new(AggSplit::new()));
        }

        let mut impls: Vec<Box<dyn ImplementationRule<RelModel>>> = vec![
            Box::new(FileScanRule::new()),
            Box::new(IndexScanRule::new(catalog.clone())),
            Box::new(FilterRule::new()),
            Box::new(ProjectRule::new()),
            Box::new(MergeJoinRule::new(options.sort_order_variants)),
            Box::new(HashJoinRule::new(options.hash_join_memory_bytes)),
        ];
        if options.enable_nested_loops {
            impls.push(Box::new(NestedLoopsRule::new()));
        }
        if options.enable_filter_scan {
            impls.push(Box::new(FilterScanRule::new()));
        }
        if options.enable_multiway_join {
            impls.push(Box::new(MultiWayJoinRule::new()));
        }
        for kind in [
            SetOpKind::Union,
            SetOpKind::Intersect,
            SetOpKind::Difference,
        ] {
            impls.push(Box::new(MergeSetOpRule::new(
                kind,
                options.sort_order_variants,
            )));
            impls.push(Box::new(HashSetOpRule::new(kind)));
        }
        impls.push(Box::new(StreamAggRule::new()));
        impls.push(Box::new(HashAggRule::new()));
        if options.parallel_degree > 1 {
            impls.push(Box::new(PartialHashAggRule::new(options.parallel_degree)));
            impls.push(Box::new(FinalHashAggRule::new()));
        }

        let mut enforcers: Vec<Box<dyn Enforcer<RelModel>>> = vec![Box::new(SortEnforcer)];
        if options.parallel_degree > 1 {
            enforcers.push(Box::new(GatherEnforcer::new(options.parallel_degree)));
        }

        RelModel {
            catalog,
            options,
            transforms,
            impls,
            enforcers,
        }
    }

    /// Model with default options.
    pub fn with_defaults(catalog: Catalog) -> Self {
        RelModel::new(catalog, RelModelOptions::default())
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The options the model was generated with.
    pub fn options(&self) -> &RelModelOptions {
        &self.options
    }
}

impl Model for RelModel {
    type Op = RelOp;
    type Alg = crate::alg::RelAlg;
    type LogicalProps = RelLogical;
    type PhysProps = RelProps;
    type Cost = RelCost;

    fn derive_logical_props(&self, op: &RelOp, inputs: &[&RelLogical]) -> RelLogical {
        let memory = self.catalog.feedback();
        match op {
            RelOp::Get(t) => RelLogical::of_table(&self.catalog, *t),
            RelOp::Select(p) => inputs[0].select(p, memory),
            RelOp::Project(attrs) => inputs[0].project(attrs),
            RelOp::Join(p) => inputs[0].join(inputs[1], p, memory),
            RelOp::Union => inputs[0].union(inputs[1]),
            RelOp::Intersect => inputs[0].intersect(inputs[1]),
            RelOp::Difference => inputs[0].difference(inputs[1]),
            RelOp::Aggregate(spec) => inputs[0].aggregate(spec, AggPhase::Complete),
            RelOp::PartialAggregate(spec) => {
                inputs[0].aggregate(spec, AggPhase::Partial(self.options.parallel_degree))
            }
            RelOp::FinalAggregate(spec) => inputs[0].aggregate(spec, AggPhase::Final),
        }
    }

    fn assert_logical_props_consistent(&self, existing: &RelLogical, derived: &RelLogical) {
        // The estimation scheme is derivation-invariant by construction
        // (see crate::props); any disagreement is a rule bug.
        debug_assert!(
            (existing.card - derived.card).abs() <= 1e-6 * existing.card.max(1.0),
            "equivalent expressions derived different cardinalities: {} vs {}",
            existing.card,
            derived.card
        );
        // The floor must not depend on the derivation either.
        debug_assert!(
            existing.scans.io().to_bits() == derived.scans.io().to_bits()
                && existing.scans.tables().eq(derived.scans.tables()),
            "equivalent expressions read different base tables: {:?} vs {:?}",
            existing.scans,
            derived.scans
        );
    }

    /// The heap-scan I/O of the class's base tables
    /// ([`BaseScans`](crate::props::BaseScans)),
    /// divided by the parallel degree the model may deliver and shaved by
    /// `FLOOR_MARGIN`: every plan reads each base table at least once,
    /// and the cheapest read of a table is a scan of its heap split
    /// across that many workers. Read in O(1): the sum is derived once per
    /// class.
    fn cost_floor(&self, props: &RelLogical) -> RelCost {
        let degree = f64::from(self.options.parallel_degree.max(1));
        RelCost::io(props.scans.io() / degree * FLOOR_MARGIN)
    }

    fn op_discriminant(&self, op: &RelOp) -> Option<usize> {
        Some(op.discriminant())
    }

    fn transformations(&self) -> &[Box<dyn TransformationRule<Self>>] {
        &self.transforms
    }

    fn implementations(&self) -> &[Box<dyn ImplementationRule<Self>>] {
        &self.impls
    }

    fn enforcers(&self) -> &[Box<dyn Enforcer<Self>>] {
        &self.enforcers
    }
}
