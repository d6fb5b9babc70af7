//! The sort and gather enforcers.
//!
//! "There are some operators in the physical algebra that do not
//! correspond to any operator in the logical algebra, for example
//! sorting ... The purpose of these operators is not to perform any
//! logical data manipulation but to enforce physical properties in their
//! outputs" (§2.2). The gather enforcer extends the same mechanism to the
//! parallel-degree property: it is the merge direction of the paper's
//! exchange operator, letting the optimizer — not the executor — decide
//! where a plan switches between parallel and serial execution.
//!
//! Each enforcer's cost is the model's one [`local_cost`], reading the
//! class it is applied to: an enforcer changes no logical property.

use volcano_core::ids::GroupId;
use volcano_core::{Enforcer, EnforcerApplication, PhysicalProps, RuleCtx};

use crate::alg::RelAlg;
use crate::cost::{local_cost, RelCost};
use crate::model::RelModel;
use crate::props::RelProps;

/// Enforces a required sort order by sorting its input.
///
/// The application relaxes the requirement to "no order" for the input
/// and passes the enforced order down as the *excluding* property vector,
/// so order-producing algorithms (merge join, nested loops delegating
/// order) are not considered redundantly below the sort (§3).
pub struct SortEnforcer;

impl Enforcer<RelModel> for SortEnforcer {
    fn name(&self) -> &'static str {
        "sort"
    }

    fn applies(
        &self,
        required: &RelProps,
        _group: GroupId,
        _ctx: &RuleCtx<'_, RelModel>,
    ) -> Vec<EnforcerApplication<RelModel>> {
        if !required.is_sorted() {
            return vec![];
        }
        vec![EnforcerApplication {
            alg: RelAlg::Sort(required.sort.clone()),
            relaxed: RelProps::any(),
            excluded: required.clone(),
            delivers: required.clone(),
        }]
    }

    fn cost(
        &self,
        app: &EnforcerApplication<RelModel>,
        group: GroupId,
        ctx: &RuleCtx<'_, RelModel>,
    ) -> RelCost {
        let p = ctx.logical_props(group);
        local_cost(&app.alg, &[p], p, app.delivers.parallel, f64::INFINITY)
    }
}

/// Enforces a serial stream over a parallel subplan: requires its input
/// at parallel degree `n` and delivers degree 1 by merging the worker
/// streams (morsel-driven execution with a final gather).
///
/// The application *raises* the input requirement instead of relaxing it
/// — the enforcer mechanism is direction-agnostic, which is exactly why
/// parallelism fits it. The excluding vector is left at `any()` (i.e.
/// exclusion disabled below the gather): the algorithms competing under
/// the parallel goal deliver degree `n`, not degree 1, so they are not
/// redundant re-enforcements of what the gather provides.
pub struct GatherEnforcer {
    degree: u32,
}

impl GatherEnforcer {
    /// An enforcer offering parallel degree `n` (must be ≥ 2 to ever
    /// apply; degree-1 models simply omit the enforcer).
    pub fn new(degree: u32) -> Self {
        GatherEnforcer { degree }
    }
}

impl Enforcer<RelModel> for GatherEnforcer {
    fn name(&self) -> &'static str {
        "gather"
    }

    fn applies(
        &self,
        required: &RelProps,
        _group: GroupId,
        _ctx: &RuleCtx<'_, RelModel>,
    ) -> Vec<EnforcerApplication<RelModel>> {
        // Only an unsorted, serial requirement can be met by gathering:
        // the merge interleaves worker streams arbitrarily (no order),
        // and a parallel requirement needs splitting, not merging.
        if self.degree < 2 || required.is_sorted() || required.is_parallel() {
            return vec![];
        }
        vec![EnforcerApplication {
            alg: RelAlg::Gather(self.degree),
            relaxed: RelProps::parallel(self.degree),
            excluded: RelProps::any(),
            delivers: RelProps::any(),
        }]
    }

    fn cost(
        &self,
        app: &EnforcerApplication<RelModel>,
        group: GroupId,
        ctx: &RuleCtx<'_, RelModel>,
    ) -> RelCost {
        let p = ctx.logical_props(group);
        local_cost(&app.alg, &[p], p, app.delivers.parallel, f64::INFINITY)
    }
}
