//! Operator-indexed rule dispatch.
//!
//! The inner loops of both exploration (`explore_fixpoint`) and move
//! generation (`match_candidates`) historically tried *every* rule against
//! *every* expression — a Get expression would pattern-match every join
//! rule just to fail at the root matcher. A [`RuleIndex`] is built once
//! per [`crate::Optimizer`] and maps each operator *discriminant* (see
//! [`Model::op_discriminant`]) to the transformation and implementation
//! rules whose root [`crate::OpMatcher`] can possibly accept an operator
//! with that discriminant.
//!
//! The index is conservative by construction:
//!
//! * a rule whose root matcher declares no discriminant set is a candidate
//!   for **every** operator,
//! * an operator whose model returns `None` ("unindexable") receives the
//!   **full** rule list,
//! * candidate lists preserve ascending rule order, so consulting the
//!   index visits exactly the rules a linear scan would have visited, in
//!   the same order, minus rules whose root matcher was going to reject
//!   the operator anyway. Plans, costs, statistics, and trace streams are
//!   therefore what a linear scan would produce (EXPERIMENTS.md and git
//!   history keep the scan's measured timings; the completeness proptest
//!   in `tests/hotpath_differential.rs` guards the declared sets).

use std::collections::HashMap;

use crate::model::Model;
use crate::pattern::Pattern;

/// Candidate rule lists for one rule kind (transformations or
/// implementations).
struct KindIndex {
    /// Every rule index, ascending: the fallback for unindexable
    /// operators.
    all: Vec<usize>,
    /// Rules whose root matcher declares no discriminant set (including
    /// `Any`-rooted patterns): candidates for every operator.
    always: Vec<usize>,
    /// Per-discriminant candidates: `always` merged with the rules that
    /// declared the discriminant, ascending. Discriminants no rule
    /// declared are absent — their candidates are exactly `always`.
    by_disc: HashMap<usize, Vec<usize>>,
}

impl KindIndex {
    /// Build from each rule's root pattern, in rule order.
    fn build<'p, M: Model + 'p>(patterns: impl Iterator<Item = &'p Pattern<M>>) -> Self {
        let mut all = Vec::new();
        let mut always = Vec::new();
        let mut declared: HashMap<usize, Vec<usize>> = HashMap::new();
        for (ri, pattern) in patterns.enumerate() {
            all.push(ri);
            match pattern.root_matcher().and_then(|m| m.discriminants()) {
                None => always.push(ri),
                Some(ds) => {
                    for &d in ds {
                        let bucket = declared.entry(d).or_default();
                        // Tolerate duplicate declarations.
                        if bucket.last() != Some(&ri) {
                            bucket.push(ri);
                        }
                    }
                }
            }
        }
        let by_disc = declared
            .into_iter()
            .map(|(d, mut rules)| {
                rules.extend_from_slice(&always);
                rules.sort_unstable();
                (d, rules)
            })
            .collect();
        KindIndex {
            all,
            always,
            by_disc,
        }
    }

    fn candidates(&self, disc: Option<usize>) -> &[usize] {
        match disc {
            None => &self.all,
            Some(d) => self.by_disc.get(&d).map_or(&self.always, Vec::as_slice),
        }
    }
}

/// The dispatch index over a model's transformation and implementation
/// rules. Enforcers are not indexed: they are per-goal, not per-operator.
pub struct RuleIndex {
    transforms: KindIndex,
    impls: KindIndex,
}

impl RuleIndex {
    /// Build the index for a model. Cost is O(rules × declared
    /// discriminants), paid once per optimizer.
    pub fn new<M: Model>(model: &M) -> Self {
        RuleIndex {
            transforms: KindIndex::build(model.transformations().iter().map(|r| r.pattern())),
            impls: KindIndex::build(model.implementations().iter().map(|r| r.pattern())),
        }
    }

    /// Transformation rules that can possibly match an operator with the
    /// given discriminant, ascending. `None` = unindexable → all rules.
    pub fn transform_candidates(&self, disc: Option<usize>) -> &[usize] {
        self.transforms.candidates(disc)
    }

    /// Implementation rules that can possibly match an operator with the
    /// given discriminant, ascending. `None` = unindexable → all rules.
    pub fn impl_candidates(&self, disc: Option<usize>) -> &[usize] {
        self.impls.candidates(disc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::ToyModel;

    #[test]
    fn unindexable_discriminant_gets_every_rule() {
        let model = ToyModel::with_tables(&[("R", 100)]);
        let idx = RuleIndex::new(&model);
        assert_eq!(
            idx.transform_candidates(None).len(),
            model.transformations().len()
        );
        assert_eq!(
            idx.impl_candidates(None).len(),
            model.implementations().len()
        );
    }

    #[test]
    fn candidate_lists_are_ascending() {
        let model = ToyModel::with_tables(&[("R", 100)]);
        let idx = RuleIndex::new(&model);
        for d in 0..8 {
            for list in [
                idx.transform_candidates(Some(d)),
                idx.impl_candidates(Some(d)),
            ] {
                assert!(list.windows(2).all(|w| w[0] < w[1]), "unsorted: {list:?}");
            }
        }
    }
}
