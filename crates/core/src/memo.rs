//! The memo: a hash table of expressions and equivalence classes (§3).
//!
//! > *"In order to prevent redundant optimization effort by detecting
//! > redundant (i.e., multiple equivalent) derivations of the same logical
//! > expressions and plans during optimization, expressions and plans are
//! > captured in a hash table of expressions and equivalence classes. An
//! > equivalence class represents two collections, one of equivalent
//! > logical and one of physical expressions (plans)."*
//!
//! This module fixes the EXODUS "MESH" pathologies the paper documents
//! (§4.1): logical and physical expressions are kept separately (a group's
//! logical members are shared by *all* plans, instead of duplicating nodes
//! per algorithm choice), physical properties key the winner table, and
//! identifiers are dense integers.
//!
//! Equivalence classes that are discovered to be equal (a transformation
//! produces an expression that already exists in a different class) are
//! *merged* through a union–find structure. A merge then re-canonicalizes
//! every live expression in id order, which retires duplicates and can
//! prove further classes equal, so merges cascade until every key is
//! unique again.

use std::hash::{Hash, Hasher};
use std::mem::size_of;

use crate::cost::Limit;
use crate::expr::{ExprTree, SubstExpr};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::ids::{ExprId, GoalId, GroupId};
use crate::inline::InlineVec;
use crate::model::Model;

/// An expression's input classes while it is probed for, on the stack.
type Inputs = InlineVec<GroupId, 4>;

/// An optimization goal fragment: the property vectors a plan for some
/// group must satisfy ("each optimization goal (and subgoal) is a pair of
/// a logical expression and a physical property vector", §2.2, plus the
/// excluding vector used below enforcers, §3).
pub struct Goal<M: Model> {
    /// Required physical properties.
    pub required: M::PhysProps,
    /// Excluding physical property vector (almost always
    /// [`crate::PhysicalProps::any`], i.e. nothing excluded).
    pub excluded: M::PhysProps,
}

impl<M: Model> Clone for Goal<M> {
    fn clone(&self) -> Self {
        Goal {
            required: self.required.clone(),
            excluded: self.excluded.clone(),
        }
    }
}

impl<M: Model> PartialEq for Goal<M> {
    fn eq(&self, other: &Self) -> bool {
        self.required == other.required && self.excluded == other.excluded
    }
}

impl<M: Model> Eq for Goal<M> {}

impl<M: Model> std::hash::Hash for Goal<M> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.required.hash(state);
        self.excluded.hash(state);
    }
}

impl<M: Model> std::fmt::Debug for Goal<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Goal")
            .field("required", &self.required)
            .field("excluded", &self.excluded)
            .finish()
    }
}

/// Reference to the sub-goal an optimal plan's input was optimized for.
/// Plans are materialized from these references at extraction time, so the
/// memo stores each best sub-plan exactly once. Eight bytes: the property
/// vectors live once in the memo's goal table, referenced by [`GoalId`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct InputGoal {
    /// The input equivalence class.
    pub group: GroupId,
    /// The interned goal it was optimized for.
    pub goal: GoalId,
}

impl std::fmt::Debug for InputGoal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InputGoal({:?}, {:?})", self.group, self.goal)
    }
}

/// The best plan found for a goal.
pub struct WinnerPlan<M: Model> {
    /// Chosen algorithm or enforcer.
    pub alg: M::Alg,
    /// Physical properties the plan delivers (must satisfy the goal).
    pub delivered: M::PhysProps,
    /// Cost of this operator alone.
    pub local_cost: M::Cost,
    /// Cost including all inputs.
    pub total_cost: M::Cost,
    /// Input sub-goals, one per operator input.
    pub inputs: Vec<InputGoal>,
    /// The logical expression implemented, if the operator is an
    /// algorithm; `None` for enforcers, which implement the whole class.
    pub expr: Option<ExprId>,
}

impl<M: Model> Clone for WinnerPlan<M> {
    fn clone(&self) -> Self {
        WinnerPlan {
            alg: self.alg.clone(),
            delivered: self.delivered.clone(),
            local_cost: self.local_cost.clone(),
            total_cost: self.total_cost.clone(),
            inputs: self.inputs.clone(),
            expr: self.expr,
        }
    }
}

impl<M: Model> std::fmt::Debug for WinnerPlan<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WinnerPlan")
            .field("alg", &self.alg)
            .field("delivered", &self.delivered)
            .field("total_cost", &self.total_cost)
            .field("inputs", &self.inputs)
            .field("expr", &self.expr)
            .finish()
    }
}

/// A memoized optimization outcome for a goal: either the optimal plan or
/// a recorded failure. Failures are first-class — "newly derived
/// interesting facts are captured in the hash table. 'Interesting' ...
/// includes both plans optimal for given physical properties as well as
/// failures that can save future optimization effort" (§3).
pub enum Winner<M: Model> {
    /// The optimal plan and its cost.
    Optimal(WinnerPlan<M>),
    /// No plan exists within `tried`, and none costs less than `bound`:
    /// any future request whose cost limit is no more permissive than
    /// `tried`, or does not admit `bound`, can fail immediately.
    Failure {
        /// The most permissive limit under which optimization has failed.
        tried: Limit<M::Cost>,
        /// The least cost the failed search proved every plan of the goal
        /// needs (a lower bound on its optimum); `None` when it proved
        /// that the goal has no plan at any cost.
        bound: Option<M::Cost>,
    },
}

impl<M: Model> Clone for Winner<M> {
    fn clone(&self) -> Self {
        match self {
            Winner::Optimal(p) => Winner::Optimal(p.clone()),
            Winner::Failure { tried, bound } => Winner::Failure {
                tried: tried.clone(),
                bound: bound.clone(),
            },
        }
    }
}

impl<M: Model> std::fmt::Debug for Winner<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Winner::Optimal(p) => write!(f, "Optimal({p:?})"),
            Winner::Failure { tried, bound } => {
                write!(f, "Failure(tried={tried:?}, bound={bound:?})")
            }
        }
    }
}

pub(crate) struct ExprData<M: Model> {
    pub op: M::Op,
    /// Input groups; kept canonical (re-written on merge cascades).
    pub inputs: Vec<GroupId>,
    /// Owning group; kept canonical.
    pub group: GroupId,
    /// Set when a merge cascade discovered this expression duplicates an
    /// earlier one; dead expressions are skipped everywhere.
    pub dead: bool,
    /// Memo version at the expression's last change: its creation, a
    /// merge that moved it into another class, or a rewrite of its inputs.
    pub version: u64,
    /// The next indexed expression whose key has the same hash
    /// ([`NO_EXPR`] ends the chain); meaningful only while this expression
    /// is indexed.
    pub next: ExprId,
}

/// End of a duplicate-index chain.
const NO_EXPR: ExprId = ExprId(u32::MAX);

pub(crate) struct GroupData<M: Model> {
    /// Member logical expressions (live and dead; filter via `ExprData`).
    pub exprs: Vec<ExprId>,
    /// Logical properties, derived once from the first member expression:
    /// "the logical properties are determined based on the logical
    /// expression, before any optimization is performed" (§2.2).
    pub logical: M::LogicalProps,
    /// Best plans and failures per interned goal.
    pub winners: FxHashMap<GoalId, Winner<M>>,
    /// Memo version at the last structural change to this group: the
    /// newest `ExprData::version` among its members.
    pub version: u64,
}

/// The memo structure. See the module documentation.
pub struct Memo<M: Model> {
    exprs: Vec<ExprData<M>>,
    groups: Vec<GroupData<M>>,
    /// Union–find parents over group indices.
    parent: Vec<u32>,
    /// Duplicate detection: hash of the canonical `(op, input groups)`
    /// pair → the first indexed expression with that hash; the others
    /// with the same hash follow through [`ExprData::next`], so indexing
    /// an expression allocates nothing beyond the table's own growth.
    /// Keying by precomputed hash instead of by owned `(op, inputs)` pairs
    /// means a probe never clones the operator or the input vector;
    /// equality is re-checked against the expression arena, so collisions
    /// are benign.
    index: FxHashMap<u64, ExprId>,
    /// Monotone structural version counter.
    version: u64,
    /// Number of group merges performed (statistic).
    merges: u64,
    /// Number of expressions marked dead by merge cascades (statistic).
    dead_exprs: u64,
    /// Interned optimization goals, indexed by [`GoalId`]. Memo-global
    /// (not per-group), so group merges never remap goal ids.
    goals: Vec<Goal<M>>,
    /// Interner buckets: property-vector hash → candidate goal ids.
    /// Equality is re-checked on probe, so hash collisions are benign.
    goal_buckets: FxHashMap<u64, Vec<GoalId>>,
}

/// Hash a `(required, excluded)` pair without constructing a `Goal`.
/// Must agree with `Goal`'s `Hash` impl field order.
fn goal_hash<M: Model>(required: &M::PhysProps, excluded: &M::PhysProps) -> u64 {
    let mut h = FxHasher::default();
    required.hash(&mut h);
    excluded.hash(&mut h);
    h.finish()
}

/// Hash a canonical `(op, input groups)` pair for the duplicate-detection
/// index.
fn expr_hash<M: Model>(op: &M::Op, inputs: &[GroupId]) -> u64 {
    let mut h = FxHasher::default();
    op.hash(&mut h);
    inputs.hash(&mut h);
    h.finish()
}

impl<M: Model> Default for Memo<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Model> Memo<M> {
    /// Create an empty memo.
    pub fn new() -> Self {
        Memo {
            exprs: Vec::new(),
            groups: Vec::new(),
            parent: Vec::new(),
            index: FxHashMap::default(),
            version: 0,
            merges: 0,
            dead_exprs: 0,
            goals: Vec::new(),
            goal_buckets: FxHashMap::default(),
        }
    }

    /// Intern a `(required, excluded)` goal, returning its stable id.
    /// Property vectors are cloned only the first time a goal is seen;
    /// every later probe is a hash of references plus an `Eq` check.
    pub fn intern_goal(&mut self, required: &M::PhysProps, excluded: &M::PhysProps) -> GoalId {
        let h = goal_hash::<M>(required, excluded);
        if let Some(ids) = self.goal_buckets.get(&h) {
            for &id in ids {
                let g = &self.goals[id.index()];
                if g.required == *required && g.excluded == *excluded {
                    return id;
                }
            }
        }
        let id = GoalId::from_index(self.goals.len());
        self.goals.push(Goal {
            required: required.clone(),
            excluded: excluded.clone(),
        });
        self.goal_buckets.entry(h).or_default().push(id);
        id
    }

    /// Look up an already-interned goal without interning it (read-only
    /// probes such as [`crate::Optimizer::best_cost`]): `None` means the
    /// goal was never optimized, so it cannot have a winner either.
    pub fn find_goal(&self, required: &M::PhysProps, excluded: &M::PhysProps) -> Option<GoalId> {
        let h = goal_hash::<M>(required, excluded);
        let ids = self.goal_buckets.get(&h)?;
        ids.iter().copied().find(|id| {
            let g = &self.goals[id.index()];
            g.required == *required && g.excluded == *excluded
        })
    }

    /// The property vectors of an interned goal.
    pub fn goal(&self, id: GoalId) -> &Goal<M> {
        &self.goals[id.index()]
    }

    /// Number of distinct goals interned so far.
    pub fn num_goals(&self) -> usize {
        self.goals.len()
    }

    /// Resolve a group id to its union–find representative.
    pub fn repr(&self, g: GroupId) -> GroupId {
        let mut i = g.0;
        while self.parent[i as usize] != i {
            i = self.parent[i as usize];
        }
        GroupId(i)
    }

    /// Current structural version (bumped on every expression insertion
    /// or merge).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Version of the last structural change to `g`: a member was
    /// created, arrived through a merge, or had its inputs rewritten.
    pub fn group_version(&self, g: GroupId) -> u64 {
        self.groups[self.repr(g).index()].version
    }

    /// Version of the last change to `e` itself: its creation, a merge
    /// that moved it into another class, or a rewrite of its inputs.
    pub fn expr_version(&self, e: ExprId) -> u64 {
        self.exprs[e.index()].version
    }

    /// Total number of expression slots ever allocated (including dead).
    pub fn num_exprs(&self) -> usize {
        self.exprs.len()
    }

    /// Total number of group slots ever allocated (including merged-away
    /// groups).
    pub fn num_allocated_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of live (non-merged-away) groups.
    pub fn num_groups(&self) -> usize {
        (0..self.parent.len())
            .filter(|&i| self.parent[i] == i as u32)
            .count()
    }

    /// Number of group merges performed so far.
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Number of expressions retired as duplicates by merge cascades.
    pub fn dead_expr_count(&self) -> u64 {
        self.dead_exprs
    }

    /// Is the expression alive (not retired by a merge cascade)?
    pub fn is_live(&self, e: ExprId) -> bool {
        !self.exprs[e.index()].dead
    }

    /// The operator and (canonical) input groups of an expression.
    pub fn expr(&self, e: ExprId) -> (&M::Op, &[GroupId]) {
        let d = &self.exprs[e.index()];
        (&d.op, &d.inputs)
    }

    /// The (canonical) group an expression belongs to.
    pub fn group_of(&self, e: ExprId) -> GroupId {
        self.repr(self.exprs[e.index()].group)
    }

    /// Live member expressions of a group, as a borrowing iterator (no
    /// allocation — this runs inside every pattern-match inner loop).
    pub fn group_exprs(&self, g: GroupId) -> impl Iterator<Item = ExprId> + '_ {
        self.groups[self.repr(g).index()]
            .exprs
            .iter()
            .copied()
            .filter(move |&e| !self.exprs[e.index()].dead)
    }

    /// The `i`-th entry of class `g`'s own member list (live or retired),
    /// or `None` past its end. `g` is not resolved: a class absorbed by a
    /// merge has an empty list. Positions are stable while the class
    /// lives, and members added later come after every earlier one, so a
    /// walk by position sees them too.
    pub(crate) fn member_at(&self, g: GroupId, i: usize) -> Option<ExprId> {
        self.groups[g.index()].exprs.get(i).copied()
    }

    /// Logical properties of a group.
    pub fn logical_props(&self, g: GroupId) -> &M::LogicalProps {
        &self.groups[self.repr(g).index()].logical
    }

    /// Look up the memoized outcome for an interned goal.
    pub fn winner(&self, g: GroupId, goal: GoalId) -> Option<&Winner<M>> {
        self.groups[self.repr(g).index()].winners.get(&goal)
    }

    /// Record (or replace) the memoized outcome for a goal.
    ///
    /// Invariant: an `Optimal` winner is never replaced by a strictly more
    /// expensive one (debug-asserted) — dynamic programming would be
    /// unsound otherwise.
    pub fn set_winner(&mut self, g: GroupId, goal: GoalId, w: Winner<M>) {
        let gi = self.repr(g).index();
        #[cfg(debug_assertions)]
        {
            use crate::cost::Cost;
            if let (Some(Winner::Optimal(old)), Winner::Optimal(new)) =
                (self.groups[gi].winners.get(&goal), &w)
            {
                debug_assert!(
                    new.total_cost.cheaper_or_equal(&old.total_cost),
                    "winner for {:?} regressed from {:?} to {:?}",
                    self.goals[goal.index()],
                    old.total_cost,
                    new.total_cost
                );
            }
        }
        self.groups[gi].winners.insert(goal, w);
    }

    /// Number of winner entries (plans + failures) across all groups.
    pub fn winner_count(&self) -> usize {
        (0..self.parent.len())
            .filter(|&i| self.parent[i] == i as u32)
            .map(|i| self.groups[i].winners.len())
            .sum()
    }

    /// All live group ids (representatives).
    pub fn group_ids(&self) -> Vec<GroupId> {
        (0..self.parent.len())
            .filter(|&i| self.parent[i] == i as u32)
            .map(|i| GroupId(i as u32))
            .collect()
    }

    /// Insert a complete expression tree, returning the root group.
    pub fn insert_tree(&mut self, model: &M, tree: &ExprTree<M>) -> GroupId {
        let mut inputs = Inputs::new(GroupId(0));
        for t in &tree.inputs {
            inputs.push(self.insert_tree(model, t));
        }
        self.intern_expr(model, &tree.op, &inputs, None).0
    }

    /// Insert a substitute expression produced by a transformation rule.
    /// The root lands in (or is merged with) `target`. Returns `true` if
    /// the memo changed structurally.
    pub fn insert_subst(&mut self, model: &M, subst: &SubstExpr<M>, target: GroupId) -> bool {
        match subst {
            SubstExpr::Group(g) => {
                let target = self.repr(target);
                let g = self.repr(*g);
                if g == target {
                    false
                } else {
                    self.merge(target, g);
                    true
                }
            }
            SubstExpr::Node { .. } => self.insert_node(model, subst, Some(target)).1,
        }
    }

    /// Insert a substitute (sub-)expression, its root into `target` if one
    /// is given and into a class of its own otherwise ("often a new
    /// equivalence class is created during a transformation", §3 /
    /// Figure 3). Returns the root's class and whether the memo changed.
    fn insert_node(
        &mut self,
        model: &M,
        subst: &SubstExpr<M>,
        target: Option<GroupId>,
    ) -> (GroupId, bool) {
        match subst {
            SubstExpr::Group(g) => (self.repr(*g), false),
            SubstExpr::Node { op, inputs } => {
                let mut changed = false;
                let mut groups = Inputs::new(GroupId(0));
                for s in inputs {
                    let (g, c) = self.insert_node(model, s, None);
                    changed |= c;
                    groups.push(g);
                }
                let target = target.map(|t| self.repr(t));
                let (g, c) = self.intern_expr(model, op, &groups, target);
                (g, changed | c)
            }
        }
    }

    /// Core interning: find or create the expression `(op, inputs)`.
    ///
    /// * If it exists in `target`'s class (or no target was given):
    ///   nothing changes.
    /// * If it exists in a *different* class and a target was given, the
    ///   two classes have been proven equivalent and are merged.
    /// * Otherwise a new expression is created in `target` or, absent a
    ///   target, in a fresh class whose logical properties are derived
    ///   from this expression.
    ///
    /// The probe canonicalizes the inputs into a stack buffer; the
    /// operator is cloned and the inputs copied to the heap only when an
    /// expression is created.
    ///
    /// Returns the (canonical) owning group and whether the memo changed.
    pub(crate) fn intern_expr(
        &mut self,
        model: &M,
        op: &M::Op,
        inputs: &[GroupId],
        target: Option<GroupId>,
    ) -> (GroupId, bool) {
        let mut canonical = Inputs::new(GroupId(0));
        for &g in inputs {
            canonical.push(self.repr(g));
        }
        let inputs = &canonical[..];
        let h = expr_hash::<M>(op, inputs);
        let existing = self.indexed(h, op, inputs);
        if let Some(existing) = existing {
            let eg = self.group_of(existing);
            return match target {
                Some(t) if self.repr(t) != eg => {
                    self.merge(self.repr(t), eg);
                    (self.repr(eg), true)
                }
                _ => (eg, false),
            };
        }

        // Logical properties from the input groups: a new class keeps
        // them; an existing class only checks them, in debug builds.
        let derive = |memo: &Self| {
            let input_props: Vec<&M::LogicalProps> =
                inputs.iter().map(|&g| memo.logical_props(g)).collect();
            model.derive_logical_props(op, &input_props)
        };
        let group = match target {
            Some(t) => {
                let t = self.repr(t);
                #[cfg(debug_assertions)]
                model.assert_logical_props_consistent(
                    &self.groups[t.index()].logical,
                    &derive(self),
                );
                t
            }
            None => {
                let logical = derive(self);
                let gid = GroupId(self.groups.len() as u32);
                self.groups.push(GroupData {
                    exprs: Vec::new(),
                    logical,
                    winners: FxHashMap::default(),
                    version: 0,
                });
                self.parent.push(gid.0);
                gid
            }
        };

        let eid = ExprId(self.exprs.len() as u32);
        self.version += 1;
        self.exprs.push(ExprData {
            op: op.clone(),
            inputs: inputs.to_vec(),
            group,
            dead: false,
            version: self.version,
            next: NO_EXPR,
        });
        self.groups[group.index()].exprs.push(eid);
        self.link(h, eid);
        self.groups[group.index()].version = self.version;
        (group, true)
    }

    /// The indexed expression with canonical key `(op, inputs)`, if any.
    /// At most one live expression per key is indexed: the lowest id.
    fn indexed(&self, h: u64, op: &M::Op, inputs: &[GroupId]) -> Option<ExprId> {
        self.chain(h).find(|&e| {
            let d = &self.exprs[e.index()];
            d.op == *op && d.inputs == inputs
        })
    }

    /// The indexed expressions whose keys hash to `h`.
    fn chain(&self, h: u64) -> impl Iterator<Item = ExprId> + '_ {
        let mut at = self.index.get(&h).copied().unwrap_or(NO_EXPR);
        std::iter::from_fn(move || {
            let e = (at != NO_EXPR).then_some(at)?;
            at = self.exprs[e.index()].next;
            Some(e)
        })
    }

    /// Index `e` under hash `h`, at the head of its chain.
    fn link(&mut self, h: u64, e: ExprId) {
        self.exprs[e.index()].next = self.index.insert(h, e).unwrap_or(NO_EXPR);
    }

    /// Merge two equivalence classes proven equal, cascading through any
    /// further merges the re-canonicalization proves: each pass that
    /// finds a key in two classes unites the pair of its highest id, and
    /// the pass runs again until every key is unique.
    pub(crate) fn merge(&mut self, a: GroupId, b: GroupId) {
        let mut pair = Some((a, b));
        while let Some((a, b)) = pair {
            self.union(a, b);
            pair = self.recanonicalize();
        }
    }

    /// One union step: absorb the higher-numbered class into the lower,
    /// moving its members (appended after the kept class's) and winners.
    fn union(&mut self, a: GroupId, b: GroupId) {
        let (ra, rb) = (self.repr(a), self.repr(b));
        debug_assert_ne!(ra, rb, "callers merge distinct classes only");
        // Keep the lower index as representative for stability.
        let (keep, gone) = if ra.0 < rb.0 { (ra, rb) } else { (rb, ra) };
        self.parent[gone.index()] = keep.0;
        self.merges += 1;
        self.version += 1;
        let version = self.version;

        let gone_exprs = std::mem::take(&mut self.groups[gone.index()].exprs);
        for e in &gone_exprs {
            let d = &mut self.exprs[e.index()];
            d.group = keep;
            d.version = version;
        }
        self.groups[keep.index()].exprs.extend(gone_exprs);
        for (goal, w) in std::mem::take(&mut self.groups[gone.index()].winners) {
            self.merge_winner(keep, goal, w);
        }
        self.groups[keep.index()].version = version;
    }

    /// Rewrite every live expression's inputs to their representatives and
    /// re-index it, in id order, into a cleared index. A key met again in
    /// the same class retires the later id; met in another class, the
    /// later id stays live and unindexed, and the last such pair of
    /// classes (the highest id's) is returned to be united next.
    fn recanonicalize(&mut self) -> Option<(GroupId, GroupId)> {
        self.index.clear();
        let mut equal = None;
        for i in 0..self.exprs.len() {
            let d = &self.exprs[i];
            if d.dead {
                continue;
            }
            if d.inputs.iter().any(|&g| self.repr(g) != g) {
                let inputs = d.inputs.iter().map(|&g| self.repr(g)).collect();
                let d = &mut self.exprs[i];
                (d.inputs, d.version) = (inputs, self.version);
                self.groups[d.group.index()].version = self.version;
            }
            let (e, d) = (ExprId(i as u32), &self.exprs[i]);
            let h = expr_hash::<M>(&d.op, &d.inputs);
            match self.indexed(h, &d.op, &d.inputs) {
                None => self.link(h, e),
                Some(first) if self.group_of(first) == d.group => self.retire(e),
                Some(first) => equal = Some((self.group_of(first), d.group)),
            }
        }
        equal
    }

    fn retire(&mut self, e: ExprId) {
        self.exprs[e.index()].dead = true;
        self.dead_exprs += 1;
    }

    /// Merge a winner entry from an absorbed group, keeping the better
    /// fact for each goal. Goal ids are memo-global, so entries transfer
    /// without remapping.
    fn merge_winner(&mut self, g: GroupId, goal: GoalId, incoming: Winner<M>) {
        use crate::cost::Cost;
        let gi = g.index();
        let merged = match (self.groups[gi].winners.remove(&goal), incoming) {
            (None, w) => w,
            (Some(Winner::Optimal(a)), Winner::Optimal(b)) => {
                if b.total_cost.cheaper_than(&a.total_cost) {
                    Winner::Optimal(b)
                } else {
                    Winner::Optimal(a)
                }
            }
            (Some(Winner::Optimal(a)), Winner::Failure { .. }) => Winner::Optimal(a),
            (Some(Winner::Failure { .. }), Winner::Optimal(b)) => Winner::Optimal(b),
            (
                Some(Winner::Failure { tried: a, bound: x }),
                Winner::Failure { tried: b, bound: y },
            ) => {
                Winner::Failure {
                    tried: if b.at_least_as_permissive_as(&a) {
                        b
                    } else {
                        a
                    },
                    // The merged class's plans are both classes' plans, so
                    // only the lesser bound holds for all of them.
                    bound: match (x, y) {
                        (Some(x), Some(y)) => Some(if y.cheaper_than(&x) { y } else { x }),
                        (x, y) => x.or(y),
                    },
                }
            }
        };
        self.groups[gi].winners.insert(goal, merged);
    }

    /// Panic unless the duplicate-detection structures are consistent
    /// (debug builds only, O(memo)): stored inputs and owners canonical, no
    /// two live expressions with one key, every live expression indexed
    /// exactly once and no retired one.
    #[cfg(debug_assertions)]
    pub fn check_invariants(&self) {
        let live = || (0..self.exprs.len()).filter(|&i| !self.exprs[i].dead);
        let canonical = |g: &GroupId| self.repr(*g) == *g;
        for i in live() {
            let (e, d) = (ExprId(i as u32), &self.exprs[i]);
            assert!(d.inputs.iter().all(canonical), "{e}: stale input");
            assert!(canonical(&d.group), "{e}: stale owner");
            let owner = &self.groups[d.group.index()];
            assert!(owner.exprs.contains(&e) && owner.version >= d.version);
            let h = expr_hash::<M>(&d.op, &d.inputs);
            assert_eq!(self.indexed(h, &d.op, &d.inputs), Some(e), "{e}: twin");
        }
        let indexed: usize = self.index.keys().map(|&h| self.chain(h).count()).sum();
        assert_eq!(indexed, live().count(), "retired or repeated index entry");
    }

    /// Estimate of the memo's memory footprint in bytes, for the paper's
    /// "< 1 MB of work space" comparison (§4.2). A **lower bound**: it
    /// adds up arena entries and hash-table payloads, and leaves out the
    /// heap behind operator payloads, vector slack, hash-table control
    /// bytes and every table of the optimizer outside the memo (kept move
    /// lists, class candidates, watermarks), as well as allocator overhead. The measured
    /// peak heap of a search is about four times this figure (`fig4`'s
    /// "Work space" table, EXPERIMENTS.md).
    pub fn memory_estimate(&self) -> usize {
        let expr_bytes: usize = self
            .exprs
            .iter()
            .map(|e| size_of::<ExprData<M>>() + e.inputs.len() * size_of::<GroupId>())
            .sum();
        let group_bytes: usize = self
            .groups
            .iter()
            .map(|g| {
                size_of::<GroupData<M>>()
                    + g.exprs.len() * size_of::<ExprId>()
                    + g.winners.len() * (size_of::<GoalId>() + size_of::<Winner<M>>())
                    + g.winners
                        .values()
                        .map(|w| match w {
                            Winner::Optimal(p) => p.inputs.len() * size_of::<InputGoal>(),
                            Winner::Failure { .. } => 0,
                        })
                        .sum::<usize>()
            })
            .sum();
        let index_bytes = self.index.len() * (size_of::<u64>() + size_of::<ExprId>());
        // Each interned goal stores its property vectors once, plus its
        // bucket entry (hash key amortized over the bucket's ids).
        let goal_bytes =
            self.goals.len() * (size_of::<Goal<M>>() + size_of::<GoalId>() + size_of::<u64>());
        expr_bytes + group_bytes + index_bytes + goal_bytes + self.parent.len() * size_of::<u32>()
    }
}
