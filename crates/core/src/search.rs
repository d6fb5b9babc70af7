//! The search engine: directed dynamic programming (§3, Figure 2).
//!
//! `FindBestPlan` is split exactly as the paper describes: first the
//! winner table (plans *and* memoized failures) is consulted; if actual
//! optimization is required, the possible *moves* — applicable
//! transformations, algorithms that give the required physical properties,
//! and enforcers for required physical properties — are generated, ordered
//! by promise, and pursued under a branch-and-bound cost limit.
//!
//! Transformations are exhausted in an up-front *exploration* fixpoint
//! (each (rule, binding) pair fires once: a multi-level pattern is
//! re-matched only when a class under one of its nested positions changed,
//! and then only over the bindings that contain a change). With
//! exhaustive search this is equivalent to interleaving transformation moves — every logical
//! expression is derived either way and the memo collapses duplicate
//! derivations — while keeping the costing recursion strictly goal-driven:
//! plans are derived "only for those partial queries that are considered
//! as parts of larger subqueries, not all equivalent expressions and plans
//! that are feasible or seem interesting by their sort order".
//!
//! ## Exploration is bottom-up and installs as it goes
//!
//! The fixpoint is one depth-first walk over the classes followed by
//! sweeps over every expression until nothing changes. The walk explores
//! a member's input classes before the member itself, and each
//! (expression, rule) task installs its substitutes the moment it has
//! matched. So a class is complete before anything above it is matched,
//! and a substitute that names a new class has that class explored before
//! any other rule can derive the same subset as a class of its own — the
//! class the memo would later have to merge away. On select–join queries
//! whose joins all share one attribute no class is merged and no
//! expression is retired; what other queries and rule sets still merge,
//! and classes that form a cycle, the sweeps finish.
//!
//! ## Move candidates are matched once per class
//!
//! Because exploration runs to its fixpoint before costing starts, the
//! memo's structure is frozen while goals are costed: costing records
//! winners and interns goals but never inserts or merges an expression.
//! A goal's moves depend only on that structure (rules see the memo
//! through [`RuleCtx`], and no rule reads the winner table), and the part
//! of them that does not depend on the goal does not depend on anything
//! else: a class's implementation-rule bindings that pass their rule's
//! `condition` are matched once per class and memo version and shared
//! (`Rc`) by every goal of the class. Generating a goal's moves then runs
//! only `applies`, `promise` and `cost` over those candidates, and the
//! enforcers, and sorts the result.
//!
//! That list in turn is generated once per (class, goal) and memo
//! version. A goal that ends without an optimal plan keeps its list, and
//! when it is asked again with a looser limit (the paper's memoized
//! failure, §3, being re-optimized) the list is reused. A goal that
//! records an optimal plan drops its list: the winner table answers every
//! later request. Any insertion or merge bumps the memo version and
//! clears every list and every class's candidates. The kept lists hold at
//! most as many moves as the memo has expressions (at least 256); past
//! that the oldest list goes first, and its goal, if asked again,
//! generates its moves anew. Reuse is invisible in the statistics and the
//! trace: a reused list counts and replays its exclusions exactly as a
//! fresh one would, and move order is the matcher's order either way.
//!
//! ## Cost floors
//!
//! With pruning on, a class's [`Model::cost_floor`] (a lower bound on all
//! its plans) is charged before the cost is spent: a goal whose limit is
//! below its class's floor fails before its moves are generated, an
//! algorithm move is abandoned once the accumulated cost plus the floors
//! of its inputs not yet optimized crosses the bound (and each input is
//! optimized under what the bound leaves after both), and an enforcer
//! move once its local cost plus the class's floor does. Zero floors, the
//! default, leave the search exactly as the paper's.
//!
//! A memoized failure carries a bound of the same kind (after Shapiro et
//! al.'s lower bounds for failed goals). While a goal fails, each of its
//! moves proves a least cost for every plan through it: the accumulated
//! cost plus the input floors when the move is pruned, the accumulated
//! cost plus the failed input's own bound plus the floors after it when an
//! input fails, and the total when it completes over the limit. The
//! minimum over the moves is recorded with the failure
//! ([`Winner::Failure`]'s `bound`; none at all when the goal has no move,
//! so no plan at any cost). A later request whose limit does not admit
//! the bound fails at once, where the limit alone would have re-optimized
//! the goal; one that admits it searches again. Only failures that are
//! proven facts carry a bound: cycle marks and failures under a move limit
//! are never memoized, so neither is affected.
//!
//! ## Move selection
//!
//! "Pursuing all moves or only a selected few is a major heuristic placed
//! into the hands of the optimizer implementor" (§3): with
//! [`SearchOptions::move_limit`] `Some(k)`, a goal pursues its moves in
//! promise order and stops once `k` of them have set its best plan, so
//! every goal completes *greedily* and `find_best_plan` returns a valid
//! plan whose cost is an upper bound on the optimum. Exploration still runs
//! to its fixpoint. A failure found under a move limit is never memoized:
//! it may be an artifact of an input's greedy plan overshooting a limit an
//! optimal plan would meet, not a proven fact.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use crate::cost::{Cost, Limit};
use crate::error::OptimizeError;
use crate::expr::{ExprTree, SubstExpr};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{ExprId, GoalId, GroupId};
use crate::inline::InlineVec;
use crate::memo::{InputGoal, Memo, Winner, WinnerPlan};
use crate::model::Model;
use crate::pattern::{changed_since, match_pattern_with, Binding};
use crate::plan::Plan;
use crate::props::PhysicalProps;
use crate::rule_index::RuleIndex;
use crate::rules::{AlgApplication, EnforcerApplication, RuleCtx};
use crate::stats::SearchStats;
use crate::trace::{MemoHitKind, NullTracer, TraceEvent, Tracer};

/// Goals currently being optimized, shared with RAII cycle guards. Keys
/// are `(group, interned goal)` — two `u32`s, no property hashing.
type InProgressSet = Rc<RefCell<FxHashSet<(GroupId, GoalId)>>>;

/// Knobs controlling the search strategy.
///
/// The defaults reproduce the paper's engine (exhaustive, pruned,
/// memoizing). The toggles exist because "pursuing all moves or only a
/// selected few is a major heuristic placed into the hands of the
/// optimizer implementor" (§3) — and because the ablation benchmarks need
/// to quantify each mechanism's contribution.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Branch-and-bound pruning: pass tightened cost limits into input
    /// optimizations and abandon moves whose accumulated cost crosses the
    /// bound. Disabling reverts to plain exhaustive dynamic programming.
    pub pruning: bool,
    /// Memoize optimization *failures* so a later request with the same
    /// or a lower cost limit fails without search.
    pub failure_memo: bool,
    /// Greedy completion: each goal pursues its moves in promise order and
    /// stops once `k` of them have set its best plan (heuristic, an upper
    /// bound on the optimum; see the module docs). `None` = exhaustive.
    pub move_limit: Option<usize>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            pruning: true,
            failure_memo: true,
            move_limit: None,
        }
    }
}

/// Why a goal could not be satisfied (internal).
struct GoalFailure<C> {
    /// `true` when the failure is a proven fact for this goal and limit
    /// (safe to memoize); `false` when it is an artifact of cycle
    /// breaking ("in progress" marks) or of greedy completion under a
    /// move limit, and must not poison the memo.
    memoizable: bool,
    /// The least cost the failure proved every plan of the goal needs;
    /// `None` when it proved there is no plan at any cost. Meaningful
    /// only when `memoizable`.
    bound: Option<C>,
}

impl<C> GoalFailure<C> {
    /// A proven failure: no plan of the goal costs less than `bound`.
    fn proven(bound: Option<C>) -> Self {
        GoalFailure {
            memoizable: true,
            bound,
        }
    }

    /// A failure that proves nothing (see `memoizable`).
    fn artifact() -> Self {
        GoalFailure {
            memoizable: false,
            bound: None,
        }
    }
}

/// Lower `least`, the least cost a failing goal's moves have been proven
/// to need so far (`None`: no move has proven any, so no plan yet), to
/// `c` if `c` is cheaper.
fn lower<C: Cost>(least: &mut Option<C>, c: C) {
    if least.as_ref().is_none_or(|l| c.cheaper_than(l)) {
        *least = Some(c);
    }
}

/// One move the engine may pursue for a goal (§3: "three sets of possible
/// moves"; transformations are exhausted during exploration). Each move
/// carries its local cost, computed once when the list is generated, so a
/// kept list that is pursued again is not costed again.
enum Move<M: Model> {
    Alg {
        /// Index into the class's [`Candidates`]: the rule and its
        /// binding, matched and conditioned once for every goal of the
        /// class.
        cand: u32,
        app: AlgApplication<M>,
        local: M::Cost,
        promise: f64,
    },
    Enf {
        enf_idx: usize,
        app: EnforcerApplication<M>,
        local: M::Cost,
        promise: f64,
    },
}

impl<M: Model> Move<M> {
    fn promise(&self) -> f64 {
        match self {
            Move::Alg { promise, .. } | Move::Enf { promise, .. } => *promise,
        }
    }
}

/// An application skipped because it delivers properties the excluding
/// vector forbids; kept so a reused move list replays its
/// [`TraceEvent::MoveExcluded`] events.
enum Exclusion<M: Model> {
    Alg {
        rule_idx: usize,
        delivers: M::PhysProps,
    },
    Enf {
        enf_idx: usize,
        delivers: M::PhysProps,
    },
}

impl<M: Model> Exclusion<M> {
    fn reason(&self, model: &M) -> String {
        match self {
            Exclusion::Alg { rule_idx, delivers } => format!(
                "{} delivers {:?}, already enforced",
                model.implementations()[*rule_idx].name(),
                delivers
            ),
            Exclusion::Enf { enf_idx, delivers } => format!(
                "enforcer {} delivers {:?}, already enforced",
                model.enforcers()[*enf_idx].name(),
                delivers
            ),
        }
    }
}

/// A class's implementation-rule candidates: every (rule, binding) pair
/// the matcher streams over the class's expressions whose binding passes
/// the rule's condition code, in match order. Neither depends on the goal,
/// so they are found once per class and memo version and shared by every
/// goal of the class. A binding is stored once per expression: rules with
/// the same pattern bind the same expressions and share one entry.
struct Candidates<M: Model> {
    /// (implementation rule index, index into `bindings`).
    pairs: Box<[(u32, u32)]>,
    bindings: Box<[Binding<M>]>,
}

/// A goal's moves in the order they are pursued (sorted by promise), the
/// class candidates `Move::Alg` entries index into, and the applications
/// the excluding vector removed. Boxed slices: a kept list carries no
/// spare capacity.
struct MoveList<M: Model> {
    moves: Box<[Move<M>]>,
    candidates: Rc<Candidates<M>>,
    exclusions: Box<[Exclusion<M>]>,
}

/// The vectors candidates, a move list and an exploration task are
/// gathered in, kept empty between uses so their capacity serves every
/// later class, goal and task: each is then copied out in one exact-size
/// allocation per slice instead of growing one.
struct Scratch<M: Model> {
    pairs: Vec<(u32, u32)>,
    bindings: Vec<Binding<M>>,
    moves: Vec<Move<M>>,
    exclusions: Vec<Exclusion<M>>,
    substitutes: Vec<SubstExpr<M>>,
}

impl<M: Model> Default for Scratch<M> {
    fn default() -> Self {
        Scratch {
            pairs: Vec::new(),
            bindings: Vec::new(),
            moves: Vec::new(),
            exclusions: Vec::new(),
            substitutes: Vec::new(),
        }
    }
}

/// What costing keeps for reuse within one memo version: each class's
/// [`Candidates`], and the move lists of goals optimized without
/// recording an optimal plan, for when such a goal is asked again with a
/// looser limit. The lists hold at most [`kept_moves_bound`] moves,
/// dropping the oldest list first, so their footprint stays proportional
/// to the memo's; the candidates are at most one entry per class.
struct MoveLists<M: Model> {
    version: u64,
    candidates: FxHashMap<GroupId, Rc<Candidates<M>>>,
    lists: FxHashMap<(GroupId, GoalId), Rc<MoveList<M>>>,
    /// Keys in the order their lists were kept; a key whose list is gone
    /// is skipped when it comes up for eviction.
    order: VecDeque<(GroupId, GoalId)>,
    /// Moves across `lists`.
    moves: usize,
}

impl<M: Model> MoveLists<M> {
    fn new() -> Self {
        MoveLists {
            version: 0,
            candidates: FxHashMap::default(),
            lists: FxHashMap::default(),
            order: VecDeque::new(),
            moves: 0,
        }
    }

    /// Drop everything kept for an older memo version: an insertion or
    /// merge may add candidates to any class and moves to any goal.
    fn sync(&mut self, version: u64) {
        if self.version != version {
            self.candidates.clear();
            self.lists.clear();
            self.order.clear();
            self.moves = 0;
            self.version = version;
        }
    }

    /// The list kept for `key` under memo `version`, if any.
    fn get(&mut self, key: (GroupId, GoalId), version: u64) -> Option<Rc<MoveList<M>>> {
        self.sync(version);
        self.lists.get(&key).cloned()
    }

    fn keep(&mut self, key: (GroupId, GoalId), list: Rc<MoveList<M>>, max_moves: usize) {
        if self.lists.contains_key(&key) {
            return;
        }
        self.moves += list.moves.len();
        self.lists.insert(key, list);
        self.order.push_back(key);
        while self.moves > max_moves {
            match self.order.pop_front() {
                Some(old) => self.remove(old),
                None => break,
            }
        }
    }

    fn remove(&mut self, key: (GroupId, GoalId)) {
        if let Some(list) = self.lists.remove(&key) {
            self.moves -= list.moves.len();
        }
    }
}

/// How many moves the kept lists may hold for a memo of `exprs`
/// expressions: as many, and at least 256 (a few tens of KB), so a small
/// search keeps every list.
fn kept_moves_bound(exprs: usize) -> usize {
    exprs.max(256)
}

/// RAII "in progress" mark: inserts the (group, goal) key on construction
/// and removes it on drop, so *every* exit path — straight-line returns,
/// `?` propagation, and greedy early breaks — unwinds the mark.
/// A leaked mark would permanently poison its key: all later requests for
/// that goal would report a (non-memoizable) cycle failure.
struct CycleGuard {
    set: InProgressSet,
    key: (GroupId, GoalId),
}

impl CycleGuard {
    fn mark(set: &InProgressSet, key: (GroupId, GoalId)) -> Self {
        set.borrow_mut().insert(key);
        CycleGuard {
            set: Rc::clone(set),
            key,
        }
    }
}

impl Drop for CycleGuard {
    fn drop(&mut self) {
        self.set.borrow_mut().remove(&self.key);
    }
}

/// A generated optimizer: the search engine instantiated for one model.
pub struct Optimizer<'m, M: Model> {
    model: &'m M,
    memo: Memo<M>,
    opts: SearchOptions,
    stats: SearchStats,
    /// Goals currently being optimized, for cycle detection among
    /// mutually inverse transformation derivations. Shared (`Rc`) with
    /// the RAII guards that unwind the marks.
    in_progress: InProgressSet,
    /// Operator-discriminant → candidate-rule dispatch index, built once
    /// from the model's rule sets.
    rule_index: RuleIndex,
    /// Memo version at the last installed pattern match of each
    /// (expression, transformation rule) pair, 0 = not yet matched; one
    /// row of `rule_depths.len()` entries per expression.
    watermarks: Vec<u64>,
    /// Transformation pattern depths, cached from the model.
    rule_depths: Vec<usize>,
    move_lists: MoveLists<M>,
    scratch: Scratch<M>,
    tracer: Box<dyn Tracer>,
}

impl<'m, M: Model> Optimizer<'m, M> {
    /// Create an optimizer for `model` with the given search options.
    pub fn new(model: &'m M, opts: SearchOptions) -> Self {
        let rule_depths = model
            .transformations()
            .iter()
            .map(|r| r.pattern().depth())
            .collect();
        Optimizer {
            model,
            memo: Memo::new(),
            opts,
            stats: SearchStats::default(),
            in_progress: Rc::new(RefCell::new(FxHashSet::default())),
            rule_index: RuleIndex::new(model),
            watermarks: Vec::new(),
            rule_depths,
            move_lists: MoveLists::new(),
            scratch: Scratch::default(),
            tracer: Box::new(NullTracer),
        }
    }

    /// Attach a tracer receiving structured search events.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// Insert a query (logical algebra expression) and return its root
    /// equivalence class.
    pub fn insert_tree(&mut self, tree: &ExprTree<M>) -> GroupId {
        self.memo.insert_tree(self.model, tree)
    }

    /// The memo, for inspection and testing.
    pub fn memo(&self) -> &Memo<M> {
        &self.memo
    }

    /// The operator-indexed rule dispatch table, for inspection and the
    /// completeness proptest.
    pub fn rule_index(&self) -> &RuleIndex {
        &self.rule_index
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Exit of every public search call: refresh the statistics that are
    /// snapshots of the memo or the clock rather than running counters.
    fn leave(&mut self, start: Instant) {
        self.stats.elapsed += start.elapsed();
        self.stats.exprs_created = self.memo.num_exprs();
        self.stats.groups_created = self.memo.num_allocated_groups();
        self.stats.group_merges = self.memo.merge_count();
        self.stats.dead_exprs = self.memo.dead_expr_count();
        self.stats.memo_bytes = self.memo.memory_estimate();
    }

    /// Run the transformation exploration fixpoint without any costing —
    /// the paper's "extreme case" where "a logical expression is
    /// transformed on the logical algebra level without optimizing its
    /// subexpressions and without performing algorithm selection and cost
    /// analysis" (§4.1): Starburst's query-rewrite level as a *choice*,
    /// not a mandatory layer.
    pub fn explore(&mut self) {
        let start = Instant::now();
        self.explore_fixpoint();
        self.leave(start);
    }

    /// The exploration fixpoint (see the module docs): one bottom-up walk
    /// over the classes, then sweeps over every live expression while the
    /// previous pass changed the memo. The sweeps make up what the walk
    /// cannot see: members a merge moved into a class already walked, and
    /// classes a cycle cut short. A walk that changes nothing is itself a
    /// sweep that found nothing. The walk and each sweep count as one
    /// `explore_passes`.
    fn explore_fixpoint(&mut self) {
        self.stats.explore_passes += 1;
        let mut changed = self.explore_walk();
        while changed {
            self.stats.explore_passes += 1;
            changed = self.explore_sweep();
        }
    }

    /// The bottom-up walk: every live class not yet entered, in class
    /// order (including classes the walk creates). Returns whether the
    /// memo changed.
    fn explore_walk(&mut self) -> bool {
        let mut entered = Vec::new();
        let mut changed = false;
        let mut i = 0;
        while i < self.memo.num_allocated_groups() {
            let g = GroupId::from_index(i);
            if self.memo.repr(g) == g && entered.get(i) != Some(&true) {
                changed |= self.explore_class(g, &mut entered);
            }
            i += 1;
        }
        changed
    }

    /// Explore class `g` depth-first: walk its member list by position,
    /// so members its own tasks add are reached too, and before running
    /// a member's tasks explore each of the member's input classes not yet
    /// entered. A class is marked on entry, so a cycle back into a class
    /// on the walk's stack is cut there. A class absorbed by a merge hands
    /// its list to the survivor and its walk ends; the sweeps cover both.
    fn explore_class(&mut self, g: GroupId, entered: &mut Vec<bool>) -> bool {
        if entered.len() <= g.index() {
            entered.resize(self.memo.num_allocated_groups(), false);
        }
        entered[g.index()] = true;
        let mut changed = false;
        let mut i = 0;
        while let Some(e) = self.memo.member_at(g, i) {
            i += 1;
            if !self.memo.is_live(e) {
                continue;
            }
            for k in 0..self.memo.expr(e).1.len() {
                let h = self.memo.repr(self.memo.expr(e).1[k]);
                if entered.get(h.index()) != Some(&true) {
                    changed |= self.explore_class(h, entered);
                }
            }
            changed |= self.explore_expr(e);
        }
        changed
    }

    /// One sweep: every live expression's pending tasks in id order,
    /// including expressions the sweep creates. Returns whether the memo
    /// changed.
    fn explore_sweep(&mut self) -> bool {
        let mut changed = false;
        let mut i = 0;
        while i < self.memo.num_exprs() {
            changed |= self.explore_expr(ExprId::from_index(i));
            i += 1;
        }
        changed
    }

    /// Run the pending (expression, rule) tasks of `e`. Depth-1 patterns
    /// see only the expression's own operator, so matching them once is
    /// exhaustive; a deeper pattern is re-matched when the expression, or a
    /// class under one of the pattern's nested positions, changed since the
    /// pair's watermark — nothing else can give it a binding it has not
    /// fired. A retired expression runs nothing: its live twin (same
    /// operator, same canonical inputs) yields the same substitutes.
    fn explore_expr(&mut self, e: ExprId) -> bool {
        let rules = self.model.transformations();
        let row = e.index() * rules.len();
        if self.watermarks.len() < row + rules.len() {
            self.watermarks
                .resize(self.memo.num_exprs() * rules.len(), 0);
        }
        // Candidate rules for this operator, ascending: every rule minus
        // guaranteed root-matcher rejections.
        let disc = self.model.op_discriminant(self.memo.expr(e).0);
        let mut changed = false;
        for k in 0..self.rule_index.transform_candidates(disc).len() {
            let ri = self.rule_index.transform_candidates(disc)[k];
            if !self.memo.is_live(e) {
                break;
            }
            let wm = self.watermarks[row + ri];
            if wm == 0
                || (self.rule_depths[ri] > 1
                    && changed_since(&self.memo, rules[ri].pattern(), e, wm))
            {
                changed |= self.explore_task(e, ri, wm);
            }
        }
        changed
    }

    /// One (expression, rule) task: fire the bindings that contain a
    /// change since the watermark `since` (every other binding already
    /// fired against identical canonical inputs), stamp the watermark
    /// with the version matched against, then install the substitutes
    /// into `e`'s class. Returns whether the memo changed.
    fn explore_task(&mut self, e: ExprId, ri: usize, since: u64) -> bool {
        let model = self.model;
        let rule = model.transformations()[ri].as_ref();
        let pattern = rule.pattern();
        let mut subs = std::mem::take(&mut self.scratch.substitutes);
        // `transform_matches` counts root-matcher hits, so the operator-
        // indexed dispatch (which only skips guaranteed rejections) leaves
        // it unchanged.
        if pattern.root_matches(self.memo.expr(e).0) {
            self.stats.transform_matches += 1;
            let (memo, stats, tracer) = (&self.memo, &mut self.stats, &self.tracer);
            let (ctx, traced) = (RuleCtx::new(memo), tracer.enabled());
            match_pattern_with(memo, pattern, e, since, &mut |b| {
                if rule.condition(b, &ctx) {
                    let s = rule.apply(b, &ctx);
                    stats.transform_fired += 1;
                    if traced {
                        tracer.event(TraceEvent::RuleFired {
                            rule: rule.name(),
                            expr: e,
                            substitutes: s.len() as u64,
                        });
                    }
                    subs.extend(s);
                }
            });
        }
        // Whatever the install adds is newer than this, so a deeper
        // pattern re-matches against exactly what this task never saw.
        self.watermarks[e.index() * model.transformations().len() + ri] = self.memo.version();
        let target = self.memo.group_of(e);
        let mut changed = false;
        for s in subs.drain(..) {
            self.stats.substitutes_produced += 1;
            changed |= self.memo.insert_subst(model, &s, target);
        }
        self.scratch.substitutes = subs;
        changed
    }

    /// Optimize `root` for the required physical properties under an
    /// optional cost limit ("typically infinity for a user query, but the
    /// user interface may permit users to set their own limits to 'catch'
    /// unreasonable queries", §3) and return the optimal plan — or, under
    /// a [`SearchOptions::move_limit`], the plan greedy completion
    /// produced (a valid upper bound; see the module docs).
    pub fn find_best_plan(
        &mut self,
        root: GroupId,
        required: M::PhysProps,
        limit: Option<M::Cost>,
    ) -> Result<Plan<M>, OptimizeError> {
        let start = Instant::now();
        self.explore_fixpoint();
        let goal = self.memo.intern_goal(&required, &M::PhysProps::any());
        let had_limit = limit.is_some();
        let res = self.optimize_goal(root, goal, Limit(limit));
        self.leave(start);
        match res {
            Ok(_) => Ok(self
                .extract_plan(root, goal)
                .expect("winner recorded for successful goal")),
            Err(_) => {
                // With no cost limit the failure is structural (the model
                // cannot implement the expression); with a limit the plan
                // may simply be too expensive.
                if had_limit {
                    Err(OptimizeError::LimitExceeded)
                } else {
                    Err(OptimizeError::NoPlan)
                }
            }
        }
    }

    /// The optimal cost memoized for a goal, if any. Read-only: probes
    /// the goal interner without cloning the property vectors (a goal
    /// that was never interned was never optimized, so it has no winner).
    pub fn best_cost(&self, group: GroupId, required: &M::PhysProps) -> Option<M::Cost> {
        let goal = self.memo.find_goal(required, &M::PhysProps::any())?;
        match self.memo.winner(self.memo.repr(group), goal) {
            Some(Winner::Optimal(p)) => Some(p.total_cost.clone()),
            _ => None,
        }
    }

    /// The recursive heart of Figure 2.
    fn optimize_goal(
        &mut self,
        group: GroupId,
        goal: GoalId,
        limit: Limit<M::Cost>,
    ) -> Result<M::Cost, GoalFailure<M::Cost>> {
        let group = self.memo.repr(group);

        // "if the pair LogExpr and PhysProp is in the look-up table ..."
        if let Some(w) = self.memo.winner(group, goal) {
            match w {
                Winner::Optimal(p) => {
                    // Optimal entries are true optima (branch-and-bound
                    // returns optimal completions), so the limit check is
                    // definitive either way.
                    return if limit.admits(&p.total_cost) {
                        self.stats.winner_hits += 1;
                        let cost = p.total_cost.clone();
                        if self.tracer.enabled() {
                            self.tracer.event(TraceEvent::MemoHit {
                                group,
                                kind: MemoHitKind::Winner,
                            });
                        }
                        Ok(cost)
                    } else {
                        self.stats.failure_hits += 1;
                        if self.tracer.enabled() {
                            self.tracer.event(TraceEvent::MemoHit {
                                group,
                                kind: MemoHitKind::Failure,
                            });
                        }
                        Err(GoalFailure::proven(Some(p.total_cost.clone())))
                    };
                }
                Winner::Failure { tried, bound } => {
                    // Either fact answers the request: no plan within a
                    // limit as permissive, or none as cheap as the limit.
                    let below_bound = bound.as_ref().is_none_or(|b| !limit.admits(b));
                    if below_bound || tried.at_least_as_permissive_as(&limit) {
                        let bound = bound.clone();
                        self.stats.failure_hits += 1;
                        if self.tracer.enabled() {
                            self.tracer.event(TraceEvent::MemoHit {
                                group,
                                kind: MemoHitKind::Failure,
                            });
                        }
                        return Err(GoalFailure::proven(bound));
                    }
                    // A limit that admits the bound and is more permissive
                    // than any tried before: actual (re-)optimization is
                    // required.
                }
            }
        }

        // Branch-and-bound with lower bounds: no plan of the class costs
        // less than its floor, so a limit below the floor fails the goal
        // before any move is generated. A proven fact, hence memoizable;
        // it is not recorded, because the next request checks it in O(1).
        if self.opts.pruning && !limit.is_unlimited() {
            let floor = self.floor(group);
            if !limit.admits(&floor) {
                self.stats.goals_floored += 1;
                return Err(GoalFailure::proven(Some(floor)));
            }
        }

        // "the current expression and physical property vector is marked
        // as 'in progress'" — cycle breaking for inverse rules. The RAII
        // guard removes the mark on every exit path.
        let key = (group, goal);
        if self.in_progress.borrow().contains(&key) {
            return Err(GoalFailure::artifact());
        }
        let _cycle_mark = CycleGuard::mark(&self.in_progress, key);
        self.stats.goals_optimized += 1;
        let traced = self.tracer.enabled();
        let goal_start = traced.then(Instant::now);
        if traced {
            self.tracer.event(TraceEvent::GoalBegin {
                group,
                required: format!("{:?}", self.memo.goal(goal).required),
            });
        }

        let list = self.move_list(group, goal);
        let moves_pursued = list.moves.len() as u64;

        let mut best: Option<WinnerPlan<M>> = None;
        let mut bound = limit.clone();
        let mut nonmemoizable_failure = false;
        // The least cost any move was proven to need, for the failure's
        // bound should no move find a plan within the limit.
        let mut least: Option<M::Cost> = None;
        // Greedy completion: under a move limit of `k`, the goal ends once
        // `k` moves have set its best plan.
        let mut improvements_left = self.opts.move_limit.unwrap_or(usize::MAX);

        for mv in &list.moves {
            if improvements_left == 0 {
                break;
            }
            let pursued = match mv {
                Move::Alg {
                    cand, app, local, ..
                } => {
                    let (rule_idx, binding) = list.candidates.pairs[*cand as usize];
                    self.pursue_alg(
                        group,
                        rule_idx as usize,
                        &list.candidates.bindings[binding as usize],
                        app,
                        local,
                        &mut best,
                        &mut bound,
                        &mut least,
                    )
                }
                Move::Enf {
                    enf_idx,
                    app,
                    local,
                    ..
                } => self.pursue_enf(
                    group, *enf_idx, app, local, &mut best, &mut bound, &mut least,
                ),
            };
            match pursued {
                Ok(true) => improvements_left -= 1,
                Ok(false) => {}
                Err(nm) => nonmemoizable_failure |= nm,
            }
        }

        let outcome = match best {
            Some(plan) => {
                let cost = plan.total_cost.clone();
                debug_assert!(
                    plan.delivered.satisfies(&self.memo.goal(goal).required),
                    "chosen plan's physical properties {:?} do not satisfy the goal {:?}",
                    plan.delivered,
                    self.memo.goal(goal).required
                );
                self.stats.winners_recorded += 1;
                self.memo.set_winner(group, goal, Winner::Optimal(plan));
                // The winner table answers every later request for this
                // goal, so its moves are never pursued again.
                self.move_lists.remove(key);
                if limit.admits(&cost) {
                    Ok(cost)
                } else {
                    Err(GoalFailure::proven(Some(cost)))
                }
            }
            None => {
                // A failure observed under a move limit may be an artifact
                // of greedy completion (an input's greedy plan overshooting
                // a limit an optimal plan would meet), not a proven fact —
                // never memoize it.
                let memoizable = !nonmemoizable_failure && self.opts.move_limit.is_none();
                if memoizable && self.opts.failure_memo {
                    self.stats.failures_recorded += 1;
                    self.memo.set_winner(
                        group,
                        goal,
                        Winner::Failure {
                            tried: limit.clone(),
                            bound: least.clone(),
                        },
                    );
                }
                self.move_lists
                    .keep(key, list, kept_moves_bound(self.memo.num_exprs()));
                if memoizable {
                    Err(GoalFailure::proven(least))
                } else {
                    Err(GoalFailure::artifact())
                }
            }
        };

        if traced {
            self.tracer.event(TraceEvent::GoalEnd {
                group,
                outcome: match &outcome {
                    Ok(c) => format!("optimal cost {c:?}"),
                    Err(_) => "failure".to_string(),
                },
                elapsed: goal_start.map(|s| s.elapsed()).unwrap_or_default(),
                moves: moves_pursued,
            });
        }
        outcome
    }

    /// The goal's move list: reused when the goal was optimized before
    /// without recording an optimal plan, generated otherwise. Either way
    /// its exclusions are counted and traced as if just generated, so the
    /// statistics and the event stream do not depend on reuse.
    fn move_list(&mut self, group: GroupId, goal: GoalId) -> Rc<MoveList<M>> {
        // Costing never changes the memo's structure, so within one
        // `find_best_plan` the version is fixed.
        let list = match self.move_lists.get((group, goal), self.memo.version()) {
            Some(list) => list,
            None => {
                let mut scratch = std::mem::take(&mut self.scratch);
                let candidates = match self.move_lists.candidates.get(&group) {
                    Some(c) => Rc::clone(c),
                    None => {
                        let c = Rc::new(self.match_candidates(group, &mut scratch));
                        self.move_lists.candidates.insert(group, Rc::clone(&c));
                        c
                    }
                };
                let list = self.generate_moves(group, goal, candidates, &mut scratch);
                self.scratch = scratch;
                Rc::new(list)
            }
        };
        self.stats.moves_excluded += list.exclusions.len() as u64;
        if self.tracer.enabled() {
            for x in &list.exclusions {
                self.tracer.event(TraceEvent::MoveExcluded {
                    group,
                    reason: x.reason(self.model),
                });
            }
        }
        list
    }

    /// Match the implementation rules against every expression of class
    /// `group` and keep the bindings their condition code accepts.
    /// Bindings stream out of the matcher by reference and are cloned into
    /// the arena only when accepted, once per expression.
    fn match_candidates(&self, group: GroupId, scratch: &mut Scratch<M>) -> Candidates<M> {
        let (memo, model) = (&self.memo, self.model);
        let Scratch {
            pairs, bindings, ..
        } = scratch;
        let ctx = RuleCtx::new(memo);
        for expr in memo.group_exprs(group) {
            let expr_bindings = bindings.len();
            let disc = model.op_discriminant(memo.expr(expr).0);
            for &ri in self.rule_index.impl_candidates(disc) {
                let rule = &model.implementations()[ri];
                match_pattern_with(memo, rule.pattern(), expr, 0, &mut |binding| {
                    if !rule.condition(binding, &ctx) {
                        return;
                    }
                    let idx = bindings[expr_bindings..]
                        .iter()
                        .position(|b| b.same_as(binding))
                        .map_or(bindings.len(), |i| expr_bindings + i);
                    if idx == bindings.len() {
                        bindings.push(binding.clone());
                    }
                    pairs.push((ri as u32, idx as u32));
                });
            }
        }
        Candidates {
            pairs: pairs.drain(..).collect(),
            bindings: bindings.drain(..).collect(),
        }
    }

    /// Generate the algorithm and enforcer moves for a goal in the order
    /// they are pursued: each of the class's candidates is asked what it
    /// `applies` for the goal, and each application its promise and cost.
    fn generate_moves(
        &self,
        group: GroupId,
        goal: GoalId,
        candidates: Rc<Candidates<M>>,
        scratch: &mut Scratch<M>,
    ) -> MoveList<M> {
        let (memo, model) = (&self.memo, self.model);
        let Scratch {
            moves, exclusions, ..
        } = scratch;
        let goal = memo.goal(goal);
        let exclude_active = !goal.excluded.is_any();

        let ctx = RuleCtx::new(memo);
        // "there might be some algorithms that can deliver the logical
        // expression with the desired physical properties".
        for (k, &(ri, bi)) in candidates.pairs.iter().enumerate() {
            let rule = &model.implementations()[ri as usize];
            let binding = &candidates.bindings[bi as usize];
            for app in rule.applies(binding, &goal.required, &ctx) {
                debug_assert!(
                    app.delivers.satisfies(&goal.required),
                    "applicability function of {} produced properties {:?} that \
                     do not satisfy {:?}",
                    rule.name(),
                    app.delivers,
                    goal.required
                );
                // "algorithms that already applied before relaxing the
                // physical properties must not be explored again" below an
                // enforcer.
                if exclude_active && app.delivers.satisfies(&goal.excluded) {
                    exclusions.push(Exclusion::Alg {
                        rule_idx: ri as usize,
                        delivers: app.delivers,
                    });
                    continue;
                }
                let promise = rule.promise(&app, binding, &ctx);
                let local = rule.cost(&app, binding, &ctx);
                moves.push(Move::Alg {
                    cand: k as u32,
                    app,
                    local,
                    promise,
                });
            }
        }
        // "an enforcer might be useful to permit additional algorithm
        // choices".
        for (ei, enf) in model.enforcers().iter().enumerate() {
            for app in enf.applies(&goal.required, group, &ctx) {
                if exclude_active && app.delivers.satisfies(&goal.excluded) {
                    exclusions.push(Exclusion::Enf {
                        enf_idx: ei,
                        delivers: app.delivers,
                    });
                    continue;
                }
                let promise = enf.promise(&app, group, &ctx);
                let local = enf.cost(&app, group, &ctx);
                moves.push(Move::Enf {
                    enf_idx: ei,
                    app,
                    local,
                    promise,
                });
            }
        }
        // Stable sort by descending promise: "order the set of moves by
        // promise". `total_cmp` gives NaN a fixed position (after every
        // finite promise in descending order), so a NaN promise can no
        // longer scramble move order between runs. A list already in that
        // order (every promise equal, as with the shipped rules) is left
        // as it is, which is what the stable sort would do.
        let descending = |a: &Move<M>, b: &Move<M>| b.promise().total_cmp(&a.promise());
        if !moves.is_sorted_by(|a, b| descending(a, b).is_le()) {
            moves.sort_by(descending);
        }
        MoveList {
            moves: moves.drain(..).collect(),
            candidates,
            exclusions: exclusions.drain(..).collect(),
        }
    }

    /// The cost floor of class `g` ([`Model::cost_floor`]).
    fn floor(&self, g: GroupId) -> M::Cost {
        self.model.cost_floor(self.memo.logical_props(g))
    }

    /// The sum of the floors of `leaves`, in order.
    fn floors(&self, leaves: &[GroupId]) -> M::Cost {
        leaves
            .iter()
            .fold(M::Cost::zero(), |sum, &g| sum.add(&self.floor(g)))
    }

    /// Pursue an algorithm move of local cost `local`: optimize each input
    /// for its required properties while the accumulated cost plus the
    /// floors of the inputs not yet optimized stays under the bound; each
    /// input's limit is what the bound leaves after both. Returns whether
    /// the move set the best plan, or `Err(nonmemoizable)` when abandoned.
    /// A move that does not set the best plan lowers `least` to the cost it
    /// was proven to need: its total if it completed, the accumulated cost
    /// plus the floors left if it was pruned, and the accumulated cost plus
    /// the input's bound plus the floors after it if an input failed.
    #[allow(clippy::too_many_arguments)]
    fn pursue_alg(
        &mut self,
        group: GroupId,
        rule_idx: usize,
        binding: &Binding<M>,
        app: &AlgApplication<M>,
        local: &M::Cost,
        best: &mut Option<WinnerPlan<M>>,
        bound: &mut Limit<M::Cost>,
        least: &mut Option<M::Cost>,
    ) -> Result<bool, bool> {
        self.stats.alg_moves += 1;
        let model = self.model;
        let rule = &model.implementations()[rule_idx];
        let traced = self.tracer.enabled();
        if traced {
            self.tracer.event(TraceEvent::MoveCosted {
                group,
                description: format!("{} via {:?}", rule.name(), app.alg),
            });
        }

        let mut leaves = InlineVec::<GroupId, 4>::new(group);
        binding.for_each_leaf(&mut |g| leaves.push(g));
        assert_eq!(
            leaves.len(),
            app.input_props.len(),
            "rule {} produced {} input property vectors for {} bound input groups",
            rule.name(),
            app.input_props.len(),
            leaves.len()
        );

        // "TotalCost := cost of the algorithm; for each input I while
        // TotalCost < Limit ...", where the inputs not yet optimized are
        // charged their floors.
        let any = M::PhysProps::any();
        let mut total = local.clone();
        let mut input_goals = InlineVec::<InputGoal, 4>::new(InputGoal {
            group,
            goal: GoalId::from_index(0),
        });
        let pruning = self.opts.pruning;
        let mut rest = if pruning {
            self.floors(&leaves)
        } else {
            M::Cost::zero()
        };
        for (i, (g, props)) in leaves.iter().zip(app.input_props.iter()).enumerate() {
            if pruning {
                let needed = total.add(&rest);
                if !bound.admits(&needed) {
                    self.stats.moves_pruned += 1;
                    if traced {
                        self.tracer.event(TraceEvent::MovePruned {
                            group,
                            reason: format!(
                                "{} via {:?}: accumulated cost {:?} plus input floors {:?} over limit",
                                rule.name(),
                                app.alg,
                                total,
                                rest
                            ),
                        });
                    }
                    lower(least, needed);
                    return Err(false);
                }
            }
            // Interning clones the property vector only the first time
            // this (required, any) combination is ever requested.
            let child_goal = self.memo.intern_goal(props, &any);
            let child_limit = if pruning {
                rest = self.floors(&leaves[i + 1..]);
                bound.spend(&total.add(&rest))
            } else {
                Limit::unlimited()
            };
            match self.optimize_goal(*g, child_goal, child_limit) {
                Ok(c) => {
                    total = total.add(&c);
                    input_goals.push(InputGoal {
                        group: *g,
                        goal: child_goal,
                    });
                }
                Err(f) => {
                    if let Some(b) = &f.bound {
                        lower(least, total.add(b).add(&rest));
                    }
                    return Err(!f.memoizable);
                }
            }
        }

        let better = self.beats_best(&total, best, bound);
        if better {
            *best = Some(WinnerPlan {
                alg: app.alg.clone(),
                delivered: app.delivers.clone(),
                local_cost: local.clone(),
                total_cost: total,
                inputs: input_goals.to_vec(),
                expr: Some(binding.expr),
            });
        } else {
            lower(least, total);
        }
        Ok(better)
    }

    /// Pursue an enforcer move of local cost `local`: unless the bound is
    /// below `local` plus the class's floor, subtract its cost from the
    /// bound (§6) and optimize the *same* group for the relaxed property
    /// vector with the enforced properties excluded. Returns and lowers
    /// `least` as [`Self::pursue_alg`] does.
    #[allow(clippy::too_many_arguments)]
    fn pursue_enf(
        &mut self,
        group: GroupId,
        enf_idx: usize,
        app: &EnforcerApplication<M>,
        local: &M::Cost,
        best: &mut Option<WinnerPlan<M>>,
        bound: &mut Limit<M::Cost>,
        least: &mut Option<M::Cost>,
    ) -> Result<bool, bool> {
        self.stats.enforcer_moves += 1;
        let model = self.model;
        let enf = &model.enforcers()[enf_idx];
        let traced = self.tracer.enabled();
        if traced {
            self.tracer.event(TraceEvent::MoveCosted {
                group,
                description: format!("enforcer {} as {:?}", enf.name(), app.alg),
            });
        }

        if self.opts.pruning {
            let floor = self.floor(group);
            let needed = local.add(&floor);
            if !bound.admits(&needed) {
                self.stats.moves_pruned += 1;
                if traced {
                    self.tracer.event(TraceEvent::MovePruned {
                        group,
                        reason: format!(
                            "enforcer {} as {:?}: local cost {:?} plus floor {:?} over limit",
                            enf.name(),
                            app.alg,
                            local,
                            floor
                        ),
                    });
                }
                lower(least, needed);
                return Err(false);
            }
        }
        let child_goal = self.memo.intern_goal(&app.relaxed, &app.excluded);
        let child_limit = if self.opts.pruning {
            bound.spend(local)
        } else {
            Limit::unlimited()
        };
        match self.optimize_goal(group, child_goal, child_limit) {
            Ok(c) => {
                let total = local.add(&c);
                let better = self.beats_best(&total, best, bound);
                if better {
                    *best = Some(WinnerPlan {
                        alg: app.alg.clone(),
                        delivered: app.delivers.clone(),
                        local_cost: local.clone(),
                        total_cost: total,
                        inputs: vec![InputGoal {
                            group,
                            goal: child_goal,
                        }],
                        expr: None,
                    });
                } else {
                    lower(least, total);
                }
                Ok(better)
            }
            Err(f) => {
                if let Some(b) = &f.bound {
                    lower(least, local.add(b));
                }
                Err(!f.memoizable)
            }
        }
    }

    /// Does a completed candidate of cost `total` beat the best plan so
    /// far? If so, tighten the branch-and-bound limit: "once a complete
    /// plan is known ... no other plan or partial plan with higher cost
    /// can be part of the optimal query evaluation plan". The caller
    /// builds the candidate's [`WinnerPlan`] only when it wins.
    fn beats_best(
        &self,
        total: &M::Cost,
        best: &Option<WinnerPlan<M>>,
        bound: &mut Limit<M::Cost>,
    ) -> bool {
        let better = match best {
            None => !self.opts.pruning || bound.admits(total),
            Some(b) => total.cheaper_than(&b.total_cost),
        };
        if better && self.opts.pruning {
            *bound = bound.tighten(total);
        }
        better
    }

    /// Materialize the memoized optimal plan for a goal.
    fn extract_plan(&self, group: GroupId, goal: GoalId) -> Option<Plan<M>> {
        let group = self.memo.repr(group);
        match self.memo.winner(group, goal)? {
            Winner::Failure { .. } => None,
            Winner::Optimal(p) => {
                // The paper's consistency check: "generated optimizers
                // verify that the physical properties of a chosen plan
                // really do satisfy the physical property vector given as
                // part of the optimization goal" (§2.2).
                assert!(
                    p.delivered.satisfies(&self.memo.goal(goal).required),
                    "plan properties {:?} violate goal {:?}",
                    p.delivered,
                    self.memo.goal(goal).required
                );
                let inputs = p
                    .inputs
                    .iter()
                    .map(|ig| {
                        self.extract_plan(ig.group, ig.goal)
                            .expect("input goal of a winner must itself have a winner")
                    })
                    .collect();
                Some(Plan {
                    alg: p.alg.clone(),
                    delivered: p.delivered.clone(),
                    local_cost: p.local_cost.clone(),
                    cost: p.total_cost.clone(),
                    group,
                    inputs,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{ToyModel, ToyOp, ToyProps};

    fn join(l: ExprTree<ToyModel>, r: ExprTree<ToyModel>) -> ExprTree<ToyModel> {
        ExprTree::new(ToyOp::Join, vec![l, r])
    }

    fn get(name: &str) -> ExprTree<ToyModel> {
        ExprTree::leaf(ToyOp::Get(name.into()))
    }

    /// The kept lists hold no goal with an optimal plan, and no more
    /// moves than the bound.
    fn check_kept(opt: &Optimizer<'_, ToyModel>) {
        let kept = &opt.move_lists;
        assert!(kept
            .lists
            .keys()
            .all(|&(g, goal)| !matches!(opt.memo.winner(g, goal), Some(Winner::Optimal(_)))));
        let moves: usize = kept.lists.values().map(|l| l.moves.len()).sum();
        assert_eq!(kept.moves, moves);
        assert!(moves <= kept_moves_bound(opt.memo.num_exprs()));
    }

    #[test]
    fn move_lists_are_kept_for_unsolved_goals_of_the_current_memo_only() {
        let model = ToyModel::with_tables(&[("A", 100), ("B", 2000), ("C", 30), ("D", 500)]);
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&join(join(get("A"), get("B")), get("C")));
        let best = opt
            .find_best_plan(root, ToyProps::sorted(), None)
            .unwrap()
            .cost;
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&join(join(get("A"), get("B")), get("C")));
        assert!(opt
            .find_best_plan(root, ToyProps::sorted(), Some(0.5 * best))
            .is_err());
        assert!(!opt.move_lists.lists.is_empty());
        check_kept(&opt);
        let kept: Vec<_> = opt.move_lists.lists.values().cloned().collect();
        opt.find_best_plan(root, ToyProps::sorted(), None).unwrap();
        check_kept(&opt);

        // A new relation changes the memo: no list of the old one survives.
        let wider = opt.insert_tree(&join(get("D"), join(join(get("A"), get("B")), get("C"))));
        let _ = opt.find_best_plan(wider, ToyProps::sorted(), Some(0.5 * best));
        assert_eq!(opt.move_lists.version, opt.memo.version());
        assert!(!opt.move_lists.lists.is_empty());
        check_kept(&opt);
        assert!(opt
            .move_lists
            .lists
            .values()
            .all(|l| kept.iter().all(|k| !Rc::ptr_eq(k, l))));
    }

    #[test]
    fn a_failure_bound_answers_a_looser_request_below_it() {
        let model = ToyModel::with_tables(&[("A", 100), ("B", 2000), ("C", 30)]);
        let tree = join(join(get("A"), get("B")), get("C"));
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&tree);
        let best = opt
            .find_best_plan(root, ToyProps::sorted(), None)
            .unwrap()
            .cost;

        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&tree);
        let tight = 0.5 * best;
        assert!(opt
            .find_best_plan(root, ToyProps::sorted(), Some(tight))
            .is_err());
        let goal = opt
            .memo
            .find_goal(&ToyProps::sorted(), &ToyProps::any())
            .unwrap();
        let Some(Winner::Failure {
            tried,
            bound: Some(bound),
        }) = opt.memo.winner(root, goal).cloned()
        else {
            panic!("the root's failure was not memoized with a bound");
        };
        assert_eq!(tried, Limit::at_most(tight));
        assert!(
            tight < bound && bound <= best,
            "{tight} < {bound} <= {best}"
        );

        // A limit between the one tried and the bound: the tried limit
        // alone would re-optimize the root, the bound fails it at once.
        let between = (tight + bound) / 2.0;
        assert!(!tried.at_least_as_permissive_as(&Limit::at_most(between)));
        let (goals, hits) = (opt.stats.goals_optimized, opt.stats.failure_hits);
        assert!(opt
            .find_best_plan(root, ToyProps::sorted(), Some(between))
            .is_err());
        assert_eq!(opt.stats.goals_optimized, goals);
        assert_eq!(opt.stats.failure_hits, hits + 1);

        // A limit that admits the bound searches again and finds the plan.
        let plan = opt.find_best_plan(root, ToyProps::sorted(), Some(best));
        assert_eq!(plan.unwrap().cost, best);
        assert!(opt.stats.goals_optimized > goals);
    }

    #[test]
    fn the_oldest_lists_go_first_once_the_moves_exceed_the_bound() {
        let model = ToyModel::with_tables(&[("A", 100), ("B", 2000), ("C", 30), ("D", 500)]);
        let tree = join(get("D"), join(join(get("A"), get("B")), get("C")));
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&tree);
        let best = opt
            .find_best_plan(root, ToyProps::sorted(), None)
            .unwrap()
            .cost;
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&tree);
        let _ = opt.find_best_plan(root, ToyProps::sorted(), Some(0.5 * best));
        let mut lists: Vec<_> = opt.move_lists.lists.drain().collect();
        lists.retain(|(_, l)| !l.moves.is_empty());
        assert!(lists.len() >= 3);
        let version = opt.memo.version();
        let mut kept = MoveLists::new();
        assert!(kept.get(lists[0].0, version).is_none());
        let bound = lists[1].1.moves.len() + lists[2].1.moves.len();
        for (key, list) in &lists[..3] {
            kept.keep(*key, Rc::clone(list), bound);
        }
        assert!(kept.get(lists[0].0, version).is_none());
        assert!(kept.get(lists[1].0, version).is_some());
        assert!(kept.get(lists[2].0, version).is_some());
        assert_eq!(kept.moves, bound);
        kept.remove(lists[1].0);
        assert_eq!(kept.moves, lists[2].1.moves.len());
        // A new memo version drops everything.
        assert!(kept.get(lists[2].0, version + 1).is_none());
        assert_eq!((kept.moves, kept.lists.len()), (0, 0));
    }
}
