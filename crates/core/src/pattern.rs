//! Tree patterns and pattern matching over the memo.
//!
//! Rules specify *patterns* — trees of operator matchers whose leaves are
//! wildcards binding entire equivalence classes. Matching a pattern
//! against a logical expression enumerates every *binding*: a choice of
//! concrete member expression for each interior pattern node. Multi-level
//! patterns are what make rules such as join associativity
//! (`Join(Join(?a, ?b), ?c)`) and multi-operator implementation rules
//! (`Project(Join(?a, ?b))` → one physical operator, §2.2) expressible.

use std::fmt;

use crate::ids::{ExprId, GroupId};
use crate::memo::Memo;
use crate::model::Model;

/// Boxed operator predicate.
type OpPred<M> = Box<dyn Fn(&<M as Model>::Op) -> bool + Send + Sync>;

/// A predicate over logical operators, used at interior pattern nodes.
///
/// Matchers are named so traces and generated documentation can display
/// patterns symbolically.
pub struct OpMatcher<M: Model> {
    name: &'static str,
    pred: OpPred<M>,
    /// Operator discriminants (see [`Model::op_discriminant`]) the
    /// predicate can possibly accept. `None` = undeclared: the matcher
    /// must be tried against every operator.
    discriminants: Option<Vec<usize>>,
}

impl<M: Model> OpMatcher<M> {
    /// Build a matcher from a name and a predicate.
    pub fn new(name: &'static str, pred: impl Fn(&M::Op) -> bool + Send + Sync + 'static) -> Self {
        OpMatcher {
            name,
            pred: Box::new(pred),
            discriminants: None,
        }
    }

    /// Build a matcher that additionally *declares* the operator
    /// discriminants its predicate can accept, enabling the
    /// operator-indexed rule dispatch ([`crate::RuleIndex`]) to skip the
    /// rule entirely for operators outside the set.
    ///
    /// Soundness contract: for every operator `op` with
    /// `model.op_discriminant(op) == Some(d)`, if `pred(op)` can return
    /// `true` then `d` must be in `discriminants`. Declaring too much is
    /// merely wasted work; declaring too little silently loses plans (the
    /// `RuleIndex` completeness proptest guards the shipped models).
    pub fn with_discriminants(
        name: &'static str,
        discriminants: Vec<usize>,
        pred: impl Fn(&M::Op) -> bool + Send + Sync + 'static,
    ) -> Self {
        OpMatcher {
            name,
            pred: Box::new(pred),
            discriminants: Some(discriminants),
        }
    }

    /// Does this matcher accept `op`?
    pub fn matches(&self, op: &M::Op) -> bool {
        (self.pred)(op)
    }

    /// The matcher's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The declared discriminant set, if any.
    pub fn discriminants(&self) -> Option<&[usize]> {
        self.discriminants.as_deref()
    }
}

impl<M: Model> fmt::Debug for OpMatcher<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OpMatcher({})", self.name)
    }
}

/// A tree pattern over the logical algebra.
pub enum Pattern<M: Model> {
    /// Wildcard: matches any equivalence class, binding its group id.
    Any,
    /// An interior node: matches expressions whose operator satisfies the
    /// matcher and whose inputs match the sub-patterns position-wise.
    Op {
        /// Predicate on the operator at this node.
        matcher: OpMatcher<M>,
        /// Sub-patterns, one per operator input.
        inputs: Vec<Pattern<M>>,
    },
}

impl<M: Model> fmt::Debug for Pattern<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pattern({})", self.display())
    }
}

impl<M: Model> Pattern<M> {
    /// Convenience constructor for an interior node.
    pub fn op(
        name: &'static str,
        pred: impl Fn(&M::Op) -> bool + Send + Sync + 'static,
        inputs: Vec<Pattern<M>>,
    ) -> Self {
        Pattern::Op {
            matcher: OpMatcher::new(name, pred),
            inputs,
        }
    }

    /// Convenience constructor for an interior node with a declared
    /// discriminant set (see [`OpMatcher::with_discriminants`]).
    pub fn op_disc(
        name: &'static str,
        discriminants: Vec<usize>,
        pred: impl Fn(&M::Op) -> bool + Send + Sync + 'static,
        inputs: Vec<Pattern<M>>,
    ) -> Self {
        Pattern::Op {
            matcher: OpMatcher::with_discriminants(name, discriminants, pred),
            inputs,
        }
    }

    /// The matcher at the pattern root, if the root is an `Op` node.
    pub fn root_matcher(&self) -> Option<&OpMatcher<M>> {
        match self {
            Pattern::Any => None,
            Pattern::Op { matcher, .. } => Some(matcher),
        }
    }

    /// Does the pattern root accept `op`? A top-level wildcard binds
    /// nothing useful (rules must have an operator at the root), so `Any`
    /// answers `false` — consistent with [`match_pattern`] producing no
    /// bindings for it.
    pub fn root_matches(&self, op: &M::Op) -> bool {
        match self {
            Pattern::Any => false,
            Pattern::Op { matcher, .. } => matcher.matches(op),
        }
    }

    /// Depth of the pattern: `Any` is 0, a node is 1 + max input depth.
    /// Patterns of depth ≤ 1 never need re-matching when input groups
    /// grow, which the exploration fixpoint exploits.
    pub fn depth(&self) -> usize {
        match self {
            Pattern::Any => 0,
            Pattern::Op { inputs, .. } => 1 + inputs.iter().map(Pattern::depth).max().unwrap_or(0),
        }
    }

    /// Render the pattern symbolically, e.g. `join(join(?, ?), ?)`.
    pub fn display(&self) -> String {
        match self {
            Pattern::Any => "?".to_string(),
            Pattern::Op { matcher, inputs } => {
                if inputs.is_empty() {
                    matcher.name().to_string()
                } else {
                    let args: Vec<String> = inputs.iter().map(Pattern::display).collect();
                    format!("{}({})", matcher.name(), args.join(", "))
                }
            }
        }
    }
}

/// The result of matching one pattern node against one expression.
pub struct Binding<M: Model> {
    /// The matched expression.
    pub expr: ExprId,
    /// The matched expression's operator (cloned so condition/apply code
    /// can inspect operator arguments without re-borrowing the memo).
    pub op: M::Op,
    /// One child per operator input, position-wise.
    pub children: Vec<BindingChild<M>>,
}

/// A bound pattern child: either a whole group (wildcard) or a nested
/// binding (interior pattern node).
pub enum BindingChild<M: Model> {
    /// The child pattern was `Any`; the whole input group is bound.
    Group(GroupId),
    /// The child pattern was an `Op` node bound to a member expression.
    Bound(Binding<M>),
}

impl<M: Model> Clone for Binding<M> {
    fn clone(&self) -> Self {
        Binding {
            expr: self.expr,
            op: self.op.clone(),
            children: self.children.clone(),
        }
    }
}

impl<M: Model> fmt::Debug for Binding<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Binding")
            .field("expr", &self.expr)
            .field("op", &self.op)
            .field("children", &self.children)
            .finish()
    }
}

impl<M: Model> Clone for BindingChild<M> {
    fn clone(&self) -> Self {
        match self {
            BindingChild::Group(g) => BindingChild::Group(*g),
            BindingChild::Bound(b) => BindingChild::Bound(b.clone()),
        }
    }
}

impl<M: Model> fmt::Debug for BindingChild<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindingChild::Group(g) => write!(f, "Group({g:?})"),
            BindingChild::Bound(b) => write!(f, "Bound({b:?})"),
        }
    }
}

impl<M: Model> Binding<M> {
    /// Whether `other` binds the same expressions and groups. The
    /// operators then agree too: each is a clone of its expression's.
    pub(crate) fn same_as(&self, other: &Binding<M>) -> bool {
        self.expr == other.expr
            && self.children.len() == other.children.len()
            && self
                .children
                .iter()
                .zip(&other.children)
                .all(|(a, b)| match (a, b) {
                    (BindingChild::Group(g), BindingChild::Group(h)) => g == h,
                    (BindingChild::Bound(a), BindingChild::Bound(b)) => a.same_as(b),
                    _ => false,
                })
    }

    /// The groups bound by `Any` leaves, in left-to-right order. For an
    /// implementation rule these are the input groups of the resulting
    /// physical operator.
    pub fn leaf_groups(&self) -> Vec<GroupId> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<GroupId>) {
        for c in &self.children {
            match c {
                BindingChild::Group(g) => out.push(*g),
                BindingChild::Bound(b) => b.collect_leaves(out),
            }
        }
    }

    /// The input group bound at child position `i` (panics if that child
    /// was matched by a nested pattern rather than a wildcard).
    pub fn input_group(&self, i: usize) -> GroupId {
        match &self.children[i] {
            BindingChild::Group(g) => *g,
            BindingChild::Bound(_) => {
                panic!("binding child {i} is a nested expression, not a group")
            }
        }
    }

    /// The nested binding at child position `i` (panics if that child was
    /// matched by a wildcard).
    pub fn nested(&self, i: usize) -> &Binding<M> {
        match &self.children[i] {
            BindingChild::Group(_) => panic!("binding child {i} is a group, not a nested binding"),
            BindingChild::Bound(b) => b,
        }
    }
}

/// Stream the bindings of `pattern` rooted at expression `expr` into the
/// visitor `f`, in the same lexicographic order [`match_pattern`] returns
/// (child 0 varies slowest; within a child, member-expression order, then
/// that member's own binding order).
///
/// Interior pattern nodes quantify over every live member expression of
/// the corresponding input group, so the enumeration covers the full cross
/// product — exactly the "several different ways" in which an algebraic
/// transformation system can derive the same expression, which the memo's
/// duplicate detection then collapses. Streaming means the cross product
/// is never materialized: the children accumulator is a single backtracked
/// stack, and each emitted [`Binding`] is built only when a complete match
/// exists. Caveat: alternatives of a child are re-enumerated for each
/// combination of earlier children, which only costs extra work for
/// patterns with two or more nested `Op` children — none of the shipped
/// models have one.
///
/// `since` makes the enumeration a *delta*: only bindings that contain an
/// expression changed after that memo version ([`Memo::expr_version`]) are
/// streamed; every other binding existed, with identical canonical content,
/// when the memo was at `since`. Version 0 precedes every expression, so
/// `since = 0` streams every binding.
pub fn match_pattern_with<M: Model>(
    memo: &Memo<M>,
    pattern: &Pattern<M>,
    expr: ExprId,
    since: u64,
    f: &mut dyn FnMut(Binding<M>),
) {
    match_node(memo, pattern, expr, since, &mut |b, changed| {
        if changed {
            f(b)
        }
    });
}

/// Could [`match_pattern_with`] stream anything for `pattern` at `expr`?
/// Cheap and conservative: `expr` itself changed after `since`, or a class
/// under one of the nested pattern positions did.
pub(crate) fn changed_since<M: Model>(
    memo: &Memo<M>,
    pattern: &Pattern<M>,
    expr: ExprId,
    since: u64,
) -> bool {
    let Pattern::Op { inputs, .. } = pattern else {
        return false;
    };
    let deeper = |p: &Pattern<M>, g: GroupId| {
        p.depth() > 1
            && memo
                .group_exprs(g)
                .any(|m| changed_since(memo, p, m, since))
    };
    memo.expr_version(expr) > since
        || (inputs.iter().zip(memo.expr(expr).1))
            .any(|(p, &g)| p.depth() > 0 && (memo.group_version(g) > since || deeper(p, g)))
}

/// Match one pattern node at `expr`, passing each binding to `f` together
/// with whether any expression in it changed after `since`.
fn match_node<M: Model>(
    memo: &Memo<M>,
    pattern: &Pattern<M>,
    expr: ExprId,
    since: u64,
    f: &mut dyn FnMut(Binding<M>, bool),
) {
    // A top-level wildcard binds nothing useful; rules must have an
    // operator at the root.
    let Pattern::Op { matcher, inputs } = pattern else {
        return;
    };
    let (op, groups) = memo.expr(expr);
    if !matcher.matches(op) || inputs.len() != groups.len() {
        return;
    }
    let changed = memo.expr_version(expr) > since;
    let mut acc: Vec<BindingChild<M>> = Vec::with_capacity(inputs.len());
    let mut emit = |children: &[BindingChild<M>], changed| {
        let (op, children) = (op.clone(), children.to_vec());
        f(Binding { expr, op, children }, changed)
    };
    fill_children(memo, inputs, groups, since, changed, &mut acc, &mut emit);
}

/// Backtracking recursion over child positions: `acc` holds bindings for
/// positions `0..acc.len()`, `changed` says whether anything bound so far
/// changed after `since`; once every position is bound, `emit` fires.
fn fill_children<M: Model>(
    memo: &Memo<M>,
    pats: &[Pattern<M>],
    groups: &[GroupId],
    since: u64,
    changed: bool,
    acc: &mut Vec<BindingChild<M>>,
    emit: &mut dyn FnMut(&[BindingChild<M>], bool),
) {
    let i = acc.len();
    if i == pats.len() {
        emit(acc, changed);
        return;
    }
    match &pats[i] {
        Pattern::Any => {
            acc.push(BindingChild::Group(memo.repr(groups[i])));
            fill_children(memo, pats, groups, since, changed, acc, emit);
            acc.pop();
        }
        nested => {
            // A member that is the binding's last chance to contain a
            // change is skipped, unchanged, before anything is built.
            let last_chance =
                !changed && nested.depth() == 1 && pats[i + 1..].iter().all(|p| p.depth() == 0);
            for eid in memo.group_exprs(groups[i]) {
                if last_chance && memo.expr_version(eid) <= since {
                    continue;
                }
                match_node(memo, nested, eid, since, &mut |b, c| {
                    acc.push(BindingChild::Bound(b));
                    fill_children(memo, pats, groups, since, changed || c, acc, emit);
                    acc.pop();
                });
            }
        }
    }
}

/// Enumerate all bindings of `pattern` rooted at expression `expr` as a
/// materialized vector. Convenience wrapper over [`match_pattern_with`]
/// for tests and callers that genuinely need the whole set; the search
/// engine's hot paths use the streaming form.
pub fn match_pattern<M: Model>(
    memo: &Memo<M>,
    pattern: &Pattern<M>,
    expr: ExprId,
) -> Vec<Binding<M>> {
    let mut out = Vec::new();
    match_pattern_with(memo, pattern, expr, 0, &mut |b| out.push(b));
    out
}
