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
use std::ops::{Deref, DerefMut};

use crate::ids::{ExprId, GroupId};
use crate::inline::InlineVec;
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
    pub children: BindingChildren<M>,
}

/// A bound pattern child: either a whole group (wildcard) or a nested
/// binding (interior pattern node).
pub enum BindingChild<M: Model> {
    /// The child pattern was `Any`; the whole input group is bound.
    Group(GroupId),
    /// The child pattern was an `Op` node bound to a member expression.
    /// Boxed, because a binding's children are stored in place.
    Bound(Box<Binding<M>>),
}

/// A binding's children, one per operator input: up to two in place
/// (every operator of the shipped models has at most two inputs), more on
/// the heap. Dereferences to a slice.
pub struct BindingChildren<M: Model>(Children<M>);

enum Children<M: Model> {
    /// The first `len` slots are the children; the rest are filler.
    Inline(usize, [BindingChild<M>; 2]),
    Heap(Vec<BindingChild<M>>),
}

impl<M: Model> BindingChildren<M> {
    /// `n` children, the `i`-th made by `f(i)`, called in order.
    pub(crate) fn from_fn(n: usize, mut f: impl FnMut(usize) -> BindingChild<M>) -> Self {
        if n > 2 {
            return BindingChildren(Children::Heap((0..n).map(f).collect()));
        }
        let filler = || BindingChild::Group(GroupId::from_index(0));
        let first = if n > 0 { f(0) } else { filler() };
        let second = if n > 1 { f(1) } else { filler() };
        BindingChildren(Children::Inline(n, [first, second]))
    }
}

impl<M: Model> Deref for BindingChildren<M> {
    type Target = [BindingChild<M>];

    fn deref(&self) -> &[BindingChild<M>] {
        match &self.0 {
            Children::Inline(len, slots) => &slots[..*len],
            Children::Heap(v) => v,
        }
    }
}

impl<M: Model> DerefMut for BindingChildren<M> {
    fn deref_mut(&mut self) -> &mut [BindingChild<M>] {
        match &mut self.0 {
            Children::Inline(len, slots) => &mut slots[..*len],
            Children::Heap(v) => v,
        }
    }
}

impl<'a, M: Model> IntoIterator for &'a BindingChildren<M> {
    type Item = &'a BindingChild<M>;
    type IntoIter = std::slice::Iter<'a, BindingChild<M>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<M: Model> Clone for BindingChildren<M> {
    fn clone(&self) -> Self {
        Self::from_fn(self.len(), |i| self[i].clone())
    }
}

impl<M: Model> fmt::Debug for BindingChildren<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
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
                .zip(other.children.iter())
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
        self.for_each_leaf(&mut |g| out.push(g));
        out
    }

    /// [`Self::leaf_groups`] without the vector.
    pub(crate) fn for_each_leaf(&self, f: &mut impl FnMut(GroupId)) {
        for c in &self.children {
            match c {
                BindingChild::Group(g) => f(*g),
                BindingChild::Bound(b) => b.for_each_leaf(f),
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
/// is never materialized. The enumeration records only the expression
/// bound at each pattern node, in a stack buffer; one [`Binding`] is built
/// at the first complete match and updated in place for every later one,
/// re-cloning an operator only where the bound expression changed, so `f`
/// sees a borrowed binding and clones what it keeps. Caveat: alternatives
/// of a child are re-enumerated for each combination of earlier children,
/// which only costs extra work for patterns with two or more nested `Op`
/// children — none of the shipped models have one.
///
/// `since` makes the enumeration a *delta*: only bindings that contain an
/// expression changed after that memo version ([`Memo::expr_version`]) are
/// streamed; every other binding existed, with identical canonical content,
/// when the memo was at `since`. Version 0 precedes every expression, so
/// `since = 0` streams every binding. The filter runs before a binding is
/// built: an unchanged combination costs no clone.
pub fn match_pattern_with<M: Model>(
    memo: &Memo<M>,
    pattern: &Pattern<M>,
    expr: ExprId,
    since: u64,
    f: &mut dyn FnMut(&Binding<M>),
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
    let mut m = Match {
        memo,
        pattern,
        since,
        bound: InlineVec::new(expr),
        binding: None,
        f,
    };
    m.bound.push(expr);
    let rest = Rest {
        pats: inputs,
        groups,
        next: None,
    };
    m.fill(&rest, memo.expr_version(expr) > since);
}

/// One streaming match: the expressions bound so far and the binding
/// handed to the visitor.
struct Match<'a, M: Model> {
    memo: &'a Memo<M>,
    pattern: &'a Pattern<M>,
    since: u64,
    /// The expression bound at each interior pattern node so far, in
    /// pre-order (the root first).
    bound: InlineVec<ExprId, 4>,
    /// Built at the first complete match, then updated in place.
    binding: Option<Binding<M>>,
    f: &'a mut dyn FnMut(&Binding<M>),
}

/// The child positions still to bind: `pats` against `groups` (one
/// node's remaining inputs), then whatever `next` leaves of its parent.
struct Rest<'r, M: Model> {
    pats: &'r [Pattern<M>],
    groups: &'r [GroupId],
    next: Option<&'r Rest<'r, M>>,
}

impl<M: Model> Rest<'_, M> {
    /// Does an interior pattern node remain?
    fn has_op(&self) -> bool {
        self.pats.iter().any(|p| p.depth() > 0) || self.next.is_some_and(Rest::has_op)
    }
}

impl<M: Model> Match<'_, M> {
    /// Bind the next interior node in `rest` to each matching member of
    /// its class in turn, then the positions after it; `changed` says
    /// whether anything bound so far changed after `since`. Once nothing
    /// remains, a changed binding is emitted.
    fn fill(&mut self, rest: &Rest<'_, M>, changed: bool) {
        let Some(i) = rest.pats.iter().position(|p| p.depth() > 0) else {
            match rest.next {
                Some(next) => self.fill(next, changed),
                None if changed => self.emit(),
                None => {}
            }
            return;
        };
        let Pattern::Op { matcher, inputs } = &rest.pats[i] else {
            unreachable!("a pattern of positive depth is an interior node")
        };
        let after = Rest {
            pats: &rest.pats[i + 1..],
            groups: &rest.groups[i + 1..],
            next: rest.next,
        };
        // A member that is the binding's last chance to contain a change
        // is skipped, unchanged, before anything is matched below it.
        let last_chance = !changed && inputs.iter().all(|p| p.depth() == 0) && !after.has_op();
        let memo = self.memo;
        for eid in memo.group_exprs(rest.groups[i]) {
            let c = memo.expr_version(eid) > self.since;
            if last_chance && !c {
                continue;
            }
            let (op, groups) = memo.expr(eid);
            if !matcher.matches(op) || inputs.len() != groups.len() {
                continue;
            }
            self.bound.push(eid);
            let below = Rest {
                pats: inputs,
                groups,
                next: Some(&after),
            };
            self.fill(&below, changed || c);
            self.bound.pop();
        }
    }

    /// Bring the binding up to date with `bound` and pass it to `f`.
    fn emit(&mut self) {
        let mut k = 0;
        match &mut self.binding {
            Some(b) => refill(self.memo, self.pattern, &self.bound, &mut k, b),
            None => self.binding = Some(build(self.memo, self.pattern, &self.bound, &mut k)),
        }
        if let Some(b) = &self.binding {
            (self.f)(b);
        }
    }
}

/// Build the binding of `pattern` whose interior nodes are bound, in
/// pre-order from `bound[*k]`, to the given expressions.
fn build<M: Model>(
    memo: &Memo<M>,
    pattern: &Pattern<M>,
    bound: &[ExprId],
    k: &mut usize,
) -> Binding<M> {
    let Pattern::Op { inputs, .. } = pattern else {
        unreachable!("only interior nodes are bound")
    };
    let expr = bound[*k];
    *k += 1;
    let (op, groups) = memo.expr(expr);
    let children = BindingChildren::from_fn(inputs.len(), |i| match &inputs[i] {
        Pattern::Any => BindingChild::Group(memo.repr(groups[i])),
        nested => BindingChild::Bound(Box::new(build(memo, nested, bound, k))),
    });
    Binding {
        expr,
        op: op.clone(),
        children,
    }
}

/// Rewrite a binding [`build`] made for `pattern` to the expressions in
/// `bound`, cloning an operator only where its expression changed.
fn refill<M: Model>(
    memo: &Memo<M>,
    pattern: &Pattern<M>,
    bound: &[ExprId],
    k: &mut usize,
    b: &mut Binding<M>,
) {
    let Pattern::Op { inputs, .. } = pattern else {
        unreachable!("only interior nodes are bound")
    };
    let expr = bound[*k];
    *k += 1;
    let (op, groups) = memo.expr(expr);
    if b.expr != expr {
        b.expr = expr;
        b.op = op.clone();
    }
    for (i, (p, c)) in inputs.iter().zip(b.children.iter_mut()).enumerate() {
        match c {
            BindingChild::Group(g) => *g = memo.repr(groups[i]),
            BindingChild::Bound(nested) => refill(memo, p, bound, k, nested),
        }
    }
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
    match_pattern_with(memo, pattern, expr, 0, &mut |b| out.push(b.clone()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ExprTree;
    use crate::toy::{ToyModel, ToyOp};

    type Tree = ExprTree<ToyModel>;

    fn join(l: Tree, r: Tree) -> Tree {
        Tree::new(ToyOp::Join, vec![l, r])
    }

    fn get(name: &str) -> Tree {
        Tree::leaf(ToyOp::Get(name.into()))
    }

    fn join_over(left: Pattern<ToyModel>) -> Pattern<ToyModel> {
        Pattern::op(
            "join",
            |op| matches!(op, ToyOp::Join),
            vec![left, Pattern::Any],
        )
    }

    /// A binding is streamed when any expression in it changed after
    /// `since`, however deep the unchanged ones sit: here only the root
    /// is new, below two unchanged levels of nesting.
    #[test]
    fn a_changed_root_streams_over_unchanged_nested_levels() {
        let model = ToyModel::with_tables(&[("A", 10), ("B", 20), ("C", 30), ("D", 40)]);
        let mut memo = Memo::new();
        let abc = memo.insert_tree(&model, &join(join(get("A"), get("B")), get("C")));
        let since = memo.version();
        let d = memo.insert_tree(&model, &get("D"));
        let root_tree = join(join(join(get("A"), get("B")), get("C")), get("D"));
        let root = memo.insert_tree(&model, &root_tree);
        let root_expr = memo.group_exprs(root).next().unwrap();
        let pattern = join_over(join_over(join_over(Pattern::Any)));
        assert_eq!(pattern.depth(), 3);

        let mut streamed = Vec::new();
        match_pattern_with(&memo, &pattern, root_expr, since, &mut |b| {
            streamed.push(b.clone())
        });
        assert_eq!(streamed.len(), 1);
        let b = &streamed[0];
        assert_eq!((b.expr, b.input_group(1)), (root_expr, d));
        assert_eq!(memo.group_of(b.nested(0).expr), abc);
        assert_eq!(b.leaf_groups().len(), 4);
        // Nothing changed after the root was inserted.
        let mut none = 0;
        match_pattern_with(&memo, &pattern, root_expr, memo.version(), &mut |_| {
            none += 1
        });
        assert_eq!(none, 0);
        assert_eq!(match_pattern(&memo, &pattern, root_expr).len(), 1);
    }

    #[test]
    fn children_past_two_spill_and_clone_alike() {
        let children = BindingChildren::<ToyModel>::from_fn(5, |i| {
            BindingChild::Group(GroupId::from_index(i))
        });
        assert_eq!(children.len(), 5);
        let copy = children.clone();
        assert!(children.iter().zip(copy.iter()).all(
            |(a, b)| matches!((a, b), (BindingChild::Group(g), BindingChild::Group(h)) if g == h)
        ));
        let two = BindingChildren::<ToyModel>::from_fn(2, |i| {
            BindingChild::Group(GroupId::from_index(i))
        });
        assert_eq!(format!("{two:?}"), "[Group(G0), Group(G1)]");
    }
}
