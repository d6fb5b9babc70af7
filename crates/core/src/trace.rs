//! Optimization tracing: events and spans.
//!
//! A [`Tracer`] receives structured events as the search runs; the default
//! [`NullTracer`] compiles to nothing (the engine checks
//! [`Tracer::enabled`] before rendering event payloads, so a disabled
//! tracer costs one virtual call per site and no formatting).
//! [`CollectingTracer`] records events for tests, debugging, and
//! `EXPLAIN`-style tooling. The tracer is an observer, not a tally: the
//! search's work is counted once, in [`crate::SearchStats`], and the
//! event stream is checked against it (each counter equals a count of
//! one event kind).
//!
//! The event stream is *hierarchical*: every [`TraceEvent::GoalBegin`] is
//! eventually matched by a [`TraceEvent::GoalEnd`] for the same group, and
//! events emitted between the two belong to that goal. [`build_span_tree`]
//! reconstructs the goal recursion as a [`SpanTree`].

use std::cell::RefCell;
use std::fmt;
use std::time::Duration;

use crate::ids::{ExprId, GroupId};

/// Which winner-table entry answered a goal without search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoHitKind {
    /// An optimal plan was found in the winner table and admitted by the
    /// cost limit.
    Winner,
    /// The lookup proved failure: either a memoized failure covering the
    /// current limit, or an optimal plan more expensive than the limit.
    Failure,
}

/// One search event. Payloads are pre-rendered strings so the event type
/// stays independent of the model's associated types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A transformation rule fired on an expression.
    RuleFired {
        /// Rule name.
        rule: &'static str,
        /// The matched expression.
        expr: ExprId,
        /// Substitute expressions the firing produced.
        substitutes: u64,
    },
    /// Optimization of a goal began. Opens a span; every event until the
    /// matching [`TraceEvent::GoalEnd`] for the same group belongs to it.
    GoalBegin {
        /// The group being optimized.
        group: GroupId,
        /// Rendered required physical properties.
        required: String,
    },
    /// Optimization of a goal finished. Closes the span opened by the
    /// matching [`TraceEvent::GoalBegin`].
    GoalEnd {
        /// The group that was optimized.
        group: GroupId,
        /// Rendered outcome (winning algorithm + cost, or failure).
        outcome: String,
        /// Wall-clock time spent inside this goal, including its input
        /// goals (inclusive time).
        elapsed: Duration,
        /// Moves actually pursued for this goal (after promise ordering
        /// and any move limit).
        moves: u64,
    },
    /// An algorithm or enforcer move was costed.
    MoveCosted {
        /// The group the move applies to.
        group: GroupId,
        /// Rendered move description.
        description: String,
    },
    /// A move was abandoned by branch-and-bound pruning.
    MovePruned {
        /// The group the move applied to.
        group: GroupId,
        /// Rendered reason (which move, and what crossed the limit).
        reason: String,
    },
    /// A move was skipped because its delivered properties satisfied the
    /// excluding property vector (redundant below an enforcer).
    MoveExcluded {
        /// The group the move applied to.
        group: GroupId,
        /// Rendered reason (which properties were already enforced).
        reason: String,
    },
    /// A goal was answered from the winner table without search.
    MemoHit {
        /// The group that was looked up.
        group: GroupId,
        /// Whether the hit produced a plan or a proven failure.
        kind: MemoHitKind,
    },
    /// The cross-query plan cache was consulted for a query shape. Emitted
    /// by the serving layer (not the search engine), before any
    /// optimization work: a `hit` outcome means `find_best_plan` was
    /// skipped entirely.
    PlanCacheLookup {
        /// The canonical shape key that was probed.
        shape: u64,
        /// `hit`, `miss`, `invalidated` (epoch/drift forced
        /// re-optimization), or `bypass` (cache disabled).
        outcome: &'static str,
    },
    /// One morsel-driven parallel phase finished executing. Emitted by the
    /// execution layer (not the search engine) after a `gather(n)` region
    /// drains, summarizing how work was distributed across its workers.
    MorselPhase {
        /// Worker threads the phase ran on.
        workers: u32,
        /// Morsels dispatched across all of the phase's pipelines.
        morsels: u64,
        /// Morsels a worker stole from another worker's local queue.
        steals: u64,
    },
    /// Observed selectivities from one executed plan were merged into the
    /// catalog's selectivity memory. Emitted by the execution layer after
    /// a feedback-enabled prepared execution completes.
    FeedbackApplied {
        /// Selectivity observations harvested from this execution.
        observations: u64,
        /// Whether the merge moved the memory materially — in which case
        /// the stats epoch was bumped so cached plans re-justify
        /// themselves under the observed statistics.
        epoch_bumped: bool,
    },
}

impl TraceEvent {
    /// The group this event concerns, if any (rule firings are keyed by
    /// expression, not group).
    pub fn group(&self) -> Option<GroupId> {
        match self {
            TraceEvent::RuleFired { .. }
            | TraceEvent::PlanCacheLookup { .. }
            | TraceEvent::MorselPhase { .. }
            | TraceEvent::FeedbackApplied { .. } => None,
            TraceEvent::GoalBegin { group, .. }
            | TraceEvent::GoalEnd { group, .. }
            | TraceEvent::MoveCosted { group, .. }
            | TraceEvent::MovePruned { group, .. }
            | TraceEvent::MoveExcluded { group, .. }
            | TraceEvent::MemoHit { group, .. } => Some(*group),
        }
    }
}

/// Receiver of search events.
pub trait Tracer {
    /// Called once per event, in search order.
    fn event(&self, e: TraceEvent);

    /// Whether this tracer wants events at all. The engine checks this
    /// before rendering event payloads (`format!` of properties, costs,
    /// move descriptions), so disabled tracers — notably [`NullTracer`] —
    /// keep the hot path free of formatting cost.
    fn enabled(&self) -> bool {
        true
    }
}

/// A tracer that discards everything (the default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline]
    fn event(&self, _e: TraceEvent) {}

    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

// Reference-counted tracers forward to their target, so a caller can keep
// a handle for reading results after handing the optimizer a boxed clone.
impl<T: Tracer + ?Sized> Tracer for std::rc::Rc<T> {
    fn event(&self, e: TraceEvent) {
        (**self).event(e);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

impl<T: Tracer + ?Sized> Tracer for std::sync::Arc<T> {
    fn event(&self, e: TraceEvent) {
        (**self).event(e);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

/// A tracer that collects every event in memory.
#[derive(Debug, Default)]
pub struct CollectingTracer {
    events: RefCell<Vec<TraceEvent>>,
}

impl CollectingTracer {
    /// Create an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the collected events, leaving the collector empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.borrow_mut())
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }
}

impl Tracer for CollectingTracer {
    fn event(&self, e: TraceEvent) {
        self.events.borrow_mut().push(e);
    }
}

/// One optimization goal reconstructed from the event stream: the slice of
/// search between a [`TraceEvent::GoalBegin`] and its matching
/// [`TraceEvent::GoalEnd`], with the input goals it recursed into as
/// children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The group this goal optimized.
    pub group: GroupId,
    /// Rendered required physical properties.
    pub required: String,
    /// Rendered outcome, or empty if the trace ended before the goal
    /// closed (e.g. a truncated event stream).
    pub outcome: String,
    /// Inclusive wall-clock time (this goal plus its children).
    pub elapsed: Duration,
    /// Moves pursued by this goal itself.
    pub moves: u64,
    /// Non-goal events that occurred directly inside this goal (moves
    /// costed/pruned/excluded, memo hits of *lookups it made* are
    /// attributed to the child span when one opened).
    pub events: Vec<TraceEvent>,
    /// Input goals this goal optimized, in pursuit order.
    pub children: Vec<Span>,
}

impl Span {
    /// Number of spans in this subtree, including this one.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Span::size).sum::<usize>()
    }

    /// Depth of the subtree rooted here (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(Span::depth).max().unwrap_or(0)
    }

    fn render(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        writeln!(
            f,
            "{:indent$}goal {:?} require {} -> {} ({} moves, {:?})",
            "",
            self.group,
            self.required,
            if self.outcome.is_empty() {
                "<unclosed>"
            } else {
                &self.outcome
            },
            self.moves,
            self.elapsed,
            indent = indent
        )?;
        for child in &self.children {
            child.render(f, indent + 2)?;
        }
        Ok(())
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

/// The goal recursion reconstructed from a flat event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// Top-level goals, in order. A single `find_best_plan` call yields
    /// one root per top-level goal request.
    pub roots: Vec<Span>,
    /// Events that occurred outside any goal — exploration-phase rule
    /// firings, chiefly.
    pub toplevel: Vec<TraceEvent>,
}

impl SpanTree {
    /// Total number of spans across all roots.
    pub fn size(&self) -> usize {
        self.roots.iter().map(Span::size).sum()
    }

    /// Maximum goal-recursion depth across all roots.
    pub fn depth(&self) -> usize {
        self.roots.iter().map(Span::depth).max().unwrap_or(0)
    }
}

/// Reconstruct the goal recursion from a flat event stream, pairing each
/// [`TraceEvent::GoalBegin`] with its matching [`TraceEvent::GoalEnd`].
/// Unclosed goals (truncated streams) are closed implicitly at the end
/// with an empty outcome.
pub fn build_span_tree(events: &[TraceEvent]) -> SpanTree {
    let mut tree = SpanTree::default();
    // Stack of open spans; the deepest open span is last.
    let mut stack: Vec<Span> = Vec::new();

    fn close_into(tree: &mut SpanTree, stack: &mut [Span], span: Span) {
        match stack.last_mut() {
            Some(parent) => parent.children.push(span),
            None => tree.roots.push(span),
        }
    }

    for e in events {
        match e {
            TraceEvent::GoalBegin { group, required } => {
                stack.push(Span {
                    group: *group,
                    required: required.clone(),
                    outcome: String::new(),
                    elapsed: Duration::ZERO,
                    moves: 0,
                    events: Vec::new(),
                    children: Vec::new(),
                });
            }
            TraceEvent::GoalEnd {
                group,
                outcome,
                elapsed,
                moves,
            } => {
                // Close the innermost open span for this group; tolerate
                // malformed streams by popping intermediates unclosed.
                while let Some(mut span) = stack.pop() {
                    let matches = span.group == *group;
                    if matches {
                        span.outcome = outcome.clone();
                        span.elapsed = *elapsed;
                        span.moves = *moves;
                    }
                    close_into(&mut tree, &mut stack, span);
                    if matches {
                        break;
                    }
                }
            }
            other => match stack.last_mut() {
                Some(span) => span.events.push(other.clone()),
                None => tree.toplevel.push(other.clone()),
            },
        }
    }
    while let Some(span) = stack.pop() {
        close_into(&mut tree, &mut stack, span);
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: u32) -> GroupId {
        GroupId::from_index(i as usize)
    }

    #[test]
    fn collecting_tracer_accumulates() {
        let t = CollectingTracer::new();
        assert!(t.is_empty());
        assert!(t.enabled());
        t.event(TraceEvent::RuleFired {
            rule: "join_commute",
            expr: ExprId::from_index(0),
            substitutes: 1,
        });
        t.event(TraceEvent::GoalBegin {
            group: g(1),
            required: "any".into(),
        });
        assert_eq!(t.len(), 2);
        let events = t.take();
        assert_eq!(events.len(), 2);
        assert!(t.is_empty());
        assert!(matches!(
            events[0],
            TraceEvent::RuleFired {
                rule: "join_commute",
                ..
            }
        ));
    }

    #[test]
    fn null_tracer_is_disabled() {
        assert!(!NullTracer.enabled());
    }

    #[test]
    fn span_tree_reconstructs_nesting() {
        let events = vec![
            TraceEvent::RuleFired {
                rule: "r",
                expr: ExprId::from_index(0),
                substitutes: 2,
            },
            TraceEvent::GoalBegin {
                group: g(0),
                required: "sorted".into(),
            },
            TraceEvent::MoveCosted {
                group: g(0),
                description: "join".into(),
            },
            TraceEvent::GoalBegin {
                group: g(1),
                required: "any".into(),
            },
            TraceEvent::GoalEnd {
                group: g(1),
                outcome: "optimal cost 1.0".into(),
                elapsed: Duration::from_micros(5),
                moves: 1,
            },
            TraceEvent::GoalEnd {
                group: g(0),
                outcome: "optimal cost 3.0".into(),
                elapsed: Duration::from_micros(20),
                moves: 2,
            },
        ];
        let tree = build_span_tree(&events);
        assert_eq!(tree.toplevel.len(), 1);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.size(), 2);
        assert_eq!(tree.depth(), 2);
        let root = &tree.roots[0];
        assert_eq!(root.group, g(0));
        assert_eq!(root.moves, 2);
        assert_eq!(root.events.len(), 1);
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].group, g(1));
        assert!(root.to_string().contains("goal"));
    }

    #[test]
    fn span_tree_tolerates_unclosed_goals() {
        let events = vec![
            TraceEvent::GoalBegin {
                group: g(0),
                required: "any".into(),
            },
            TraceEvent::GoalBegin {
                group: g(1),
                required: "any".into(),
            },
        ];
        let tree = build_span_tree(&events);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].children.len(), 1);
        assert!(tree.roots[0].outcome.is_empty());
    }
}
