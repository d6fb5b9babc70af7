//! Optimization tracing: events, spans, and aggregated metrics.
//!
//! A [`Tracer`] receives structured events as the search runs; the default
//! [`NullTracer`] compiles to nothing (the engine checks
//! [`Tracer::enabled`] before rendering event payloads, so a disabled
//! tracer costs one virtual call per site and no formatting).
//! [`CollectingTracer`] records events for tests, debugging, and
//! `EXPLAIN`-style tooling; [`MetricsTracer`] aggregates per-group counters
//! and a goal-latency histogram instead of storing every event.
//!
//! The event stream is *hierarchical*: every [`TraceEvent::GoalBegin`] is
//! eventually matched by a [`TraceEvent::GoalEnd`] for the same group, and
//! events emitted between the two belong to that goal. [`build_span_tree`]
//! reconstructs the goal recursion as a [`SpanTree`].

use std::cell::RefCell;
use std::collections::BTreeMap;
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

/// Fixed-bucket log₂ histogram of goal latencies. Bucket `i` counts
/// durations in `[2^i, 2^(i+1))` microseconds, with bucket 0 additionally
/// holding sub-microsecond goals and the last bucket holding everything
/// longer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurationHistogram {
    buckets: [u64; Self::BUCKETS],
    total: Duration,
    count: u64,
}

impl DurationHistogram {
    /// Number of buckets (covers 1 µs .. ~2 s in powers of two).
    pub const BUCKETS: usize = 22;

    /// Record one duration.
    pub fn record(&mut self, d: Duration) {
        let us = d.as_micros() as u64;
        let idx = if us == 0 {
            0
        } else {
            ((63 - us.leading_zeros()) as usize).min(Self::BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.total += d;
        self.count += 1;
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; Self::BUCKETS] {
        &self.buckets
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Mean recorded duration (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }
}

/// Counters aggregated per group (and in total) by [`MetricsTracer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GoalMetrics {
    /// Goals actually optimized (searches entered).
    pub goals: u64,
    /// Goals answered from the winner table.
    pub memo_hits: u64,
    /// Rule firings attributed to this group's expressions (totals only;
    /// the per-group map does not track firings, which are keyed by
    /// expression).
    pub rules_fired: u64,
    /// Substitute expressions produced by those firings.
    pub substitutes: u64,
    /// Moves costed (algorithms + enforcers).
    pub moves_costed: u64,
    /// Moves abandoned by branch-and-bound pruning.
    pub moves_pruned: u64,
    /// Moves skipped via the excluding property vector.
    pub moves_excluded: u64,
    /// Inclusive wall-clock time across this group's goals.
    pub elapsed: Duration,
}

/// Aggregated view of a finished [`MetricsTracer`] run.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Per-group counters, keyed by group.
    pub per_group: BTreeMap<GroupId, GoalMetrics>,
    /// Counters summed over all groups (plus expression-keyed rule
    /// firings, which have no group attribution).
    pub totals: GoalMetrics,
    /// Histogram of per-goal inclusive latencies.
    pub goal_latency: DurationHistogram,
    /// Deepest goal nesting observed.
    pub max_depth: usize,
}

impl MetricsSnapshot {
    /// Render a compact human-readable report.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let t = &self.totals;
        let _ = writeln!(
            out,
            "goals: {} optimized, {} memo hits, max depth {}",
            t.goals, t.memo_hits, self.max_depth
        );
        let _ = writeln!(
            out,
            "rules: {} fired, {} substitutes",
            t.rules_fired, t.substitutes
        );
        let _ = writeln!(
            out,
            "moves: {} costed, {} pruned, {} excluded",
            t.moves_costed, t.moves_pruned, t.moves_excluded
        );
        let _ = writeln!(
            out,
            "goal latency: {} samples, mean {:?}, total {:?}",
            self.goal_latency.count(),
            self.goal_latency.mean(),
            self.goal_latency.total()
        );
        let mut groups: Vec<_> = self.per_group.iter().collect();
        groups.sort_by(|a, b| b.1.elapsed.cmp(&a.1.elapsed).then(a.0.cmp(b.0)));
        for (g, m) in groups.into_iter().take(10) {
            let _ = writeln!(
                out,
                "  {:?}: {} goals, {} hits, {} moves ({} pruned, {} excluded), {:?}",
                g,
                m.goals,
                m.memo_hits,
                m.moves_costed,
                m.moves_pruned,
                m.moves_excluded,
                m.elapsed
            );
        }
        out
    }
}

#[derive(Debug, Default)]
struct MetricsInner {
    per_group: BTreeMap<GroupId, GoalMetrics>,
    totals: GoalMetrics,
    goal_latency: DurationHistogram,
    depth: usize,
    max_depth: usize,
}

/// A tracer that aggregates counters instead of storing events: per-group
/// goal/move/prune counts, total rule firings, a histogram of per-goal
/// latencies, and the deepest goal nesting. Suitable for long searches
/// where a [`CollectingTracer`] would retain millions of events.
#[derive(Debug, Default)]
pub struct MetricsTracer {
    inner: RefCell<MetricsInner>,
}

impl MetricsTracer {
    /// Create an empty metrics aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the aggregated metrics so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        MetricsSnapshot {
            per_group: inner.per_group.clone(),
            totals: inner.totals.clone(),
            goal_latency: inner.goal_latency.clone(),
            max_depth: inner.max_depth,
        }
    }
}

impl Tracer for MetricsTracer {
    fn event(&self, e: TraceEvent) {
        let mut inner = self.inner.borrow_mut();
        match &e {
            TraceEvent::RuleFired { substitutes, .. } => {
                inner.totals.rules_fired += 1;
                inner.totals.substitutes += substitutes;
            }
            TraceEvent::GoalBegin { .. } => {
                inner.depth += 1;
                inner.max_depth = inner.max_depth.max(inner.depth);
            }
            TraceEvent::GoalEnd { group, elapsed, .. } => {
                inner.depth = inner.depth.saturating_sub(1);
                inner.totals.goals += 1;
                inner.totals.elapsed += *elapsed;
                inner.goal_latency.record(*elapsed);
                let m = inner.per_group.entry(*group).or_default();
                m.goals += 1;
                m.elapsed += *elapsed;
            }
            TraceEvent::MoveCosted { group, .. } => {
                inner.totals.moves_costed += 1;
                inner.per_group.entry(*group).or_default().moves_costed += 1;
            }
            TraceEvent::MovePruned { group, .. } => {
                inner.totals.moves_pruned += 1;
                inner.per_group.entry(*group).or_default().moves_pruned += 1;
            }
            TraceEvent::MoveExcluded { group, .. } => {
                inner.totals.moves_excluded += 1;
                inner.per_group.entry(*group).or_default().moves_excluded += 1;
            }
            TraceEvent::MemoHit { group, .. } => {
                inner.totals.memo_hits += 1;
                inner.per_group.entry(*group).or_default().memo_hits += 1;
            }
            // Cache lookups precede any search, and morsel phases and
            // feedback merges are execution-time signals.
            TraceEvent::PlanCacheLookup { .. }
            | TraceEvent::MorselPhase { .. }
            | TraceEvent::FeedbackApplied { .. } => {}
        }
    }
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

    #[test]
    fn duration_histogram_buckets() {
        let mut h = DurationHistogram::default();
        h.record(Duration::from_nanos(100)); // bucket 0
        h.record(Duration::from_micros(1)); // bucket 0 (2^0)
        h.record(Duration::from_micros(9)); // bucket 3 (8..16)
        h.record(Duration::from_secs(60)); // clamped to last bucket
        assert_eq!(h.count(), 4);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[DurationHistogram::BUCKETS - 1], 1);
        assert!(h.mean() > Duration::ZERO);
    }

    #[test]
    fn metrics_tracer_aggregates() {
        let t = MetricsTracer::new();
        t.event(TraceEvent::RuleFired {
            rule: "r",
            expr: ExprId::from_index(0),
            substitutes: 3,
        });
        t.event(TraceEvent::GoalBegin {
            group: g(0),
            required: "any".into(),
        });
        t.event(TraceEvent::GoalBegin {
            group: g(1),
            required: "any".into(),
        });
        t.event(TraceEvent::MoveCosted {
            group: g(1),
            description: "scan".into(),
        });
        t.event(TraceEvent::MovePruned {
            group: g(1),
            reason: "over limit".into(),
        });
        t.event(TraceEvent::GoalEnd {
            group: g(1),
            outcome: "optimal".into(),
            elapsed: Duration::from_micros(4),
            moves: 2,
        });
        t.event(TraceEvent::MemoHit {
            group: g(1),
            kind: MemoHitKind::Winner,
        });
        t.event(TraceEvent::GoalEnd {
            group: g(0),
            outcome: "optimal".into(),
            elapsed: Duration::from_micros(10),
            moves: 1,
        });
        let snap = t.snapshot();
        assert_eq!(snap.totals.goals, 2);
        assert_eq!(snap.totals.rules_fired, 1);
        assert_eq!(snap.totals.substitutes, 3);
        assert_eq!(snap.totals.moves_costed, 1);
        assert_eq!(snap.totals.moves_pruned, 1);
        assert_eq!(snap.totals.memo_hits, 1);
        assert_eq!(snap.max_depth, 2);
        assert_eq!(snap.goal_latency.count(), 2);
        let g1 = &snap.per_group[&g(1)];
        assert_eq!(g1.goals, 1);
        assert_eq!(g1.moves_costed, 1);
        assert_eq!(g1.memo_hits, 1);
        let report = snap.report();
        assert!(report.contains("goals: 2 optimized"));
        assert!(report.contains("moves: 1 costed, 1 pruned"));
    }
}
