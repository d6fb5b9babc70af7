//! Search statistics.
//!
//! The paper's evaluation (§4.2) reports optimization time, estimated plan
//! cost, and memory consumption; the engine counts everything needed to
//! regenerate those series and to explain *why* a search was cheap or
//! expensive.

use std::fmt;
use std::time::Duration;

/// Counters accumulated over one optimizer's `find_best_plan` and
/// `explore` calls (they keep accumulating if the same
/// optimizer instance is reused, mirroring the paper's note that partial
/// results currently live for a single query). The memo snapshots
/// (`groups_created`, `exprs_created`, `group_merges`, `dead_exprs`,
/// `memo_bytes`) and `elapsed` are refreshed whenever one of
/// those calls returns.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Equivalence classes created.
    pub groups_created: usize,
    /// Logical expressions created (live + later retired).
    pub exprs_created: usize,
    /// Group merges performed by duplicate detection.
    pub group_merges: u64,
    /// Expressions retired as duplicates by merge cascades.
    pub dead_exprs: u64,
    /// Transformation (expression, rule) exploration tasks whose root
    /// operator satisfied the rule's root matcher. Counting root-matcher
    /// hits (rather than raw task attempts) makes the counter invariant
    /// under the operator-indexed rule dispatch, which only skips tasks
    /// whose root matcher was guaranteed to reject the operator.
    pub transform_matches: u64,
    /// Transformation-rule firings: bindings whose condition code
    /// accepted them, each followed by `apply`. A rule that rejects a
    /// binding in its condition is not counted, so for rules whose
    /// condition rejects everything `apply` would drop (the relational
    /// join rules' Cartesian products) every firing produces a substitute.
    pub transform_fired: u64,
    /// Substitute expressions produced by transformations.
    pub substitutes_produced: u64,
    /// Passes of the exploration fixpoint: each call's bottom-up walk
    /// over the classes counts as one, and so does each sweep after it
    /// (sweeps run while the previous pass changed the memo).
    pub explore_passes: u64,
    /// Optimization goals entered (excluding memo hits).
    pub goals_optimized: u64,
    /// Goal lookups answered from the winner table (plans).
    pub winner_hits: u64,
    /// Goal lookups answered from the winner table (memoized failures).
    pub failure_hits: u64,
    /// Algorithm moves costed.
    pub alg_moves: u64,
    /// Enforcer moves costed.
    pub enforcer_moves: u64,
    /// Moves abandoned because the cost they must reach crossed the limit
    /// (branch-and-bound prunes): the cost accumulated so far plus the
    /// [`crate::Model::cost_floor`]s of the inputs not yet optimized, or an
    /// enforcer's local cost plus its class's floor. With zero floors this
    /// is the accumulated cost alone.
    pub moves_pruned: u64,
    /// Goals failed before their moves were generated because the limit
    /// was below the class's [`crate::Model::cost_floor`] (pruning on). A
    /// floored goal is neither in `goals_optimized` nor in the winner table.
    pub goals_floored: u64,
    /// Moves skipped because their delivered properties satisfied the
    /// excluding property vector (redundant below an enforcer).
    pub moves_excluded: u64,
    /// Winner entries recorded (optimal plans).
    pub winners_recorded: u64,
    /// Failure entries recorded.
    pub failures_recorded: u64,
    /// Wall-clock time spent inside `find_best_plan` and `explore`.
    pub elapsed: Duration,
    /// Memo memory footprint estimate after the search, in bytes.
    pub memo_bytes: usize,
}

impl SearchStats {
    /// Total moves considered (algorithms + enforcers).
    pub fn total_moves(&self) -> u64 {
        self.alg_moves + self.enforcer_moves
    }

    /// Accumulate another run's counters into this one. Used by the
    /// benchmark harness to aggregate per-complexity-level totals;
    /// `elapsed` and `memo_bytes` become sums over the merged runs.
    pub fn merge(&mut self, other: &SearchStats) {
        self.groups_created += other.groups_created;
        self.exprs_created += other.exprs_created;
        self.group_merges += other.group_merges;
        self.dead_exprs += other.dead_exprs;
        self.transform_matches += other.transform_matches;
        self.transform_fired += other.transform_fired;
        self.substitutes_produced += other.substitutes_produced;
        self.explore_passes += other.explore_passes;
        self.goals_optimized += other.goals_optimized;
        self.winner_hits += other.winner_hits;
        self.failure_hits += other.failure_hits;
        self.alg_moves += other.alg_moves;
        self.enforcer_moves += other.enforcer_moves;
        self.moves_pruned += other.moves_pruned;
        self.goals_floored += other.goals_floored;
        self.moves_excluded += other.moves_excluded;
        self.winners_recorded += other.winners_recorded;
        self.failures_recorded += other.failures_recorded;
        self.elapsed += other.elapsed;
        self.memo_bytes += other.memo_bytes;
    }

    /// Counter-for-counter equality, ignoring wall-clock time (`elapsed`
    /// is the only nondeterministic field). Used by the differential
    /// (explicit vs implicit exploration) and determinism tests.
    pub fn counters_eq(&self, other: &SearchStats) -> bool {
        self.groups_created == other.groups_created
            && self.exprs_created == other.exprs_created
            && self.group_merges == other.group_merges
            && self.dead_exprs == other.dead_exprs
            && self.transform_matches == other.transform_matches
            && self.transform_fired == other.transform_fired
            && self.substitutes_produced == other.substitutes_produced
            && self.explore_passes == other.explore_passes
            && self.goals_optimized == other.goals_optimized
            && self.winner_hits == other.winner_hits
            && self.failure_hits == other.failure_hits
            && self.alg_moves == other.alg_moves
            && self.enforcer_moves == other.enforcer_moves
            && self.moves_pruned == other.moves_pruned
            && self.goals_floored == other.goals_floored
            && self.moves_excluded == other.moves_excluded
            && self.winners_recorded == other.winners_recorded
            && self.failures_recorded == other.failures_recorded
            && self.memo_bytes == other.memo_bytes
    }

    /// Render the counters as a JSON object (hand-rolled: every field is
    /// numeric, so no escaping is needed). Consumed by `EXPLAIN ANALYZE`'s
    /// JSON export and the benchmark harness.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"groups_created\":{},\"exprs_created\":{},",
                "\"group_merges\":{},\"dead_exprs\":{},",
                "\"transform_matches\":{},\"transform_fired\":{},",
                "\"substitutes_produced\":{},\"explore_passes\":{},",
                "\"goals_optimized\":{},\"winner_hits\":{},",
                "\"failure_hits\":{},\"alg_moves\":{},",
                "\"enforcer_moves\":{},\"moves_pruned\":{},",
                "\"goals_floored\":{},",
                "\"moves_excluded\":{},\"winners_recorded\":{},",
                "\"failures_recorded\":{},\"elapsed_us\":{},",
                "\"memo_bytes\":{}}}"
            ),
            self.groups_created,
            self.exprs_created,
            self.group_merges,
            self.dead_exprs,
            self.transform_matches,
            self.transform_fired,
            self.substitutes_produced,
            self.explore_passes,
            self.goals_optimized,
            self.winner_hits,
            self.failure_hits,
            self.alg_moves,
            self.enforcer_moves,
            self.moves_pruned,
            self.goals_floored,
            self.moves_excluded,
            self.winners_recorded,
            self.failures_recorded,
            self.elapsed.as_micros(),
            self.memo_bytes
        )
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "memo: {} groups, {} exprs ({} retired), {} merges, ~{} bytes",
            self.groups_created,
            self.exprs_created,
            self.dead_exprs,
            self.group_merges,
            self.memo_bytes
        )?;
        writeln!(
            f,
            "explore: {} passes, {} matches, {} fired, {} substitutes",
            self.explore_passes,
            self.transform_matches,
            self.transform_fired,
            self.substitutes_produced
        )?;
        writeln!(
            f,
            "search: {} goals ({} floored), {} winner hits, {} failure hits",
            self.goals_optimized, self.goals_floored, self.winner_hits, self.failure_hits
        )?;
        writeln!(
            f,
            "moves: {} algorithm, {} enforcer, {} pruned, {} excluded",
            self.alg_moves, self.enforcer_moves, self.moves_pruned, self.moves_excluded
        )?;
        write!(
            f,
            "results: {} winners, {} failures, elapsed {:?}",
            self.winners_recorded, self.failures_recorded, self.elapsed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_display_mentions_key_counters() {
        let s = SearchStats {
            alg_moves: 3,
            enforcer_moves: 2,
            ..SearchStats::default()
        };
        assert_eq!(s.total_moves(), 5);
        let text = s.to_string();
        assert!(text.contains("3 algorithm"));
        assert!(text.contains("2 enforcer"));
    }

    #[test]
    fn stats_to_json_is_well_formed() {
        let s = SearchStats {
            alg_moves: 3,
            memo_bytes: 1024,
            elapsed: Duration::from_micros(250),
            ..SearchStats::default()
        };
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"alg_moves\":3"));
        assert!(json.contains("\"memo_bytes\":1024"));
        assert!(json.contains("\"elapsed_us\":250"));
        // Balanced quotes and no trailing commas.
        assert_eq!(json.matches('"').count() % 2, 0);
        assert!(!json.contains(",}"));
    }
}
