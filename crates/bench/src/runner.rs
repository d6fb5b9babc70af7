//! Run one generated query through each optimizer and measure what
//! Figure 4 plots.

use std::time::Instant;

use exodus::ExodusOptimizer;
use volcano_core::{SearchOptions, SearchStats};
use volcano_rel::{RelLogical, RelModel, RelModelOptions, RelOptimizer, RelProps};

use crate::workload::GeneratedQuery;

/// Measurements from one Volcano optimization.
#[derive(Debug, Clone)]
pub struct VolcanoMeasurement {
    /// Wall-clock optimization time in seconds.
    pub opt_seconds: f64,
    /// Estimated execution time of the produced plan, in cost-model ms.
    pub est_exec_ms: f64,
    /// Full search statistics for the run (exported to BENCH_*.json);
    /// `memo_bytes` is the memo memory estimate ("less than 1 MB of work
    /// space").
    pub stats: SearchStats,
}

/// Measurements from one EXODUS optimization (`None` cost = aborted).
#[derive(Debug, Clone)]
pub struct ExodusMeasurement {
    /// Wall-clock optimization time in seconds (including aborted runs).
    pub opt_seconds: f64,
    /// Estimated execution time, or `None` when the optimizer aborted.
    pub est_exec_ms: Option<f64>,
    /// MESH memory estimate in bytes.
    pub mesh_bytes: usize,
}

/// Optimize `query` with the Volcano optimizer generator under the model
/// configuration `model`. `goal` maps the root class's logical properties
/// to the required physical properties; Figure 4 asks for any order under
/// [`RelModelOptions::paper_fig4`].
pub fn run_volcano(
    query: &GeneratedQuery,
    model: RelModelOptions,
    options: SearchOptions,
    goal: fn(&RelLogical) -> RelProps,
) -> VolcanoMeasurement {
    let model = RelModel::new(query.catalog.clone(), model);
    let start = Instant::now();
    let mut opt = RelOptimizer::new(&model, options);
    let root = opt.insert_tree(&query.expr);
    let goal = goal(opt.memo().logical_props(root));
    let plan = opt
        .find_best_plan(root, goal, None)
        .expect("the benchmark queries are always satisfiable");
    VolcanoMeasurement {
        opt_seconds: start.elapsed().as_secs_f64(),
        est_exec_ms: plan.cost.total(),
        stats: opt.stats().clone(),
    }
}

/// Geometric mean, the average Figure 4 uses for estimated plan costs.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Optimize with the EXODUS baseline under a MESH memory budget.
pub fn run_exodus(query: &GeneratedQuery, memory_budget: usize) -> ExodusMeasurement {
    let model = RelModel::new(query.catalog.clone(), RelModelOptions::paper_fig4());
    let optimizer = ExodusOptimizer::new(&model).with_memory_budget(memory_budget);
    let start = Instant::now();
    match optimizer.optimize(&query.expr, &[]) {
        Ok(out) => ExodusMeasurement {
            opt_seconds: start.elapsed().as_secs_f64(),
            est_exec_ms: Some(out.cost.total()),
            mesh_bytes: out.stats.mesh_bytes,
        },
        Err(abort) => ExodusMeasurement {
            opt_seconds: start.elapsed().as_secs_f64(),
            est_exec_ms: None,
            mesh_bytes: abort.stats.mesh_bytes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_query, WorkloadConfig};
    use volcano_core::PhysicalProps;

    fn fig4(q: &GeneratedQuery) -> VolcanoMeasurement {
        let model = RelModelOptions::paper_fig4();
        run_volcano(q, model, SearchOptions::default(), |_| RelProps::any())
    }

    #[test]
    fn both_runners_complete_small_queries() {
        let q = generate_query(&WorkloadConfig::relations(3), 1);
        let v = fig4(&q);
        let e = run_exodus(&q, 64 << 20);
        assert!(v.est_exec_ms > 0.0);
        let e_cost = e.est_exec_ms.expect("3 relations must fit in 64 MiB");
        // Volcano's exhaustive, property-driven search can never lose.
        assert!(v.est_exec_ms <= e_cost + 1e-6);
    }

    #[test]
    fn volcano_plan_quality_never_worse_across_seeds() {
        for seed in 0..10 {
            for n in 2..=5 {
                let q = generate_query(&WorkloadConfig::relations(n), seed);
                let v = fig4(&q);
                let e = run_exodus(&q, 256 << 20);
                if let Some(ec) = e.est_exec_ms {
                    assert!(
                        v.est_exec_ms <= ec + 1e-6,
                        "seed {seed} n {n}: volcano {} worse than exodus {}",
                        v.est_exec_ms,
                        ec
                    );
                }
            }
        }
    }
}
