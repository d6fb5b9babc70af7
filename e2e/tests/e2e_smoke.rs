//! The benchmark's own guarantees: its statistics, the determinism of
//! its inputs, its agreement with `BENCHMARK.json`, and a smoke run of
//! every workload through the real binary.

use std::path::Path;
use std::process::Command;

use volcano_e2e::metrics::{END_TO_END, PER_LAYER};
use volcano_e2e::report::{declared, RECORD_PREFIX};
use volcano_e2e::run::CORRUPT_ORACLE_ENV;
use volcano_e2e::stats::{percentile, tail_quantile, MIN_SAMPLES_BEYOND};
use volcano_e2e::sut::{parse_json, Json, OptCase};
use volcano_e2e::workloads::{
    analytic_tables, cycle, serve_sequence, serve_tables, star_statements, star_tables, Scale,
    WORKLOADS,
};

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(tail_quantile(200, 0.95), 0.95);
    assert_eq!(tail_quantile(1000, 0.95), 0.95);
    // 199 samples leave fewer than ten beyond the 95th percentile.
    assert!(tail_quantile(199, 0.95) < 0.95);
    assert_eq!(tail_quantile(100, 0.95), 0.90);
    // Never below the median, however few the samples.
    assert_eq!(tail_quantile(12, 0.95), 0.5);

    for n in [40usize, 100, 199, 200, 5000] {
        let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let tail = percentile(&samples, tail_quantile(n, 0.95));
        let beyond = samples.iter().filter(|&&x| x > tail).count();
        assert!(
            beyond >= MIN_SAMPLES_BEYOND,
            "{n} samples: only {beyond} beyond the reported tail"
        );
        assert_eq!(percentile(&samples, 0.5), (n as f64 / 2.0).ceil());
    }
    let samples: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.95), 190.0);
}

fn all_rows(tables: &[volcano_e2e::sut::Table]) -> Vec<&Vec<i64>> {
    tables.iter().flat_map(|t| &t.rows).collect()
}

#[test]
fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
    let scale = Scale::smoke();
    for generate in [star_tables, analytic_tables, serve_tables] {
        assert_eq!(
            all_rows(&generate(7, &scale)),
            all_rows(&generate(7, &scale))
        );
        assert_ne!(
            all_rows(&generate(7, &scale)),
            all_rows(&generate(8, &scale))
        );
    }

    let statements = star_statements([1, 2, 1, 1, 1, 1]);
    let ops = cycle(&statements, 7);
    assert_eq!(ops, cycle(&statements, 7));
    assert_ne!(ops, cycle(&statements, 8));
    // Every (statement, constant) appears `weight` times in a cycle.
    assert_eq!(ops.len(), 3 * 7);
    assert_eq!(ops.iter().filter(|&&(s, c)| s == 1 && c == 2).count(), 2);

    let round = serve_sequence(7, 0, 100);
    assert_eq!(round, serve_sequence(7, 0, 100));
    assert_ne!(round, serve_sequence(8, 0, 100));
    assert_ne!(round, serve_sequence(7, 1, 100));

    let costs = |seed| -> Vec<u64> {
        OptCase::generate(seed, 3..=4, 2)
            .iter()
            .map(|c| c.optimize().expect("optimizes").cost().to_bits())
            .collect()
    };
    assert_eq!(costs(7), costs(7));
    assert_ne!(costs(7), costs(8));
}

#[test]
fn serving_mix_holds_its_shares_exactly() {
    use volcano_e2e::workloads::ServeOp;
    let round = serve_sequence(3, 1, 400);
    let count = |f: fn(&ServeOp) -> bool| round.iter().filter(|op| f(op)).count();
    assert_eq!(count(|op| matches!(op, ServeOp::Warm { .. })), 280);
    assert_eq!(count(|op| matches!(op, ServeOp::Scan)), 72);
    assert_eq!(count(|op| matches!(op, ServeOp::Cold { .. })), 32);
    assert_eq!(count(|op| matches!(op, ServeOp::Count)), 8);
    assert_eq!(count(|op| matches!(op, ServeOp::Insert)), 8);
}

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    json.get(key)
        .unwrap_or_else(|| panic!("no {key:?} in {json:?}"))
}

#[test]
fn benchmark_json_declares_what_the_code_measures() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let bench = parse_json(&text).expect("BENCHMARK.json parses");

    let names: Vec<&str> = field(&bench, "workloads")
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| field(w, "name").as_str().unwrap())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, ours);

    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = field(&bench, key).as_arr().unwrap();
        assert_eq!(declared.len(), defs.len(), "{key}");
        for (json, def) in declared.iter().zip(defs) {
            assert_eq!(field(json, "name").as_str(), Some(def.name));
            assert_eq!(field(json, "unit").as_str(), Some(def.unit), "{}", def.name);
            let better = if def.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(field(json, "better").as_str(), Some(better), "{}", def.name);
            if key == "end_to_end" {
                assert_eq!(
                    field(json, "bound").as_num(),
                    Some(def.bound),
                    "{}",
                    def.name
                );
            }
        }
    }
}

fn e2e() -> Command {
    Command::new(env!("CARGO_BIN_EXE_e2e"))
}

#[test]
fn smoke_run_prints_every_declared_metric_for_every_workload() {
    let out = e2e().args(["--all", "--smoke"]).output().expect("e2e runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "e2e --all --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let records: Vec<Json> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix(RECORD_PREFIX))
        .map(|r| parse_json(r).expect("a run record is JSON"))
        .collect();
    assert_eq!(records.len(), 2 * WORKLOADS.len());
    for (i, record) in records.iter().enumerate() {
        let (workload, _) = WORKLOADS[i / 2];
        let traced = i % 2 == 1;
        assert_eq!(field(record, "workload").as_str(), Some(workload));
        assert_eq!(field(record, "trace"), &Json::Bool(traced));
        assert_eq!(field(record, "smoke"), &Json::Bool(true));
        assert_eq!(field(record, "failed").as_num(), Some(0.0), "{workload}");
        for def in declared(traced) {
            let metric = field(field(record, "metrics"), def.name);
            assert_eq!(field(metric, "unit").as_str(), Some(def.unit));
            assert!(
                field(metric, "value").as_num().is_some(),
                "{workload} {}",
                def.name
            );
        }
        for key in [
            "seed",
            "nproc",
            "cpu",
            "rustc",
            "commit",
            "profile",
            "engine",
            "batch_size",
        ] {
            field(record, key);
        }
    }
}

#[test]
fn a_wrong_expected_answer_fails_the_run() {
    for workload in ["star_warm", "serve_mixed"] {
        let out = e2e()
            .args(["--workload", workload, "--smoke"])
            .env(CORRUPT_ORACLE_ENV, "1")
            .output()
            .expect("e2e runs");
        assert_eq!(out.status.code(), Some(1), "{workload}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let result = parse_json(stdout.lines().last().expect("a result line")).unwrap();
        assert_eq!(field(&result, "correct"), &Json::Bool(false));
        assert!(field(&result, "failed").as_num().unwrap() >= 1.0);
    }
}

#[test]
fn an_unoptimised_build_refuses_a_full_run() {
    if cfg!(debug_assertions) {
        let out = e2e()
            .args(["--workload", "star_warm", "--seconds", "1"])
            .output()
            .expect("e2e runs");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
