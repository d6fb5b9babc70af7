//! What a run prints: a table for people, the full run record as one
//! JSON line, and the one-line result the benchmark contract asks for.

use std::fmt::Write as _;
use std::process::Command;

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::run::{nproc, RunArgs, RunResult};
use crate::sut;

/// The prefix of the stdout line that carries the full run record.
pub const RECORD_PREFIX: &str = "record ";

fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, `-dirty` when the tree has local changes,
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let Some(head) = stdout_of("git", &["rev-parse", "HEAD"]) else {
        return "unknown".into();
    };
    match stdout_of("git", &["status", "--porcelain"]) {
        Some(changes) if !changes.is_empty() => format!("{head}-dirty"),
        _ => head,
    }
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The metrics a run of this kind must print, in declaration order.
pub fn declared(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over the declared metrics;
/// `with_n` adds each sample count.
fn metrics_json(result: &RunResult, trace: bool, with_n: bool) -> String {
    let fields: Vec<String> = declared(trace)
        .iter()
        .map(|d| {
            let m = result.metrics.get(d.name);
            let n = if with_n {
                format!(",\"n\":{}", m.n)
            } else {
                String::new()
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{n}}}",
                json_string(d.name),
                m.value,
                json_string(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The table `workload metric unit value n`.
pub fn table(args: &RunArgs, result: &RunResult) -> String {
    let mut out = String::new();
    for d in declared(args.trace) {
        let m = result.metrics.get(d.name);
        writeln!(
            out,
            "{:<15} {:<34} {:<8} {:>18.6} {:>8}",
            args.workload, d.name, d.unit, m.value, m.n
        )
        .unwrap();
    }
    out
}

/// Everything needed to read the numbers later: inputs, sizes, engine,
/// machine, toolchain, commit.
pub fn record(args: &RunArgs, result: &RunResult) -> String {
    let mut fields = vec![
        ("benchmark".to_string(), json_string("e2e")),
        ("workload".into(), json_string(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("smoke".into(), args.scale.smoke.to_string()),
        (
            "cpu_bound".into(),
            json_string("in-memory disk, zero injected latency"),
        ),
        ("engine".into(), json_string(sut::ENGINE)),
        ("degree".into(), sut::DEGREE.to_string()),
        ("batch_size".into(), sut::batch_size().to_string()),
        ("nproc".into(), nproc().to_string()),
        ("cpu".into(), json_string(&cpu_model())),
        ("rustc".into(), json_string(env!("E2E_RUSTC_VERSION"))),
        ("commit".into(), json_string(&git_commit())),
        ("profile".into(), json_string(build_profile())),
    ];
    for (key, value) in &result.facts {
        fields.push((key.to_string(), json_string(value)));
    }
    fields.push(("correct".into(), (result.failed == 0).to_string()));
    fields.push(("attempted".into(), result.attempted.to_string()));
    fields.push(("failed".into(), result.failed.to_string()));
    fields.push(("metrics".into(), metrics_json(result, args.trace, true)));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The last line of stdout: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(args: &RunArgs, result: &RunResult) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        result.failed == 0,
        result.attempted.max(1),
        result.failed,
        metrics_json(result, args.trace, false)
    )
}
