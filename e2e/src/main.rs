//! `e2e`: the benchmark driver. See `README.md` beside this package.
//!
//!   e2e --workload NAME --seed N [--seconds S] [--trace [0|1]] [--smoke]
//!       [--json PATH] [--spans PATH]
//!   e2e --all [--check-repeat] [the same options]
//!
//! One workload runs in this process. `--all`, or several `--workload`s,
//! runs each in a process of its own, untraced then traced unless
//! `--trace` picks one. `--check-repeat` runs the chosen workloads twice
//! with one seed, the second time in reverse order, and fails unless
//! exact counts repeat and end-to-end metrics agree within their bounds.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use volcano_e2e::metrics::Exact;
use volcano_e2e::report::{self, RECORD_PREFIX};
use volcano_e2e::run::{self, RunArgs};
use volcano_e2e::sut::{parse_json, Json};
use volcano_e2e::workloads::{Scale, WORKLOADS};

struct Cli {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    check_repeat: bool,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        check_repeat: false,
        json: None,
        spans: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workloads.push(value("a name")?),
            "--all" => cli.workloads = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect(),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                cli.seconds = Some(s);
            }
            // `--trace 0`, `--trace 1`, or bare `--trace` meaning 1.
            "--trace" => {
                cli.trace = Some(match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                })
            }
            "--smoke" => cli.smoke = true,
            "--check-repeat" => cli.check_repeat = true,
            "--json" => cli.json = Some(value("a path")?.into()),
            "--spans" => cli.spans = Some(value("a path")?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.workloads.is_empty() {
        return Err("name a workload with --workload, or pass --all".into());
    }
    for w in &cli.workloads {
        if !WORKLOADS.iter().any(|(n, _)| n == w) {
            let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload {w:?}; the workloads are {known:?}"
            ));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if !cli.smoke && report::build_profile() != "release" {
        eprintln!("e2e: built without optimisations; pass --smoke or build with --release");
        return ExitCode::from(2);
    }
    let outcome = if cli.workloads.len() == 1 && !cli.check_repeat {
        run_here(&cli)
    } else {
        run_children(&cli)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn write_json(path: &PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process. `Ok(false)` when an operation failed.
fn run_here(cli: &Cli) -> Result<bool, String> {
    let scale = if cli.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let args = RunArgs {
        workload: cli.workloads[0].clone(),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.smoke { 0.05 } else { 10.0 }),
        trace: cli.trace.unwrap_or(false),
        scale,
        spans: cli.spans.clone(),
    };
    let result = run::run(&args)?;
    let record = report::record(&args, &result);
    print!("{}", report::table(&args, &result));
    println!("{RECORD_PREFIX}{record}");
    if let Some(path) = &cli.json {
        write_json(path, &record)?;
    }
    println!("{}", report::result_line(&args, &result));
    Ok(result.failed == 0)
}

/// Run one workload in a child process, echo its output, and return
/// its run record.
fn run_child(cli: &Cli, workload: &str, trace: bool) -> Result<(bool, Record), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cli.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let text = stdout
        .lines()
        .find_map(|l| l.strip_prefix(RECORD_PREFIX))
        .ok_or(format!("{workload} printed no run record"))?
        .to_string();
    let json = parse_json(&text).map_err(|e| format!("{workload}: bad run record: {e}"))?;
    Ok((out.status.success(), Record { text, json }))
}

/// A child's run record, as printed and as parsed.
struct Record {
    text: String,
    json: Json,
}

impl Record {
    fn metric(&self, name: &str) -> Option<f64> {
        self.json.get("metrics")?.get(name)?.get("value")?.as_num()
    }

    fn field(&self, key: &str) -> Option<&Json> {
        self.json.get(key)
    }
}

/// Several workloads, each in its own process; with `--check-repeat`,
/// twice, and compared.
fn run_children(cli: &Cli) -> Result<bool, String> {
    let traces: Vec<bool> = cli.trace.map_or(vec![false, true], |t| vec![t]);
    let mut ok = true;
    let mut records: Vec<Record> = Vec::new();
    let mut pass = |order: Vec<&String>, records: &mut Vec<Record>| -> Result<(), String> {
        for workload in order {
            for &trace in &traces {
                let (success, record) = run_child(cli, workload, trace)?;
                ok &= success;
                records.push(record);
            }
        }
        Ok(())
    };
    pass(cli.workloads.iter().collect(), &mut records)?;
    if cli.check_repeat {
        let mut again = Vec::new();
        pass(cli.workloads.iter().rev().collect(), &mut again)?;
        println!("\nrepeat check: same seed, second pass in reverse order");
        println!(
            "{:<15} {:<34} {:>16} {:>16} {:>9} {:>7}  verdict",
            "workload", "metric", "first", "second", "spread", "bound"
        );
        for first in &records {
            let same_run = |r: &&Record| {
                r.field("workload") == first.field("workload")
                    && r.field("trace") == first.field("trace")
            };
            let second = again
                .iter()
                .find(same_run)
                .ok_or("a repeat run is missing")?;
            ok &= repeats(first, second);
        }
        records.extend(again);
    }
    if let Some(path) = &cli.json {
        let all: Vec<&str> = records.iter().map(|r| r.text.as_str()).collect();
        write_json(path, &format!("[{}]", all.join(",\n")))?;
    }
    Ok(ok)
}

/// Compare two records of the same workload, seed and kind of run.
fn repeats(first: &Record, second: &Record) -> bool {
    let workload = first
        .field("workload")
        .and_then(Json::as_str)
        .unwrap_or("?");
    let traced = first.field("trace") == Some(&Json::Bool(true));
    let smoke = first.field("smoke") == Some(&Json::Bool(true));
    let single_session = workload != "serve_mixed";
    let mut ok = true;
    for d in report::declared(traced) {
        let (Some(a), Some(b)) = (first.metric(d.name), second.metric(d.name)) else {
            println!("{workload:<15} {:<34} missing from a record", d.name);
            ok = false;
            continue;
        };
        let exact = match d.exact {
            Exact::Always => true,
            Exact::SingleSession => single_session,
            Exact::No => false,
        };
        let spread = if a == b {
            0.0
        } else {
            (a - b).abs() / a.abs().min(b.abs())
        };
        let verdict = if exact {
            if a.to_bits() == b.to_bits() {
                "identical"
            } else {
                ok = false;
                "DIFFERS"
            }
        } else if d.bound > 0.0 {
            // Smoke runs are too short for their timings to mean anything.
            if spread <= d.bound || smoke {
                "within bound"
            } else {
                ok = false;
                "OUTSIDE BOUND"
            }
        } else {
            continue;
        };
        println!(
            "{workload:<15} {:<34} {a:>16.6} {b:>16.6} {:>8.2}% {:>6.0}%  {verdict}",
            d.name,
            spread * 100.0,
            d.bound * 100.0
        );
    }
    ok
}
