//! `rpq-ledger` — the repository's one benchmark: wire-level latency and
//! throughput on four workloads, decomposed layer by layer. It claims no
//! gain; it is the ruler later claims are measured with. See
//! `bench/README.md` for the metric sheet and `BENCHMARK.json` for the
//! declared names, units and bounds.
//!
//! ```text
//! rpq-ledger --workload W --seed N --seconds S --trace 0|1   one run; last stdout line = result JSON
//! rpq-ledger run --seed N --out FILE [--seconds S] [--smoke] [--trace-out PREFIX]
//! rpq-ledger compare OLD NEW                                 files or run-set directories
//! rpq-ledger list                                            declared metric names and units
//! rpq-ledger fingerprint                                     seed-1 input hashes, as recorded in inputs.seed1
//! ```

mod compare;
mod e2e;
mod inputs;
mod load;
mod micro;
mod report;
mod spans;
mod spec;
mod stats;
mod sut;
mod traced;

use inputs::{Inputs, Kind};
use report::ParsedHalf;
use rpq_server::json::Json;
use spec::Spec;
use std::process::{Command, ExitCode};

/// `--flag value` pairs and bare flags after the subcommand.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.rest.iter().position(|a| a == flag)?;
        self.rest.get(at + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")))
            .transpose()
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => "workload".to_owned(),
    };
    let args = Args { rest: argv };
    let outcome = match command.as_str() {
        "workload" => one_workload(&args),
        "run" => run_all(&args),
        "compare" => compare_sides(&args),
        "list" => {
            print!("{}", Spec::load().list());
            Ok(ExitCode::SUCCESS)
        }
        "fingerprint" => {
            for kind in Kind::ALL {
                println!(
                    "{} {:016x}",
                    kind.name(),
                    Inputs::new(kind, 1, false).fingerprint()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown command {other:?} (expected run, compare, list, fingerprint, or --workload …)"
        )),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("rpq-ledger: {e}");
        ExitCode::from(2)
    })
}

/// Seed 1 is the guarded seed: its inputs must hash to what was recorded
/// when the baselines were, or numbers stop being comparable. Other
/// seeds run unguarded, so a claim can be re-checked on an unseen one.
fn guard_inputs(kind: Kind, seed: u64, smoke: bool) -> Result<(), String> {
    if seed != 1 || smoke {
        return Ok(());
    }
    let now = Inputs::new(kind, seed, smoke).fingerprint();
    match inputs::recorded_fingerprint(kind) {
        Some(recorded) if recorded == now => Ok(()),
        recorded => Err(format!(
            "workload inputs changed: {} seed 1 hashes to {now:016x}, recorded {}",
            kind.name(),
            recorded.map_or("nothing".to_owned(), |r| format!("{r:016x}"))
        )),
    }
}

/// The driver's contract: one workload, one trace mode, one JSON line.
fn one_workload(args: &Args) -> Result<ExitCode, String> {
    let spec = Spec::load();
    let name = args.value("--workload").ok_or("--workload is required")?;
    let kind = Kind::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(spec.run_seconds);
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds: {seconds} is out of range"));
    }
    let smoke = args.has("--smoke");
    guard_inputs(kind, seed, smoke)?;

    let mut report = if trace {
        traced::run(kind, seed, seconds, smoke, args.value("--trace-out"))?
    } else {
        e2e::run(kind, seed, seconds, smoke)?
    };
    report.check_declared(&spec);
    print!("{}", report.table(&spec));
    if let Some(path) = args.value("--report-out") {
        std::fs::write(path, report.to_json(&spec)).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report.driver_line(&spec));
    Ok(ExitCode::SUCCESS)
}

/// One command for everything: every workload, tracer off then on, each
/// in its own child process (so `peak_rss_mb` is per workload), one after
/// the other; writes the result document.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let spec = Spec::load();
    let out = args.value("--out").ok_or("run: --out FILE is required")?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(spec.run_seconds);
    let smoke = args.has("--smoke");
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let mut workloads = Vec::new();
    let mut all_correct = true;
    for kind in Kind::ALL {
        let mut halves = Vec::new();
        for trace in ["0", "1"] {
            let part = format!("{out}.{}.{trace}.part", kind.name());
            let mut child = Command::new(&exe);
            child
                .args(["--workload", kind.name(), "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--report-out", &part]);
            if smoke {
                child.arg("--smoke");
            }
            if let (Some(prefix), "1") = (args.value("--trace-out"), trace) {
                child.args(["--trace-out", &format!("{prefix}.{}.ndjson", kind.name())]);
            }
            let status = child.status().map_err(|e| format!("spawn: {e}"))?;
            if !status.success() {
                return Err(format!(
                    "{} --trace {trace} exited with {status}",
                    kind.name()
                ));
            }
            let half = std::fs::read_to_string(&part).map_err(|e| format!("{part}: {e}"))?;
            let _ = std::fs::remove_file(&part);
            all_correct &= Json::parse(&half)
                .ok()
                .and_then(|doc| ParsedHalf::from_json(&doc))
                .is_some_and(|h| h.correct);
            halves.push(half);
        }
        workloads.push(format!(
            "    \"{}\": {{\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
            kind.name(),
            halves[0],
            halves[1]
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = format!(
        "{{\n  \"ledger\": 1,\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"smoke\": {smoke},\n  \
         \"nproc\": {nproc},\n  \"connections\": {},\n  \"workloads\": {{\n{}\n  }},\n  \"claim\": null\n}}\n",
        load::connections(),
        workloads.join(",\n")
    );
    std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("rpq-ledger: wrote {out}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_sides(args: &Args) -> Result<ExitCode, String> {
    let [old, new] = args.rest.as_slice() else {
        return Err("compare: expected OLD NEW (result files or run-set directories)".into());
    };
    let result = compare::compare(
        &Spec::load(),
        &compare::load_side(old)?,
        &compare::load_side(new)?,
    );
    print!("{}", result.text);
    Ok(if result.failed() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
