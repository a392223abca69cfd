//! `e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the provenance, the run notes and every metric with its unit
//! and direction, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 if any output check
//! failed and 2 on bad arguments.

use e2e_bench::bench::{self, results_dir, Args, Report};
use e2e_bench::workload::Workload;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: e2e-bench --workload <paper16-wc98|selfheal-churn|paper16-wire> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(args: &Args) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {threads}, \"cpu\": {}, \"rustc\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cpu_model()),
        json_str(env!("E2E_BENCH_RUSTC")),
    )
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(spec, value)| {
            // Non-finite values fail a check; JSON has no spelling for
            // them, so they print as null.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(spec.name),
                json_str(spec.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits inside the repository");
    let provenance = provenance(&args);
    println!("provenance: {provenance}");

    let report = bench::run(args, root);
    for note in &report.notes {
        println!("note: {note}");
    }
    for (spec, value) in &report.metrics {
        println!(
            "metric {:<28} {value:>16.6} {:<7} ({} is better)",
            spec.name, spec.unit, spec.better
        );
    }
    for failure in &report.failures {
        eprintln!("CHECK FAILED {failure}");
    }
    let line = result_line(&report);
    let file = results_dir().join(format!(
        "{}-{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let saved = std::fs::create_dir_all(results_dir()).and_then(|()| {
        std::fs::write(
            &file,
            format!("{{\"provenance\": {provenance}, \"result\": {line}}}\n"),
        )
    });
    if let Err(err) = saved {
        eprintln!("could not write {}: {err}", file.display());
    }
    println!("{line}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
