//! One benchmark invocation: run a workload for the time budget, check
//! every run's outputs, and assemble the metrics.

use crate::episode::Episode;
use crate::metrics::{self, MetricSpec, Values, END_TO_END, PER_LAYER};
use crate::spans::write_csv;
use crate::stats::median;
use crate::workload::Workload;
use crate::{inproc, wire};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up samples an invocation collects at least, for a steady median.
const MIN_SETUPS: usize = 5;

/// Command-line arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// Report the per-layer split of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// The outcome of an invocation.
#[derive(Debug)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Closed-loop ticks run.
    pub attempted: u64,
    /// Ticks that failed a per-tick check, plus failed run-level checks.
    pub failed: u64,
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<(MetricSpec, f64)>,
    /// Each failed check, named.
    pub failures: Vec<String>,
    /// Human-readable context: sample counts, digests, run counts.
    pub notes: Vec<String>,
}

/// One run of `workload`'s closed loop.
///
/// # Errors
///
/// A description of a transport or protocol failure on the wire.
pub fn episode(
    workload: Workload,
    seed: u64,
    limit: Option<u64>,
    traced: bool,
) -> Result<Episode, String> {
    match workload {
        Workload::Paper16Wire => wire::run(seed, limit, traced),
        _ => Ok(inproc::run(workload, seed, limit, traced)),
    }
}

/// Collects check results.
#[derive(Debug, Default)]
struct Checks {
    failures: Vec<String>,
    failed_ticks: u64,
    failed_checks: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, name: &str, detail: impl FnOnce() -> String) {
        if !ok {
            self.failed_checks += 1;
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// The per-tick and per-run checks every run must pass.
    fn run(&mut self, label: &str, e: &Episode) {
        self.failed_ticks += e.ledger.unbalanced_ticks;
        self.check(e.ledger.unbalanced_ticks == 0, "requests_conserved", || {
            format!(
                "{label}: {} ticks unbalanced, first {}",
                e.ledger.unbalanced_ticks,
                e.ledger.first_imbalance.as_deref().unwrap_or("?")
            )
        });
        if let Some(w) = &e.wire {
            let t = &e.metrics.transport;
            self.failed_ticks += w.mismatched_ticks;
            self.check(
                t.decode_errors == 0 && t.late_observations == 0 && t.lost_observation_windows == 0,
                "wire_lossless",
                || {
                    format!(
                        "{label}: decode errors {}, late observations {}, lost windows {}",
                        t.decode_errors, t.late_observations, t.lost_observation_windows
                    )
                },
            );
            self.check(
                w.mismatched_ticks == 0 && w.applied == e.metrics.directives_emitted,
                "wire_applied_equals_emitted",
                || {
                    format!(
                        "{label}: applied {}, emitted {}, {} ticks differ",
                        w.applied, e.metrics.directives_emitted, w.mismatched_ticks
                    )
                },
            );
            self.check(w.metrics_frame_ok, "wire_metrics_frame", || {
                format!("{label}: closing metrics frame missing or undecodable")
            });
        }
    }

    /// `slice` must reproduce `full` up to its last tick.
    fn prefix(&mut self, name: &str, full: &Episode, slice: &Episode) {
        let k = slice.ticks as usize;
        let want = if k == 0 {
            None
        } else {
            full.ledger.trail.get(k - 1).copied()
        };
        let got = (k > 0).then(|| slice.ledger.digest());
        self.check(want.is_some() && want == got, name, || {
            format!("digest after {k} ticks: full run {want:x?}, check run {got:x?}")
        });
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The isolated per-decide L1 figure recorded by `bench_decide`
/// (`decide.steady_pruned_us` in `BENCH_decide.json` at the root of the
/// checkout).
pub fn isolated_decide_us(root: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(root.join("BENCH_decide.json")).ok()?;
    let at = text.find("\"steady_pruned_us\"")?;
    let rest = text[at..].split_once(':')?.1;
    let number: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    number.parse().ok()
}

/// Where span dumps go: `results/` beside this package's manifest.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn record(e: &Episode, setups: &mut Vec<f64>, attempted: &mut u64) {
    setups.push(e.setup.total_s);
    *attempted += e.ticks;
}

/// Run one invocation.
pub fn run(args: Args, root: &Path) -> Report {
    let Args {
        workload,
        seed,
        trace,
        ..
    } = args;
    let budget = Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let mut untraced: Vec<Episode> = Vec::new();
    let mut traced: Vec<Episode> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut attempted = 0u64;

    // Full runs until the time budget is spent (the last one may overrun
    // it): untraced only, or alternating untraced and traced.
    let measure_start = Instant::now();
    loop {
        let want_traced = trace && traced.len() < untraced.len();
        let e = match episode(workload, seed, None, want_traced) {
            Ok(e) => e,
            Err(err) => {
                checks.check(false, "run_completed", || err);
                break;
            }
        };
        record(&e, &mut setups, &mut attempted);
        checks.run(if want_traced { "traced run" } else { "run" }, &e);
        if want_traced {
            traced.push(e);
        } else {
            untraced.push(e);
        }
        let enough = !untraced.is_empty() && (!trace || !traced.is_empty());
        if enough && measure_start.elapsed() >= budget {
            break;
        }
    }
    let Some(reference) = untraced.first() else {
        return finish(checks, attempted, Vec::new(), notes);
    };

    // Every full run of one seed is the same run.
    for (i, e) in untraced.iter().chain(&traced).enumerate().skip(1) {
        checks.check(
            e.ledger.digest() == reference.ledger.digest()
                && e.ledger.outcomes == reference.ledger.outcomes,
            "runs_repeat",
            || format!("run {i} differs from run 0"),
        );
    }

    // Tracing changes nothing simulated: a traced run matches the
    // untraced one (a shorter traced run in an untraced invocation).
    if traced.is_empty() {
        match episode(workload, seed, Some(workload.check_ticks()), true) {
            Ok(slice) => {
                record(&slice, &mut setups, &mut attempted);
                checks.run("traced check run", &slice);
                checks.prefix("traced_equals_untraced", reference, &slice);
            }
            Err(err) => checks.check(false, "traced_check_run_completed", || err),
        }
    } else {
        checks.check(
            traced[0].ledger.digest() == reference.ledger.digest(),
            "traced_equals_untraced",
            || "digests differ".to_string(),
        );
    }

    // The wire reproduces the in-process loop.
    if workload == Workload::Paper16Wire {
        let slice = inproc::run(
            Workload::Paper16Wc98,
            seed,
            Some(workload.check_ticks()),
            false,
        );
        attempted += slice.ticks;
        checks.run("in-process check run", &slice);
        checks.prefix("wire_equals_in_process", reference, &slice);
    }

    // More set-ups, for a steady set-up median.
    while setups.len() < MIN_SETUPS {
        match episode(workload, seed, Some(0), false) {
            Ok(e) => record(&e, &mut setups, &mut attempted),
            Err(err) => {
                checks.check(false, "setup_completed", || err);
                break;
            }
        }
    }

    notes.push(format!(
        "runs: {} untraced, {} traced, {} set-ups",
        untraced.len(),
        traced.len(),
        setups.len()
    ));
    for (i, e) in untraced.iter().chain(&traced).enumerate() {
        let t = metrics::turnaround_stats(&e.tick_times.turnaround_us, &e.tick_times.l1);
        checks.check(t.beyond_p99 >= 10, "tail_has_ten_beyond", || {
            format!(
                "run {i}: {} samples beyond p99 of {}",
                t.beyond_p99, t.samples
            )
        });
        notes.push(format!(
            "run {i}{}: set-up {:.4} s, loop {:.4} s, {:.1} sim s/s; turnaround over {} ticks: \
             p50 {:.1} us, p99 {:.1} us ({} beyond), L1 p50 {:.1} us over {}",
            if i >= untraced.len() { " (traced)" } else { "" },
            e.setup.total_s,
            e.loop_s,
            e.sim_rate(),
            t.samples,
            t.p50_us,
            t.p99_us,
            t.beyond_p99,
            t.l1_p50_us,
            t.l1_samples
        ));
    }
    notes.push(format!(
        "digest {:016x} over {} ticks; {} requests; {} directives",
        reference.ledger.digest(),
        reference.ticks,
        reference.ledger.outcomes.arrivals,
        reference.metrics.directives_emitted
    ));

    let rss = peak_rss_mb();
    checks.check(rss.is_some(), "peak_rss_readable", || {
        "no VmHWM in /proc/self/status".to_string()
    });
    let mut values = Values::new();
    if trace {
        let isolated = isolated_decide_us(root);
        checks.check(isolated.is_some(), "isolated_decide_figure", || {
            "BENCH_decide.json has no decide.steady_pruned_us".to_string()
        });
        let splits: Vec<Values> = traced
            .iter()
            .map(|e| metrics::per_layer(e, isolated.unwrap_or(f64::NAN)))
            .collect();
        values = metrics::median_values(&splits);
        let rate =
            |runs: &[Episode]| median(&runs.iter().map(Episode::sim_rate).collect::<Vec<_>>());
        values.insert("trace.overhead_frac", rate(&untraced) / rate(&traced) - 1.0);
        if let Some(last) = traced.last() {
            let path = results_dir().join(format!("spans-{}-{seed}.csv", workload.name()));
            match write_csv(&path, &last.spans) {
                Ok(()) => notes.push(format!("spans: {}", path.display())),
                Err(err) => checks.check(false, "spans_written", || err.to_string()),
            }
        }
    }
    let runs: Vec<&Episode> = untraced.iter().collect();
    values.extend(metrics::user_visible(
        &runs,
        &setups,
        rss.unwrap_or(f64::NAN),
    ));
    let specs = if trace { PER_LAYER } else { END_TO_END };
    let mut reported = Vec::new();
    for spec in specs {
        let value = values.get(spec.name).copied().unwrap_or(f64::NAN);
        checks.check(value.is_finite(), "metric_finite", || {
            format!("{} = {value}", spec.name)
        });
        reported.push((*spec, value));
    }
    finish(checks, attempted, reported, notes)
}

fn finish(
    checks: Checks,
    attempted: u64,
    metrics: Vec<(MetricSpec, f64)>,
    notes: Vec<String>,
) -> Report {
    Report {
        correct: checks.failures.is_empty(),
        attempted: attempted.max(1),
        failed: checks.failed_ticks + checks.failed_checks,
        metrics,
        failures: checks.failures,
        notes,
    }
}
