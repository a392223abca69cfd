//! The benchmark's loops must not drift from the canonical clients: on a
//! short slice, the in-process loop reproduces `Experiment::run`, the
//! wire loop reproduces the in-process loop, and tracing changes nothing
//! simulated. Run with `cargo test --release` (the paper16 offline
//! learning is slow unoptimised).

use e2e_bench::inproc;
use e2e_bench::metrics::{END_TO_END, PER_LAYER};
use e2e_bench::wire;
use e2e_bench::workload::{build_policy, Inputs, Workload};
use llc_cluster::Experiment;
use std::time::Instant;

/// In-process loop vs `Experiment::run` on `buckets` native buckets.
fn matches_experiment_run(workload: Workload, seed: u64, buckets: usize) {
    let inputs = Inputs::new(workload, seed, Some(buckets));
    let now = Instant::now();
    let episode = inproc::drive(
        &inputs,
        build_policy(workload, &inputs.scenario),
        None,
        false,
        now,
        [now, now],
    );

    let mut policy = build_policy(workload, &inputs.scenario);
    let exp: &Experiment = &inputs.experiment;
    let log = exp
        .run(
            inputs.scenario.to_sim_config(),
            &mut policy,
            &inputs.trace,
            &inputs.store,
        )
        .expect("well-formed run");
    let s = log.summary();
    let o = episode.ledger.outcomes;

    assert_eq!(episode.ticks, log.ticks.len() as u64);
    assert_eq!(episode.directives, log.directives, "{}", workload.name());
    assert_eq!(o.arrivals, s.total_arrivals);
    assert_eq!(o.completions, s.total_completions);
    assert_eq!(o.mean_response_s().to_bits(), s.mean_response.to_bits());
    assert_eq!(o.violation_frac().to_bits(), s.violation_fraction.to_bits());
    assert_eq!(o.energy.to_bits(), s.total_energy.to_bits());
    assert_eq!(o.dropped, s.total_dropped);
    assert_eq!(o.switch_ons, s.total_switch_ons);
    assert_eq!(episode.ledger.unbalanced_ticks, 0, "requests conserved");

    // Counters repeat exactly; the wall-clock fields beside them do not.
    let (a, b) = (&episode.metrics, &log.metrics);
    assert_eq!(a.directives_emitted, b.directives_emitted);
    assert_eq!(a.dark_filled_members, b.dark_filled_members);
    assert_eq!(a.policy.online_updates, b.policy.online_updates);
    assert_eq!(a.drift_detections(), b.drift_detections());
    assert_eq!(a.rebuilds(), b.rebuilds());
    assert_eq!(a.member_deaths(), b.member_deaths());
    assert_eq!(a.safe_mode_periods(), b.safe_mode_periods());
    assert_eq!(
        a.policy.l1_candidates_evaluated,
        b.policy.l1_candidates_evaluated
    );
}

#[test]
fn paper16_loop_matches_experiment_run() {
    matches_experiment_run(Workload::Paper16Wc98, 11, 30);
}

#[test]
fn selfheal_loop_matches_experiment_run() {
    // 60 buckets = 240 ticks: the crash, restart, capacity step and
    // blackout all land inside the slice.
    matches_experiment_run(Workload::SelfhealChurn, 11, 60);
}

#[test]
fn wire_matches_in_process() {
    let ticks = 120;
    let wire = wire::run(13, Some(ticks), false).expect("lossless loopback run");
    let local = inproc::run(Workload::Paper16Wc98, 13, Some(ticks), false);
    assert_eq!(wire.ticks, ticks);
    assert_eq!(wire.ledger.trail, local.ledger.trail);
    assert_eq!(wire.ledger.outcomes, local.ledger.outcomes);
    assert_eq!(wire.directives, local.directives);
    let w = wire.wire.expect("wire stats");
    assert_eq!(w.applied, wire.metrics.directives_emitted);
    assert_eq!(w.mismatched_ticks, 0);
    assert!(w.metrics_frame_ok);
    assert_eq!(wire.metrics.transport.decode_errors, 0);
}

#[test]
fn tracing_changes_nothing_simulated() {
    let ticks = 200;
    let plain = inproc::run(Workload::SelfhealChurn, 17, Some(ticks), false);
    let traced = inproc::run(Workload::SelfhealChurn, 17, Some(ticks), true);
    assert_eq!(plain.ledger.trail, traced.ledger.trail);
    assert!(plain.spans.is_empty());
    // One tick span plus nine layer calls per tick.
    assert_eq!(traced.spans.len() as u64, ticks * 10);
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = text.split_whitespace().collect();
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
            spec.name, spec.unit, spec.better
        );
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = compact.matches("\"name\":").count();
    let workloads = Workload::ALL.len();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
    for w in Workload::ALL {
        assert!(compact.contains(&format!("\"name\":\"{}\"", w.name())));
    }
}
