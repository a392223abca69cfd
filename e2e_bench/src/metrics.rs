//! The metrics the benchmark reports, and how each is computed from the
//! runs of one invocation. The names, units and directions mirror
//! `BENCHMARK.json`.

use crate::episode::Episode;
use crate::spans::{self_times, TICK};
use crate::stats::{median, percentile};
use std::collections::BTreeMap;

/// A reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower` is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// What a user of the closed loop sees, from the untraced runs, steady
/// enough across seeds to carry a regression bound.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s", "lower"),
    m("sim_s_per_wall_s", "s/s", "higher"),
    m("energy_j_per_req", "J/req", "lower"),
];

/// Reported with `--trace 1`. First the user-visible figures whose spread
/// across seeds is too wide for a bound (from the untraced runs of that
/// invocation), then single layers from its traced runs; layer times are
/// seconds per full run of the workload.
pub const PER_LAYER: &[MetricSpec] = &[
    m("turnaround_p50_us", "us", "lower"),
    m("turnaround_l1_p50_us", "us", "lower"),
    m("turnaround_p99_us", "us", "lower"),
    m("mean_response_s", "s", "lower"),
    m("violation_frac", "frac", "lower"),
    m("drop_frac", "frac", "lower"),
    m("switch_ons", "count", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("plant.advance_s", "s", "lower"),
    m("plant.schedule_s", "s", "lower"),
    m("plant.observe_s", "s", "lower"),
    m("plant.actuate_s", "s", "lower"),
    m("plant.ns_per_request", "ns", "lower"),
    m("workload.gen_s", "s", "lower"),
    m("plane.ingest_s", "s", "lower"),
    m("plane.step_s", "s", "lower"),
    m("plane.drain_s", "s", "lower"),
    m("plane.step_other_s", "s", "lower"),
    m("l0.decide_s", "s", "lower"),
    m("l0.decisions", "count", "lower"),
    m("l0.mean_us", "us", "lower"),
    m("l1.decide_s", "s", "lower"),
    m("l1.decisions", "count", "lower"),
    m("l1.mean_us", "us", "lower"),
    m("l1.candidates_evaluated", "count", "lower"),
    m("l1.candidates_pruned", "count", "higher"),
    m("l1.pruned_frac", "frac", "higher"),
    m("l1.isolated_decide_us", "us", "lower"),
    m("l1.in_loop_over_isolated", "x", "lower"),
    m("l2.decide_s", "s", "lower"),
    m("l2.decisions", "count", "lower"),
    m("learn.online_updates", "count", "lower"),
    m("learn.drift_detections", "count", "lower"),
    m("learn.rebuilds", "count", "lower"),
    m("ft.member_deaths", "count", "lower"),
    m("ft.safe_mode_periods", "count", "lower"),
    m("plane.directives", "count", "lower"),
    m("plane.dark_filled", "count", "lower"),
    m("setup.trace_s", "s", "lower"),
    m("setup.policy_build_s", "s", "lower"),
    m("setup.plant_build_s", "s", "lower"),
    m("setup.handshake_s", "s", "lower"),
    m("net.encode_s", "s", "lower"),
    m("net.decode_s", "s", "lower"),
    m("net.send_s", "s", "lower"),
    m("net.recv_wait_s", "s", "lower"),
    m("net.frames_per_tick.up", "1/tick", "lower"),
    m("net.frames_per_tick.down", "1/tick", "lower"),
    m("net.bytes_per_tick.up", "B/tick", "lower"),
    m("net.bytes_per_tick.down", "B/tick", "lower"),
    m("agent.observe_s", "s", "lower"),
    m("agent.stage_s", "s", "lower"),
    m("agent.commit_s", "s", "lower"),
    m("controld.handle_frame_s", "s", "lower"),
    m("controld.decide_s", "s", "lower"),
    m("bench.record_s", "s", "lower"),
    m("loop.wall_s", "s", "lower"),
    m("loop.unattributed_frac", "frac", "lower"),
    m("trace.overhead_frac", "frac", "lower"),
];

/// Values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Turnaround statistics over the ticks of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurnaroundStats {
    /// Median over every tick.
    pub p50_us: f64,
    /// Median over L1 ticks.
    pub l1_p50_us: f64,
    /// 99th percentile over every tick.
    pub p99_us: f64,
    /// Samples over every tick.
    pub samples: usize,
    /// L1-tick samples.
    pub l1_samples: usize,
    /// Samples beyond the 99th percentile.
    pub beyond_p99: usize,
}

/// Turnaround statistics of per-tick samples `us`, with `l1` marking the
/// L1 ticks.
pub fn turnaround_stats(us: &[f64], l1: &[bool]) -> TurnaroundStats {
    let l1_us: Vec<f64> = us
        .iter()
        .zip(l1)
        .filter(|(_, &l)| l)
        .map(|(&t, _)| t)
        .collect();
    let (p99_us, beyond_p99) = percentile(us, 99.0);
    TurnaroundStats {
        p50_us: percentile(us, 50.0).0,
        l1_p50_us: percentile(&l1_us, 50.0).0,
        p99_us,
        samples: us.len(),
        l1_samples: l1_us.len(),
        beyond_p99,
    }
}

/// Each tick's median over runs of the same inputs.
fn tick_medians(runs: &[&Episode], field: fn(&Episode) -> &[f64]) -> Vec<f64> {
    let ticks = field(runs[0]).len();
    (0..ticks)
        .map(|k| median(&runs.iter().map(|e| field(e)[k]).collect::<Vec<_>>()))
        .collect()
}

/// What a user sees, from the untraced full runs of one seed. They repeat
/// the same inputs, so each tick's wall time and turnaround is taken as
/// its median over the runs: interference that hits one run at that tick
/// drops out. Set-up is the median of every set-up of the workload; the
/// simulated outcomes are those of the first run (every run repeats them
/// exactly).
pub fn user_visible(untraced: &[&Episode], setups: &[f64], peak_rss_mb: f64) -> Values {
    let wall_s = tick_medians(untraced, |e| &e.tick_times.wall_s);
    let turnaround_us = tick_medians(untraced, |e| &e.tick_times.turnaround_us);
    let t = turnaround_stats(&turnaround_us, &untraced[0].tick_times.l1);
    let first = untraced[0];
    let o = first.ledger.outcomes;
    BTreeMap::from([
        ("setup_s", median(setups)),
        (
            "sim_s_per_wall_s",
            first.ticks as f64 * first.t_l0 / wall_s.iter().sum::<f64>(),
        ),
        ("turnaround_p50_us", t.p50_us),
        ("turnaround_l1_p50_us", t.l1_p50_us),
        ("turnaround_p99_us", t.p99_us),
        ("mean_response_s", o.mean_response_s()),
        ("violation_frac", o.violation_frac()),
        ("energy_j_per_req", o.energy_per_request()),
        ("drop_frac", o.drop_frac()),
        ("switch_ons", o.switch_ons as f64),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

/// Span name → metric name, per recording thread.
const SPAN_METRICS: &[(&str, &str, &str)] = &[
    ("loop", "observe", "plant.observe_s"),
    ("loop", "actuate", "plant.actuate_s"),
    ("loop", "schedule", "plant.schedule_s"),
    ("loop", "advance", "plant.advance_s"),
    ("loop", "gen", "workload.gen_s"),
    ("loop", "ingest", "plane.ingest_s"),
    ("loop", "step", "plane.step_s"),
    ("loop", "drain", "plane.drain_s"),
    ("loop", "record", "bench.record_s"),
    ("agent", "observe", "agent.observe_s"),
    ("agent", "stage", "agent.stage_s"),
    ("agent", "commit", "agent.commit_s"),
    ("agent", "recv", "net.recv_wait_s"),
    ("agent", "record", "bench.record_s"),
    ("controld", "handle_frame", "controld.handle_frame_s"),
    ("controld", "decide", "controld.decide_s"),
];

/// Codec and link work, summed over both wire threads. (The waits are
/// the agent's alone: the plant owner waiting on the controller is on
/// the critical path, the controller waiting on the plant is idle.)
const NET_SPANS: &[(&str, &str)] = &[
    ("encode", "net.encode_s"),
    ("decode", "net.decode_s"),
    ("send", "net.send_s"),
];

/// The per-layer split of one traced run. `isolated_decide_us` is the
/// isolated per-decide figure the in-loop L1 mean is set against.
pub fn per_layer(e: &Episode, isolated_decide_us: f64) -> Values {
    // A layer the workload does not exercise reports zero.
    let mut v: Values = PER_LAYER.iter().map(|s| (s.name, 0.0)).collect();

    // Span self times. The loop thread is the in-process loop or, on the
    // wire, the agent: the plant owner whose wall the run measures.
    let times = self_times(&e.spans);
    let loop_thread = if e.wire.is_some() { "agent" } else { "loop" };
    for &(thread, span, metric) in SPAN_METRICS {
        if let Some(&s) = times.get(&(thread, span)) {
            *v.entry(metric).or_default() += s;
        }
    }
    for &(span, metric) in NET_SPANS {
        for thread in ["agent", "controld"] {
            if let Some(&s) = times.get(&(thread, span)) {
                *v.entry(metric).or_default() += s;
            }
        }
    }
    let attributed: f64 = times
        .iter()
        .filter(|((thread, name), _)| *thread == loop_thread && *name != TICK)
        .map(|(_, s)| s)
        .sum();
    v.insert("loop.wall_s", e.loop_s);
    v.insert("loop.unattributed_frac", 1.0 - attributed / e.loop_s);
    v.insert(
        "plant.ns_per_request",
        (v["plant.schedule_s"] + v["plant.advance_s"]) * 1e9
            / e.ledger.outcomes.arrivals.max(1) as f64,
    );

    // The level split, read from the control plane's counters.
    let p = &e.metrics.policy;
    let [l0, l1, l2] = p.level_overhead;
    let levels_s = l0.total.as_secs_f64() + l1.total.as_secs_f64() + l2.total.as_secs_f64();
    let step_s = if e.wire.is_some() {
        v["controld.decide_s"]
    } else {
        v["plane.step_s"]
    };
    v.insert("plane.step_other_s", step_s - levels_s);
    v.insert("l0.decide_s", l0.total.as_secs_f64());
    v.insert("l0.decisions", l0.decisions as f64);
    v.insert("l0.mean_us", l0.mean().as_secs_f64() * 1e6);
    v.insert("l1.decide_s", l1.total.as_secs_f64());
    v.insert("l1.decisions", l1.decisions as f64);
    let l1_mean_us = l1.mean().as_secs_f64() * 1e6;
    v.insert("l1.mean_us", l1_mean_us);
    let evaluated = p.l1_candidates_evaluated;
    let pruned = p.l1_candidates_pruned;
    v.insert("l1.candidates_evaluated", evaluated as f64);
    v.insert("l1.candidates_pruned", pruned as f64);
    v.insert(
        "l1.pruned_frac",
        pruned as f64 / (evaluated + pruned).max(1) as f64,
    );
    v.insert("l1.isolated_decide_us", isolated_decide_us);
    v.insert("l1.in_loop_over_isolated", l1_mean_us / isolated_decide_us);
    v.insert("l2.decide_s", l2.total.as_secs_f64());
    v.insert("l2.decisions", l2.decisions as f64);
    v.insert("learn.online_updates", p.online_updates as f64);
    v.insert("learn.drift_detections", p.drift_detections() as f64);
    v.insert("learn.rebuilds", p.rebuilds as f64);
    v.insert("ft.member_deaths", p.member_deaths as f64);
    v.insert("ft.safe_mode_periods", p.safe_mode_periods as f64);
    v.insert("plane.directives", e.metrics.directives_emitted as f64);
    v.insert("plane.dark_filled", e.metrics.dark_filled_members as f64);

    v.insert("setup.trace_s", e.setup.trace_s);
    v.insert("setup.policy_build_s", e.setup.policy_build_s);
    v.insert("setup.plant_build_s", e.setup.plant_build_s);
    v.insert("setup.handshake_s", e.setup.handshake_s);

    if let Some(w) = &e.wire {
        let ticks = e.ticks.max(1) as f64;
        v.insert(
            "net.frames_per_tick.up",
            w.agent_loop.frames_out as f64 / ticks,
        );
        v.insert(
            "net.frames_per_tick.down",
            w.agent_loop.frames_in as f64 / ticks,
        );
        v.insert(
            "net.bytes_per_tick.up",
            w.agent_loop.bytes_out as f64 / ticks,
        );
        v.insert(
            "net.bytes_per_tick.down",
            w.agent_loop.bytes_in as f64 / ticks,
        );
    }
    v
}

/// Per-metric medians over several per-layer splits (empty for none).
pub fn median_values(runs: &[Values]) -> Values {
    let Some(first) = runs.first() else {
        return Values::new();
    };
    first
        .keys()
        .map(|&key| {
            (
                key,
                median(&runs.iter().map(|r| r[key]).collect::<Vec<_>>()),
            )
        })
        .collect()
}
