//! The in-process closed loop: the canonical control-plane client of
//! `Experiment::run`, driven through public calls only, with a span
//! around every call into a layer.

use crate::check::Ledger;
use crate::episode::{Episode, SetupTimes, TickTimes};
use crate::spans::Spans;
use crate::workload::{build_policy, Inputs, Workload};
use llc_cluster::{ClusterPolicy, ControlPlane, DirectiveEmit, ObservationIngest, SimAdapter};
use llc_workload::{derive_seed, spread_arrivals, RequestSampler};
use rand::SeedableRng;
use std::time::Instant;

/// Run `workload` for `seed` in process: set up, then drive up to
/// `limit` base ticks (the whole trace when `None`), recording spans
/// when `traced`.
///
/// # Panics
///
/// Panics if the plant or the control plane rejects a well-formed call,
/// which would be a bug in the library.
pub fn run(workload: Workload, seed: u64, limit: Option<u64>, traced: bool) -> Episode {
    let start = Instant::now();
    let inputs = Inputs::new(workload, seed, None);
    let trace_done = Instant::now();
    let policy = build_policy(workload, &inputs.scenario);
    let policy_done = Instant::now();
    drive(
        &inputs,
        policy,
        limit,
        traced,
        start,
        [trace_done, policy_done],
    )
}

/// The tick loop over prepared inputs and a built policy. `start` and
/// `marks` (trace ready, policy built) time the set-up phases.
pub fn drive<P: ClusterPolicy>(
    inputs: &Inputs,
    policy: P,
    limit: Option<u64>,
    traced: bool,
    start: Instant,
    marks: [Instant; 2],
) -> Episode {
    let exp = &inputs.experiment;
    let total = inputs.total_ticks();
    let ticks = limit.map_or(total, |l| l.min(total));

    let mut adapter = SimAdapter::new(inputs.scenario.to_sim_config(), exp, total as usize);
    if exp.prewarmed {
        adapter.prewarm().expect("well-formed cluster");
    }
    let cadence = policy.cadence();
    let mut plane = ControlPlane::new(policy, adapter.members().to_vec(), exp.t_l0);
    let mut sampler = RequestSampler::paper_default(&inputs.store, exp.seed);
    let mut spread_rng = rand::rngs::StdRng::seed_from_u64(derive_seed(exp.seed, 0xA121));
    let mut ledger = Ledger::new(exp.response_target);
    let mut tick_times = TickTimes::default();
    let mut log = Vec::new();

    let loop_start = Instant::now();
    let setup = SetupTimes {
        trace_s: (marks[0] - start).as_secs_f64(),
        policy_build_s: (marks[1] - marks[0]).as_secs_f64(),
        plant_build_s: (loop_start - marks[1]).as_secs_f64(),
        handshake_s: 0.0,
        total_s: (loop_start - start).as_secs_f64(),
    };
    let mut spans = Spans::new("loop", loop_start, traced);
    for tick in 0..ticks {
        tick_times.start();
        let tick_start = spans.mark();
        let observations = spans.span("observe", tick, || adapter.observe(tick));
        let handed_over = Instant::now();
        spans.span("ingest", tick, || {
            for observation in observations {
                plane
                    .ingest(observation)
                    .expect("lockstep stream is in-order and well-formed");
            }
        });
        spans.span("step", tick, || plane.step());
        let directives = spans.span("drain", tick, || plane.drain_directives());
        let decided = Instant::now();
        tick_times.turnaround(&cadence, tick, (decided - handed_over).as_secs_f64() * 1e6);
        spans
            .span("actuate", tick, || adapter.actuate(&directives))
            .expect("well-formed directives");

        // The sampler and the plant share no state, so drawing the whole
        // window's requests before scheduling them feeds the plant the
        // same sequence as `Experiment::run`'s interleaved loop.
        let count = inputs.arrivals(tick);
        let t = tick as f64 * exp.t_l0;
        let window = spans.span("gen", tick, || {
            let times = spread_arrivals(&mut spread_rng, t, exp.t_l0, count);
            times
                .into_iter()
                .map(|at| (at, sampler.next_request().1))
                .collect::<Vec<_>>()
        });
        spans.span("schedule", tick, || {
            for &(at, demand) in &window {
                adapter
                    .schedule_arrival(at, demand)
                    .expect("arrival inside the window");
            }
        });
        spans
            .span("advance", tick, || adapter.advance_window(tick))
            .expect("well-formed run");

        spans.span("record", tick, || {
            ledger.directives(&directives);
            ledger.tick(tick, count as u64, adapter.sim(), adapter.window_stats());
            log.extend(directives);
        });
        spans.tick(tick, tick_start);
    }
    let loop_end = Instant::now();
    tick_times.finish(loop_end);

    Episode {
        ticks,
        t_l0: exp.t_l0,
        setup,
        loop_s: (loop_end - loop_start).as_secs_f64(),
        tick_times,
        ledger,
        directives: log,
        metrics: plane.metrics(),
        spans: spans.into_spans(),
        wire: None,
    }
}
