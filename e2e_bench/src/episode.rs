//! What one run of a workload's closed loop yields.

use crate::check::Ledger;
use crate::spans::Span;
use llc_cluster::{Cadence, Directive, MetricsSnapshot};
use llc_net::LinkCounters;
use std::time::Instant;

/// Set-up phases, in seconds, from the start of the run to its first
/// tick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Trace generation, rebucketing and the virtual store.
    pub trace_s: f64,
    /// Offline learning and wiring of the policy.
    pub policy_build_s: f64,
    /// Plant construction and prewarm (with the control plane for the
    /// in-process loop).
    pub plant_build_s: f64,
    /// Connection and handshake (wire only).
    pub handshake_s: f64,
    /// Start of the run to the first tick.
    pub total_s: f64,
}

/// Per-tick timings of one run, indexed by tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickTimes {
    starts: Vec<Instant>,
    /// Wall time from each tick's start to the next tick's (or the end of
    /// the loop), in seconds.
    pub wall_s: Vec<f64>,
    /// Turnaround: time from the plant handing over the tick's telemetry
    /// to the plant holding the tick's directives, in microseconds.
    pub turnaround_us: Vec<f64>,
    /// Whether an L1 decision fired on the tick (L2 fires on a subset of
    /// those).
    pub l1: Vec<bool>,
}

impl TickTimes {
    /// Mark the start of the next tick.
    pub fn start(&mut self) {
        self.starts.push(Instant::now());
    }

    /// Record tick `tick`'s turnaround.
    pub fn turnaround(&mut self, cadence: &Cadence, tick: u64, us: f64) {
        self.turnaround_us.push(us);
        self.l1.push(cadence.is_l1_tick(tick));
    }

    /// Close the last tick at `end`.
    pub fn finish(&mut self, end: Instant) {
        self.wall_s = self
            .starts
            .iter()
            .zip(self.starts.iter().skip(1).chain([&end]))
            .map(|(a, b)| (*b - *a).as_secs_f64())
            .collect();
    }
}

/// Transport-side results of a wire run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireStats {
    /// Agent link counters over the tick loop only.
    pub agent_loop: LinkCounters,
    /// Directives the agent applied (or recorded, for informational
    /// kinds) to the plant.
    pub applied: u64,
    /// Ticks on which the agent applied a different number of directives
    /// than the controller emitted.
    pub mismatched_ticks: u64,
    /// Whether the controller's closing metrics frame reached the agent
    /// and decoded.
    pub metrics_frame_ok: bool,
}

/// One run of a workload's closed loop.
#[derive(Debug)]
pub struct Episode {
    /// Base ticks run.
    pub ticks: u64,
    /// Simulated seconds per base tick.
    pub t_l0: f64,
    /// Set-up phases.
    pub setup: SetupTimes,
    /// Wall time of the tick loop, in seconds (the agent's loop on the
    /// wire).
    pub loop_s: f64,
    /// Per-tick timings.
    pub tick_times: TickTimes,
    /// Digest, outcomes and conservation check.
    pub ledger: Ledger,
    /// Every directive actuated, in actuation order.
    pub directives: Vec<Directive>,
    /// The control plane's final metrics (with the transport section on
    /// the wire).
    pub metrics: MetricsSnapshot,
    /// Spans, when traced.
    pub spans: Vec<Span>,
    /// Transport results, on the wire.
    pub wire: Option<WireStats>,
}

impl Episode {
    /// Simulated seconds per wall second of the tick loop.
    pub fn sim_rate(&self) -> f64 {
        self.ticks as f64 * self.t_l0 / self.loop_s
    }
}
