//! Per-tick bookkeeping shared by every loop: the digest of the directive
//! sequence and the simulated per-tick fields, the simulated outcomes,
//! and the request-conservation check.
//!
//! Outcome definitions match `ExperimentLog::summary` and
//! `ExperimentLog::total_switch_ons`, term for term, so the benchmark and
//! `Experiment::run` report the same numbers for the same run.

use llc_cluster::{Directive, DirectiveKind, Level};
use llc_sim::{ClusterSim, WindowStats};

/// 64-bit FNV-1a: stable across builds and platforms, which the
/// cross-run digest comparison needs (`DefaultHasher` promises neither).
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Simulated outcomes of one run, accumulated tick by tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Outcomes {
    /// Requests injected.
    pub arrivals: u64,
    /// Requests completed.
    pub completions: u64,
    /// Σ over windows of (window mean response × window completions), in
    /// tick order — the same float expression `ExperimentLog::summary`
    /// sums.
    pub weighted_response: f64,
    /// Windows with at least one completion.
    pub windows_with_completions: u64,
    /// Windows whose mean response exceeded the target.
    pub violations: u64,
    /// Cumulative plant energy at the end of the last window.
    pub energy: f64,
    /// Cumulative dropped requests at the end of the last window.
    pub dropped: u64,
    /// Switch-on transitions across all computers.
    pub switch_ons: u64,
}

impl Outcomes {
    /// Mean response over all completions (seconds).
    pub fn mean_response_s(&self) -> f64 {
        if self.completions > 0 {
            self.weighted_response / self.completions as f64
        } else {
            0.0
        }
    }

    /// Share of windows with completions whose mean response exceeds
    /// the target.
    pub fn violation_frac(&self) -> f64 {
        if self.windows_with_completions > 0 {
            self.violations as f64 / self.windows_with_completions as f64
        } else {
            0.0
        }
    }

    /// Plant energy per injected request (the paper's `a + φ²` power
    /// units times seconds).
    pub fn energy_per_request(&self) -> f64 {
        self.energy / self.arrivals.max(1) as f64
    }

    /// Dropped over injected requests.
    pub fn drop_frac(&self) -> f64 {
        self.dropped as f64 / self.arrivals.max(1) as f64
    }
}

/// The running digest, outcomes and conservation check of one loop.
#[derive(Debug, Clone)]
pub struct Ledger {
    digest: Fnv,
    response_target: f64,
    /// Digest after each tick, so a shorter run of the same inputs can be
    /// compared against the prefix of a longer one.
    pub trail: Vec<u64>,
    /// Simulated outcomes so far.
    pub outcomes: Outcomes,
    /// Ticks whose request count did not balance.
    pub unbalanced_ticks: u64,
    /// The first imbalance, for the error message.
    pub first_imbalance: Option<String>,
}

impl Ledger {
    /// An empty ledger for a run judged against `response_target`.
    pub fn new(response_target: f64) -> Self {
        Ledger {
            digest: Fnv::new(),
            response_target,
            trail: Vec::new(),
            outcomes: Outcomes::default(),
            unbalanced_ticks: 0,
            first_imbalance: None,
        }
    }

    /// Fold one tick's directives, in actuation order, into the digest.
    pub fn directives(&mut self, directives: &[Directive]) {
        let h = &mut self.digest;
        for d in directives {
            h.u64(d.tick);
            h.f64(d.time);
            h.u64(match d.level {
                Level::L0 => 0,
                Level::L1 => 1,
                Level::L2 => 2,
            });
            h.u64(d.epoch);
            match &d.kind {
                DirectiveKind::Frequency { computer, index } => {
                    h.u64(10);
                    h.usize(*computer);
                    h.usize(*index);
                }
                DirectiveKind::Activation { computer, on } => {
                    h.u64(11);
                    h.usize(*computer);
                    h.u64(u64::from(*on));
                }
                DirectiveKind::Split { module, weights } => {
                    h.u64(12);
                    h.usize(module.map_or(usize::MAX, |m| m));
                    h.usize(weights.len());
                    for &w in weights {
                        h.f64(w);
                    }
                }
                DirectiveKind::SafeMode { module, active } => {
                    h.u64(13);
                    h.usize(*module);
                    h.u64(u64::from(*active));
                }
            }
        }
    }

    /// Close tick `tick` after the plant advanced through its window:
    /// fold the simulated fields of `TickRecord` (everything but the
    /// wall-clock `decision_time`) into the digest, accumulate the
    /// outcomes, and check that every request injected so far is
    /// completed, queued or dropped.
    pub fn tick(&mut self, tick: u64, arrivals: u64, sim: &ClusterSim, stats: &[WindowStats]) {
        let n = sim.num_computers();
        let completions: u64 = stats.iter().map(|w| w.completions).sum();
        let response_sum: f64 = stats.iter().map(|w| w.response_sum).sum();
        let mean_response = (completions > 0).then(|| response_sum / completions as f64);
        let queued: usize = (0..n).map(|i| sim.computer(i).queue_length()).sum();

        let h = &mut self.digest;
        h.u64(tick);
        h.u64(arrivals);
        h.u64(completions);
        h.f64(mean_response.unwrap_or(-1.0));
        h.usize(sim.active_count());
        for i in 0..n {
            let c = sim.computer(i);
            h.usize(c.frequency_index());
            h.usize(c.queue_length());
            h.u64(u64::from(c.is_active()));
        }
        for w in stats {
            h.f64(w.mean_response().unwrap_or(-1.0));
        }
        h.f64(sim.total_energy());
        h.u64(sim.dropped());
        self.trail.push(h.0);

        let o = &mut self.outcomes;
        o.arrivals += arrivals;
        o.completions += completions;
        if let Some(r) = mean_response {
            o.weighted_response += r * completions as f64;
            o.windows_with_completions += 1;
            if r > self.response_target {
                o.violations += 1;
            }
        }
        o.energy = sim.total_energy();
        o.dropped = sim.dropped();
        o.switch_ons = (0..n).map(|i| sim.computer(i).switch_ons()).sum();

        let accounted = o.completions + queued as u64 + o.dropped;
        if accounted != o.arrivals {
            self.unbalanced_ticks += 1;
            if self.first_imbalance.is_none() {
                self.first_imbalance = Some(format!(
                    "tick {tick}: arrived {} != completed {} + queued {queued} + dropped {}",
                    o.arrivals, o.completions, o.dropped
                ));
            }
        }
    }

    /// The digest over every tick so far.
    pub fn digest(&self) -> u64 {
        self.digest.0
    }
}
