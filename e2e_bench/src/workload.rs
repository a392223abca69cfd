//! The benchmark's workloads and their inputs, all derived from the
//! `--seed` argument. Arrivals are open-loop in simulated time: the trace
//! fixes them whatever the cluster does, so a backlog can grow.

use llc_cluster::{
    paper_cluster_16, single_module, Experiment, FaultToleranceConfig, HierarchicalPolicy,
    PolicyBuilder, RetrainConfig, ScenarioConfig,
};
use llc_core::OnlineConfig;
use llc_workload::{
    fault_scenarios, wc98_like_fig6, CapacityProfile, FaultEvent, FaultKind, FaultPlan, Trace,
    VirtualStore,
};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5.2 experiment (Fig. 6): 16 machines in 4 modules,
    /// L0/L1/L2 on dense offline maps, the WC'98-like trace.
    Paper16Wc98,
    /// The self-healing stack of `examples/control_plane.rs` on one
    /// 4-machine module, stretched to 1440 ticks: hash maps, online
    /// learning, drift detection, retrain, watchdog and safe mode under
    /// crashes, a blackout and a silent capacity step.
    SelfhealChurn,
    /// `Paper16Wc98` split across loopback TCP: an agent thread owns the
    /// plant, the controller thread owns the control plane.
    Paper16Wire,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Paper16Wc98,
        Workload::SelfhealChurn,
        Workload::Paper16Wire,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper16Wc98 => "paper16-wc98",
            Workload::SelfhealChurn => "selfheal-churn",
            Workload::Paper16Wire => "paper16-wire",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ticks of the shorter runs that check a full run: the traced run
    /// of a `--trace 0` invocation and the in-process reference of the
    /// wire workload must reproduce the full run's digest up to here.
    pub fn check_ticks(self) -> u64 {
        match self {
            Workload::Paper16Wc98 | Workload::Paper16Wire => 240,
            Workload::SelfhealChurn => SELFHEAL_BUCKETS as u64 * 4,
        }
    }
}

/// `selfheal-churn` length in 120 s trace buckets (4 ticks each).
const SELFHEAL_BUCKETS: usize = 360;

/// Everything a run is built from, apart from the policy.
pub struct Inputs {
    /// The scenario (plant layout and controller configuration).
    pub scenario: ScenarioConfig,
    /// Experiment settings: tick length, seed, drift and fault schedule.
    pub experiment: Experiment,
    /// The arrival trace at its native bucket width.
    pub trace: Trace,
    /// The trace rebucketed to one bucket per base tick.
    pub ticks_trace: Trace,
    /// Request bodies.
    pub store: VirtualStore,
}

impl Inputs {
    /// The inputs of `workload` for `seed`. `buckets` shortens the trace
    /// to that many native buckets (the fault schedule and drift step
    /// scale with it), for the equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is too short for the fault schedule.
    pub fn new(workload: Workload, seed: u64, buckets: Option<usize>) -> Inputs {
        match workload {
            Workload::Paper16Wc98 | Workload::Paper16Wire => {
                let mut trace = wc98_like_fig6(seed);
                if let Some(n) = buckets {
                    trace = trace.slice(0, n.min(trace.len()));
                }
                Inputs::assemble(
                    paper_cluster_16(),
                    Experiment::paper_default(seed),
                    trace,
                    seed,
                )
            }
            Workload::SelfhealChurn => {
                let scenario = single_module(4).with_coarse_learning().with_hash_maps();
                let capacity: f64 = scenario.member_specs()[0]
                    .iter()
                    .map(|m| m.speed / m.c_prior)
                    .sum();
                let buckets = buckets.unwrap_or(SELFHEAL_BUCKETS);
                // The crash-restart schedule (one crash with its queue
                // lost), plus a 16-tick blackout of 3 of the 4 machines
                // at two-thirds of the run: below the telemetry quorum,
                // so the module enters safe mode.
                let fs = fault_scenarios(seed, buckets, 120.0, capacity, 4).swap_remove(0);
                let ticks = buckets as u64 * 4;
                let blackout = ticks * 2 / 3;
                let mut events = fs.plan.events().to_vec();
                for computer in 1..4 {
                    events.push(FaultEvent {
                        tick: blackout,
                        computer,
                        kind: FaultKind::BlackoutStart,
                    });
                    events.push(FaultEvent {
                        tick: blackout + 16,
                        computer,
                        kind: FaultKind::BlackoutEnd,
                    });
                }
                // A silent step to 0.7 of nominal capacity at 55% of the
                // run, deep enough to fire drift detection and a rebuild.
                // (The 0.55 step of the example leaves a backlog that
                // grows to the end of a run this long.)
                let experiment = Experiment {
                    drift: Some(CapacityProfile::Step {
                        at: 0.55,
                        before: 1.0,
                        after: 0.7,
                    }),
                    faults: Some(FaultPlan::new(events)),
                    ..Experiment::paper_default(seed)
                };
                Inputs::assemble(scenario, experiment, fs.trace, seed)
            }
        }
    }

    fn assemble(
        scenario: ScenarioConfig,
        experiment: Experiment,
        trace: Trace,
        seed: u64,
    ) -> Inputs {
        let ticks_trace = trace
            .rebucket(experiment.t_l0)
            .expect("trace buckets are a whole number of ticks");
        Inputs {
            scenario,
            experiment,
            trace,
            ticks_trace,
            store: VirtualStore::paper_default(seed),
        }
    }

    /// Base ticks in the full run.
    pub fn total_ticks(&self) -> u64 {
        self.ticks_trace.len() as u64
    }

    /// Requests injected during tick `tick` (the rounding
    /// `Experiment::run` applies).
    pub fn arrivals(&self, tick: u64) -> usize {
        self.ticks_trace.count(tick as usize).round().max(0.0) as usize
    }

    /// Global computer indices per module.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut next = 0;
        self.scenario
            .modules
            .iter()
            .map(|module| {
                let ids = (next..next + module.len()).collect();
                next += module.len();
                ids
            })
            .collect()
    }
}

/// Build the workload's controller: the offline learning passes plus the
/// optional subsystems it runs with.
pub fn build_policy(workload: Workload, scenario: &ScenarioConfig) -> HierarchicalPolicy {
    match workload {
        Workload::Paper16Wc98 | Workload::Paper16Wire => HierarchicalPolicy::build(scenario),
        Workload::SelfhealChurn => PolicyBuilder::new(scenario.clone())
            .closed_loop(OnlineConfig::default())
            .fault_tolerance(FaultToleranceConfig::default())
            .retrain(RetrainConfig::default())
            .drift_aware_l0()
            .build(),
    }
}
