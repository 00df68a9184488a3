//! Layer probes: the scheduler and the machine model driven directly
//! through their public API with inputs shaped like the Table-2
//! workloads, so their per-call cost is measured on its own.

use rda_machine::{AccessProfile, MachineConfig, PerfModel, SegmentRates};
use rda_sched::{CfsScheduler, ProcessId, SchedConfig, TaskState};
use rda_simcore::SplitMix64;
use rda_workloads::spec::all_workloads;
use std::hint::black_box;
use std::time::Instant;

/// Scheduler probe rounds per Table-2 workload.
const SCHED_ROUNDS: usize = 20_000;
/// A rebalance pass every this many rounds.
const REBALANCE_EVERY: usize = 4;
/// Passes over every co-run set.
const SOLVE_PASSES: usize = 200;

/// Result of the scheduler probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedProbe {
    /// Mean ns per `pick_next` call.
    pub pick_ns: f64,
    /// `rebalance` calls.
    pub rebalances: u64,
    /// Mean ns per `rebalance` call.
    pub rebalance_ns: f64,
}

/// Drive a CFS scheduler per Table-2 workload: every round fills idle
/// cores with `pick_next` (timed per round), charges a timeslice,
/// blocks or wakes one seeded-random task, and puts running tasks back
/// on their queues; every few rounds a `rebalance` pass (timed) evens
/// the queues out.
pub fn sched_probe() -> SchedProbe {
    let machine = MachineConfig::xeon_e5_2420();
    let cores = machine.cores;
    let mut out = SchedProbe::default();
    let (mut pick_ns, mut rebalance_ns) = (0u64, 0u64);
    let mut calls = 0u64;
    for spec in all_workloads() {
        let mut sched = CfsScheduler::new(SchedConfig::from_machine(&machine));
        let mut tasks = Vec::new();
        for (p, program) in spec.processes.iter().enumerate() {
            for _ in 0..program.threads {
                tasks.push(sched.add_task(ProcessId(p as u32)));
            }
        }
        for &t in &tasks {
            sched.wake(t);
        }
        let mut rng = SplitMix64::new(0x5c4ed);
        for round in 0..SCHED_ROUNDS {
            let t0 = Instant::now();
            for core in 0..cores {
                if sched.running_on(core).is_none() {
                    calls += 1;
                    black_box(sched.pick_next(core));
                }
            }
            pick_ns += t0.elapsed().as_nanos() as u64;
            for core in 0..cores {
                if sched.running_on(core).is_some() {
                    let slice = sched.timeslice(core);
                    sched.charge(core, slice);
                }
            }
            let t = tasks[rng.next_below(tasks.len() as u64) as usize];
            match sched.task(t).state {
                TaskState::Blocked => {
                    sched.wake(t);
                }
                TaskState::Finished => {}
                _ => {
                    sched.block(t);
                }
            }
            for core in 0..cores {
                sched.yield_current(core);
            }
            if round % REBALANCE_EVERY == 0 {
                let t0 = Instant::now();
                black_box(sched.rebalance());
                rebalance_ns += t0.elapsed().as_nanos() as u64;
                out.rebalances += 1;
            }
        }
    }
    out.pick_ns = pick_ns as f64 / calls.max(1) as f64;
    out.rebalance_ns = rebalance_ns as f64 / out.rebalances.max(1) as f64;
    out
}

/// Result of the machine-model probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineProbe {
    /// `solve_corun_into` calls.
    pub solves: u64,
    /// Mean ns per 12-entry solve.
    pub solve_ns: f64,
    /// `rates` calls.
    pub rates: u64,
    /// Mean ns per `rates` call.
    pub rates_ns: f64,
}

/// One co-run set per (Table-2 workload, phase index): one entry per
/// core, filled round-robin from the workload's processes at that
/// phase, each with its LLC share of the set's distinct working sets.
fn corun_sets(perf: &PerfModel, cores: usize) -> Vec<Vec<(AccessProfile, u64)>> {
    let mut sets = Vec::new();
    for spec in all_workloads() {
        let phases = spec
            .processes
            .iter()
            .map(|p| p.phases.len())
            .max()
            .unwrap_or(0);
        for ph in 0..phases {
            let profiles: Vec<AccessProfile> = spec
                .processes
                .iter()
                .filter_map(|p| p.phases.get(ph.min(p.phases.len().saturating_sub(1))))
                .map(|phase| phase.profile)
                .collect();
            if profiles.is_empty() {
                continue;
            }
            let total_ws: u64 = profiles.iter().take(cores).map(|p| p.ws_bytes).sum();
            sets.push(
                (0..cores)
                    .map(|j| {
                        let prof = profiles[j % profiles.len()];
                        (prof, perf.llc_share(prof.ws_bytes, total_ws))
                    })
                    .collect(),
            );
        }
    }
    sets
}

/// Time `solve_corun_into` over every co-run set and `rates` over
/// every entry, [`SOLVE_PASSES`] times.
pub fn machine_probe() -> MachineProbe {
    let machine = MachineConfig::xeon_e5_2420();
    let cores = machine.cores;
    let perf = PerfModel::new(machine);
    let sets = corun_sets(&perf, cores);
    let mut buf: Vec<SegmentRates> = Vec::new();
    let mut out = MachineProbe::default();
    let t0 = Instant::now();
    for _ in 0..SOLVE_PASSES {
        for set in &sets {
            perf.solve_corun_into(black_box(set), &mut buf);
            black_box(&buf);
            out.solves += 1;
        }
    }
    out.solve_ns = t0.elapsed().as_nanos() as f64 / out.solves.max(1) as f64;
    let t0 = Instant::now();
    for _ in 0..SOLVE_PASSES {
        for (prof, share) in sets.iter().flatten() {
            black_box(perf.rates(black_box(prof), black_box(*share)));
            out.rates += 1;
        }
    }
    out.rates_ns = t0.elapsed().as_nanos() as f64 / out.rates.max(1) as f64;
    out
}
