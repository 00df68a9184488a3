//! Admission replay harness.
//!
//! A cell is run once more with call recording on; the recorded calls
//! are then replayed, in order, through a fresh `RdaExtension` or
//! `TopoExtension`, timing each call kind. A replay must end with the
//! same `RdaStats` as the live run, or the cell counts as failed. A
//! scalar call log can also be lifted onto the one-node topology
//! engine (`TopoConfig::compat`), which measures that engine on the
//! scalar workloads.

use crate::cells::{Cell, CellKind};
use crate::spans::span;
use rda_core::{
    Demand, LayerId, RdaConfig, RdaExtension, RdaStats, Resource, ResourceKind, TopoConfig,
    TopoExtension,
};
use rda_sim::system::RdaCall;
use rda_sim::{SystemSim, TopoCall, TopoTrafficSim, TrafficSim};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Index of `pp_begin` in [`KindTimes`]' arrays.
pub const BEGIN: usize = 0;
/// Index of `pp_end`.
pub const END: usize = 1;
/// Index of `process_exit`.
pub const EXIT: usize = 2;
/// Index of `age_waitlist`.
pub const AGE: usize = 3;
/// Index of `note_retry`.
pub const RETRY: usize = 4;

/// Per-kind call counts and summed host time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTimes {
    /// Calls per kind.
    pub calls: [u64; 5],
    /// Summed ns per kind (zero for an untimed replay).
    pub ns: [u64; 5],
}

impl KindTimes {
    /// Add another cell's times.
    pub fn absorb(&mut self, o: &KindTimes) {
        for k in 0..5 {
            self.calls[k] += o.calls[k];
            self.ns[k] += o.ns[k];
        }
    }

    /// Mean ns per call of kind `k` (0 without calls).
    pub fn mean_ns(&self, k: usize) -> f64 {
        if self.calls[k] == 0 {
            0.0
        } else {
            self.ns[k] as f64 / self.calls[k] as f64
        }
    }

    /// Calls of every kind.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// One engine's replay of one cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Final counters of the replaying engine.
    pub stats: RdaStats,
    /// Per-kind counts and, for a timed replay, per-kind time.
    pub kinds: KindTimes,
    /// Host time of one untimed pass over the whole log, ns.
    pub total_ns: u64,
}

/// Both replays of one cell.
#[derive(Debug, Clone, Default)]
pub struct CellReplay {
    /// Digest of the recording run (must equal the timed runs').
    pub digest: u64,
    /// Counters of the recording run itself.
    pub live: RdaStats,
    /// Replay through the scalar engine (scalar cells only).
    pub scalar: Option<Replay>,
    /// Replay through the topology engine: native for topology cells,
    /// lifted onto `TopoConfig::compat` for scalar cells.
    pub topo: Option<Replay>,
}

fn kind_of(c: &RdaCall) -> usize {
    match c {
        RdaCall::Begin { .. } => BEGIN,
        RdaCall::End { .. } => END,
        RdaCall::Exit { .. } => EXIT,
        RdaCall::Age { .. } => AGE,
        RdaCall::Retry { .. } => RETRY,
    }
}

fn topo_kind_of(c: &TopoCall) -> usize {
    match c {
        TopoCall::Begin { .. } => BEGIN,
        TopoCall::End { .. } => END,
        TopoCall::Exit { .. } => EXIT,
        TopoCall::Age { .. } => AGE,
        TopoCall::Retry { .. } => RETRY,
    }
}

fn scalar_call(ext: &mut RdaExtension, c: &RdaCall) {
    match *c {
        RdaCall::Begin {
            now,
            process,
            site,
            demand,
        } => {
            let _ = black_box(ext.pp_begin(process, site, demand, now));
        }
        RdaCall::End { now, pp } => {
            let _ = black_box(ext.pp_end(pp, now));
        }
        RdaCall::Exit { now, process } => {
            black_box(ext.process_exit(process, now));
        }
        RdaCall::Age { now } => {
            black_box(ext.age_waitlist(now));
        }
        RdaCall::Retry {
            now,
            process,
            site,
            resource,
        } => ext.note_retry(process, site, resource, now),
    }
}

fn topo_call(ext: &mut TopoExtension, c: &TopoCall) {
    match *c {
        TopoCall::Begin {
            now,
            process,
            site,
            demand,
        } => {
            let _ = black_box(ext.pp_begin(process, site, demand, now));
        }
        TopoCall::End { now, pp } => {
            let _ = black_box(ext.pp_end(pp, now));
        }
        TopoCall::Exit { now, process } => {
            black_box(ext.process_exit(process, now));
        }
        TopoCall::Age { now } => {
            black_box(ext.age_waitlist(now));
        }
        TopoCall::Retry {
            now,
            process,
            site,
            kind,
        } => ext.note_retry(process, site, kind, now),
    }
}

/// Replay `calls` through fresh engines built by `fresh`: once untimed
/// for the total, and once more timing every call when `timed`.
fn replay_with<E, C>(
    fresh: impl Fn() -> E,
    calls: &[C],
    apply: impl Fn(&mut E, &C),
    kind: impl Fn(&C) -> usize,
    stats: impl Fn(&E) -> RdaStats,
    timed: bool,
) -> Replay {
    let mut ext = fresh();
    let t0 = Instant::now();
    for c in calls {
        apply(&mut ext, c);
    }
    let total_ns = t0.elapsed().as_nanos() as u64;
    let mut kinds = KindTimes::default();
    for c in calls {
        kinds.calls[kind(c)] += 1;
    }
    if timed {
        let mut ext = fresh();
        for c in calls {
            let t = Instant::now();
            apply(&mut ext, c);
            kinds.ns[kind(c)] += t.elapsed().as_nanos() as u64;
        }
    }
    Replay {
        stats: stats(&ext),
        kinds,
        total_ns,
    }
}

fn lift_kind(r: Resource) -> ResourceKind {
    match r {
        Resource::Llc => ResourceKind::Llc,
        Resource::MemBandwidth => ResourceKind::MemBw,
    }
}

/// A scalar call log as the equivalent one-node topology log.
fn lift(calls: &[RdaCall]) -> Vec<TopoCall> {
    calls
        .iter()
        .map(|c| match *c {
            RdaCall::Begin {
                now,
                process,
                site,
                demand,
            } => TopoCall::Begin {
                now,
                process,
                site,
                demand: Demand::default().with(lift_kind(demand.resource), demand.amount),
            },
            RdaCall::End { now, pp } => TopoCall::End { now, pp },
            RdaCall::Exit { now, process } => TopoCall::Exit { now, process },
            RdaCall::Age { now } => TopoCall::Age { now },
            RdaCall::Retry {
                now,
                process,
                site,
                resource,
            } => TopoCall::Retry {
                now,
                process,
                site,
                kind: lift_kind(resource),
            },
        })
        .collect()
}

fn replay_scalar(cfg: &RdaConfig, calls: &[RdaCall], cell_no: usize, timed: bool) -> Replay {
    let _s = span("core.replay", cell_no);
    replay_with(
        || RdaExtension::new(cfg.clone()),
        calls,
        scalar_call,
        kind_of,
        RdaExtension::stats,
        timed,
    )
}

fn replay_topo(cfg: &TopoConfig, calls: &[TopoCall], cell_no: usize, timed: bool) -> Replay {
    let _s = span("topo.replay", cell_no);
    replay_with(
        || TopoExtension::new(cfg.clone()),
        calls,
        topo_call,
        topo_kind_of,
        TopoExtension::stats,
        timed,
    )
}

/// Record `cell` and replay its calls. `timed` adds the per-call timing
/// pass. `Err` when recording fails or a replay does not reproduce the
/// live counters.
pub fn replay_cell(cell: &Cell, cell_no: usize, timed: bool) -> Result<CellReplay, String> {
    let _s = span("check.replay", cell_no);
    let out = match &cell.kind {
        CellKind::Grid { spec, cfg, .. } => {
            let mut sim = SystemSim::new(cfg.clone().with_rda_trace(), spec);
            let result = sim.run()?;
            let rda_cfg = RdaConfig::for_machine(&cfg.machine, cfg.policy)
                .with_demand_audit(cfg.demand_audit);
            let calls = sim.rda_calls();
            CellReplay {
                digest: result.digest(),
                live: result.rda,
                scalar: Some(replay_scalar(&rda_cfg, calls, cell_no, timed)),
                topo: Some(replay_topo(
                    &TopoConfig::compat(&rda_cfg),
                    &lift(calls),
                    cell_no,
                    timed,
                )),
            }
        }
        CellKind::Traffic {
            traffic, rda, seed, ..
        } => {
            let mut recording = traffic.clone();
            recording.record_calls = true;
            let r = TrafficSim::new(recording, rda.clone())
                .with_faults(rda_sim::FaultConfig::uniform(crate::cells::FAULT_RATE))
                .run(*seed);
            let calls = r.calls.as_deref().ok_or("traffic run recorded no calls")?;
            CellReplay {
                digest: r.digest(),
                live: r.rda,
                scalar: Some(replay_scalar(rda, calls, cell_no, timed)),
                topo: Some(replay_topo(
                    &TopoConfig::compat(rda),
                    &lift(calls),
                    cell_no,
                    timed,
                )),
            }
        }
        CellKind::Topo {
            traffic,
            topo,
            seed,
            ..
        } => {
            let mut recording = traffic.clone();
            recording.record_calls = true;
            let r = TopoTrafficSim::new(recording, topo.clone())
                .with_faults(rda_sim::FaultConfig::uniform(crate::cells::FAULT_RATE))
                .run(*seed);
            let calls = r.calls.as_deref().ok_or("topology run recorded no calls")?;
            // The run assigns each request's process to its class's
            // layer; the replay engine needs the same assignments.
            let mut layers: BTreeMap<u32, LayerId> = BTreeMap::new();
            for c in calls {
                if let TopoCall::Begin { process, site, .. } = *c {
                    layers.insert(process.0, traffic.classes[site.0 as usize].layer);
                }
            }
            let mut assigned = topo.clone();
            for (process, layer) in layers {
                if layer != LayerId(0) {
                    assigned.layers.assign(process, layer);
                }
            }
            CellReplay {
                digest: r.digest(),
                live: r.rda,
                scalar: None,
                topo: Some(replay_topo(&assigned, calls, cell_no, timed)),
            }
        }
    };
    check(cell, &out)?;
    Ok(out)
}

/// The native replay reproduces the live counters exactly, and no
/// replay desynchronises its engine's books.
fn check(cell: &Cell, r: &CellReplay) -> Result<(), String> {
    let native = match &cell.kind {
        CellKind::Topo { .. } => r.topo,
        _ => r.scalar,
    };
    let native = native.ok_or("no native replay")?;
    if native.stats != r.live {
        return Err(format!(
            "{}: replayed counters {:?} differ from the live run's {:?}",
            cell.label, native.stats, r.live
        ));
    }
    for rep in [r.scalar, r.topo].into_iter().flatten() {
        if rep.stats.desyncs != 0 {
            return Err(format!(
                "{}: replay desynchronised {} times",
                cell.label, rep.stats.desyncs
            ));
        }
    }
    Ok(())
}
