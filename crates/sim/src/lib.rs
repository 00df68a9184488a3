//! # rda-sim
//!
//! The full-system simulator: the piece that stands in for "a 12-core
//! Xeon E5-2420 running CentOS with a modified Linux 4.6 kernel".
//!
//! [`system::SystemSim`] executes a [`rda_workloads::WorkloadSpec`]
//! under one scheduling policy:
//!
//! * thread scheduling by the CFS substrate (`rda-sched`),
//! * progress-period gating by the RDA extension (`rda-core`),
//! * instruction rates from the analytical machine model
//!   (`rda-machine`), re-solved whenever the co-running set changes —
//!   including LLC capacity sharing and DRAM queueing,
//! * RAPL-style energy integration per simulated interval.
//!
//! [`experiment`] wraps it into the paper's measurement loops
//! (Figures 7–10), [`overhead`] reproduces the Figure 11 granularity
//! study, [`concurrency`] the Figure 13 interference study, and
//! [`runner`] runs whole configuration grids on a deterministic pool
//! of scoped worker threads. [`traffic`] drives open-system request
//! traffic through either admission engine ([`topo_traffic`] supplies
//! the topology one).

#![warn(missing_docs)]

pub mod concurrency;
pub mod config;
pub mod experiment;
pub mod faults;
pub mod overhead;
pub mod runner;
pub mod system;
pub mod topo_traffic;
pub mod traffic;

pub use config::SimConfig;
pub use faults::{FaultConfig, FaultPlan, PhaseFault};
pub use experiment::{run_workload, PolicyRun};
pub use runner::{
    run_indexed, run_sweep, run_sweep_configured, RunConfig, RunError, RunRecord, RunnerOptions,
    Shard, SweepGrid, SweepResult,
};
pub use system::SystemSim;
pub use topo_traffic::{
    run_topo_cells, topo_sweep_digest, TopoCall, TopoCell, TopoCellRecord, TopoClass,
    TopoTrafficConfig, TopoTrafficResult, TopoTrafficSim,
};
pub use traffic::{
    ArrivalPattern, TrafficConfig, TrafficPlan, TrafficResult, TrafficSim, TRAFFIC_STREAM,
};
