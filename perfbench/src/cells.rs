//! The four workloads and their cells.
//!
//! A workload is a fixed list of cells built from the seed; the timed
//! loop runs the list again and again, one cell after the other (a
//! closed batch: a cell starts when the previous one ends). Every cell
//! is one call chain into the crates' public API and is timed whole.

use crate::alloc::AllocCount;
use crate::spans::span;
use rda_bench::traceout::TraceBundle;
use rda_core::{
    mb, BreakerConfig, Demand, LayerSet, LayerSpec, OverloadConfig, PolicyKind, RdaConfig,
    RdaStats, ShedPolicy, TopoConfig, TopoSpec,
};
use rda_machine::MachineConfig;
use rda_sched::SchedStats;
use rda_sim::experiment::paper_policies;
use rda_sim::runner::DEFAULT_ROOT_SEED;
use rda_sim::system::RunResult;
use rda_sim::{
    FaultConfig, SimConfig, SystemSim, TopoTrafficConfig, TopoTrafficSim, TrafficConfig, TrafficSim,
};
use rda_simcore::{Fnv1a64, SplitMix64};
use rda_trace::Log2Hist;
use rda_workloads::spec::all_workloads;
use rda_workloads::WorkloadSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 24 headline cells: 8 Table-2 workloads × the 3 paper policies.
    PaperGrid,
    /// Open-loop web traffic into the scalar admission engine.
    OverloadTraffic,
    /// Two-tenant traffic into the multi-node topology engine.
    TopoLayers,
    /// The 16 RDA-policy headline cells, traced and exported.
    TracedExport,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::OverloadTraffic,
        Workload::TopoLayers,
        Workload::TracedExport,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::OverloadTraffic => "overload_traffic",
            Workload::TopoLayers => "topo_layers",
            Workload::TracedExport => "traced_export",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The sweep root seed for a benchmark seed. Seed 0 is the repository's
/// default root seed, so `--seed 0` reproduces the `exp_*` binaries.
pub fn root_seed(seed: u64) -> u64 {
    DEFAULT_ROOT_SEED ^ seed
}

/// Open-system traffic windows and rates (from `exp_overload` and
/// `exp_layers`).
const OVERLOAD_WINDOW_S: f64 = 0.4;
const OVERLOAD_RATES: [f64; 3] = [1_000.0, 8_000.0, 20_000.0];
const TOPO_WINDOW_S: f64 = 0.25;
const TOPO_RATE: f64 = 12_000.0;
const TOPO_NODES: [usize; 2] = [2, 4];
/// Fault rate of every traffic cell.
pub const FAULT_RATE: f64 = 0.05;
const SHED_POLICIES: [ShedPolicy; 3] = [
    ShedPolicy::RejectNewest,
    ShedPolicy::RejectOldest,
    ShedPolicy::DegradeToOverflow,
];

/// `exp_overload`'s overload control: waitlist cap 16, ~21 ms deadline
/// and the saturation breaker.
fn overload_cfg(shed_policy: ShedPolicy) -> OverloadConfig {
    OverloadConfig {
        waitlist_cap: 16,
        shed_policy,
        deadline_cycles: Some(40_000_000),
        breaker: Some(BreakerConfig {
            high_water: mb(14.0),
            low_water: mb(8.0),
            trip_after: 4,
            recover_after: 4,
            shed_min_demand: mb(1.0),
        }),
    }
}

/// `exp_layers`' topology: `nodes` uniform nodes, a batch layer and a
/// latency layer that may hold a capacity guarantee.
fn layered_topo(nodes: usize, guarantee: bool, shed: ShedPolicy) -> TopoConfig {
    let mut latency = LayerSpec::new("latency", PolicyKind::Strict);
    if guarantee {
        latency = latency.with_guarantee(Demand::new(4 << 20, 1_500, 64 << 20));
    }
    let layers = LayerSet::new(vec![LayerSpec::new("batch", PolicyKind::Strict), latency]);
    TopoConfig::new(
        TopoSpec::uniform(nodes, 15_360 << 10, 6_000, 1 << 30),
        layers,
    )
    .with_waitlist_timeout_cycles(40_000_000)
    .with_overload(overload_cfg(shed))
}

/// What a cell runs.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// One `SystemSim` execution of a Table-2 workload.
    Grid {
        /// The workload.
        spec: WorkloadSpec,
        /// The simulator configuration, jitter seed included.
        cfg: SimConfig,
        /// Export the trace as `--trace-out` does.
        traced: bool,
    },
    /// One scalar-engine traffic run.
    Traffic {
        /// Arrival shape.
        traffic: TrafficConfig,
        /// Admission configuration.
        rda: RdaConfig,
        /// The ready-built simulation.
        sim: TrafficSim,
        /// Run seed.
        seed: u64,
    },
    /// One topology-engine traffic run.
    Topo {
        /// Arrival shape.
        traffic: TopoTrafficConfig,
        /// Topology and layers (before per-request layer assignment).
        topo: TopoConfig,
        /// The ready-built simulation.
        sim: TopoTrafficSim,
        /// Run seed.
        seed: u64,
    },
}

/// One cell of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index the cell's seed is derived from and its digest is folded
    /// under (the grid index for headline cells).
    pub index: usize,
    /// Human-readable label.
    pub label: String,
    /// Policy of a headline cell (`Strict` for traffic cells).
    pub policy: PolicyKind,
    /// Requests the cell's arrival plan holds (traffic cells only).
    pub planned: u64,
    /// What to run.
    pub kind: CellKind,
}

/// Build the cells of `workload` for `seed`. This is the set-up the
/// benchmark times as `setup_s`: workload specs, configurations, seeds
/// and, for traffic cells, the arrival plans the outputs are checked
/// against.
pub fn build(workload: Workload, seed: u64) -> Vec<Cell> {
    let root = root_seed(seed);
    match workload {
        Workload::PaperGrid => grid_cells(root, false),
        Workload::TracedExport => grid_cells(root, true),
        Workload::OverloadTraffic => overload_cells(root),
        Workload::TopoLayers => topo_cells(root),
    }
}

/// The headline grid in `run_sweep` order (workload-major, paper
/// policies), each cell's jitter seed derived from its grid index.
/// `traced` keeps only the RDA-policy cells and turns tracing on.
fn grid_cells(root: u64, traced: bool) -> Vec<Cell> {
    let grid = all_workloads()
        .into_iter()
        .flat_map(|spec| paper_policies().into_iter().map(move |p| (spec.clone(), p)));
    let mut cells = Vec::new();
    for (index, (spec, policy)) in grid.enumerate() {
        if traced && !policy.is_gating() {
            continue;
        }
        let cfg = SimConfig::paper_default(policy)
            .with_jitter_seed(SplitMix64::derive_stream(root, index as u64));
        let cfg = if traced { cfg.with_trace() } else { cfg };
        cells.push(Cell {
            index,
            label: format!("{}/{}", spec.name, policy),
            policy,
            planned: 0,
            kind: CellKind::Grid { spec, cfg, traced },
        });
    }
    cells
}

fn overload_cells(root: u64) -> Vec<Cell> {
    let machine = MachineConfig::xeon_e5_2420();
    let mut cells = Vec::new();
    for rate in OVERLOAD_RATES {
        for shed in SHED_POLICIES {
            let index = cells.len();
            let seed = SplitMix64::derive_stream(root, index as u64);
            let traffic = TrafficConfig::web_default(rate, OVERLOAD_WINDOW_S);
            let rda = RdaConfig::for_machine(&machine, PolicyKind::Strict)
                .with_overload(overload_cfg(shed));
            let planned = rda_sim::TrafficPlan::generate(&traffic, seed).len() as u64;
            let sim = TrafficSim::new(traffic.clone(), rda.clone())
                .with_faults(FaultConfig::uniform(FAULT_RATE));
            cells.push(Cell {
                index,
                label: format!("{rate:.0}rps/{shed:?}"),
                policy: PolicyKind::Strict,
                planned,
                kind: CellKind::Traffic {
                    traffic,
                    rda,
                    sim,
                    seed,
                },
            });
        }
    }
    cells
}

fn topo_cells(root: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for nodes in TOPO_NODES {
        for guarantee in [false, true] {
            for shed in SHED_POLICIES {
                let index = cells.len();
                let seed = SplitMix64::derive_stream(root, index as u64);
                let traffic = TopoTrafficConfig::two_tenant(TOPO_RATE, TOPO_WINDOW_S);
                let topo = layered_topo(nodes, guarantee, shed);
                let planned =
                    rda_sim::TrafficPlan::generate(&scalar_shape(&traffic), seed).len() as u64;
                let sim = TopoTrafficSim::new(traffic.clone(), topo.clone())
                    .with_faults(FaultConfig::uniform(FAULT_RATE));
                cells.push(Cell {
                    index,
                    label: format!(
                        "{nodes}n/{}/{shed:?}",
                        if guarantee { "guar" } else { "free" }
                    ),
                    policy: PolicyKind::Strict,
                    planned,
                    kind: CellKind::Topo {
                        traffic,
                        topo,
                        sim,
                        seed,
                    },
                });
            }
        }
    }
    cells
}

/// The scalar arrival shape the topology engine draws its plan from:
/// arrival times, classes and service times depend only on the
/// pattern, the class weights and the attempt count, not on the
/// demand amounts.
pub fn scalar_shape(t: &TopoTrafficConfig) -> TrafficConfig {
    TrafficConfig {
        pattern: t.pattern,
        duration_secs: t.duration_secs,
        cycles_per_sec: t.cycles_per_sec,
        demand_classes: t.classes.iter().map(|c| (1, c.weight)).collect(),
        mean_service_cycles: t.mean_service_cycles,
        max_attempts: t.max_attempts,
        backoff_base_cycles: t.backoff_base_cycles,
        age_tick_cycles: t.age_tick_cycles,
        record_calls: false,
    }
}

/// What a headline cell produced.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Allocations made by `SystemSim::new` and `run`.
    pub alloc: AllocCount,
    /// Simulated GFLOPS.
    pub gflops: f64,
    /// Simulated system energy, J.
    pub system_j: f64,
    /// Simulated instructions retired.
    pub instructions: u64,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Trace events the report holds (traced cells).
    pub trace_events: u64,
    /// Events the trace ring dropped (traced cells).
    pub dropped_events: u64,
    /// Bytes of serialised export (traced cells).
    pub export_bytes: u64,
}

/// What a traffic cell produced.
#[derive(Debug, Clone)]
pub struct TrafficOutcome {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests served.
    pub completed: u64,
    /// Requests refused for good: failed, expired or stranded.
    pub refused: u64,
    /// Client retries.
    pub retries: u64,
    /// Arrival window, simulated seconds.
    pub window_s: f64,
    /// Sojourn histogram, cycles.
    pub sojourn: Log2Hist,
    /// Final extension counters.
    pub rda: RdaStats,
}

/// The result of one cell execution.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Digest of everything the cell decided.
    pub digest: u64,
    /// Headline-cell results.
    pub sim: Option<SimOutcome>,
    /// Traffic-cell results.
    pub traffic: Option<TrafficOutcome>,
}

/// Run one cell under `catch_unwind`. `Err` carries the reason the cell
/// failed: a simulation error, a panic, or an output check.
pub fn run_cell(cell: &Cell, cell_no: usize) -> Result<Outcome, String> {
    catch(|| run_cell_inner(cell, cell_no))
}

/// Run `f`, turning a panic into an `Err` with the panic message.
pub fn catch<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())),
    }
}

fn run_cell_inner(cell: &Cell, cell_no: usize) -> Result<Outcome, String> {
    match &cell.kind {
        CellKind::Grid { spec, cfg, traced } => {
            let before = AllocCount::now();
            let mut sim = {
                let _s = span("sim.new", cell_no);
                SystemSim::new(cfg.clone(), spec)
            };
            let result = {
                let _s = span("sim.run", cell_no);
                sim.run()?
            };
            let alloc = AllocCount::since(before);
            let mut out = grid_outcome(&result, alloc);
            if *traced {
                let report = result
                    .trace
                    .clone()
                    .ok_or("traced cell returned no trace")?;
                let sim_out = out.sim.as_mut().expect("grid outcome");
                sim_out.trace_events = report.events.len() as u64;
                sim_out.dropped_events = report.dropped_events;
                let text = export(&cell.label, report, cell_no);
                sim_out.export_bytes = text.len() as u64;
            }
            Ok(out)
        }
        CellKind::Traffic {
            traffic, sim, seed, ..
        } => {
            let r = {
                let _s = span("traffic.run", cell_no);
                sim.run(*seed)
            };
            let t = TrafficOutcome {
                arrivals: r.arrivals,
                completed: r.completed,
                refused: r.failed + r.expired + r.stranded,
                retries: r.retries,
                window_s: traffic.duration_secs,
                sojourn: r.sojourn.clone(),
                rda: r.rda,
            };
            check_books(cell, &t, r.killed)?;
            Ok(Outcome {
                digest: r.digest(),
                sim: None,
                traffic: Some(t),
            })
        }
        CellKind::Topo {
            traffic, sim, seed, ..
        } => {
            let r = {
                let _s = span("traffic.run", cell_no);
                sim.run(*seed)
            };
            if !r.drained_idle {
                return Err(format!(
                    "{}: topology books did not drain to idle",
                    cell.label
                ));
            }
            let t = TrafficOutcome {
                arrivals: r.arrivals,
                completed: r.completed,
                refused: r.failed + r.expired + r.stranded,
                retries: r.retries,
                window_s: traffic.duration_secs,
                sojourn: r.sojourn.clone(),
                rda: r.rda,
            };
            check_books(cell, &t, r.killed)?;
            Ok(Outcome {
                digest: r.digest(),
                sim: None,
                traffic: Some(t),
            })
        }
    }
}

/// Every planned request arrives and ends in exactly one terminal state.
fn check_books(cell: &Cell, t: &TrafficOutcome, killed: u64) -> Result<(), String> {
    if t.arrivals != cell.planned {
        return Err(format!(
            "{}: {} arrivals, plan holds {}",
            cell.label, t.arrivals, cell.planned
        ));
    }
    if t.completed + t.refused + killed != t.arrivals {
        return Err(format!(
            "{}: terminal states do not add up to arrivals",
            cell.label
        ));
    }
    Ok(())
}

fn grid_outcome(result: &RunResult, alloc: AllocCount) -> Outcome {
    let m = &result.measurement;
    Outcome {
        digest: result.digest(),
        sim: Some(SimOutcome {
            alloc,
            gflops: m.gflops(),
            system_j: m.system_joules(),
            instructions: m.counters.instructions,
            sched: result.sched,
            trace_events: 0,
            dropped_events: 0,
            export_bytes: 0,
        }),
        traffic: None,
    }
}

/// Export one run's trace the way `--trace-out` does: a one-run
/// `TraceBundle`, its Chrome document, then the serialised text.
fn export(label: &str, report: rda_trace::TraceReport, cell_no: usize) -> String {
    let mut bundle = TraceBundle::new();
    bundle.add(label.to_string(), report);
    let doc = {
        let _s = span("trace.export", cell_no);
        bundle.to_chrome_json()
    };
    let _s = span("json.serialize", cell_no);
    doc.to_string_pretty()
}

/// Fold `(cell index, digest)` pairs in cell order, as the `exp_*`
/// sweeps fold theirs.
pub fn workload_digest<'a>(pairs: impl IntoIterator<Item = (usize, &'a Outcome)>) -> u64 {
    let mut h = Fnv1a64::new();
    for (index, out) in pairs {
        h.write_usize(index).write_u64(out.digest);
    }
    h.finish()
}
