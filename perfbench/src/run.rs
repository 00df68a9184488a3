//! One benchmark invocation: set-up, the timed closed batch, the output
//! checks, and the metrics.

use crate::alloc::peak_rss_mb;
use crate::cells::{self, scalar_shape, Cell, CellKind, Outcome, Workload};
use crate::pace::{self, NOMINAL_SLICE_MS};
use crate::probes;
use crate::replay::{replay_cell, CellReplay, KindTimes, AGE, BEGIN, END, EXIT};
use crate::spans::{self, Span, NO_CELL};
use crate::stats::{geomean, median, merged_quantile, percentile};
use rda_core::PolicyKind;
use rda_metrics::Json;
use rda_sim::SystemSim;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-ups in an untraced run: one before the first cell, the rest
/// spread evenly over the timed passes (between passes, outside the
/// timed time), so their median sees the same machine as the cells.
const SETUP_REPEATS: usize = 24;
/// Host-speed slices run after each set-up to pace it.
const SETUP_SLICES: usize = 4;
/// A timed run holds at least this many cells, so that at least ten of
/// them lie beyond the reported p90.
pub const MIN_CELLS: usize = 200;
/// Simulated clock of every workload, Hz.
const FREQ_HZ: f64 = 1.9e9;

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: rda-perfbench --workload <paper_grid|overload_traffic|topo_layers|traced_export> \
--seed <n> --seconds <s> --trace <0|1>";

/// Parse `--workload W --seed N --seconds S --trace 0|1` (all required).
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Timed cell executions.
    pub attempted: u64,
    /// Executions that failed or belong to a cell that failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Fold of every cell's digest, in cell order.
    pub digest: u64,
    /// Human-readable lines printed before the result.
    pub notes: String,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Look a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Per-cell bookkeeping across the timed passes.
struct Book {
    /// First successful outcome per cell. In a traced run it comes from
    /// the untraced half, so its allocation count excludes the recorder.
    first: Vec<Option<Outcome>>,
    executions: Vec<u64>,
    failures: Vec<u64>,
    /// Set when a check outside the timed loop failed for the cell.
    rejected: Vec<bool>,
    errors: Vec<String>,
}

impl Book {
    fn new(n: usize) -> Self {
        Book {
            first: vec![None; n],
            executions: vec![0; n],
            failures: vec![0; n],
            rejected: vec![false; n],
            errors: Vec::new(),
        }
    }

    fn note(&mut self, cells: &[Cell], i: usize, result: Result<Outcome, String>) {
        self.executions[i] += 1;
        match result {
            Ok(out) => {
                if let Some(first) = &self.first[i] {
                    if first.digest != out.digest {
                        self.fail(
                            i,
                            format!("{}: digest changed between repeats", cells[i].label),
                        );
                    }
                } else {
                    self.first[i] = Some(out);
                }
            }
            Err(e) => self.fail(i, format!("{}: {e}", cells[i].label)),
        }
    }

    fn fail(&mut self, i: usize, msg: String) {
        self.failures[i] += 1;
        if self.errors.len() < 16 {
            self.errors.push(msg);
        }
    }

    fn reject(&mut self, i: usize, msg: String) {
        self.rejected[i] = true;
        if self.errors.len() < 16 {
            self.errors.push(msg);
        }
    }

    fn attempted(&self) -> u64 {
        self.executions.iter().sum()
    }

    fn failed(&self) -> u64 {
        (0..self.executions.len())
            .map(|i| {
                if self.rejected[i] {
                    self.executions[i]
                } else {
                    self.failures[i]
                }
            })
            .sum()
    }

    /// First outcome of every cell, or `None` if any cell never succeeded.
    fn outcomes(&self) -> Option<Vec<&Outcome>> {
        self.first.iter().map(|o| o.as_ref()).collect()
    }
}

/// Host time of a stretch of whole passes.
#[derive(Debug, Clone, Default)]
struct Timed {
    cell_ns: Vec<u64>,
    /// The host-speed slice run right after each cell, ms.
    slice_ms: Vec<f64>,
    elapsed_ns: u64,
    passes: u64,
}

impl Timed {
    /// Mean time of a pass's cells, without the slices between them.
    fn pass_ns(&self) -> f64 {
        self.cell_ns.iter().sum::<u64>() as f64 / self.passes.max(1) as f64
    }

    /// Every cell time, ms, stated at the nominal host speed: each
    /// pass's times divided by the pass's mean slice time and
    /// multiplied by [`NOMINAL_SLICE_MS`].
    fn paced_ms(&self, cells: usize) -> Vec<f64> {
        self.cell_ns
            .chunks(cells)
            .zip(self.slice_ms.chunks(cells))
            .flat_map(|(ns, slices)| {
                let mean_slice = sum(slices.iter().copied()) / slices.len() as f64;
                let scale = NOMINAL_SLICE_MS / mean_slice / 1e6;
                ns.iter().map(move |&n| n as f64 * scale)
            })
            .collect()
    }
}

/// Run whole passes over `cells` until `seconds` of them have passed
/// and at least `min_cells` cells ran. `between` runs after a pass when
/// it asks to (it gets the measured seconds so far); its time is
/// excluded from the measurement.
fn timed_passes(
    cells: &[Cell],
    book: &mut Book,
    seconds: f64,
    min_cells: usize,
    mut between: impl FnMut(f64),
) -> Timed {
    let mut timed = Timed::default();
    let start = Instant::now();
    let mut excluded = Duration::ZERO;
    loop {
        for (i, cell) in cells.iter().enumerate() {
            let result = {
                let _s = spans::span("cell", i);
                let t0 = Instant::now();
                let result = cells::run_cell(cell, i);
                timed.cell_ns.push(t0.elapsed().as_nanos() as u64);
                result
            };
            timed.slice_ms.push(pace::slice_ms());
            book.note(cells, i, result);
        }
        timed.passes += 1;
        let measured = (start.elapsed() - excluded).as_secs_f64();
        if measured >= seconds && timed.cell_ns.len() >= min_cells {
            break;
        }
        let t0 = Instant::now();
        between(measured);
        excluded += t0.elapsed();
    }
    timed.elapsed_ns = (start.elapsed() - excluded).as_nanos() as u64;
    timed
}

/// Time one build of the cells, in seconds at the nominal host speed:
/// the build's wall time scaled by the mean of the slices run right
/// after it.
fn time_setup(workload: Workload, seed: u64) -> (Vec<Cell>, f64) {
    let t0 = Instant::now();
    let cells = std::hint::black_box(cells::build(workload, seed));
    let secs = t0.elapsed().as_secs_f64();
    let slice = sum((0..SETUP_SLICES).map(|_| pace::slice_ms())) / SETUP_SLICES as f64;
    (cells, secs * NOMINAL_SLICE_MS / slice)
}

/// Out-of-band checks and replays, run once after the timed passes.
#[derive(Default)]
struct Checked {
    replays: Vec<Option<CellReplay>>,
    /// Untraced twins' `sim.run` time, ns, by cell (traced_export).
    twin_run_ns: Vec<u64>,
    /// Size of the export parsed back, bytes, and the parse time, s.
    parsed: Option<(u64, f64)>,
}

fn run_checks(cells: &[Cell], book: &mut Book, timed_replay: bool) -> Checked {
    let mut checked = Checked::default();
    for (i, cell) in cells.iter().enumerate() {
        let r = crate::cells::catch(|| replay_cell(cell, i, timed_replay));
        match r {
            Ok(rep) => {
                if book.first[i]
                    .as_ref()
                    .is_some_and(|o| o.digest != rep.digest)
                {
                    book.reject(i, format!("{}: recording changed the digest", cell.label));
                }
                checked.replays.push(Some(rep));
            }
            Err(e) => {
                book.reject(i, format!("{}: replay: {e}", cell.label));
                checked.replays.push(None);
            }
        }
    }
    // Traced cells: the untraced twin must decide exactly the same.
    for (i, cell) in cells.iter().enumerate() {
        let CellKind::Grid {
            spec,
            cfg,
            traced: true,
        } = &cell.kind
        else {
            continue;
        };
        let mut twin_cfg = cfg.clone();
        twin_cfg.trace = None;
        let r = crate::cells::catch(|| {
            let _s = spans::span("check.twin", i);
            let mut sim = SystemSim::new(twin_cfg.clone(), spec);
            let t0 = Instant::now();
            let result = sim.run()?;
            Ok((result.digest(), t0.elapsed().as_nanos() as u64))
        });
        match r {
            Ok((digest, ns)) => {
                checked.twin_run_ns.push(ns);
                if book.first[i].as_ref().is_some_and(|o| o.digest != digest) {
                    book.reject(
                        i,
                        format!("{}: traced digest differs from untraced", cell.label),
                    );
                }
            }
            Err(e) => book.reject(i, format!("{}: untraced twin: {e}", cell.label)),
        }
    }
    // One export per run parses back to the document it was made from:
    // the smallest one, as parse time grows with size.
    let smallest = (0..cells.len())
        .filter(|&i| matches!(cells[i].kind, CellKind::Grid { traced: true, .. }))
        .filter_map(|i| Some((book.first[i].as_ref()?.sim.as_ref()?.export_bytes, i)))
        .min();
    if let Some((_, i)) = smallest {
        match crate::cells::catch(|| parse_back(&cells[i], i)) {
            Ok(p) => checked.parsed = Some(p),
            Err(e) => book.reject(i, format!("{}: export parse-back: {e}", cells[i].label)),
        }
    }
    checked
}

/// Export `cell` again, parse the text back and compare it with the
/// document. Returns the text size and the parse time.
fn parse_back(cell: &Cell, cell_no: usize) -> Result<(u64, f64), String> {
    let CellKind::Grid { spec, cfg, .. } = &cell.kind else {
        return Err("not a headline cell".into());
    };
    let _s = spans::span("check.parse_back", cell_no);
    let result = SystemSim::new(cfg.clone(), spec).run()?;
    let report = result.trace.ok_or("no trace")?;
    let mut bundle = rda_bench::traceout::TraceBundle::new();
    bundle.add(cell.label.clone(), report);
    let doc = bundle.to_chrome_json();
    let text = doc.to_string_pretty();
    let t0 = Instant::now();
    let parsed = {
        let _s = spans::span("json.parse", cell_no);
        Json::parse(&text)?
    };
    let secs = t0.elapsed().as_secs_f64();
    let count = |j: &Json| {
        j.get("traceEvents")
            .and_then(Json::as_arr)
            .map(<[Json]>::len)
    };
    if count(&parsed).is_none() || parsed != doc {
        return Err(format!(
            "parsed {:?} events, document holds {:?}",
            count(&parsed),
            count(&doc)
        ));
    }
    Ok((text.len() as u64, secs))
}

/// Layer probes and arrival-plan generation, timed on their own.
struct Probes {
    sched: probes::SchedProbe,
    machine: probes::MachineProbe,
    plan_ms: Vec<f64>,
}

fn run_probes(cells: &[Cell]) -> Probes {
    let mut plan_ms = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let (shape, seed) = match &cell.kind {
            CellKind::Traffic { traffic, seed, .. } => (traffic.clone(), *seed),
            CellKind::Topo { traffic, seed, .. } => (scalar_shape(traffic), *seed),
            CellKind::Grid { .. } => continue,
        };
        let _s = spans::span("traffic.plan", i);
        let t0 = Instant::now();
        std::hint::black_box(rda_sim::TrafficPlan::generate(&shape, seed));
        plan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let sched = {
        let _s = spans::span("sched.probe", NO_CELL);
        probes::sched_probe()
    };
    let _s = spans::span("machine.probe", NO_CELL);
    Probes {
        sched,
        machine: probes::machine_probe(),
        plan_ms,
    }
}

/// Run the benchmark as `args` says.
pub fn run(args: &Args) -> Report {
    let (cells, first_setup_s) = time_setup(args.workload, args.seed);
    let mut book = Book::new(cells.len());
    let mut notes = String::new();
    let metrics;
    let mut spans_out = Vec::new();
    if !args.trace {
        let mut setups = vec![first_setup_s];
        let every = args.seconds / SETUP_REPEATS as f64;
        let timed = timed_passes(&cells, &mut book, args.seconds, MIN_CELLS, |measured| {
            if measured >= every * setups.len() as f64 {
                setups.push(time_setup(args.workload, args.seed).1);
            }
        });
        let setup_s = median(&setups);
        let rss = peak_rss_mb().unwrap_or(f64::NAN);
        let checked = run_checks(&cells, &mut book, false);
        if let Some((bytes, secs)) = checked.parsed {
            let _ = writeln!(
                notes,
                "parsed one {:.3} MiB export back in {secs:.3} s",
                bytes as f64 / (1 << 20) as f64
            );
        }
        let paced = timed.paced_ms(cells.len());
        let pass_ms: Vec<f64> = paced
            .chunks(cells.len())
            .map(|pass| sum(pass.iter().copied()))
            .collect();
        let cell_ms: Vec<f64> = (0..cells.len())
            .map(|i| median(&repeats(&paced, cells.len(), i)))
            .collect();
        let wall_pass_ms: Vec<f64> = timed
            .cell_ns
            .chunks(cells.len())
            .map(|pass| pass.iter().sum::<u64>() as f64 / 1e6)
            .collect();
        let attempted = book.attempted();
        let ok = attempted - book.failed();
        metrics = vec![
            m(
                "cells_per_s",
                cells.len() as f64 / (median(&pass_ms) / 1e3),
                "1/s",
            ),
            m("cell_ms_p50", median(&cell_ms), "ms"),
            m("cell_ms_p90", percentile(&paced, 0.90), "ms"),
            m("setup_s", setup_s, "s"),
            m("peak_rss_mb", rss, "MiB"),
            m("success_rate", ok as f64 / attempted.max(1) as f64, "ratio"),
        ];
        let _ = writeln!(
            notes,
            "{}: {} cells in {} passes over {:.2} s; {} set-ups; host speed {:.3} \
             (nominal slice {NOMINAL_SLICE_MS} ms / median slice {:.4} ms); wall-time \
             pass {:.2} ms (median)",
            args.workload.name(),
            timed.cell_ns.len(),
            timed.passes,
            timed.elapsed_ns as f64 / 1e9,
            setups.len(),
            NOMINAL_SLICE_MS / median(&timed.slice_ms),
            median(&timed.slice_ms),
            median(&wall_pass_ms),
        );
    } else {
        // Half the time untraced, half with spans on: the ratio of the
        // two is the span recorder's own overhead.
        let plain = timed_passes(&cells, &mut book, args.seconds / 2.0, 0, |_| {});
        spans::enable();
        let traced = timed_passes(&cells, &mut book, args.seconds / 2.0, 0, |_| {});
        let checked = run_checks(&cells, &mut book, true);
        let extra = run_probes(&cells);
        spans_out = spans::take();
        let (layer, bases) =
            layer_metrics(&cells, &book, &spans_out, &checked, &extra, &plain, &traced);
        metrics = layer;
        let _ = writeln!(notes, "{bases}");
        notes.push_str(&spans::self_time_table(args.workload.name(), &spans_out));
    }
    let digest = match book.outcomes() {
        Some(outs) => cells::workload_digest(cells.iter().map(|c| c.index).zip(outs)),
        None => 0,
    };
    let _ = writeln!(notes, "{} digest: {digest:#018x}", args.workload.name());
    for e in &book.errors {
        let _ = writeln!(notes, "check failed: {e}");
    }
    Report {
        correct: book.failed() == 0 && book.errors.is_empty(),
        attempted: book.attempted(),
        failed: book.failed(),
        metrics,
        digest,
        notes,
        spans: spans_out,
    }
}

fn repeats(ms: &[f64], cells: usize, i: usize) -> Vec<f64> {
    ms.iter().skip(i).step_by(cells).copied().collect()
}

/// Sum that reads `0.0`, not `-0.0`, when empty.
fn sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn policy_class(p: PolicyKind) -> &'static str {
    match p {
        PolicyKind::DefaultOnly => "default",
        PolicyKind::Strict => "strict",
        _ => "compromise",
    }
}

/// Mean duration (ns) of `layer` spans per cell, for cells that have any.
fn mean_ns_by_cell(spans: &[Span], layer: &str, n: usize) -> Vec<Option<f64>> {
    let mut sum = vec![0u64; n];
    let mut count = vec![0u64; n];
    for s in spans.iter().filter(|s| s.layer == layer) {
        sum[s.cell] += s.dur_ns();
        count[s.cell] += 1;
    }
    (0..n)
        .map(|i| (count[i] > 0).then(|| sum[i] as f64 / count[i] as f64))
        .collect()
}

fn mean_ms(spans: &[Span], layer: &str, keep: impl Fn(usize) -> bool) -> f64 {
    let (sum, n) = spans
        .iter()
        .filter(|s| s.layer == layer && keep(s.cell))
        .fold((0u64, 0u64), |(a, n), s| (a + s.dur_ns(), n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64 / 1e6
    }
}

/// Every per-layer metric; layers a workload does not reach read 0.
fn layer_metrics(
    cells: &[Cell],
    book: &Book,
    spans: &[Span],
    checked: &Checked,
    extra: &Probes,
    plain: &Timed,
    traced: &Timed,
) -> (Vec<Metric>, String) {
    let n = cells.len();
    let outs: Vec<Option<&Outcome>> = book.first.iter().map(|o| o.as_ref()).collect();
    let sims: Vec<_> = outs
        .iter()
        .filter_map(|o| o.and_then(|o| o.sim.as_ref()))
        .collect();
    let traffic: Vec<_> = outs
        .iter()
        .filter_map(|o| o.and_then(|o| o.traffic.as_ref()))
        .collect();
    let grid_cells: Vec<usize> = (0..n)
        .filter(|&i| outs[i].is_some_and(|o| o.sim.is_some()))
        .collect();

    // rda-sim system.
    let run_ns = mean_ns_by_cell(spans, "sim.run", n);
    let run_s_total = sum(grid_cells.iter().filter_map(|&i| run_ns[i])) / 1e9;
    let instr: u64 = sims.iter().map(|s| s.instructions).sum();
    let allocs: Vec<f64> = sims.iter().map(|s| s.alloc.allocs as f64).collect();
    let alloc_mb: Vec<f64> = sims
        .iter()
        .map(|s| s.alloc.bytes as f64 / (1 << 20) as f64)
        .collect();
    let by_policy =
        |class: &str| mean_ms(spans, "sim.run", |c| policy_class(cells[c].policy) == class);
    let switches: u64 = sims.iter().map(|s| s.sched.context_switches).sum();

    // Admission replays.
    let mut core = KindTimes::default();
    let mut topo = KindTimes::default();
    let (mut begins, mut fast, mut paused, mut shed, mut expired, mut trips) = (0, 0, 0, 0, 0, 0);
    let (mut max_wait, mut topo_shed, mut topo_desyncs) = (0, 0, 0);
    let mut native_replay_ns = 0u64;
    for rep in checked.replays.iter().flatten() {
        if let Some(s) = &rep.scalar {
            core.absorb(&s.kinds);
            begins += s.stats.begins;
            fast += s.stats.fast_begins;
            paused += s.stats.paused;
            shed += s.stats.shed;
            expired += s.stats.expired;
            trips += s.stats.breaker_trips;
            max_wait = max_wait.max(s.stats.max_waitlist);
        }
        if let Some(t) = &rep.topo {
            topo.absorb(&t.kinds);
            topo_shed += t.stats.shed;
            topo_desyncs += t.stats.desyncs;
        }
        if let Some(native) = rep.scalar.as_ref().or(rep.topo.as_ref()) {
            native_replay_ns += native.total_ns;
        }
    }
    let traffic_run_ns = sum(mean_ns_by_cell(spans, "traffic.run", n)
        .into_iter()
        .flatten());

    // Traffic outcomes.
    let arrivals: u64 = traffic.iter().map(|t| t.arrivals).sum();
    let window = sum(traffic.iter().map(|t| t.window_s));
    let p99_cycles = merged_quantile(traffic.iter().map(|t| &t.sojourn), 0.99);

    // Headline outcomes: Strict against Linux default, per workload.
    let (mut speedups, mut energy) = (Vec::new(), Vec::new());
    for &d in grid_cells
        .iter()
        .filter(|&&i| cells[i].policy == PolicyKind::DefaultOnly)
    {
        let workload = cells[d].label.split('/').next().unwrap_or("");
        let strict = grid_cells.iter().copied().find(|&i| {
            cells[i].policy == PolicyKind::Strict
                && cells[i].label.split('/').next() == Some(workload)
        });
        if let (Some(s), Some(base)) = (strict.and_then(|s| outs[s]), outs[d]) {
            let (s, base) = (
                s.sim.as_ref().expect("grid"),
                base.sim.as_ref().expect("grid"),
            );
            speedups.push(s.gflops / base.gflops);
            energy.push(s.system_j / base.system_j);
        }
    }

    // Trace export and JSON.
    let traced_cells: Vec<usize> = (0..n)
        .filter(|&i| matches!(cells[i].kind, CellKind::Grid { traced: true, .. }))
        .collect();
    let traced_run_ns = sum(traced_cells.iter().filter_map(|&i| run_ns[i]));
    let twin_ns = sum(checked.twin_run_ns.iter().map(|&x| x as f64));
    let export_mb: Vec<f64> = sims
        .iter()
        .filter(|s| s.export_bytes > 0)
        .map(|s| s.export_bytes as f64 / (1 << 20) as f64)
        .collect();

    let bases = format!(
        "bases: traffic.admission_share = {:.3} ms replay / {:.3} ms traffic.run; \
         trace.sim_overhead = {:.3} ms traced / {:.3} ms untraced sim.run; \
         bench.span_overhead = {:.3} ms / {:.3} ms per pass",
        native_replay_ns as f64 / 1e6,
        traffic_run_ns / 1e6,
        traced_run_ns / 1e6,
        twin_ns / 1e6,
        traced.pass_ns() / 1e6,
        plain.pass_ns() / 1e6
    );
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let metrics = vec![
        m("sim.new_ms", mean_ms(spans, "sim.new", |_| true), "ms"),
        m("sim.run_ms", mean_ms(spans, "sim.run", |_| true), "ms"),
        m("sim.run_ms.default", by_policy("default"), "ms"),
        m("sim.run_ms.strict", by_policy("strict"), "ms"),
        m("sim.run_ms.compromise", by_policy("compromise"), "ms"),
        m("sim.allocs_per_cell", mean(&allocs), "count"),
        m("sim.alloc_mb_per_cell", mean(&alloc_mb), "MiB"),
        m(
            "sim.minstr_per_host_s",
            ratio(instr as f64 / 1e6, run_s_total),
            "Minstr/s",
        ),
        m("sched.context_switches", switches as f64, "count"),
        m(
            "sched.migrations",
            sims.iter().map(|s| s.sched.migrations).sum::<u64>() as f64,
            "count",
        ),
        m(
            "sched.balance_moves",
            sims.iter().map(|s| s.sched.balance_moves).sum::<u64>() as f64,
            "count",
        ),
        m(
            "sched.wakeups",
            sims.iter().map(|s| s.sched.wakeups).sum::<u64>() as f64,
            "count",
        ),
        m(
            "sched.us_per_switch",
            ratio(run_s_total * 1e6, switches as f64),
            "us",
        ),
        m("sched.pick_ns", extra.sched.pick_ns, "ns"),
        m("sched.rebalance_ns", extra.sched.rebalance_ns, "ns"),
        m("machine.solve_ns", extra.machine.solve_ns, "ns"),
        m("machine.rates_ns", extra.machine.rates_ns, "ns"),
        m("core.calls", core.total_calls() as f64, "count"),
        m("core.begin_ns", core.mean_ns(BEGIN), "ns"),
        m("core.end_ns", core.mean_ns(END), "ns"),
        m("core.age_ns", core.mean_ns(AGE), "ns"),
        m("core.exit_ns", core.mean_ns(EXIT), "ns"),
        m(
            "core.fast_share",
            ratio(fast as f64, begins as f64),
            "ratio",
        ),
        m(
            "core.paused_share",
            ratio(paused as f64, begins as f64),
            "ratio",
        ),
        m("core.shed", shed as f64, "count"),
        m("core.expired", expired as f64, "count"),
        m("core.max_waitlist", max_wait as f64, "count"),
        m("core.breaker_trips", trips as f64, "count"),
        m("topo.calls", topo.total_calls() as f64, "count"),
        m("topo.begin_ns", topo.mean_ns(BEGIN), "ns"),
        m("topo.end_ns", topo.mean_ns(END), "ns"),
        m("topo.age_ns", topo.mean_ns(AGE), "ns"),
        m("topo.shed", topo_shed as f64, "count"),
        m("topo.desyncs", topo_desyncs as f64, "count"),
        m("traffic.plan_ms", mean(&extra.plan_ms), "ms"),
        m(
            "traffic.run_ms",
            mean_ms(spans, "traffic.run", |_| true),
            "ms",
        ),
        m(
            "traffic.admission_share",
            ratio(native_replay_ns as f64, traffic_run_ns),
            "ratio",
        ),
        m("traffic.requests", arrivals as f64, "count"),
        m(
            "traffic.retries",
            traffic.iter().map(|t| t.retries).sum::<u64>() as f64,
            "count",
        ),
        m(
            "trace.events",
            sims.iter().map(|s| s.trace_events).sum::<u64>() as f64,
            "count",
        ),
        m(
            "trace.dropped_events",
            sims.iter().map(|s| s.dropped_events).sum::<u64>() as f64,
            "count",
        ),
        m(
            "trace.export_ms",
            mean_ms(spans, "trace.export", |_| true),
            "ms",
        ),
        m("trace.export_mb", mean(&export_mb), "MiB"),
        m("trace.sim_overhead", ratio(traced_run_ns, twin_ns), "ratio"),
        m(
            "json.serialize_ms",
            mean_ms(spans, "json.serialize", |_| true),
            "ms",
        ),
        m(
            "json.parse_mb_s",
            checked
                .parsed
                .map_or(0.0, |(b, s)| ratio(b as f64 / (1 << 20) as f64, s)),
            "MiB/s",
        ),
        m(
            "bench.span_overhead",
            ratio(traced.pass_ns(), plain.pass_ns()),
            "ratio",
        ),
        m("rda_speedup", geomean(&speedups), "ratio"),
        m(
            "rda_energy_saving",
            if energy.is_empty() {
                0.0
            } else {
                1.0 - geomean(&energy)
            },
            "ratio",
        ),
        m(
            "goodput_per_s",
            ratio(
                traffic.iter().map(|t| t.completed).sum::<u64>() as f64,
                window,
            ),
            "req/sim_s",
        ),
        m(
            "sojourn_ms_p99",
            p99_cycles as f64 / FREQ_HZ * 1e3,
            "sim_ms",
        ),
        m(
            "refused_share",
            ratio(
                traffic.iter().map(|t| t.refused).sum::<u64>() as f64,
                arrivals as f64,
            ),
            "ratio",
        ),
    ];
    (metrics, bases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_times_divide_out_each_pass_s_host_speed() {
        let timed = Timed {
            cell_ns: vec![10_000_000, 30_000_000, 10_000_000, 30_000_000],
            slice_ms: vec![
                NOMINAL_SLICE_MS,
                NOMINAL_SLICE_MS,
                2.0 * NOMINAL_SLICE_MS,
                2.0 * NOMINAL_SLICE_MS,
            ],
            elapsed_ns: 0,
            passes: 2,
        };
        let paced = timed.paced_ms(2);
        for (got, want) in paced.iter().zip([10.0, 30.0, 5.0, 15.0]) {
            assert!((got - want).abs() < 1e-9, "{paced:?}");
        }
        assert_eq!(timed.pass_ns(), 40e6);
    }
}
