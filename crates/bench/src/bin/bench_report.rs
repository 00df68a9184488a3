//! Deterministic hot-path benchmark report.
//!
//! Runs the kernels from `rda_bench::hotbench` under a counting global
//! allocator and writes a machine-readable JSON report — ops/sec,
//! p50/p95 per-operation latency, and allocation counts per iteration —
//! suitable for committing as a performance baseline (`BENCH_pr5.json`)
//! and for regression-gating in CI.
//!
//! ```text
//! bench_report [--smoke] [--out PATH] [--compare BASELINE]
//! ```
//!
//! * `--smoke` — reduced sample counts for CI (seconds, not minutes);
//! * `--out PATH` — write the report JSON here (default: stdout only);
//! * `--compare BASELINE` — load a previously written report and exit
//!   nonzero if any benchmark's throughput regressed by more than 20 %
//!   after normalizing by the calibration kernel (which factors out
//!   absolute machine speed, so a baseline recorded on one machine can
//!   gate another).
//!
//! The simulated *work* is a pure function of fixed seeds: the reported
//! `checksum` of every kernel is bit-identical across machines, and the
//! report embeds the sweep digest so a perf baseline doubles as a
//! correctness pin.

use rda_bench::hotbench::{
    admission_ops, calibration_ops, churn_ops, compare_reports, measure,
    sweep_cell, sweep_grid, BenchResult, CALIBRATION, SWEEP_GRID_CELLS,
};
use rda_metrics::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// `System` allocator wrapper counting every allocation and its size.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter
// updates are lock-free atomics and cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

struct Args {
    smoke: bool,
    out: Option<String>,
    compare: Option<String>,
}

const USAGE: &str = "usage: bench_report [--smoke] [--out PATH] [--compare BASELINE]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(it.next().ok_or("--out requires a path")?),
            "--compare" => args.compare = Some(it.next().ok_or("--compare requires a path")?),
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) if e == "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // (warmup, samples) per benchmark tier: full mode for committed
    // baselines, smoke for the CI gate.
    let (warm, n_fast, n_cell, n_grid) = if args.smoke {
        (1, 5, 3, 1)
    } else {
        (3, 30, 10, 3)
    };
    let probe = Some(&alloc_counts as &dyn Fn() -> (u64, u64));

    eprintln!("running hot-path benchmarks ({} mode)…", if args.smoke { "smoke" } else { "full" });
    let mut results: Vec<BenchResult> = Vec::new();
    results.push(measure(CALIBRATION, 50_000_000, warm, n_fast, probe, || {
        calibration_ops(50_000_000)
    }));
    results.push(measure("pp_admission_pair", 10_000, warm, n_fast, probe, || {
        admission_ops(10_000)
    }));
    results.push(measure("waitlist_churn_round", 2_000, warm, n_fast, probe, || {
        churn_ops(2_000)
    }));
    results.push(measure("sweep_cell_ocean_cp", 1, warm, n_cell, probe, || {
        sweep_cell(false)
    }));
    results.push(measure("sweep_cell_ocean_cp_traced", 1, warm, n_cell, probe, || {
        sweep_cell(true)
    }));
    results.push(measure(
        "sweep_grid_24_cells",
        SWEEP_GRID_CELLS as u64,
        if args.smoke { 0 } else { 1 },
        n_grid,
        probe,
        sweep_grid,
    ));

    for r in &results {
        eprintln!(
            "  {:<28} p50 {:>12.1} ns/op  p95 {:>12.1} ns/op  {:>14.0} ops/s",
            r.name, r.p50_ns, r.p95_ns, r.ops_per_sec
        );
    }

    let grid = results
        .iter()
        .find(|r| r.name == "sweep_grid_24_cells")
        .expect("just measured");
    let report = Json::obj([
        ("schema", Json::Str("rda-bench-report/v1".into())),
        ("mode", Json::Str(if args.smoke { "smoke" } else { "full" }.into())),
        (
            "benchmarks",
            Json::Arr(results.iter().map(|r| r.to_json()).collect()),
        ),
        (
            "sweep",
            Json::obj([
                ("cells", Json::Num(SWEEP_GRID_CELLS as f64)),
                ("ms_per_cell_p50", Json::Num(grid.p50_ns / 1e6)),
                ("digest", Json::Str(format!("{:#x}", grid.checksum))),
                // Measured on the machine that committed BENCH_pr5.json,
                // immediately before the PR-5 hot-path work: the same
                // grid took 143.8 ms per cell. Kept in the report so
                // the speedup is auditable without digging in history.
                ("pre_pr5_ms_per_cell", Json::Num(143.8)),
            ]),
        ),
    ]);
    let text = report.to_string_pretty();
    println!("{text}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{text}\n")) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("report written to {path}");
    }

    if let Some(path) = &args.compare {
        let baseline = match std::fs::read_to_string(path) {
            Ok(t) => match Json::parse(&t) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("cannot parse baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let regressions = compare_reports(&results, &baseline, 0.20);
        if !regressions.is_empty() {
            eprintln!("PERFORMANCE REGRESSION vs {path}:");
            for r in &regressions {
                eprintln!("  {r}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("no benchmark regressed >20% vs {path}");
    }
    ExitCode::SUCCESS
}
