//! The benchmark's own checks: its inputs follow the seed, its counts
//! repeat, and the headline grid reproduces the repository's sweep.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use rda_perfbench::cells::{build, run_cell, workload_digest, Workload};
use rda_perfbench::run::{run, Args};

/// One pass over every cell of `workload` at `seed`, folded.
fn one_pass_digest(workload: Workload, seed: u64) -> u64 {
    let cells = build(workload, seed);
    let outs: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| run_cell(c, i).unwrap_or_else(|e| panic!("{}: {e}", c.label)))
        .collect();
    workload_digest(cells.iter().map(|c| c.index).zip(&outs))
}

fn traced(workload: Workload) -> Args {
    Args {
        workload,
        seed: 0,
        seconds: 0.01,
        trace: true,
    }
}

#[test]
fn paper_grid_at_the_default_seed_reproduces_the_headline_sweep() {
    assert_eq!(
        one_pass_digest(Workload::PaperGrid, 0),
        0x7be1_8ef5_cf03_8a77
    );
    let report = run(&traced(Workload::PaperGrid));
    assert!(report.correct, "{}", report.notes);
    assert_eq!(report.digest, 0x7be1_8ef5_cf03_8a77);
    let speedup = report.metric("rda_speedup").expect("rda_speedup");
    let saving = report
        .metric("rda_energy_saving")
        .expect("rda_energy_saving");
    assert_eq!(format!("{speedup:.3}"), "1.399");
    assert_eq!(format!("{saving:.3}"), "0.366");
}

#[test]
fn a_different_seed_changes_every_workload_digest() {
    for w in Workload::ALL {
        assert_ne!(one_pass_digest(w, 0), one_pass_digest(w, 1), "{}", w.name());
    }
}

#[test]
fn per_layer_counts_repeat_exactly() {
    for w in [
        Workload::PaperGrid,
        Workload::OverloadTraffic,
        Workload::TopoLayers,
    ] {
        let (a, b) = (run(&traced(w)), run(&traced(w)));
        assert!(a.correct && b.correct, "{}{}", a.notes, b.notes);
        let counts = |r: &rda_perfbench::run::Report| -> Vec<(&str, f64)> {
            r.metrics
                .iter()
                .filter(|m| ["count", "MiB"].contains(&m.unit) || m.unit.contains("sim_"))
                .map(|m| (m.name, m.value))
                .collect()
        };
        assert!(!counts(&a).is_empty());
        assert_eq!(counts(&a), counts(&b), "{}", w.name());
    }
}

#[test]
fn every_untraced_run_checks_its_outputs() {
    let report = run(&Args {
        workload: Workload::OverloadTraffic,
        seed: 7,
        seconds: 0.01,
        trace: false,
    });
    assert!(report.correct, "{}", report.notes);
    assert!(report.attempted >= rda_perfbench::run::MIN_CELLS as u64);
    assert_eq!(report.failed, 0);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert_eq!(
        names,
        [
            "cells_per_s",
            "cell_ms_p50",
            "cell_ms_p90",
            "setup_s",
            "peak_rss_mb",
            "success_rate"
        ]
    );
    assert!(report.metrics.iter().all(|m| m.value > 0.0));
}
