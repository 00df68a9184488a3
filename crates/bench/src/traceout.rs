//! `--trace-out` plumbing: collect per-run [`rda_trace::TraceReport`]s
//! from a sweep and write one merged Chrome trace-event document.
//!
//! Each run becomes its own `pid` track group in the output, named
//! `"{workload}/{policy}#r{replicate}"` (prefixed, e.g. with the fault
//! rate, when the caller sweeps an extra axis). The file loads directly
//! in `ui.perfetto.dev` or `chrome://tracing`.

use rda_machine::MachineConfig;
use rda_sim::runner::RunRecord;
use rda_trace::{chrome_trace_document, LabeledReport, TraceReport};
use std::path::{Path, PathBuf};

/// A trace export that could not be written: the destination path plus
/// the underlying I/O error. Typed so callers can branch on it (or at
/// least print something actionable) instead of panicking.
#[derive(Debug)]
pub struct TraceWriteError {
    /// The path the export was destined for.
    pub path: PathBuf,
    /// What the filesystem said.
    pub source: std::io::Error,
}

impl std::fmt::Display for TraceWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to write {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for TraceWriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Owned accumulator of labeled traces from one or more sweeps.
#[derive(Debug, Clone, Default)]
pub struct TraceBundle {
    entries: Vec<(String, TraceReport)>,
}

impl TraceBundle {
    /// Empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of collected run traces.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Add one labeled report.
    pub fn add(&mut self, label: String, report: TraceReport) {
        self.entries.push((label, report));
    }

    /// Harvest the traces of every record that carries one, labeling
    /// them `"{prefix}{workload}/{policy}#r{replicate}"`.
    pub fn add_records(&mut self, prefix: &str, records: &[RunRecord]) {
        for r in records {
            if let Some(report) = &r.result.trace {
                let label = format!("{prefix}{}/{}#r{}", r.workload, r.policy, r.replicate);
                self.add(label, report.clone());
            }
        }
    }

    /// Build the merged Chrome trace-event document. `pid`s are
    /// assigned in collection order.
    pub fn to_chrome_json(&self) -> rda_metrics::Json {
        let runs: Vec<LabeledReport<'_>> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, (label, report))| LabeledReport {
                pid: i as u64 + 1,
                label: label.clone(),
                report,
            })
            .collect();
        chrome_trace_document(&runs, MachineConfig::xeon_e5_2420().freq_hz)
    }

    /// Write the merged document to `path` as compact JSON (at
    /// full-sweep size, indentation would be ~40 % of the file). An
    /// unwritable path — missing directory, permission denied, path is
    /// a directory — comes back as a typed [`TraceWriteError`], never
    /// a panic.
    pub fn write(&self, path: &Path) -> Result<(), TraceWriteError> {
        std::fs::write(path, self.to_chrome_json().to_string_compact()).map_err(|source| {
            TraceWriteError {
                path: path.to_path_buf(),
                source,
            }
        })
    }

    /// Write to `path`, reporting success on stdout and exiting the
    /// process non-zero with the typed error's message on I/O failure
    /// — the shared behaviour of every `exp_*` binary's `--trace-out`
    /// handling.
    pub fn write_or_die(&self, path: &Path) {
        match self.write(path) {
            Ok(()) => println!(
                "wrote {} ({} run traces, Chrome trace-event format)",
                path.display(),
                self.len()
            ),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::PolicyKind;
    use rda_metrics::Json;
    use rda_sim::runner::{run_sweep_configured, RunnerOptions, SweepGrid};
    use rda_sim::SimConfig;
    use rda_workloads::spec::all_workloads;

    #[test]
    fn bundle_harvests_traced_records_and_exports_valid_json() {
        let workloads = &all_workloads()[..1];
        let grid = SweepGrid::cross(workloads, &[PolicyKind::Strict], 1);
        let sweep = run_sweep_configured(&grid, &RunnerOptions::serial(), |cell| {
            SimConfig::paper_default(cell.policy).with_trace()
        });
        assert!(sweep.errors.is_empty());

        let mut bundle = TraceBundle::new();
        bundle.add_records("", &sweep.records);
        assert_eq!(bundle.len(), 1, "every traced record is harvested");

        let doc = bundle.to_chrome_json();
        let parsed = Json::parse(&doc.to_string_pretty()).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty());
        // The track group is named after the grid cell.
        let name = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .and_then(|e| e.get("args"))
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str)
            .unwrap();
        assert_eq!(
            name,
            format!("{}/{}#r0", workloads[0].name, PolicyKind::Strict)
        );
    }

    #[test]
    fn unwritable_path_is_a_typed_error_not_a_panic() {
        let bundle = TraceBundle::new();
        let bad = Path::new("/nonexistent-dir-for-sure/trace.json");
        let err = bundle.write(bad).expect_err("write must fail");
        assert_eq!(err.path, bad);
        let msg = err.to_string();
        assert!(
            msg.starts_with("failed to write /nonexistent-dir-for-sure/trace.json:"),
            "unexpected message: {msg}"
        );
        // A directory as the destination is also refused, not panicked.
        let dir = std::env::temp_dir();
        let err = bundle.write(&dir).expect_err("writing to a directory must fail");
        assert_eq!(err.path, dir);
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn untraced_records_are_skipped() {
        let workloads = &all_workloads()[..1];
        let grid = SweepGrid::cross(workloads, &[PolicyKind::Strict], 1);
        let sweep = run_sweep_configured(&grid, &RunnerOptions::serial(), |cell| {
            SimConfig::paper_default(cell.policy)
        });
        let mut bundle = TraceBundle::new();
        bundle.add_records("", &sweep.records);
        assert!(bundle.is_empty());
    }
}
