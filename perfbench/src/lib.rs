//! The rda-sched benchmark: four workloads run through the crates'
//! public API, timed from outside. See `README.md` in this directory.

pub mod alloc;
pub mod cells;
pub mod pace;
pub mod probes;
pub mod replay;
pub mod run;
pub mod spans;
pub mod stats;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
