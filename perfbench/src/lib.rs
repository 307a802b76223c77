//! The repository's benchmark: named workloads measured end to end from
//! outside the simulator (wall, CPU, instructions, cycles, set-up, memory,
//! goodput), plus a traced run that attributes time to layers through
//! timing pass-throughs around the simulator's trait objects.
//!
//! See `README.md` in this directory for the workloads, the metric map and
//! the limits of the attribution.

pub mod harness;
pub mod json;
pub mod pass;
pub mod pmu;
pub mod spec;
pub mod trace;
pub mod workload;
