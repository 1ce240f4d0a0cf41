//! The optsched benchmark: four workloads driven through the program's
//! public entry points, end-to-end metrics from untraced runs and
//! per-layer metrics from traced ones.  See `README.md` in this directory.

pub mod calib;
pub mod counts;
pub mod exact;
pub mod heap;
pub mod inputs;
pub mod report;
pub mod service;
pub mod stats;
pub mod trace;
