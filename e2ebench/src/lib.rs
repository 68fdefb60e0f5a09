//! End-to-end and per-layer benchmark of the LlamaTune reproduction.
//!
//! A run executes one workload (see [`run::WORKLOADS`]) and reports
//! either its end-to-end metrics or, traced, its per-layer split, timed
//! from outside the program by pass-through shims around each layer's
//! public seam ([`shims`]). See `README.md` in this directory.

pub mod probe;
pub mod procfs;
pub mod run;
pub mod serve;
pub mod shims;
pub mod tune;
