//! Discrete-event simulation of an OLTP DBMS for the LlamaTune reproduction.
//!
//! The paper evaluates LlamaTune against PostgreSQL running on a CloudLab
//! c220g5 node. This crate substitutes that testbed with a mechanistic
//! simulator whose observable behaviour — throughput, tail latency, and 27
//! internal metrics, as a function of the knob configuration — has the same
//! *structure* the paper's techniques exploit:
//!
//! * a **buffer pool** with clock eviction backed by an OS page cache and a
//!   simulated SSD (so `shared_buffers` and friends dominate performance);
//! * a **WAL** with group commit, a WAL-writer daemon, full-page writes and
//!   buffer-full stalls (`commit_delay`, `wal_buffers`, `synchronous_commit`,
//!   `max_wal_size`, ...);
//! * a **checkpointer** and **background writer** spreading dirty-page
//!   writebacks, plus foreground writeback when `backend_flush_after > 0` —
//!   reproducing the Figure 4 discontinuity at the special value 0;
//! * **autovacuum** with dead-tuple accounting and bloat, paced by the
//!   vacuum cost knobs;
//! * a **row lock manager** (2PL, sorted acquisition) so skewed workloads
//!   contend;
//! * a two-path **planner** whose choices depend on the cost knobs.
//!
//! Transactions are simulated at transaction granularity on a virtual clock:
//! clients are popped from a time-ordered heap, each transaction's timeline
//! is computed against shared resource meters (CPU, disk) that model
//! queueing by utilization, and daemons (checkpointer, vacuum, WAL writer,
//! background writer) run as periodic actors on the same clock. Background
//! daemon periods are divided by `RunOptions::daemon_time_scale` so that
//! slow dynamics (5-minute checkpoints) appear within the short virtual
//! window that substitutes for the paper's 5-minute wall-clock runs.
//!
//! Configurations that overcommit the 16 GB box crash, mirroring the paper's
//! crashed-configuration handling.

pub mod bufferpool;
pub mod db;
pub mod fxhash;
pub mod hardware;
pub mod knobs;
pub mod locks;
pub mod metrics;
pub mod planner;
pub mod sim;
pub mod vacuum;
pub mod wal;
pub mod workload_spec;

pub use db::{run_workload, RunOptions, RunResult};
pub use hardware::HardwareProfile;
pub use knobs::DbmsKnobs;
pub use metrics::{fingerprint_features, METRIC_NAMES};
pub use workload_spec::{Arrival, KeyDist, OpTemplate, TableSpec, TxnTemplate, WorkloadSpec};
