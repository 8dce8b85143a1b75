//! End-to-end and per-layer wall-clock benchmark of the paper's monitoring
//! protocols; `README.md` describes the workloads, the metrics and how a run
//! measures them.

pub mod trace;
pub mod workload;
