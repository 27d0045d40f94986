//! The LVQ benchmark: the paper-scale chain loaded into an `lvq-store`
//! store, served by `NodeServer` over loopback TCP, and queried by
//! closed-loop protocol-v2 light clients. See `README.md` beside this
//! crate for the workloads and metrics.

pub mod bench;
pub mod input;
pub mod layers;
pub mod output;
pub mod stats;
pub mod trace;

pub use bench::{run, Config, Metric, Report, Workload};
