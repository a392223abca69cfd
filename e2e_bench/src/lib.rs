//! End-to-end benchmark of the hierarchical LLC closed loop.
//!
//! Drives the library from outside, through its public calls only:
//! `SimAdapter` for the plant, `ControlPlane` for the control plane,
//! `PolicyBuilder`/`HierarchicalPolicy` for the hierarchy, and on the
//! wire `AgentCore`, `ControldCore`, `TcpLink` and the `llc-net` codecs.
//! An untraced run gives the end-to-end metrics; a traced run records a
//! span around every call into a layer and gives the per-layer split.
//! See `README.md` beside this package for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod bench;
pub mod check;
pub mod episode;
pub mod inproc;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod wire;
pub mod workload;
