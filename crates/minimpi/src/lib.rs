//! # popper-minimpi
//!
//! The MPI use case (§5.3 of the paper's draft: *MPI Noisy Neighborhood
//! Characterization*): "an MPI application runs multiple times and its
//! communication performance is measured with mpiP … the goal in this
//! experiment is to identify root causes of variability across
//! executions." The original artifact ran LULESH with mpiP on an HPC
//! site; here the entire stack is built on the simulator:
//!
//! * [`comm`] — a message-passing runtime over a [`popper_sim::Cluster`]:
//!   ranks with virtual-time cursors, point-to-point exchanges through
//!   the contended fabric, and tree-based collectives (`barrier`,
//!   `allreduce`, `bcast`, `reduce`).
//! * [`profiler`] — an mpiP-style interposition profiler: per-rank time
//!   in each MPI operation vs. application compute, message counts and
//!   bytes, and the classic "top callsites" report.
//! * [`lulesh`] — a LULESH-like proxy: 3D domain decomposition, per-step
//!   stencil compute, six-face halo exchange and a global `allreduce`
//!   for the timestep — the communication pattern that amplifies any
//!   single slow rank into whole-application delay.
//! * [`experiment`] — the variability study: repeated runs under quiet
//!   and noisy conditions (OS noise, noisy neighbors), the runtime
//!   distribution that the deferred figure of §5.3 would plot, and the
//!   root-cause attribution (the noisy node's ranks show the highest
//!   compute time while *other* ranks show the waiting).
//! * [`shardsim`] — the multi-core proxy: each rank's subdomain is a
//!   [`popper_sim::ShardedSim`] shard, halos are cross-shard events
//!   bounded by the fabric latency (the conservative lookahead), and
//!   `run_sharded(n)` is byte-for-byte the single-threaded run.
//! * [`ft`] — fault tolerance: rank-failure detection through the typed
//!   `try_*` collectives plus two recovery policies (ULFM-style
//!   communicator shrink, and checkpoint/restart with rollback replay)
//!   that keep a LULESH run going while a chaos schedule crashes nodes
//!   under it.

pub mod comm;
pub mod experiment;
pub mod ft;
pub mod lulesh;
pub mod profiler;
pub mod shardsim;

pub use comm::{MpiError, MpiWorld, RetryPolicy};
pub use experiment::{
    run_lulesh_chaos, run_variability_study, ChaosStudy, ChaosStudyResult, NoiseScenario,
    VariabilityStudy,
};
pub use ft::{run_ft, EpochRecord, FtLuleshRun, RecoveryEvent, RecoveryPolicy};
pub use lulesh::{LuleshConfig, LuleshResult};
pub use profiler::{MpiOp, MpiProfile};
pub use shardsim::{run_sharded, run_sharded_chaos, ShardedLuleshRun};
