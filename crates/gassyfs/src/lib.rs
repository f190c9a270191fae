//! # popper-gassyfs
//!
//! **GassyFS** — the in-memory distributed filesystem of the paper's
//! flagship use case (§Use case: *Evaluating the Scalability of an
//! In-memory File System*). GassyFS aggregates the memory of multiple
//! nodes over a GASNet-like remote-memory fabric into a single
//! POSIX-ish namespace mounted through a FUSE-like layer; data is
//! *ephemeral* — persistence is an explicit checkpoint to stable
//! storage.
//!
//! This reproduction implements the whole stack:
//!
//! * [`vfs`] — the metadata layer: inodes, directories, open files,
//!   page-granular extents, and the (in)famous pile of mount options.
//! * [`gasnet`] — the remote-memory page store: pages striped
//!   round-robin across the cluster's nodes, every access charged
//!   through the [`popper_sim`] fabric (local pages are free — the
//!   property the scalability experiment hinges on).
//! * [`fs`] — GassyFS proper: VFS + page store + virtual-time
//!   accounting + checkpoint/restore into a
//!   [`popper_store::ChunkStore`] ("file systems in GassyFS are
//!   explicitly saved/loaded to/from durable storage").
//! * [`workload`] — the paper's workload: a synthetic *compile git*
//!   build DAG (plus archive-extract and metadata-churn workloads),
//!   replayed by parallel "make jobs".
//! * [`experiment`] — Figure `gassyfs-git`: runtime vs cluster size,
//!   with the Listing-3 Aver assertion (`sublinear(nodes, time)`)
//!   checked over the result table.

pub mod chaos;
pub mod checkpointing;
pub mod experiment;
pub mod fs;
pub mod gasnet;
pub mod shardworld;
pub mod vfs;
pub mod workload;

pub use chaos::{run_fault_tolerance, ChaosConfig, ChaosReport};
pub use checkpointing::{run_checkpoint_study, CheckpointStudy};
pub use experiment::{run_scalability, ScalabilityConfig, ScalabilityPoint};
pub use fs::{GassyFs, MountOptions};
pub use gasnet::{GasnetStore, PAGE_SIZE};
pub use shardworld::{run_sharded, run_sharded_chaos, ShardedGassyConfig, ShardedGassyReport};
pub use vfs::{FsError, Vfs};
