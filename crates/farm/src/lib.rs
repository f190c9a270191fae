//! # popper-farm
//!
//! Popper-as-a-service: a long-lived, multi-tenant CI farm that
//! multiplexes hundreds of concurrent experiment pipelines over one
//! worker pool. The paper's end state is continuous automated
//! validation — not one pipeline run by hand but a service keeping many
//! repositories' experiments green — and this crate is that service:
//!
//! * [`queue`] — deficit-round-robin fair queueing over bounded
//!   per-tenant queues. Admission control rejects with a retry-after
//!   hint instead of growing without bound.
//! * [`chaos`] — the farm's own fault plane: an existing
//!   [`popper_chaos::FaultSchedule`] is projected onto the worker pool
//!   (crash density → deterministic per-job worker-crash counts) and
//!   the shared store (disk-slow factor → ingest slowdown). Same seed,
//!   same crashes — the farm event log is byte-identical across runs.
//! * [`events`] — per-job records and the canonical, deterministic
//!   farm event log (logical events only; wall-clock timings live in
//!   the stats, never in the log).
//! * [`service`] — the [`Farm`] itself: per-tenant popper-vcs repos
//!   sharing one deduplicating chunk store with batched artifact
//!   commits, a worker pool riding the popper-memo stage cache, and
//!   per-job retries that guarantee zero lost jobs under chaos.
//! * [`http`] — a hand-rolled HTTP/1.1 endpoint over
//!   `std::net::TcpListener` serving `/status`, `/tenants/<t>/builds`,
//!   SVG badges, and per-tenant trace timelines.

pub mod chaos;
pub mod events;
pub mod http;
pub mod queue;
pub mod service;
pub mod simmodel;

pub use chaos::FarmChaos;
pub use events::{JobOutcome, JobRecord};
pub use http::{badge_svg, FarmServer};
pub use queue::DrrScheduler;
pub use service::{Farm, FarmBuilder, FarmConfig, FarmReport, JobId, SubmitError};
pub use simmodel::{simulate, simulate_chaos, FarmSimConfig, FarmSimReport};
