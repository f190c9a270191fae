//! The sharded LULESH proxy: one shard per rank's subdomain.
//!
//! The analytic proxy in [`lulesh`](crate::lulesh) advances every rank
//! on a single thread. This variant maps each rank's subdomain onto a
//! fabric-backed shard ([`popper_sim::FabricSim`]) and drives the same
//! compute / halo-exchange loop as discrete events: a rank computes
//! over its cells, ships one halo face to each neighbor *through the
//! shard-native fabric* — paying NIC serialization, core contention
//! and ingress incast, not just a fixed delay — and may not start step
//! `s + 1` until its own step-`s` compute is done *and* every
//! neighbor's step-`s` halo has arrived. That nearest-neighbor
//! synchronization lets distant subdomains drift apart by a step while
//! adjacent ones stay in lock-step (LULESH proper also agrees on a
//! global timestep; the sharded proxy keeps the halo dependency, which
//! is the part that partitions).
//!
//! The proxy runs under a scheduled-fault timeline
//! ([`run_sharded_chaos`]): faults land at epoch barriers and ranks
//! retry failed halo sends with backoff. An empty timeline is the
//! fault-free run ([`run_sharded`]). Shrinking the communicator on an
//! unrecoverable loss stays serial-only; the sharded proxy models a
//! down NIC, not a dead subdomain.
//!
//! The fabric's propagation latency is the conservative lookahead: a
//! halo can never land earlier than `now + latency`, so all ranks can
//! fire events within one lookahead window in parallel while the
//! shared core stage is replayed deterministically at each epoch
//! barrier. Determinism is inherited from the engine —
//! `run_sharded(n)` produces the same per-rank finish times and the
//! same trace bytes for every `n`.

use crate::lulesh::LuleshConfig;
use popper_sim::shard::partition;
use popper_sim::{chaos_pace, retry_backoff, FabricSim, Nanos, NetCtx, PlaneCmd, PlatformSpec, Recovery, MAX_ATTEMPTS};
use std::sync::Arc;

/// Per-rank (per-shard) state of the sharded proxy.
struct RankState {
    /// Face neighbors of this rank in the decomposition.
    neighbors: Vec<usize>,
    /// Own compute finished, per step.
    compute_done: Vec<bool>,
    /// Halos received, per step.
    halos: Vec<usize>,
    /// Next step already started, per step (guards double advance).
    advanced: Vec<bool>,
    /// Virtual time this rank finished its last step.
    finish: Nanos,
    /// Failed and recovered halo sends: failures on the sender,
    /// recoveries on the receiver.
    recovery: Recovery,
}

/// Result of one sharded proxy run — identical at every worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedLuleshRun {
    /// End-to-end virtual runtime (latest rank finish).
    pub elapsed: Nanos,
    /// Per-rank finish times, rank order.
    pub per_rank_finish: Vec<Nanos>,
    /// Halo bytes every rank put on the wire (from the fabric's
    /// traffic counters; retransmit draws included).
    pub wire_bytes: u64,
    /// Total events dispatched.
    pub events: u64,
    /// Epoch barriers the engine crossed.
    pub epochs: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Halo sends the workload issues in a fault-free run.
    pub halos: u64,
    /// Send timeouts observed across the ranks.
    pub detections: u64,
    /// Halos delivered after one or more retries.
    pub recovered: u64,
    /// Halo sends abandoned after `MAX_ATTEMPTS` (expected 0 for every
    /// schedule that ends healed).
    pub lost: u64,
    /// First failure to last recovered delivery, in milliseconds.
    pub recovery_ms: f64,
    /// Fraction of halo sends that saw any failure.
    pub degraded_fraction: f64,
}

struct Timing {
    step: Nanos,
    halo_bytes: u64,
    iterations: usize,
    /// Gap between step start slots (see [`chaos_pace`]).
    pace: Nanos,
}

/// Run the sharded proxy with `workers` threads (1 = the
/// single-threaded reference execution; results are identical either
/// way). The platform supplies both the compute rate and the fabric
/// the halo exchanges are routed through. This is the fault-free run:
/// [`run_sharded_chaos`] with an empty timeline.
pub fn run_sharded(config: &LuleshConfig, platform: &PlatformSpec, workers: usize) -> ShardedLuleshRun {
    run_sharded_chaos(config, platform, workers, 0, Vec::new())
}

/// Run the sharded proxy under a scheduled-fault timeline (see
/// [`popper_sim::FabricSim::set_fault_timeline`]): faults land at
/// epoch barriers mid-run and ranks retry failed halo sends with
/// exponential backoff until the fault heals. A crashed rank keeps
/// computing (its NIC is down, its subdomain is not dead); its
/// outgoing and incoming halos queue behind retries until the restart
/// crosses a barrier. Deterministic at every worker count.
pub fn run_sharded_chaos(
    config: &LuleshConfig,
    platform: &PlatformSpec,
    workers: usize,
    seed: u64,
    timeline: Vec<(Nanos, PlaneCmd)>,
) -> ShardedLuleshRun {
    let ranks = config.ranks();
    assert!(u32::try_from(config.iterations).is_ok(), "a halo names its step as a u32");
    let cells = (config.elements_per_rank as f64).powi(3);
    let latency = Nanos(platform.nic_lat_ns as u64).max(Nanos(1));
    let timing = Arc::new(Timing {
        step: platform.execute(&config.demand_per_element.scaled(cells)),
        halo_bytes: config.halo_bytes(),
        iterations: config.iterations,
        pace: chaos_pace(&timeline, config.iterations as u64),
    });

    let mut adjacency = vec![Vec::new(); ranks];
    for (a, b) in config.neighbor_pairs() {
        adjacency[a].push(b);
        adjacency[b].push(a);
    }
    let halos: u64 = adjacency.iter().map(|n| n.len() as u64).sum::<u64>()
        * (config.iterations as u64 - 1);
    let states: Vec<RankState> = adjacency
        .into_iter()
        .map(|neighbors| RankState {
            neighbors,
            compute_done: vec![false; config.iterations],
            halos: vec![0; config.iterations],
            advanced: vec![false; config.iterations],
            finish: Nanos::ZERO,
            recovery: Recovery::default(),
        })
        .collect();

    let mut sim = FabricSim::new(states, platform.nic_gbit, latency, 1.0);
    sim.set_fault_timeline(seed, timeline);
    for rank in 0..ranks {
        let timing = Arc::clone(&timing);
        sim.schedule(rank, Nanos::ZERO, move |ctx| begin_step(ctx, 0, timing));
    }
    let elapsed = sim.run_sharded(workers);
    let recovery = sim.states().fold(Recovery::default(), |acc, s| acc.merge(&s.recovery));
    ShardedLuleshRun {
        elapsed,
        per_rank_finish: sim.states().map(|s| s.finish).collect(),
        wire_bytes: sim.total_bytes(),
        events: sim.events_fired(),
        epochs: sim.epochs(),
        workers: workers.max(1),
        halos,
        detections: recovery.detections,
        recovered: recovery.recovered,
        lost: recovery.lost,
        recovery_ms: recovery.recovery_ms(),
        degraded_fraction: recovery.degraded as f64 / halos.max(1) as f64,
    }
}

type Ctx<'a, 'b> = NetCtx<'a, 'b, RankState>;

/// Begin step `step`, no earlier than its pacing slot.
fn begin_step(ctx: &mut Ctx<'_, '_>, step: usize, timing: Arc<Timing>) {
    let start = (timing.pace * step as u64).max(ctx.now());
    let d = timing.step;
    ctx.schedule_at(start + d, move |c| complete_step(c, step, timing));
}

fn complete_step(ctx: &mut Ctx<'_, '_>, step: usize, timing: Arc<Timing>) {
    ctx.state().compute_done[step] = true;
    if step + 1 == timing.iterations {
        // Last step: nothing downstream needs this halo.
        let now = ctx.now();
        ctx.state().finish = now;
        return;
    }
    let neighbors = ctx.state().neighbors.clone();
    for nb in neighbors {
        ship_halo(ctx, nb, step, 0, Arc::clone(&timing));
    }
    try_advance(ctx, step, timing);
}

/// Ship one halo face, retrying with backoff on a send timeout. A
/// retry issued right after a heal event can still fail once — its
/// shard sees the refreshed fault snapshot only after the heal's
/// barrier — so the loop runs until the plane catches up.
fn ship_halo(ctx: &mut Ctx<'_, '_>, nb: usize, step: usize, attempt: usize, timing: Arc<Timing>) {
    // The continuation is boxed once per halo send. Captured as two
    // `u32`s and an `Arc` (the neighbor comes back in the failure), it is
    // as small as a send that cannot fail, which measurably matters.
    let (step32, attempt32) = (step as u32, attempt as u32);
    ctx.transfer_or(nb, timing.halo_bytes, move |c, outcome| {
        let (step, attempt) = (step32 as usize, attempt32 as usize);
        match outcome {
            Ok(()) => {
                if attempt > 0 {
                    let now = c.now();
                    c.state().recovery.note_recovery(now);
                }
                c.state().halos[step] += 1;
                try_advance(c, step, timing);
            }
            Err(u) => {
                let recovery = &mut c.state().recovery;
                recovery.note_fail(u.gave_up_at, attempt);
                if attempt + 1 >= MAX_ATTEMPTS {
                    recovery.lost += 1;
                    return;
                }
                let nb = u.dst;
                c.schedule_in(retry_backoff(attempt), move |cc| ship_halo(cc, nb, step, attempt + 1, timing));
            }
        }
    });
}

/// Start step `step + 1` once this rank's own compute for `step` is
/// done and every neighbor's halo for `step` has arrived.
fn try_advance(ctx: &mut Ctx<'_, '_>, step: usize, timing: Arc<Timing>) {
    let state = ctx.state();
    let ready = state.compute_done[step]
        && state.halos[step] == state.neighbors.len()
        && !state.advanced[step];
    if !ready {
        return;
    }
    state.advanced[step] = true;
    ctx.schedule_in(Nanos::ZERO, move |c| begin_step(c, step + 1, timing));
}

/// Map the decomposition's ranks onto at most `shards` balanced,
/// contiguous groups — the subdomain partition a coarser-grained
/// deployment would use. Exposed for callers that batch several ranks
/// per shard; the proxy itself runs one rank per shard.
pub fn subdomain_partition(config: &LuleshConfig, shards: usize) -> Vec<std::ops::Range<usize>> {
    partition(config.ranks(), shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::platforms;

    #[test]
    fn sharded_proxy_matches_reference_at_every_worker_count() {
        let config = LuleshConfig::small();
        let platform = platforms::hpc_node();
        let reference = run_sharded(&config, &platform, 1);
        assert!(reference.elapsed >= Nanos(1));
        assert_eq!(reference.per_rank_finish.len(), config.ranks());
        assert!(reference.per_rank_finish.iter().all(|f| *f > Nanos::ZERO));
        for workers in [2, 4, 8] {
            let parallel = run_sharded(&config, &platform, workers);
            assert_eq!(parallel.elapsed, reference.elapsed, "workers={workers}");
            assert_eq!(parallel.per_rank_finish, reference.per_rank_finish);
            assert_eq!(parallel.events, reference.events);
            assert_eq!(parallel.wire_bytes, reference.wire_bytes);
        }
    }

    #[test]
    fn halo_dependencies_gate_progress() {
        let config = LuleshConfig::small();
        let platform = platforms::hpc_node();
        let run = run_sharded(&config, &platform, 1);
        let cells = (config.elements_per_rank as f64).powi(3);
        let step = platform.execute(&config.demand_per_element.scaled(cells));
        // Every rank must pay at least its own serial compute, and the
        // halo round trips push the total past it.
        assert!(run.elapsed > step * config.iterations as u64);
        // Multiple epochs: the lookahead is far smaller than a step.
        assert!(run.epochs > 1);
    }

    #[test]
    fn halo_traffic_is_on_the_wire() {
        // Every non-final step ships one halo face per neighbor pair,
        // in both directions, through the fabric.
        let config = LuleshConfig::small();
        let platform = platforms::hpc_node();
        let run = run_sharded(&config, &platform, 2);
        let faces = 2 * config.neighbor_pairs().len() as u64;
        let expected = faces * (config.iterations as u64 - 1) * config.halo_bytes();
        assert_eq!(run.wire_bytes, expected);
    }

    #[test]
    fn chaos_run_retries_halos_and_stays_deterministic() {
        use popper_sim::PlaneCmd;
        let config = LuleshConfig::small();
        let platform = platforms::hpc_node();
        // Crash rank 1's NIC mid-run and restart it: its halo exchanges
        // (both directions) retry with backoff until the restart
        // crosses a barrier. The schedule heals, so nothing is lost.
        let timeline = vec![
            (Nanos::from_millis(3), PlaneCmd::Crash(1)),
            (Nanos::from_millis(8), PlaneCmd::Restart(1)),
        ];
        let reference = run_sharded_chaos(&config, &platform, 1, 11, timeline.clone());
        assert!(reference.per_rank_finish.iter().all(|f| *f > Nanos::ZERO));
        assert!(reference.detections > 0, "the crash must be detected by halo timeouts");
        assert!(reference.recovered > 0);
        assert_eq!(reference.lost, 0, "the schedule heals; no halo may be abandoned");
        assert!(reference.recovery_ms > 0.0);
        assert!(reference.degraded_fraction > 0.0 && reference.degraded_fraction < 1.0);
        for workers in [2, 8] {
            let parallel = run_sharded_chaos(&config, &platform, workers, 11, timeline.clone());
            assert_eq!(
                ShardedLuleshRun { workers: 1, ..parallel },
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn subdomain_partition_covers_all_ranks() {
        let config = LuleshConfig::paper();
        let parts = subdomain_partition(&config, 4);
        assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), config.ranks());
    }
}
