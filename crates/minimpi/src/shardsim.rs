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
//! The fabric's propagation latency is the conservative lookahead: a
//! halo can never land earlier than `now + latency`, so all ranks can
//! fire events within one lookahead window in parallel while the
//! shared core stage is replayed deterministically at each epoch
//! barrier. Determinism is inherited from the engine —
//! `run_sharded(n)` produces the same per-rank finish times and the
//! same trace bytes for every `n`.

use crate::lulesh::LuleshConfig;
use popper_sim::shard::partition;
use popper_sim::{recovery_ms, retry_backoff, FabricSim, Nanos, NetCtx, MAX_ATTEMPTS, PlatformSpec};

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
}

/// Result of one sharded proxy run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedLuleshRun {
    /// End-to-end virtual runtime (latest rank finish).
    pub elapsed: Nanos,
    /// Per-rank finish times, rank order.
    pub per_rank_finish: Vec<Nanos>,
    /// Halo bytes every rank put on the wire (from the fabric's
    /// traffic counters).
    pub wire_bytes: u64,
    /// Total events dispatched.
    pub events: u64,
    /// Epoch barriers the engine crossed.
    pub epochs: u64,
    /// Worker threads used.
    pub workers: usize,
}

struct Timing {
    step: Nanos,
    halo_bytes: u64,
    iterations: usize,
}

/// Run the sharded proxy with `workers` threads (1 = the
/// single-threaded reference execution; results are identical either
/// way). The platform supplies both the compute rate and the fabric
/// the halo exchanges are routed through.
pub fn run_sharded(config: &LuleshConfig, platform: &PlatformSpec, workers: usize) -> ShardedLuleshRun {
    let ranks = config.ranks();
    let cells = (config.elements_per_rank as f64).powi(3);
    let step = platform.execute(&config.demand_per_element.scaled(cells));
    let latency = Nanos(platform.nic_lat_ns as u64).max(Nanos(1));
    let timing = std::sync::Arc::new(Timing {
        step,
        halo_bytes: config.halo_bytes(),
        iterations: config.iterations,
    });

    let mut adjacency = vec![Vec::new(); ranks];
    for (a, b) in config.neighbor_pairs() {
        adjacency[a].push(b);
        adjacency[b].push(a);
    }
    let states: Vec<RankState> = adjacency
        .into_iter()
        .map(|neighbors| RankState {
            neighbors,
            compute_done: vec![false; config.iterations],
            halos: vec![0; config.iterations],
            advanced: vec![false; config.iterations],
            finish: Nanos::ZERO,
        })
        .collect();

    let mut sim = FabricSim::new(states, platform.nic_gbit, latency, 1.0);
    for rank in 0..ranks {
        let timing = std::sync::Arc::clone(&timing);
        sim.schedule(rank, Nanos::ZERO, move |ctx| begin_step(ctx, 0, timing));
    }
    let elapsed = sim.run_sharded(workers);
    let wire_bytes = sim.total_bytes();
    ShardedLuleshRun {
        elapsed,
        per_rank_finish: sim.states().map(|s| s.finish).collect(),
        wire_bytes,
        events: sim.events_fired(),
        epochs: sim.epochs(),
        workers: workers.max(1),
    }
}

fn begin_step(ctx: &mut NetCtx<'_, '_, RankState>, step: usize, timing: std::sync::Arc<Timing>) {
    let d = timing.step;
    ctx.schedule_in(d, move |c| complete_step(c, step, timing));
}

fn complete_step(ctx: &mut NetCtx<'_, '_, RankState>, step: usize, timing: std::sync::Arc<Timing>) {
    ctx.state().compute_done[step] = true;
    let neighbors = ctx.state().neighbors.clone();
    if step + 1 == timing.iterations {
        // Last step: nothing downstream needs this halo.
        let now = ctx.now();
        ctx.state().finish = now;
        return;
    }
    for nb in neighbors {
        let timing = std::sync::Arc::clone(&timing);
        ctx.transfer(nb, timing.halo_bytes, move |c| receive_halo(c, step, timing));
    }
    try_advance(ctx, step, timing);
}

fn receive_halo(ctx: &mut NetCtx<'_, '_, RankState>, step: usize, timing: std::sync::Arc<Timing>) {
    ctx.state().halos[step] += 1;
    try_advance(ctx, step, timing);
}

/// Start step `step + 1` once this rank's own compute for `step` is
/// done and every neighbor's halo for `step` has arrived.
fn try_advance(ctx: &mut NetCtx<'_, '_, RankState>, step: usize, timing: std::sync::Arc<Timing>) {
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

// ---- chaos variant: the same compute / halo loop under a scheduled ----
// ---- fault timeline, with MPI-style retry/backoff on halo sends    ----
//
// Shrinking the communicator on an unrecoverable loss stays serial-only
// for now; the sharded proxy models a down NIC, not a dead subdomain.

/// Per-rank state of the chaos run.
struct ChaosRankState {
    neighbors: Vec<usize>,
    compute_done: Vec<bool>,
    halos: Vec<usize>,
    advanced: Vec<bool>,
    finish: Nanos,
    /// Send timeouts this rank observed.
    detections: u64,
    /// Halo sends that failed at least once before landing or dying.
    degraded: u64,
    /// Halos this rank received after one or more sender retries.
    recovered: u64,
    /// Halo sends abandoned after `MAX_ATTEMPTS`.
    lost: u64,
    first_fail: Option<Nanos>,
    last_recovery: Nanos,
}

/// Result of one sharded chaos run — identical at every worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedLuleshChaosRun {
    /// End-to-end virtual runtime (latest rank finish).
    pub elapsed: Nanos,
    /// Per-rank finish times, rank order.
    pub per_rank_finish: Vec<Nanos>,
    /// Halo bytes on the wire (retransmit draws included).
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

/// Start slot of step `s` so the step loop spans the schedule: a chaos
/// run must still be exchanging halos when the last fault lands.
fn step_slot(horizon: Nanos, iterations: usize, step: usize) -> Nanos {
    Nanos(horizon.0 * 5 / 4 / (iterations as u64).max(1)) * step as u64
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
    timeline: Vec<(Nanos, popper_sim::PlaneCmd)>,
) -> ShardedLuleshChaosRun {
    let ranks = config.ranks();
    let cells = (config.elements_per_rank as f64).powi(3);
    let step = platform.execute(&config.demand_per_element.scaled(cells));
    let latency = Nanos(platform.nic_lat_ns as u64).max(Nanos(1));
    let horizon = timeline.iter().map(|(at, _)| *at).max().unwrap_or(Nanos::ZERO);
    let timing = std::sync::Arc::new(Timing {
        step,
        halo_bytes: config.halo_bytes(),
        iterations: config.iterations,
    });

    let mut adjacency = vec![Vec::new(); ranks];
    for (a, b) in config.neighbor_pairs() {
        adjacency[a].push(b);
        adjacency[b].push(a);
    }
    let halos_expected: u64 = adjacency.iter().map(|n| n.len() as u64).sum::<u64>()
        * (config.iterations as u64 - 1);
    let states: Vec<ChaosRankState> = adjacency
        .into_iter()
        .map(|neighbors| ChaosRankState {
            neighbors,
            compute_done: vec![false; config.iterations],
            halos: vec![0; config.iterations],
            advanced: vec![false; config.iterations],
            finish: Nanos::ZERO,
            detections: 0,
            degraded: 0,
            recovered: 0,
            lost: 0,
            first_fail: None,
            last_recovery: Nanos::ZERO,
        })
        .collect();

    let mut sim = FabricSim::new(states, platform.nic_gbit, latency, 1.0);
    sim.set_fault_timeline(seed, timeline);
    for rank in 0..ranks {
        let timing = std::sync::Arc::clone(&timing);
        sim.schedule(rank, Nanos::ZERO, move |ctx| {
            chaos_begin_step(ctx, 0, horizon, timing)
        });
    }
    let elapsed = sim.run_sharded(workers);
    let wire_bytes = sim.total_bytes();
    let first_fail = sim.states().filter_map(|s| s.first_fail).min();
    let last_recovery = sim.states().map(|s| s.last_recovery).max().unwrap_or(Nanos::ZERO);
    let recovery_ms = recovery_ms(first_fail, last_recovery);
    let degraded: u64 = sim.states().map(|s| s.degraded).sum();
    let lost: u64 = sim.states().map(|s| s.lost).sum();
    ShardedLuleshChaosRun {
        elapsed,
        per_rank_finish: sim.states().map(|s| s.finish).collect(),
        wire_bytes,
        events: sim.events_fired(),
        epochs: sim.epochs(),
        workers: workers.max(1),
        halos: halos_expected,
        detections: sim.states().map(|s| s.detections).sum(),
        recovered: sim.states().map(|s| s.recovered).sum(),
        lost,
        recovery_ms,
        degraded_fraction: degraded as f64 / halos_expected.max(1) as f64,
    }
}

type ChaosCtx<'a, 'b> = NetCtx<'a, 'b, ChaosRankState>;

/// Begin step `step`, no earlier than its pacing slot.
fn chaos_begin_step(ctx: &mut ChaosCtx<'_, '_>, step: usize, horizon: Nanos, timing: std::sync::Arc<Timing>) {
    let start = step_slot(horizon, timing.iterations, step).max(ctx.now());
    let d = timing.step;
    ctx.schedule_at(start + d, move |c| chaos_complete_step(c, step, horizon, timing));
}

fn chaos_complete_step(ctx: &mut ChaosCtx<'_, '_>, step: usize, horizon: Nanos, timing: std::sync::Arc<Timing>) {
    ctx.state().compute_done[step] = true;
    let neighbors = ctx.state().neighbors.clone();
    if step + 1 == timing.iterations {
        let now = ctx.now();
        ctx.state().finish = now;
        return;
    }
    for nb in neighbors {
        let timing = std::sync::Arc::clone(&timing);
        ship_halo(ctx, nb, step, 0, horizon, timing);
    }
    chaos_try_advance(ctx, step, horizon, timing);
}

/// Ship one halo face, retrying with backoff on a send timeout. A
/// retry issued right after a heal event can still fail once — its
/// shard sees the refreshed fault snapshot only after the heal's
/// barrier — so the loop runs until the plane catches up.
fn ship_halo(
    ctx: &mut ChaosCtx<'_, '_>,
    nb: usize,
    step: usize,
    attempt: usize,
    horizon: Nanos,
    timing: std::sync::Arc<Timing>,
) {
    let bytes = timing.halo_bytes;
    let retry_timing = std::sync::Arc::clone(&timing);
    ctx.transfer_or(
        nb,
        bytes,
        move |c| {
            if attempt > 0 {
                let now = c.now();
                let state = c.state();
                state.recovered += 1;
                state.last_recovery = state.last_recovery.max(now);
            }
            chaos_receive_halo(c, step, horizon, timing);
        },
        move |c, u| {
            let state = c.state();
            state.detections += 1;
            state.first_fail = Some(state.first_fail.map_or(u.gave_up_at, |f| f.min(u.gave_up_at)));
            if attempt == 0 {
                state.degraded += 1;
            }
            if attempt + 1 >= MAX_ATTEMPTS {
                state.lost += 1;
                return;
            }
            c.schedule_in(retry_backoff(attempt), move |cc| {
                ship_halo(cc, nb, step, attempt + 1, horizon, retry_timing)
            });
        },
    );
}

fn chaos_receive_halo(ctx: &mut ChaosCtx<'_, '_>, step: usize, horizon: Nanos, timing: std::sync::Arc<Timing>) {
    ctx.state().halos[step] += 1;
    chaos_try_advance(ctx, step, horizon, timing);
}

fn chaos_try_advance(ctx: &mut ChaosCtx<'_, '_>, step: usize, horizon: Nanos, timing: std::sync::Arc<Timing>) {
    let state = ctx.state();
    let ready = state.compute_done[step]
        && state.halos[step] == state.neighbors.len()
        && !state.advanced[step];
    if !ready {
        return;
    }
    state.advanced[step] = true;
    ctx.schedule_in(Nanos::ZERO, move |c| chaos_begin_step(c, step + 1, horizon, timing));
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
                ShardedLuleshChaosRun { workers: 1, ..parallel },
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn chaos_run_with_empty_timeline_matches_an_unpaced_healthy_run() {
        // No horizon, no pacing, no faults: the chaos loop degenerates
        // to the healthy loop and must agree on timing and traffic.
        let config = LuleshConfig::small();
        let platform = platforms::hpc_node();
        let healthy = run_sharded(&config, &platform, 2);
        let chaos = run_sharded_chaos(&config, &platform, 2, 1, Vec::new());
        assert_eq!(chaos.elapsed, healthy.elapsed);
        assert_eq!(chaos.per_rank_finish, healthy.per_rank_finish);
        assert_eq!(chaos.wire_bytes, healthy.wire_bytes);
        assert_eq!(chaos.detections + chaos.recovered + chaos.lost, 0);
    }

    #[test]
    fn subdomain_partition_covers_all_ranks() {
        let config = LuleshConfig::paper();
        let parts = subdomain_partition(&config, 4);
        assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), config.ranks());
    }
}
