//! The sharded GassyFS world: one fabric shard per gasnet node.
//!
//! The serial scalability experiment ([`experiment`](crate::experiment))
//! walks a page workload through [`Cluster`](popper_sim::Cluster) on a
//! single thread. This world maps each gasnet node onto a shard of the
//! shard-native fabric ([`popper_sim::FabricSim`]) and replays the
//! store's write path as cross-shard transfers: the client streams
//! pages out round-robin, each page lands on its primary (`page %
//! nodes`), the primary forwards a replica copy to the next node
//! (`(primary + 1) % nodes` — the same placement
//! [`GasnetStore`](crate::gasnet::GasnetStore) uses), and the replica
//! acks back to the client with a small control message. The client
//! keeps `streams` pages in flight, so primaries and replicas across
//! the cluster serialize concurrently while the shared fabric core and
//! each node's ingress meter the contention.
//!
//! Determinism is inherited from the engine: per-node page counts,
//! traffic counters, the virtual clock and the trace bytes are
//! identical at every worker count.

use crate::gasnet::PAGE_SIZE;
use popper_sim::{recovery_ms, retry_backoff, FabricSim, Nanos, NetCtx, MAX_ATTEMPTS, NodeTraffic, PlatformSpec};

/// Size of the replica's acknowledgement back to the client.
const CTRL_BYTES: u64 = 64;

/// Configuration of one sharded world run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedGassyConfig {
    /// Gasnet nodes (= shards). Node 0 is also the writing client.
    pub nodes: usize,
    /// Pages the client writes, round-robin across primaries.
    pub pages: u64,
    /// Write chains the client keeps in flight.
    pub streams: usize,
}

impl Default for ShardedGassyConfig {
    fn default() -> Self {
        ShardedGassyConfig { nodes: 8, pages: 256, streams: 4 }
    }
}

/// Per-node (per-shard) state.
struct NodeState {
    /// Pages this node holds as primary.
    primary_pages: u64,
    /// Pages this node holds as replica.
    replica_pages: u64,
    /// Client only: next page index to push.
    next_page: u64,
    /// Client only: pages fully replicated and acked.
    completed: u64,
    /// Client only: virtual time the last ack landed.
    finish: Nanos,
}

/// Result of one sharded world run — identical at every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedGassyReport {
    /// End-to-end virtual runtime.
    pub elapsed: Nanos,
    /// Virtual time the client saw its last ack.
    pub client_finish: Nanos,
    /// Primary page placement, node order.
    pub per_node_primary: Vec<u64>,
    /// Replica page placement, node order.
    pub per_node_replica: Vec<u64>,
    /// Fabric traffic counters, node order.
    pub traffic: Vec<NodeTraffic>,
    /// Pages written (echoes the config).
    pub pages: u64,
    /// Total events dispatched.
    pub events: u64,
    /// Epoch barriers the engine crossed.
    pub epochs: u64,
    /// Worker threads used.
    pub workers: usize,
}

/// Run the sharded world with `workers` threads (1 = the
/// single-threaded reference; results are identical either way). The
/// platform supplies the NIC the fabric is built from.
pub fn run_sharded(
    config: &ShardedGassyConfig,
    platform: &PlatformSpec,
    workers: usize,
) -> ShardedGassyReport {
    assert!(config.nodes >= 2, "a gasnet world needs at least two nodes");
    assert!(config.pages >= 1 && config.streams >= 1);
    let latency = Nanos(platform.nic_lat_ns as u64).max(Nanos(1));
    let states = (0..config.nodes)
        .map(|_| NodeState {
            primary_pages: 0,
            replica_pages: 0,
            next_page: 0,
            completed: 0,
            finish: Nanos::ZERO,
        })
        .collect();
    let mut sim = FabricSim::new(states, platform.nic_gbit, latency, 1.0);
    let total = config.pages;
    let streams = (config.streams as u64).min(total);
    for _ in 0..streams {
        sim.schedule(0, Nanos::ZERO, move |ctx| write_next(ctx, total));
    }
    let elapsed = sim.run_sharded(workers);
    ShardedGassyReport {
        elapsed,
        client_finish: sim.state(0).finish,
        per_node_primary: sim.states().map(|s| s.primary_pages).collect(),
        per_node_replica: sim.states().map(|s| s.replica_pages).collect(),
        traffic: (0..config.nodes).map(|n| sim.traffic(n)).collect(),
        pages: total,
        events: sim.events_fired(),
        epochs: sim.epochs(),
        workers: workers.max(1),
    }
}

/// Client: pop the next page and push it down the replication chain —
/// primary write, replica forward, ack. The chain re-enters here on
/// ack, so each call keeps exactly one stream busy.
fn write_next(ctx: &mut NetCtx<'_, '_, NodeState>, total: u64) {
    let nodes = ctx.nodes();
    let state = ctx.state();
    if state.next_page >= total {
        return;
    }
    let page = state.next_page;
    state.next_page += 1;
    let primary = (page % nodes as u64) as usize;
    let replica = (primary + 1) % nodes;
    ctx.transfer(primary, PAGE_SIZE, move |c| {
        c.state().primary_pages += 1;
        c.transfer(replica, PAGE_SIZE, move |c| {
            c.state().replica_pages += 1;
            c.transfer(0, CTRL_BYTES, move |c| {
                let now = c.now();
                let state = c.state();
                state.completed += 1;
                if state.completed == total {
                    state.finish = now;
                } else {
                    write_next(c, total);
                }
            });
        });
    });
}

// ---- chaos variant: the same write path under a scheduled-fault ----
// ---- timeline, with the gasnet store's replica failover ported  ----
// ---- onto the sharded world                                     ----

/// Per-node state of the chaos run: the healthy world's placement
/// counters plus failure bookkeeping.
struct ChaosNodeState {
    primary_pages: u64,
    replica_pages: u64,
    /// Client only: next page index to push.
    next_page: u64,
    /// Client only: pages resolved (acked or abandoned).
    completed: u64,
    /// Client only: pages that needed a failover or retry.
    degraded: u64,
    /// Client only: pages abandoned after `MAX_ATTEMPTS`.
    lost: u64,
    /// Pages written straight to the replica after a primary failure.
    failovers: u64,
    /// Failures this node observed (timeouts on its sends).
    detections: u64,
    /// Earliest failure this node observed.
    first_fail: Option<Nanos>,
    /// Latest recovered completion this node observed.
    last_recovery: Nanos,
    finish: Nanos,
}

impl ChaosNodeState {
    fn note_fail(&mut self, at: Nanos) {
        self.detections += 1;
        self.first_fail = Some(self.first_fail.map_or(at, |f| f.min(at)));
    }
}

/// Result of one sharded chaos run — identical at every worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedGassyChaosReport {
    /// End-to-end virtual runtime.
    pub elapsed: Nanos,
    /// Primary page placement, node order.
    pub per_node_primary: Vec<u64>,
    /// Replica page placement, node order.
    pub per_node_replica: Vec<u64>,
    /// Fabric traffic counters, node order.
    pub traffic: Vec<NodeTraffic>,
    /// Pages the client attempted.
    pub pages: u64,
    /// Pages acked back to the client.
    pub completed: u64,
    /// Pages that needed a failover or retry before acking.
    pub degraded: u64,
    /// Pages abandoned after `MAX_ATTEMPTS` (the corruption signal —
    /// expected 0 for every schedule that ends healed).
    pub lost: u64,
    /// Pages written straight to the replica after a primary failure.
    pub failovers: u64,
    /// Send timeouts observed across the cluster.
    pub detections: u64,
    /// First failure to last recovered ack, in milliseconds.
    pub recovery_ms: f64,
    /// Fraction of pages that saw any failure.
    pub degraded_fraction: f64,
    /// Epoch barriers the engine crossed.
    pub epochs: u64,
    /// Worker threads used.
    pub workers: usize,
}

/// Start gap between consecutive pages so the workload spans the
/// schedule (1.25x its horizon): a chaos run must still be mid-write
/// when the last fault lands.
fn page_pace(horizon: Nanos, pages: u64) -> Nanos {
    Nanos(horizon.0 * 5 / 4 / pages.max(1))
}

/// Run the sharded world under a scheduled-fault timeline (see
/// [`popper_sim::FabricSim::set_fault_timeline`]): faults land at
/// epoch barriers mid-run, the client fails over to the replica when a
/// primary is unreachable and retries with backoff when both copies
/// are, and the primary acks degraded (single-copy) pages when the
/// replica is down. Deterministic: the same seed and timeline produce
/// identical reports and trace bytes at every worker count.
pub fn run_sharded_chaos(
    config: &ShardedGassyConfig,
    platform: &PlatformSpec,
    workers: usize,
    seed: u64,
    timeline: Vec<(Nanos, popper_sim::PlaneCmd)>,
) -> ShardedGassyChaosReport {
    assert!(config.nodes >= 2, "a gasnet world needs at least two nodes");
    assert!(config.pages >= 1 && config.streams >= 1);
    let latency = Nanos(platform.nic_lat_ns as u64).max(Nanos(1));
    let states = (0..config.nodes)
        .map(|_| ChaosNodeState {
            primary_pages: 0,
            replica_pages: 0,
            next_page: 0,
            completed: 0,
            degraded: 0,
            lost: 0,
            failovers: 0,
            detections: 0,
            first_fail: None,
            last_recovery: Nanos::ZERO,
            finish: Nanos::ZERO,
        })
        .collect();
    let mut sim = FabricSim::new(states, platform.nic_gbit, latency, 1.0);
    let horizon = timeline.iter().map(|(at, _)| *at).max().unwrap_or(Nanos::ZERO);
    sim.set_fault_timeline(seed, timeline);
    let total = config.pages;
    let pace = page_pace(horizon, total);
    let streams = (config.streams as u64).min(total);
    for _ in 0..streams {
        sim.schedule(0, Nanos::ZERO, move |ctx| chaos_write_next(ctx, total, pace));
    }
    let elapsed = sim.run_sharded(workers);

    let first_fail =
        sim.states().filter_map(|s| s.first_fail).min();
    let last_recovery = sim.states().map(|s| s.last_recovery).max().unwrap_or(Nanos::ZERO);
    let recovery_ms = recovery_ms(first_fail, last_recovery);
    let client = sim.state(0);
    let (completed, degraded, lost) = (client.completed, client.degraded, client.lost);
    ShardedGassyChaosReport {
        elapsed,
        per_node_primary: sim.states().map(|s| s.primary_pages).collect(),
        per_node_replica: sim.states().map(|s| s.replica_pages).collect(),
        traffic: (0..config.nodes).map(|n| sim.traffic(n)).collect(),
        pages: total,
        completed,
        degraded,
        lost,
        failovers: sim.states().map(|s| s.failovers).sum(),
        detections: sim.states().map(|s| s.detections).sum(),
        recovery_ms,
        degraded_fraction: (degraded + lost) as f64 / total as f64,
        epochs: sim.epochs(),
        workers: workers.max(1),
    }
}

type ChaosCtx<'a, 'b> = NetCtx<'a, 'b, ChaosNodeState>;

/// Client: pop the next page (paced onto its start slot) and push it
/// down the replication chain.
fn chaos_write_next(ctx: &mut ChaosCtx<'_, '_>, total: u64, pace: Nanos) {
    let now = ctx.now();
    let state = ctx.state();
    if state.next_page >= total {
        return;
    }
    let page = state.next_page;
    state.next_page += 1;
    let slot = pace * page;
    if slot > now {
        ctx.schedule_at(slot, move |c| write_page(c, page, 0, false, total, pace));
    } else {
        write_page(ctx, page, 0, false, total, pace);
    }
}

/// One write attempt of `page`: primary first; on a primary timeout,
/// fail over to the replica; when both are unreachable, back off and
/// retry the whole page.
fn write_page(
    ctx: &mut ChaosCtx<'_, '_>,
    page: u64,
    attempt: usize,
    touched: bool,
    total: u64,
    pace: Nanos,
) {
    let nodes = ctx.nodes();
    if attempt >= MAX_ATTEMPTS {
        let state = ctx.state();
        state.lost += 1;
        state.completed += 1;
        chaos_write_next(ctx, total, pace);
        return;
    }
    let primary = (page % nodes as u64) as usize;
    let replica = (primary + 1) % nodes;
    ctx.transfer_or(
        primary,
        PAGE_SIZE,
        move |c| primary_store(c, page, replica, touched, total, pace),
        move |c, u| {
            c.state().note_fail(u.gave_up_at);
            // Replica failover: write the single surviving copy
            // directly (the gasnet store's recovery path).
            c.transfer_or(
                replica,
                PAGE_SIZE,
                move |cc| {
                    let st = cc.state();
                    st.replica_pages += 1;
                    st.failovers += 1;
                    send_ack(cc, true, total, pace, 0);
                },
                move |cc, u2| {
                    cc.state().note_fail(u2.gave_up_at);
                    cc.schedule_in(retry_backoff(attempt), move |c3| {
                        write_page(c3, page, attempt + 1, true, total, pace)
                    });
                },
            );
        },
    );
}

/// Primary: store the page and forward the replica copy; when the
/// replica is unreachable, ack the client directly (the page survives
/// with one copy — degraded, not lost).
fn primary_store(
    ctx: &mut ChaosCtx<'_, '_>,
    _page: u64,
    replica: usize,
    touched: bool,
    total: u64,
    pace: Nanos,
) {
    ctx.state().primary_pages += 1;
    ctx.transfer_or(
        replica,
        PAGE_SIZE,
        move |c| {
            c.state().replica_pages += 1;
            send_ack(c, touched, total, pace, 0);
        },
        move |c, u| {
            c.state().note_fail(u.gave_up_at);
            send_ack(c, true, total, pace, 0);
        },
    );
}

/// Ack the client (retrying with backoff — a lost ack would strand a
/// write stream); the chain re-enters `chaos_write_next` there.
fn send_ack(ctx: &mut ChaosCtx<'_, '_>, degraded: bool, total: u64, pace: Nanos, attempt: usize) {
    if attempt >= MAX_ATTEMPTS {
        return; // Stream stranded; the client reports the page lost-in-flight.
    }
    ctx.transfer_or(
        0,
        CTRL_BYTES,
        move |c| {
            let now = c.now();
            let state = c.state();
            state.completed += 1;
            if degraded {
                state.degraded += 1;
                state.last_recovery = state.last_recovery.max(now);
            }
            if state.completed == total {
                state.finish = now;
            } else {
                chaos_write_next(c, total, pace);
            }
        },
        move |c, u| {
            c.state().note_fail(u.gave_up_at);
            c.schedule_in(retry_backoff(attempt), move |cc| {
                send_ack(cc, degraded, total, pace, attempt + 1)
            });
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::platforms;

    #[test]
    fn sharded_world_matches_reference_at_every_worker_count() {
        let config = ShardedGassyConfig { nodes: 6, pages: 96, streams: 3 };
        let platform = platforms::gassyfs_node();
        let reference = run_sharded(&config, &platform, 1);
        assert!(reference.client_finish > Nanos::ZERO);
        for workers in [2, 4, 8] {
            let parallel = run_sharded(&config, &platform, workers);
            assert_eq!(
                ShardedGassyReport { workers: 1, ..parallel },
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn placement_matches_the_gasnet_store() {
        // Round-robin primaries, replica one node over — the same
        // layout GasnetStore::alloc produces.
        let config = ShardedGassyConfig { nodes: 4, pages: 10, streams: 2 };
        let report = run_sharded(&config, &platforms::gassyfs_node(), 2);
        assert_eq!(report.per_node_primary, vec![3, 3, 2, 2]);
        assert_eq!(report.per_node_replica, vec![2, 3, 3, 2]);
    }

    #[test]
    fn every_page_pays_two_copies_and_an_ack() {
        let config = ShardedGassyConfig { nodes: 5, pages: 40, streams: 4 };
        let report = run_sharded(&config, &platforms::gassyfs_node(), 2);
        let wire: u64 = report.traffic.iter().map(|t| t.tx_bytes).sum();
        assert_eq!(wire, config.pages * (2 * PAGE_SIZE + CTRL_BYTES));
    }

    #[test]
    fn chaos_run_fails_over_and_stays_deterministic() {
        use popper_sim::PlaneCmd;
        let config = ShardedGassyConfig { nodes: 6, pages: 64, streams: 3 };
        let platform = platforms::gassyfs_node();
        // Crash the primary for pages ≡ 2 mid-run, restart it later:
        // in-flight writes fail over to the replica, later writes land
        // on the primary again once the restart crosses a barrier.
        let timeline = vec![
            (Nanos::from_millis(2), PlaneCmd::Crash(2)),
            (Nanos::from_millis(9), PlaneCmd::Restart(2)),
        ];
        let reference = run_sharded_chaos(&config, &platform, 1, 7, timeline.clone());
        assert_eq!(reference.completed, config.pages);
        assert_eq!(reference.lost, 0, "the schedule heals; no page may be abandoned");
        assert!(reference.failovers > 0, "the crash must force replica failovers");
        assert!(reference.degraded > 0);
        assert!(reference.recovery_ms > 0.0);
        for workers in [2, 8] {
            let parallel = run_sharded_chaos(&config, &platform, workers, 7, timeline.clone());
            assert_eq!(
                ShardedGassyChaosReport { workers: 1, ..parallel },
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn chaos_run_with_empty_timeline_sees_no_failures() {
        let config = ShardedGassyConfig { nodes: 4, pages: 24, streams: 2 };
        let report = run_sharded_chaos(&config, &platforms::gassyfs_node(), 2, 1, Vec::new());
        assert_eq!(report.completed, config.pages);
        assert_eq!(report.degraded + report.lost + report.failovers + report.detections, 0);
        assert_eq!(report.recovery_ms, 0.0);
    }

    #[test]
    fn more_streams_finish_no_later() {
        let platform = platforms::gassyfs_node();
        let narrow = run_sharded(&ShardedGassyConfig { streams: 1, ..Default::default() }, &platform, 2);
        let wide = run_sharded(&ShardedGassyConfig { streams: 8, ..Default::default() }, &platform, 2);
        assert!(wide.elapsed <= narrow.elapsed);
    }
}
