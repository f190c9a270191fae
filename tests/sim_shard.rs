//! Sharded-engine determinism, end to end: the same model must produce
//! byte-identical traces and identical results at every worker count.
//!
//! The CI job `sim-shard-determinism` runs this file. The contract it
//! pins is the one the whole sharding design hangs on: `run_sharded(n)`
//! is an *implementation detail* — no observable output (state, event
//! counts, virtual clock, trace bytes) may depend on `n` or on how the
//! OS interleaves the workers.

use popper_minimpi::lulesh::LuleshConfig;
use popper_sim::{platforms, Nanos, ShardCtx, ShardedSim};
use popper_trace::{ClockDomain, TraceSink};

/// Deterministic 64-bit mixer for the synthetic workload below.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A PHOLD-style model: `shards` logical processes, each seeded with a
/// few in-flight events; every event hops to a hashed destination with
/// a hashed delay at or beyond the lookahead, and each shard logs the
/// virtual times it fired at.
fn phold(shards: usize, hops: u32, seed: u64) -> ShardedSim<Vec<u64>> {
    const LOOKAHEAD: Nanos = Nanos(50);
    let mut sim: ShardedSim<Vec<u64>> = ShardedSim::new(vec![Vec::new(); shards], LOOKAHEAD);
    fn hop(ctx: &mut ShardCtx<'_, Vec<u64>>, ttl: u32, key: u64) {
        let now = ctx.now();
        ctx.state().push(now.0);
        if ttl == 0 {
            return;
        }
        let h = mix(key ^ u64::from(ttl));
        let dst = (h as usize) % ctx.shards();
        let delay = Nanos(50 + h % 400);
        if dst == ctx.shard_id() {
            ctx.schedule_in(delay, move |c| hop(c, ttl - 1, h));
        } else {
            ctx.send_to(dst, delay, move |c| hop(c, ttl - 1, h));
        }
    }
    for s in 0..shards {
        for i in 0..3u64 {
            let key = mix(seed ^ ((s as u64) << 20) ^ i);
            sim.schedule(s, Nanos(key % 200), move |ctx| hop(ctx, hops, key));
        }
    }
    sim
}

fn phold_outcome(shards: usize, workers: usize) -> (Vec<Vec<u64>>, u64, Nanos, String) {
    let sink = TraceSink::new();
    let tracer = sink.tracer(ClockDomain::Virtual);
    let mut sim = phold(shards, 12, 42);
    sim.set_tracer(tracer.clone());
    sim.run_sharded(workers);
    tracer.flush();
    let logs = sim.states().cloned().collect();
    let trace = popper_trace::export::chrome_trace_json(&sink.drain());
    (logs, sim.events_fired(), sim.now(), trace)
}

#[test]
fn thousand_shard_phold_trace_bytes_are_identical_at_1_2_8_workers() {
    let reference = phold_outcome(1000, 1);
    assert!(reference.1 > 3000, "events fired: {}", reference.1);
    assert!(reference.3.contains("dispatch"));
    for workers in [2, 8] {
        let outcome = phold_outcome(1000, workers);
        assert_eq!(outcome.0, reference.0, "shard logs, workers={workers}");
        assert_eq!(outcome.1, reference.1, "event count, workers={workers}");
        assert_eq!(outcome.2, reference.2, "virtual clock, workers={workers}");
        assert_eq!(outcome.3, reference.3, "trace bytes, workers={workers}");
    }
}

#[test]
fn sharded_lulesh_proxy_is_identical_at_1_2_8_workers() {
    let config = LuleshConfig::small();
    let platform = platforms::hpc_node();
    let reference = popper_minimpi::run_sharded(&config, &platform, 1);
    for workers in [2, 8] {
        let run = popper_minimpi::run_sharded(&config, &platform, workers);
        assert_eq!(run.per_rank_finish, reference.per_rank_finish, "workers={workers}");
        assert_eq!(run.elapsed, reference.elapsed);
        assert_eq!(run.events, reference.events);
    }
}

#[test]
fn sharded_farm_model_is_identical_at_1_2_8_workers() {
    let config = popper_farm::FarmSimConfig::default();
    let reference = popper_farm::simulate(&config, 1);
    for workers in [2, 8] {
        let run = popper_farm::simulate(&config, workers);
        assert_eq!(popper_farm::FarmSimReport { workers: 1, ..run }, reference, "workers={workers}");
    }
}

#[test]
fn sharded_engine_emits_a_drain_sample_per_shard() {
    // The trace must end with every shard's pending counter back at
    // zero — the engine-level drain fix, surfaced per shard.
    let sink = TraceSink::new();
    let tracer = sink.tracer(ClockDomain::Virtual);
    let mut sim = phold(4, 12, 42);
    sim.set_tracer(tracer.clone());
    sim.run_sharded(2);
    tracer.flush();
    let events = sink.drain();
    let mut last_pending: std::collections::BTreeMap<String, f64> =
        std::collections::BTreeMap::new();
    for e in &events {
        if let popper_trace::EventKind::Counter { value, .. } = e.kind {
            if e.name == "pending" {
                last_pending.insert(e.track.clone(), value);
            }
        }
    }
    assert!(!last_pending.is_empty(), "no pending counter samples in the trace");
    for (track, value) in &last_pending {
        assert_eq!(*value, 0.0, "track {track} ends on a stale pending depth");
    }
}
