//! Sharded simulation engine throughput: events/sec, serial vs sharded.
//!
//! The sharding claim is twofold. Determinism: `run_sharded(n)` is
//! byte-identical to the serial reference at every `n` (the bench
//! re-checks this on the bench model before timing anything). Speed:
//! with enough cores, sharding a ≥1000-node model across 8 workers
//! clears 2x the serial event rate. The speedup gate is armed only when
//! the host actually has 8 cores — on smaller hosts (CI containers are
//! often 1–2 cores) a wall-clock 2x is physically impossible, so the
//! gate degrades to an honest overhead bound: the sharded engine may
//! not fall below a fixed fraction of the serial rate even with all
//! workers multiplexed onto one core. The host core count is recorded
//! in `BENCH_sim.json` so a reader knows which claim was checked.

use criterion::{criterion_group, Criterion};
use popper_format::{json, Table, Value};
use popper_sim::{FabricSim, Nanos, NetCtx, ShardCtx, ShardedSim};
use std::time::Instant;

/// Simulated nodes (shards) in the bench model.
const NODES: usize = 1000;
/// Event hops seeded per node.
const SEEDS_PER_NODE: u64 = 3;
/// Hops each seeded chain makes before dying out.
const HOPS: u32 = 40;

/// Nodes in the contention-heavy fan-in model (node 0 is the hub).
const FAN_NODES: usize = 64;
/// Request/ack round trips each source drives into the hub.
const FAN_CHAIN: u64 = 16;

/// Timed runs per model and worker count. The gate and `BENCH_sim.json`
/// take the median rate: on a small host one run's rate follows the
/// host's noise (the PHOLD 8-worker rate of single runs spans
/// 0.35–0.57x serial on 2 cores).
const RUNS: usize = 5;

/// Speedup the 8-worker engine must clear on a ≥8-core host.
const GATE_SPEEDUP: &str = "expect avg(speedup_8w) >= 2";
/// Overhead bound for core-starved hosts: even multiplexed onto a
/// single core, epoch barriers and outbox merges may not eat more than
/// ~3/4 of the serial event rate.
const GATE_OVERHEAD: &str = "expect avg(relative_rate_8w) >= 0.25";

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The bench model: PHOLD over `NODES` shards. Every event does a
/// little state work (so there is something to parallelize), then hops
/// to a hashed destination with a hashed delay >= the lookahead.
fn model() -> ShardedSim<u64> {
    const LOOKAHEAD: Nanos = Nanos(100);
    let mut sim: ShardedSim<u64> = ShardedSim::new(vec![0u64; NODES], LOOKAHEAD);
    fn hop(ctx: &mut ShardCtx<'_, u64>, ttl: u32, key: u64) {
        // A few rounds of mixing stand in for per-event model work.
        let mut acc = key;
        for _ in 0..32 {
            acc = mix(acc);
        }
        *ctx.state() ^= acc;
        if ttl == 0 {
            return;
        }
        let h = mix(key ^ u64::from(ttl));
        let dst = (h as usize) % ctx.shards();
        let delay = Nanos(100 + h % 900);
        if dst == ctx.shard_id() {
            ctx.schedule_in(delay, move |c| hop(c, ttl - 1, h));
        } else {
            ctx.send_to(dst, delay, move |c| hop(c, ttl - 1, h));
        }
    }
    for node in 0..NODES {
        for i in 0..SEEDS_PER_NODE {
            let key = mix(((node as u64) << 24) ^ i);
            sim.schedule(node, Nanos(key % 500), move |ctx| hop(ctx, HOPS, key));
        }
    }
    sim
}

/// Events/sec for one full run at `workers` (0 = the serial `run()`
/// path). Returns the rate and the model's final state fingerprint.
fn measure(workers: usize) -> (f64, u64, u64) {
    let mut sim = model();
    let started = Instant::now();
    if workers == 0 {
        sim.run();
    } else {
        sim.run_sharded(workers);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let fingerprint = sim.states().fold(0u64, |a, s| mix(a ^ *s));
    (sim.events_fired() as f64 / elapsed, fingerprint, sim.events_fired())
}

/// The contention bench model: every source pours request/ack round
/// trips into one hub through the shard-native fabric, so the hub's
/// ingress incast and the shared core stage — the work the epoch
/// barrier replays — dominate instead of independent per-shard hops.
fn fanin_model() -> FabricSim<u64> {
    // A datacenter-RTT latency keeps the epoch count honest: with a
    // tiny lookahead the bench would measure barrier overhead alone
    // (~1 event per epoch), not contention replay.
    const LATENCY: Nanos = Nanos::from_micros(50);
    let mut sim = FabricSim::new(vec![0u64; FAN_NODES], 10.0, LATENCY, 2.0);
    fn churn(state: &mut u64, key: u64) {
        let mut acc = key;
        for _ in 0..32 {
            acc = mix(acc);
        }
        *state ^= acc;
    }
    fn send(ctx: &mut NetCtx<'_, '_, u64>, round: u64) {
        if round == 0 {
            return;
        }
        let src = ctx.node();
        let key = mix(((src as u64) << 32) | round);
        churn(ctx.state(), key);
        ctx.transfer(0, 8_192 + key % 8_192, move |hub| {
            churn(hub.state(), key);
            hub.transfer(src, 64, move |c| send(c, round - 1));
        });
    }
    for src in 1..FAN_NODES {
        sim.schedule(src, Nanos(mix(src as u64) % 1_000), move |ctx| send(ctx, FAN_CHAIN));
    }
    sim
}

/// Events/sec for one fan-in run at `workers` (0 = the serial `run()`
/// path). Returns the rate, a state+clock fingerprint and the event
/// count.
fn measure_fanin(workers: usize) -> (f64, u64, u64) {
    let mut sim = fanin_model();
    let started = Instant::now();
    if workers == 0 {
        sim.run();
    } else {
        sim.run_sharded(workers);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let fingerprint = sim.states().fold(mix(sim.now().0), |a, s| mix(a ^ *s));
    (sim.events_fired() as f64 / elapsed, fingerprint, sim.events_fired())
}

/// The median events/sec of [`RUNS`] runs of `measure` at `workers`,
/// with the fingerprint and event count every run must share.
fn median_rate(measure: fn(usize) -> (f64, u64, u64), workers: usize) -> (f64, u64, u64) {
    let runs: Vec<(f64, u64, u64)> = (0..RUNS).map(|_| measure(workers)).collect();
    let (_, fingerprint, events) = runs[0];
    for &(_, fp, ev) in &runs {
        assert_eq!((fp, ev), (fingerprint, events), "workers={workers}: repeated runs diverged");
    }
    let mut rates: Vec<f64> = runs.iter().map(|r| r.0).collect();
    rates.sort_by(f64::total_cmp);
    (rates[RUNS / 2], fingerprint, events)
}

fn print_and_commit() {
    eprintln!("{}", popper_bench::banner("sim: sharded engine events/sec"));
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Determinism first: the bench model itself must agree byte-for-
    // byte between serial and sharded before any rate is worth quoting.
    let (serial_rate, serial_fp, events) = median_rate(measure, 0);
    let (rate_2w, fp_2w, ev_2w) = median_rate(measure, 2);
    let (rate_8w, fp_8w, ev_8w) = median_rate(measure, 8);
    assert_eq!((fp_2w, ev_2w), (serial_fp, events), "2-worker run diverged from serial");
    assert_eq!((fp_8w, ev_8w), (serial_fp, events), "8-worker run diverged from serial");

    let speedup_2w = rate_2w / serial_rate;
    let speedup_8w = rate_8w / serial_rate;
    eprintln!("model:  {NODES} nodes, {events} events; median of {RUNS} runs per rate");
    eprintln!("serial: {:.0} events/sec", serial_rate);
    eprintln!("2 workers: {:.0} events/sec ({speedup_2w:.2}x)", rate_2w);
    eprintln!("8 workers: {:.0} events/sec ({speedup_8w:.2}x)", rate_8w);

    // Same protocol for the contention-heavy fan-in: determinism first,
    // then the rate. Its shared-core stage is barrier-replayed work the
    // PHOLD model never exercises.
    let (fan_serial, fan_fp, fan_events) = median_rate(measure_fanin, 0);
    let (fan_rate_8w, fan_fp_8w, fan_ev_8w) = median_rate(measure_fanin, 8);
    assert_eq!((fan_fp_8w, fan_ev_8w), (fan_fp, fan_events), "8-worker fan-in diverged from serial");
    let fan_speedup_8w = fan_rate_8w / fan_serial;
    eprintln!("fan-in: {FAN_NODES} nodes, {fan_events} events");
    eprintln!("fan-in serial: {:.0} events/sec", fan_serial);
    eprintln!("fan-in 8 workers: {:.0} events/sec ({fan_speedup_8w:.2}x)", fan_rate_8w);

    // Gate selection is a fact about the host, not a tunable: the 2x
    // claim needs 8 cores to be falsifiable.
    let (gate, armed) = if host_cores >= 8 {
        (GATE_SPEEDUP, "speedup")
    } else {
        eprintln!("host has {host_cores} core(s) < 8: speedup gate disarmed, checking overhead bound");
        (GATE_OVERHEAD, "overhead")
    };
    let mut table = Table::new(["workload", "speedup_8w", "relative_rate_8w"]);
    table
        .push_record(&[
            ("workload", Value::from("phold")),
            ("speedup_8w", Value::from(speedup_8w)),
            ("relative_rate_8w", Value::from(speedup_8w)),
        ])
        .unwrap();
    table
        .push_record(&[
            ("workload", Value::from("fanin_fabric")),
            ("speedup_8w", Value::from(fan_speedup_8w)),
            ("relative_rate_8w", Value::from(fan_speedup_8w)),
        ])
        .unwrap();
    let verdict = popper_aver::check(gate, &table).unwrap();
    eprintln!("aver: {gate}\n  -> {verdict}");
    assert!(verdict.passed, "sharded engine gate failed: {verdict}");

    let mut rates = Value::empty_map();
    rates.insert("serial_events_per_sec", Value::from(serial_rate));
    rates.insert("workers_2_events_per_sec", Value::from(rate_2w));
    rates.insert("workers_8_events_per_sec", Value::from(rate_8w));
    rates.insert("speedup_2w", Value::from(speedup_2w));
    rates.insert("speedup_8w", Value::from(speedup_8w));
    let mut fanin = Value::empty_map();
    fanin.insert("nodes", Value::from(FAN_NODES as i64));
    fanin.insert("events", Value::from(fan_events as i64));
    fanin.insert("serial_events_per_sec", Value::from(fan_serial));
    fanin.insert("workers_8_events_per_sec", Value::from(fan_rate_8w));
    fanin.insert("speedup_8w", Value::from(fan_speedup_8w));
    fanin.insert("deterministic", Value::from(true));
    let mut modeldoc = Value::empty_map();
    modeldoc.insert("nodes", Value::from(NODES as i64));
    modeldoc.insert("events", Value::from(events as i64));
    modeldoc.insert("deterministic", Value::from(true));
    let mut assertions = Value::empty_map();
    assertions.insert("armed", Value::from(armed));
    assertions.insert("gate", Value::from(gate));
    let mut report = Value::empty_map();
    report.insert("bench", Value::from("sim_sharded_events_per_sec"));
    report.insert("unit", Value::from("events_per_sec"));
    report.insert("host_cores", Value::from(host_cores as i64));
    report.insert("runs_per_rate", Value::from(RUNS as i64));
    report.insert("model", modeldoc);
    report.insert("rates", rates);
    report.insert("fanin_fabric", fanin);
    report.insert("assertions", assertions);
    report.insert("verdict", Value::from(format!("{verdict}")));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, json::to_string_pretty(&report) + "\n").unwrap();
    eprintln!("wrote {path}\n");
}

fn bench_sharded_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(10);
    group.bench_function("phold_1000/serial", |b| b.iter(|| measure(0).2));
    group.bench_function("phold_1000/8_workers", |b| b.iter(|| measure(8).2));
    group.bench_function("fanin_fabric/serial", |b| b.iter(|| measure_fanin(0).2));
    group.bench_function("fanin_fabric/8_workers", |b| b.iter(|| measure_fanin(8).2));
    group.finish();
}

criterion_group!(benches, bench_sharded_window);

fn main() {
    print_and_commit();
    benches();
    criterion::Criterion::default().configure_from_args().final_summary();
}
