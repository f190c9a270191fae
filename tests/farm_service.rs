//! F1 — popper-farm acceptance: a multi-tenant CI farm multiplexing
//! over a hundred concurrent pipelines across eight tenants, with DRR
//! fairness, bounded-queue backpressure, chaos that loses zero jobs
//! (Aver-gated, not just asserted), a deterministic event log, and the
//! status/badge endpoint round-tripped over a real socket.

use popper::chaos::FaultSchedule;
use popper::core::ExperimentEngine;
use popper::farm::{Farm, FarmBuilder, FarmConfig, SubmitError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

const TENANTS: usize = 8;

fn farm(config: FarmConfig, chaos: Option<FaultSchedule>) -> Farm {
    let mut b = FarmBuilder::new(Arc::new(ExperimentEngine::new())).config(config);
    if let Some(s) = chaos {
        b = b.chaos(s);
    }
    for i in 1..=TENANTS {
        b = b.tenant(&format!("t{i}"), "ceph-rados", "exp").unwrap();
    }
    b.build().unwrap()
}

fn submit_all(farm: &Farm, per_tenant: u64) {
    for _ in 0..per_tenant {
        for i in 1..=TENANTS {
            let tenant = format!("t{i}");
            loop {
                match farm.submit(&tenant, "exp") {
                    Ok(_) => break,
                    Err(SubmitError::QueueFull { retry_after_ms, .. }) => std::thread::sleep(
                        std::time::Duration::from_millis(retry_after_ms.min(20)),
                    ),
                    Err(e) => panic!("submit: {e}"),
                }
            }
        }
    }
}

#[test]
fn hundred_pipelines_across_eight_tenants_run_fairly() {
    // 8 tenants x 13 jobs = 104 concurrent pipelines. Queues are deep
    // enough to hold the whole backlog, so the DRR dispatch order is
    // the fairness evidence: submission takes microseconds per job
    // while each pipeline takes milliseconds, so essentially the whole
    // backlog is queued before more than a couple of jobs finish.
    let f = farm(
        FarmConfig { workers: 2, queue_capacity: 16, quantum: 2, ..Default::default() },
        None,
    );
    submit_all(&f, 13);
    f.drain();
    let dispatches = f.dispatch_log();
    assert_eq!(dispatches.len(), TENANTS * 13);

    // Fairness: in the first 48 dispatches (6 per tenant if perfectly
    // fair) every tenant gets service, and no tenant gets more than a
    // small multiple of another. DRR guarantees per-visit deficits are
    // bounded by the quantum; the slack covers the handful of jobs
    // dispatched while the backlog was still building.
    let window = &dispatches[..48];
    let mut counts = [0usize; TENANTS];
    for (tenant, _) in window {
        counts[*tenant] += 1;
    }
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(*min >= 2, "a tenant was starved in the first window: {counts:?}");
    assert!(*max <= 4 * *min, "unfair dispatch window: {counts:?}");

    let report = f.shutdown();
    assert_eq!(report.submitted, 104);
    assert_eq!(report.completed, 104);
    assert_eq!(report.lost, 0);
    for t in &report.tenants {
        assert_eq!(t.passed + t.failed, 13, "{report}");
    }
    // Identical artifacts across tenants dedup in the shared store.
    assert!(report.dedup_ratio > 1.0, "dedup {:.2}", report.dedup_ratio);
}

#[test]
fn backpressure_rejects_then_admits_after_backoff() {
    let f = farm(
        FarmConfig { workers: 1, queue_capacity: 2, quantum: 1, ..Default::default() },
        None,
    );
    // A burst far past capacity must hit the admission bound.
    let mut saw_reject = false;
    let mut admitted = 0u64;
    for _ in 0..64 {
        match f.submit("t1", "exp") {
            Ok(_) => admitted += 1,
            Err(SubmitError::QueueFull { depth, retry_after_ms }) => {
                saw_reject = true;
                assert_eq!(depth, 2);
                assert!(retry_after_ms >= 1);
                std::thread::sleep(std::time::Duration::from_millis(retry_after_ms.min(20)));
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(saw_reject, "a 64-job burst into a 2-deep queue never saw backpressure");
    assert!(admitted >= 3, "backoff never led to re-admission");
    let report = f.shutdown();
    assert_eq!(report.submitted, admitted);
    assert_eq!(report.lost, 0);
}

#[test]
fn chaos_crashes_workers_but_loses_zero_jobs() {
    let schedule = FaultSchedule::named("node-crash", 4, 42).unwrap();
    let f = farm(
        FarmConfig { workers: 2, queue_capacity: 16, max_attempts: 3, ..Default::default() },
        Some(schedule),
    );
    submit_all(&f, 4);
    f.drain();
    let table = f.results_table();
    let report = f.shutdown();

    // Crashes actually happened (the schedule is deterministic for
    // seed 42) and every crashed job was retried to completion.
    assert!(report.crashes > 0, "chaos farm injected no crashes:\n{report}");
    assert_eq!(report.submitted, TENANTS as u64 * 4);
    assert_eq!(report.lost, 0, "{report}");

    // The zero-lost and bounded-retry invariants as Aver gates over the
    // per-job results table, per tenant — checked, not trusted.
    let gate = "when tenant=* expect recovers_within(lost, 0);\
                when tenant=* expect recovers_within(crashes, 2);\
                when tenant=* expect recovers_within(retries, 2)";
    let verdict = popper::aver::check(gate, &table).unwrap();
    assert!(verdict.passed, "{verdict}");
    assert_eq!(verdict.groups, TENANTS * 3);
}

#[test]
fn same_seed_farms_emit_byte_identical_event_logs() {
    let run = |seed: u64| {
        let schedule = FaultSchedule::named("node-crash", 4, seed).unwrap();
        let f = farm(
            FarmConfig { workers: 2, queue_capacity: 16, ..Default::default() },
            Some(schedule),
        );
        submit_all(&f, 3);
        f.drain();
        let log = f.event_log();
        let report = f.shutdown();
        assert_eq!(report.lost, 0);
        log
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "same seed must replay the same crash/retry story byte-for-byte");
    assert!(a.starts_with("farm-events v1 seed=7 schedule=node-crash"), "{a}");
    // A different seed perturbs the crash pattern (verified for this
    // seed pair; the log embeds the seed either way).
    let c = run(8);
    assert_ne!(a, c);
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: farm\r\n\r\n").as_bytes()).unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.lines().next().unwrap().to_string(), body.to_string())
}

#[test]
fn status_badges_and_timelines_served_over_http() {
    let f = farm(FarmConfig::default(), None);
    submit_all(&f, 2);
    f.drain();
    let server = f.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();

    let (status, body) = http_get(addr, "/status");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("popper-farm"), "{body}");
    assert!(body.contains("dedup_ratio"), "{body}");

    let (status, body) = http_get(addr, "/badge.svg");
    assert!(status.contains("200"));
    assert!(body.contains("passing"), "{body}");

    let (status, body) = http_get(addr, "/tenants/t1/builds");
    assert!(status.contains("200"));
    assert!(body.contains("queue_wait_ms"), "{body}");
    assert!(body.contains("retries"), "{body}");

    let (status, body) = http_get(addr, "/tenants/t1/timeline.svg");
    assert!(status.contains("200"));
    assert!(body.starts_with("<svg") || body.contains("<svg"), "{body}");

    let (status, _) = http_get(addr, "/tenants/ghost/builds");
    assert!(status.contains("404"), "{status}");

    server.stop();
    let report = f.shutdown();
    assert_eq!(report.lost, 0);
}
