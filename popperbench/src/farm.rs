//! `farm`: push rounds through a `Farm` of 2 workers and 8 tenants.
//!
//! Set-up gives every tenant its cold build, then starts the farm over
//! those repos and binds its HTTP endpoint, so each timed job is a memo
//! hit: DRR admission, memo lookup, the shared chunk store, batched
//! manifest commits and HTTP do the work, and the runners almost none.
//! One op is a round: each tenant submits one job, then `drain()`. While
//! a round is in flight a second thread GETs `/badge.svg`, one socket at
//! a time. Every [`FARM_ROUNDS`] rounds a new farm starts over the
//! primed repos, between ops.

use crate::spans::{self, count, within};
use crate::stats;
use crate::workload::{Rng, Workload};
use popper_core::{
    lifecycle_session, templates::find_template, ExperimentEngine, PopperRepo, RunContext,
};
use popper_farm::{Farm, FarmBuilder, FarmConfig, FarmServer, SubmitError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Templates of the tenants: two heavy simulations among light ones,
/// so that priming is real work.
const TEMPLATES: [&str; 8] = [
    "gassyfs",
    "mpi-comm-variability",
    "ceph-rados",
    "torpor",
    "zlog",
    "cloverleaf",
    "proteustm",
    "jupyter-bww",
];

const WORKERS: usize = 2;

/// Rounds a farm serves before a new one starts over the primed repos,
/// outside the timed rounds. Tenant repos and job logs grow with every
/// round; a bounded lifetime keeps a round's cost and the process's
/// memory independent of how many rounds the host managed to run.
const FARM_ROUNDS: u64 = 200;

/// The badge client's pause between a reply and its next request. It
/// bounds the connections a run opens to a few per round.
const BADGE_THINK: Duration = Duration::from_millis(1);
const EXPERIMENT: &str = "exp";

pub struct FarmLoad {
    /// `(tenant, template)`; the seed picks the pairing and submit order.
    tenants: Vec<(String, &'static str)>,
    engine: Arc<ExperimentEngine>,
    /// Each tenant's repo after its cold build.
    primed: Vec<PopperRepo>,
    running: Option<Running>,
    round_ms: Vec<f64>,
    badge_ms: Vec<f64>,
    admitted: u64,
    rejected: u64,
    stored_bytes: u64,
    rounds_in_farm: u64,
}

struct Running {
    farm: Farm,
    server: FarmServer,
    badge: Badge,
    completed: Vec<u64>,
}

impl FarmLoad {
    pub fn new(seed: u64) -> FarmLoad {
        let mut rng = Rng::new(seed);
        let mut templates = TEMPLATES.to_vec();
        rng.shuffle(&mut templates);
        let tenants = templates
            .into_iter()
            .enumerate()
            .map(|(i, t)| (format!("t{i}"), t))
            .collect();
        FarmLoad {
            tenants,
            engine: Arc::new(popper_cli::runners::full_engine()),
            primed: Vec::new(),
            running: None,
            round_ms: Vec::new(),
            badge_ms: Vec::new(),
            admitted: 0,
            rejected: 0,
            stored_bytes: 0,
            rounds_in_farm: 0,
        }
    }

    /// Submit, retrying after the farm's hint while its queue is full.
    fn submit(&mut self, tenant: usize) -> Result<(), String> {
        let farm = &self.running.as_ref().ok_or("farm not set up")?.farm;
        let name = &self.tenants[tenant].0;
        for _ in 0..1000 {
            let result = within("farm.submit", || farm.submit(name, EXPERIMENT));
            match result {
                Ok(_) => {
                    self.admitted += 1;
                    return Ok(());
                }
                Err(SubmitError::QueueFull { retry_after_ms, .. }) => {
                    self.rejected += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.min(50)));
                }
                Err(e) => return Err(format!("submit for {name}: {e}")),
            }
        }
        Err(format!("{name}: queue stayed full"))
    }

    /// Check that every tenant completed exactly one job since the last
    /// check.
    fn check_round(&mut self) -> Result<(), String> {
        let running = self.running.as_mut().ok_or("farm not set up")?;
        let now: Vec<u64> = running
            .farm
            .completed_per_tenant()
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        for (i, (was, is)) in running.completed.iter().zip(&now).enumerate() {
            if is - was != 1 {
                return Err(format!(
                    "{}: {} job(s) completed in a round, expected 1",
                    self.tenants[i].0,
                    is - was
                ));
            }
        }
        running.completed = now;
        Ok(())
    }

    /// Give every tenant its cold build: a repo from the tenant's
    /// template, run once through the same memoized lifecycle a farm job
    /// runs, so that every farm job on it is a memo hit.
    fn prime(&mut self) -> Result<(), String> {
        self.primed = self
            .tenants
            .iter()
            .map(|(name, template)| {
                let tpl = find_template(template)
                    .ok_or_else(|| format!("unknown template '{template}'"))?;
                let mut repo = PopperRepo::init(name).map_err(|e| e.to_string())?;
                for (path, contents) in tpl.files(EXPERIMENT) {
                    repo.write(&path, contents).map_err(|e| e.to_string())?;
                }
                repo.commit(&format!("popper add {template} {EXPERIMENT}"))
                    .map_err(|e| e.to_string())?;
                let session = lifecycle_session(&repo, EXPERIMENT, "run", &[]);
                let mut ctx = RunContext::for_experiment(&repo, EXPERIMENT)?.with_memo(session);
                self.engine.run_pipeline(&mut repo, &mut ctx)?;
                if !ctx.success() {
                    return Err(format!("{name}: cold build of {template} failed"));
                }
                Ok(repo)
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    /// Start a farm over copies of the primed tenant repos, bind its
    /// endpoint and start the badge client.
    fn build(&mut self) -> Result<(), String> {
        let mut builder = FarmBuilder::new(Arc::clone(&self.engine)).config(FarmConfig {
            workers: WORKERS,
            ..Default::default()
        });
        for ((name, _), repo) in self.tenants.iter().zip(&self.primed) {
            builder = builder.tenant_repo(name, repo.clone());
        }
        let farm = builder.build()?;
        let server = farm.serve("127.0.0.1:0")?;
        let badge = Badge::start(server.addr());
        self.running = Some(Running {
            farm,
            server,
            badge,
            completed: vec![0; self.tenants.len()],
        });
        self.rounds_in_farm = 0;
        Ok(())
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(running) = self.running.take() else {
            return Ok(());
        };
        let badge = running.badge.stop();
        let memo: (u64, u64) = running
            .farm
            .job_records()
            .iter()
            .fold((0, 0), |(h, m), r| (h + r.memo_hits, m + r.memo_misses));
        // Every round flushes its whole artifact batch, so the store is
        // complete here.
        let store = running.farm.store_stats();
        let report = running.farm.shutdown();
        running.server.stop();
        self.stored_bytes = store.stored_bytes;
        self.badge_ms.extend(badge?);
        if spans::enabled() {
            count("memo.hits", memo.0 as f64);
            count("memo.misses", memo.1 as f64);
            count("store.dedup_ratio", store.dedup_ratio());
            count("store.ingested_bytes", store.ingested_bytes as f64);
        }
        if report.lost > 0 {
            return Err(format!("farm lost {} job(s)", report.lost));
        }
        if memo.1 > 0 {
            return Err(format!(
                "{} farm stage lookup(s) missed the memo table",
                memo.1
            ));
        }
        let failed: u64 = report.tenants.iter().map(|t| t.failed).sum();
        if failed > 0 {
            return Err(format!("{failed} farm job(s) failed:\n{report}"));
        }
        Ok(())
    }
}

impl Workload for FarmLoad {
    fn setup(&mut self) -> Result<(), String> {
        self.stop()?;
        self.prime()?;
        self.build()
    }

    fn prepare(&mut self) -> Result<(), String> {
        if self.rounds_in_farm < FARM_ROUNDS {
            return Ok(());
        }
        self.stop()?;
        self.build()
    }

    fn op(&mut self, _n: u64) -> Result<(), String> {
        let start = Instant::now();
        self.running
            .as_ref()
            .ok_or("farm not set up")?
            .badge
            .in_flight(true);
        let result = (|| {
            for i in 0..self.tenants.len() {
                self.submit(i)?;
            }
            within("farm.drain", || {
                self.running.as_ref().map(|r| r.farm.drain())
            });
            Ok::<(), String>(())
        })();
        let badge = &self.running.as_ref().ok_or("farm not set up")?.badge;
        badge.in_flight(false);
        badge.round_done();
        self.round_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.rounds_in_farm += 1;
        result?;
        self.check_round()
    }

    fn sweep_ops(&self) -> u64 {
        // Enough rounds for a p99 with ten rounds beyond it.
        1200
    }

    fn state_bytes(&self) -> u64 {
        self.stored_bytes
    }

    fn finish(&mut self) -> Result<(), String> {
        let result = self.stop();
        if spans::enabled() {
            for &ms in &self.round_ms {
                count("farm.round_ms", ms);
            }
            for &ms in &self.badge_ms {
                count("farm.badge_ms", ms);
            }
            count("farm.admitted", self.admitted as f64);
            count("farm.queue_full", self.rejected as f64);
        }
        result
    }

    fn extra(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut out = vec![
            ("rounds", self.round_ms.len() as f64, "count"),
            ("badge_gets", self.badge_ms.len() as f64, "count"),
        ];
        if let Some(p99) = stats::tail(&self.round_ms, 99.0) {
            out.push(("op_ms_p99", p99, "ms"));
        }
        if let Some(p99) = stats::tail(&self.badge_ms, 99.0) {
            out.push(("badge_ms_p99", p99, "ms"));
        }
        if let Some(r) = stats::queue_full_ratio(self.rejected, self.admitted) {
            out.push(("queue_full_ratio", r.value, "ratio"));
        }
        out
    }
}

/// The badge generator: one client GETting `/badge.svg`, one socket at
/// a time with [`BADGE_THINK`] between replies, while a round is in
/// flight; idle otherwise.
struct Badge {
    shared: Arc<BadgeShared>,
    handle: JoinHandle<Result<Vec<f64>, String>>,
}

struct BadgeShared {
    in_flight: Mutex<bool>,
    cv: Condvar,
    stop: AtomicBool,
    /// Set once a round has completed on this farm.
    built: AtomicBool,
}

impl Badge {
    fn start(addr: SocketAddr) -> Badge {
        let shared = Arc::new(BadgeShared {
            in_flight: Mutex::new(false),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            built: AtomicBool::new(false),
        });
        let s = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                {
                    let mut go = s.in_flight.lock().expect("badge flag lock poisoned");
                    while !*go && !s.stop.load(Ordering::SeqCst) {
                        go = s.cv.wait(go).expect("badge flag lock poisoned");
                    }
                }
                if s.stop.load(Ordering::SeqCst) {
                    return Ok(samples);
                }
                // Until the farm's first round is done, no build may have
                // finished and the badge may still read "unknown". Read
                // before the request: the round can end while it is out.
                let built = s.built.load(Ordering::SeqCst);
                let start = Instant::now();
                let response = get(addr, "/badge.svg")?;
                samples.push(start.elapsed().as_secs_f64() * 1e3);
                let unknown_ok = !built && response.contains("unknown");
                if !response.starts_with("HTTP/1.1 200")
                    || !(response.contains("passing") || unknown_ok)
                {
                    return Err(format!("badge is not 200/passing:\n{response}"));
                }
                std::thread::sleep(BADGE_THINK);
            }
        });
        Badge { shared, handle }
    }

    fn in_flight(&self, on: bool) {
        *self
            .shared
            .in_flight
            .lock()
            .expect("badge flag lock poisoned") = on;
        self.shared.cv.notify_one();
    }

    fn round_done(&self) {
        self.shared.built.store(true, Ordering::SeqCst);
    }

    fn stop(self) -> Result<Vec<f64>, String> {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.in_flight(false);
        self.handle
            .join()
            .map_err(|_| "badge thread panicked".to_string())?
    }
}

fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: farm\r\n\r\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    Ok(response)
}
