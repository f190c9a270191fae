//! `sharded`: each of the four sharded worlds through
//! `popper run --no-cache`, at `sim_workers: 1`, in a fresh copy of a
//! repo that holds them; the traced run also runs each at 2 workers.
//!
//! At one worker a sharded world runs its shards, epochs and barrier
//! stage on the calling thread: the serial path of the shard engine,
//! single-threaded and bound by the simulation, so its time follows
//! the program rather than how fast the host wakes idle threads. At two
//! workers, the epoch loop's barriers do almost all of the time; that
//! half runs only in the traced run, where both results tables must be
//! identical but for their `workers` column, and the worlds' own entry
//! points are timed at both worker counts for the `sim.*` metrics.

use crate::cli::popper;
use crate::spans::{self, count, within};
use crate::workload::{artifact, copy_dir, fresh_dir, remove_dir, state_size, Workload};
use popper_sim::platforms;
use std::path::PathBuf;

/// `(world, runner, parameters)`; `{seed}` takes the benchmark's seed.
const WORLDS: [(&str, &str, &str); 4] = [
    (
        "lulesh",
        "lulesh-sharded",
        "grid: [6, 6, 6]\niterations: 160\n",
    ),
    (
        "gassyfs",
        "gassyfs-sharded",
        "nodes: 32\npages: 65536\nstreams: 8\n",
    ),
    (
        "orchestra",
        "orchestra-sharded",
        "hosts: 64\ntasks: 1024\nseed: {seed}\n",
    ),
    (
        "farm",
        "farm-sharded",
        "tenants: 64\njobs: 2048\nseed: {seed}\n",
    ),
];

pub struct Sharded {
    root: PathBuf,
    seed: u64,
    /// Run each world at 2 workers too, and compare the tables.
    two_workers: bool,
    /// `results.csv` of each world at 1 worker, from set-up.
    reference: Vec<Vec<u8>>,
    last_state: u64,
    /// The last op's repo, deleted before the next op starts.
    last_dir: Option<PathBuf>,
}

impl Sharded {
    pub fn new(root: PathBuf, seed: u64, two_workers: bool) -> Sharded {
        Sharded {
            root,
            // `vars.pml` numbers are floats; keep the seed exact in one.
            seed: seed % 1_000_000,
            two_workers,
            reference: Vec::new(),
            last_state: 0,
            last_dir: None,
        }
    }

    fn base(&self) -> PathBuf {
        self.root.join("base")
    }
}

fn experiment(world: &str, workers: usize) -> String {
    format!("{world}-w{workers}")
}

/// A results table with its `workers` column dropped.
fn without_workers(csv: &[u8]) -> Result<Vec<String>, String> {
    let text = std::str::from_utf8(csv).map_err(|_| "results.csv is not UTF-8")?;
    let mut lines = text.lines();
    let header: Vec<&str> = lines
        .next()
        .ok_or("empty results.csv")?
        .split(',')
        .collect();
    let col = header
        .iter()
        .position(|h| *h == "workers")
        .ok_or("results.csv has no workers column")?;
    Ok(text
        .lines()
        .map(|l| {
            l.split(',')
                .enumerate()
                .filter(|(i, _)| *i != col)
                .map(|(_, v)| v)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect())
}

impl Workload for Sharded {
    /// A repo with the eight experiments, each world run once serially:
    /// that records every baseline fingerprint and the reference tables.
    fn setup(&mut self) -> Result<(), String> {
        let dir = fresh_dir(&self.base())?;
        popper(&dir, &["init"])?;
        for (world, runner, params) in WORLDS {
            for workers in [1, 2] {
                let exp_dir = dir.join("experiments").join(experiment(world, workers));
                std::fs::create_dir_all(&exp_dir).map_err(|e| format!("mkdir {exp_dir:?}: {e}"))?;
                let vars = format!(
                    "runner: {runner}\nsim_workers: {workers}\n{}",
                    params.replace("{seed}", &self.seed.to_string())
                );
                std::fs::write(exp_dir.join("vars.pml"), vars)
                    .map_err(|e| format!("write vars.pml: {e}"))?;
            }
        }
        popper_cli::run(&["commit", "add sharded worlds"], &dir)?;
        let mut reference = Vec::new();
        for (world, _, _) in WORLDS {
            let name = experiment(world, 1);
            popper(&dir, &["run", &name, "--no-cache"])?;
            reference.push(artifact(&dir, &name, "results.csv")?);
        }
        if !self.reference.is_empty() && self.reference != reference {
            return Err("set-up runs disagree on results.csv".into());
        }
        self.reference = reference;
        Ok(())
    }

    fn prepare(&mut self) -> Result<(), String> {
        if let Some(dir) = self.last_dir.take() {
            remove_dir(&dir);
        }
        Ok(())
    }

    fn op(&mut self, n: u64) -> Result<(), String> {
        let dir = self.root.join(format!("op{n}"));
        remove_dir(&dir);
        self.last_dir = Some(dir.clone());
        (|| {
            copy_dir(&self.base(), &dir)?;
            let counts: &[usize] = if self.two_workers { &[1, 2] } else { &[1] };
            for (i, (world, _, _)) in WORLDS.iter().enumerate() {
                let mut tables = Vec::new();
                for &workers in counts {
                    let name = experiment(world, workers);
                    popper(&dir, &["run", &name, "--no-cache"])?;
                    tables.push(artifact(&dir, &name, "results.csv")?);
                }
                if tables[0] != self.reference[i] {
                    return Err(format!(
                        "{world}: 1-worker table differs from the reference"
                    ));
                }
                if let Some(two) = tables.get(1) {
                    if without_workers(&tables[0])? != without_workers(two)? {
                        return Err(format!("{world}: tables differ between 1 and 2 workers"));
                    }
                }
            }
            self.last_state = state_size(&dir)?;
            if spans::enabled() {
                world_probes(self.seed)?;
            }
            Ok(())
        })()
    }

    fn repos(&self) -> Vec<PathBuf> {
        self.last_dir.iter().cloned().collect()
    }

    fn state_bytes(&self) -> u64 {
        self.last_state
    }

    fn finish(&mut self) -> Result<(), String> {
        self.prepare()
    }
}

/// Probe: run each world's own entry point at 1 and 2 workers, timing
/// each and counting its epochs, and check the two reports agree.
fn world_probes(seed: u64) -> Result<(), String> {
    let _p = spans::probe("sim.worlds");
    let hpc = platforms::by_name("hpc-node").ok_or("no hpc-node platform")?;
    let mut app = popper_minimpi::LuleshConfig::paper();
    app.grid = (6, 6, 6);
    app.iterations = 40;
    let mut lulesh = [1, 2].map(|w| {
        within(
            if w == 1 {
                "sim.lulesh.serial"
            } else {
                "sim.lulesh.parallel"
            },
            || popper_minimpi::run_sharded(&app, &hpc, w),
        )
    });
    count("sim.lulesh.epochs", lulesh[0].epochs as f64);
    for r in &mut lulesh {
        r.workers = 0;
    }
    agree("lulesh", &lulesh)?;

    let node = platforms::by_name("gassyfs-node").ok_or("no gassyfs-node platform")?;
    let config = popper_gassyfs::ShardedGassyConfig {
        nodes: 32,
        pages: 16384,
        streams: 8,
    };
    let mut gassyfs = [1, 2].map(|w| {
        within(
            if w == 1 {
                "sim.gassyfs.serial"
            } else {
                "sim.gassyfs.parallel"
            },
            || popper_gassyfs::run_sharded(&config, &node, w),
        )
    });
    count("sim.gassyfs.epochs", gassyfs[0].epochs as f64);
    for r in &mut gassyfs {
        r.workers = 0;
    }
    agree("gassyfs", &gassyfs)?;

    let config = popper_orchestra::ShardedOrchestraConfig {
        hosts: 64,
        tasks: 256,
        seed,
        ..Default::default()
    };
    let mut orchestra = [1, 2].map(|w| {
        within(
            if w == 1 {
                "sim.orchestra.serial"
            } else {
                "sim.orchestra.parallel"
            },
            || popper_orchestra::run_sharded(&config, w),
        )
    });
    count("sim.orchestra.epochs", orchestra[0].epochs as f64);
    for r in &mut orchestra {
        r.workers = 0;
    }
    agree("orchestra", &orchestra)?;

    // The farm model's plain entry point does not report its epochs;
    // its chaos entry point over an empty fault timeline does.
    let config = popper_farm::FarmSimConfig {
        tenants: 64,
        jobs_per_tenant: 512,
        seed,
        ..Default::default()
    };
    let mut farm = [1, 2].map(|w| {
        within(
            if w == 1 {
                "sim.farm.serial"
            } else {
                "sim.farm.parallel"
            },
            || popper_farm::simulate_chaos(&config, w, seed, Vec::new()),
        )
    });
    count("sim.farm.epochs", farm[0].epochs as f64);
    for r in &mut farm {
        r.workers = 0;
    }
    agree("farm", &farm)
}

fn agree<T: std::fmt::Debug>(world: &str, reports: &[T; 2]) -> Result<(), String> {
    if format!("{:?}", reports[0]) == format!("{:?}", reports[1]) {
        Ok(())
    } else {
        Err(format!("{world}: reports differ between 1 and 2 workers"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_only_the_workers_column() {
        let a = without_workers(b"machine,workers,rank\nhpc,1,0\nhpc,1,1\n").unwrap();
        let b = without_workers(b"machine,workers,rank\nhpc,2,0\nhpc,2,1\n").unwrap();
        assert_eq!(a, vec!["machine,rank", "hpc,0", "hpc,1"]);
        assert_eq!(a, b);
        assert!(without_workers(b"machine,rank\nhpc,0\n").is_err());
    }
}
