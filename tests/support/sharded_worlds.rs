//! The sharded-runner artifacts `tests/golden/sharded/` pins: each of
//! the four sharded worlds run once through `popper run` and once
//! through `popper chaos --schedule node-crash --seed 7`, at one
//! worker, with small sizes. Shared by the parity check
//! (`tests/lifecycle_parity.rs`) and the re-pinning test
//! (`tests/golden_regen.rs`), so both run exactly the same experiments.

use popper::cli::run;
use std::fs;
use std::path::{Path, PathBuf};

/// `(world, vars.pml)`. `nodes` sizes the fault schedule where the
/// world's own size key is not called `nodes`.
pub const WORLDS: [(&str, &str); 4] = [
    (
        "lulesh",
        "runner: lulesh-sharded\nsim_workers: 1\ngrid: [2, 2, 2]\nelements: 4\niterations: 12\nnodes: 8\n",
    ),
    ("gassyfs", "runner: gassyfs-sharded\nsim_workers: 1\nnodes: 6\npages: 48\nstreams: 3\n"),
    ("orchestra", "runner: orchestra-sharded\nsim_workers: 1\nhosts: 6\ntasks: 6\nseed: 3\nnodes: 6\n"),
    ("farm", "runner: farm-sharded\nsim_workers: 1\ntenants: 5\njobs: 16\nseed: 3\nnodes: 5\n"),
];

/// Where a world's pinned artifact lives: `run/results.csv` or
/// `chaos/<name>` under `tests/golden/sharded/<world>/`.
pub fn golden_path(world: &str, artifact: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/sharded")
        .join(world)
        .join(artifact)
}

/// Run `world` in a fresh repo and return its artifacts as
/// `(path under the world's golden dir, bytes)`.
pub fn artifacts(world: &str, vars: &str) -> Vec<(String, String)> {
    let dir = std::env::temp_dir().join(format!(
        "popper-sharded-{world}-{}",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    run(&["init"], &dir).unwrap();
    fs::create_dir_all(dir.join("experiments/w")).unwrap();
    fs::write(dir.join("experiments/w/vars.pml"), vars).unwrap();
    run(&["commit", "add sharded world"], &dir).unwrap();
    let read = |name: &str| fs::read_to_string(dir.join("experiments/w").join(name)).unwrap();
    run(&["run", "w"], &dir).unwrap_or_else(|e| panic!("{world} run: {e}"));
    let mut out = vec![("run/results.csv".to_string(), read("results.csv"))];
    run(
        &["chaos", "w", "--schedule", "node-crash", "--seed", "7"],
        &dir,
    )
    .unwrap_or_else(|e| panic!("{world} chaos: {e}"));
    for name in ["results.csv", "faults.json", "recovery.json"] {
        out.push((format!("chaos/{name}"), read(name)));
    }
    fs::remove_dir_all(&dir).ok();
    out
}
