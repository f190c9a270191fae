//! `session`: one researcher session per op, in a fresh repo.
//!
//! `init`, `add` of all ten templates, then a cold `run` of each, a warm
//! `run` of each (every stage a memo hit) and a `verify` of each, all
//! through the command line. Many small commits and a persist load and
//! save on every call; tracing, sharding and the farm stay off.

use crate::cli::{self, popper};
use crate::spans;
use crate::workload::{artifact, fresh_dir, remove_dir, state_size, Rng, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

pub struct Session {
    root: PathBuf,
    /// `(template, experiment name)` in the order the seed gave.
    experiments: Vec<(&'static str, String)>,
    /// `results.csv` of each experiment's cold run, from set-up.
    reference: BTreeMap<String, Vec<u8>>,
    last_state: u64,
    /// The last op's repo, deleted before the next op starts.
    last_dir: Option<PathBuf>,
}

impl Session {
    pub fn new(root: PathBuf, seed: u64) -> Session {
        let mut rng = Rng::new(seed);
        let mut templates: Vec<&'static str> = popper_core::experiment_templates()
            .iter()
            .map(|t| t.name)
            .collect();
        rng.shuffle(&mut templates);
        let experiments = templates
            .into_iter()
            .map(|t| (t, format!("{t}-{}", rng.next() % 1000)))
            .collect();
        Session {
            root,
            experiments,
            reference: BTreeMap::new(),
            last_state: 0,
            last_dir: None,
        }
    }
}

impl Workload for Session {
    /// The reference session: a repo with every experiment added and run
    /// cold, whose results every op must reproduce byte for byte.
    fn setup(&mut self) -> Result<(), String> {
        let dir = fresh_dir(&self.root.join("setup"))?;
        popper(&dir, &["init"])?;
        for (template, name) in &self.experiments {
            popper(&dir, &["add", template, name])?;
        }
        let mut reference = BTreeMap::new();
        for (_, name) in &self.experiments {
            popper(&dir, &["run", name])?;
            reference.insert(name.clone(), artifact(&dir, name, "results.csv")?);
        }
        remove_dir(&dir);
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
        let dir = fresh_dir(&self.root.join(format!("op{n}")))?;
        self.last_dir = Some(dir.clone());
        (|| {
            popper(&dir, &["init"])?;
            for (template, name) in &self.experiments {
                popper(&dir, &["add", template, name])?;
            }
            for (_, name) in &self.experiments {
                popper(&dir, &["run", name])?;
                if artifact(&dir, name, "results.csv")? != self.reference[name] {
                    return Err(format!(
                        "{name}: cold results.csv differs from the reference"
                    ));
                }
            }
            for (_, name) in &self.experiments {
                let out = popper(&dir, &["run", name])?;
                if cli::memo_misses(&out) != Some(0) {
                    return Err(format!("{name}: warm run was not all memo hits:\n{out}"));
                }
            }
            for (_, name) in &self.experiments {
                popper(&dir, &["verify", name])?;
            }
            self.last_state = state_size(&dir)?;
            if spans::enabled() {
                for (_, name) in &self.experiments {
                    cli::stage_probe(&dir, name)?;
                    cli::orchestrate_probe(&dir, name)?;
                }
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
