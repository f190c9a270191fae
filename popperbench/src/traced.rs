//! `traced`: `add`, `popper trace`, then `popper chaos` of
//! `mpi-comm-variability` and of `gassyfs`, each in a fresh repo, per op.
//!
//! The trace layer and commits of large blobs dominate: one trace of the
//! mpi experiment is about 200k events, which the recorder encodes into
//! tens of MB of `trace.json` and `trace.svg`, which the repo then
//! commits, and which the following `chaos` call loads back. A fresh
//! repo per template makes an op cost the same however many ran before
//! it, and every op carries both templates, so the median op time is
//! not split between two clusters of unequal cost.

use crate::cli::{self, popper};
use crate::workload::{artifact, fresh_dir, remove_dir, state_size, Rng, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

const TEMPLATES: [&str; 2] = ["mpi-comm-variability", "gassyfs"];

pub struct Traced {
    root: PathBuf,
    /// The two templates in the order the seed gave, which is the
    /// order every op runs them in.
    templates: Vec<&'static str>,
    /// Seed of the default chaos schedule.
    chaos_seed: String,
    /// `results.csv` of an untraced run of each template, from set-up.
    reference: BTreeMap<&'static str, Vec<u8>>,
    /// State the last op of each template left.
    last_state: BTreeMap<&'static str, u64>,
    /// The last op's repos, deleted before the next op starts.
    last_dirs: Vec<PathBuf>,
}

impl Traced {
    pub fn new(root: PathBuf, seed: u64) -> Traced {
        let mut templates = TEMPLATES.to_vec();
        Rng::new(seed).shuffle(&mut templates);
        Traced {
            root,
            templates,
            chaos_seed: seed.to_string(),
            reference: BTreeMap::new(),
            last_state: BTreeMap::new(),
            last_dirs: Vec::new(),
        }
    }
}

impl Workload for Traced {
    /// The reference: an untraced `run` of each template, whose
    /// results the traced runs must reproduce (tracing must not change
    /// what an experiment computes).
    fn setup(&mut self) -> Result<(), String> {
        let dir = fresh_dir(&self.root.join("setup"))?;
        popper(&dir, &["init"])?;
        let mut reference = BTreeMap::new();
        for template in &self.templates {
            popper(&dir, &["add", template, template])?;
            popper(&dir, &["run", template])?;
            reference.insert(*template, artifact(&dir, template, "results.csv")?);
        }
        remove_dir(&dir);
        if !self.reference.is_empty() && self.reference != reference {
            return Err("set-up runs disagree on results.csv".into());
        }
        self.reference = reference;
        Ok(())
    }

    fn prepare(&mut self) -> Result<(), String> {
        for dir in self.last_dirs.drain(..) {
            remove_dir(&dir);
        }
        Ok(())
    }

    fn op(&mut self, n: u64) -> Result<(), String> {
        for template in self.templates.clone() {
            let dir = fresh_dir(&self.root.join(format!("op{n}-{template}")))?;
            self.last_dirs.push(dir.clone());
            popper(&dir, &["init"])?;
            popper(&dir, &["add", template, template])?;
            let out = popper(&dir, &["trace", template])?;
            if cli::traced_events(&out).unwrap_or(0) == 0 {
                return Err(format!("{template}: trace recorded no events:\n{out}"));
            }
            if artifact(&dir, template, "results.csv")? != self.reference[template] {
                return Err(format!(
                    "{template}: traced results.csv differs from the untraced run"
                ));
            }
            popper(&dir, &["chaos", template, "--seed", &self.chaos_seed])?;
            self.last_state.insert(template, state_size(&dir)?);
        }
        Ok(())
    }

    fn repos(&self) -> Vec<PathBuf> {
        self.last_dirs.clone()
    }

    /// What the last op left in its two repos, together.
    fn state_bytes(&self) -> u64 {
        self.last_state.values().sum()
    }

    fn finish(&mut self) -> Result<(), String> {
        self.prepare()
    }
}
