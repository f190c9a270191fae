//! What every workload provides, and the helpers they share.

use std::fs;
use std::path::{Path, PathBuf};

/// One benchmark workload: a closed loop with one client.
pub trait Workload {
    /// Build everything the timed ops need (repos, tenants, reference
    /// outputs, primed caches), replacing what an earlier call built.
    fn setup(&mut self) -> Result<(), String>;

    /// Work between ops that is not part of the next one, such as
    /// restarting a long-lived service. It is not timed.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Run op `n`. `Err` means the op's correctness check failed.
    fn op(&mut self, n: u64) -> Result<(), String>;

    /// Ops the traced run's sweep makes of this workload, so that every
    /// layer it exercises has samples.
    fn sweep_ops(&self) -> u64 {
        1
    }

    /// The repos the last op left, until the next [`Workload::prepare`].
    fn repos(&self) -> Vec<PathBuf> {
        Vec::new()
    }

    /// Persistent state, in bytes, that ops leave behind (a repo's
    /// `.popper/state`, or the farm's shared store).
    fn state_bytes(&self) -> u64;

    /// End the run and make the checks that need the whole run.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Figures beyond the end-to-end set, as `(name, value, unit)`.
    fn extra(&self) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }
}

/// A splitmix64 stream: the benchmark's inputs come from its seed only.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// An empty directory at `path`, replacing whatever was there.
pub fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() {
        fs::remove_dir_all(path).map_err(|e| format!("remove {path:?}: {e}"))?;
    }
    fs::create_dir_all(path).map_err(|e| format!("mkdir {path:?}: {e}"))?;
    Ok(path.to_path_buf())
}

pub fn remove_dir(path: &Path) {
    let _ = fs::remove_dir_all(path);
}

/// Size of a repo's `.popper/state`.
pub fn state_size(repo_dir: &Path) -> Result<u64, String> {
    let path = repo_dir.join(".popper/state");
    fs::metadata(&path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {path:?}: {e}"))
}

/// Read an experiment's recorded artifact from a repo's working tree.
pub fn artifact(repo_dir: &Path, experiment: &str, file: &str) -> Result<Vec<u8>, String> {
    let path = repo_dir.join("experiments").join(experiment).join(file);
    fs::read(&path).map_err(|e| format!("read {path:?}: {e}"))
}

/// Copy a directory tree.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(|e| format!("mkdir {to:?}: {e}"))?;
    for entry in fs::read_dir(from).map_err(|e| format!("read_dir {from:?}: {e}"))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        if src.is_dir() {
            copy_dir(&src, &dst)?;
        } else {
            fs::copy(&src, &dst).map_err(|e| format!("copy {src:?}: {e}"))?;
        }
    }
    Ok(())
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc's: give the heap's free memory back to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Give the heap's free memory back to the system, then restart the
/// peak resident set ("hiwater") from what is left. An op's peak is then
/// its own memory on top of the live set, not on top of whatever free
/// memory the ops before it left in the heap.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: malloc_trim only releases memory that is free; it may be
    // called at any time.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("write /proc/self/clear_refs: {e}"))
}

/// Peak resident set of this process since start or the last
/// [`reset_peak_rss`], in bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024)
}
