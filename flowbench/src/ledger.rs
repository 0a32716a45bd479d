//! The exact-count ledger: counts that are a pure function of the code and
//! the seed (blocks, cold syntheses, evaluations, transient steps, ...).
//!
//! A count recorded twice within a run must repeat, and a count recorded
//! by an earlier run of the same binary at the same seed must match: the
//! ledger persists per (binary, workload, seed) in the benchmark's work
//! directory. A mismatch is a benchmark error, never noise.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Default)]
pub struct Ledger {
    entries: BTreeMap<String, u64>,
    drift: Vec<String>,
}

impl Ledger {
    pub fn record(&mut self, key: String, value: u64) {
        match self.entries.get(&key) {
            Some(&seen) if seen != value => {
                self.drift
                    .push(format!("{key}: {seen} then {value} within one run"));
            }
            Some(_) => {}
            None => {
                self.entries.insert(key, value);
            }
        }
    }

    pub fn entries(&self) -> &BTreeMap<String, u64> {
        &self.entries
    }

    /// Compares with the persisted ledger of earlier runs of this binary at
    /// this workload and seed, then stores the union. Returns every drift
    /// seen, within this run or against earlier ones.
    pub fn reconcile(mut self, workload: &str, seed: u64) -> Vec<String> {
        let path = ledger_path(workload, seed);
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines() {
                if let Some((key, value)) = line.rsplit_once(' ') {
                    if let Ok(value) = value.parse::<u64>() {
                        merged.insert(key.to_string(), value);
                    }
                }
            }
        }
        for (key, value) in &self.entries {
            match merged.get(key) {
                Some(&earlier) if earlier != *value => self
                    .drift
                    .push(format!("{key}: {earlier} in an earlier run, {value} now")),
                Some(_) => {}
                None => {
                    merged.insert(key.clone(), *value);
                }
            }
        }
        let text: String = merged.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(&path, text);
        self.drift
    }
}

/// Scratch directory for snapshots, ledgers and trace files: inside the
/// cargo target directory.
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("flowbench-work")
}

fn ledger_path(workload: &str, seed: u64) -> PathBuf {
    work_dir().join(format!(
        "ledger-{:016x}-{workload}-{seed}.txt",
        binary_fingerprint()
    ))
}

/// FNV-1a over the running executable: ledgers of different builds never
/// meet.
fn binary_fingerprint() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
