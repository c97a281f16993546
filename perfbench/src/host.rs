//! The host signature printed with every result, and peak memory.
//!
//! Two results whose signatures differ were measured under different
//! conditions: comparing them shows a trajectory, not a verdict.

use std::fs;
use std::path::Path;

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSignature {
    /// `std::thread::available_parallelism` of the measuring process.
    pub cpus: usize,
    /// Worker threads the workload actually used (shards or sweep
    /// workers; 1 for the sequential kernel).
    pub threads: u32,
    /// `std::env::consts::OS`.
    pub os: &'static str,
    /// `std::env::consts::ARCH`.
    pub arch: &'static str,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl HostSignature {
    /// The signature of this process running a workload on `threads`
    /// worker threads, reading the commit from `.git` under `root`.
    pub fn current(threads: u32, root: &Path) -> Self {
        Self {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads,
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
            commit: git_commit(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpus\":{},\"threads\":{},\"os\":\"{}\",\"arch\":\"{}\",\"commit\":\"{}\"}}",
            self.cpus, self.threads, self.os, self.arch, self.commit
        )
    }
}

/// Resolves `HEAD` by reading `.git` directly (no child process): a
/// detached hash, a loose ref, or a packed ref.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return is_hash(head).then(|| head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        let hash = hash.trim();
        return is_hash(hash).then(|| hash.to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference && is_hash(hash)).then(|| hash.to_string())
    })
}

fn is_hash(s: &str) -> bool {
    s.len() >= 40 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
