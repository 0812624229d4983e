//! Stamps the compiler version and the source commit into the benchmark so
//! every result carries them (see `host::context_json`).
//!
//! The commit is read from the repository's `.git` directory without running
//! `git`, so a checkout that is not a git repository reports `unknown` and
//! nothing outside the checkout is ever read.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let git = manifest.join("..").join(".git");
    let (commit, watched) = head_commit(&git);
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    // Only watch files that exist: a missing watched path would make cargo
    // rerun this script, and relink the benchmark, on every invocation.
    println!("cargo:rerun-if-changed=build.rs");
    for path in watched {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

/// The commit `HEAD` names, plus the files it was resolved from.
fn head_commit(git: &Path) -> (String, Vec<PathBuf>) {
    let head_path = git.join("HEAD");
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return ("unknown".to_string(), Vec::new());
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return (head.to_string(), vec![head_path]);
    };
    let ref_path = git.join(reference);
    if let Ok(id) = std::fs::read_to_string(&ref_path) {
        return (id.trim().to_string(), vec![head_path, ref_path]);
    }
    let packed_path = git.join("packed-refs");
    let Ok(packed) = std::fs::read_to_string(&packed_path) else {
        return ("unknown".to_string(), vec![head_path]);
    };
    let id = packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map_or_else(|| "unknown".to_string(), |(id, _)| id.to_string());
    (id, vec![head_path, packed_path])
}
