//! Derives the cell-store salt from the sources cells are computed by.
//!
//! Hashes (FNV-1a) the sorted relative paths and bytes of every `.rs` file
//! under `crates/*/src` and `vendor/*/src`, plus the workspace `Cargo.lock`,
//! and hands the digest to the crate as `AFF_BENCH_SOURCE_HASH`, which
//! `store::code_salt` folds into every cell key. Changing any simulator,
//! allocator, workload or harness source, a vendored stand-in or a locked
//! dependency version thus retires every stored outcome — no hand-bumped
//! epoch can be forgotten. Uses only std.

use std::path::{Path, PathBuf};

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root");
    let mut src_dirs: Vec<PathBuf> = ["crates", "vendor"]
        .iter()
        .filter_map(|d| std::fs::read_dir(root.join(d)).ok())
        .flat_map(|entries| entries.filter_map(|e| Some(e.ok()?.path().join("src"))))
        .filter(|p| p.is_dir())
        .collect();
    src_dirs.sort();
    let mut files = Vec::new();
    for dir in &src_dirs {
        println!("cargo:rerun-if-changed={}", dir.display());
        collect_rs(dir, &mut files);
    }
    let lock = root.join("Cargo.lock");
    if lock.is_file() {
        println!("cargo:rerun-if-changed={}", lock.display());
        files.push(lock);
    }
    files.sort();

    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        let bytes = std::fs::read(file).expect("read source file");
        // NUL ends the path and a length prefix the bytes, so no two file
        // sets alias; `/` separators keep the digest host-independent.
        feed(rel.to_string_lossy().replace('\\', "/").as_bytes());
        feed(&[0]);
        feed(&(bytes.len() as u64).to_le_bytes());
        feed(&bytes);
    }
    println!("cargo:rustc-env=AFF_BENCH_SOURCE_HASH={h:016x}");
    println!("cargo:rerun-if-changed=build.rs");
}

/// Every `.rs` file under `dir`, recursively.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
