//! A benchmark run leaves the repository's files as it found them: it
//! writes only under `.bench_out/` (and the build directory), never into
//! `results/` or any other tracked path.
//!
//! Run with `cargo test --release --offline --manifest-path
//! perfbench/Cargo.toml`; a debug build of the workspace makes the
//! workloads slow.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Directories a run may write to or that hold build output, relative
/// to the repository root (the root `.gitignore` lists them).
const IGNORED: [&str; 5] = [
    ".git",
    "target",
    ".bench_build",
    ".bench_out",
    "perfbench/target",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in the repository")
        .to_path_buf()
}

/// FNV-1a: enough to notice any change to a file's bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn snapshot(root: &Path) -> BTreeMap<PathBuf, (u64, u64)> {
    let target = std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from);
    let mut out = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            let rel = path.strip_prefix(root).expect("under root").to_path_buf();
            if IGNORED.iter().any(|i| rel == Path::new(i))
                || target.as_deref() == Some(path.as_path())
            {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("readable file");
                out.insert(rel, (bytes.len() as u64, fnv(&bytes)));
            }
        }
    }
    out
}

#[test]
fn runs_leave_the_tracked_tree_unchanged() {
    let root = repo_root();
    let before = snapshot(&root);
    for (workload, trace) in [
        ("sched-trials", "0"),
        ("design-batch", "1"),
        ("serve-mix", "1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_culpeo-perfbench"))
            .current_dir(&root)
            .args([
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
            ])
            .output()
            .expect("benchmark runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{workload}: {stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
    }
    let after = snapshot(&root);
    assert_eq!(
        before, after,
        "a benchmark run changed files outside .bench_out/"
    );
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_culpeo-perfbench"))
        .args([
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
