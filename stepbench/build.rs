//! Bakes provenance into the binary: the rustc version and, when the
//! sources sit in a git checkout, the commit they were built from.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=STEPBENCH_RUSTC={version}");

    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    println!("cargo:rustc-env=STEPBENCH_COMMIT={}", commit(&git));
    // Watch only paths that exist: Cargo reruns a build script on every
    // build while a watched path is missing, as in a checkout without git.
    println!("cargo:rerun-if-changed=build.rs");
    for watched in ["HEAD", "refs/heads"] {
        if git.join(watched).exists() {
            println!("cargo:rerun-if-changed=../.git/{watched}");
        }
    }
}

/// Resolves `HEAD` by reading the git directory directly (no `git`
/// process, so nothing outside the source tree is consulted).
fn commit(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == refname).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
