//! Bake the facts a result must carry about how the benchmark was built:
//! the compiler version and, when building from a git checkout, the commit.

use std::path::Path;
use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|t| !t.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit = run("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    println!("cargo:rustc-env=E2E_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=E2E_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-stamp the commit when HEAD moves; outside a git checkout there is
    // nothing to watch, and watching a missing path would rebuild every run.
    for watched in ["../.git/HEAD", "../.git/refs/heads"] {
        if Path::new(watched).exists() {
            println!("cargo:rerun-if-changed={watched}");
        }
    }
}
