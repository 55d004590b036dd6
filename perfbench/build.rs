//! Records the compiler version and, in a git checkout, the commit being
//! benchmarked, for the host metadata printed with every result.

use std::path::Path;
use std::process::Command;

fn stdout_of(command: &mut Command) -> Option<String> {
    let output = command.output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version =
        stdout_of(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = if root.join(".git").exists() {
        stdout_of(
            Command::new("git")
                .arg("rev-parse")
                .arg("HEAD")
                .current_dir(&root),
        )
    } else {
        None
    };
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "unknown (not a git checkout)".to_string())
    );
    println!("cargo:rerun-if-changed=build.rs");
    let head_log = root.join(".git/logs/HEAD");
    if head_log.exists() {
        println!("cargo:rerun-if-changed={}", head_log.display());
    }
}
