//! Records the compiler version and target triple for the `repro` run
//! report's `meta` section.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    println!("cargo:rustc-env=AIRFINGER_RUSTC={version}");
    let target = std::env::var("TARGET").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=AIRFINGER_TARGET={target}");
    println!("cargo:rerun-if-changed=build.rs");
}
