//! Records the compiler version for the run records (`rustc -V` of the
//! compiler that built this binary).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=FLEXBENCH_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
