//! Malformed CLI configurations must fail fast with exit code 2 and an
//! `[args]` diagnostic, never run a degenerate or silently clamped job.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

fn assert_rejected(exe: &str, args: &[&str]) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("[args]"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not run anything");
}

#[test]
fn fleet_rejects_zero_devices_and_threads() {
    let fleet = env!("CARGO_BIN_EXE_fleet");
    assert_rejected(fleet, &["--devices", "0"]);
    assert_rejected(fleet, &["--devices", "0", "--workers", "2"]);
    assert_rejected(fleet, &["--threads", "0"]);
}

#[test]
fn policy_search_rejects_zero_devices_and_threads() {
    let search = env!("CARGO_BIN_EXE_policy-search");
    assert_rejected(search, &["--devices", "0", "--no-out"]);
    assert_rejected(search, &["--threads", "0", "--no-out"]);
}

#[test]
fn tables_rejects_unknown_ids() {
    let tables = env!("CARGO_BIN_EXE_tables");
    assert_rejected(tables, &["zz9"]);
    assert_rejected(tables, &["t33"]);
    // One typo among valid ids still rejects the whole run.
    assert_rejected(tables, &["t1", "T2"]);
    let out = run(tables, &["t9"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("valid ids: t1 t2 t3 t4 f3"), "{stderr}");
    let out = run(tables, &["t1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table I "));
}

#[test]
fn fleet_tiny_valid_run_succeeds() {
    let out = run(
        env!("CARGO_BIN_EXE_fleet"),
        &["--devices", "4", "--threads", "1"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fleet: 4 devices"), "{stdout}");
}
