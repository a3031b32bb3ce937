//! The CLI rejects malformed numeric flags instead of silently using their
//! defaults.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_valuenet_cli"))
        .args(args)
        .output()
        .expect("valuenet_cli runs")
}

#[test]
fn malformed_numeric_flag_fails_loudly() {
    let out = cli(&["dbs", "--seed", "abc"]);
    assert_eq!(out.status.code(), Some(2), "dbs --seed abc must exit with status 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seed"), "stderr must name the flag: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run on a bad flag");

    let out = cli(&["dbs", "--seed"]);
    assert_eq!(out.status.code(), Some(2), "a flag without its value must fail");
}

#[test]
fn well_formed_numeric_flag_still_works() {
    let out = cli(&["dbs", "--seed", "7"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("tables"));
}
