//! `vn-fuzz` refuses flag combinations it would otherwise drop: two fuzz
//! modes, or one flag given twice, exit with status 2 and name the flags
//! before any case runs.

use std::process::{Command, Output};

fn vn_fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vn-fuzz")).args(args).output().expect("vn-fuzz runs")
}

#[test]
fn conflicting_or_repeated_flags_exit_2_before_any_case() {
    let bad: [(&[&str], &[&str]); 5] = [
        (&["--kernel", "10", "--lookup", "10", "--seed", "1"], &["--kernel", "--lookup"]),
        (&["--lookup", "3", "--serve", "3"], &["--lookup", "--serve"]),
        (&["--replay", "5", "--serve-replay", "5"], &["--replay", "--serve-replay"]),
        (&["--kernel", "2", "--replay", "9"], &["--kernel", "--replay"]),
        (&["--seed", "1", "--seed", "2", "--kernel", "1"], &["--seed"]),
    ];
    for (args, named) in bad {
        let out = vn_fuzz(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit with status 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for flag in named {
            assert!(stderr.contains(flag), "{args:?}: stderr must name {flag}: {stderr}");
        }
        assert!(out.stdout.is_empty(), "{args:?}: no case may run");
    }
}

#[test]
fn one_mode_still_runs() {
    let out = vn_fuzz(&["--kernel", "3", "--seed", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("3 kernel cases"));
}
