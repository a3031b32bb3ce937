//! The CLI and `vn_serve_smoke` reject malformed numeric flags
//! instead of silently using their defaults, flags they do not take
//! instead of dropping them, and a flag given twice instead of keeping one
//! value; and a model file restores exactly what `train` wrote or fails
//! loudly.

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

    // A server without workers, or with no queue slot, is refused before
    // the model loads; so are a misspelt flag, flags the CLI no longer has
    // (the int8 model file and its inference switch among them), and a
    // flag given twice, whose two values cannot both hold.
    let bad: [&[&str]; 7] = [
        &["serve", "--workers", "0"],
        &["serve", "--queue", "0"],
        &["dbs", "--sed", "7"],
        &["serve", "--batch-window", "1000"],
        &["eval", "--model", "model.jsonl", "--quantized"],
        &["train", "--save-quant", "x"],
        &["dbs", "--rows", "5", "--rows", "7"],
    ];
    for args in bad {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit with status 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        assert!(stderr.contains(flag), "stderr must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "nothing may run on a bad flag");
    }
}

#[test]
fn serve_smoke_refuses_bad_flags_before_it_connects() {
    // No server listens on this socket: a smoke run that got past its flags
    // would retry the connect for a minute and then fail with status 1.
    let sock = std::env::temp_dir().join(format!("vn-smoke-none-{}.sock", std::process::id()));
    let sock = sock.to_str().expect("temp path is UTF-8");
    let bad: [(&[&str], &str); 3] = [
        (&["--socket", sock, "--request", "3"], "--request"),
        (&["--socket", sock, "--rows", "5", "--rows", "7"], "--rows"),
        (&["--socket", sock, "--requests", "abc"], "--requests"),
    ];
    for (args, flag) in bad {
        let out = Command::new(env!("CARGO_BIN_EXE_vn_serve_smoke"))
            .args(args)
            .output()
            .expect("vn_serve_smoke runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit with status 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "stderr must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run on a bad flag");
    }
}

#[test]
fn well_formed_numeric_flag_still_works() {
    let out = cli(&["dbs", "--seed", "7"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("tables"));
}

#[test]
fn ask_question_is_its_one_positional_argument() {
    let path = train_tiny("ask", "7");
    let question = "How many pets are older than 3?";
    let db = ["--db", "student_pets"];
    let documented = cli(&["ask", "--model", &path, "--threads", "1", db[0], db[1], question]);
    let flag_after_db = cli(&["ask", "--model", &path, db[0], db[1], "--threads", "1", question]);
    std::fs::remove_file(&path).ok();
    assert!(documented.status.success(), "{}", String::from_utf8_lossy(&documented.stderr));
    assert!(!documented.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&flag_after_db.stdout),
        String::from_utf8_lossy(&documented.stdout),
        "a flag after --db must not be taken for the question"
    );
}

/// `train` on a five-question corpus, no epochs, into a fresh model file.
fn train_tiny(tag: &str, seed: &str) -> String {
    let path = std::env::temp_dir().join(format!("vn_cli_{tag}_{}.jsonl", std::process::id()));
    let path = path.to_str().expect("temp path is UTF-8").to_string();
    let out = cli(&[
        "train", "--epochs", "0", "--train", "5", "--dev", "2", "--rows", "5", "--seed", seed,
        "--out", &path,
    ]);
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    path
}

#[test]
fn corpus_seed_survives_the_model_file_exactly() {
    // Seeds above 2^53 have no exact f64; `eval` must still regenerate the
    // corpus the model was trained on.
    for seed in ["9007199254740993", "18446744073709551615"] {
        let path = train_tiny(&format!("seed{seed}"), seed);
        let out = cli(&["eval", "--model", &path]);
        std::fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "eval failed: {stderr}");
        let want = format!("regenerating corpus (seed {seed})");
        assert!(stderr.contains(&want), "eval must name seed {seed}: {stderr}");
    }
}

#[test]
fn unknown_mode_in_the_model_file_fails_loudly() {
    let path = train_tiny("mode", "7");
    let text = std::fs::read_to_string(&path).unwrap();
    let bad = text.replacen("\"mode\":\"full\"", "\"mode\":\"fast\"", 1);
    assert_ne!(bad, text, "the model file records its mode");
    std::fs::write(&path, bad).unwrap();
    let out = cli(&["eval", "--model", &path]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "an unknown mode must not load");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown mode `fast`"), "stderr must name the mode: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may be evaluated");
}
