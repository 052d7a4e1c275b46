//! The `scc-verify` binary turns bad input into a one-line error plus the
//! usage and exit code 2, as it does for an unknown command, never a panic.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scc-verify"))
        .args(args)
        .output()
        .expect("the binary starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_input_is_a_usage_error_not_a_panic() {
    for args in [
        &["fuzz", "--budget", "xyz"][..],
        &["fuzz", "--seed", "-3"],
        &["fuzz", "--cases", "many"],
        &["replay", "/nonexistent/repro.txt"],
        &["replay"],
        &["explain"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: scc-verify"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
