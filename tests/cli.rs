//! The `frequenz` binary's command line: a malformed option is an error
//! (exit code 2, before any flow runs), never a silent default.

use std::process::{Command, Output};

fn frequenz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_frequenz"))
        .args(args)
        .output()
        .expect("the frequenz binary starts")
}

#[test]
fn list_succeeds() {
    let out = frequenz(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("gsum"));
}

#[test]
fn malformed_run_options_exit_with_code_2() {
    let malformed: &[&[&str]] = &[
        &["--target", "abc"],
        &["--target", "-3"],
        &["--lut-k", "x"],
        &["--flow", "bogus"],
        // A flag is not a value.
        &["--target", "--flow", "prev"],
        &["--vcd", "--target", "5"],
        // A flag with nothing after it.
        &["--target"],
        &["--vcd"],
        &["--bogus", "3"],
        &["extra"],
        // Parses, but the flow would reject it.
        &["--target", "1"],
        &["--lut-k", "2"],
    ];
    for opts in malformed {
        let args: Vec<&str> = ["run", "gsum"].iter().chain(opts.iter()).copied().collect();
        let out = frequenz(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} was not rejected");
        assert!(out.stdout.is_empty(), "{args:?} ran before it was rejected");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("error: "),
            "{args:?} gave no message"
        );
    }
}
