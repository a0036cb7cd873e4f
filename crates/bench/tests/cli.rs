//! CLI contract of the `repro` binary: bad invocations fail fast with a
//! nonzero exit and a usage hint, before any experiment work starts.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

#[test]
fn unknown_experiment_id_exits_nonzero_and_lists_known_ids() {
    let out = repro(&["zz9"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment"), "{err}");
    assert!(err.contains("r1"), "known-id list includes r1: {err}");
}

#[test]
fn several_ids_in_one_invocation_all_render_in_order() {
    let out = repro(&["t1", "a6", "--serial"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let (t1, a6) = (text.find("=== T1: "), text.find("=== A6: "));
    assert!(t1.is_some() && t1 < a6, "both tables, in argument order: {text}");
}

#[test]
fn an_unknown_id_anywhere_in_the_list_exits_before_any_work() {
    for args in [&["t1", "zz9"][..], &["zz9", "t1"][..], &["all", "e13"][..]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "nothing rendered for {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
    }
}

#[test]
fn bad_flags_exit_nonzero() {
    for args in [
        &["--bogus"][..],
        &["r1", "--jobs"][..],
        &["r1", "--jobs", "0"][..],
        &["r1", "--jobs", "many"][..],
        &["r1", "--fuzz-iters"][..],
        &["r1", "--fuzz-iters", "0"][..],
        &["r1", "--fuzz-iters", "lots"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(!out.stderr.is_empty(), "diagnostic printed for {args:?}");
    }
}
