//! CLI contract of the `quickrec` binary: bad invocations exit nonzero
//! with usage, `verify` distinguishes intact from corrupted recordings,
//! and `replay --salvage` recovers a prefix from a damaged log.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A two-syscall program (write + exit) so the recording has console
/// output, input events and chunks on both threads of a 2-core run.
const PROGRAM: &str = "
.entry main
.text
main:
    movi r0, 2        ; SYS_WRITE
    movi r1, msg
    movi r2, 6
    syscall
    movi r0, 1        ; SYS_EXIT
    movi r1, 0
    syscall
.data
msg: .byte 0x68 0x65 0x6c 0x6c 0x6f 0x0a
";

fn quickrec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_quickrec")).args(args).output().expect("spawn quickrec")
}

/// A committed v1 golden fixture, recorded from [`PROGRAM`] on 2 cores.
/// The `tests/golden/v1` tree is the only source of v1 bytes: nothing
/// writes that format any more.
fn golden_v1(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/v1")).join(name)
}

/// Copies a golden v1 fixture's files to `to` (created if missing).
fn copy_v1(name: &str, to: &std::path::Path) {
    std::fs::create_dir_all(to).expect("create copy target");
    for entry in std::fs::read_dir(golden_v1(name)).expect("read v1 fixture") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy v1 file");
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quickrec-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Records PROGRAM through the CLI, returning (program path, log dir).
fn recorded(dir: &std::path::Path) -> (String, String) {
    let prog = dir.join("prog.pasm");
    std::fs::write(&prog, PROGRAM).expect("write program");
    let logs = dir.join("rec");
    let prog = prog.to_str().unwrap().to_string();
    let logs = logs.to_str().unwrap().to_string();
    let out = quickrec(&["record", &prog, "-o", &logs, "--cores", "2"]);
    assert!(out.status.success(), "record failed: {}", String::from_utf8_lossy(&out.stderr));
    (prog, logs)
}

#[test]
fn missing_and_bad_args_exit_nonzero_with_usage() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["replay"][..],
        &["replay", "only-one-arg"][..],
        &["verify"][..],
        &["record", "prog.pasm"][..], // missing -o
    ] {
        let out = quickrec(args);
        assert!(!out.status.success(), "args {args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage") || err.contains("needs"), "args {args:?}: {err}");
    }
}

#[test]
fn serve_refuses_unknown_options_and_options_without_a_value() {
    // Each used to start a daemon with the defaults (and this test to
    // hang): `--shards` and `--event-workers` are deleted options,
    // `--workers` lost its value.
    for (args, needle) in [
        (&["serve", "--socket", "never.sock", "--shards", "4"][..], "unknown option `--shards`"),
        (
            &["serve", "--socket", "never.sock", "--event-workers", "2"][..],
            "unknown option `--event-workers`",
        ),
        (&["serve", "--socket", "never.sock", "--workers"][..], "--workers needs a value"),
    ] {
        let out = quickrec(args);
        assert!(!out.status.success(), "args {args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "args {args:?}: {err}");
    }
}

#[test]
fn misspelt_switches_and_valueless_flags_are_usage_errors() {
    // Each used to exit 0 doing something else: replaying without the
    // race detector, recording full-stack, replaying serially, and
    // recording total order with no order.qrp.
    let dir = scratch("options");
    let (prog, logs) = recorded(&dir);
    let (prog, logs) = (prog.as_str(), logs.as_str());
    let refused = dir.join("refused");
    let refused_dir = refused.to_str().unwrap();
    for (args, needle) in [
        (&["replay", prog, logs, "--race"][..], "unknown option `--race`"),
        (&["record", prog, "-o", refused_dir, "--hwonly"][..], "unknown option `--hwonly`"),
        (&["replay", prog, logs, "--jobs"][..], "--jobs needs a value"),
        (&["record", prog, "-o", refused_dir, "--order"][..], "--order needs a value"),
    ] {
        let out = quickrec(args);
        assert!(!out.status.success(), "args {args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "args {args:?}: {err}");
    }
    assert!(!refused.exists(), "a refused record must write nothing");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_passes_fresh_recordings_and_fails_corrupted_ones() {
    let dir = scratch("verify");
    let (_prog, logs) = recorded(&dir);

    let out = quickrec(&["verify", &logs]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chunks.qrl"), "per-file report: {stdout}");
    assert!(stdout.contains("framed v1"), "format reported: {stdout}");

    // One flipped bit in the chunk log must flip the verdict.
    let chunks = dir.join("rec").join("chunks.qrl");
    let mut bytes = std::fs::read(&chunks).expect("read chunk log");
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&chunks, &bytes).expect("rewrite chunk log");

    let out = quickrec(&["verify", &logs]);
    assert!(!out.status.success(), "corrupted recording must fail verification");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "fault named per file: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn jobs_flag_runs_parallel_replay_and_rejects_conflicting_modes() {
    let dir = scratch("jobs");
    let (prog, logs) = recorded(&dir);

    // Happy path: parallel replay verifies and reports its schedule.
    let out = quickrec(&["replay", &prog, &logs, "--jobs", "2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verified exact"), "outcome verified: {stdout}");
    assert!(stdout.contains("parallel replay"), "schedule reported: {stdout}");

    // The race detector needs the serial timestamp order; salvage is a
    // serial prefix walk. Both must refuse --jobs, loudly.
    for conflicting in ["--races", "--salvage"] {
        let out = quickrec(&["replay", &prog, &logs, conflicting, "--jobs", "2"]);
        assert!(!out.status.success(), "{conflicting} + --jobs should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--jobs cannot be combined with") && err.contains(conflicting),
            "{conflicting}: {err}"
        );
    }

    // Malformed worker counts are rejected before any replay work.
    for bad in ["0", "none", "-1"] {
        let out = quickrec(&["replay", &prog, &logs, "--jobs", bad]);
        assert!(!out.status.success(), "--jobs {bad} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bad --jobs value"), "--jobs {bad}: {err}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_handles_directories_mixing_framed_and_legacy_logs() {
    let dir = scratch("mixed");
    let (prog, logs) = recorded(&dir);

    // Replace the chunk log with an unframed v1 stream; the other files
    // keep the framed container. No recorder ever wrote such a
    // directory, and nothing reads an unframed log in place: every
    // command refuses it and names the migrator.
    let logs_path = PathBuf::from(&logs);
    std::fs::copy(golden_v1("hello-raw").join("chunks.qrl"), logs_path.join("chunks.qrl"))
        .expect("plant v1 chunk stream");

    // With the format manifest still present the directory claims to be
    // current, so the unframed file is plain corruption (bad magic)...
    let out = quickrec(&["replay", &prog, &logs]);
    assert!(!out.status.success(), "unframed chunk log must not replay");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad-magic") && err.contains("quickrec migrate"), "diagnosed: {err}");
    // ...and without one (a genuinely old file set has none) it is
    // refused as a v1 recording.
    std::fs::remove_file(logs_path.join("format.qrv")).expect("drop format manifest");

    let out = quickrec(&["verify", &logs]);
    assert!(!out.status.success(), "a directory holding a v1 log must fail verification");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chunks.qrl") && stdout.contains("not framed"), "per file: {stdout}");
    assert!(stdout.contains("quickrec migrate"), "migrator named: {stdout}");
    assert!(stdout.contains("framed v1"), "framed files still reported: {stdout}");

    for extra in [&[][..], &["--jobs", "2"][..], &["--salvage"][..]] {
        let mut args = vec!["replay", &prog, &logs];
        args.extend_from_slice(extra);
        let out = quickrec(&args);
        assert!(!out.status.success(), "replay {extra:?} must refuse a v1 log");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("quickrec migrate"), "replay {extra:?}: {err}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_recordings_are_refused_by_every_reader_but_migrate() {
    use quickrec::{ChunkLog, InputLog, Recording, RecordingParts};

    let dir = scratch("refusals");
    let v1_dir = dir.join("v1");
    copy_v1("hello-delta", &v1_dir);
    let v1 = v1_dir.to_str().unwrap().to_string();
    let parts = RecordingParts::read(&v1_dir).expect("read v1 fixture");
    let prog = dir.join("prog.pasm");
    std::fs::write(&prog, PROGRAM).expect("write program");
    let prog = prog.to_str().unwrap().to_string();
    let store = qr_store::RecordingStore::open(&dir.join("store")).expect("open store");
    let stored = store
        .put_parts("v1", &parts, quickrec::Encoding::Delta, 0)
        .expect("the store keeps bytes, whatever they hold");

    // Each entry yields the refusal text, or Err(what it wrongly produced).
    type Refusal = Result<String, String>;
    type Entry<'a> = (&'a str, Box<dyn Fn() -> Refusal + 'a>);
    let refused = |r: quickrec::Result<()>| -> Refusal {
        match r {
            Err(e) => Ok(format!("{e:?} / {e}")),
            Ok(()) => Err("a Recording".to_string()),
        }
    };
    let report = |r: qr_capo::VerifyReport| -> Refusal {
        if r.all_ok() {
            return Err("a clean verify report".to_string());
        }
        Ok(r.files.iter().map(|f| f.describe()).collect::<Vec<_>>().join("\n"))
    };
    let cli = |args: &[&str]| -> Refusal {
        let out = quickrec(args);
        if out.status.success() {
            return Err("exit 0".to_string());
        }
        Ok(format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ))
    };
    let table: Vec<Entry<'_>> = vec![
        ("Recording::from_parts", Box::new(|| refused(Recording::from_parts(&parts).map(drop)))),
        ("Recording::load", Box::new(|| refused(Recording::load(&v1_dir).map(drop)))),
        (
            "Recording::salvage_from_parts",
            Box::new(|| refused(Recording::salvage_from_parts(&parts).map(drop))),
        ),
        (
            "Recording::load_salvaged",
            Box::new(|| refused(Recording::load_salvaged(&v1_dir).map(drop))),
        ),
        ("Recording::verify_parts", Box::new(|| report(Recording::verify_parts(&parts)))),
        ("Recording::verify_dir", Box::new(|| report(Recording::verify_dir(&v1_dir)))),
        (
            "ChunkLog::from_bytes",
            Box::new(|| refused(ChunkLog::from_bytes(&parts.chunks).map(drop))),
        ),
        (
            "InputLog::from_bytes",
            Box::new(|| refused(InputLog::from_bytes(&parts.inputs).map(drop))),
        ),
        ("RecordingStore::fetch", Box::new(|| refused(store.fetch(stored).map(drop)))),
        (
            "RecordingStore::fetch_salvaged",
            Box::new(|| refused(store.fetch_salvaged(stored).map(drop))),
        ),
        (
            "RecordingStore::verify",
            Box::new(|| report(store.verify(stored).expect("entry exists"))),
        ),
        ("quickrec replay", Box::new(|| cli(&["replay", &prog, &v1]))),
        ("quickrec replay --salvage", Box::new(|| cli(&["replay", &prog, &v1, "--salvage"]))),
        ("quickrec verify", Box::new(|| cli(&["verify", &v1]))),
        ("quickrec analyze", Box::new(|| cli(&["analyze", &v1]))),
    ];
    for (entry, run) in &table {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .unwrap_or_else(|_| panic!("{entry} panicked on a v1 recording"));
        match outcome {
            Err(produced) => panic!("{entry} did not refuse a v1 recording: returned {produced}"),
            Ok(text) => {
                assert!(text.contains("quickrec migrate"), "{entry} does not name migrate: {text}")
            }
        }
    }
    // Whole-recording entries refuse with the one structured error that
    // names the generation.
    let err = Recording::from_parts(&parts).unwrap_err();
    assert!(matches!(err, quickrec::QrError::Unsupported(_)), "{err:?}");
    assert!(err.to_string().contains("recording format v1"), "{err}");

    // The way out works: after `migrate`, the same directory verifies
    // and replays.
    drop(table);
    let out = quickrec(&["migrate", &v1]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(quickrec(&["verify", &v1]).status.success());
    let out = quickrec(&["replay", &prog, &v1]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("verified exact"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn migrate_upgrades_legacy_recordings_and_is_idempotent() {
    let dir = scratch("migrate");
    let prog = dir.join("prog.pasm");
    std::fs::write(&prog, PROGRAM).expect("write program");
    let prog = prog.to_str().unwrap().to_string();
    // A v1 recording of PROGRAM: bare QRM1 meta blob, unframed
    // tag-prefixed logs, no sidecar, no manifest.
    let logs_path = dir.join("rec");
    copy_v1("hello-delta", &logs_path);
    let logs = logs_path.to_str().unwrap().to_string();

    // Migrate upgrades in place and names both generations.
    let out = quickrec(&["migrate", &logs]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("migrated v1 -> v3"), "report: {stdout}");
    assert!(logs_path.join("format.qrv").exists(), "manifest written");

    // The upgraded recording verifies and replays to the same execution.
    assert!(quickrec(&["verify", &logs]).status.success());
    let out = quickrec(&["replay", &prog, &logs]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("verified exact"));

    // Second migrate is a reported no-op that changes no bytes.
    let before: Vec<(String, Vec<u8>)> = {
        let mut files: Vec<_> = std::fs::read_dir(&logs_path)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    let out = quickrec(&["migrate", &logs]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("nothing to do"));
    let mut after: Vec<_> = std::fs::read_dir(&logs_path)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    after.sort();
    assert_eq!(after, before, "second migrate modified bytes");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn migrate_rejects_missing_directories_and_corrupt_recordings() {
    let dir = scratch("migrate-bad");

    // Missing directory: one clear diagnosis.
    let missing = dir.join("nope").to_str().unwrap().to_string();
    let out = quickrec(&["migrate", &missing]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not a recording directory"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Corrupt source: refused, and the directory is left untouched.
    let (_prog, logs) = recorded(&dir);
    let logs_path = PathBuf::from(&logs);
    let chunks = logs_path.join("chunks.qrl");
    let mut bytes = std::fs::read(&chunks).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&chunks, &bytes).unwrap();
    let before = std::fs::read(&chunks).unwrap();
    let out = quickrec(&["migrate", &logs]);
    assert!(!out.status.success(), "corrupt recording must not migrate");
    assert_eq!(std::fs::read(&chunks).unwrap(), before, "failed migrate touched the source");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_diagnoses_missing_and_empty_directories_clearly() {
    let dir = scratch("verify-missing");

    // Nonexistent path: one clear line, no per-file OS-error cascade.
    let missing = dir.join("nope").to_str().unwrap().to_string();
    let out = quickrec(&["verify", &missing]);
    assert!(!out.status.success(), "missing dir must fail verification");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not a recording directory"), "clear diagnosis: {err}");
    assert!(err.contains("no such directory"), "cause named: {err}");
    assert!(!err.contains("os error"), "no raw OS errors: {err}");

    // An existing-but-empty directory names the files it expected.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).expect("empty dir");
    let out = quickrec(&["verify", empty.to_str().unwrap()]);
    assert!(!out.status.success(), "empty dir must fail verification");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not a recording directory"), "clear diagnosis: {err}");
    assert!(err.contains("meta.qrm"), "expected files named: {err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_round_trip_submit_fetch_verify_shutdown() {
    let dir = scratch("daemon");
    let socket = dir.join("qd.sock");
    let socket = socket.to_str().unwrap();
    let store = dir.join("store");
    let prog = dir.join("prog.pasm");
    std::fs::write(&prog, PROGRAM).expect("write program");

    let mut server = Command::new(env!("CARGO_BIN_EXE_quickrec"))
        .args(["serve", "--socket", socket, "--store", store.to_str().unwrap(), "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn quickrec serve");

    // The daemon needs a moment to bind; submit retries via the client's
    // own connect loop would be nicer, but a bounded poll keeps the CLI
    // surface honest.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !socket_exists(socket) && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let out = quickrec(&[
        "submit",
        "--socket",
        socket,
        prog.to_str().unwrap(),
        "--cores",
        "2",
        "--name",
        "hello",
    ]);
    assert!(out.status.success(), "submit failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("session 1 done"), "completion reported: {stdout}");

    let out = quickrec(&["jobs", "--socket", socket]);
    assert!(out.status.success(), "jobs failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hello") && stdout.contains("done"), "job listed: {stdout}");

    let fetched = dir.join("fetched");
    let out = quickrec(&["fetch", "--socket", socket, "1", "-o", fetched.to_str().unwrap()]);
    assert!(out.status.success(), "fetch failed: {}", String::from_utf8_lossy(&out.stderr));

    // The fetched directory is a plain recording: verify and replay work
    // on it exactly as on a directly-recorded one.
    let out = quickrec(&["verify", fetched.to_str().unwrap()]);
    assert!(out.status.success(), "verify failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = quickrec(&["replay", prog.to_str().unwrap(), fetched.to_str().unwrap()]);
    assert!(out.status.success(), "replay failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("verified exact"));

    let out = quickrec(&["shutdown", "--socket", socket]);
    assert!(out.status.success(), "shutdown failed: {}", String::from_utf8_lossy(&out.stderr));
    let status = server.wait().expect("server exit");
    assert!(status.success(), "daemon must exit cleanly after shutdown");

    // Graceful shutdown leaves no torn store entries behind.
    let staged: Vec<_> = std::fs::read_dir(&store)
        .expect("store dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp"))
        .collect();
    assert!(staged.is_empty(), "no staging dirs after shutdown: {staged:?}");

    std::fs::remove_dir_all(&dir).ok();
}

fn socket_exists(path: &str) -> bool {
    std::fs::metadata(path).is_ok()
}

#[test]
fn daemon_time_travel_queries_cover_every_variant_dry_run_and_limits() {
    let dir = scratch("query");
    let socket = dir.join("qd.sock");
    let socket = socket.to_str().unwrap();
    let store = dir.join("store");
    let prog = dir.join("prog.pasm");
    std::fs::write(&prog, PROGRAM).expect("write program");

    let mut server = Command::new(env!("CARGO_BIN_EXE_quickrec"))
        .args(["serve", "--socket", socket, "--store", store.to_str().unwrap(), "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn quickrec serve");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !socket_exists(socket) && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let out = quickrec(&["submit", "--socket", socket, prog.to_str().unwrap(), "--cores", "2"]);
    assert!(out.status.success(), "submit failed: {}", String::from_utf8_lossy(&out.stderr));

    // Every query variant answers over the wire.
    for variant in [
        &["--range", "0..2"][..],
        &["--thread", "0"][..],
        &["--window", "0..4"][..],
        &["--before-divergence", "8"][..],
        &["--reverse-step", "1"][..],
    ] {
        let mut args = vec!["query", "--socket", socket, "1"];
        args.extend_from_slice(variant);
        let out = quickrec(&args);
        assert!(
            out.status.success(),
            "query {variant:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("query:") && stdout.contains("fingerprint"), "{variant:?}: {stdout}");
    }

    // Dry run prints the plan — span, resume point, cost — and no result.
    let out = quickrec(&["query", "--socket", socket, "1", "--range", "0..2", "--dry-run"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("plan: chunks 0..2"), "plan rendered: {stdout}");
    assert!(stdout.contains("events to re-execute"), "cost rendered: {stdout}");
    assert!(!stdout.contains("fingerprint"), "dry run must not execute: {stdout}");

    // A query over the safety limit is refused with a clean nonzero
    // exit; an out-of-range span is a structured error, not a panic.
    let out = quickrec(&["query", "--socket", socket, "1", "--thread", "0", "--max-events", "1"]);
    assert!(!out.status.success(), "over-limit query must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("exceeding max-events 1"), "limit named: {err}");
    let out = quickrec(&["query", "--socket", socket, "1", "--window", "0..100000"]);
    assert!(!out.status.success(), "out-of-range window must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("beyond the recording"), "range fault named: {err}");

    // Repeating a replay id is served from the idempotence cache.
    let first = quickrec(&["query", "--socket", socket, "1", "--thread", "0", "--replay-id", "7"]);
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let repeat = quickrec(&["query", "--socket", socket, "1", "--thread", "0", "--replay-id", "7"]);
    assert!(repeat.status.success(), "{}", String::from_utf8_lossy(&repeat.stderr));
    let stdout = String::from_utf8_lossy(&repeat.stdout);
    assert!(stdout.contains("idempotence cache"), "cache hit reported: {stdout}");

    // Zero or several variants, and malformed spans, are usage errors.
    for bad in [
        &[][..],
        &["--range", "0..2", "--thread", "0"][..],
        &["--range", "2"][..],
        &["--thread", "minus-one"][..],
    ] {
        let mut args = vec!["query", "--socket", socket, "1"];
        args.extend_from_slice(bad);
        let out = quickrec(&args);
        assert!(!out.status.success(), "query {bad:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("query") || err.contains("bad --"), "{bad:?}: {err}");
    }

    let out = quickrec(&["shutdown", "--socket", socket]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let status = server.wait().expect("server exit");
    assert!(status.success(), "daemon must exit cleanly after shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn salvage_replay_recovers_from_a_torn_log_where_strict_replay_refuses() {
    let dir = scratch("salvage");
    let (prog, logs) = recorded(&dir);

    // Tear the tail off the chunk log, as a crash mid-write would.
    let chunks = dir.join("rec").join("chunks.qrl");
    let bytes = std::fs::read(&chunks).expect("read chunk log");
    std::fs::write(&chunks, &bytes[..bytes.len() - 3]).expect("tear chunk log");

    let strict = quickrec(&["replay", &prog, &logs]);
    assert!(!strict.status.success(), "strict replay must refuse a torn log");

    let salvage = quickrec(&["replay", &prog, &logs, "--salvage"]);
    assert!(
        salvage.status.success(),
        "salvage replay failed: {}",
        String::from_utf8_lossy(&salvage.stderr)
    );
    let stdout = String::from_utf8_lossy(&salvage.stdout);
    assert!(stdout.contains("chunk log: corrupt"), "fault reported: {stdout}");
    assert!(stdout.contains("bytes dropped"), "loss quantified: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
