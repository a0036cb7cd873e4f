//! The observability determinism battery: `qr-obs` is observational
//! only. Recordings must be byte-identical whether or not their caller
//! folds the counts the libraries return into a registry it owns, and
//! the trace journal's framed format must
//! round-trip exactly and degrade gracefully (never panic) under the
//! same mutators the log fault-injection suite uses.

use quickrec::workloads::{find, Scale};
use quickrec::{
    record, CheckpointIndex, Encoding, QueryEngine, Recording, RecordingConfig, ReplayQuery,
};
use std::path::PathBuf;

const THREADS: usize = 2;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qr-obs-det-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn record_workload(name: &str) -> Recording {
    let spec = find(name).expect("suite workload");
    let program = (spec.build)(THREADS, Scale::Test).expect("build");
    record(program, RecordingConfig::with_cores(THREADS)).expect("record")
}

/// Reads every file of a saved recording directory, sorted by name.
fn dir_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).expect("read file");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn recordings_are_byte_identical_with_metrics_on_and_off() {
    let dir = scratch("onoff");
    let mut counted = qr_obs::Registry::new();

    let observed = record_workload("fft");
    let chunks = observed.recorder_stats.chunks_by_reason.iter().sum();
    counted.counter("qr_recorder_chunks_total", "chunks", &[]).add(chunks);
    let blind = record_workload("fft");

    assert_eq!(
        observed.fingerprint, blind.fingerprint,
        "enabling metrics must not change the recorded execution"
    );
    // The full on-disk artifact — metadata, chunk log, input log — must
    // be byte-identical, for every encoding.
    for encoding in Encoding::ALL {
        let on_dir = dir.join(format!("on-{}", encoding.name()));
        let off_dir = dir.join(format!("off-{}", encoding.name()));
        observed.save(&on_dir, encoding).expect("save observed");
        blind.save(&off_dir, encoding).expect("save blind");
        let on = dir_bytes(&on_dir);
        let off = dir_bytes(&off_dir);
        assert_eq!(
            on.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            off.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            "{}: same file set",
            encoding.name()
        );
        for ((name, on_bytes), (_, off_bytes)) in on.iter().zip(&off) {
            assert_eq!(
                on_bytes, off_bytes,
                "{}/{name}: saved bytes differ with metrics enabled",
                encoding.name()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seek_indexes_and_answers_are_byte_identical_with_metrics_on_and_off() {
    let spec = find("lu").expect("suite workload");
    let program = (spec.build)(THREADS, Scale::Test).expect("build");
    let recording = record(program.clone(), RecordingConfig::with_cores(THREADS)).expect("record");
    let mut counted = qr_obs::Registry::new();

    // The sidecar, every seek through it and a query answer, once with
    // the registry counting seeks and restored records and once blind.
    let mut run = |observe: bool| {
        let sidecar = CheckpointIndex::build(&program, &recording, 4).expect("index").to_bytes();
        let mut engine = QueryEngine::new(&program, &recording).expect("engine");
        assert!(engine.attach_index_bytes(&sidecar));
        let landings: Vec<u64> = (0..=engine.timeline_len())
            .map(|target| engine.seek(target).expect("seek").partial_fingerprint())
            .collect();
        let query = ReplayQuery::ReverseStep { events: 5 };
        let answer = engine.execute(query, None).expect("query").to_bytes();
        if observe {
            let depth = counted.histogram(
                "qr_replay_seek_restore_records",
                "records applied per restored seek",
                &[],
                &[1, 2, 3, 4, 5, 6, 7, 8],
            );
            for (records, &seeks) in (1..).zip(&engine.seek_stats().restored) {
                depth.observe_n(records, seeks);
            }
        }
        (sidecar, landings, answer)
    };
    let observed = run(true);
    let blind = run(false);
    assert!(observed == blind, "enabling metrics changed a sidecar, a seek or an answer");

    // The observed run explains itself: every restored seek said how
    // many records it applied, never more than a chain holds.
    let text = counted.render();
    let sample = |name: &str| -> u64 {
        let line = text.lines().find(|l| l.starts_with(name)).unwrap_or_else(|| panic!("{name}:\n{text}"));
        line.rsplit(' ').next().and_then(|v| v.parse().ok()).expect("sample value")
    };
    let restored = sample("qr_replay_seek_restore_records_count");
    assert!(restored > 0, "no restored seek was observed");
    assert_eq!(sample("qr_replay_seek_restore_records_bucket{le=\"8\"}"), restored);
    assert!(sample("qr_replay_seek_restore_records_bucket{le=\"1\"}") < restored, "chains were walked");
}

#[test]
fn trace_journal_round_trips_through_the_frame_container() {
    let journal = qr_obs::Journal::new();
    journal.set_enabled(true);
    {
        let _outer = journal.span("record", 7);
        journal.instant("chunk_flush", 7);
        let _inner = journal.span("save", 7);
    }
    let events = journal.drain();
    assert!(events.len() >= 5, "2 spans + 1 instant = 5 events, got {}", events.len());

    let bytes = qr_obs::trace::to_bytes(&events);
    let decoded = qr_obs::trace::from_bytes(&bytes).expect("clean journal decodes");
    assert_eq!(decoded, events, "frame round trip must be exact");

    // Sequence numbers are dense and ordered — the replayable spine of
    // the journal.
    for (i, event) in decoded.iter().enumerate() {
        assert_eq!(event.seq, i as u64, "event {i}");
        assert_eq!(event.session, 7);
    }
}

/// SplitMix64 — the same keyed generator the log fault-injection suite
/// uses, so journal mutations are reproducible.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn mutated_trace_journals_never_panic_and_salvage_a_true_prefix() {
    let journal = qr_obs::Journal::new();
    journal.set_enabled(true);
    for i in 0..64u64 {
        let _span = journal.span("work", i);
        journal.instant("tick", i);
    }
    let events = journal.drain();
    let clean = qr_obs::trace::to_bytes(&events);

    let mut rng = SplitMix64(0x0B5E_D15E_A5E1);
    for case in 0..600 {
        let mut bytes = clean.clone();
        match case % 3 {
            // Truncation at an arbitrary offset.
            0 => bytes.truncate((rng.next() as usize) % (bytes.len() + 1)),
            // Single bit flip.
            1 => {
                let pos = (rng.next() as usize) % bytes.len();
                bytes[pos] ^= 1 << (rng.next() % 8);
            }
            // Byte replacement.
            _ => {
                let pos = (rng.next() as usize) % bytes.len();
                bytes[pos] = rng.next() as u8;
            }
        }
        // Strict decode: either clean success (mutation hit dead space —
        // impossible here, but allowed) or a structured error. Salvage:
        // whatever survives must be a true prefix of the clean journal.
        match qr_obs::trace::from_bytes(&bytes) {
            Ok(decoded) => assert_eq!(decoded, events, "case {case}: silent corruption"),
            Err(_) => {
                let (prefix, _fault) = qr_obs::trace::salvage(&bytes);
                assert!(
                    prefix.len() <= events.len(),
                    "case {case}: salvage invented events"
                );
                assert_eq!(
                    prefix,
                    events[..prefix.len()],
                    "case {case}: salvaged prefix diverges from the clean journal"
                );
            }
        }
    }
}

#[test]
fn trace_journal_disabled_by_default_and_costs_nothing_when_off() {
    let journal = qr_obs::Journal::new();
    assert!(!journal.enabled(), "journals must start disabled");
    {
        let _span = journal.span("ignored", 1);
        journal.instant("ignored", 1);
    }
    assert!(journal.is_empty(), "a disabled journal must record nothing");
}
