//! The trace journal's contract: its framed format must round-trip
//! exactly and degrade gracefully (never panic) under the same mutators
//! the log fault-injection suite uses.

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
