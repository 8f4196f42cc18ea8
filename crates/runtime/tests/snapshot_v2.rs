//! Snapshot v2 contract tests: rejection of truncated/corrupt input with
//! descriptive errors, and the crash-at-a-random-event property (save →
//! restore → continue equals the uninterrupted run, `to_bits` exact).

use omcf_core::solver::RoutingMode;
use omcf_numerics::Xoshiro256pp;
use omcf_overlay::random_churn;
use omcf_runtime::{Event, Runtime, RuntimeConfig, SnapshotError, SNAPSHOT_V2_MAGIC};
use omcf_topology::{canned, Graph};
use proptest::prelude::*;

fn grid() -> Graph {
    canned::grid(5, 5, 10.0)
}

fn cfg() -> RuntimeConfig {
    RuntimeConfig::new(25.0, RoutingMode::FixedIp)
}

/// A runtime with survivors, a departed session and a capacity rescale —
/// every snapshot section populated non-trivially.
fn populated() -> Runtime {
    let mut rt = Runtime::new(grid(), cfg());
    let churn = random_churn(&grid(), 8, 3, 1.0, 0.35, &mut Xoshiro256pp::new(7));
    for ev in Event::from_churn(&churn) {
        rt.apply(&ev);
    }
    rt.apply(&Event::CapacityChange(vec![(omcf_topology::EdgeId(0), 2.0)]));
    rt
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

#[test]
fn truncation_anywhere_is_rejected_descriptively() {
    let bytes = populated().snapshot_v2();
    // Every strict prefix must fail cleanly — no panic, no partial
    // runtime — and say what was being read when the bytes ran out.
    for cut in 0..bytes.len() {
        let err = Runtime::restore_v2(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("prefix of {cut} bytes must not restore"));
        let msg = err.to_string();
        assert!(
            msg.contains("truncated")
                || msg.contains("byte")
                || matches!(err, SnapshotError::UnsupportedVersion(_)),
            "cut {cut}: undescriptive error {msg:?}"
        );
    }
}

#[test]
fn corrupt_header_names_the_problem() {
    let mut bytes = populated().snapshot_v2();
    assert_eq!(&bytes[..8], SNAPSHOT_V2_MAGIC);

    // Magic vandalism → unsupported format, not a byte-offset error.
    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    let err = Runtime::restore_v2(&bad_magic).expect_err("bad magic");
    assert!(matches!(err, SnapshotError::UnsupportedVersion(_)), "{err}");

    // Future version → the error names the version it saw.
    bytes[8] = 99;
    let err = Runtime::restore_v2(&bytes).expect_err("future version");
    assert!(err.to_string().contains("99"), "{err}");
}

#[test]
fn corrupt_section_payload_reports_an_offset() {
    let rt = populated();
    let bytes = rt.snapshot_v2();
    // Flip the top bit of every byte in turn. Each flip must either be
    // rejected with a non-empty diagnostic, or decode to a runtime that
    // faithfully reflects the flipped value (a mantissa bit of some
    // stored float, say) — never silently reproduce the original state
    // from different bytes. Structural bytes (framing, counts, ids,
    // validated floats) must all land in the rejected bucket.
    let mut rejected = 0;
    for target in 12..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[target] ^= 0x80;
        match Runtime::restore_v2(&mutated) {
            Ok(restored) => {
                assert_ne!(
                    restored.snapshot_v2(),
                    bytes,
                    "byte {target}: corrupt input restored the original state"
                );
            }
            Err(e) => {
                assert!(!e.to_string().is_empty(), "byte {target}: empty error");
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "no flip was rejected — validation is not running");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn crash_at_any_event_restores_bit_identically(
        seed in any::<u64>(),
        joins in 4usize..10,
        split_pick in 0usize..64,
    ) {
        let g = grid();
        let churn = random_churn(&g, joins, 3, 1.0, 0.35, &mut Xoshiro256pp::new(seed));
        let events = Event::schedule(&churn, 4);
        let split = split_pick % (events.len() + 1);

        let mut whole = Runtime::new(g.clone(), cfg());
        for ev in &events {
            whole.apply(ev);
        }

        let mut first = Runtime::new(g, cfg());
        for ev in &events[..split] {
            first.apply(ev);
        }
        let snap = first.snapshot_v2();
        drop(first); // the crash
        let mut resumed = Runtime::restore_v2(&snap).expect("restore");
        for ev in &events[split..] {
            resumed.apply(ev);
        }

        assert_bits_eq(resumed.lengths(), whole.lengths(), "lengths");
        assert_bits_eq(resumed.load(), whole.load(), "loads");
        prop_assert_eq!(resumed.live_joins(), whole.live_joins());
        prop_assert_eq!(resumed.events_processed(), whole.events_processed());
        prop_assert_eq!(resumed.snapshot_v2(), whole.snapshot_v2());
    }
}
