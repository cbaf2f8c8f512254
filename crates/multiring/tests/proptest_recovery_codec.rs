//! Property-based tests of the two catch-up codecs, both ordered on the
//! rings: the shard-map announcement (`TAG_MAP`) and the parts of a
//! dedup-watermark announcement (`TAG_SEQS`). Both arrive from peers, so
//! besides round trips every malformed input must be rejected, and none
//! may panic a decoder.

use accelring_daemon::packing::{
    map_payload, parse_map, parse_seqs, seqs_payloads, MapMsg, TAG_MAP, TAG_SEQS,
};
use accelring_daemon::proto::MAX_NAME;
use proptest::prelude::*;

/// One character: printable ASCII half the time, otherwise any code
/// point (surrogates become U+FFFD), so multi-byte UTF-8 is common.
fn char_strategy() -> impl Strategy<Value = char> {
    prop_oneof![0x20u32..0x7f, 0u32..0x11_0000]
        .prop_map(|c| char::from_u32(c).unwrap_or(char::REPLACEMENT_CHARACTER))
}

/// Non-empty UTF-8 of at most `max_bytes` bytes.
fn text_strategy(max_bytes: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(char_strategy(), 1..max_bytes + 1).prop_map(move |chars| {
        let mut text = String::new();
        for c in chars {
            if text.len() + c.len_utf8() > max_bytes {
                break;
            }
            text.push(c);
        }
        text
    })
}

fn map_strategy() -> impl Strategy<Value = MapMsg> {
    (
        any::<u64>(),
        any::<u16>(),
        any::<u16>(),
        proptest::collection::vec((text_strategy(48), any::<u16>()), 0..8),
    )
        .prop_map(|(version, rings, sender, overrides)| MapMsg {
            version,
            rings,
            sender,
            overrides,
        })
}

/// A watermark table with UTF-8 names of 1 to [`MAX_NAME`] bytes.
fn seqs_strategy() -> impl Strategy<Value = Vec<(String, u64)>> {
    proptest::collection::vec((text_strategy(MAX_NAME), any::<u64>()), 0..24)
}

/// Part budgets from one longest entry up to a few: small enough that
/// most tables split.
fn budget_strategy() -> impl Strategy<Value = usize> {
    78usize..400
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn map_roundtrip(msg in map_strategy()) {
        prop_assert_eq!(parse_map(&map_payload(&msg)), Some(msg));
    }

    #[test]
    fn seqs_roundtrip(seqs in seqs_strategy(), budget in budget_strategy()) {
        let parts = seqs_payloads(&seqs, budget);
        let mut merged = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            prop_assert!(part.len() <= budget, "part {} is {} bytes", i, part.len());
            let msg = parse_seqs(part);
            prop_assert!(msg.is_some(), "part {} does not parse", i);
            let msg = msg.expect("checked");
            prop_assert_eq!(msg.last, i + 1 == parts.len(), "flag of part {}", i);
            merged.extend(msg.seqs);
        }
        prop_assert_eq!(merged, seqs);
    }

    #[test]
    fn map_prefixes_and_extensions_rejected(msg in map_strategy(), extra in any::<u8>()) {
        let good = map_payload(&msg);
        for cut in 0..good.len() {
            prop_assert_eq!(parse_map(&good[..cut]), None, "prefix of {} bytes", cut);
        }
        let mut longer = good.to_vec();
        longer.push(extra);
        prop_assert_eq!(parse_map(&longer), None);
    }

    #[test]
    fn seqs_prefixes_and_extensions_rejected(
        seqs in seqs_strategy(),
        budget in budget_strategy(),
        extra in any::<u8>(),
    ) {
        for good in seqs_payloads(&seqs, budget) {
            for cut in 0..good.len() {
                prop_assert_eq!(parse_seqs(&good[..cut]), None, "prefix of {} bytes", cut);
            }
            let mut longer = good.to_vec();
            longer.push(extra);
            prop_assert_eq!(parse_seqs(&longer), None);
        }
    }

    #[test]
    fn garbage_never_panics_either_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = parse_map(&bytes);
        let _ = parse_seqs(&bytes);
        // Past the tag check, so the body parsers see the garbage too.
        for tag in [TAG_MAP, TAG_SEQS] {
            let mut tagged = vec![tag];
            tagged.extend_from_slice(&bytes);
            let _ = parse_map(&tagged);
            let _ = parse_seqs(&tagged);
        }
    }
}
