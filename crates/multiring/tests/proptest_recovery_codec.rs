//! Property-based tests of the two catch-up codecs: the shard-map
//! announcement (`TAG_MAP`, ordered on the rings) and the recovery
//! snapshot (`MAP_PUSH` body, pulled over the session wire). Both arrive
//! from peers, so besides round trips every malformed input must be
//! rejected, and none may panic a decoder.

use accelring_daemon::packing::{map_payload, parse_map, MapMsg, TAG_MAP};
use accelring_daemon::proto::MAX_NAME;
use accelring_multiring::{decode_snapshot, encode_snapshot, RecoverySnapshot};
use bytes::Bytes;
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

fn snapshot_strategy() -> impl Strategy<Value = RecoverySnapshot> {
    (
        any::<u64>(),
        any::<u64>(),
        map_strategy(),
        proptest::collection::vec(
            proptest::collection::vec((text_strategy(MAX_NAME), any::<u64>()), 0..6),
            0..4,
        ),
    )
        .prop_map(|(epoch, cursor, map, seqs)| RecoverySnapshot {
            epoch,
            cursor,
            map,
            seqs,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn map_roundtrip(msg in map_strategy()) {
        prop_assert_eq!(parse_map(&map_payload(&msg)), Some(msg));
    }

    #[test]
    fn snapshot_roundtrip(snap in snapshot_strategy()) {
        prop_assert_eq!(decode_snapshot(encode_snapshot(&snap)), Ok(snap));
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
    fn snapshot_prefixes_and_extensions_rejected(
        snap in snapshot_strategy(),
        extra in any::<u8>(),
    ) {
        let good = encode_snapshot(&snap);
        for cut in 0..good.len() {
            prop_assert!(decode_snapshot(good.slice(..cut)).is_err(), "prefix of {} bytes", cut);
        }
        let mut longer = good.to_vec();
        longer.push(extra);
        prop_assert!(decode_snapshot(Bytes::from(longer)).is_err());
    }

    #[test]
    fn garbage_never_panics_either_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = parse_map(&bytes);
        // Past the tag check, so the body parser sees the garbage too.
        let mut tagged = vec![TAG_MAP];
        tagged.extend_from_slice(&bytes);
        let _ = parse_map(&tagged);
        let _ = decode_snapshot(Bytes::from(bytes));
    }
}
