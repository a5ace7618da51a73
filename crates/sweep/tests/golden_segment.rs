//! Golden bytes of the segment format. A segment written out by hand in
//! the `axcc1 <32-hex digest> <len>\n<body>` layout must keep answering
//! bit-identically (stores filled by earlier builds stay warm), the
//! writer must reproduce those exact bytes, and each kind of malformed
//! header must heal as a miss that truncates the file at the last whole
//! entry.

#![allow(clippy::expect_used)] // a broken fixture should fail the test loudly

use axcc_core::fingerprint::Digest;
use axcc_sweep::{Record, ResultCache};
use std::path::PathBuf;

/// Four entries in shard 3: escaped `\` and `\n` in a string field, a NaN
/// with a payload, +∞ next to integer, bool and `None` fields, and a
/// digest written twice (the later entry, -0.0, supersedes 1.0).
const GOLDEN: &str = concat!(
    "axcc1 30000000000000000000000000000001 40\n",
    "2\n7ff80000deadbeef\nback\\\\slash\\nnewline\n",
    "axcc1 3000000000000000000000000000000b 19\n",
    "1\n3ff0000000000000\n",
    "axcc1 3fffffffffffffffffffffffffffffff 25\n",
    "4\n7ff0000000000000\n7\n1\n-\n",
    "axcc1 3000000000000000000000000000000b 19\n",
    "1\n8000000000000000\n",
);

const SEGMENT: &str = "shard-03.seg";

fn digest(hex: &str) -> Digest {
    Digest::from_hex(hex).expect("32 hex digits")
}

/// Every entry of `GOLDEN` in write order, superseded one included.
fn golden_entries() -> Vec<(Digest, Record)> {
    let mut nan = Record::new();
    nan.push_f64(f64::from_bits(0x7ff8_0000_dead_beef));
    nan.push_str("back\\slash\nnewline");
    let mut one = Record::new();
    one.push_f64(1.0);
    let mut inf = Record::new();
    inf.push_f64(f64::INFINITY);
    inf.push_usize(7);
    inf.push_bool(true);
    inf.push_opt_f64(None);
    let mut neg_zero = Record::new();
    neg_zero.push_f64(-0.0);
    vec![
        (digest("30000000000000000000000000000001"), nan),
        (digest("3000000000000000000000000000000b"), one),
        (digest("3fffffffffffffffffffffffffffffff"), inf),
        (digest("3000000000000000000000000000000b"), neg_zero),
    ]
}

/// The live entries: the superseded `1.0` is dropped.
fn live_entries() -> Vec<(Digest, Record)> {
    let mut entries = golden_entries();
    entries.remove(1);
    entries
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("axcc-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn golden_segment_reads_back_bit_identically() {
    let dir = fresh_dir("read");
    std::fs::write(dir.join(SEGMENT), GOLDEN).expect("write segment");
    let cache = ResultCache::with_disk(dir.clone());
    for (d, want) in live_entries() {
        assert_eq!(cache.get(&d).as_ref(), Some(&want), "{d}");
    }
    let nan = cache.get(&live_entries()[0].0).expect("hit");
    let bits = nan.reader().f64().expect("f64 field").to_bits();
    assert_eq!(bits, 0x7ff8_0000_dead_beef, "NaN payload survives");
    let neg_zero = cache.get(&live_entries()[2].0).expect("hit");
    let bits = neg_zero.reader().f64().expect("f64 field").to_bits();
    assert_eq!(bits, (-0.0f64).to_bits(), "the later entry wins");

    let stats = cache.stats();
    assert_eq!(stats.heal_events, 0);
    assert_eq!(stats.disk_entries(), 3);
    assert_eq!(stats.segment_bytes(), GOLDEN.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn writer_reproduces_the_golden_bytes() {
    let dir = fresh_dir("write");
    let cache = ResultCache::with_disk(dir.clone());
    for (d, record) in golden_entries() {
        cache.put(d, record);
    }
    let written = std::fs::read_to_string(dir.join(SEGMENT)).expect("segment written");
    assert_eq!(written, GOLDEN);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_headers_heal_as_misses_at_the_last_whole_entry() {
    let body = "1\n3ff0000000000000\n";
    let hex = "30000000000000000000000000000002";
    let cases = [
        ("bad magic", format!("axcc2 {hex} 19\n{body}")),
        ("31 hex digits", format!("axcc1 {} 19\n{body}", &hex[..31])),
        ("missing length", format!("axcc1 {hex}\n{body}")),
        ("empty length", format!("axcc1 {hex} \n{body}")),
        (
            "no newline within 20 digits",
            format!("axcc1 {hex} 000000000000000000019\n{body}"),
        ),
        ("over-long body", format!("axcc1 {hex} 99\n{body}")),
    ];
    for (i, (what, tail)) in cases.iter().enumerate() {
        let dir = fresh_dir(&format!("bad-{i}"));
        let seg = dir.join(SEGMENT);
        std::fs::write(&seg, format!("{GOLDEN}{tail}")).expect("write segment");
        let cache = ResultCache::with_disk(dir.clone());
        assert!(cache.get(&digest(hex)).is_none(), "{what}: miss");
        for (d, want) in live_entries() {
            assert_eq!(cache.get(&d).as_ref(), Some(&want), "{what}: {d}");
        }
        assert_eq!(cache.stats().heal_events, 1, "{what}: one heal");
        let len = std::fs::metadata(&seg).expect("segment").len();
        assert_eq!(len, GOLDEN.len() as u64, "{what}: truncated");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
