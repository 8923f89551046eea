//! The relaxation-update message codec.
//!
//! An update is `(target vertex, new distance, parent)` — 20 raw bytes. At
//! benchmark scale the exchange volume is the dominant network load, so the
//! optimized kernel ships updates sorted by target with gap+varint coded
//! ids and varint parents (distances stay raw `f32`: Graph500 weights are
//! uniform random, there is no entropy to remove). Sortedness comes for
//! free from the dedup ("on-chip sort") stage. Experiment F6 measures the
//! achieved ratio.

use crate::exchange::ExchangeRecord;
use g500_graph::compress::{read_varint, write_varint};

/// One relaxation request: (global target, tentative distance, global parent).
pub type Update = (u64, f32, u64);

/// Encode updates. If `sorted_by_target` is false the slice is copied and
/// sorted first (the format requires non-decreasing targets).
pub fn encode_updates(updates: &[Update], sorted_by_target: bool) -> Vec<u8> {
    let mut storage;
    let updates = if sorted_by_target || updates.windows(2).all(|w| w[0].0 <= w[1].0) {
        updates
    } else {
        storage = updates.to_vec();
        storage.sort_unstable_by_key(|u| u.0);
        &storage[..]
    };
    let mut out = Vec::with_capacity(4 + updates.len() * 10);
    write_varint(&mut out, updates.len() as u64);
    let mut prev = 0u64;
    for &(t, _, _) in updates {
        write_varint(&mut out, t - prev);
        prev = t;
    }
    for &(_, d, _) in updates {
        out.extend_from_slice(&d.to_le_bytes());
    }
    for &(_, _, p) in updates {
        write_varint(&mut out, p);
    }
    out
}

/// Decode a buffer produced by [`encode_updates`]. `None` on malformed
/// input.
pub fn decode_updates(buf: &[u8]) -> Option<Vec<Update>> {
    let mut pos = 0;
    let n = read_varint(buf, &mut pos)? as usize;
    let mut targets = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        prev = prev.checked_add(read_varint(buf, &mut pos)?)?;
        targets.push(prev);
    }
    let mut dists = Vec::with_capacity(n);
    for _ in 0..n {
        let end = pos.checked_add(4)?;
        let bytes = buf.get(pos..end)?;
        dists.push(f32::from_le_bytes(bytes.try_into().ok()?));
        pos = end;
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let p = read_varint(buf, &mut pos)?;
        out.push((targets[i], dists[i], p));
    }
    if pos == buf.len() {
        Some(out)
    } else {
        None
    }
}

/// Sort by target and keep the minimum-distance update per target — the
/// "on-chip sort" dedup stage. Returns the number of records eliminated.
pub fn dedup_min(updates: &mut Vec<Update>) -> usize {
    if updates.len() <= 1 {
        return 0;
    }
    updates.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let before = updates.len();
    updates.dedup_by_key(|u| u.0); // keeps the first = min distance
    before - updates.len()
}

/// Untagged updates dedup on (target, dist): the survivor per target is the
/// minimum distance.
impl ExchangeRecord for Update {
    const SINGLE_TAG: u64 = 0x5550;
    const FLAVOR: u64 = 0;

    fn dedup(bucket: &mut Vec<Self>) {
        dedup_min(bucket);
    }

    fn encode(records: &[Self], sorted: bool) -> Vec<u8> {
        encode_updates(records, sorted)
    }

    fn decode(buf: &[u8]) -> Option<Vec<Self>> {
        decode_updates(buf)
    }
}

/// One lane-tagged relaxation request of the batched kernel:
/// (lane index, global target, tentative distance, global parent).
pub type TaggedUpdate = (u32, u64, f32, u64);

/// The canonical total order of tagged updates: lane, then target, then
/// distance, then parent. Dedup and the compressed wire format both sort
/// by this *full* key, so the bytes shipped (and the post-dedup apply
/// order) are a pure function of the update *set* — independent of the
/// emission interleave, which is what makes a lane inside a width-B batch
/// bitwise identical to the same lane in a width-1 batch.
#[inline]
fn tagged_key(a: &TaggedUpdate, b: &TaggedUpdate) -> std::cmp::Ordering {
    (a.0, a.1)
        .cmp(&(b.0, b.1))
        .then(a.2.total_cmp(&b.2))
        .then(a.3.cmp(&b.3))
}

/// Sort by the canonical key and keep the minimum (distance, parent) per
/// (lane, target). Returns the number of records eliminated.
pub fn dedup_min_tagged(updates: &mut Vec<TaggedUpdate>) -> usize {
    if updates.len() <= 1 {
        return 0;
    }
    updates.sort_unstable_by(tagged_key);
    let before = updates.len();
    updates.dedup_by_key(|u| (u.0, u.1)); // keeps the first = min
    before - updates.len()
}

/// Encode tagged updates: lane-grouped, each group a gap+varint target
/// block exactly like [`encode_updates`]. If `sorted` is false the slice
/// is copied and sorted by the canonical key first (the format requires
/// lane-major, non-decreasing targets within a lane).
pub fn encode_tagged(updates: &[TaggedUpdate], sorted: bool) -> Vec<u8> {
    let mut storage;
    let updates = if sorted
        || updates
            .windows(2)
            .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1))
    {
        updates
    } else {
        storage = updates.to_vec();
        storage.sort_unstable_by(tagged_key);
        &storage[..]
    };
    let mut out = Vec::with_capacity(8 + updates.len() * 11);
    // count the lane groups first (one linear pass over the lane column)
    let groups = updates
        .iter()
        .enumerate()
        .filter(|(i, u)| *i == 0 || updates[i - 1].0 != u.0)
        .count();
    write_varint(&mut out, groups as u64);
    let mut i = 0usize;
    while i < updates.len() {
        let lane = updates[i].0;
        let j = updates[i..]
            .iter()
            .position(|u| u.0 != lane)
            .map_or(updates.len(), |off| i + off);
        let group = &updates[i..j];
        write_varint(&mut out, lane as u64);
        write_varint(&mut out, group.len() as u64);
        let mut prev = 0u64;
        for &(_, t, _, _) in group {
            write_varint(&mut out, t - prev);
            prev = t;
        }
        for &(_, _, d, _) in group {
            out.extend_from_slice(&d.to_le_bytes());
        }
        for &(_, _, _, p) in group {
            write_varint(&mut out, p);
        }
        i = j;
    }
    out
}

/// Decode a buffer produced by [`encode_tagged`]. `None` on malformed
/// input.
pub fn decode_tagged(buf: &[u8]) -> Option<Vec<TaggedUpdate>> {
    let mut pos = 0;
    let groups = read_varint(buf, &mut pos)?;
    let mut out = Vec::new();
    for _ in 0..groups {
        let lane = u32::try_from(read_varint(buf, &mut pos)?).ok()?;
        let n = read_varint(buf, &mut pos)? as usize;
        let base = out.len();
        let mut prev = 0u64;
        for _ in 0..n {
            prev = prev.checked_add(read_varint(buf, &mut pos)?)?;
            out.push((lane, prev, 0.0f32, 0u64));
        }
        for i in 0..n {
            let end = pos.checked_add(4)?;
            let bytes = buf.get(pos..end)?;
            out[base + i].2 = f32::from_le_bytes(bytes.try_into().ok()?);
            pos = end;
        }
        for i in 0..n {
            out[base + i].3 = read_varint(buf, &mut pos)?;
        }
    }
    if pos == buf.len() {
        Some(out)
    } else {
        None
    }
}

/// Tagged updates dedup on the full canonical key, so a lane's shipped
/// bytes do not depend on which other lanes share the batch.
impl ExchangeRecord for TaggedUpdate {
    const SINGLE_TAG: u64 = 0x5551;
    const FLAVOR: u64 = 1;

    fn dedup(bucket: &mut Vec<Self>) {
        dedup_min_tagged(bucket);
    }

    fn encode(records: &[Self], sorted: bool) -> Vec<u8> {
        encode_tagged(records, sorted)
    }

    fn decode(buf: &[u8]) -> Option<Vec<Self>> {
        decode_tagged(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Update> {
        vec![(5, 0.5, 100), (7, 0.25, 2), (7, 0.75, 3), (1000, 1.5, 999)]
    }

    #[test]
    fn roundtrip_sorted() {
        let u = sample();
        let enc = encode_updates(&u, true);
        assert_eq!(decode_updates(&enc), Some(u));
    }

    #[test]
    fn roundtrip_unsorted_gets_sorted() {
        let mut u = sample();
        u.reverse();
        let enc = encode_updates(&u, false);
        let dec = decode_updates(&enc).unwrap();
        assert!(dec.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(dec.len(), 4);
    }

    #[test]
    fn empty_roundtrip() {
        let enc = encode_updates(&[], true);
        assert_eq!(decode_updates(&enc), Some(vec![]));
    }

    #[test]
    fn compression_beats_raw_on_clustered_targets() {
        // targets in one rank's contiguous range — the realistic case
        let updates: Vec<Update> = (0..1000u64)
            .map(|i| (100_000 + i * 3, 0.5, 77_000 + i))
            .collect();
        let enc = encode_updates(&updates, true);
        let raw = updates.len() * 20;
        assert!(
            enc.len() * 3 < raw * 2,
            "ratio only {:.2}",
            raw as f64 / enc.len() as f64
        );
    }

    #[test]
    fn truncated_rejected() {
        let enc = encode_updates(&sample(), true);
        assert_eq!(decode_updates(&enc[..enc.len() - 1]), None);
        assert_eq!(decode_updates(&[]), None);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = encode_updates(&sample(), true);
        enc.push(0);
        assert_eq!(decode_updates(&enc), None);
    }

    #[test]
    fn dedup_keeps_min_per_target() {
        let mut u = vec![
            (7u64, 0.75f32, 3u64),
            (5, 0.5, 100),
            (7, 0.25, 2),
            (7, 0.9, 4),
        ];
        let removed = dedup_min(&mut u);
        assert_eq!(removed, 2);
        assert_eq!(u, vec![(5, 0.5, 100), (7, 0.25, 2)]);
    }

    #[test]
    fn dedup_noop_on_unique_targets() {
        let mut u = vec![(1u64, 0.1f32, 0u64), (2, 0.2, 0)];
        assert_eq!(dedup_min(&mut u), 0);
        assert_eq!(u.len(), 2);
    }

    fn tagged_sample() -> Vec<TaggedUpdate> {
        vec![
            (0, 5, 0.5, 100),
            (0, 900, 1.5, 3),
            (2, 5, 0.25, 7),
            (2, 6, 0.75, 7),
            (7, 0, 0.0, 0),
        ]
    }

    #[test]
    fn tagged_roundtrip_sorted() {
        let u = tagged_sample();
        let enc = encode_tagged(&u, true);
        assert_eq!(decode_tagged(&enc), Some(u));
    }

    #[test]
    fn tagged_roundtrip_unsorted_gets_canonical() {
        let mut u = tagged_sample();
        u.reverse();
        let enc = encode_tagged(&u, false);
        assert_eq!(decode_tagged(&enc), Some(tagged_sample()));
    }

    #[test]
    fn tagged_empty_and_truncated() {
        let enc = encode_tagged(&[], true);
        assert_eq!(decode_tagged(&enc), Some(vec![]));
        let enc = encode_tagged(&tagged_sample(), true);
        assert_eq!(decode_tagged(&enc[..enc.len() - 1]), None);
        let mut garbled = enc.clone();
        garbled.push(0);
        assert_eq!(decode_tagged(&garbled), None);
    }

    #[test]
    fn tagged_dedup_is_input_order_independent() {
        // same multiset, two emission orders: identical survivor list
        let mut a = vec![
            (1u32, 9u64, 0.5f32, 4u64),
            (1, 9, 0.5, 2),
            (0, 9, 0.5, 8),
            (1, 9, 0.25, 6),
        ];
        let mut b = a.clone();
        b.reverse();
        dedup_min_tagged(&mut a);
        dedup_min_tagged(&mut b);
        assert_eq!(a, b);
        assert_eq!(a, vec![(0, 9, 0.5, 8), (1, 9, 0.25, 6)]);
    }

    #[test]
    fn tagged_grouping_compresses_shared_lanes() {
        let updates: Vec<TaggedUpdate> = (0..1000u64)
            .map(|i| ((i % 4) as u32, 100_000 + (i / 4) * 3, 0.5, 77_000 + i))
            .collect();
        let mut sorted = updates.clone();
        sorted.sort_unstable_by(tagged_key);
        let enc = encode_tagged(&sorted, true);
        let raw = updates.len() * 24;
        assert!(
            enc.len() * 3 < raw * 2,
            "ratio only {:.2}",
            raw as f64 / enc.len() as f64
        );
    }
}
