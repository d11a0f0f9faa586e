//! Batch-first packet processing types.
//!
//! DPDK-style data planes move packets in bursts, and so does this one: the
//! NF Manager hands every network function a [`PacketBatch`] (or
//! [`PacketBatchMut`] for functions that rewrite packets) plus a verdict
//! slice to fill in, one [`Verdict`](crate::Verdict) per packet. Per-packet
//! costs — ring cursor updates, flow-table lookups, virtual dispatch — are
//! paid once per burst instead of once per frame.
//!
//! [`VerdictSlice`] is the reusable verdict buffer the dispatch layers keep
//! between bursts so the hot path never reallocates.

use sdnfv_proto::Packet;

use crate::api::Verdict;

/// An immutable burst of packets handed to a read-only NF.
///
/// The batch borrows its packets from wherever the dispatch layer keeps them
/// (inline buffers, shared ring descriptors, …); NFs index or iterate it and
/// write one verdict per packet into the slice passed alongside.
#[derive(Debug)]
pub struct PacketBatch<'a> {
    packets: &'a [&'a Packet],
}

impl<'a> PacketBatch<'a> {
    /// Wraps a slice of packet references as a batch.
    pub fn new(packets: &'a [&'a Packet]) -> Self {
        PacketBatch { packets }
    }

    /// Number of packets in the burst.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Returns `true` for an empty burst.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// The `index`-th packet of the burst.
    pub fn get(&self, index: usize) -> Option<&Packet> {
        self.packets.get(index).copied()
    }

    /// Iterates the packets of the burst in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Packet> + '_ {
        self.packets.iter().copied()
    }
}

impl std::ops::Index<usize> for PacketBatch<'_> {
    type Output = Packet;

    fn index(&self, index: usize) -> &Packet {
        self.packets[index]
    }
}

/// A mutable burst of packets handed to an NF that rewrites packets.
///
/// The slice borrow (`'s`) and the packet borrows (`'p`) are distinct
/// lifetimes so dispatch layers can keep the backing `Vec` of references
/// alive (and reuse its allocation) after the batch is dropped.
#[derive(Debug)]
pub struct PacketBatchMut<'s, 'p> {
    packets: &'s mut [&'p mut Packet],
}

impl<'s, 'p> PacketBatchMut<'s, 'p> {
    /// Wraps a slice of mutable packet references as a batch.
    pub fn new(packets: &'s mut [&'p mut Packet]) -> Self {
        PacketBatchMut { packets }
    }

    /// Number of packets in the burst.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Returns `true` for an empty burst.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// The `index`-th packet of the burst.
    pub fn get(&self, index: usize) -> Option<&Packet> {
        self.packets.get(index).map(|p| &**p)
    }

    /// Mutable access to the `index`-th packet of the burst.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut Packet> {
        self.packets.get_mut(index).map(|p| &mut **p)
    }

    /// Iterates the packets of the burst immutably.
    pub fn iter(&self) -> impl Iterator<Item = &Packet> + use<'_, 's, 'p> {
        self.packets.iter().map(|p| &**p)
    }

    /// Iterates the packets of the burst mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Packet> + use<'_, 's, 'p> {
        self.packets.iter_mut().map(|p| &mut **p)
    }
}

/// A reusable verdict buffer.
///
/// Dispatch layers keep one `VerdictSlice` per NF loop and call
/// [`VerdictSlice::reset`] before each burst: the buffer is resized to the
/// burst length with every entry set to [`Verdict::Default`], which is the
/// contract batch implementations rely on (an NF only needs to write the
/// entries it wants to deviate from the default path).
#[derive(Debug, Default)]
pub struct VerdictSlice {
    verdicts: Vec<Verdict>,
}

impl VerdictSlice {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        VerdictSlice::default()
    }

    /// Creates a buffer pre-sized for bursts of `capacity` packets.
    pub fn with_capacity(capacity: usize) -> Self {
        VerdictSlice {
            verdicts: Vec::with_capacity(capacity),
        }
    }

    /// Resizes to `len` entries, all reset to [`Verdict::Default`], and
    /// returns the slice to pass to
    /// [`NetworkFunction::process_batch`](crate::NetworkFunction::process_batch).
    pub fn reset(&mut self, len: usize) -> &mut [Verdict] {
        self.verdicts.clear();
        self.verdicts.resize(len, Verdict::Default);
        &mut self.verdicts
    }

    /// The verdicts of the last burst.
    pub fn as_slice(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// Returns `true` if the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }
}

/// A tiny burst-scoped memo: a linear-probed `(key, value)` list.
///
/// Bursts are small (≤ a few hundred packets), so a linear scan beats
/// hashing short keys like [`FlowKey`](sdnfv_proto::flow::FlowKey) into a
/// map. Used wherever a per-burst computation should run once per distinct
/// key — flow-table lookups in the dispatch layers, rule evaluation in
/// vectorized NFs. Clear it at every burst boundary so decisions never
/// outlive the burst they were made for.
///
/// The probe is **capped**: once the memo holds
/// [`BYPASS_MIN_ENTRIES`](BurstMemo::BYPASS_MIN_ENTRIES) entries and the
/// running hit rate of the burst is below 1 in
/// [`BYPASS_HIT_DIVISOR`](BurstMemo::BYPASS_HIT_DIVISOR) probes, the memo
/// stops scanning and inserting and computes values directly (keeping only a
/// one-entry scratch slot so back-to-back repeats stay cheap). All-distinct
/// traffic — a fig9-style spoofed-source DDoS, where memoization buys
/// nothing — would otherwise grow the scan linearly with the burst and turn
/// per-burst work O(burst²). The `compute` callback must therefore be pure
/// (it already had to be: which probe computes and which hits is
/// order-dependent); bypassing only re-runs it, never changes results.
///
/// An NF that memoizes per burst keeps its memo as a field and clears it at
/// each burst, so the entry storage is allocated once.
#[derive(Debug, Clone)]
pub struct BurstMemo<K, V> {
    entries: Vec<(K, V)>,
    /// Probes (`get_or_insert_with` calls) since the last `clear`.
    probes: u32,
    /// Probes that found their key memoized since the last `clear`.
    hits: u32,
    /// One-entry scratch slot used while bypassing, so runs of one key still
    /// compute once.
    scratch: Option<(K, V)>,
    /// Entry count below which this memo never bypasses (defaults to
    /// [`BurstMemo::BYPASS_MIN_ENTRIES`]).
    bypass_min_entries: usize,
    /// Hit-rate divisor for bypassing (defaults to
    /// [`BurstMemo::BYPASS_HIT_DIVISOR`]).
    bypass_hit_divisor: u32,
}

impl<K: PartialEq, V> BurstMemo<K, V> {
    /// Default entry count below which the memo never bypasses: the scan is
    /// cheap and the hit rate is not yet meaningful.
    pub const BYPASS_MIN_ENTRIES: usize = 32;

    /// Default hit-rate threshold for bypassing, as a divisor: memoization
    /// is abandoned while fewer than one probe in this many hits.
    pub const BYPASS_HIT_DIVISOR: u32 = 4;

    /// Creates an empty memo with the default probe-cap thresholds.
    pub fn new() -> Self {
        BurstMemo::with_thresholds(Self::BYPASS_MIN_ENTRIES, Self::BYPASS_HIT_DIVISOR)
    }

    /// Creates an empty memo with explicit probe-cap thresholds (a
    /// `bypass_hit_divisor` of 0 disables bypassing entirely; a
    /// `bypass_min_entries` of 0 is clamped to 1). Private: callers get the
    /// defaults; the unit tests exercise the heuristic's edges through it.
    fn with_thresholds(bypass_min_entries: usize, bypass_hit_divisor: u32) -> Self {
        BurstMemo {
            entries: Vec::with_capacity(8),
            probes: 0,
            hits: 0,
            scratch: None,
            bypass_min_entries: bypass_min_entries.max(1),
            bypass_hit_divisor,
        }
    }

    /// Forgets every entry and resets the hit-rate tracking (call at burst
    /// boundaries).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.probes = 0;
        self.hits = 0;
        self.scratch = None;
    }

    /// Number of memoized entries (excluding the bypass scratch slot).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value memoized for `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Whether the memo is currently bypassing (low hit rate at the probe
    /// cap — see the type docs). A zero hit divisor disables bypassing.
    fn bypassing(&self) -> bool {
        self.bypass_hit_divisor != 0
            && self.entries.len() >= self.bypass_min_entries
            && self.hits.saturating_mul(self.bypass_hit_divisor) < self.probes
    }

    /// Returns the value memoized for `key`, computing and storing it with
    /// `compute` on first sight. While the memo is bypassing (see the type
    /// docs) the value is computed directly instead of scanned for, except
    /// for immediate repeats of the previous key.
    pub fn get_or_insert_with(&mut self, key: K, compute: impl FnOnce(&K) -> V) -> &V {
        self.probes = self.probes.saturating_add(1);
        if self.bypassing() {
            if self.scratch.as_ref().is_some_and(|(k, _)| *k == key) {
                self.hits = self.hits.saturating_add(1);
            } else {
                let value = compute(&key);
                self.scratch = Some((key, value));
            }
            return &self.scratch.as_ref().expect("scratch slot just filled").1;
        }
        match self.entries.iter().position(|(k, _)| *k == key) {
            Some(index) => {
                self.hits = self.hits.saturating_add(1);
                &self.entries[index].1
            }
            None => {
                let value = compute(&key);
                self.entries.push((key, value));
                &self.entries.last().expect("just pushed").1
            }
        }
    }
}

impl<K: PartialEq, V> Default for BurstMemo<K, V> {
    fn default() -> Self {
        BurstMemo::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_proto::packet::PacketBuilder;

    #[test]
    fn immutable_batch_indexing_and_iteration() {
        let a = PacketBuilder::udp().src_port(1).build();
        let b = PacketBuilder::udp().src_port(2).build();
        let refs = [&a, &b];
        let batch = PacketBatch::new(&refs);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.get(0).unwrap().udp().unwrap().src_port, 1);
        assert_eq!(batch[1].udp().unwrap().src_port, 2);
        assert!(batch.get(2).is_none());
        let ports: Vec<u16> = batch.iter().map(|p| p.udp().unwrap().src_port).collect();
        assert_eq!(ports, vec![1, 2]);
    }

    #[test]
    fn mutable_batch_allows_rewrites() {
        let mut a = PacketBuilder::udp().payload(b"aa").build();
        let mut b = PacketBuilder::udp().payload(b"bb").build();
        let mut refs: Vec<&mut sdnfv_proto::Packet> = vec![&mut a, &mut b];
        let mut batch = PacketBatchMut::new(&mut refs);
        assert_eq!(batch.len(), 2);
        for pkt in batch.iter_mut() {
            pkt.l4_payload_mut().unwrap()[0] = b'X';
        }
        assert_eq!(batch.get(0).unwrap().l4_payload().unwrap(), b"Xa");
        assert_eq!(batch.get_mut(1).unwrap().l4_payload().unwrap(), b"Xb");
        assert_eq!(batch.iter().count(), 2);
    }

    #[test]
    fn burst_memo_computes_once_per_key() {
        let mut memo: BurstMemo<u32, u32> = BurstMemo::new();
        let mut computed = 0;
        for key in [1, 2, 1, 1, 2, 3] {
            memo.get_or_insert_with(key, |k| {
                computed += 1;
                k * 10
            });
        }
        assert_eq!(computed, 3, "one computation per distinct key");
        assert_eq!(memo.get(&1), Some(&10));
        assert_eq!(memo.get(&3), Some(&30));
        assert_eq!(memo.get(&4), None);
        memo.clear();
        assert_eq!(memo.get(&1), None);
    }

    #[test]
    fn burst_memo_stops_memoizing_all_distinct_keys() {
        // All-distinct traffic: the memo must stop growing (and scanning)
        // once the probe cap is reached with a zero hit rate.
        let mut memo: BurstMemo<u32, u32> = BurstMemo::new();
        for key in 0..1000u32 {
            let value = *memo.get_or_insert_with(key, |k| k + 1);
            assert_eq!(value, key + 1, "bypassing never changes results");
        }
        assert_eq!(
            memo.len(),
            BurstMemo::<u32, u32>::BYPASS_MIN_ENTRIES,
            "entry growth is capped under a zero hit rate"
        );
        // A clear resets the heuristic: memoization resumes.
        memo.clear();
        for key in 0..8u32 {
            memo.get_or_insert_with(key, |k| *k);
        }
        assert_eq!(memo.len(), 8);
    }

    #[test]
    fn burst_memo_keeps_memoizing_hot_flows() {
        // Many probes over few keys: the hit rate stays high, so the memo
        // keeps computing once per distinct key even past the probe cap.
        let mut memo: BurstMemo<u32, u32> = BurstMemo::new();
        let mut computed = 0;
        for i in 0..1000u32 {
            memo.get_or_insert_with(i % 8, |k| {
                computed += 1;
                *k
            });
        }
        assert_eq!(computed, 8, "hot flows stay memoized");
    }

    #[test]
    fn burst_memo_scratch_slot_absorbs_repeats_while_bypassing() {
        let mut memo: BurstMemo<u32, u32> = BurstMemo::new();
        // Engage the bypass with all-distinct keys...
        for key in 0..100u32 {
            memo.get_or_insert_with(key, |k| *k);
        }
        // ...then probe one key repeatedly: computed exactly once.
        let mut computed = 0;
        for _ in 0..10 {
            memo.get_or_insert_with(7777, |k| {
                computed += 1;
                *k
            });
        }
        assert_eq!(computed, 1, "scratch slot memoizes immediate repeats");
    }

    #[test]
    fn burst_memo_thresholds_are_configurable() {
        // A lower entry cap engages the bypass sooner…
        let mut memo: BurstMemo<u32, u32> = BurstMemo::with_thresholds(4, 4);
        for key in 0..100u32 {
            memo.get_or_insert_with(key, |k| *k);
        }
        assert_eq!(memo.len(), 4, "growth capped at the configured floor");
        // …and a zero divisor disables bypassing entirely.
        let mut memo: BurstMemo<u32, u32> = BurstMemo::with_thresholds(4, 0);
        for key in 0..100u32 {
            memo.get_or_insert_with(key, |k| *k);
        }
        assert_eq!(memo.len(), 100, "bypass disabled: every key memoized");
        // A zero entry floor is clamped rather than bypassing immediately.
        let mut memo: BurstMemo<u32, u32> = BurstMemo::with_thresholds(0, 4);
        memo.get_or_insert_with(1, |k| *k);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn verdict_slice_resets_to_default() {
        let mut vs = VerdictSlice::with_capacity(8);
        assert!(vs.is_empty());
        let slice = vs.reset(3);
        slice[1] = Verdict::Discard;
        assert_eq!(vs.len(), 3);
        assert_eq!(
            vs.as_slice(),
            &[Verdict::Default, Verdict::Discard, Verdict::Default]
        );
        // A reset wipes previous verdicts, even when shrinking.
        let slice = vs.reset(2);
        assert_eq!(slice, &[Verdict::Default, Verdict::Default]);
    }
}
