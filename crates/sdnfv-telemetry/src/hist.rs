//! Lock-free, mergeable log-linear latency histograms (HDR-style).
//!
//! The data plane records nanosecond latencies on its hot paths, so the
//! recorder must be cheap and wait-free: [`LatencyHistogram`] is a flat
//! array of relaxed atomic counters indexed by a log-linear bucketing of
//! the value — a handful of integer ops and two plain stores per record,
//! no locks and no lock prefix.
//!
//! **The recorder rule.** A histogram is recorded either by one thread for
//! its whole life, through [`LatencyHistogram::record`] (load, add, store —
//! two recorders would lose each other's increments, so a debug build
//! panics on the second thread), or by any number of threads through
//! [`LatencyHistogram::record_shared`] (an atomic read-modify-write per
//! bucket), never both. A shard's worker is the one recorder of its
//! end-to-end, ingress-wait and egress-wait histograms and the host thread
//! of the pen-dwell one; the NF-service histogram, which every replica
//! thread of the shard writes once per burst, is the shared kind.
//! Snapshots may be taken from any thread at any time under either rule.
//!
//! Buckets are exact below [`SUB_COUNT`] and sub-divide every power of
//! two into [`SUB_COUNT`] linear sub-buckets above it, bounding the
//! relative quantization error at `1/SUB_COUNT` (6.25%) across the full
//! `u64` range. [`HistogramSnapshot`] is the frozen, mergeable view:
//! merging per-shard snapshots is an element-wise add, so the merge of
//! the shards equals the histogram of the union of their samples —
//! exactly, not approximately (the property the hub's percentile
//! aggregation and the test suite rely on).

// Atomics come via the sdnfv-ring `sync` facade so the `sdnfv-check`
// interleaving checker can drive this histogram with its recording
// atomics (cargo feature unification turns the facade on workspace-wide
// when any crate enables `sdnfv-ring/model`; outside a model execution
// the instrumented types pass straight through to std).
use sdnfv_ring::sync::{AtomicU64, Ordering};

/// Log₂ of the linear sub-buckets per power-of-two group.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two group (and the exact range floor).
pub const SUB_COUNT: usize = 1 << SUB_BITS;
/// Power-of-two groups above the exact range.
const GROUPS: usize = 64 - SUB_BITS as usize;
/// Total bucket count covering all of `u64`.
pub const BUCKETS: usize = (GROUPS + 1) * SUB_COUNT;

/// Bucket index for a value: identity below [`SUB_COUNT`], then the
/// `SUB_BITS` bits after the most significant bit select the sub-bucket
/// within the value's power-of-two group.
fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let sub = ((value >> (msb - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
    group * SUB_COUNT + sub
}

/// Inclusive lower bound of a bucket (the smallest value that maps to it).
fn bucket_floor(index: usize) -> u64 {
    let group = index / SUB_COUNT;
    let sub = (index % SUB_COUNT) as u64;
    if group == 0 {
        sub
    } else {
        (SUB_COUNT as u64 + sub) << (group - 1)
    }
}

/// Inclusive upper bound of a bucket (the largest value that maps to it).
fn bucket_ceil(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_floor(index + 1) - 1
    }
}

/// A wait-free log-linear histogram of `u64` values (nanoseconds, by
/// convention), recorded by one thread ([`LatencyHistogram::record`]) or
/// shared between recorders ([`LatencyHistogram::record_shared`]) — see
/// the module docs for the rule.
pub struct LatencyHistogram {
    counts: Box<[AtomicU64]>,
    max: AtomicU64,
    /// The thread [`LatencyHistogram::record`] was first called on.
    #[cfg(debug_assertions)]
    recorder: std::sync::OnceLock<std::thread::ThreadId>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        LatencyHistogram {
            counts: counts.into_boxed_slice(),
            max: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            recorder: std::sync::OnceLock::new(),
        }
    }

    /// Records one observation. **Single recorder:** every call on one
    /// histogram must come from the same thread (a debug build asserts
    /// it); a histogram several threads write uses
    /// [`LatencyHistogram::record_shared`] instead.
    pub fn record(&self, value: u64) {
        #[cfg(debug_assertions)]
        {
            let caller = std::thread::current().id();
            assert_eq!(
                *self.recorder.get_or_init(|| caller),
                caller,
                "LatencyHistogram::record has one recorder; shared histograms use record_shared"
            );
        }
        let bucket = &self.counts[bucket_index(value)];
        // ORDER: Relaxed load + store, not a read-modify-write — this thread
        // is the bucket's only writer, so the value loaded is the value last
        // stored and no increment can be lost; nothing is published through
        // a bucket. Model-checked against a concurrent `snapshot`, which
        // only ever reads a value this thread wrote.
        bucket.store(bucket.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        // ORDER: Relaxed — same single-writer argument: the running max only
        // ever grows, by this thread's hand.
        if value > self.max.load(Ordering::Relaxed) {
            // ORDER: Relaxed — see the load above.
            self.max.store(value, Ordering::Relaxed);
        }
    }

    /// Records `n` observations of the same value (one bucket update) on a
    /// histogram that several threads record into: the read-modify-write
    /// form of [`LatencyHistogram::record`].
    pub fn record_shared(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        // ORDER: Relaxed — each bucket is an independent monotonic counter;
        // RMW atomicity alone guarantees no lost increments, and nothing is
        // published through a bucket. Cross-bucket consistency is explicitly
        // not promised (see `snapshot`). Model-checked: concurrent
        // recorder/recorder + recorder/snapshot interleavings lose no counts.
        self.counts[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        // ORDER: Relaxed — fetch_max races only with other maxima; the final
        // value is the true max of all recorded values regardless of order.
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Freezes the current contents into a mergeable snapshot. Counts are
    /// read relaxed: a concurrent recorder may land an observation just
    /// before or after the freeze, never corrupt it.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ORDER: Relaxed throughout — the snapshot is deliberately not a
        // consistent cut: a concurrent recorder's observation lands wholly
        // before or wholly after the freeze per bucket. Callers that need
        // an exact total (the DST oracle, the hub's end-of-window flush)
        // snapshot only after quiescing recorders, which supplies the
        // happens-before externally.
        let max = self.max.load(Ordering::Relaxed);
        // No bucket above the maximum's own holds a count, and that one
        // does, so the scan for the last non-zero bucket starts there and
        // ends at its first probe; what is left is the one copy. (An empty
        // histogram probes bucket 0, keeps none and allocates nothing;
        // counters only grow, so a bucket seen non-zero stays so.)
        let kept = self.counts[..=bucket_index(max)]
            .iter()
            // ORDER: Relaxed — see the snapshot-wide argument above.
            .rposition(|bucket| bucket.load(Ordering::Relaxed) != 0)
            .map_or(0, |at| at + 1);
        let counts = self.counts[..kept]
            .iter()
            // ORDER: Relaxed — see the snapshot-wide argument above.
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot { counts, max }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &snap.count())
            .field("max", &snap.max)
            .finish()
    }
}

/// A frozen histogram: trimmed bucket counts plus the exact maximum.
/// Merging is element-wise addition, so `merge(a, b)` is bucket-identical
/// to a histogram that observed both sample sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, trimmed after the last non-zero bucket.
    pub counts: Vec<u64>,
    /// The largest recorded value (exact, not quantized).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Folds another snapshot into this one (element-wise add; the max is
    /// the max of the two).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.max = self.max.max(other.max);
    }

    /// An upper bound on the value at quantile `q` in `[0, 1]`: the ceiling
    /// of the bucket holding the q-th observation, clamped to the exact
    /// recorded maximum. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_ceil(index).min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th-percentile upper bound.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// An order-sensitive FNV-1a digest of the bucket counts and max —
    /// the deterministic-simulation harness folds it into the replay
    /// trace so same-seed runs must produce bucket-identical histograms.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(self.counts.len() as u64);
        for &count in &self.counts {
            eat(count);
        }
        eat(self.max);
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_sub_count() {
        for v in 0..SUB_COUNT as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every probed value maps to a bucket whose [floor, ceil] range
        // contains it, and floors are strictly increasing.
        let probes: Vec<u64> = (0..200)
            .map(|i| (i * i * 37 + i) as u64)
            .chain([u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 12345])
            .collect();
        for &v in &probes {
            let index = bucket_index(v);
            assert!(index < BUCKETS, "index {index} for {v}");
            assert!(bucket_floor(index) <= v, "floor of {v}");
            assert!(v <= bucket_ceil(index), "ceil of {v}");
        }
        for index in 1..BUCKETS {
            assert!(bucket_floor(index) > bucket_floor(index - 1));
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // The bucket ceiling over-reports by at most 1/SUB_COUNT.
        for &v in &[100u64, 1_000, 10_000, 1_000_000, 123_456_789] {
            let ceil = bucket_ceil(bucket_index(v));
            assert!(ceil as f64 <= v as f64 * (1.0 + 1.0 / SUB_COUNT as f64) + 1.0);
        }
    }

    #[test]
    fn percentiles_bound_the_true_quantile() {
        let hist = LatencyHistogram::new();
        let values: Vec<u64> = (1..=1000u64).map(|i| i * 100).collect();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.max, 100_000);
        // True p50 is 50_000; the reported bound must cover it without
        // exceeding the quantization error.
        let p50 = snap.p50();
        assert!(p50 >= 50_000, "p50 {p50}");
        assert!(p50 as f64 <= 50_000.0 * 1.07, "p50 {p50}");
        let p99 = snap.p99();
        assert!(p99 >= 99_000, "p99 {p99}");
        assert!(p99 as f64 <= 99_000.0 * 1.07, "p99 {p99}");
        // p100 is clamped to the exact max.
        assert_eq!(snap.percentile(1.0), 100_000);
        assert_eq!(snap.p999().min(snap.max), snap.p999());
    }

    #[test]
    fn merge_of_shards_equals_histogram_of_union() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let union = LatencyHistogram::new();
        for i in 0..500u64 {
            let v = i * i % 77_777;
            a.record(v);
            union.record(v);
        }
        for i in 0..300u64 {
            let v = i * 13 + 1_000_000;
            b.record(v);
            union.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, union.snapshot());
        assert_eq!(merged.digest(), union.snapshot().digest());
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let snap = LatencyHistogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.percentile(1.0), 0);
        let mut merged = HistogramSnapshot::default();
        merged.merge(&snap);
        assert!(merged.is_empty());
    }

    #[test]
    fn record_shared_matches_repeated_record() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record_shared(4242, 7);
        a.record_shared(1, 0);
        for _ in 0..7 {
            b.record(4242);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    /// The two-pass scan `snapshot` used to make: find the last non-zero
    /// bucket over the whole array, then copy up to it.
    fn full_scan(hist: &LatencyHistogram) -> HistogramSnapshot {
        let loads = || hist.counts.iter().map(|b| b.load(Ordering::Relaxed));
        let kept = loads().rposition(|count| count != 0).map_or(0, |at| at + 1);
        HistogramSnapshot {
            counts: loads().take(kept).collect(),
            max: hist.max.load(Ordering::Relaxed),
        }
    }

    #[test]
    fn snapshot_bounded_by_the_max_equals_the_full_scan() {
        let hist = LatencyHistogram::new();
        assert_eq!(hist.snapshot(), full_scan(&hist));
        assert_eq!(hist.snapshot(), HistogramSnapshot::default());
        assert_eq!(hist.snapshot().counts.capacity(), 0, "no allocation");
        for value in [0, 7, 1_000_000, u64::MAX] {
            let one = LatencyHistogram::new();
            one.record(value);
            assert_eq!(one.snapshot(), full_scan(&one), "{value}");
            assert_eq!(one.snapshot().counts.len(), bucket_index(value) + 1);
            hist.record(value);
            assert_eq!(hist.snapshot(), full_scan(&hist), "up to {value}");
        }
        assert_eq!(hist.snapshot().counts.len(), BUCKETS);
        assert_eq!(hist.snapshot().count(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_second_recording_thread_is_caught_in_debug_builds() {
        let hist = LatencyHistogram::new();
        hist.record(1);
        std::thread::scope(|scope| {
            let second = scope.spawn(|| hist.record(2)).join();
            assert!(second.is_err(), "record from a second thread must panic");
            // Snapshots and the shared form are any thread's to call.
            scope.spawn(|| hist.snapshot()).join().unwrap();
        });
        hist.record(3);
        assert_eq!(hist.snapshot().count(), 2);
    }

    #[test]
    fn concurrent_recorders_lose_nothing() {
        use std::sync::Arc;
        let hist = Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let hist = Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        hist.record_shared(t * 1_000 + i % 97, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hist.snapshot().count(), 40_000);
    }
}
