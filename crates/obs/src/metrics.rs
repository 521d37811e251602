//! Typed counters and fixed-bucket histograms, all process-global
//! relaxed atomics: recording is lock-free, allocation-free, and safe
//! from any thread (including pool workers mid-region).
//!
//! Counters and histograms are always live — unlike spans they cost one
//! atomic RMW per record, cheap against the millisecond-scale evaluations
//! they measure.
//!
//! Histograms use 64 power-of-two buckets (bucket *b* holds values whose
//! bit length is *b*), so a nanosecond-scaled observation spans the full
//! sub-microsecond..hours range with a fixed 512-byte footprint and
//! quantiles accurate to a factor of two — plenty for p50/p99 stage
//! reports.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A new zeroed counter (const, so counters can be statics).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// Number of histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The bucket index holding `value`: its bit length, clamped to the last
/// bucket. Bucket 0 holds only zero; bucket `b >= 1` holds
/// `2^(b-1) ..= 2^b - 1`.
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `b` (used as the quantile estimate).
pub fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 63 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

/// A fixed-bucket power-of-two histogram with a running sum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// A new empty histogram (const, so histograms can be statics).
    pub const fn new() -> Self {
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for (c, b) in counts.iter_mut().zip(&self.buckets) {
            *c = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Immutable copy of a histogram's state; supports deltas and quantiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts.
    pub counts: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The observations added since `earlier` (same histogram, earlier
    /// snapshot).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        HistogramSnapshot {
            counts,
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// The value below which a `q` fraction of observations fall (upper
    /// bound of the containing bucket, i.e. accurate to a factor of two).
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_upper_bound(b);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident => $label:literal;)*) => {
        $( $(#[$doc])* pub static $name: Counter = Counter::new(); )*
        /// Every registered counter with its report label.
        pub static COUNTERS: &[(&str, &Counter)] = &[ $(($label, &$name),)* ];
    };
}

macro_rules! histograms {
    ($($(#[$doc:meta])* $name:ident => $label:literal;)*) => {
        $( $(#[$doc])* pub static $name: Histogram = Histogram::new(); )*
        /// Every registered histogram with its report label.
        pub static HISTOGRAMS: &[(&str, &Histogram)] = &[ $(($label, &$name),)* ];
    };
}

counters! {
    /// Candidates generated across all searches in this process.
    CANDIDATES_GENERATED => "search.candidates_generated";
    /// Generated candidates whose physical circuit fits the device
    /// topology (device-aware candidates are routed by construction).
    CANDIDATES_ROUTED => "search.candidates_routed";
    /// Generated candidates violating device coupling (device-unaware
    /// generation without a routing pass).
    CANDIDATES_UNROUTED => "search.candidates_unrouted";
    /// Candidates that survived CNR early rejection.
    CNR_ACCEPTED => "search.cnr_accepted";
    /// Candidates rejected by the CNR threshold / keep-fraction filter.
    CNR_REJECTED => "search.cnr_rejected";
    /// Candidates quarantined at any stage (panic, non-finite value, or
    /// budget exhaustion).
    CANDIDATES_QUARANTINED => "search.candidates_quarantined";
    /// CNR predictor evaluations.
    CNR_EVALS => "cnr.evals";
    /// RepCap predictor evaluations.
    REPCAP_EVALS => "repcap.evals";
    /// Training attempts restarted after a non-finite loss/gradient.
    TRAIN_RETRIES => "train.retries";
    /// Training epochs completed.
    TRAIN_EPOCHS => "train.epochs";
    /// Candidates dispatched through fused cross-candidate training
    /// batches (one count per still-alive cohort member per dispatch).
    TRAIN_BATCHED_CANDIDATES => "train.batched_candidates";
    /// Cohort members pruned by successive-halving early termination.
    TRAIN_PRUNED => "train.pruned";
    /// Checkpoint journal saves.
    CHECKPOINT_SAVES => "checkpoint.saves";
    /// Bytes written across all checkpoint saves (payload + CRC footer).
    CHECKPOINT_BYTES => "checkpoint.bytes";
    /// Parallel regions dispatched through the work-stealing pool
    /// (sequential fallbacks excluded).
    POOL_DISPATCHES => "pool.dispatches";
    /// Successful work steals between pool participants.
    POOL_STEALS => "pool.steals";
    /// Nanoseconds submitters spent blocked waiting for region drain
    /// (idle time not covered by own work or steals).
    POOL_SUBMITTER_WAIT_NS => "pool.submitter_wait_ns";
    /// Batches executed by the gate-fusion engine.
    ENGINE_BATCHES => "engine.batches";
    /// Samples executed across all engine batches.
    ENGINE_SAMPLES => "engine.samples";
    /// Fused static ops executed by the engine (one per op per state
    /// application, after compile/bind/per-sample fusion).
    ENGINE_FUSED_OPS => "engine.fused_ops";
    /// Cache tiles processed by blocked sweeps (one per tile per
    /// tile-local op run; zero for states no larger than one tile).
    ENGINE_TILES => "engine.tiles";
    /// Candidate evaluations performed by baseline searches
    /// (QuantumSupernet, QuantumNAS).
    BASELINE_EVALS => "baselines.evals";
    /// Noisy Clifford trajectories propagated by the bit-parallel
    /// Pauli-frame engine (one per frame lane, across all blocks).
    FRAME_TRAJECTORIES => "frame.trajectories";
    /// Non-identity Pauli errors injected into frame lanes (each sampled
    /// X/Y/Z hit at a noise site counts once).
    FRAME_INJECTIONS => "frame.injections";
    /// NSGA-II generations observed (population merges + survivals).
    NSGA2_GENERATIONS => "nsga2.generations";
    /// NSGA-II offspring produced by crossover/mutation.
    NSGA2_OFFSPRING => "nsga2.offspring";
    /// Search jobs admitted by the serve daemon's admission control.
    SERVE_JOBS_ADMITTED => "serve.jobs_admitted";
    /// Search jobs rejected at admission (queue full, invalid spec,
    /// duplicate id) with a typed reason.
    SERVE_JOBS_REJECTED => "serve.jobs_rejected";
    /// Job retries scheduled after a panic-quarantined slice (each
    /// attempt beyond the first counts once).
    SERVE_RETRIES => "serve.retries";
    /// Queued jobs load-shed under overload to admit higher-priority work.
    SERVE_SHED => "serve.shed";
    /// Evaluation slices executed by the serve scheduler.
    SERVE_SLICES => "serve.slices";
    /// Jobs that ran to completion under the serve daemon.
    SERVE_JOBS_DONE => "serve.jobs_done";
    /// Jobs that terminated with a typed failure (deadline, budget,
    /// search error).
    SERVE_JOBS_FAILED => "serve.jobs_failed";
    /// Jobs escalated to the dead-letter state after exhausting retries.
    SERVE_DEAD_LETTER => "serve.dead_letter";
    /// Result-cache lookups (memory + disk tiers count as one lookup).
    CACHE_LOOKUPS => "cache.lookups";
    /// Result-cache lookups answered from either tier.
    CACHE_HITS => "cache.hits";
    /// Result-cache lookups that fell through to recomputation.
    CACHE_MISSES => "cache.misses";
    /// Results stored into the cache after a recomputation.
    CACHE_STORES => "cache.stores";
    /// In-memory cache entries evicted by the LRU capacity bound.
    CACHE_EVICTIONS => "cache.evictions";
    /// On-disk cache entries rejected (torn, bit-flipped, stale engine
    /// salt, or misfiled) and deleted; each one degrades to a recompute.
    CACHE_CORRUPT_DISCARDED => "cache.corrupt_discarded";
}

histograms! {
    /// Per-candidate generation latency (ns).
    GENERATE_NS => "generate";
    /// Per-candidate CNR evaluation latency (ns).
    CNR_EVAL_NS => "cnr_eval";
    /// Per-candidate RepCap evaluation latency (ns).
    REPCAP_EVAL_NS => "repcap_eval";
    /// RepCap scores in micro-units (`score * 1e6`, clamped at 0) — the
    /// predictor's value distribution, not a latency.
    REPCAP_SCORE_MICROS => "repcap_score_micros";
    /// Per-epoch training latency (ns).
    TRAIN_EPOCH_NS => "train_epoch";
    /// Fused cross-candidate minibatch dispatch latency (ns): one
    /// multi-program pass over every alive cohort member's chunk.
    TRAIN_BATCH_NS => "train_batch";
    /// Checkpoint save latency (ns), serialization through fsync+rename.
    CHECKPOINT_SAVE_NS => "checkpoint_save";
    /// Engine batch execution latency (ns).
    ENGINE_BATCH_NS => "engine_batch";
    /// Gate-fusion pass latency (ns): one compile/bind fusion or one
    /// per-sample dynamic re-fusion through the recycled scratch.
    FUSION_NS => "fusion";
    /// Per-block latency of the Pauli-frame engine (ns): one block of up
    /// to 256 lanes propagated through the compiled step stream.
    FRAME_BLOCK_NS => "frame_block";
    /// Per-round search-strategy latency (ns): one propose + evaluate
    /// cycle of the engine/strategy loop.
    STRATEGY_ROUND_NS => "strategy_round";
    /// End-to-end job latency (ns) under the serve daemon: admission to
    /// terminal state, across however many slices and retries it took.
    JOB_LATENCY_NS => "job_latency";
    /// Result-cache lookup latency (ns), both tiers plus validation.
    CACHE_LOOKUP_NS => "cache_lookup";
}

/// A started wall-clock measurement; [`Stopwatch::record`] files the
/// elapsed nanoseconds into a histogram.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start_ns: u64,
}

impl Stopwatch {
    /// Starts measuring.
    #[inline]
    pub fn start() -> Self {
        Stopwatch {
            start_ns: crate::now_ns(),
        }
    }

    /// Nanoseconds since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        crate::now_ns().saturating_sub(self.start_ns)
    }

    /// Records the elapsed time into `histogram`.
    #[inline]
    pub fn record(self, histogram: &Histogram) {
        histogram.observe(self.elapsed_ns());
    }
}

/// Point-in-time copy of every registered counter and histogram. Deltas
/// between snapshots isolate one run's activity from the process-global
/// totals.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// `(label, value)` per registered counter, in registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(label, snapshot)` per registered histogram, in registration
    /// order.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The activity added since `earlier`.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|&(name, v)| {
                    let before = earlier
                        .counters
                        .iter()
                        .find(|&&(n, _)| n == name)
                        .map_or(0, |&(_, b)| b);
                    (name, v.saturating_sub(before))
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| {
                    let delta = match earlier.histograms.iter().find(|(n, _)| n == name) {
                        Some((_, before)) => h.since(before),
                        None => *h,
                    };
                    (*name, delta)
                })
                .collect(),
        }
    }

    /// The value of the counter labeled `name` (0 if unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Snapshots every registered counter and histogram.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: COUNTERS.iter().map(|&(n, c)| (n, c.get())).collect(),
        histograms: HISTOGRAMS.iter().map(|&(n, h)| (n, h.snapshot())).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_covers_the_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for v in [0u64, 1, 7, 8, 1023, 1024, 1 << 40] {
            let b = bucket_index(v);
            assert!(v <= bucket_upper_bound(b), "v = {v}");
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1), "v = {v}");
            }
        }
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 1_000_000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 1_001_106);
        assert!(s.quantile(0.5) >= 3);
        assert!(s.quantile(1.0) >= 1_000_000);
        assert_eq!(HistogramSnapshot { counts: [0; HISTOGRAM_BUCKETS], sum: 0 }.quantile(0.99), 0);
    }

    #[test]
    fn snapshot_deltas_isolate_activity() {
        let before = snapshot();
        ENGINE_BATCHES.add(3);
        ENGINE_BATCH_NS.observe(500);
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("engine.batches"), 3);
        let (_, h) = delta
            .histograms
            .iter()
            .find(|(n, _)| *n == "engine_batch")
            .expect("registered");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum, 500);
    }

    #[test]
    fn stopwatch_records_elapsed_time() {
        let h = Histogram::new();
        let sw = Stopwatch::start();
        std::hint::black_box((0..1000).sum::<u64>());
        sw.record(&h);
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
    }
}
