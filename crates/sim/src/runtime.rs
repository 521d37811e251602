//! Persistent work-stealing execution runtime.
//!
//! Every parallel region in the workspace — batched circuit execution,
//! per-sample gradients, CNR replicas, RepCap batches, candidate fan-out,
//! Monte-Carlo trajectories — dispatches through one lazily-initialized
//! global thread pool instead of spawning and joining OS threads per call.
//! That removes the dominant dispatch cost of the old `std::thread::scope`
//! helpers: a pooled dispatch is a mutex push plus a condvar wake, not
//! `N` `clone(2)` syscalls and joins.
//!
//! # Architecture
//!
//! * **One pool per process.** Built on first use; worker threads are
//!   daemons that live for the process lifetime. The pool size is
//!   `ELIVAGAR_THREADS` when set (a positive integer, where 1 means fully
//!   sequential execution on the calling thread with no pool traffic; any
//!   other value panics), otherwise [`std::thread::available_parallelism`].
//! * **Chunked per-worker deques with stealing.** A parallel region over
//!   `n` index-addressed tasks splits `0..n` into one contiguous range
//!   per participant (each worker plus the submitting thread). Each
//!   participant pops chunks from the *front* of its own range; when a
//!   range runs dry its owner steals half of a victim's remaining range
//!   from the *back*. Ranges are packed `(start, end)` pairs in a single
//!   `AtomicU64`, so pops and steals are lock-free CAS loops.
//! * **Submitter participation.** The thread that opens a parallel
//!   region executes tasks like any worker, then sleeps on the job's
//!   condvar only once every task has been claimed. Nested regions are
//!   therefore deadlock-free: a blocked submitter never holds claimed
//!   work, and whoever holds the remaining tasks makes progress.
//! * **Determinism.** The runtime assigns *which thread* runs a task but
//!   never *what* it computes or where the result lands: tasks write to
//!   index-addressed slots and callers reduce in index order, so results
//!   are bit-for-bit identical at every thread count. Randomized tasks
//!   split seeds *before* dispatch via [`TaskSeeds`].
//!
//! Panics inside tasks are caught, forwarded to the submitting thread,
//! and re-raised there after the region drains.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Environment variable overriding the pool size (total execution
/// threads, including the submitting thread): a positive integer. Any
/// other value panics when the pool starts; [`threads_from_env`] checks
/// it without starting the pool.
pub const THREADS_ENV: &str = "ELIVAGAR_THREADS";

// ---- packed work ranges ----------------------------------------------------

/// A contiguous run of task indices `start..end` packed into one atomic
/// word (`start` in the high 32 bits). This is the "deque" of one
/// participant: the owner claims chunks from the front, thieves claim
/// half of the remainder from the back.
struct WorkRange(AtomicU64);

const fn pack(start: u32, end: u32) -> u64 {
    ((start as u64) << 32) | end as u64
}

const fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

impl WorkRange {
    fn new(start: usize, end: usize) -> Self {
        WorkRange(AtomicU64::new(pack(start as u32, end as u32)))
    }

    /// Owner-side claim: takes a chunk from the front of the range.
    /// Chunks shrink geometrically (a quarter of the remainder, at least
    /// one task) so early claims amortize CAS traffic while the tail
    /// stays finely divisible for thieves.
    fn pop_front(&self) -> Option<(usize, usize)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            let take = (e - s).div_ceil(4);
            let next = pack(s + take, e);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some((s as usize, (s + take) as usize)),
                Err(v) => cur = v,
            }
        }
    }

    /// Thief-side claim: takes the back half of the remaining range.
    fn steal_back(&self) -> Option<(usize, usize)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            let take = ((e - s) / 2).max(1);
            let next = pack(s, e - take);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(((e - take) as usize, e as usize)),
                Err(v) => cur = v,
            }
        }
    }

    fn is_empty(&self) -> bool {
        let (s, e) = unpack(self.0.load(Ordering::Acquire));
        s >= e
    }
}

// ---- jobs ------------------------------------------------------------------

/// Mutable completion state of a job, guarded by `Job::state`.
struct JobState {
    /// Tasks fully executed (or abandoned to a panic).
    finished: usize,
    /// First panic payload raised by a task, re-thrown by the submitter.
    panic: Option<Box<dyn Any + Send>>,
}

/// One parallel region. Holds a type-erased pointer to the submitting
/// thread's closure; the submitter blocks until `finished == total`
/// before returning, which keeps the borrow alive for as long as any
/// worker can possibly dereference it (claims are impossible once every
/// range is empty, and empty ranges precede completion).
struct Job {
    run: unsafe fn(*const (), usize, usize),
    ctx: *const (),
    ranges: Box<[WorkRange]>,
    total: usize,
    state: Mutex<JobState>,
    done: Condvar,
}

// SAFETY: `ctx` is only dereferenced by `run` on indices claimed from
// `ranges`, and the submitter keeps the referent alive until all claims
// are finished (see `Job` docs). All other fields are Sync.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Runs one claimed chunk, catching panics so a poisoned task cannot
    /// take down a pool worker, then credits the chunk as finished.
    fn run_chunk(&self, start: usize, end: usize) {
        // SAFETY: per the Job contract, ctx is alive while chunks are
        // claimable and (start, end) was claimed exactly once.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe {
            (self.run)(self.ctx, start, end)
        }));
        let mut st = self.state.lock().expect("runtime state poisoned");
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        st.finished += end - start;
        if st.finished == self.total {
            self.done.notify_all();
        }
    }

    /// Claims and executes chunks until the job has nothing left to
    /// claim: first the participant's own range, then steals.
    ///
    /// A job over few tasks has fewer ranges than the pool has workers,
    /// so a participant's pool-wide id is folded onto the job's ranges —
    /// late-coming workers start as thieves on somebody's range rather
    /// than indexing past the end.
    fn participate(&self, my_index: usize) {
        let my_index = my_index % self.ranges.len();
        loop {
            if let Some((a, b)) = self.ranges[my_index].pop_front() {
                self.run_chunk(a, b);
                continue;
            }
            let n = self.ranges.len();
            let stolen = (1..n)
                .map(|k| &self.ranges[(my_index + k) % n])
                .find_map(WorkRange::steal_back);
            match stolen {
                Some((a, b)) => {
                    elivagar_obs::metrics::POOL_STEALS.add(1);
                    self.run_chunk(a, b);
                }
                None => return,
            }
        }
    }

    fn has_claimable_work(&self) -> bool {
        self.ranges.iter().any(|r| !r.is_empty())
    }
}

// ---- the pool --------------------------------------------------------------

struct Shared {
    /// Active jobs with claimable work, newest last. Workers drain the
    /// newest first (LIFO keeps nested regions hot in cache).
    jobs: Mutex<Vec<Arc<Job>>>,
    work_signal: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Worker thread count (the submitting thread is participant
    /// `workers`, so total parallelism is `workers + 1`).
    workers: usize,
}

/// The pool size `ELIVAGAR_THREADS` asks for: `None` when unset, a
/// positive integer (surrounding whitespace ignored) when set.
fn parse_threads(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(v) = value else {
        return Ok(None);
    };
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!("{THREADS_ENV}={v:?} is not a thread count; use a positive integer")),
    }
}

/// The pool size `ELIVAGAR_THREADS` asks for, read without starting the
/// pool: its positive integer, or [`std::thread::available_parallelism`]
/// when it is unset. A front end that keeps durable state calls this
/// before creating any, because a pool that fails to start inside a
/// caught slice would fail every job instead of stopping the process.
///
/// # Errors
///
/// Names the variable and its value when it is set to anything but a
/// positive integer.
pub fn threads_from_env() -> Result<usize, String> {
    let value = std::env::var_os(THREADS_ENV).map(|v| v.to_string_lossy().into_owned());
    Ok(parse_threads(value.as_deref())?.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }))
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        // A mistyped `ELIVAGAR_THREADS` must never run at another size.
        let workers = threads_from_env().unwrap_or_else(|e| panic!("{e}")) - 1;
        let shared = Arc::new(Shared {
            jobs: Mutex::new(Vec::new()),
            work_signal: Condvar::new(),
        });
        for id in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("elivagar-worker-{id}"))
                .spawn(move || worker_loop(&shared, id))
                .expect("failed to spawn pool worker");
        }
        Pool { shared, workers }
    })
}

fn worker_loop(shared: &Shared, worker_id: usize) {
    loop {
        let job = {
            let mut jobs = shared.jobs.lock().expect("runtime job list poisoned");
            loop {
                jobs.retain(|j| j.has_claimable_work());
                match jobs.last() {
                    Some(j) => break Arc::clone(j),
                    None => {
                        jobs = shared
                            .work_signal
                            .wait(jobs)
                            .expect("runtime job list poisoned");
                    }
                }
            }
        };
        job.participate(worker_id);
    }
}

/// Number of execution threads the runtime uses for parallel regions
/// (including the submitting thread). Initializes the pool on first call.
///
/// # Panics
///
/// On the first call, if [`threads_from_env`] rejects `ELIVAGAR_THREADS`.
pub fn num_threads() -> usize {
    pool().workers + 1
}

/// Runs `f(i)` for every `i in 0..n` across the pool, returning once all
/// tasks finished. Tasks may run on any thread in any order; callers that
/// need determinism must make each task independent (index-addressed
/// outputs, pre-split seeds).
///
/// With a pool size of 1 (or `n <= 1`) this degenerates to a plain
/// sequential loop on the calling thread with no synchronization at all.
///
/// # Panics
///
/// Re-raises the first panic raised by any task, after the region drains.
pub fn par_index<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if n == 0 {
        return;
    }
    let pool = pool();
    if pool.workers == 0 || n == 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }

    unsafe fn run_range<F: Fn(usize) + Sync>(ctx: *const (), start: usize, end: usize) {
        // SAFETY: ctx points at the `f` borrowed below, alive until the
        // submitter observes completion.
        let f = unsafe { &*ctx.cast::<F>() };
        for i in start..end {
            f(i);
        }
    }

    let participants = (pool.workers + 1).min(n);
    let chunk = n.div_ceil(participants);
    let ranges: Box<[WorkRange]> = (0..participants)
        .map(|p| WorkRange::new((p * chunk).min(n), ((p + 1) * chunk).min(n)))
        .collect();
    let submitter_slot = participants - 1;
    let job = Arc::new(Job {
        run: run_range::<F>,
        ctx: (&raw const f).cast(),
        ranges,
        total: n,
        state: Mutex::new(JobState {
            finished: 0,
            panic: None,
        }),
        done: Condvar::new(),
    });

    elivagar_obs::metrics::POOL_DISPATCHES.add(1);
    {
        let mut jobs = pool.shared.jobs.lock().expect("runtime job list poisoned");
        jobs.push(Arc::clone(&job));
        pool.shared.work_signal.notify_all();
    }

    // The submitter works its own slot (the last range) and steals like
    // any worker before blocking.
    job.participate(submitter_slot);

    let panic_payload = {
        let mut st = job.state.lock().expect("runtime state poisoned");
        if st.finished < job.total {
            // Idle time: the submitter ran out of claimable work while
            // workers still hold chunks.
            let wait = elivagar_obs::metrics::Stopwatch::start();
            while st.finished < job.total {
                st = job.done.wait(st).expect("runtime state poisoned");
            }
            elivagar_obs::metrics::POOL_SUBMITTER_WAIT_NS.add(wait.elapsed_ns());
        }
        st.panic.take()
    };
    // Drop our entry from the active list (workers usually already
    // retained it away once the ranges drained).
    pool.shared
        .jobs
        .lock()
        .expect("runtime job list poisoned")
        .retain(|j| !Arc::ptr_eq(j, &job));
    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }
}

// ---- panic payload capture -------------------------------------------------

/// Renders a captured panic payload as text. Panics raised with `panic!`
/// carry a `&str` or `String`; anything else (a `panic_any` value) is
/// reported as opaque. Used by the isolated fan-out helpers to turn a
/// poisoned task into a quarantine reason instead of a crash.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---- deterministic seed splitting ------------------------------------------

/// Splits one RNG draw into independent, deterministic per-task streams.
///
/// Parallel randomized workloads (Monte-Carlo trajectories, CNR
/// replicas) cannot share the submitting thread's generator across tasks
/// without making results depend on execution interleaving. Instead they
/// draw *one* `u64` from the caller's generator and derive a statistically
/// independent seed per task index with a SplitMix64 mix, so the result
/// is a pure function of `(caller RNG state, task index)` — identical at
/// every thread count.
#[derive(Clone, Copy, Debug)]
pub struct TaskSeeds {
    base: u64,
}

impl TaskSeeds {
    /// Derives a seed base by drawing one value from `rng`.
    pub fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        TaskSeeds { base: rng.next_u64() }
    }

    /// Builds task seeds from an explicit base.
    pub fn from_base(base: u64) -> Self {
        TaskSeeds { base }
    }

    /// The seed of task `index` (SplitMix64 finalizer over base + index).
    pub fn seed(&self, index: usize) -> u64 {
        let mut z = self
            .base
            .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A generator seeded for task `index`.
    pub fn rng(&self, index: usize) -> StdRng {
        StdRng::seed_from_u64(self.seed(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn thread_count_is_unset_or_a_positive_integer() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads(Some(" 4 ")), Ok(Some(4)));
        for bad in ["0", "", "tow", "2.5", "-1"] {
            let err = parse_threads(Some(bad)).expect_err(bad);
            assert!(err.contains(THREADS_ENV) && err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn par_index_visits_every_index_once() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            par_index(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n = {n}"
            );
        }
    }

    #[test]
    fn nested_regions_complete() {
        let total = AtomicUsize::new(0);
        par_index(8, |_| {
            par_index(8, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn task_panic_propagates_to_submitter() {
        let result = std::panic::catch_unwind(|| {
            par_index(16, |i| {
                assert!(i != 11, "task 11 exploded");
            });
        });
        assert!(result.is_err());
        // The pool must stay usable afterwards.
        let count = AtomicUsize::new(0);
        par_index(16, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn participant_ids_beyond_job_ranges_fold_safely() {
        // A job over few tasks allocates fewer ranges than the pool has
        // workers; a late-coming worker's pool-wide id must fold onto the
        // job's ranges instead of indexing past the end (regression: this
        // panicked a pool worker whenever `ELIVAGAR_THREADS` exceeded a
        // small job's participant count).
        fn job_over<F: Fn(usize) + Sync>(f: &F) -> Job {
            unsafe fn run_range<F: Fn(usize) + Sync>(ctx: *const (), start: usize, end: usize) {
                let f = unsafe { &*ctx.cast::<F>() };
                for i in start..end {
                    f(i);
                }
            }
            Job {
                run: run_range::<F>,
                ctx: (&raw const *f).cast(),
                ranges: [WorkRange::new(0, 2), WorkRange::new(2, 4)].into(),
                total: 4,
                state: Mutex::new(JobState { finished: 0, panic: None }),
                done: Condvar::new(),
            }
        }
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let f = |i: usize| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        };
        job_over(&f).participate(5);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn work_range_pop_and_steal_partition() {
        let r = WorkRange::new(0, 100);
        let mut seen = [false; 100];
        loop {
            let claim = r.pop_front().or_else(|| r.steal_back());
            let Some((a, b)) = claim else { break };
            for slot in &mut seen[a..b] {
                assert!(!*slot, "double claim");
                *slot = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn task_seeds_are_deterministic_and_distinct() {
        let s = TaskSeeds::from_base(42);
        assert_eq!(s.seed(3), TaskSeeds::from_base(42).seed(3));
        let seeds: Vec<u64> = (0..100).map(|i| s.seed(i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }
}
