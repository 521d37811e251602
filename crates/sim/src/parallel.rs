//! Order-preserving data-parallel helpers, built on the persistent
//! work-stealing pool in [`crate::runtime`].
//!
//! Every helper here dispatches through the shared global pool — no OS
//! threads are spawned per call, which makes parallelism profitable even
//! for small batches (a pooled dispatch is a mutex push and a condvar
//! wake). Results are index-addressed, so output order — and therefore
//! every downstream reduction — is bit-for-bit identical to sequential
//! execution at any thread count.

use crate::runtime;

/// A raw pointer that workers may share. Soundness is the caller's
/// responsibility: every use below writes disjoint index-addressed slots.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessing the pointer through a method (rather than the `.0` field)
    /// makes edition-2021 closures capture the `Sync` wrapper itself
    /// instead of precise-capturing the raw-pointer field, which is not.
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

/// Maps `f` over `0..n` across the pool, preserving index order.
///
/// Each result is written directly into its output slot, so there is no
/// post-hoc reordering and no `Option` wrapping. If a task panics the
/// panic propagates to the caller after the region drains; results
/// already produced are leaked (not dropped), which is safe but loses the
/// buffers — acceptable for a tearing-down computation.
pub fn par_map_index<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let mut out: Vec<U> = Vec::with_capacity(n);
    par_map_index_into(n, &mut out, f);
    out
}

/// [`par_map_index`] writing into a caller-recycled output vector: `out`
/// is cleared and refilled with the `n` results in index order. Once the
/// vector's capacity has grown to `n`, repeated calls perform no heap
/// allocation for the output — the steady-state variant for hot loops
/// like the cohort training dispatch.
pub fn par_map_index_into<U, F>(n: usize, out: &mut Vec<U>, f: F)
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    out.clear();
    out.reserve(n);
    let slots = SendPtr(out.as_mut_ptr());
    runtime::par_index(n, move |i| {
        // SAFETY: slot `i` is inside the capacity-n allocation and each
        // index is claimed exactly once by the runtime.
        unsafe { slots.get().add(i).write(f(i)) };
    });
    // SAFETY: par_index returned normally, so all n slots were written.
    unsafe { out.set_len(n) };
}

/// A captured panic from one isolated task: which index exploded and the
/// rendered panic payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the task that panicked.
    pub index: usize,
    /// The panic payload, rendered via [`runtime::panic_message`].
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Maps `f` over `items` across the pool with **per-task panic
/// isolation**: a panicking task yields `Err(TaskPanic)` in its own slot
/// instead of aborting the whole region. Every other task still runs to
/// completion, so one poisoned item can be quarantined while the rest of
/// the batch is used.
///
/// Order-preserving and deterministic like [`par_map`]; the panic payload
/// is captured as a string so callers can attach it to a report.
pub fn par_map_isolated<T, U, F>(items: &[T], f: F) -> Vec<Result<U, TaskPanic>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_index(items.len(), |i| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&items[i]))).map_err(
            |payload| TaskPanic {
                index: i,
                message: runtime::panic_message(&*payload),
            },
        )
    })
}

/// Maps `f` over `items` across the pool, preserving order.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_index(items.len(), |i| f(&items[i]))
}

/// Splits `data` into contiguous blocks of `block` elements and applies
/// `f` to each, spreading blocks across the pool.
///
/// The caller guarantees that applying `f` to each block independently is
/// equivalent to applying it sequentially — true for gate application when
/// `block` is a multiple of the gate's full butterfly span.
///
/// # Panics
///
/// Panics if `block` is zero or does not divide `data.len()`. This is a
/// hard assertion in release builds too: a mis-sized block would hand
/// workers overlapping amplitude ranges and silently corrupt the state.
pub fn par_apply_blocks<T, F>(data: &mut [T], block: usize, f: F)
where
    T: Send,
    F: Fn(&mut [T]) + Sync,
{
    assert!(
        block > 0 && data.len().is_multiple_of(block),
        "block size {block} does not divide data length {}",
        data.len()
    );
    let num_blocks = data.len() / block;
    if num_blocks < 2 {
        for chunk in data.chunks_mut(block) {
            f(chunk);
        }
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    runtime::par_index(num_blocks, move |i| {
        // SAFETY: blocks are disjoint (`i * block .. (i+1) * block` within
        // `data`), each claimed exactly once by the runtime, and `data` is
        // mutably borrowed for the whole region.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(i * block), block) };
        f(chunk);
    });
}

/// [`par_apply_blocks`] with the block index passed to `f` — for callers
/// whose blocks are per-task output slots (e.g. the frame engine's
/// per-block partial histograms) rather than homogeneous amplitude ranges.
///
/// # Panics
///
/// Panics under the same conditions as [`par_apply_blocks`].
pub fn par_apply_blocks_indexed<T, F>(data: &mut [T], block: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        block > 0 && data.len().is_multiple_of(block),
        "block size {block} does not divide data length {}",
        data.len()
    );
    let num_blocks = data.len() / block;
    if num_blocks < 2 {
        for (i, chunk) in data.chunks_mut(block).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    runtime::par_index(num_blocks, move |i| {
        // SAFETY: blocks are disjoint (`i * block .. (i+1) * block` within
        // `data`), each claimed exactly once by the runtime, and `data` is
        // mutably borrowed for the whole region.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(i * block), block) };
        f(i, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn pooled_and_sequential_maps_agree() {
        let items: Vec<u64> = (0..257).collect();
        let pooled = par_map(&items, |&x| x * x + 1);
        let sequential: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        assert_eq!(pooled, sequential);
    }

    #[test]
    fn par_map_index_matches_sequential() {
        let n = 321;
        let parallel = par_map_index(n, |i| i as f64 * 0.5 - 3.0);
        let sequential: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 3.0).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn apply_blocks_touches_every_block_once() {
        for num_blocks in [1usize, 2, 3, 16, 33] {
            let block = 4;
            let mut data = vec![0u32; num_blocks * block];
            par_apply_blocks(&mut data, block, |chunk| {
                for x in chunk {
                    *x += 1;
                }
            });
            assert!(data.iter().all(|&x| x == 1), "num_blocks {num_blocks}");
        }
    }

    #[test]
    fn indexed_blocks_see_their_own_index() {
        for num_blocks in [1usize, 2, 5, 17] {
            let block = 3;
            let mut data = vec![0usize; num_blocks * block];
            par_apply_blocks_indexed(&mut data, block, |i, chunk| {
                for x in chunk {
                    *x = i + 1;
                }
            });
            for (j, &x) in data.iter().enumerate() {
                assert_eq!(x, j / block + 1, "num_blocks {num_blocks}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn mis_sized_blocks_are_rejected() {
        let mut data = vec![0u32; 10];
        par_apply_blocks(&mut data, 4, |_| {});
    }

    #[test]
    fn isolated_map_quarantines_only_the_poisoned_task() {
        let items: Vec<u64> = (0..100).collect();
        let results = par_map_isolated(&items, |&x| {
            assert!(x != 13 && x != 77, "poisoned item {x}");
            x * 2
        });
        assert_eq!(results.len(), 100);
        for (i, r) in results.iter().enumerate() {
            if i == 13 || i == 77 {
                let err = r.as_ref().expect_err("poisoned slot");
                assert_eq!(err.index, i);
                assert!(err.message.contains("poisoned item"), "{}", err.message);
            } else {
                assert_eq!(*r.as_ref().expect("healthy slot"), 2 * i as u64);
            }
        }
    }

    #[test]
    fn isolated_map_with_no_failures_matches_par_map() {
        let items: Vec<u64> = (0..64).collect();
        let isolated: Vec<u64> = par_map_isolated(&items, |&x| x + 1)
            .into_iter()
            .map(|r| r.expect("no panics"))
            .collect();
        assert_eq!(isolated, par_map(&items, |&x| x + 1));
    }
}
