//! Per-thread workspace arenas for the hot execution paths.
//!
//! Search and training workloads execute the same small circuits millions
//! of times; at that rate the allocator — not arithmetic — dominates the
//! per-sample cost. This module keeps a thread-local pool of amplitude
//! buffers (`Vec<C64>`), real scratch buffers (`Vec<f64>`) and gate-matrix
//! records that the engine, the adjoint differentiator, and the trajectory
//! sampler recycle between samples. A buffer released back to the pool
//! keeps its capacity, so after a short warmup the steady-state per-sample
//! execute/gradient path performs **zero** heap allocations (asserted by
//! `crates/sim/tests/zero_alloc.rs`).
//!
//! The pools are thread-local: no locks, and a buffer acquired on a pool
//! worker stays on that worker — exactly the cache-affinity the
//! work-stealing runtime's chunked deques already encourage.

use crate::stabilizer::Tableau;
use crate::statevector::StateVector;
use elivagar_circuit::math::{Mat2, Mat4, C64};
use std::cell::RefCell;

/// Maximum buffers kept per thread per pool; excess releases are dropped
/// so a burst of deep nesting cannot pin memory forever.
const MAX_POOLED: usize = 16;

thread_local! {
    static AMP_BUFFERS: RefCell<Vec<Vec<C64>>> = const { RefCell::new(Vec::new()) };
    static REAL_BUFFERS: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
    static WORD_BUFFERS: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
    static TABLEAUS: RefCell<Vec<Tableau>> = const { RefCell::new(Vec::new()) };
    static RECORDS: RefCell<Vec<MatrixRecord>> = const { RefCell::new(Vec::new()) };
}

/// The gate matrices one streamed-adjoint forward sweep built for its
/// feature-reading ops, in op order, kept for the backward sweep of the
/// same sample so it does not rebuild them.
#[derive(Default)]
pub(crate) struct MatrixRecord {
    pub(crate) one: Vec<Mat2>,
    pub(crate) two: Vec<Mat4>,
}

/// Takes an empty matrix record from this thread's pool (with its previous
/// capacity), or a fresh one.
pub(crate) fn acquire_record() -> MatrixRecord {
    RECORDS.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Returns a matrix record to this thread's pool.
pub(crate) fn release_record(mut record: MatrixRecord) {
    record.one.clear();
    record.two.clear();
    RECORDS.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(record);
        }
    });
}

/// Takes an amplitude buffer from this thread's pool (empty but with
/// whatever capacity its previous life left it), or a fresh one.
pub fn acquire_amp_buffer() -> Vec<C64> {
    AMP_BUFFERS.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Returns an amplitude buffer to this thread's pool.
pub fn release_amp_buffer(mut buf: Vec<C64>) {
    buf.clear();
    AMP_BUFFERS.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    });
}

/// Takes a real scratch buffer from this thread's pool, or a fresh one.
pub fn acquire_real_buffer() -> Vec<f64> {
    REAL_BUFFERS.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Returns a real scratch buffer to this thread's pool.
pub fn release_real_buffer(mut buf: Vec<f64>) {
    buf.clear();
    REAL_BUFFERS.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    });
}

/// Takes a `u64` word buffer from this thread's pool (empty but with its
/// previous capacity), or a fresh one. The Pauli-frame engine uses these
/// for its bit-packed x/z trajectory words.
pub fn acquire_word_buffer() -> Vec<u64> {
    WORD_BUFFERS.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Returns a word buffer to this thread's pool.
pub fn release_word_buffer(mut buf: Vec<u64>) {
    buf.clear();
    WORD_BUFFERS.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    });
}

/// A `|0...0>` tableau over `n` qubits backed by recycled row storage.
/// Bit-identical to [`Tableau::new`]; after warmup at a stable qubit count
/// the reset is allocation-free.
pub fn acquire_tableau(n: usize) -> Tableau {
    match TABLEAUS.with(|p| p.borrow_mut().pop()) {
        Some(mut t) => {
            t.reset(n);
            t
        }
        None => Tableau::new(n),
    }
}

/// Returns a tableau's storage to this thread's pool.
pub fn release_tableau(t: Tableau) {
    TABLEAUS.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(t);
        }
    });
}

/// A `|0...0>` state backed by a recycled buffer.
///
/// # Panics
///
/// Panics under the same conditions as [`StateVector::zero`].
pub fn acquire_zero(num_qubits: usize) -> StateVector {
    StateVector::zero_in(num_qubits, acquire_amp_buffer())
}

/// An amplitude-embedded state backed by a recycled buffer. Bit-identical
/// to [`StateVector::amplitude_embedded`].
///
/// # Panics
///
/// Panics under the same conditions as
/// [`StateVector::amplitude_embedded`].
pub fn acquire_embedded(num_qubits: usize, features: &[f64]) -> StateVector {
    StateVector::amplitude_embedded_in(num_qubits, features, acquire_amp_buffer())
}

/// A copy of `psi` backed by a recycled buffer.
pub fn acquire_copy(psi: &StateVector) -> StateVector {
    let mut out = StateVector::zero_in(psi.num_qubits(), acquire_amp_buffer());
    out.copy_from(psi);
    out
}

/// Returns a state's buffer to this thread's pool.
pub fn release_state(psi: StateVector) {
    release_amp_buffer(psi.into_buffer());
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_circuit::math::C64;

    #[test]
    fn recycled_states_match_fresh_constructors() {
        let a = acquire_zero(3);
        assert_eq!(a, StateVector::zero(3));
        release_state(a);
        let b = acquire_embedded(2, &[0.6, 0.8]);
        assert_eq!(b, StateVector::amplitude_embedded(2, &[0.6, 0.8]));
        let c = acquire_copy(&b);
        assert_eq!(b, c);
        release_state(b);
        release_state(c);
    }

    #[test]
    fn released_buffers_keep_their_capacity() {
        let psi = acquire_zero(6);
        release_state(psi);
        let buf = acquire_amp_buffer();
        assert!(buf.capacity() >= 1 << 6, "capacity {}", buf.capacity());
        release_amp_buffer(buf);
    }

    #[test]
    fn recycled_tableaus_match_fresh_ones() {
        let mut t = acquire_tableau(3);
        t.apply(crate::stabilizer::CliffordOp::H(0));
        release_tableau(t);
        // The recycled tableau must come back reset, even at another size.
        let t = acquire_tableau(2);
        assert_eq!(t, Tableau::new(2));
        release_tableau(t);
        let buf = acquire_word_buffer();
        assert!(buf.is_empty());
        release_word_buffer(buf);
    }

    #[test]
    fn pool_size_is_bounded() {
        for _ in 0..4 * MAX_POOLED {
            release_amp_buffer(vec![C64::ZERO; 8]);
            release_real_buffer(vec![0.0; 8]);
        }
        let held: usize = AMP_BUFFERS.with(|p| p.borrow().len());
        assert!(held <= MAX_POOLED);
    }
}
