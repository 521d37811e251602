//! Benchmark harness for the Elivagar reproduction.
//!
//! One binary per paper table/figure regenerates the corresponding rows or
//! series (see `DESIGN.md` for the index); this library holds the shared
//! drivers ([`harness`]), correlation statistics ([`stats`]), and the
//! gate binaries' wall-time measurement ([`timing`]) and bound checks
//! ([`gate`]).
//!
//! Scale is controlled by `ELIVAGAR_SCALE` (`smoke` default, `full` for
//! paper-sized runs); any other value is an error.

pub mod gate;
pub mod harness;
pub mod stats;
pub mod timing;

pub use gate::Bound;
pub use harness::{
    candidate_fidelity, cnr_vs_fidelity, compact_circuit, evaluate_physical, load_benchmark,
    print_table, run_elivagar, run_elivagar_ablation, run_human_baseline, run_quantumnas,
    run_random_baseline, run_supernet, search_config_for, MethodOutcome, Scale,
};
pub use stats::{geometric_mean, mean, pearson, spearman};
pub use timing::{median, time_ns, time_reps};
