//! Fig. 6b: RepCap predicts trained circuit performance on FMNIST-2 as
//! well as a trained SuperCircuit does, without any training.
//!
//! The paper reports R = 0.708 for the SuperCircuit-predicted loss and
//! R = -0.716 for RepCap against trained loss (RepCap is negatively
//! correlated with loss: higher capacity, lower loss). The experiment is
//! `elivagar_bench::repcap_vs_supercircuit`, which
//! `crates/bench/tests/claims.rs` also checks.

use elivagar_bench::{pearson, print_table, repcap_vs_supercircuit, Scale};

fn main() {
    let series = repcap_vs_supercircuit(Scale::from_env());
    let r_super = pearson(&series.supercircuit_loss, &series.trained_loss);
    let r_repcap = pearson(&series.repcap, &series.trained_loss);
    print_table(
        "Fig. 6b: predictor correlation with trained loss on FMNIST-2 (paper: +0.708 / -0.716)",
        &["predictor", "pearson R"],
        &[
            vec!["supercircuit loss".into(), format!("{r_super:.3}")],
            vec!["repcap".into(), format!("{r_repcap:.3}")],
        ],
    );
}
