//! The paper's claims, checked at the figure binaries' smoke scale and
//! seeds, so a change that breaks one fails here instead of only moving
//! a number in EXPERIMENTS.md.
//!
//! Each test asserts the shape of a claim, not the paper's value. Margins
//! wait for paper-power runs (many seeds per number); until then a
//! claim's sign is what is pinned.

use elivagar_bench::{cnr_vs_fidelity, pearson, repcap_vs_supercircuit, Scale};
use elivagar_device::devices::{ibm_guadalupe, ibmq_kolkata, rigetti_aspen_m2};

/// Fig. 5c/d: CNR correlates positively with true circuit fidelity on
/// every device (paper: R = 0.963 / 0.924 / 0.935). The smoke-scale
/// `fig5_cnr_fidelity` series give 0.713 / 0.849 / 0.573.
#[test]
fn fig5_cnr_correlates_positively_with_fidelity_on_every_device() {
    let rs: Vec<(String, f64)> = [ibm_guadalupe(), ibmq_kolkata(), rigetti_aspen_m2()]
        .iter()
        .map(|device| {
            let (cnrs, fidelities) = cnr_vs_fidelity(device, Scale::smoke());
            (device.name().to_string(), pearson(&cnrs, &fidelities))
        })
        .collect();
    assert!(rs.iter().all(|(_, r)| *r > 0.0), "Pearson R(CNR, fidelity) per device: {rs:?}");
}

/// Fig. 6b: RepCap, untrained, predicts trained loss more strongly than a
/// trained SuperCircuit does (paper: R = -0.716 against +0.708). The
/// smoke-scale `fig6_repcap_predictor` series give R = -0.392 for RepCap
/// and -0.002 for the SuperCircuit. It trains a SuperCircuit and 48
/// circuits, minutes at debug speed, so tier-1 skips it and
/// `scripts/verify.sh` runs it in a release build.
#[test]
#[ignore = "release-only: scripts/verify.sh runs it"]
fn fig6b_repcap_beats_supercircuit() {
    let series = repcap_vs_supercircuit(Scale::smoke());
    let r_super = pearson(&series.supercircuit_loss, &series.trained_loss);
    let r_repcap = pearson(&series.repcap, &series.trained_loss);
    assert!(
        r_repcap.abs() > r_super.abs(),
        "|R(RepCap, loss)| = {:.3} must exceed |R(SuperCircuit, loss)| = {:.3}",
        r_repcap.abs(),
        r_super.abs()
    );
}
