//! Fig. 5c/d: correlation between Clifford Noise Resilience and true
//! circuit fidelity on IBMQ-Guadalupe, IBMQ-Kolkata, and the Rigetti
//! Aspen-M-2 noise model.
//!
//! The paper reports R = 0.963 (Guadalupe), 0.924 (Kolkata), 0.935
//! (Aspen-M-2); the reproduction should show the same strongly positive
//! correlation.

use elivagar_bench::{cnr_vs_fidelity, pearson, print_table, Scale};
use elivagar_device::devices::{ibm_guadalupe, ibmq_kolkata, rigetti_aspen_m2};

fn main() {
    let scale = Scale::from_env();
    let devices = [ibm_guadalupe(), ibmq_kolkata(), rigetti_aspen_m2()];

    let mut rows = Vec::new();
    for device in &devices {
        let (cnrs, fidelities) = cnr_vs_fidelity(device, scale);
        let r = pearson(&cnrs, &fidelities);
        println!("\n# {} — CNR vs fidelity over {} circuits", device.name(), cnrs.len());
        for (c, f) in cnrs.iter().zip(&fidelities) {
            println!("cnr={c:.4} fidelity={f:.4}");
        }
        rows.push(vec![device.name().to_string(), format!("{r:.3}")]);
    }

    print_table(
        "Fig. 5c/d: Pearson R of CNR vs circuit fidelity (paper: 0.963 / 0.924 / 0.935)",
        &["device", "pearson R"],
        &rows,
    );
}
