//! The competing methods the paper evaluates Elivagar against
//! (Section 7.4), plus the complementary frameworks of Fig. 11.
//!
//! * [`simple`] — the Random (RXYZ + CZ) and Human-designed (three fixed
//!   embeddings x `BasicEntanglerLayers`) baselines;
//! * [`supercircuit`] + [`training`] — the weight-shared SuperCircuit
//!   machinery both SuperCircuit-based methods build on;
//! * [`quantumnas`] — SuperCircuit training + evolutionary circuit-mapping
//!   co-search (the state-of-the-art comparator);
//! * [`supernet`] — QuantumSupernet's random search over CRY blocks;
//! * [`quantumnat`] — noise-aware training (noise injection +
//!   normalization), combinable with any searched circuit (Fig. 11a);
//! * [`qtnvqc`] — trainable tensor-train classical preprocessing
//!   (Fig. 11b).

pub mod qtnvqc;
pub mod quantumnas;
pub mod quantumnat;
pub mod simple;
pub mod supercircuit;
pub mod supernet;
pub mod training;

pub use qtnvqc::{
    qtn_vqc_accuracy, qtn_vqc_noisy_accuracy, train_qtn_vqc, QtnVqcConfig, QtnVqcModel,
    TensorTrainLayer,
};
pub use quantumnas::{fidelity_proxy, quantum_nas_search, QuantumNasConfig, QuantumNasResult};
pub use quantumnat::{
    quantumnat_noisy_accuracy, train_quantumnat, QuantumNatConfig, QuantumNatModel,
};
pub use simple::{human_baseline_circuits, random_baseline_circuit};
pub use supercircuit::{Entangler, SubcircuitConfig, SuperCircuit, ROTATIONS};
pub use supernet::{supernet_search, SupernetConfig, SupernetResult};
pub use training::{
    subcircuit_validation_loss, train_supercircuit, SuperTrainConfig, SuperTrainOutcome,
};
