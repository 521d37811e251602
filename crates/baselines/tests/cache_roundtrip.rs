//! Cold/warm bit-identity for cached baseline scoring.
//!
//! Routing QuantumNAS / QuantumSupernet candidate evaluation through the
//! result cache must be *substitutable*: a search over a warm cache (all
//! losses replayed from entries) must produce results bit-identical to a
//! cacheless run, and the cached scoring primitive itself must replay the
//! exact `f64` bits and execution counts it stored.

use elivagar_baselines::{
    quantum_nas_search, subcircuit_validation_loss, supernet_search, Entangler,
    QuantumNasConfig, SuperCircuit, SuperTrainConfig, SupernetConfig,
};
use elivagar_cache::Cache;
use elivagar_datasets::moons;
use elivagar_device::devices::ibm_lagos;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fast_supernet() -> SupernetConfig {
    SupernetConfig {
        num_blocks: 3,
        num_samples: 6,
        valid_samples: 12,
        train: SuperTrainConfig { epochs: 2, batch_size: 16, ..Default::default() },
        seed: 1,
    }
}

fn fast_quantumnas() -> QuantumNasConfig {
    QuantumNasConfig {
        num_blocks: 3,
        population: 6,
        generations: 3,
        valid_samples: 16,
        train: SuperTrainConfig { epochs: 2, batch_size: 16, ..Default::default() },
        ..Default::default()
    }
}

#[test]
fn cached_scoring_primitive_replays_losses_bit_for_bit() {
    let data = moons(40, 16, 3).normalized(std::f64::consts::PI);
    let space = SuperCircuit::new(3, 3, Entangler::Cz, data.feature_dim(), 1);
    let shared = vec![0.2; space.total_params()];
    let cache = Cache::memory_only(64);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..4 {
        let sub = space.sample_config(&mut rng);
        let reference = subcircuit_validation_loss(&space, &sub, &shared, data.test(), 2, None);
        let cold =
            subcircuit_validation_loss(&space, &sub, &shared, data.test(), 2, Some(&cache));
        let warm =
            subcircuit_validation_loss(&space, &sub, &shared, data.test(), 2, Some(&cache));
        assert_eq!(reference.0.to_bits(), cold.0.to_bits(), "cold miss must compute");
        assert_eq!(cold.0.to_bits(), warm.0.to_bits(), "warm hit must replay bits");
        assert_eq!(cold.1, warm.1, "execution accounting must replay");
    }
}

#[test]
fn supernet_search_is_bit_identical_cold_and_warm() {
    let data = moons(32, 12, 9).normalized(std::f64::consts::PI);
    let config = fast_supernet();
    let reference = supernet_search(&data, 2, &config, None);
    let cache = Cache::memory_only(256);
    let cold = supernet_search(&data, 2, &config, Some(&cache));
    let warm = supernet_search(&data, 2, &config, Some(&cache));
    assert_eq!(reference, cold, "cold cached run must match cacheless run");
    assert_eq!(cold, warm, "warm run must replay the cold run exactly");
    assert_eq!(
        reference.estimated_loss.to_bits(),
        warm.estimated_loss.to_bits(),
        "selected loss must be bit-identical"
    );
}

#[test]
fn quantum_nas_search_is_bit_identical_cold_and_warm() {
    let device = ibm_lagos();
    let data = moons(32, 12, 9).normalized(std::f64::consts::PI);
    let config = fast_quantumnas();
    let reference = quantum_nas_search(&device, &data, 2, &config, None);
    let cache = Cache::memory_only(256);
    let cold = quantum_nas_search(&device, &data, 2, &config, Some(&cache));
    let warm = quantum_nas_search(&device, &data, 2, &config, Some(&cache));
    assert_eq!(reference, cold, "cold cached run must match cacheless run");
    assert_eq!(cold, warm, "warm run must replay the cold run exactly");
}
