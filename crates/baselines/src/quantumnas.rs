//! QuantumNAS (Wang et al., HPCA 2022): SuperCircuit training followed by
//! an evolutionary circuit-mapping co-search.
//!
//! The co-search jointly evolves a subcircuit configuration and a
//! logical-to-physical qubit mapping, scoring genomes by the trained
//! SuperCircuit's validation loss plus a noise penalty from the mapped
//! circuit's estimated fidelity. This is the state-of-the-art comparator
//! the paper benchmarks against throughout Section 8.

use crate::supercircuit::{Entangler, SubcircuitConfig, SuperCircuit};
use crate::training::{
    subcircuit_validation_loss, train_supercircuit, validation_split, SuperTrainConfig,
};
use elivagar_cache::CacheHandle;
use elivagar_circuit::Circuit;
use elivagar_compiler::route;
use elivagar_datasets::Dataset;
use elivagar_device::Device;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Evolutionary co-search hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantumNasConfig {
    /// SuperCircuit blocks.
    pub num_blocks: usize,
    /// Population size.
    pub population: usize,
    /// Generations.
    pub generations: usize,
    /// Weight of the noise penalty against validation loss.
    pub noise_weight: f64,
    /// Validation samples used to score genomes.
    pub valid_samples: usize,
    /// SuperCircuit training schedule.
    pub train: SuperTrainConfig,
    /// RNG seed for the evolutionary phase.
    pub seed: u64,
}

impl Default for QuantumNasConfig {
    fn default() -> Self {
        QuantumNasConfig {
            num_blocks: 6,
            population: 16,
            generations: 8,
            noise_weight: 1.0,
            valid_samples: 64,
            train: SuperTrainConfig::default(),
            seed: 0,
        }
    }
}

/// One genome of the co-search.
#[derive(Clone, Debug, PartialEq)]
struct Genome {
    config: SubcircuitConfig,
    /// `mapping[logical] = physical`.
    mapping: Vec<usize>,
}

/// Search outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantumNasResult {
    /// The selected circuit in logical indices, with contiguous trainable
    /// parameters and SuperCircuit-inherited initial values.
    pub circuit: Circuit,
    /// Inherited parameter values (useful as a warm start; the paper
    /// retrains final circuits from scratch).
    pub inherited_params: Vec<f64>,
    /// The co-searched logical-to-physical mapping.
    pub mapping: Vec<usize>,
    /// The routed physical circuit on the target device.
    pub physical_circuit: Circuit,
    /// SWAPs the final routing still needed (0 when the co-search found a
    /// topology-compatible mapping).
    pub swaps_inserted: usize,
    /// Hardware-equivalent executions: SuperCircuit training + candidate
    /// evaluations.
    pub executions: u64,
}

/// Estimated fidelity of a physical circuit: the product of per-gate and
/// per-readout success probabilities (a standard ESP-style proxy).
pub fn fidelity_proxy(device: &Device, physical: &Circuit) -> f64 {
    let cal = device.calibration();
    let topo = device.topology();
    let mut fid = 1.0f64;
    for ins in physical.instructions() {
        if ins.qubits.len() == 1 {
            fid *= 1.0 - cal.gate1q_error[ins.qubits[0]];
        } else {
            match topo.edge_index(ins.qubits[0], ins.qubits[1]) {
                Some(e) => fid *= 1.0 - cal.gate2q_error[e],
                // Uncoupled gate: would need a SWAP (3 CX) at execution.
                None => fid *= (1.0 - cal.median_gate2q_error()).powi(4),
            }
        }
    }
    for &q in physical.measured() {
        fid *= 1.0 - cal.readout_error[q];
    }
    fid
}

/// Draws an initial mapping onto a random *connected* device region.
/// Scattered mappings would both score terribly (every gate uncoupled) and
/// blow up the routed circuit; QuantumNAS's own search space is likewise
/// seeded with contiguous layouts.
fn random_mapping<R: Rng + ?Sized>(device: &Device, n_logical: usize, rng: &mut R) -> Vec<usize> {
    elivagar_device::sample_connected_subgraph(device, n_logical, rng)
}

fn mutate<R: Rng + ?Sized>(
    genome: &Genome,
    space: &SuperCircuit,
    device: &Device,
    rng: &mut R,
) -> Genome {
    let mut g = genome.clone();
    match rng.random_range(0..4u32) {
        0 => {
            // Toggle a block (keep at least one active).
            let b = rng.random_range(0..g.config.active.len());
            g.config.active[b] = !g.config.active[b];
            if !g.config.active.iter().any(|&a| a) {
                g.config.active[b] = true;
            }
        }
        1 => {
            // Re-roll one rotation choice.
            let b = rng.random_range(0..g.config.gate_choice.len());
            let q = rng.random_range(0..g.config.gate_choice[b].len());
            g.config.gate_choice[b][q] = rng.random_range(0..crate::supercircuit::ROTATIONS.len());
        }
        2 => {
            // Swap two mapping slots.
            if g.mapping.len() >= 2 {
                let a = rng.random_range(0..g.mapping.len());
                let b = rng.random_range(0..g.mapping.len());
                g.mapping.swap(a, b);
            }
        }
        _ => {
            // Move one logical qubit to an unused *neighbor* of the mapped
            // region, keeping the layout local.
            let slot = rng.random_range(0..g.mapping.len());
            let anchor = g.mapping[rng.random_range(0..g.mapping.len())];
            let neighbors = device.topology().neighbors(anchor);
            if !neighbors.is_empty() {
                let candidate = neighbors[rng.random_range(0..neighbors.len())];
                if !g.mapping.contains(&candidate) {
                    g.mapping[slot] = candidate;
                }
            }
        }
    }
    let _ = space;
    g
}

/// Runs the full QuantumNAS pipeline: SuperCircuit training, then the
/// evolutionary circuit-mapping co-search.
///
/// With a `cache`, genome loss evaluation is memoized. Only the
/// SuperCircuit validation loss is cached — the noise penalty depends on
/// the genome's mapping and is cheap to recompute — so elitism (which
/// re-scores surviving genomes every generation) and repeated runs replay
/// losses bit-for-bit. A cached run returns exactly what `None` returns.
///
/// # Panics
///
/// Panics if the dataset is empty or the device is smaller than the
/// requested qubit count.
pub fn quantum_nas_search(
    device: &Device,
    dataset: &Dataset,
    num_qubits: usize,
    config: &QuantumNasConfig,
    cache: Option<&CacheHandle>,
) -> QuantumNasResult {
    assert!(num_qubits <= device.num_qubits(), "device too small");
    let num_classes = dataset.num_classes();
    let num_measured = if num_classes == 2 { 1 } else { num_classes.min(num_qubits) };
    let space = SuperCircuit::new(
        num_qubits,
        config.num_blocks,
        Entangler::Cz,
        dataset.feature_dim(),
        num_measured,
    );

    // Phase 1: train the SuperCircuit.
    let trained = train_supercircuit(&space, dataset.train(), num_classes, &config.train);
    let mut executions = trained.hardware_executions;

    // Validation subset for genome scoring.
    let valid = validation_split(dataset, config.valid_samples);

    // Phase 2: evolutionary co-search.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut population: Vec<Genome> = (0..config.population)
        .map(|_| Genome {
            config: space.sample_config(&mut rng),
            mapping: random_mapping(device, num_qubits, &mut rng),
        })
        .collect();

    let mut best: Option<(Genome, f64)> = None;
    for _ in 0..config.generations {
        // Genome scoring is RNG-free, so the whole population fans out
        // over the pool; the ordered results keep every downstream
        // decision (sort, elitism, tournaments) bit-identical to the
        // serial loop.
        let _gen_span = elivagar_obs::span!("quantumnas_generation", genomes = population.len());
        elivagar_obs::metrics::BASELINE_EVALS.add(population.len() as u64);
        let fitnesses = elivagar_sim::parallel::par_map(&population, |genome| {
            let (loss, e) = subcircuit_validation_loss(
                &space,
                &genome.config,
                &trained.shared,
                &valid,
                num_classes,
                cache,
            );
            let physical = space
                .subcircuit(&genome.config)
                .remap(&genome.mapping, device.num_qubits());
            let fid = fidelity_proxy(device, &physical);
            (loss + config.noise_weight * (1.0 - fid), e)
        });
        let mut scored: Vec<(Genome, f64)> = population
            .iter()
            .zip(&fitnesses)
            .map(|(g, &(f, e))| {
                executions += e;
                (g.clone(), f)
            })
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fitness"));
        if best.as_ref().is_none_or(|(_, bf)| scored[0].1 < *bf) {
            best = Some(scored[0].clone());
        }
        // Elitism + tournament mutation.
        let elite = (config.population / 4).max(1);
        let mut next: Vec<Genome> = scored.iter().take(elite).map(|(g, _)| g.clone()).collect();
        while next.len() < config.population {
            let a = rng.random_range(0..scored.len());
            let b = rng.random_range(0..scored.len());
            let parent = if scored[a].1 < scored[b].1 { &scored[a].0 } else { &scored[b].0 };
            next.push(mutate(parent, &space, device, &mut rng));
        }
        population = next;
    }
    let (winner, _) = best.expect("at least one generation ran");

    // Extract, then route onto the device from the co-searched mapping.
    let (circuit, inherited_params) = space.extract(&winner.config, &trained.shared);
    let routed = route(&circuit, device.topology(), &winner.mapping, &mut rng);

    QuantumNasResult {
        circuit,
        inherited_params,
        mapping: winner.mapping,
        physical_circuit: routed.circuit,
        swaps_inserted: routed.swaps_inserted,
        executions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_datasets::moons;
    use elivagar_device::devices::ibm_lagos;

    fn fast_config() -> QuantumNasConfig {
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
    fn pipeline_produces_executable_circuit() {
        let device = ibm_lagos();
        let data = moons(48, 20, 7).normalized(std::f64::consts::PI);
        let result = quantum_nas_search(&device, &data, 3, &fast_config(), None);
        // Physical circuit respects topology.
        for ins in result.physical_circuit.instructions() {
            if ins.qubits.len() == 2 {
                assert!(device.topology().are_coupled(ins.qubits[0], ins.qubits[1]));
            }
        }
        assert_eq!(
            result.circuit.num_trainable_params(),
            result.inherited_params.len()
        );
        assert!(result.executions > 0);
    }

    #[test]
    fn fidelity_proxy_decreases_with_gate_count() {
        let device = ibm_lagos();
        let mut short = Circuit::new(2);
        short.push_gate(elivagar_circuit::Gate::Cx, &[0, 1], &[]);
        short.set_measured(vec![0]);
        let mut long = short.clone();
        for _ in 0..10 {
            long.push_gate(elivagar_circuit::Gate::Cx, &[0, 1], &[]);
        }
        assert!(fidelity_proxy(&device, &short) > fidelity_proxy(&device, &long));
    }

    #[test]
    fn uncoupled_gates_are_penalized() {
        let device = ibm_lagos();
        let mut coupled = Circuit::new(7);
        coupled.push_gate(elivagar_circuit::Gate::Cx, &[0, 1], &[]);
        let mut uncoupled = Circuit::new(7);
        uncoupled.push_gate(elivagar_circuit::Gate::Cx, &[0, 6], &[]);
        assert!(fidelity_proxy(&device, &coupled) > fidelity_proxy(&device, &uncoupled));
    }

    #[test]
    fn search_is_deterministic() {
        let device = ibm_lagos();
        let data = moons(32, 12, 9).normalized(std::f64::consts::PI);
        let a = quantum_nas_search(&device, &data, 2, &fast_config(), None);
        let b = quantum_nas_search(&device, &data, 2, &fast_config(), None);
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.mapping, b.mapping);
    }
}
