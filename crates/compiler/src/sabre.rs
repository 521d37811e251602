//! SABRE swap routing (Li, Ding, Xie — ASPLOS 2019).
//!
//! Makes an arbitrary logical circuit executable on a device topology by
//! inserting SWAP gates. This is exactly the cost Elivagar avoids by
//! generating circuits directly on device subgraphs; the paper's Table 5
//! compares Elivagar-generated circuits against device-unaware circuits
//! routed with SABRE, which this module reproduces.

use elivagar_circuit::{Circuit, Gate, Instruction};
use elivagar_device::Topology;
use rand::Rng;

/// Result of routing: the physical circuit plus the logical-to-physical
/// mappings before and after execution.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutedCircuit {
    /// The executable circuit over the device's physical qubits; every
    /// two-qubit gate acts on a coupled pair.
    pub circuit: Circuit,
    /// `initial_mapping[logical] = physical` at circuit start.
    pub initial_mapping: Vec<usize>,
    /// Mapping at the end of the circuit (measurements use this one).
    pub final_mapping: Vec<usize>,
    /// Number of SWAP gates inserted.
    pub swaps_inserted: usize,
}

/// Weight of the extended (lookahead) set in the SABRE heuristic.
const LOOKAHEAD_WEIGHT: f64 = 0.5;
/// Size of the extended set.
const EXTENDED_SET_SIZE: usize = 20;

/// Routes `circuit` onto `topology` starting from `initial_mapping`,
/// inserting SWAPs so that every two-qubit gate acts on coupled qubits.
///
/// # Panics
///
/// Panics if the mapping length does not match the circuit, maps two
/// logical qubits to one physical qubit, or targets an out-of-range qubit;
/// also panics if the relevant physical qubits are disconnected (routing
/// cannot terminate).
pub fn route<R: Rng + ?Sized>(
    circuit: &Circuit,
    topology: &Topology,
    initial_mapping: &[usize],
    rng: &mut R,
) -> RoutedCircuit {
    let n_logical = circuit.num_qubits();
    assert_eq!(initial_mapping.len(), n_logical, "mapping length mismatch");
    let n_physical = topology.num_qubits();
    {
        let mut seen = vec![false; n_physical];
        for &p in initial_mapping {
            assert!(p < n_physical, "mapping target {p} out of range");
            assert!(!seen[p], "mapping target {p} duplicated");
            seen[p] = true;
        }
    }

    let dist = topology.distance_matrix();
    // DAG: per instruction, the number of unexecuted predecessors and the
    // successor list, derived from per-qubit program order.
    let instructions = circuit.instructions();
    let mut preds = vec![0usize; instructions.len()];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); instructions.len()];
    {
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; n_logical];
        for (i, ins) in instructions.iter().enumerate() {
            for &q in &ins.qubits {
                if let Some(p) = last_on_qubit[q] {
                    succs[p].push(i);
                    preds[i] += 1;
                }
                last_on_qubit[q] = Some(i);
            }
        }
    }

    let mut front: Vec<usize> = (0..instructions.len()).filter(|&i| preds[i] == 0).collect();
    // logical -> physical and its inverse.
    let mut l2p = initial_mapping.to_vec();
    let mut p2l: Vec<Option<usize>> = vec![None; n_physical];
    for (l, &p) in l2p.iter().enumerate() {
        p2l[p] = Some(l);
    }

    let mut out = Circuit::new(n_physical);
    out.set_amplitude_embedding(circuit.amplitude_embedding());
    let mut swaps_inserted = 0usize;
    let mut executed = vec![false; instructions.len()];
    let mut safety = 0usize;
    let safety_limit = 200 * (instructions.len() + 1) * (n_physical + 1);

    while !front.is_empty() {
        safety += 1;
        assert!(safety < safety_limit, "sabre routing failed to make progress");

        // Execute everything executable in the front layer.
        let mut progressed = false;
        let mut next_front = Vec::new();
        for &i in &front {
            let ins = &instructions[i];
            let executable = match ins.qubits.len() {
                1 => true,
                _ => topology.are_coupled(l2p[ins.qubits[0]], l2p[ins.qubits[1]]),
            };
            if executable {
                let phys: Vec<usize> = ins.qubits.iter().map(|&q| l2p[q]).collect();
                out.push(Instruction::new(ins.gate, phys, ins.params.clone()));
                executed[i] = true;
                progressed = true;
                for &s in &succs[i] {
                    preds[s] -= 1;
                    if preds[s] == 0 {
                        next_front.push(s);
                    }
                }
            } else {
                next_front.push(i);
            }
        }
        front = next_front;
        if progressed || front.is_empty() {
            continue;
        }

        // Stuck: all front gates are two-qubit gates on uncoupled pairs.
        // Score candidate SWAPs on edges touching any front-layer qubit.
        let extended = extended_set(&front, instructions, &succs, &preds, EXTENDED_SET_SIZE);
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for &i in &front {
            for &q in &instructions[i].qubits {
                let p = l2p[q];
                for &nb in topology.neighbors(p) {
                    let edge = (p.min(nb), p.max(nb));
                    if !candidates.contains(&edge) {
                        candidates.push(edge);
                    }
                }
            }
        }
        assert!(!candidates.is_empty(), "front-layer qubits have no couplers");

        let score = |l2p_try: &[usize]| -> f64 {
            let front_cost: usize = front
                .iter()
                .map(|&i| {
                    let q = &instructions[i].qubits;
                    dist[l2p_try[q[0]]][l2p_try[q[1]]]
                })
                .sum();
            let ext_cost: usize = extended
                .iter()
                .map(|&i| {
                    let q = &instructions[i].qubits;
                    dist[l2p_try[q[0]]][l2p_try[q[1]]]
                })
                .sum();
            front_cost as f64 + LOOKAHEAD_WEIGHT * ext_cost as f64 / extended.len().max(1) as f64
        };

        let mut best: Option<((usize, usize), f64)> = None;
        for &(pa, pb) in &candidates {
            let mut l2p_try = l2p.clone();
            if let Some(la) = p2l[pa] {
                l2p_try[la] = pb;
            }
            if let Some(lb) = p2l[pb] {
                l2p_try[lb] = pa;
            }
            let s = score(&l2p_try) + rng.random::<f64>() * 1e-6; // random tie-break
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some(((pa, pb), s));
            }
        }
        let ((pa, pb), _) = best.expect("candidate set non-empty");
        out.push(Instruction::new(Gate::Swap, vec![pa, pb], vec![]));
        swaps_inserted += 1;
        let (la, lb) = (p2l[pa], p2l[pb]);
        if let Some(la) = la {
            l2p[la] = pb;
        }
        if let Some(lb) = lb {
            l2p[lb] = pa;
        }
        p2l[pa] = lb;
        p2l[pb] = la;
    }

    out.set_measured(circuit.measured().iter().map(|&q| l2p[q]).collect());
    RoutedCircuit {
        circuit: out,
        initial_mapping: initial_mapping.to_vec(),
        final_mapping: l2p,
        swaps_inserted,
    }
}

/// Collects up to `limit` two-qubit successors of the front layer (the
/// SABRE extended set).
fn extended_set(
    front: &[usize],
    instructions: &[Instruction],
    succs: &[Vec<usize>],
    preds: &[usize],
    limit: usize,
) -> Vec<usize> {
    let mut out = Vec::new();
    let mut queue: Vec<usize> = front.to_vec();
    let mut head = 0;
    while head < queue.len() && out.len() < limit {
        let i = queue[head];
        head += 1;
        for &s in &succs[i] {
            if !queue.contains(&s) {
                queue.push(s);
                if instructions[s].qubits.len() == 2 && preds[s] <= 1 {
                    out.push(s);
                    if out.len() >= limit {
                        break;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_circuit::ParamExpr;
    use elivagar_sim::{tvd, StateVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Routing must preserve circuit semantics: the routed circuit's output
    /// distribution over (re-mapped) measured qubits must equal the
    /// original's.
    fn assert_equivalent(original: &Circuit, topology: &Topology, mapping: &[usize]) {
        let mut rng = StdRng::seed_from_u64(9);
        let routed = route(original, topology, mapping, &mut rng);
        for ins in routed.circuit.instructions() {
            if ins.qubits.len() == 2 {
                assert!(
                    topology.are_coupled(ins.qubits[0], ins.qubits[1]),
                    "routed gate on uncoupled pair {:?}",
                    ins.qubits
                );
            }
        }
        let params: Vec<f64> = (0..original.num_trainable_params())
            .map(|i| 0.3 + 0.2 * i as f64)
            .collect();
        let d_orig =
            StateVector::run(original, &params, &[]).marginal_probabilities(original.measured());
        let d_routed = StateVector::run(&routed.circuit, &params, &[])
            .marginal_probabilities(routed.circuit.measured());
        assert!(
            tvd(&d_orig, &d_routed) < 1e-9,
            "routing changed semantics: {d_orig:?} vs {d_routed:?}"
        );
    }

    fn all_to_all_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        let mut p = 0;
        for q in 0..n {
            c.push_gate(Gate::Ry, &[q], &[ParamExpr::trainable(p)]);
            p += 1;
        }
        for a in 0..n {
            for b in (a + 1)..n {
                c.push_gate(Gate::Cx, &[a, b], &[]);
            }
        }
        c.push_gate(Gate::Rz, &[0], &[ParamExpr::trainable(p)]);
        c.set_measured((0..n).collect());
        c
    }

    #[test]
    fn already_routed_circuit_needs_no_swaps() {
        let topo = Topology::line(3);
        let mut c = Circuit::new(3);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.push_gate(Gate::Cz, &[1, 2], &[]);
        c.set_measured(vec![0, 1, 2]);
        let mut rng = StdRng::seed_from_u64(0);
        let routed = route(&c, &topo, &[0, 1, 2], &mut rng);
        assert_eq!(routed.swaps_inserted, 0);
        assert_eq!(routed.circuit.len(), 2);
    }

    #[test]
    fn line_topology_distant_gate_gets_swapped() {
        let topo = Topology::line(4);
        let mut c = Circuit::new(4);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Cx, &[0, 3], &[]);
        c.set_measured(vec![0, 3]);
        let mut rng = StdRng::seed_from_u64(1);
        let routed = route(&c, &topo, &[0, 1, 2, 3], &mut rng);
        assert!(routed.swaps_inserted >= 2, "needs >= 2 swaps on a line");
        assert_equivalent(&c, &topo, &[0, 1, 2, 3]);
    }

    #[test]
    fn all_to_all_on_line_is_equivalent() {
        let topo = Topology::line(4);
        let c = all_to_all_circuit(4);
        assert_equivalent(&c, &topo, &[0, 1, 2, 3]);
    }

    #[test]
    fn all_to_all_on_ring_is_equivalent() {
        let topo = Topology::ring(5);
        let c = all_to_all_circuit(5);
        assert_equivalent(&c, &topo, &[4, 2, 0, 1, 3]);
    }

    #[test]
    fn routing_on_heavy_hex_fragment() {
        let topo = Topology::new(7, &[(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)]);
        let c = all_to_all_circuit(5);
        assert_equivalent(&c, &topo, &[0, 2, 4, 6, 1]);
    }

    #[test]
    fn nontrivial_initial_mapping_is_respected() {
        let topo = Topology::line(5);
        let mut c = Circuit::new(2);
        c.push_gate(Gate::X, &[0], &[]);
        c.set_measured(vec![0, 1]);
        let mut rng = StdRng::seed_from_u64(2);
        let routed = route(&c, &topo, &[3, 1], &mut rng);
        // X lands on physical qubit 3; measured = [3, 1].
        assert_eq!(routed.circuit.instructions()[0].qubits, vec![3]);
        assert_eq!(routed.circuit.measured(), &[3, 1]);
    }

    #[test]
    #[should_panic(expected = "duplicated")]
    fn duplicate_mapping_rejected() {
        let topo = Topology::line(3);
        let c = all_to_all_circuit(2);
        let mut rng = StdRng::seed_from_u64(3);
        route(&c, &topo, &[1, 1], &mut rng);
    }
}
