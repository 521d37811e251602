//! Property and golden tests for [`elivagar_cache::CacheKey`]
//! canonicalization.
//!
//! The cache is only sound if keys partition the input space exactly
//! along "guaranteed bit-identical result" lines, so this suite checks
//! both directions on random inputs:
//!
//! * **Must collide**: circuits that differ only by an injective
//!   relabeling of trainable parameter slots share a canonical key
//!   (CNR keys use the canonical digest; the value is relabel-invariant).
//! * **Must not collide**: any single perturbation — a gate swapped, a
//!   qubit operand moved, a topology edge added, one calibration value
//!   nudged by one ULP, the seed bumped — produces a different key, for
//!   both the raw and canonical digests.
//!
//! The golden test pins exact key bytes for fixed inputs: it fails when
//! the digest algorithm, component framing, or [`ENGINE_SALT`] drifts,
//! which is precisely the moment old persistent caches must be
//! invalidated (bump the salt, re-pin the goldens).

use elivagar_cache::{KeyBuilder, ENGINE_SALT};
use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_device::{Calibration, CalibrationSpec, Device, Topology};
use proptest::prelude::*;

/// A random parametric circuit paired with the trainable slot labels it
/// uses, so tests can relabel them injectively.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    let gates = prop::collection::vec((0u8..8, 0usize..4, 0usize..4, -3.2f64..3.2), 1..16);
    (2usize..5, gates).prop_map(|(n, ops)| build_circuit(n, &ops, 3))
}

/// Builds a circuit whose k-th trainable parameter uses slot
/// `slot_stride * k` — a stride of 1 gives dense first-use numbering,
/// larger strides give sparse (but still injective) labelings.
fn build_circuit(n: usize, ops: &[(u8, usize, usize, f64)], slot_stride: usize) -> Circuit {
    let mut c = Circuit::new(n);
    let mut next_param = 0;
    for &(kind, qa, qb, angle) in ops {
        let (qa, qb) = (qa % n, qb % n);
        match kind {
            0 => c.push_gate(Gate::H, &[qa], &[]),
            1 => {
                c.push_gate(Gate::Rx, &[qa], &[ParamExpr::trainable(next_param * slot_stride)]);
                next_param += 1;
            }
            2 => {
                c.push_gate(Gate::Ry, &[qa], &[ParamExpr::trainable(next_param * slot_stride)]);
                next_param += 1;
            }
            3 => c.push_gate(Gate::Rz, &[qa], &[ParamExpr::constant(angle)]),
            4 => c.push_gate(Gate::Rx, &[qa], &[ParamExpr::feature(qb)]),
            5 if qa != qb => c.push_gate(Gate::Cx, &[qa, qb], &[]),
            6 if qa != qb => c.push_gate(Gate::Cz, &[qa, qb], &[]),
            7 if qa != qb => {
                c.push_gate(Gate::Rzz, &[qa, qb], &[ParamExpr::trainable(next_param * slot_stride)]);
                next_param += 1;
            }
            _ => {}
        }
    }
    c.set_measured((0..n).collect());
    c
}

/// A small synthetic device whose calibration is deterministic in `seed`.
fn test_device(edges: &[(usize, usize)], cal_seed: u64) -> Device {
    let topo = Topology::new(4, edges);
    let spec = CalibrationSpec {
        readout_error: 2e-2,
        gate1q_error: 3e-4,
        gate2q_error: 8e-3,
        t1_us: 120.0,
        t2_us: 90.0,
        gate1q_time_us: 0.035,
        gate2q_time_us: 0.30,
        readout_time_us: 0.7,
    };
    let cal = Calibration::synthesize(&topo, &spec, cal_seed);
    Device::new("proptest-device", topo, cal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structurally equal circuits always collide after parameter-slot
    /// normalization, no matter how the trainable slots were labeled.
    #[test]
    fn canonical_keys_collapse_injective_relabelings(
        n in 2usize..5,
        ops in prop::collection::vec((0u8..8, 0usize..4, 0usize..4, -3.2f64..3.2), 1..16),
        stride_a in 1usize..7,
        stride_b in 1usize..7,
    ) {
        let a = build_circuit(n, &ops, stride_a);
        let b = build_circuit(n, &ops, stride_b);
        let ka = KeyBuilder::new("cnr").circuit_canonical(&a).finish();
        let kb = KeyBuilder::new("cnr").circuit_canonical(&b).finish();
        prop_assert_eq!(ka, kb, "relabelings {} vs {} must collide", stride_a, stride_b);
        // And the raw digest must distinguish them whenever the labels
        // actually differ (RepCap keys depend on raw slot indices).
        if stride_a != stride_b && a != b {
            let ra = KeyBuilder::new("repcap").circuit(&a).finish();
            let rb = KeyBuilder::new("repcap").circuit(&b).finish();
            prop_assert_ne!(ra, rb, "raw digest must keep distinct labelings apart");
        }
    }

    /// Appending any single gate changes both digests.
    #[test]
    fn gate_perturbation_never_collides(circuit in arb_circuit(), q in 0usize..4) {
        let mut perturbed = circuit.clone();
        perturbed.push_gate(Gate::H, &[q % circuit.num_qubits()], &[]);
        prop_assert_ne!(
            KeyBuilder::new("cnr").circuit_canonical(&circuit).finish(),
            KeyBuilder::new("cnr").circuit_canonical(&perturbed).finish()
        );
        prop_assert_ne!(
            KeyBuilder::new("repcap").circuit(&circuit).finish(),
            KeyBuilder::new("repcap").circuit(&perturbed).finish()
        );
    }

    /// Bumping the derived seed changes the key: two candidates at
    /// different pool indices never share an entry even with identical
    /// circuits.
    #[test]
    fn seed_perturbation_never_collides(circuit in arb_circuit(), seed in 0u64..1_000_000) {
        let a = KeyBuilder::new("cnr").circuit_canonical(&circuit).u64(seed).finish();
        let b = KeyBuilder::new("cnr").circuit_canonical(&circuit).u64(seed ^ 1).finish();
        prop_assert_ne!(a, b);
    }

    /// Changing the topology edge set or any calibration column (here via
    /// the synthesis seed, which perturbs every error rate) changes the
    /// device digest.
    #[test]
    fn device_perturbation_never_collides(circuit in arb_circuit(), cal_seed in 0u64..1000) {
        let line = test_device(&[(0, 1), (1, 2), (2, 3)], cal_seed);
        let ring = test_device(&[(0, 1), (1, 2), (2, 3), (3, 0)], cal_seed);
        let recal = test_device(&[(0, 1), (1, 2), (2, 3)], cal_seed + 1);
        let key = |d: &Device| {
            KeyBuilder::new("cnr").circuit_canonical(&circuit).device(d).finish()
        };
        prop_assert_ne!(key(&line), key(&ring), "edge change must miss");
        prop_assert_ne!(key(&line), key(&recal), "calibration change must miss");
    }
}

/// A one-ULP nudge in a single calibration cell must change the key —
/// calibration is hashed by exact bit pattern, not display precision.
#[test]
fn single_ulp_calibration_perturbation_never_collides() {
    let device = test_device(&[(0, 1), (1, 2), (2, 3)], 9);
    let mut nudged_cal = device.calibration().clone();
    nudged_cal.gate2q_error[1] = f64::from_bits(nudged_cal.gate2q_error[1].to_bits() + 1);
    let nudged = Device::new(device.name(), device.topology().clone(), nudged_cal);
    let circuit = build_circuit(3, &[(1, 0, 1, 0.5), (5, 0, 1, 0.0)], 1);
    assert_ne!(
        KeyBuilder::new("cnr").circuit_canonical(&circuit).device(&device).finish(),
        KeyBuilder::new("cnr").circuit_canonical(&circuit).device(&nudged).finish(),
    );
}

/// Golden key bytes for fixed inputs. These pin the digest algorithm,
/// the component framing, AND the [`ENGINE_SALT`]: if any of them
/// changes, this test fails, which is the signal that every persistent
/// cache in the field is invalidated and the salt must be (or was)
/// bumped. Re-pin the hex strings only together with a salt bump.
#[test]
fn golden_keys_pin_digest_and_salt() {
    assert_eq!(
        ENGINE_SALT, 0x454C_4956_4147_0002,
        "ENGINE_SALT changed: bump goldens below alongside it"
    );

    let kind_only = KeyBuilder::new("cnr").finish();
    let with_seed = KeyBuilder::new("cnr").u64(42).finish();
    let circuit = {
        let mut c = Circuit::new(2);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.set_measured(vec![0, 1]);
        c
    };
    let with_circuit = KeyBuilder::new("repcap").circuit(&circuit).finish();

    let goldens = [kind_only.hex(), with_seed.hex(), with_circuit.hex()];
    let expected = [
        "6024b739d07c0de366476cb4c2727d655edb1721346fe1caf6397fc641ee99ea",
        "b3a95603b0382580cefa007b847fce646529742bb01df909e28efde329d49b4f",
        "1d815ab3aa4e48fab6ad29bc743224a2919d5162bcaf1598c9f41adaca775f16",
    ];
    assert_eq!(
        goldens, expected,
        "cache key digest drifted: any such change MUST be accompanied by an \
         ENGINE_SALT bump (old on-disk entries are stale) and new goldens"
    );
}
