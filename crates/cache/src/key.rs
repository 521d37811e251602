//! Canonical content-addressed cache keys.
//!
//! A [`CacheKey`] is a 256-bit fingerprint over everything that determines
//! a memoized result: the circuit IR, the device snapshot (topology plus
//! calibration), the relevant configuration fields, the derived seed, and
//! the [`ENGINE_SALT`]. Two evaluations share a key **iff** the pure
//! function they memoize is guaranteed to produce bit-identical output —
//! the cache never has to compare payloads, only keys.
//!
//! Every component is folded through [`KeyBuilder`] with a one-byte domain
//! tag and explicit length prefixes, so concatenation ambiguity (`"ab" +
//! "c"` vs `"a" + "bc"`) cannot alias two different inputs onto one byte
//! stream. The stream feeds four independently seeded FNV-1a lanes with a
//! SplitMix64 finalizer each; 256 bits of digest make accidental
//! collisions negligible at any realistic cache size.
//!
//! # Canonicalization
//!
//! [`KeyBuilder::circuit_canonical`] renumbers trainable parameter slots
//! in first-use order before hashing, so circuits that differ only by an
//! injective relabeling of trainable indices collide. This is **sound for
//! CNR only**: Clifford replicas snap every parametric slot to a random
//! constant, so the CNR value is invariant under trainable relabeling.
//! RepCap is *not* invariant — it draws one init per raw slot index
//! (`theta[slot]`), and the NSGA-II `mutate_param_slots` operator produces
//! slot-swapped variants whose RepCap bits genuinely differ — so RepCap
//! keys hash the raw IR via [`KeyBuilder::circuit`].

use elivagar_circuit::{Circuit, ParamSource};
use elivagar_device::Device;
use std::fmt;

/// Version salt folded into every key and stamped into every on-disk
/// entry. Bump this whenever evaluation semantics change (predictor math,
/// RNG ladders, noise model): old entries then miss by key *and* are
/// rejected by the store's header check, so a stale cache can never serve
/// a result the current engine would not reproduce.
pub const ENGINE_SALT: u64 = 0x454C_4956_4147_0002; // "ELIVAG" + format v2

const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Per-lane seeds decorrelating the four FNV-1a streams.
const LANE_TWEAKS: [u64; 4] = [
    0x0000_0000_0000_0000,
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
];

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 256-bit content fingerprint; the cache's only addressing scheme.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey([u8; 32]);

impl CacheKey {
    /// The raw digest bytes.
    pub fn bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering — also the on-disk entry file stem.
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// The first 8 digest bytes as a `u64` (faultpoint / shard key).
    pub fn low64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CacheKey({})", self.hex())
    }
}

/// Domain tags separating key components; each write is framed as
/// `tag, length, bytes` so distinct component sequences can never alias.
mod tag {
    pub const KIND: u8 = 0x01;
    pub const U64: u8 = 0x02;
    pub const BYTES: u8 = 0x03;
    pub const F64S: u8 = 0x04;
    pub const CIRCUIT: u8 = 0x05;
    pub const DEVICE: u8 = 0x06;
    pub const USIZES: u8 = 0x07;
}

/// Incrementally folds labeled components into a [`CacheKey`].
#[derive(Clone, Debug)]
pub struct KeyBuilder {
    lanes: [u64; 4],
    len: u64,
}

impl KeyBuilder {
    /// Starts a key for one memoized function (`"cnr"`, `"repcap"`,
    /// `"baseline_eval"`, ...). The [`ENGINE_SALT`] is folded in first, so a salt
    /// bump changes every key.
    pub fn new(kind: &str) -> Self {
        let mut b = KeyBuilder {
            lanes: [
                FNV_BASIS ^ LANE_TWEAKS[0],
                FNV_BASIS ^ LANE_TWEAKS[1],
                FNV_BASIS ^ LANE_TWEAKS[2],
                FNV_BASIS ^ LANE_TWEAKS[3],
            ],
            len: 0,
        };
        b.raw(&ENGINE_SALT.to_le_bytes());
        b.frame(tag::KIND, kind.as_bytes());
        b
    }

    fn raw(&mut self, bytes: &[u8]) {
        for lane in &mut self.lanes {
            let mut h = *lane;
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
            *lane = h;
        }
        self.len += bytes.len() as u64;
    }

    fn frame(&mut self, tag: u8, bytes: &[u8]) {
        self.raw(&[tag]);
        self.raw(&(bytes.len() as u64).to_le_bytes());
        self.raw(bytes);
    }

    /// Folds in a `u64` (seeds, counts, shot numbers).
    #[must_use]
    pub fn u64(mut self, value: u64) -> Self {
        self.frame(tag::U64, &value.to_le_bytes());
        self
    }

    /// Folds in an opaque byte string.
    #[must_use]
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        self.frame(tag::BYTES, bytes);
        self
    }

    /// Folds in a slice of `f64`s by exact bit pattern (calibration
    /// columns, feature vectors). `-0.0` and `0.0` hash differently, as
    /// they must: the memoized engines are bit-exact.
    #[must_use]
    pub fn f64s(mut self, values: &[f64]) -> Self {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.frame(tag::F64S, &bytes);
        self
    }

    /// Folds in a slice of indices (placements, label vectors).
    #[must_use]
    pub fn usizes(mut self, values: &[usize]) -> Self {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for &v in values {
            bytes.extend_from_slice(&(v as u64).to_le_bytes());
        }
        self.frame(tag::USIZES, &bytes);
        self
    }

    /// Folds in a circuit's raw IR: qubit count, embedding mode, measured
    /// set, and every instruction (gate, operands, parameter expressions
    /// with raw trainable indices).
    #[must_use]
    pub fn circuit(mut self, circuit: &Circuit) -> Self {
        let bytes = circuit_bytes(circuit, None);
        self.frame(tag::CIRCUIT, &bytes);
        self
    }

    /// Folds in a circuit's canonical IR: identical to [`Self::circuit`]
    /// except trainable slots are renumbered in first-use order, so any
    /// injective relabeling of trainable indices produces the same key.
    /// Sound only for relabel-invariant functions (CNR; see module docs).
    #[must_use]
    pub fn circuit_canonical(mut self, circuit: &Circuit) -> Self {
        let mut remap: Vec<(usize, usize)> = Vec::new();
        for ins in circuit.instructions() {
            for p in &ins.params {
                if let Some(i) = p.trainable_index() {
                    if !remap.iter().any(|&(raw, _)| raw == i) {
                        remap.push((i, remap.len()));
                    }
                }
            }
        }
        let bytes = circuit_bytes(circuit, Some(&remap));
        self.frame(tag::CIRCUIT, &bytes);
        self
    }

    /// Folds in a device snapshot: name, topology (qubit count + edge
    /// list), and the full calibration (per-qubit/per-edge error and
    /// coherence columns plus gate durations), all by exact bits.
    #[must_use]
    pub fn device(mut self, device: &Device) -> Self {
        let mut bytes = Vec::new();
        push_framed(&mut bytes, device.name().as_bytes());
        let topo = device.topology();
        bytes.extend_from_slice(&(topo.num_qubits() as u64).to_le_bytes());
        bytes.extend_from_slice(&(topo.edges().len() as u64).to_le_bytes());
        for &(a, b) in topo.edges() {
            bytes.extend_from_slice(&(a as u64).to_le_bytes());
            bytes.extend_from_slice(&(b as u64).to_le_bytes());
        }
        let cal = device.calibration();
        for column in [
            &cal.readout_error,
            &cal.gate1q_error,
            &cal.gate2q_error,
            &cal.t1_us,
            &cal.t2_us,
        ] {
            bytes.extend_from_slice(&(column.len() as u64).to_le_bytes());
            for v in column {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        for v in [cal.gate1q_time_us, cal.gate2q_time_us, cal.readout_time_us] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.frame(tag::DEVICE, &bytes);
        self
    }

    /// Finalizes the four lanes (folding in the total stream length) into
    /// the 256-bit key.
    pub fn finish(self) -> CacheKey {
        let mut out = [0u8; 32];
        for (i, lane) in self.lanes.iter().enumerate() {
            let word = splitmix(lane ^ self.len ^ LANE_TWEAKS[i].rotate_left(17));
            out[i * 8..(i + 1) * 8].copy_from_slice(&word.to_le_bytes());
        }
        CacheKey(out)
    }
}

fn push_framed(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Serializes a circuit to an unambiguous byte stream. When `remap` is
/// given, trainable indices are replaced by their first-use ordinals.
fn circuit_bytes(circuit: &Circuit, remap: Option<&[(usize, usize)]>) -> Vec<u8> {
    let slot = |raw: usize| -> u64 {
        match remap {
            Some(map) => map
                .iter()
                .find(|&&(r, _)| r == raw)
                .map(|&(_, canon)| canon as u64)
                .expect("every trainable slot was mapped"),
            None => raw as u64,
        }
    };
    let mut out = Vec::new();
    out.extend_from_slice(&(circuit.num_qubits() as u64).to_le_bytes());
    out.push(u8::from(circuit.amplitude_embedding()));
    out.extend_from_slice(&(circuit.measured().len() as u64).to_le_bytes());
    for &q in circuit.measured() {
        out.extend_from_slice(&(q as u64).to_le_bytes());
    }
    out.extend_from_slice(&(circuit.instructions().len() as u64).to_le_bytes());
    for ins in circuit.instructions() {
        // Gate display names are stable, unique per gate family, and
        // independent of enum ordering — safer than discriminant indices.
        push_framed(&mut out, ins.gate.to_string().as_bytes());
        out.push(ins.qubits.len() as u8);
        for &q in &ins.qubits {
            out.extend_from_slice(&(q as u64).to_le_bytes());
        }
        out.push(ins.params.len() as u8);
        for p in &ins.params {
            out.extend_from_slice(&p.scale.to_bits().to_le_bytes());
            match p.source {
                ParamSource::Trainable(i) => {
                    out.push(0);
                    out.extend_from_slice(&slot(i).to_le_bytes());
                }
                ParamSource::Feature(i) => {
                    out.push(1);
                    out.extend_from_slice(&(i as u64).to_le_bytes());
                }
                ParamSource::FeatureProduct(i, j) => {
                    out.push(2);
                    out.extend_from_slice(&(i as u64).to_le_bytes());
                    out.extend_from_slice(&(j as u64).to_le_bytes());
                }
                ParamSource::Constant(c) => {
                    out.push(3);
                    out.extend_from_slice(&c.to_bits().to_le_bytes());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_circuit::{Gate, ParamExpr};

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
        c.push_gate(Gate::Ry, &[1], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.push_gate(Gate::Rz, &[2], &[ParamExpr::trainable(1)]);
        c.set_measured(vec![0, 2]);
        c
    }

    #[test]
    fn identical_inputs_share_a_key() {
        let a = KeyBuilder::new("cnr").circuit(&sample_circuit()).u64(7).finish();
        let b = KeyBuilder::new("cnr").circuit(&sample_circuit()).u64(7).finish();
        assert_eq!(a, b);
    }

    #[test]
    fn kind_seed_and_component_order_separate_keys() {
        let c = sample_circuit();
        let base = KeyBuilder::new("cnr").circuit(&c).u64(7).finish();
        assert_ne!(base, KeyBuilder::new("repcap").circuit(&c).u64(7).finish());
        assert_ne!(base, KeyBuilder::new("cnr").circuit(&c).u64(8).finish());
        assert_ne!(base, KeyBuilder::new("cnr").u64(7).circuit(&c).finish());
    }

    #[test]
    fn canonical_digest_collapses_trainable_relabelings() {
        let mut relabeled = Circuit::new(3);
        relabeled.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
        relabeled.push_gate(Gate::Ry, &[1], &[ParamExpr::trainable(11)]);
        relabeled.push_gate(Gate::Cx, &[0, 1], &[]);
        relabeled.push_gate(Gate::Rz, &[2], &[ParamExpr::trainable(4)]);
        relabeled.set_measured(vec![0, 2]);
        let a = KeyBuilder::new("cnr").circuit_canonical(&sample_circuit()).finish();
        let b = KeyBuilder::new("cnr").circuit_canonical(&relabeled).finish();
        assert_eq!(a, b);
        // The raw digest must keep them apart (RepCap is not invariant).
        let ra = KeyBuilder::new("repcap").circuit(&sample_circuit()).finish();
        let rb = KeyBuilder::new("repcap").circuit(&relabeled).finish();
        assert_ne!(ra, rb);
    }

    #[test]
    fn framing_prevents_concatenation_aliasing() {
        let a = KeyBuilder::new("x").bytes(b"ab").bytes(b"c").finish();
        let b = KeyBuilder::new("x").bytes(b"a").bytes(b"bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn hex_roundtrips_the_digest_width() {
        let key = KeyBuilder::new("cnr").u64(1).finish();
        assert_eq!(key.hex().len(), 64);
        assert!(key.hex().chars().all(|c| c.is_ascii_hexdigit()));
    }
}
