//! Layered combinational circuit model for remapping functions.
//!
//! A [`Circuit`] is a sequence of layers, each either a substitution layer
//! (parallel S-boxes), a permutation layer (a P-box — pure wiring) or a
//! compression layer (parallel XOR trees, the non-invertible C-S boxes of
//! Figure 2). Inputs and intermediate states are carried in a `u128`
//! (functions consume at most 96 bits, Table II).
//!
//! The cost model follows Section V-A: the critical path is measured in
//! *series transistors* (S-box₄ = 8, S-box₃ = 6, XOR₂ = 4 per tree level,
//! wires = 0), the paper's single-cycle budget being 45.

use crate::primitive::SboxKind;
use crate::{XOR2_DEPTH, XOR2_TRANSISTORS};
use std::fmt;

/// One combinational layer of a remapping circuit.
#[derive(Clone, Debug)]
pub enum Layer {
    /// Parallel S-boxes. Each entry is `(bit_offset, kind)`; boxes must
    /// tile the current width without overlap.
    Substitute(Vec<(u32, SboxKind)>),
    /// A permutation (P-box): output bit `i` reads input bit `perm[i]`.
    /// Width-preserving, zero transistors, bounded wire crossings.
    Permute(Vec<u32>),
    /// A compression layer: output bit `i` is the XOR-parity of the input
    /// bits selected by `masks[i]`. Output width is `masks.len()`.
    Compress(Vec<u128>),
}

impl Layer {
    /// Output width of the layer given its input width.
    pub fn output_width(&self, input_width: u32) -> u32 {
        match self {
            Layer::Substitute(_) | Layer::Permute(_) => input_width,
            Layer::Compress(masks) => masks.len() as u32,
        }
    }

    /// Series-transistor depth contributed by this layer.
    pub fn depth(&self) -> u32 {
        match self {
            Layer::Substitute(boxes) => boxes.iter().map(|(_, k)| k.depth()).max().unwrap_or(0),
            Layer::Permute(_) => 0,
            Layer::Compress(masks) => {
                let fan_in = masks.iter().map(|m| m.count_ones()).max().unwrap_or(0);
                xor_tree_depth(fan_in) * XOR2_DEPTH
            }
        }
    }

    /// Total transistor count of this layer.
    pub fn transistors(&self) -> u32 {
        match self {
            Layer::Substitute(boxes) => boxes.iter().map(|(_, k)| k.transistors()).sum(),
            Layer::Permute(_) => 0,
            Layer::Compress(masks) => masks
                .iter()
                .map(|m| m.count_ones().saturating_sub(1) * XOR2_TRANSISTORS)
                .sum(),
        }
    }

    /// Applies the layer to a state `x` of its input width.
    pub(crate) fn apply(&self, x: u128) -> u128 {
        match self {
            Layer::Substitute(boxes) => boxes.iter().fold(0, |y, &(off, kind)| {
                let v = ((x >> off) as u8) & ((1u16 << kind.width()) - 1) as u8;
                y | (kind.apply(v) as u128) << off
            }),
            Layer::Permute(perm) => perm
                .iter()
                .enumerate()
                .fold(0, |y, (i, &src)| y | ((x >> src) & 1) << i),
            Layer::Compress(masks) => masks.iter().enumerate().fold(0, |y, (i, &m)| {
                y | (((x & m).count_ones() & 1) as u128) << i
            }),
        }
    }

    /// Maximum number of wires any single wire crosses (P-boxes only; other
    /// layers route straight through).
    pub fn max_wire_crossings(&self) -> u32 {
        match self {
            Layer::Permute(perm) => max_crossings(perm),
            _ => 0,
        }
    }
}

/// Depth (in XOR2 levels) of a balanced XOR tree over `fan_in` inputs.
fn xor_tree_depth(fan_in: u32) -> u32 {
    if fan_in <= 1 {
        0
    } else {
        32 - (fan_in - 1).leading_zeros()
    }
}

/// Counts, for each wire of a permutation, how many other wires it crosses
/// in a straight-line layout, and returns the maximum.
fn max_crossings(perm: &[u32]) -> u32 {
    let n = perm.len();
    let mut worst = 0u32;
    for i in 0..n {
        let mut c = 0u32;
        for j in 0..n {
            if i == j {
                continue;
            }
            // Wires (i -> perm[i]) and (j -> perm[j]) cross iff their
            // endpoints interleave.
            let (a0, a1) = (i as i64, perm[i] as i64);
            let (b0, b1) = (j as i64, perm[j] as i64);
            if (a0 - b0).signum() * (a1 - b1).signum() < 0 {
                c += 1;
            }
        }
        worst = worst.max(c);
    }
    worst
}

/// Aggregate hardware cost of a circuit (constraint C1 inputs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CircuitCost {
    /// Series transistors on the critical path.
    pub critical_path: u32,
    /// Total transistor count.
    pub total_transistors: u32,
    /// Widest layer's transistor count (parallel breadth).
    pub breadth: u32,
    /// Number of layers.
    pub layers: u32,
    /// Worst per-wire crossing count across all P-boxes.
    pub max_wire_crossings: u32,
}

/// A layered remapping circuit with fixed input/output widths.
///
/// ```
/// use stbpu_remap::{Circuit, Layer, SboxKind};
/// let c = Circuit::new(8, vec![
///     Layer::Substitute(vec![(0, SboxKind::Present4), (4, SboxKind::Present4)]),
///     Layer::Compress(vec![0b0000_0011, 0b0000_1100, 0b0011_0000, 0b1100_0000]),
/// ]).unwrap();
/// assert_eq!(c.output_bits(), 4);
/// assert!(c.eval(0xA5) < 16);
/// ```
#[derive(Clone, Debug)]
pub struct Circuit {
    input_bits: u32,
    output_bits: u32,
    layers: Vec<Layer>,
}

/// Error building a malformed circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CircuitError(String);

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid circuit: {}", self.0)
    }
}

impl std::error::Error for CircuitError {}

impl Circuit {
    /// Builds a circuit, validating layer geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if the input width exceeds 128 bits, a substitution
    /// layer does not tile the current width, a permutation is not a
    /// bijection of the current width, a compression mask selects bits
    /// outside the current width, or the final width exceeds 64 bits.
    pub fn new(input_bits: u32, layers: Vec<Layer>) -> Result<Self, CircuitError> {
        if input_bits == 0 || input_bits > 128 {
            return Err(CircuitError(format!(
                "input width {input_bits} out of range"
            )));
        }
        let mut width = input_bits;
        for (li, layer) in layers.iter().enumerate() {
            match layer {
                Layer::Substitute(boxes) => {
                    let mut covered = 0u128;
                    for &(off, kind) in boxes {
                        let w = kind.width();
                        if off + w > width {
                            return Err(CircuitError(format!(
                                "layer {li}: S-box at {off} exceeds width {width}"
                            )));
                        }
                        let m = ((1u128 << w) - 1) << off;
                        if covered & m != 0 {
                            return Err(CircuitError(format!("layer {li}: overlapping S-boxes")));
                        }
                        covered |= m;
                    }
                    let full = if width == 128 {
                        u128::MAX
                    } else {
                        (1u128 << width) - 1
                    };
                    if covered != full {
                        return Err(CircuitError(format!(
                            "layer {li}: S-boxes do not tile the {width}-bit state"
                        )));
                    }
                }
                Layer::Permute(perm) => {
                    if perm.len() as u32 != width {
                        return Err(CircuitError(format!(
                            "layer {li}: permutation width {} != state width {width}",
                            perm.len()
                        )));
                    }
                    let mut seen = vec![false; width as usize];
                    for &p in perm {
                        if p >= width || seen[p as usize] {
                            return Err(CircuitError(format!("layer {li}: not a permutation")));
                        }
                        seen[p as usize] = true;
                    }
                }
                Layer::Compress(masks) => {
                    if masks.is_empty() || masks.len() as u32 > width {
                        return Err(CircuitError(format!(
                            "layer {li}: compression must strictly reduce width"
                        )));
                    }
                    let full = if width == 128 {
                        u128::MAX
                    } else {
                        (1u128 << width) - 1
                    };
                    for (i, &m) in masks.iter().enumerate() {
                        if m == 0 {
                            return Err(CircuitError(format!(
                                "layer {li}: output bit {i} reads no inputs"
                            )));
                        }
                        if m & !full != 0 {
                            return Err(CircuitError(format!(
                                "layer {li}: mask {i} selects bits outside width {width}"
                            )));
                        }
                    }
                    width = masks.len() as u32;
                }
            }
        }
        if width > 64 {
            return Err(CircuitError(format!("final width {width} exceeds 64 bits")));
        }
        Ok(Circuit {
            input_bits,
            output_bits: width,
            layers,
        })
    }

    /// Input width in bits.
    pub fn input_bits(&self) -> u32 {
        self.input_bits
    }

    /// Output width in bits.
    pub fn output_bits(&self) -> u32 {
        self.output_bits
    }

    /// The layers of the circuit.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Evaluates the circuit on `input` (low `input_bits` bits are used).
    pub fn eval(&self, input: u128) -> u64 {
        let mut x = if self.input_bits == 128 {
            input
        } else {
            input & ((1u128 << self.input_bits) - 1)
        };
        let mut width = self.input_bits;
        for layer in &self.layers {
            x = layer.apply(x);
            width = layer.output_width(width);
        }
        debug_assert_eq!(width, self.output_bits);
        x as u64
    }

    /// Computes the hardware cost of the circuit.
    pub fn cost(&self) -> CircuitCost {
        CircuitCost {
            critical_path: self.layers.iter().map(Layer::depth).sum(),
            total_transistors: self.layers.iter().map(Layer::transistors).sum(),
            breadth: self
                .layers
                .iter()
                .map(Layer::transistors)
                .max()
                .unwrap_or(0),
            layers: self.layers.len() as u32,
            max_wire_crossings: self
                .layers
                .iter()
                .map(Layer::max_wire_crossings)
                .max()
                .unwrap_or(0),
        }
    }

    /// A human-readable structural summary (used by the Figure 2 harness).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let mut width = self.input_bits;
        let _ = writeln!(s, "input: {} bits", width);
        for (i, layer) in self.layers.iter().enumerate() {
            match layer {
                Layer::Substitute(boxes) => {
                    let p4 = boxes
                        .iter()
                        .filter(|(_, k)| *k == SboxKind::Present4)
                        .count();
                    let s4 = boxes
                        .iter()
                        .filter(|(_, k)| *k == SboxKind::Spongent4)
                        .count();
                    let t3 = boxes.iter().filter(|(_, k)| *k == SboxKind::Tail3).count();
                    let _ = writeln!(
                        s,
                        "stage {}: substitution  [{} PRESENT 4x4, {} SPONGENT 4x4, {} 3x3] depth {}T",
                        i + 1, p4, s4, t3, layer.depth()
                    );
                }
                Layer::Permute(_) => {
                    let _ = writeln!(
                        s,
                        "stage {}: P-box         [{width} -> {width} wires, max crossings {}]",
                        i + 1,
                        layer.max_wire_crossings()
                    );
                }
                Layer::Compress(masks) => {
                    let fan: u32 = masks.iter().map(|m| m.count_ones()).max().unwrap_or(0);
                    let _ = writeln!(
                        s,
                        "stage {}: C-S box       [{} -> {} bits, max fan-in {}, depth {}T]",
                        i + 1,
                        width,
                        masks.len(),
                        fan,
                        layer.depth()
                    );
                    width = masks.len() as u32;
                }
            }
        }
        let c = self.cost();
        let _ = writeln!(
            s,
            "output: {} bits; critical path {}T, total {}T, {} layers",
            self.output_bits, c.critical_path, c.total_transistors, c.layers
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub8() -> Layer {
        Layer::Substitute(vec![(0, SboxKind::Present4), (4, SboxKind::Spongent4)])
    }

    #[test]
    fn substitution_applies_boxes_in_place() {
        let c = Circuit::new(8, vec![sub8()]).unwrap();
        let v = c.eval(0x00);
        assert_eq!(v & 0xf, crate::PRESENT_SBOX[0] as u64);
        assert_eq!(v >> 4, crate::SPONGENT_SBOX[0] as u64);
    }

    #[test]
    fn permutation_reorders_bits() {
        // Reverse 4 bits.
        let c = Circuit::new(4, vec![Layer::Permute(vec![3, 2, 1, 0])]).unwrap();
        assert_eq!(c.eval(0b0001), 0b1000);
        assert_eq!(c.eval(0b1010), 0b0101);
    }

    #[test]
    fn compression_is_parity() {
        let c = Circuit::new(4, vec![Layer::Compress(vec![0b0011, 0b1100])]).unwrap();
        assert_eq!(c.eval(0b0001), 0b01);
        assert_eq!(c.eval(0b0011), 0b00);
        assert_eq!(c.eval(0b0111), 0b10);
    }

    #[test]
    fn cost_model_accumulates_depth() {
        let c = Circuit::new(
            8,
            vec![
                sub8(),
                Layer::Permute((0..8).rev().collect()),
                Layer::Compress(vec![0x0f, 0xf0]),
            ],
        )
        .unwrap();
        let cost = c.cost();
        // S-box depth 8 + P-box 0 + XOR tree over 4 inputs (2 levels * 4).
        assert_eq!(cost.critical_path, 8 + 8);
        assert_eq!(cost.layers, 3);
        assert!(cost.total_transistors > 0);
        assert!(cost.breadth <= cost.total_transistors);
    }

    #[test]
    fn xor_tree_depth_is_log2() {
        assert_eq!(xor_tree_depth(1), 0);
        assert_eq!(xor_tree_depth(2), 1);
        assert_eq!(xor_tree_depth(3), 2);
        assert_eq!(xor_tree_depth(4), 2);
        assert_eq!(xor_tree_depth(5), 3);
        assert_eq!(xor_tree_depth(8), 3);
        assert_eq!(xor_tree_depth(9), 4);
    }

    #[test]
    fn identity_permutation_has_no_crossings() {
        assert_eq!(max_crossings(&[0, 1, 2, 3]), 0);
        // A full reversal: every wire crosses every other.
        assert_eq!(max_crossings(&[3, 2, 1, 0]), 3);
    }

    #[test]
    fn rejects_overlapping_sboxes() {
        let bad = Circuit::new(
            8,
            vec![Layer::Substitute(vec![
                (0, SboxKind::Present4),
                (2, SboxKind::Present4),
            ])],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn rejects_non_tiling_sboxes() {
        let bad = Circuit::new(8, vec![Layer::Substitute(vec![(0, SboxKind::Present4)])]);
        assert!(bad.is_err());
    }

    #[test]
    fn rejects_bad_permutation() {
        assert!(Circuit::new(4, vec![Layer::Permute(vec![0, 0, 1, 2])]).is_err());
        assert!(Circuit::new(4, vec![Layer::Permute(vec![0, 1, 2])]).is_err());
    }

    #[test]
    fn rejects_empty_or_oob_masks() {
        assert!(Circuit::new(4, vec![Layer::Compress(vec![0])]).is_err());
        assert!(Circuit::new(4, vec![Layer::Compress(vec![0b1_0000])]).is_err());
    }

    #[test]
    fn describe_mentions_structure() {
        let c = Circuit::new(8, vec![sub8(), Layer::Compress(vec![0x0f, 0xf0])]).unwrap();
        let d = c.describe();
        assert!(d.contains("substitution"));
        assert!(d.contains("C-S box"));
        assert!(d.contains("critical path"));
    }

    #[test]
    fn eval_masks_extraneous_input_bits() {
        let c = Circuit::new(4, vec![Layer::Compress(vec![0b1111])]).unwrap();
        assert_eq!(c.eval(0b1_0001), c.eval(0b0_0001));
    }
}
