//! Precompiled circuit evaluation: fused S-box→linear lookup tables.
//!
//! [`crate::Circuit::eval`] walks the layer list interpreting it bit by
//! bit — a permutation layer alone costs one shift/mask/or per wire (up to
//! 96 of them), and the simulator evaluates several circuits per branch.
//! A [`CompiledCircuit`] lowers the layer list once, at construction time,
//! into *fused stages*: one per substitution layer, together with every
//! linear layer (permutation, compression) that follows it.
//!
//! Permutation and compression are XOR-linear, and the S-boxes of a layer
//! tile the state disjointly, so for the linear tail `L` of a stage
//!
//! ```text
//! L(S(x)) = XOR over boxes b of L(S_b(x_b) << off_b)
//! ```
//!
//! Each box therefore becomes a 16-entry table of its output already
//! pushed through `L`, and a stage evaluates as an XOR of one lookup per
//! box. A leading linear layer gets a stage of identity 4-bit boxes. Stage
//! outputs of at most 64 bits (every canonical stage) use `u64` entries,
//! wider ones `u128`; the six canonical circuits need ~28 KiB of tables in
//! total, small enough to stay cached beside the predictor tables.
//!
//! Evaluation allocates nothing, has no data-dependent branching, and is
//! bit-identical to the interpreted [`crate::Circuit::eval`] (property-
//! tested below and in `tests/properties.rs`).

use crate::circuit::{Circuit, Layer};
use std::mem::size_of;
use std::ops::BitXor;

/// One S-box of a fused stage: `lut[v]` is the stage output of the box
/// reading `v` at bit offset `off`, all other boxes reading zero. Boxes
/// narrower than 4 bits repeat their table, so the index mask is always
/// `0xf` (a bit above the box belongs to the next box or is zero).
#[derive(Clone, Debug)]
struct FusedBox<T> {
    /// The 32-bit word of the state holding the box's offset (wide stages).
    word: u8,
    /// The box's offset from the start of its window: the full offset in
    /// narrow stages, the offset within `word` in wide ones.
    shift: u8,
    lut: [T; 16],
}

/// One substitution layer fused with the linear layers that follow it.
/// Linear layers never widen the state, so a stage with a narrow input
/// has a narrow output.
#[derive(Clone, Debug)]
enum Stage {
    /// Input and output of at most 64 bits (every canonical stage after
    /// the first): boxes index the state with one `u64` shift.
    Narrow(Vec<FusedBox<u64>>),
    /// Input wider than 64 bits, output of at most 64.
    Reduce(Vec<FusedBox<u64>>),
    /// Input and output wider than 64 bits.
    Wide(Vec<FusedBox<u128>>),
}

/// XOR of every box's lookup for a state of at most 64 bits.
#[inline]
fn lookup_narrow(boxes: &[FusedBox<u64>], x: u64) -> u64 {
    boxes
        .iter()
        .fold(0, |y, b| y ^ b.lut[(x >> b.shift) as usize & 0xf])
}

/// XOR of every box's lookup for a state of up to 128 bits. Each box reads
/// the 64-bit window starting at the 32-bit word holding its offset, so no
/// box straddles a window edge.
#[inline]
fn lookup_wide<T: Copy + Default + BitXor<Output = T>>(boxes: &[FusedBox<T>], x: u128) -> T {
    let words = [
        x as u64,
        (x >> 32) as u64,
        (x >> 64) as u64,
        (x >> 96) as u64,
    ];
    boxes.iter().fold(T::default(), |y, b| {
        y ^ b.lut[(words[b.word as usize & 3] >> b.shift) as usize & 0xf]
    })
}

/// The boxes of a stage reading `in_width` bits, from `(offset, table)`
/// pairs, with entries narrowed to `T` (lossless: the stage output fits).
fn fused_boxes<T>(
    tables: &[(u32, [u128; 16])],
    in_width: u32,
    entry: impl Fn(u128) -> T,
) -> Vec<FusedBox<T>> {
    tables
        .iter()
        .map(|&(off, lut)| {
            let (word, shift) = if in_width > 64 {
                (off / 32, off % 32)
            } else {
                (0, off)
            };
            FusedBox {
                word: word as u8,
                shift: shift as u8,
                lut: lut.map(&entry),
            }
        })
        .collect()
}

/// A [`Circuit`] lowered to fused lookup tables — same outputs, built once,
/// evaluated without interpretation overhead.
///
/// ```
/// use stbpu_remap::{Circuit, CompiledCircuit, Layer, SboxKind};
///
/// let c = Circuit::new(8, vec![
///     Layer::Substitute(vec![(0, SboxKind::Present4), (4, SboxKind::Present4)]),
///     Layer::Compress(vec![0b0000_0011, 0b0000_1100, 0b0011_0000, 0b1100_0000]),
/// ]).unwrap();
/// let fast = CompiledCircuit::new(&c);
/// for v in 0..=255u128 {
///     assert_eq!(fast.eval(v), c.eval(v));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    input_mask: u128,
    output_bits: u32,
    stages: Vec<Stage>,
}

impl CompiledCircuit {
    /// Lowers `circuit` into fused stages. The result evaluates
    /// bit-identically to [`Circuit::eval`].
    pub fn new(circuit: &Circuit) -> Self {
        let mut width = circuit.input_bits();
        let mut layers = circuit.layers();
        let mut stages = Vec::new();
        while let Some(first) = layers.first() {
            // `(offset, width, S-box)` per box; `None` is the identity.
            let boxes: Vec<_> = match first {
                Layer::Substitute(boxes) => {
                    layers = &layers[1..];
                    boxes
                        .iter()
                        .map(|&(off, kind)| (off, kind.width(), Some(kind)))
                        .collect()
                }
                _ => (0..width)
                    .step_by(4)
                    .map(|off| (off, (width - off).min(4), None))
                    .collect(),
            };
            let linear_len = layers
                .iter()
                .position(|l| matches!(l, Layer::Substitute(_)))
                .unwrap_or(layers.len());
            let (linear, rest) = layers.split_at(linear_len);
            layers = rest;
            let in_width = width;
            width = linear.iter().fold(width, |w, l| l.output_width(w));
            let tables: Vec<(u32, [u128; 16])> = boxes
                .into_iter()
                .map(|(off, w, kind)| {
                    let lut = std::array::from_fn(|v| {
                        let v = v as u8 & ((1u8 << w) - 1);
                        let s = kind.map_or(v, |k| k.apply(v));
                        linear.iter().fold((s as u128) << off, |y, l| l.apply(y))
                    });
                    (off, lut)
                })
                .collect();
            stages.push(if in_width <= 64 {
                Stage::Narrow(fused_boxes(&tables, in_width, |y| y as u64))
            } else if width <= 64 {
                Stage::Reduce(fused_boxes(&tables, in_width, |y| y as u64))
            } else {
                Stage::Wide(fused_boxes(&tables, in_width, |y| y))
            });
        }
        CompiledCircuit {
            input_mask: u128::MAX >> (128 - circuit.input_bits()),
            output_bits: circuit.output_bits(),
            stages,
        }
    }

    /// Output width in bits (matches the source circuit).
    pub fn output_bits(&self) -> u32 {
        self.output_bits
    }

    /// Bytes of lookup tables the evaluation reads — the circuit's cache
    /// footprint on the hot path.
    pub fn table_bytes(&self) -> usize {
        self.stages
            .iter()
            .map(|s| match s {
                Stage::Narrow(b) | Stage::Reduce(b) => b.len() * size_of::<[u64; 16]>(),
                Stage::Wide(b) => b.len() * size_of::<[u128; 16]>(),
            })
            .sum()
    }

    /// Evaluates the compiled circuit on `input` (low input bits used) —
    /// bit-identical to the source [`Circuit::eval`], allocation-free.
    #[inline]
    pub fn eval(&self, input: u128) -> u64 {
        let mut x = input & self.input_mask;
        for stage in &self.stages {
            x = match stage {
                Stage::Narrow(boxes) => u128::from(lookup_narrow(boxes, x as u64)),
                Stage::Reduce(boxes) => u128::from(lookup_wide(boxes, x)),
                Stage::Wide(boxes) => lookup_wide(boxes, x),
            };
        }
        x as u64
    }
}

impl From<&Circuit> for CompiledCircuit {
    fn from(c: &Circuit) -> Self {
        CompiledCircuit::new(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::SboxKind;

    fn agree_on_samples(c: &Circuit) {
        let fast = CompiledCircuit::new(c);
        assert_eq!(fast.output_bits(), c.output_bits());
        let mut x: u128 = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
        for i in 0..2_000u128 {
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i);
            assert_eq!(fast.eval(x), c.eval(x), "input {x:#x}");
        }
        // Edge inputs.
        for v in [0u128, 1, u128::MAX, 1 << 127, (1 << 96) - 1] {
            assert_eq!(fast.eval(v), c.eval(v));
        }
    }

    #[test]
    fn compiled_matches_interpreted_per_layer_kind() {
        let sub = Circuit::new(
            8,
            vec![Layer::Substitute(vec![
                (0, SboxKind::Present4),
                (4, SboxKind::Spongent4),
            ])],
        )
        .unwrap();
        agree_on_samples(&sub);

        let perm = Circuit::new(11, vec![Layer::Permute((0..11).rev().collect())]).unwrap();
        agree_on_samples(&perm);

        let comp = Circuit::new(12, vec![Layer::Compress(vec![0xf0f, 0x3c3, 0xaaa])]).unwrap();
        agree_on_samples(&comp);
    }

    #[test]
    fn compiled_matches_interpreted_on_canonical_circuits() {
        // The real Table II geometries: odd widths, 3-bit tail boxes,
        // multi-stage layering — the exact circuits the simulator runs.
        let set = crate::RemapSet::generate(991).unwrap();
        for (name, c) in set.circuits() {
            let fast = CompiledCircuit::new(c);
            let mut x: u128 = 0xdead_beef_cafe_f00d;
            for i in 0..4_000u128 {
                x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
                assert_eq!(fast.eval(x), c.eval(x), "{name} diverged on {x:#x}");
            }
        }
    }

    #[test]
    fn boundary_straddling_boxes_compile_correctly() {
        // A 3-bit S-box straddling the byte boundary at offset 6 exercises
        // a box whose index spans two bytes of the state.
        let c = Circuit::new(
            11,
            vec![Layer::Substitute(vec![
                (0, SboxKind::Tail3),
                (3, SboxKind::Tail3),
                (6, SboxKind::Tail3),
                // Remaining 2 bits cannot be tiled by 3/4-wide boxes, so
                // use a 9+2 split instead: rebuild with a compress layer.
            ])],
        );
        // 11 bits cannot tile with 3-bit boxes alone (9 < 11): expect the
        // builder to reject it — the compiler never sees invalid circuits.
        assert!(c.is_err());
        let c = Circuit::new(
            9,
            vec![
                Layer::Substitute(vec![
                    (0, SboxKind::Tail3),
                    (3, SboxKind::Tail3),
                    (6, SboxKind::Tail3),
                ]),
                Layer::Permute(vec![8, 6, 4, 2, 0, 1, 3, 5, 7]),
                Layer::Compress(vec![0b1_1100_0111, 0b0_0011_1100]),
            ],
        )
        .unwrap();
        agree_on_samples(&c);
    }

    #[test]
    fn canonical_tables_fit_the_cache_budget() {
        // The six circuits the simulator evaluates per branch must stay
        // small enough to share L1/L2 with the predictor tables.
        let total: usize = crate::RemapSet::standard()
            .circuits()
            .iter()
            .map(|(_, c)| CompiledCircuit::new(c).table_bytes())
            .sum();
        assert!(total <= 32 * 1024, "remap tables take {total} bytes");
    }
}
