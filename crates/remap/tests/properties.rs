//! Property tests for the remap circuits and generator.

use proptest::prelude::*;
use stbpu_remap::{Circuit, CompiledCircuit, Generator, HwConstraints, Layer, RemapSet, SboxKind};
use std::sync::OnceLock;

/// `n` nonzero compression masks over `width` bits (deterministic LCG).
fn masks(width: u32, n: usize, seed: u64) -> Vec<u128> {
    let full = u128::MAX >> (128 - width);
    let mut x = seed as u128 | 1;
    (0..n)
        .map(|_| loop {
            x = x
                .wrapping_mul(0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645)
                .wrapping_add(0x5851_f42d_4c95_7f2d_1405_7b7e_f767_814f);
            if (x >> 7) & full != 0 {
                break (x >> 7) & full;
            }
        })
        .collect()
}

/// Boxes tiling `width` bits: 4-bit PRESENT/SPONGENT, then 3-bit boxes
/// from bit `tail3_from` on.
fn tiling(width: u32, tail3_from: u32) -> Layer {
    let mut boxes = Vec::new();
    let mut off = 0;
    while off < width {
        let kind = match off {
            o if o >= tail3_from => SboxKind::Tail3,
            o if o % 8 == 0 => SboxKind::Present4,
            _ => SboxKind::Spongent4,
        };
        boxes.push((off, kind));
        off += kind.width();
    }
    Layer::Substitute(boxes)
}

/// Generator circuits (every Table II geometry plus others) and
/// hand-built circuits covering the fusion edge cases, each with its
/// compiled form.
fn equivalence_fixtures() -> &'static [(String, Circuit, CompiledCircuit)] {
    static FIXTURES: OnceLock<Vec<(String, Circuit, CompiledCircuit)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut all: Vec<(String, Circuit)> = RemapSet::standard()
            .circuits()
            .iter()
            .map(|(name, c)| (name.to_string(), (*c).clone()))
            .collect();
        for (i, o) in [(24, 6), (48, 12), (64, 20), (112, 30)] {
            let c = Generator::new(HwConstraints::for_geometry(i, o), 5)
                .generate(1, 30)
                .expect("feasible geometry");
            all.push((format!("generated {i}->{o}"), c));
        }
        let rev = |w: u32| Layer::Permute((0..w).rev().collect());
        let hand = [
            (
                "leading permute",
                20,
                vec![rev(20), tiling(20, 20), Layer::Compress(masks(20, 9, 1))],
            ),
            (
                "leading compress",
                100,
                vec![Layer::Compress(masks(100, 40, 2)), tiling(40, 40), rev(40)],
            ),
            (
                "stage wider than 64 bits",
                120,
                vec![
                    tiling(120, 120),
                    rev(120),
                    tiling(120, 108),
                    Layer::Compress(masks(120, 50, 3)),
                ],
            ),
            (
                "3-bit boxes across a byte and bit 64",
                66,
                vec![tiling(66, 0), rev(66), Layer::Compress(masks(66, 33, 4))],
            ),
            (
                "trailing substitution",
                16,
                vec![Layer::Compress(masks(16, 12, 5)), tiling(12, 0)],
            ),
        ];
        for (name, width, layers) in hand {
            all.push((name.to_string(), Circuit::new(width, layers).expect(name)));
        }
        all.into_iter()
            .map(|(name, c)| {
                let fast = CompiledCircuit::new(&c);
                (name, c, fast)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Canonical circuit outputs are pure functions of (key, input) and
    /// stay in range for arbitrary inputs.
    #[test]
    fn canonical_pure_and_in_range(psi in any::<u32>(), pc in any::<u64>(), aux in any::<u16>()) {
        let r = RemapSet::standard();
        let pc = pc & ((1 << 48) - 1);
        prop_assert_eq!(r.r2(psi, pc), r.r2(psi, pc));
        prop_assert!(r.r2(psi, pc) < 256);
        prop_assert!(r.r4(psi, aux, pc) < (1 << 14));
        let (i, t) = r.rt(psi, pc, aux);
        prop_assert!(i < (1 << 13) && t < (1 << 12));
    }

    /// Substitution and permutation layers are bijections: distinct inputs
    /// stay distinct through any S/P-only circuit.
    #[test]
    fn sp_layers_preserve_distinctness(a in any::<u16>(), b in any::<u16>()) {
        prop_assume!(a != b);
        let c = Circuit::new(
            16,
            vec![
                Layer::Substitute(vec![
                    (0, SboxKind::Present4),
                    (4, SboxKind::Spongent4),
                    (8, SboxKind::Present4),
                    (12, SboxKind::Spongent4),
                ]),
                Layer::Permute((0..16).rev().collect()),
            ],
        )
        .expect("valid circuit");
        prop_assert_ne!(c.eval(a as u128), c.eval(b as u128));
    }

    /// Compression layers only depend on the bits their masks select.
    #[test]
    fn compress_mask_locality(x in any::<u8>(), noise in any::<u8>()) {
        let c = Circuit::new(16, vec![Layer::Compress(vec![0x0f, 0xf0])]).expect("valid");
        // Bits 8..16 are selected by no mask: they must never matter.
        let base = c.eval(x as u128);
        let with_noise = c.eval(x as u128 | ((noise as u128) << 8));
        prop_assert_eq!(base, with_noise);
    }

    /// The fused lookup tables evaluate every circuit exactly like the
    /// interpreted layer list.
    #[test]
    fn fused_tables_match_reference(x in any::<u128>()) {
        for (name, c, fast) in equivalence_fixtures() {
            prop_assert_eq!(fast.eval(x), c.eval(x), "{} on {:#x}", name, x);
        }
    }

    /// The generator always respects the critical-path constraint it was
    /// given, across random feasible geometries.
    #[test]
    fn generator_respects_budget(inb in 24u32..100, outb in 6u32..20, seed in any::<u64>()) {
        prop_assume!(outb < inb);
        let cs = HwConstraints::for_geometry(inb, outb);
        if let Ok(c) = Generator::new(cs, seed).generate(1, 30) {
            let cost = c.cost();
            prop_assert!(cost.critical_path <= cs.max_critical_path);
            prop_assert!(cost.total_transistors <= cs.max_total_transistors);
            prop_assert_eq!(c.input_bits(), inb);
            prop_assert_eq!(c.output_bits(), outb);
        }
    }
}
