//! Hardware remapping functions for STBPU (Section V of the paper).
//!
//! STBPU replaces the baseline BPU mapping functions ①–④ with *keyed*
//! remapping functions R1..4 (plus Rt and Rp for TAGE and Perceptron
//! predictors). The functions are non-cryptographic hardware hashes built
//! from lightweight-cipher primitives — 4→4/3→3 S-boxes from PRESENT and
//! SPONGENT, permutation (P-) boxes and compressing XOR (C-S) boxes —
//! subject to three constraints:
//!
//! * **C1** — computable within one clock cycle: ≤ 45 series transistors on
//!   the critical path (the paper's budget for a modern pipeline stage).
//! * **C2** — uniformity: outputs uniformly distributed over the output
//!   space (validated with balls-and-bins coefficient of variation).
//! * **C3** — avalanche: one flipped input bit flips ~50 % of output bits,
//!   with low variance (strict avalanche criterion).
//!
//! The crate provides:
//!
//! * [`Circuit`] — a layered gate-level model with evaluation and a
//!   transistor cost model ([`CircuitCost`]),
//! * [`Generator`] — the automated remap-generation algorithm of
//!   Section V-A (randomized layer-by-layer construction with constraint
//!   checking and weight adaptation),
//! * [`analysis`] — the C2/C3 validators and the weighted scoring of
//!   Section V-B,
//! * [`RemapSet`] — canonical, deterministically generated instances of
//!   R1..4, Rt and Rp matching the I/O geometry of Table II,
//! * [`CompiledCircuit`] — circuits lowered once into fused S-box→linear
//!   lookup tables (~28 KiB for all six canonical circuits), evaluated
//!   allocation-free on the simulator hot path (bit-identical to the
//!   interpreted evaluation).
//!
//! # Example
//!
//! ```
//! use stbpu_remap::RemapSet;
//!
//! let remaps = RemapSet::standard();
//! let a = remaps.r1(0x1234_5678, 0x0000_7fff_dead_beef);
//! let b = remaps.r1(0x1234_5679, 0x0000_7fff_dead_beef);
//! // Changing one key bit re-maps the branch somewhere else.
//! assert_ne!((a.0, a.1, a.2), (b.0, b.1, b.2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod canonical;
mod circuit;
mod compiled;
mod generator;
mod primitive;

pub use canonical::RemapSet;
pub use circuit::{Circuit, CircuitCost, Layer};
pub use compiled::CompiledCircuit;
pub use generator::{GenError, Generator, HwConstraints};
pub use primitive::{SboxKind, PRESENT_SBOX, SPONGENT_SBOX};

/// Series-transistor depth of a 4→4 S-box (two-level logic).
pub const SBOX4_DEPTH: u32 = 8;
/// Total transistor count of a 4→4 S-box implemented as combinatorial
/// logic / transistor matrix.
pub const SBOX4_TRANSISTORS: u32 = 28;
/// Series-transistor depth of a 3→3 S-box.
pub const SBOX3_DEPTH: u32 = 6;
/// Total transistor count of a 3→3 S-box.
pub const SBOX3_TRANSISTORS: u32 = 20;
/// Series-transistor depth of a 2-input CMOS XOR gate.
pub const XOR2_DEPTH: u32 = 4;
/// Total transistor count of a 2-input CMOS XOR gate.
pub const XOR2_TRANSISTORS: u32 = 8;
/// The paper's absolute maximum series transistors per clock (C1).
pub const MAX_CRITICAL_PATH: u32 = 45;
