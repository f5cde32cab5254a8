//! Baseline branch-prediction-unit (BPU) substrate for the STBPU reproduction.
//!
//! This crate implements the hardware structures described in Section II-A of
//! *"STBPU: A Reasonably Secure Branch Prediction Unit"* (DSN 2022): the
//! branch target buffer ([`Btb`]), pattern history table ([`Pht`]), return
//! stack buffer ([`Rsb`]), the global history register and branch history
//! buffer ([`HistoryCtx`]), and the baseline mapping functions ①–⑤ of
//! Figure 1 / Table II ([`BaselineMapper`]).
//!
//! The crate also defines the two composition traits the rest of the
//! workspace is built on:
//!
//! * [`Mapper`] — how branch virtual addresses (and history state) are turned
//!   into indexes/tags/offsets of BPU structures, plus the control-plane
//!   hooks STBPU needs (secret-token switching, event counting). The
//!   [`BaselineMapper`] implements the reverse-engineered Skylake behaviour
//!   with *truncated* addresses; the STBPU mapper in `stbpu-core` implements
//!   keyed remapping over the full 48-bit address.
//! * [`Bpu`] — a complete predictor model (direction + target prediction)
//!   consumable by the trace simulator and the pipeline model.
//!
//! # Example
//!
//! ```
//! use stbpu_bpu::{BaselineMapper, Mapper};
//!
//! let m = BaselineMapper::new();
//! let c = m.btb1(0, 0x5555_dead_beef);
//! assert!(c.index < 512);
//! // Addresses that differ only above bit 30 collide in the baseline BTB —
//! // this is the aliasing that collision attacks exploit.
//! let c2 = m.btb1(0, 0x5555_dead_beef ^ (1 << 40));
//! assert_eq!(c, c2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod branch;
mod btb;
mod counter;
mod history;
mod map;
mod model;
mod pht;
mod rsb;
pub mod snap;
mod stats;

pub use addr::{EntityId, VirtAddr, VA_BITS, VA_MASK};
pub use branch::{BranchKind, BranchRecord};
pub use btb::{partition_set, Btb, BtbConfig, Eviction};
pub use counter::SaturatingCounter;
pub use history::{HistoryCtx, BHB_BITS, GHR_BITS_BASELINE, GHR_BITS_STBPU};
pub use map::{fold_u64, BaselineMapper, BtbCoord, ConservativeMapper, Mapper};
pub use model::{Bpu, BranchOutcome, MAX_THREADS};
pub use pht::Pht;
pub use rsb::Rsb;
pub use snap::{check_len, SnapError, StateReader, StateWriter};
pub use stats::BpuStats;

/// Number of BTB sets in the Skylake-like baseline (4096 entries, 8 ways).
pub const BTB_SETS: usize = 512;
/// BTB associativity in the baseline model.
pub const BTB_WAYS: usize = 8;
/// Compressed tag width stored per baseline BTB entry.
pub const BTB_TAG_BITS: u32 = 8;
/// Offset bits stored per baseline BTB entry.
pub const BTB_OFFSET_BITS: u32 = 5;
/// Number of PHT entries (16k two-bit saturating counters).
pub const PHT_ENTRIES: usize = 1 << 14;
/// Number of RSB entries in the baseline model.
pub const RSB_ENTRIES: usize = 16;
