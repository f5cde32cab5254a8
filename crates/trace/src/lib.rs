//! Branch-trace substrate: trace format, streaming event sources, and
//! synthetic workload generation.
//!
//! The paper evaluates prediction accuracy on Intel Processor Trace
//! captures of a live machine — SPEC CPU 2017 plus user/server applications
//! with naturally occurring context switches, mode switches and interrupts
//! (Section VII-B1). Neither the hardware nor the captures are available,
//! so this crate builds the documented substitute (DESIGN.md §2): a
//! deterministic, profile-driven workload generator that emits the same
//! *kind* of stream.
//!
//! Each named workload (`500.perlbench` … `obsstudio_30s`) has a
//! [`WorkloadProfile`] describing its code footprint, branch mix, pattern
//! complexity, call depth, and OS interaction rates. The
//! [`TraceGenerator`] walks per-entity synthetic programs (functions,
//! loops, periodic conditionals, indirect jumps with context-dependent
//! targets, well-nested calls/returns) and interleaves kernel excursions —
//! producing a stream of [`TraceEvent`]s any `stbpu_bpu::Bpu` model can
//! consume.
//!
//! # Materialized and streaming traces
//!
//! Consumers choose between two representations:
//!
//! * [`Trace`] — a fully materialized event vector with O(1) metadata
//!   (thread/branch counts maintained incrementally);
//! * [`EventSource`] — a streaming iterator of events plus declared
//!   metadata. [`Trace::source`] adapts a materialized trace,
//!   [`TraceGenerator::into_source`] streams generate-as-you-simulate with
//!   O(1) memory (10M+ branch runs never build a vector),
//!   [`serialize::TraceReader`] streams the line-format file format,
//!   [`binfmt::BinTraceReader`] streams the compact binary `.stbt`
//!   format, [`cbp::CbpReader`] streams CBP-style championship `.cbp`
//!   captures, and [`open_trace_file`] picks among them by magic.
//!
//! # Example
//!
//! ```
//! use stbpu_trace::{profiles, EventSource, TraceGenerator};
//!
//! let profile = profiles::by_name("505.mcf").unwrap();
//! let trace = TraceGenerator::new(profile, 42).generate(2_000);
//! assert_eq!(trace.branch_count(), 2_000);
//!
//! // The streaming path yields bit-identical events without materializing.
//! let mut src = TraceGenerator::new(profile, 42).into_source(2_000);
//! let streamed = src.collect_trace().unwrap();
//! assert_eq!(streamed.events(), trace.events());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbv;
pub mod binfmt;
pub mod cbp;
mod event;
mod file;
mod generator;
pub mod profiles;
mod program;
pub mod serialize;
mod source;

pub use bbv::{extract_bbv, BbvProfile, SliceProfile, DEFAULT_SLICE_BRANCHES};
pub use cbp::{read_cbp_trace, write_cbp_trace, CbpError, CbpReader, CbpWriter};
pub use event::{Trace, TraceEvent};
pub use file::{
    detect_format, open_trace_file, open_trace_stream, TraceFileFormat, TraceFileSource,
    TraceFileWriter, TraceStreamSource,
};
pub use generator::{GeneratorSource, TraceGenerator};
pub use profiles::{WorkloadClass, WorkloadProfile};
pub use source::{DecodeError, EventSource, SourceError, TraceSource};
