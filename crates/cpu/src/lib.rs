//! Composed SMT CPU-core model with the paper's Table I processor presets.
//!
//! [`Core`] wires together the frontend simulator (`leaky-frontend`), the
//! backend throughput model (`leaky-backend`), the RAPL energy counter
//! (`leaky-power`) and noisy timers into the object the attacks run against.
//! A core hosts two hardware threads; the covert channels place sender and
//! receiver on them (MT attacks) or run both roles on one thread (non-MT
//! attacks).
//!
//! The four evaluated machines (Table I) are available as
//! [`ProcessorModel`] presets, including their frequency, LSD availability,
//! SMT and SGX support, and a per-machine timing-noise level fitted to the
//! paper's error rates.
//!
//! # Examples
//!
//! ```
//! use leaky_cpu::{Core, ProcessorModel};
//! use leaky_frontend::ThreadId;
//! use leaky_isa::{same_set_chain, Alignment, DsbSet};
//!
//! let mut core = Core::new(ProcessorModel::gold_6226(), 42);
//! let chain = same_set_chain(0x0041_8000, DsbSet::new(0), 8, Alignment::Aligned);
//! let t0 = core.rdtscp(ThreadId::T0);
//! core.run_loop(ThreadId::T0, &chain, 100);
//! let t1 = core.rdtscp(ThreadId::T0);
//! assert!(t1 > t0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod core_model;
pub mod model;
pub mod timer;

pub use core_model::{Core, LoopRun, ReplayStats, ThreadWork};
pub use model::{MicrocodePatch, ProcessorModel};
pub use timer::{NoiseModel, Timer};
