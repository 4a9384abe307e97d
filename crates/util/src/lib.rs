//! Substrate utilities shared by the interactive-set-discovery crates.
//!
//! Everything here is deliberately dependency-free so the whole workspace can
//! be built offline:
//!
//! * [`hash`] — an `FxHash`-style fast hasher plus `HashMap`/`HashSet` type
//!   aliases keyed on it (hot maps are keyed by small integers, where SipHash
//!   is needlessly slow), and the 128-bit incremental [`Fingerprint`] the
//!   selection hot path uses as an allocation-free sub-collection identity.
//! * [`intern`] — the string name table behind entity interning and
//!   categorical dictionaries: dense first-appearance ids over one byte
//!   arena, probed by a hash that mixes every byte of the name.
//! * [`faults`] — deterministic fault injection behind named hook sites
//!   (seeded schedules of I/O errors, short writes, delays, and panics),
//!   armed by the chaos test suite and the `SETDISC_FAULTS` environment
//!   variable; free (one atomic load) when disarmed.
//! * [`journal`] — rotating, fsync-batched, line-oriented journal files
//!   with a torn-tail-tolerant reader: the durable substrate under the
//!   service's request/response journal and its deterministic replay.
//! * [`obs`] — vendor-free telemetry: a lock-free metric core (monotone
//!   counters, gauges, log2-bucketed histograms merged from per-thread
//!   shards), span timing at the same named sites [`faults`] trips (armed
//!   via `SETDISC_OBS`; one relaxed load when disarmed), and the leveled
//!   stderr logger every binary's diagnostics flow through.
//! * [`pool`] — the scoped worker pool behind the experiment harness's
//!   `par_map`, sized by the `SETDISC_THREADS` knob and scheduled by an
//!   atomic claim counter.
//! * [`mem`] — the [`mem::HeapSize`] accounting trait behind the memory
//!   governor's global byte budget: exact owned-heap-bytes reporting for
//!   the workspace's own types, surfaced through the [`obs`] memory
//!   gauges.
//! * [`math`] — exact integer math for the paper's cost lower bounds, most
//!   importantly `⌈n·log₂ n⌉` computed in fixed point so pruning decisions
//!   never depend on float rounding.
//! * [`rng`] — a small, seedable xoshiro256++ PRNG with the handful of
//!   distributions the generators need. Keeping the PRNG local makes every
//!   experiment reproducible independent of `rand` version bumps.
//! * [`report`] — minimal table/CSV/markdown emitters for the experiment
//!   harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod hash;
pub mod intern;
pub mod journal;
pub mod math;
pub mod mem;
pub mod obs;
pub mod pool;
pub mod report;
pub mod rng;

pub use hash::{Fingerprint, FxHashMap, FxHashSet, FxHasher};
pub use rng::Rng;
