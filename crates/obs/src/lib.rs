//! `qr-obs`: the unified observability layer for QuickRec-RS.
//!
//! QuickRec's headline result is an *overhead account* — hardware chunk
//! recording is nearly free while the Capo3 software stack costs ~13% —
//! so a reproduction needs first-class instrumentation to see where
//! time and bytes go. This crate provides, with no dependencies beyond
//! `qr-common`:
//!
//! - [`metrics`]: a registry of counters, gauges, and fixed-bucket
//!   histograms (p50/p95/p99 readout), rendered as a Prometheus-style
//!   text exposition and validated by [`metrics::parse_exposition`].
//! - [`trace`]: a span journal (begin/end/instant events with dense
//!   thread ids and session ids) serialized through the
//!   `qr_common::frame` container, so traces are CRC-verified and
//!   salvageable like every other QuickRec log.
//!
//! # Determinism by construction
//!
//! Nothing here is process-wide. A registry or a journal belongs to the
//! code that created it — the daemon's event loop, a CLI command, the
//! benchmark — and the recorder, replayer and store never see one: they
//! return what they counted in the values they already return
//! (`RecorderStats`, the chunk log, the store `Manifest`,
//! `ReplayOutcome`, `QueryEngine::seek_stats`), and their caller
//! decides what to fold into its own registry. No deterministic path
//! can read an observation back, because none holds one.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{parse_exposition, Counter, Exposition, Gauge, Histogram, Registry, LATENCY_US};
pub use trace::{EventKind, Journal, Span, TraceEvent};
