#![warn(missing_docs)]

//! `qr-server` — the `quickrecd` record/replay service.
//!
//! The binary and library behind the daemon: a `std::net`
//! (Unix-socket or TCP) server speaking a length-prefixed binary
//! protocol built on `qr_common::frame` ([`proto`]) through one
//! event loop (`event`: a `poll(2)` readiness loop owning the listener,
//! thousands of connections and the session registry), a bounded worker
//! pool with backpressure, and job execution (RECORD / REPLAY / VERIFY
//! / RACES) over the simulator stack, persisting results into a
//! `qr_store::RecordingStore`; jobs post their transitions back to the
//! loop. Graceful shutdown drains in-flight jobs and the store's atomic
//! commit protocol guarantees no torn entry is ever visible.

pub mod client;
pub mod daemon;
mod event;
mod obs;
mod pool;
pub mod proto;
mod registry;
pub mod server;

pub use client::Client;
pub use proto::{Endpoint, Request, Response};
pub use registry::QUERY_CACHE_CAP;
pub use server::{Server, ServerConfig, ServerHandle};
