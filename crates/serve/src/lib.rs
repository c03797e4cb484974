//! # bsom-serve
//!
//! The TCP serving front-end of the bSOM reproduction: the layer that turns
//! the in-process train-while-serve [`SomService`](bsom_engine::SomService)
//! into a network service (ROADMAP north star: serving this workload at
//! fleet scale).
//!
//! * [`wire`] — the hand-rolled, length-prefixed, FNV-1a-64-checksummed
//!   frame format (the checkpoint frames' sibling). Malformed input is
//!   rejected as a typed [`WireError`], never a panic —
//!   proptested by `tests/wire_corruption.rs`.
//! * [`server`] — the `std::net` listener, one thread per connection that
//!   reads a request, classifies it as one engine batch and writes the
//!   response (responses strictly in request order, so clients may
//!   pipeline; a full engine queue surfaces as a typed `Overloaded`
//!   response), the wire health endpoint, and graceful drain with an
//!   optional checkpoint hook. [`Server::bind_registry`] fronts a whole
//!   [`MapRegistry`](bsom_engine::MapRegistry) — format-2 frames address
//!   tenants by id, format-1 frames keep working against the default
//!   tenant.
//! * [`client`] — a blocking client, splittable for pipelining.
//! * [`loadgen`] — the open-loop (coordinated-omission-free) and
//!   closed-loop load harness behind the `loadgen` binary.
//! * [`mod@bench`] — the measured figures tracked in `BENCH_serve.json`.
//!
//! Both binaries (`bsom-serve`, `loadgen`) call
//! [`bsom_signature::validate_env_dispatch`] before doing anything else, so
//! a bad `BSOM_DISPATCH` fails fast at startup instead of deep in a worker.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bench;
pub mod client;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use client::{ClientError, ServeClient};
pub use server::{DrainHook, SchedulerSnapshot, ServeConfig, Server};
pub use wire::{DrainSummary, ErrorCode, WireError, WireHealth, WireMessage};
