//! `mfcsld`: a batch model-checking daemon for mean-field models.
//!
//! This crate is std-only by design (the workspace builds offline): the HTTP
//! server, the JSON wire format, and the client are all hand-rolled on top of
//! `std::net`. The daemon keeps [`store::WarmSession`]s alive across requests
//! so repeated checks against the same `(model, params, tolerances)` key hit
//! the memoizing engine's caches instead of re-solving trajectories.

#![warn(missing_docs)]
// Panic audit: production daemon code must not contain panic paths — a
// panicking handler costs a connection, but a panic on a shared path (locks,
// spawning, rendering) could cost the whole daemon. Tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod reactor;
pub mod registry;
pub mod server;
pub mod snapshot;
pub mod store;

pub use client::{CheckOutcome, CheckRequest, Client, ClientError, WireVerdict};
pub use json::{Json, JsonError};
pub use reactor::{ReactorOptions, RequestHandler};
pub use registry::ModelRegistry;
pub use server::{Server, ServerConfig};
pub use snapshot::{SessionSnapshot, SnapshotEntry};
pub use store::{SessionKey, SessionStore, SimKey, WarmSession};
