//! # serve
//!
//! Simulation-as-a-service for `llama3sim`: the shared concurrent
//! [`Dispatcher`] every front end answers queries through, and the
//! thread-per-connection HTTP/1.1 daemon (`llama3sim serve`) that
//! exposes it on a socket.
//!
//! The query/response *types* live below in
//! [`parallelism_core::query`]; this crate owns everything that
//! executes them — computation fan-out, the bounded response cache,
//! in-flight coalescing, and the network endpoint with its
//! trust-boundary caps.
//!
//! ```
//! use serve::Dispatcher;
//! use parallelism_core::query::{AnalyzeMode, Query};
//!
//! let d = Dispatcher::new();
//! let response = d.dispatch(&Query::Analyze(AnalyzeMode::List)).unwrap();
//! assert!(response.render_human().contains("scaled_405b"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod client;
pub mod coalesce;
pub mod dispatch;
pub mod http;

pub use client::ServeClient;
pub use coalesce::{
    cached_run_or_follow, BoundedFifoCache, CachedOutcome, FlightMap, FlightOutcome,
};
pub use dispatch::Dispatcher;
pub use http::Server;
