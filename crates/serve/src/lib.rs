//! `drift-bottle serve`: a streaming online mode for the Drift-Bottle
//! failure localizer (DESIGN.md §15).
//!
//! * [`frame`] — the length-prefixed big-endian wire protocol: flow
//!   records in, live warnings / stats / snapshots out.
//! * [`server`] — the std-only daemon's listener and session loop: TCP
//!   (thread per connection) or stdin/stdout.
//! * `registry` — one incremental [`db_core::Engine`] per topology, its
//!   warning and pulse publishers, snapshot persistence across restarts.
//! * `prom` — the Prometheus scrape endpoint.
//! * [`client`] — the TCP client `drift-bottle top`, `load_gen` and the
//!   tests share. (`replay`, hidden from the docs, is not API: it is the
//!   simulated failure trace and the pulse-order check that `load_gen` and
//!   the session tests share.)
//!
//! The `load_gen` binary in this crate is a client and CI probe: it
//! replays a recorded failure trace against a running daemon and checks
//! the injected link is warned. Throughput and latency of the daemon are
//! measured by `benchmark/` (`serve-failure-closed`, `serve-failure-paced`).

pub mod client;
pub mod frame;
mod prom;
mod registry;
#[doc(hidden)]
pub mod replay;
pub mod server;

pub use client::Client;
pub use frame::{
    decode_frame, encode_frame, read_frame, write_frame, Frame, PulseMsg, PulsePoint, Record,
    WarningMsg, MAX_FRAME_BYTES, PROTO_VERSION,
};
pub use registry::parse_topo;
pub use server::{serve_stdio, ServeOptions, Server, DEFAULT_ADDR};
