//! `drift-bottle serve`: a streaming online mode for the Drift-Bottle
//! failure localizer (DESIGN.md §15).
//!
//! * [`frame`] — the length-prefixed big-endian wire protocol: flow
//!   records in, live warnings / stats / snapshots out.
//! * [`server`] — the std-only daemon: one incremental
//!   [`db_core::Engine`] per topology behind TCP (thread per connection)
//!   or stdin/stdout, with snapshot persistence across restarts.
//!
//! The `load_gen` binary in this crate is a client and CI probe: it
//! replays a recorded failure trace against a running daemon and checks
//! the injected link is warned. Throughput and latency of the daemon are
//! measured by `benchmark/` (`serve-failure-closed`, `serve-failure-paced`).

pub mod frame;
pub mod server;

pub use frame::{
    decode_frame, encode_frame, read_frame, write_frame, Frame, PulseMsg, PulsePoint, Record,
    WarningMsg, MAX_FRAME_BYTES, PROTO_VERSION,
};
pub use server::{parse_topo, serve_stdio, ServeOptions, Server, DEFAULT_ADDR};
