//! The `drift-bottle serve` wire protocol (DESIGN.md §15).
//!
//! Every frame on the stream is `u32` big-endian payload length followed by
//! the payload; the payload's first byte is the opcode, the rest is encoded
//! with [`db_util::wire`] (big-endian, length-prefixed sequences). The
//! format is versioned by [`PROTO_VERSION`] carried in `Hello`/`HelloAck`.
//!
//! Client → server: `Hello`, `FlowDef`, `Records`, `AdvanceTo`,
//! `Subscribe`, `StatsReq`, `SnapshotReq`, `Shutdown`, `PulseReq`,
//! `PulseSub`.
//! Server → client: `HelloAck`, `Stats`, `IngestAck`, `Snapshot`, `Bye`,
//! `Warning`, `Pulse`, `Error`. Subscribers additionally receive a
//! `Warning` frame per live warning, in raise order; pulse subscribers a
//! `Pulse` frame per batch that completed monitoring windows.

use db_util::wire::{ByteReader, ByteWriter, WireError};
use std::io::{self, Read, Write};

/// Protocol version carried in `Hello`/`HelloAck`.
pub const PROTO_VERSION: u8 = 1;

/// Upper bound on one frame's payload, a corruption guard: a length prefix
/// beyond this is treated as a framing error, not an allocation request.
pub const MAX_FRAME_BYTES: u32 = 1 << 24;

const OP_HELLO: u8 = 0x01;
const OP_FLOW_DEF: u8 = 0x02;
const OP_RECORDS: u8 = 0x03;
const OP_ADVANCE_TO: u8 = 0x04;
const OP_SUBSCRIBE: u8 = 0x05;
const OP_STATS_REQ: u8 = 0x06;
const OP_SNAPSHOT_REQ: u8 = 0x07;
const OP_SHUTDOWN: u8 = 0x08;
const OP_PULSE_REQ: u8 = 0x09;
const OP_PULSE_SUB: u8 = 0x0A;
const OP_HELLO_ACK: u8 = 0x81;
const OP_STATS: u8 = 0x83;
const OP_INGEST_ACK: u8 = 0x84;
const OP_SNAPSHOT: u8 = 0x87;
const OP_BYE: u8 = 0x88;
const OP_WARNING: u8 = 0x90;
const OP_PULSE: u8 = 0x91;
const OP_ERROR: u8 = 0xEE;

/// One observed packet-at-switch event, the streaming analogue of the
/// simulator's `HopInfo` callback. `flags` bit 0 = ingress switch, bit 1 =
/// last switch before the destination host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Observation time, nanoseconds.
    pub at_ns: u64,
    /// Flow id (as registered via `Hello` traffic or `FlowDef`).
    pub flow: u32,
    /// Source switch of the flow.
    pub src: u16,
    /// Destination switch of the flow.
    pub dst: u16,
    /// Data sequence number within the flow.
    pub seq: u64,
    /// Packet size in bytes.
    pub size: u32,
    /// The switch the packet is at.
    pub node: u16,
    /// Index of `node` on the flow's path (0 = ingress).
    pub hop_index: usize,
    /// Whether `node` is the flow's ingress switch.
    pub is_ingress: bool,
    /// Whether `node` is the last switch before the destination host.
    pub is_last_switch: bool,
}

/// One warning as shipped to clients: equation (1) crossing at a switch.
#[derive(Debug, Clone, PartialEq)]
pub struct WarningMsg {
    /// Raise time, nanoseconds.
    pub at_ns: u64,
    /// The raising switch (`u16::MAX` for centralized variants' DCA).
    pub switch: u16,
    /// The localized link.
    pub link: u16,
    /// Index of the raising variant in the engine's variant list.
    pub variant: u8,
    /// Hop count of the aggregated inference at raise time.
    pub hop_now: u8,
    /// Top weight at raise time.
    pub w0: f64,
    /// Runner-up weight at raise time.
    pub w1: f64,
    /// The raising drifted header, verbatim (empty for centralized and
    /// side-table variants).
    pub header: Vec<u8>,
}

/// One flushed health-series sample inside a [`PulseMsg`]. `kind` is the
/// [`SeriesKind`](db_telemetry::scope::SeriesKind) wire code — kept as a
/// raw byte at the wire layer so unknown future kinds pass through intact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulsePoint {
    /// Series kind wire code (see `SeriesKind::code`).
    pub kind: u8,
    /// Link or switch ID (0 for the global queue-depth series).
    pub id: u16,
    /// Monitoring window index (`at_ns / interval_ns`).
    pub window: u64,
    /// Folded per-window value.
    pub value: f64,
}

/// One pulse of daemon health: the scope-series windows completed since
/// the subscriber's cursor, plus ingest latency percentiles and counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PulseMsg {
    /// Engine clock, nanoseconds.
    pub now_ns: u64,
    /// Cursor for the next poll: one past the highest window in `points`
    /// (unchanged from the request when no new window completed).
    pub next_window: u64,
    /// Ingest batch latency p50, microseconds (0 until samples exist).
    pub p50_us: f64,
    /// Ingest batch latency p90, microseconds.
    pub p90_us: f64,
    /// Ingest batch latency p99, microseconds.
    pub p99_us: f64,
    /// Flow records ingested so far.
    pub ingested: u64,
    /// Warnings raised so far.
    pub warnings: u64,
    /// Drifting headers currently parked at the engine.
    pub carriers: u64,
    /// Newly flushed series samples, in series order then window order.
    pub points: Vec<PulsePoint>,
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Open (or attach to) the engine for a topology. The server generates
    /// the monitored traffic matrix from `density`/`seed` exactly as the
    /// batch runner does, so a recorded trace with the same parameters
    /// replays cleanly. `window_cap` > 0 bounds carrier retention to that
    /// many monitoring windows (0 = unbounded).
    Hello {
        /// Must equal [`PROTO_VERSION`].
        proto: u8,
        /// Topology spec, e.g. `geant2012`, `grid:4x4`, `line:8`.
        topo: String,
        /// Traffic density for the generated flow set.
        density: f64,
        /// Traffic generation seed.
        seed: u64,
        /// Carrier retention bound in windows (0 = unbounded).
        window_cap: u32,
    },
    /// Register one extra flow (id, RTT, and its routed path) with every
    /// switch monitor on the path.
    FlowDef {
        /// Flow id; must not collide with a generated flow's id.
        id: u32,
        /// Path round-trip time in milliseconds.
        rtt_ms: f64,
        /// Path switches, ingress first.
        nodes: Vec<u16>,
        /// Path links, `links[i]` connects `nodes[i]` and `nodes[i+1]`.
        links: Vec<u16>,
    },
    /// A batch of flow records to ingest, in timestamp order.
    Records(Vec<Record>),
    /// Drive engine time forward (fires due window ticks) with no traffic.
    AdvanceTo {
        /// Target time, nanoseconds.
        t_ns: u64,
    },
    /// Ask for a live `Warning` frame per raise on this connection.
    Subscribe,
    /// Ask for a `Stats` frame.
    StatsReq,
    /// Ask for a `Snapshot` frame (also persists it server-side when the
    /// daemon was started with a snapshot path).
    SnapshotReq,
    /// Stop the daemon: persists the snapshot (if configured), answers
    /// `Bye`, and stops accepting connections.
    Shutdown,
    /// One-shot poll: ask for a single `Pulse` frame with every flushed
    /// window `>= from_window`.
    PulseReq {
        /// Inclusive window cursor (0 for everything retained).
        from_window: u64,
    },
    /// Subscribe to `Pulse` frames on this connection: an immediate one
    /// from `from_window`, then one per ingest/advance batch that
    /// completed at least one monitoring window.
    PulseSub {
        /// Inclusive window cursor for the initial pulse.
        from_window: u64,
    },
    /// `Hello` accepted; engine facts the client needs.
    HelloAck {
        /// Server's [`PROTO_VERSION`].
        proto: u8,
        /// The engine's configuration fingerprint (snapshot compatibility).
        fingerprint: u64,
        /// Monitoring tick interval, nanoseconds.
        interval_ns: u64,
        /// Switch count of the topology.
        nodes: u32,
        /// Link count of the topology.
        links: u32,
        /// Whether state was restored from a persisted snapshot.
        restored: bool,
    },
    /// Engine counters at a point in time. The first five fields are the
    /// v1 base encoding; the rest ride in a forward-compatible trailing
    /// extension block (a counted list of `u64`s — decoders read the
    /// fields they know and skip the rest, and a base-only frame from an
    /// older server decodes with the extension fields zeroed).
    Stats {
        /// Engine clock, nanoseconds.
        now_ns: u64,
        /// Window ticks fired so far.
        ticks: u64,
        /// Flow records ingested so far.
        ingested: u64,
        /// Warnings raised so far.
        warnings: u64,
        /// Drifting headers currently parked at the engine (exact count).
        carriers: u64,
        /// Monitoring windows flushed to the health series so far.
        windows: u64,
        /// Worst pulse-subscriber lag, in windows behind the flush
        /// watermark.
        pulse_lag: u64,
        /// Slow-tick watchdog: batches whose wall-clock handling exceeded
        /// the engine's monitoring interval.
        slow_ticks: u64,
    },
    /// A `Records`/`AdvanceTo` batch was applied; any warnings it raised.
    IngestAck {
        /// Records applied by the batch (0 for `AdvanceTo`).
        count: u32,
        /// Warnings the batch raised, in raise order.
        warnings: Vec<WarningMsg>,
    },
    /// The engine's serialized state.
    Snapshot(Vec<u8>),
    /// Acknowledges `Shutdown`.
    Bye,
    /// One live warning (subscribers only).
    Warning(WarningMsg),
    /// One health pulse (answers `PulseReq`; streamed to `PulseSub`
    /// connections).
    Pulse(PulseMsg),
    /// The previous frame was rejected; the connection stays usable.
    Error(String),
}

fn encode_record(w: &mut ByteWriter, r: &Record) {
    w.u64(r.at_ns);
    w.u32(r.flow);
    w.u16w(r.src);
    w.u16w(r.dst);
    w.u64(r.seq);
    w.u32(r.size);
    w.u16w(r.node);
    w.usize(r.hop_index);
    let mut flags = 0u8;
    if r.is_ingress {
        flags |= 1;
    }
    if r.is_last_switch {
        flags |= 2;
    }
    w.u8(flags);
}

fn decode_record(r: &mut ByteReader) -> Result<Record, WireError> {
    let at_ns = r.u64()?;
    let flow = r.u32()?;
    let src = r.u16w()?;
    let dst = r.u16w()?;
    let seq = r.u64()?;
    let size = r.u32()?;
    let node = r.u16w()?;
    let hop_index = r.usize()?;
    let flags = r.u8()?;
    Ok(Record {
        at_ns,
        flow,
        src,
        dst,
        seq,
        size,
        node,
        hop_index,
        is_ingress: flags & 1 != 0,
        is_last_switch: flags & 2 != 0,
    })
}

fn encode_warning(w: &mut ByteWriter, m: &WarningMsg) {
    w.u64(m.at_ns);
    w.u16w(m.switch);
    w.u16w(m.link);
    w.u8(m.variant);
    w.u8(m.hop_now);
    w.f64(m.w0);
    w.f64(m.w1);
    w.seq(m.header.len());
    for &b in &m.header {
        w.u8(b);
    }
}

fn decode_warning(r: &mut ByteReader) -> Result<WarningMsg, WireError> {
    let at_ns = r.u64()?;
    let switch = r.u16w()?;
    let link = r.u16w()?;
    let variant = r.u8()?;
    let hop_now = r.u8()?;
    let w0 = r.f64()?;
    let w1 = r.f64()?;
    let n = r.seq()?;
    let header = r.bytes(n)?.to_vec();
    Ok(WarningMsg {
        at_ns,
        switch,
        link,
        variant,
        hop_now,
        w0,
        w1,
        header,
    })
}

fn encode_pulse(w: &mut ByteWriter, m: &PulseMsg) {
    w.u64(m.now_ns);
    w.u64(m.next_window);
    w.f64(m.p50_us);
    w.f64(m.p90_us);
    w.f64(m.p99_us);
    w.u64(m.ingested);
    w.u64(m.warnings);
    w.u64(m.carriers);
    w.seq(m.points.len());
    for p in &m.points {
        w.u8(p.kind);
        w.u16w(p.id);
        w.u64(p.window);
        w.f64(p.value);
    }
}

fn decode_pulse(r: &mut ByteReader) -> Result<PulseMsg, WireError> {
    let now_ns = r.u64()?;
    let next_window = r.u64()?;
    let p50_us = r.f64()?;
    let p90_us = r.f64()?;
    let p99_us = r.f64()?;
    let ingested = r.u64()?;
    let warnings = r.u64()?;
    let carriers = r.u64()?;
    let n = r.seq()?;
    let mut points = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        points.push(PulsePoint {
            kind: r.u8()?,
            id: r.u16w()?,
            window: r.u64()?,
            value: r.f64()?,
        });
    }
    Ok(PulseMsg {
        now_ns,
        next_window,
        p50_us,
        p90_us,
        p99_us,
        ingested,
        warnings,
        carriers,
        points,
    })
}

/// Serialize a frame to its payload bytes (opcode first, no length prefix).
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match f {
        Frame::Hello {
            proto,
            topo,
            density,
            seed,
            window_cap,
        } => {
            w.u8(OP_HELLO);
            w.u8(*proto);
            w.str(topo);
            w.f64(*density);
            w.u64(*seed);
            w.u32(*window_cap);
        }
        Frame::FlowDef {
            id,
            rtt_ms,
            nodes,
            links,
        } => {
            w.u8(OP_FLOW_DEF);
            w.u32(*id);
            w.f64(*rtt_ms);
            w.seq(nodes.len());
            for &n in nodes {
                w.u16w(n);
            }
            w.seq(links.len());
            for &l in links {
                w.u16w(l);
            }
        }
        Frame::Records(records) => {
            w.u8(OP_RECORDS);
            w.seq(records.len());
            for r in records {
                encode_record(&mut w, r);
            }
        }
        Frame::AdvanceTo { t_ns } => {
            w.u8(OP_ADVANCE_TO);
            w.u64(*t_ns);
        }
        Frame::Subscribe => w.u8(OP_SUBSCRIBE),
        Frame::StatsReq => w.u8(OP_STATS_REQ),
        Frame::SnapshotReq => w.u8(OP_SNAPSHOT_REQ),
        Frame::Shutdown => w.u8(OP_SHUTDOWN),
        Frame::PulseReq { from_window } => {
            w.u8(OP_PULSE_REQ);
            w.u64(*from_window);
        }
        Frame::PulseSub { from_window } => {
            w.u8(OP_PULSE_SUB);
            w.u64(*from_window);
        }
        Frame::HelloAck {
            proto,
            fingerprint,
            interval_ns,
            nodes,
            links,
            restored,
        } => {
            w.u8(OP_HELLO_ACK);
            w.u8(*proto);
            w.u64(*fingerprint);
            w.u64(*interval_ns);
            w.u32(*nodes);
            w.u32(*links);
            w.u8(u8::from(*restored));
        }
        Frame::Stats {
            now_ns,
            ticks,
            ingested,
            warnings,
            carriers,
            windows,
            pulse_lag,
            slow_ticks,
        } => {
            w.u8(OP_STATS);
            w.u64(*now_ns);
            w.u64(*ticks);
            w.u64(*ingested);
            w.u64(*warnings);
            w.u64(*carriers);
            // Trailing extension block: counted u64s, skippable by old
            // decoders of future revisions (new fields append here).
            w.seq(3);
            w.u64(*windows);
            w.u64(*pulse_lag);
            w.u64(*slow_ticks);
        }
        Frame::IngestAck { count, warnings } => {
            w.u8(OP_INGEST_ACK);
            w.u32(*count);
            w.seq(warnings.len());
            for m in warnings {
                encode_warning(&mut w, m);
            }
        }
        Frame::Snapshot(bytes) => {
            w.u8(OP_SNAPSHOT);
            w.seq(bytes.len());
            for &b in bytes {
                w.u8(b);
            }
        }
        Frame::Bye => w.u8(OP_BYE),
        Frame::Warning(m) => {
            w.u8(OP_WARNING);
            encode_warning(&mut w, m);
        }
        Frame::Pulse(m) => {
            w.u8(OP_PULSE);
            encode_pulse(&mut w, m);
        }
        Frame::Error(msg) => {
            w.u8(OP_ERROR);
            w.str(msg);
        }
    }
    w.into_bytes()
}

/// Parse one frame from its payload bytes. Trailing bytes are an error.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut r = ByteReader::new(bytes);
    let op = r.u8()?;
    let frame = match op {
        OP_HELLO => Frame::Hello {
            proto: r.u8()?,
            topo: r.str()?,
            density: r.f64()?,
            seed: r.u64()?,
            window_cap: r.u32()?,
        },
        OP_FLOW_DEF => {
            let id = r.u32()?;
            let rtt_ms = r.f64()?;
            let n = r.seq()?;
            let mut nodes = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                nodes.push(r.u16w()?);
            }
            let n = r.seq()?;
            let mut links = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                links.push(r.u16w()?);
            }
            Frame::FlowDef {
                id,
                rtt_ms,
                nodes,
                links,
            }
        }
        OP_RECORDS => {
            let n = r.seq()?;
            let mut records = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                records.push(decode_record(&mut r)?);
            }
            Frame::Records(records)
        }
        OP_ADVANCE_TO => Frame::AdvanceTo { t_ns: r.u64()? },
        OP_SUBSCRIBE => Frame::Subscribe,
        OP_STATS_REQ => Frame::StatsReq,
        OP_SNAPSHOT_REQ => Frame::SnapshotReq,
        OP_SHUTDOWN => Frame::Shutdown,
        OP_PULSE_REQ => Frame::PulseReq {
            from_window: r.u64()?,
        },
        OP_PULSE_SUB => Frame::PulseSub {
            from_window: r.u64()?,
        },
        OP_HELLO_ACK => Frame::HelloAck {
            proto: r.u8()?,
            fingerprint: r.u64()?,
            interval_ns: r.u64()?,
            nodes: r.u32()?,
            links: r.u32()?,
            restored: r.u8()? != 0,
        },
        OP_STATS => {
            let now_ns = r.u64()?;
            let ticks = r.u64()?;
            let ingested = r.u64()?;
            let warnings = r.u64()?;
            let carriers = r.u64()?;
            // Extension block: absent in base (v1) frames, and future
            // revisions may append fields we skip.
            let (mut windows, mut pulse_lag, mut slow_ticks) = (0, 0, 0);
            if r.remaining() > 0 {
                let n = r.seq()?;
                for i in 0..n {
                    let v = r.u64()?;
                    match i {
                        0 => windows = v,
                        1 => pulse_lag = v,
                        2 => slow_ticks = v,
                        _ => {}
                    }
                }
            }
            Frame::Stats {
                now_ns,
                ticks,
                ingested,
                warnings,
                carriers,
                windows,
                pulse_lag,
                slow_ticks,
            }
        }
        OP_INGEST_ACK => {
            let count = r.u32()?;
            let n = r.seq()?;
            let mut warnings = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                warnings.push(decode_warning(&mut r)?);
            }
            Frame::IngestAck { count, warnings }
        }
        OP_SNAPSHOT => {
            let n = r.seq()?;
            Frame::Snapshot(r.bytes(n)?.to_vec())
        }
        OP_BYE => Frame::Bye,
        OP_WARNING => Frame::Warning(decode_warning(&mut r)?),
        OP_PULSE => Frame::Pulse(decode_pulse(&mut r)?),
        OP_ERROR => Frame::Error(r.str()?),
        // Unknown opcode, reported at its offset (0) with its value.
        other => {
            return Err(WireError::Overflow {
                at: 0,
                value: u64::from(other),
            })
        }
    };
    r.finish()?;
    Ok(frame)
}

/// Write one length-prefixed frame. Does **not** flush: callers batching
/// frames flush once at the end of the batch.
pub fn write_frame(out: &mut impl Write, f: &Frame) -> io::Result<()> {
    let payload = encode_frame(f);
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME_BYTES")
        })?;
    out.write_all(&len.to_be_bytes())?;
    out.write_all(&payload)
}

/// Read one length-prefixed frame. `Ok(None)` on clean end-of-stream (EOF
/// at a frame boundary); corrupt framing or payloads are `InvalidData`.
pub fn read_frame(input: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len = [0u8; 4];
    match input.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_BYTES"),
        ));
    }
    let len = usize::try_from(len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame length exceeds usize"))?;
    let mut payload = vec![0u8; len];
    input.read_exact(&mut payload)?;
    decode_frame(&payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(i: u64) -> Record {
        Record {
            at_ns: 1_000_000 + i * 7,
            flow: u32::try_from(i % 11).unwrap(),
            src: 3,
            dst: 9,
            seq: i,
            size: 1400,
            node: u16::try_from(i % 5).unwrap(),
            hop_index: usize::try_from(i % 4).unwrap(),
            is_ingress: i.is_multiple_of(4),
            is_last_switch: i % 4 == 3,
        }
    }

    fn sample_warning() -> WarningMsg {
        WarningMsg {
            at_ns: 123_456_789,
            switch: 7,
            link: 12,
            variant: 0,
            hop_now: 5,
            w0: 28.5,
            w1: 11.25,
            header: vec![0x12, 0x00, 0xfe, 0x07, 0x44],
        }
    }

    #[test]
    fn every_frame_round_trips() {
        let frames = vec![
            Frame::Hello {
                proto: PROTO_VERSION,
                topo: "geant2012".into(),
                density: 1.0,
                seed: 42,
                window_cap: 8,
            },
            Frame::FlowDef {
                id: 900,
                rtt_ms: 14.5,
                nodes: vec![0, 4, 9],
                links: vec![2, 7],
            },
            Frame::Records((0..9).map(sample_record).collect()),
            Frame::Records(Vec::new()),
            Frame::AdvanceTo { t_ns: 5_000_000 },
            Frame::Subscribe,
            Frame::StatsReq,
            Frame::SnapshotReq,
            Frame::Shutdown,
            Frame::HelloAck {
                proto: PROTO_VERSION,
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                interval_ns: 4_000_000,
                nodes: 40,
                links: 61,
                restored: true,
            },
            Frame::PulseReq { from_window: 12 },
            Frame::PulseSub { from_window: 0 },
            Frame::Stats {
                now_ns: 88,
                ticks: 3,
                ingested: 1_000_000,
                warnings: 17,
                carriers: 250,
                windows: 40,
                pulse_lag: 2,
                slow_ticks: 1,
            },
            Frame::IngestAck {
                count: 4096,
                warnings: vec![sample_warning()],
            },
            Frame::Snapshot(vec![1, 2, 3, 255, 0]),
            Frame::Bye,
            Frame::Warning(sample_warning()),
            Frame::Pulse(PulseMsg {
                now_ns: 96_000_000,
                next_window: 25,
                p50_us: 42.5,
                p90_us: 260.0,
                p99_us: 905.75,
                ingested: 3_000_000,
                warnings: 9,
                carriers: 17,
                points: vec![
                    PulsePoint {
                        kind: 0,
                        id: 12,
                        window: 24,
                        value: 28.5,
                    },
                    PulsePoint {
                        kind: 7,
                        id: 0,
                        window: 24,
                        value: 131.0,
                    },
                ],
            }),
            Frame::Pulse(PulseMsg {
                now_ns: 0,
                next_window: 0,
                p50_us: 0.0,
                p90_us: 0.0,
                p99_us: 0.0,
                ingested: 0,
                warnings: 0,
                carriers: 0,
                points: Vec::new(),
            }),
            Frame::Error("bad density".into()),
        ];
        for f in frames {
            let bytes = encode_frame(&f);
            assert_eq!(decode_frame(&bytes).unwrap(), f, "round trip of {f:?}");
        }
    }

    #[test]
    fn stats_decodes_base_frames_and_skips_unknown_extension_fields() {
        // A v1 base frame (five u64s, no extension block) decodes with the
        // extension fields zeroed — old servers stay readable.
        let mut w = db_util::wire::ByteWriter::new();
        w.u8(0x83);
        for v in [7u64, 3, 500, 2, 11] {
            w.u64(v);
        }
        let f = decode_frame(&w.into_bytes()).unwrap();
        assert_eq!(
            f,
            Frame::Stats {
                now_ns: 7,
                ticks: 3,
                ingested: 500,
                warnings: 2,
                carriers: 11,
                windows: 0,
                pulse_lag: 0,
                slow_ticks: 0,
            }
        );
        // A future frame with extra extension fields decodes too, the
        // unknown tail skipped.
        let mut w = db_util::wire::ByteWriter::new();
        w.u8(0x83);
        for v in [7u64, 3, 500, 2, 11] {
            w.u64(v);
        }
        w.seq(5);
        for v in [40u64, 1, 0, 999, 1234] {
            w.u64(v);
        }
        let f = decode_frame(&w.into_bytes()).unwrap();
        assert_eq!(
            f,
            Frame::Stats {
                now_ns: 7,
                ticks: 3,
                ingested: 500,
                warnings: 2,
                carriers: 11,
                windows: 40,
                pulse_lag: 1,
                slow_ticks: 0,
            }
        );
    }

    #[test]
    fn pulse_round_trips_and_rejects_truncation_at_every_length() {
        let pulse = Frame::Pulse(PulseMsg {
            now_ns: 5,
            next_window: 3,
            p50_us: 1.5,
            p90_us: 2.5,
            p99_us: 9.0,
            ingested: 100,
            warnings: 1,
            carriers: 0,
            points: vec![PulsePoint {
                kind: 2,
                id: 4,
                window: 2,
                value: 1.0,
            }],
        });
        let bytes = encode_frame(&pulse);
        assert_eq!(decode_frame(&bytes).unwrap(), pulse);
        for n in 0..bytes.len() {
            assert!(decode_frame(&bytes[..n]).is_err(), "prefix of {n} bytes");
        }
    }

    #[test]
    fn decode_rejects_unknown_opcode_and_trailing_bytes() {
        assert!(decode_frame(&[0x7F]).is_err());
        let mut bytes = encode_frame(&Frame::Bye);
        bytes.push(0);
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::TrailingBytes(_))
        ));
        assert!(decode_frame(&[]).is_err());
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let bytes = encode_frame(&Frame::Records((0..3).map(sample_record).collect()));
        for n in 0..bytes.len() {
            assert!(decode_frame(&bytes[..n]).is_err(), "prefix of {n} bytes");
        }
    }

    #[test]
    fn stream_framing_round_trips_and_eof_is_clean() {
        let mut buf = Vec::new();
        let sent = vec![
            Frame::StatsReq,
            Frame::Records((0..5).map(sample_record).collect()),
            Frame::Bye,
        ];
        for f in &sent {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cur = std::io::Cursor::new(buf);
        let mut got = Vec::new();
        while let Some(f) = read_frame(&mut cur).unwrap() {
            got.push(f);
        }
        assert_eq!(got, sent);
    }

    #[test]
    fn oversized_length_prefix_is_invalid_data_not_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(&[0; 8]);
        let mut cur = std::io::Cursor::new(buf);
        let err = read_frame(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
