//! The provenance flight recorder: a bounded, binary-framed ring of
//! cause-chain records.
//!
//! Metrics (counters, histograms) say *how often* the pipeline did
//! something; the flight recorder says *why a particular verdict came out*.
//! Each decision point of the localization chain appends one structured
//! [`FlightRecord`] — a flow got classified, a switch voted on a link, a
//! drifted inference merged (and possibly truncated links away), a warning
//! fired, a packet died on a failed link — and `drift-bottle explain`
//! replays the chain offline.
//!
//! Design rules, in priority order:
//!
//! 1. **Off by default, bit-for-bit identical when off.** The recorder is an
//!    `Option` handle exactly like the metrics registry: no handle, no code
//!    runs, results are unchanged.
//! 2. **Bounded memory.** The ring holds at most `capacity` records; older
//!    records are evicted and counted in [`FlightRecorder::dropped`], never
//!    silently. A flight recorder keeps the *most recent* history, which is
//!    the part that explains the verdict.
//! 3. **Stable binary format.** `.flight` files use the same schema-less
//!    big-endian codec as the checkpoint records (`db_util::wire`), with
//!    length-prefixed frames so a reader can skip records it does not
//!    understand. See DESIGN.md §11 for the byte layout.
//!
//! This crate stays network-agnostic: records carry plain integers
//! (`switch: u16`, `link: u16`, `flow: u32`), not topology types. The
//! `db-inference::provenance` module interprets them.

use db_util::sync::lock_recover;
use db_util::wire::{ByteReader, ByteWriter, WireError};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Mutex;

/// Magic bytes opening every `.flight` file.
pub const FLIGHT_MAGIC: [u8; 4] = *b"DBFL";
/// Current `.flight` format version.
pub const FLIGHT_VERSION: u16 = 1;

/// Why the simulator dropped a packet (failure-relevant drops only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DropKind {
    /// The link was administratively/physically down.
    Down = 0,
    /// The link corrupted the packet.
    Corrupt = 1,
    /// The egress queue overflowed.
    Queue = 2,
}

impl DropKind {
    fn from_u8(v: u8) -> Option<DropKind> {
        match v {
            0 => Some(DropKind::Down),
            1 => Some(DropKind::Corrupt),
            2 => Some(DropKind::Queue),
            _ => None,
        }
    }

    /// Wire discriminant (the inverse of [`DropKind::from_u8`]).
    fn as_u8(self) -> u8 {
        match self {
            DropKind::Down => 0,
            DropKind::Corrupt => 1,
            DropKind::Queue => 2,
        }
    }

    /// Lower-case name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DropKind::Down => "down",
            DropKind::Corrupt => "corrupt",
            DropKind::Queue => "queue",
        }
    }
}

/// One cause-chain record. Fields are plain integers so the telemetry crate
/// needs no knowledge of topology types; times are simulation nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightRecord {
    /// Run header: everything `explain` needs to re-evaluate equation (1)
    /// and score against ground truth. Written once, first, by the
    /// experiment harness.
    RunMeta {
        /// Failure injection time (ns).
        t_fail_ns: u64,
        /// Warning collection window `(from, to]` (ns).
        window_from_ns: u64,
        /// End of the collection window (ns).
        window_to_ns: u64,
        /// Sampling interval length (ns) — maps times to window indices.
        interval_ns: u64,
        /// Total links in the topology (for accuracy/FPR denominators).
        total_links: u32,
        /// Inference length k.
        k: u32,
        /// Warning threshold: minimum aggregations.
        hop_min: u32,
        /// Warning threshold: minimum average accusation strength.
        alpha: f64,
        /// Warning threshold: minimum dominance over the runner-up.
        beta: f64,
        /// Ground-truth failed link ids.
        ground_truth: Vec<u16>,
    },
    /// A flow's window closed and the classifier labeled it.
    FlowClassified {
        /// Classification time (ns).
        at_ns: u64,
        /// Classifying switch.
        switch: u16,
        /// Sampling-window index (tick count at classification).
        window: u32,
        /// Flow id.
        flow: u32,
        /// Classifier verdict: abnormal?
        abnormal: bool,
        /// FNV-1a 64 digest of the feature vector's IEEE-754 bit patterns.
        feature_digest: u64,
    },
    /// Algorithm 1 credited/debited a link on behalf of a flow.
    LocalVote {
        /// Vote time (ns).
        at_ns: u64,
        /// Voting switch.
        switch: u16,
        /// Sampling-window index.
        window: u32,
        /// The flow whose status produced the vote.
        flow: u32,
        /// The accused (or exonerated) link.
        link: u16,
        /// Weight contribution (+1 abnormal / −1 normal for Drift-Bottle).
        delta: f64,
    },
    /// One per-hop ⊕ step: drifted inference merged with the local one and
    /// re-truncated to k. `dropped_links` makes truncation losses visible.
    DriftMerged {
        /// Merge time (ns).
        at_ns: u64,
        /// Aggregating switch.
        switch: u16,
        /// The carrying flow.
        flow: u32,
        /// The carrying packet's sequence number.
        pkt_seq: u64,
        /// Aggregation count after this step.
        hop_now: u8,
        /// Digest of the incoming drifted inference (0 at ingress).
        in_digest: u64,
        /// Digest of the switch's local inference.
        local_digest: u64,
        /// Digest of the outgoing (truncated) aggregate.
        out_digest: u64,
        /// Top weight of the outgoing aggregate.
        w0: f64,
        /// Runner-up weight of the outgoing aggregate.
        w1: f64,
        /// The most accused link of the outgoing aggregate, if any.
        top_link: Option<u16>,
        /// Links whose weight the top-k truncation discarded in this step.
        dropped_links: Vec<u16>,
    },
    /// Equation (1) held: a warning was raised.
    WarningRaised {
        /// Raise time (ns).
        at_ns: u64,
        /// Raising switch.
        switch: u16,
        /// Accused link.
        link: u16,
        /// Aggregation count at the raise.
        hop_now: u8,
        /// Top weight.
        w0: f64,
        /// Runner-up weight.
        w1: f64,
        /// The α threshold actually compared: `alpha * hop_now`.
        alpha_lhs: f64,
        /// The β threshold actually compared: `beta * max(w1, 0)`.
        beta_lhs: f64,
        /// Whether the accused link is in the ground-truth set.
        ground_truth_hit: bool,
    },
    /// The simulator dropped a packet on a link — the physical evidence the
    /// classification chain reacts to.
    PacketDropped {
        /// Drop time (ns).
        at_ns: u64,
        /// The dropping link.
        link: u16,
        /// The victim flow.
        flow: u32,
        /// The victim packet's sequence number.
        pkt_seq: u64,
        /// Drop cause.
        kind: DropKind,
    },
}

const TAG_RUN_META: u8 = 0;
const TAG_FLOW_CLASSIFIED: u8 = 1;
const TAG_LOCAL_VOTE: u8 = 2;
const TAG_DRIFT_MERGED: u8 = 3;
const TAG_WARNING_RAISED: u8 = 4;
const TAG_PACKET_DROPPED: u8 = 5;

impl FlightRecord {
    /// Encode one record (tag + fields) into `w`.
    fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            FlightRecord::RunMeta {
                t_fail_ns,
                window_from_ns,
                window_to_ns,
                interval_ns,
                total_links,
                k,
                hop_min,
                alpha,
                beta,
                ground_truth,
            } => {
                w.u8(TAG_RUN_META);
                w.u64(*t_fail_ns);
                w.u64(*window_from_ns);
                w.u64(*window_to_ns);
                w.u64(*interval_ns);
                w.u32(*total_links);
                w.u32(*k);
                w.u32(*hop_min);
                w.f64(*alpha);
                w.f64(*beta);
                w.seq(ground_truth.len());
                for &l in ground_truth {
                    w.u16w(l);
                }
            }
            FlightRecord::FlowClassified {
                at_ns,
                switch,
                window,
                flow,
                abnormal,
                feature_digest,
            } => {
                w.u8(TAG_FLOW_CLASSIFIED);
                w.u64(*at_ns);
                w.u16w(*switch);
                w.u32(*window);
                w.u32(*flow);
                w.u8(u8::from(*abnormal));
                w.u64(*feature_digest);
            }
            FlightRecord::LocalVote {
                at_ns,
                switch,
                window,
                flow,
                link,
                delta,
            } => {
                w.u8(TAG_LOCAL_VOTE);
                w.u64(*at_ns);
                w.u16w(*switch);
                w.u32(*window);
                w.u32(*flow);
                w.u16w(*link);
                w.f64(*delta);
            }
            FlightRecord::DriftMerged {
                at_ns,
                switch,
                flow,
                pkt_seq,
                hop_now,
                in_digest,
                local_digest,
                out_digest,
                w0,
                w1,
                top_link,
                dropped_links,
            } => {
                w.u8(TAG_DRIFT_MERGED);
                w.u64(*at_ns);
                w.u16w(*switch);
                w.u32(*flow);
                w.u64(*pkt_seq);
                w.u8(*hop_now);
                w.u64(*in_digest);
                w.u64(*local_digest);
                w.u64(*out_digest);
                w.f64(*w0);
                w.f64(*w1);
                match top_link {
                    Some(l) => {
                        w.option(true);
                        w.u16w(*l);
                    }
                    None => {
                        w.option(false);
                    }
                }
                w.seq(dropped_links.len());
                for &l in dropped_links {
                    w.u16w(l);
                }
            }
            FlightRecord::WarningRaised {
                at_ns,
                switch,
                link,
                hop_now,
                w0,
                w1,
                alpha_lhs,
                beta_lhs,
                ground_truth_hit,
            } => {
                w.u8(TAG_WARNING_RAISED);
                w.u64(*at_ns);
                w.u16w(*switch);
                w.u16w(*link);
                w.u8(*hop_now);
                w.f64(*w0);
                w.f64(*w1);
                w.f64(*alpha_lhs);
                w.f64(*beta_lhs);
                w.u8(u8::from(*ground_truth_hit));
            }
            FlightRecord::PacketDropped {
                at_ns,
                link,
                flow,
                pkt_seq,
                kind,
            } => {
                w.u8(TAG_PACKET_DROPPED);
                w.u64(*at_ns);
                w.u16w(*link);
                w.u32(*flow);
                w.u64(*pkt_seq);
                w.u8(kind.as_u8());
            }
        }
    }

    /// Decode one record (tag + fields) from `r`.
    fn decode(r: &mut ByteReader) -> Result<FlightRecord, FlightError> {
        let tag = r.u8()?;
        let rec = match tag {
            TAG_RUN_META => {
                let t_fail_ns = r.u64()?;
                let window_from_ns = r.u64()?;
                let window_to_ns = r.u64()?;
                let interval_ns = r.u64()?;
                let total_links = r.u32()?;
                let k = r.u32()?;
                let hop_min = r.u32()?;
                let alpha = r.f64()?;
                let beta = r.f64()?;
                let n = r.seq()?;
                let mut ground_truth = Vec::with_capacity(n);
                for _ in 0..n {
                    ground_truth.push(r.u16w()?);
                }
                FlightRecord::RunMeta {
                    t_fail_ns,
                    window_from_ns,
                    window_to_ns,
                    interval_ns,
                    total_links,
                    k,
                    hop_min,
                    alpha,
                    beta,
                    ground_truth,
                }
            }
            TAG_FLOW_CLASSIFIED => FlightRecord::FlowClassified {
                at_ns: r.u64()?,
                switch: r.u16w()?,
                window: r.u32()?,
                flow: r.u32()?,
                abnormal: r.u8()? != 0,
                feature_digest: r.u64()?,
            },
            TAG_LOCAL_VOTE => FlightRecord::LocalVote {
                at_ns: r.u64()?,
                switch: r.u16w()?,
                window: r.u32()?,
                flow: r.u32()?,
                link: r.u16w()?,
                delta: r.f64()?,
            },
            TAG_DRIFT_MERGED => {
                let at_ns = r.u64()?;
                let switch = r.u16w()?;
                let flow = r.u32()?;
                let pkt_seq = r.u64()?;
                let hop_now = r.u8()?;
                let in_digest = r.u64()?;
                let local_digest = r.u64()?;
                let out_digest = r.u64()?;
                let w0 = r.f64()?;
                let w1 = r.f64()?;
                let top_link = if r.option()? { Some(r.u16w()?) } else { None };
                let n = r.seq()?;
                let mut dropped_links = Vec::with_capacity(n);
                for _ in 0..n {
                    dropped_links.push(r.u16w()?);
                }
                FlightRecord::DriftMerged {
                    at_ns,
                    switch,
                    flow,
                    pkt_seq,
                    hop_now,
                    in_digest,
                    local_digest,
                    out_digest,
                    w0,
                    w1,
                    top_link,
                    dropped_links,
                }
            }
            TAG_WARNING_RAISED => FlightRecord::WarningRaised {
                at_ns: r.u64()?,
                switch: r.u16w()?,
                link: r.u16w()?,
                hop_now: r.u8()?,
                w0: r.f64()?,
                w1: r.f64()?,
                alpha_lhs: r.f64()?,
                beta_lhs: r.f64()?,
                ground_truth_hit: r.u8()? != 0,
            },
            TAG_PACKET_DROPPED => FlightRecord::PacketDropped {
                at_ns: r.u64()?,
                link: r.u16w()?,
                flow: r.u32()?,
                pkt_seq: r.u64()?,
                kind: {
                    let v = r.u8()?;
                    DropKind::from_u8(v).ok_or(FlightError::BadTag(v))?
                },
            },
            other => return Err(FlightError::BadTag(other)),
        };
        Ok(rec)
    }
}

/// Why a `.flight` file could not be read.
#[derive(Debug)]
pub enum FlightError {
    /// File I/O failed.
    Io(std::io::Error),
    /// A frame was malformed at the byte level.
    Wire(WireError),
    /// The file does not start with [`FLIGHT_MAGIC`].
    BadMagic,
    /// The file uses an unsupported format version.
    BadVersion(u32),
    /// An unknown record tag (or enum discriminant) was encountered.
    BadTag(u8),
    /// A record frame failed to decode: which frame, and the byte offset of
    /// its payload within the file.
    FrameCorrupt {
        /// 0-based frame index within the record stream.
        index: usize,
        /// Byte offset of the frame payload from the start of the file.
        at: usize,
        /// The underlying decode failure (offsets inside it are
        /// frame-relative).
        cause: Box<FlightError>,
    },
}

impl std::fmt::Display for FlightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightError::Io(e) => write!(f, "flight file I/O: {e}"),
            FlightError::Wire(e) => write!(f, "flight file corrupt: {e}"),
            FlightError::BadMagic => write!(f, "not a flight file (bad magic)"),
            FlightError::BadVersion(v) => write!(
                f,
                "flight format version {v} unsupported (this build reads {FLIGHT_VERSION})"
            ),
            FlightError::BadTag(t) => write!(f, "unknown flight record tag {t}"),
            FlightError::FrameCorrupt { index, at, cause } => {
                write!(f, "record frame {index} (payload at byte {at}): {cause}")
            }
        }
    }
}

impl std::error::Error for FlightError {}

impl From<WireError> for FlightError {
    fn from(e: WireError) -> Self {
        FlightError::Wire(e)
    }
}

impl From<std::io::Error> for FlightError {
    fn from(e: std::io::Error) -> Self {
        FlightError::Io(e)
    }
}

struct Ring {
    buf: VecDeque<FlightRecord>,
    /// The first [`FlightRecord::RunMeta`] ever recorded, held outside the
    /// ring: the header carries the window, thresholds and ground truth that
    /// make a recording scoreable, so it must survive arbitrarily many
    /// evictions of the decision tail.
    meta: Option<FlightRecord>,
    dropped: u64,
}

/// The live, thread-safe recorder: a bounded ring of [`FlightRecord`]s.
///
/// Memory is bounded by construction: once `capacity` records are held, each
/// new record evicts the oldest and bumps the drop counter — except the run
/// header ([`FlightRecord::RunMeta`]), which is pinned outside the ring so a
/// wrapped recording stays scoreable. Recording takes an uncontended mutex
/// (scenario simulation is single-threaded; sweep units each get their own
/// recorder), which keeps the disabled path — no recorder at all — the only
/// path the hot-path benchmarks see.
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Ring>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl FlightRecorder {
    /// Default ring capacity: 65 536 records (a few MB), enough to hold the
    /// full decision tail of one evaluation-scale scenario.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// A recorder holding at most `capacity` records (`capacity` is clamped
    /// to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            inner: Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity.min(4096)),
                meta: None,
                dropped: 0,
            }),
        }
    }

    /// A recorder with [`Self::DEFAULT_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }

    /// Append one record, evicting the oldest when full.
    ///
    /// The first [`FlightRecord::RunMeta`] is pinned outside the ring (it
    /// neither occupies capacity nor is ever evicted), so even a recording
    /// that wrapped millions of times keeps its run header and stays
    /// scoreable by `drift-bottle explain`.
    pub fn record(&self, rec: FlightRecord) {
        let mut ring = lock_recover(&self.inner);
        if matches!(rec, FlightRecord::RunMeta { .. }) && ring.meta.is_none() {
            ring.meta = Some(rec);
            return;
        }
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(rec);
    }

    /// Records currently held, including a pinned run header (ring portion
    /// is ≤ capacity).
    pub fn len(&self) -> usize {
        let ring = lock_recover(&self.inner);
        ring.buf.len() + usize::from(ring.meta.is_some())
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted because the ring was full. Nonzero means the oldest
    /// history is gone — `explain` reports surface this.
    pub fn dropped(&self) -> u64 {
        lock_recover(&self.inner).dropped
    }

    /// A point-in-time copy of the ring as a [`Recording`]. A pinned run
    /// header comes first, so the on-disk layout is unchanged: `RunMeta`
    /// leads the record stream whether or not the ring wrapped.
    pub fn snapshot(&self) -> Recording {
        let ring = lock_recover(&self.inner);
        let mut records = Vec::with_capacity(ring.buf.len() + 1);
        records.extend(ring.meta.iter().cloned());
        records.extend(ring.buf.iter().cloned());
        Recording {
            capacity: u64::try_from(self.capacity).expect("usize wider than u64"),
            dropped: ring.dropped,
            records,
        }
    }

    /// Serialize the current contents to a `.flight` file (parent
    /// directories are created).
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.snapshot().save(path)
    }
}

/// A loaded (or snapshotted) flight recording — the input to
/// `db-inference::provenance` and `drift-bottle explain`.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// The ring capacity the recorder ran with.
    pub capacity: u64,
    /// Records evicted before this snapshot (oldest history lost).
    pub dropped: u64,
    /// Surviving records, oldest first.
    pub records: Vec<FlightRecord>,
}

impl Recording {
    /// Serialize to the `.flight` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(FLIGHT_MAGIC[0]);
        w.u8(FLIGHT_MAGIC[1]);
        w.u8(FLIGHT_MAGIC[2]);
        w.u8(FLIGHT_MAGIC[3]);
        let mut out = w.into_bytes();
        let mut body = ByteWriter::new();
        body.u32(u32::from(FLIGHT_VERSION));
        body.u64(self.capacity);
        body.u64(self.dropped);
        body.seq(self.records.len());
        out.extend_from_slice(&body.into_bytes());
        for rec in &self.records {
            let mut frame = ByteWriter::new();
            rec.encode_into(&mut frame);
            let frame = frame.into_bytes();
            let mut len = ByteWriter::new();
            len.seq(frame.len());
            out.extend_from_slice(&len.into_bytes());
            out.extend_from_slice(&frame);
        }
        out
    }

    /// Parse the `.flight` byte format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, FlightError> {
        let mut r = ByteReader::new(bytes);
        let magic = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
        if magic != FLIGHT_MAGIC {
            return Err(FlightError::BadMagic);
        }
        let version = r.u32()?;
        if version != u32::from(FLIGHT_VERSION) {
            return Err(FlightError::BadVersion(version));
        }
        let capacity = r.u64()?;
        let dropped = r.u64()?;
        let count = r.seq()?;
        let mut records = Vec::with_capacity(count.min(1 << 20));
        for index in 0..count {
            let len = r.seq()?;
            let at = r.offset();
            // Frames are length-delimited: decode the record and tolerate
            // (skip) any trailing bytes a newer writer appended. A frame
            // that fails reports its index and file offset, so a corrupt
            // `.flight` file points at the bad frame instead of panicking.
            let frame = r.bytes(len)?;
            let mut fr = ByteReader::new(frame);
            let rec = FlightRecord::decode(&mut fr).map_err(|e| FlightError::FrameCorrupt {
                index,
                at,
                cause: Box::new(e),
            })?;
            records.push(rec);
        }
        r.finish()?;
        Ok(Recording {
            capacity,
            dropped,
            records,
        })
    }

    /// Write to `path` (parent directories are created).
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_bytes())
    }

    /// Load from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Recording, FlightError> {
        let bytes = std::fs::read(path)?;
        Recording::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<FlightRecord> {
        vec![
            FlightRecord::RunMeta {
                t_fail_ns: 80_000_000,
                window_from_ns: 80_000_000,
                window_to_ns: 160_000_000,
                interval_ns: 4_000_000,
                total_links: 60,
                k: 4,
                hop_min: 4,
                alpha: 2.0,
                beta: 2.0,
                ground_truth: vec![12],
            },
            FlightRecord::FlowClassified {
                at_ns: 84_000_000,
                switch: 3,
                window: 21,
                flow: 7,
                abnormal: true,
                feature_digest: 0xDEAD_BEEF_0BAD_F00D,
            },
            FlightRecord::LocalVote {
                at_ns: 84_000_000,
                switch: 3,
                window: 21,
                flow: 7,
                link: 12,
                delta: 1.0,
            },
            FlightRecord::DriftMerged {
                at_ns: 85_000_000,
                switch: 4,
                flow: 7,
                pkt_seq: 42,
                hop_now: 3,
                in_digest: 1,
                local_digest: 2,
                out_digest: 3,
                w0: 9.0,
                w1: -2.0,
                top_link: Some(12),
                dropped_links: vec![5, 44],
            },
            FlightRecord::WarningRaised {
                at_ns: 86_000_000,
                switch: 4,
                link: 12,
                hop_now: 4,
                w0: 9.0,
                w1: -2.0,
                alpha_lhs: 8.0,
                beta_lhs: 0.0,
                ground_truth_hit: true,
            },
            FlightRecord::PacketDropped {
                at_ns: 80_100_000,
                link: 12,
                flow: 7,
                pkt_seq: 40,
                kind: DropKind::Down,
            },
        ]
    }

    #[test]
    fn round_trips_every_record_kind() {
        let rec = FlightRecorder::new(64);
        for r in sample_records() {
            rec.record(r);
        }
        let snap = rec.snapshot();
        let bytes = snap.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.records, sample_records());
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(FlightRecord::PacketDropped {
                at_ns: i,
                link: 0,
                flow: 0,
                pkt_seq: i,
                kind: DropKind::Queue,
            });
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let snap = rec.snapshot();
        // The most recent history survives.
        let seqs: Vec<u64> = snap
            .records
            .iter()
            .map(|r| match r {
                FlightRecord::PacketDropped { pkt_seq, .. } => *pkt_seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn run_meta_survives_a_full_ring_wrap() {
        let rec = FlightRecorder::new(4);
        let records = sample_records();
        rec.record(records[0].clone()); // RunMeta — pinned
        for i in 0..100u64 {
            rec.record(FlightRecord::PacketDropped {
                at_ns: i,
                link: 0,
                flow: 0,
                pkt_seq: i,
                kind: DropKind::Queue,
            });
        }
        // Pinned header + full ring; only ring records were evicted.
        assert_eq!(rec.len(), 5);
        assert_eq!(rec.dropped(), 96);
        let snap = rec.snapshot();
        assert!(matches!(snap.records[0], FlightRecord::RunMeta { .. }));
        // A second RunMeta is not pinned (first wins) and rides the ring.
        rec.record(records[0].clone());
        let snap2 = rec.snapshot();
        let metas = snap2
            .records
            .iter()
            .filter(|r| matches!(r, FlightRecord::RunMeta { .. }))
            .count();
        assert_eq!(metas, 2);
        assert!(matches!(snap2.records[0], FlightRecord::RunMeta { .. }));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let rec = FlightRecorder::new(0);
        assert_eq!(rec.capacity(), 1);
        rec.record(FlightRecord::PacketDropped {
            at_ns: 0,
            link: 0,
            flow: 0,
            pkt_seq: 0,
            kind: DropKind::Down,
        });
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn file_round_trip() {
        let rec = FlightRecorder::new(16);
        for r in sample_records() {
            rec.record(r);
        }
        let dir = std::env::temp_dir().join("db-flight-test");
        let path = dir.join("nested").join("t.flight");
        rec.save(&path).unwrap();
        let back = Recording::load(&path).unwrap();
        assert_eq!(back, rec.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(matches!(
            Recording::from_bytes(b"no"),
            Err(FlightError::Wire(WireError::Truncated { .. }))
        ));
        assert!(matches!(
            Recording::from_bytes(b"nope"),
            Err(FlightError::BadMagic)
        ));
        assert!(matches!(
            Recording::from_bytes(b"XXXX\0\0\0\x01"),
            Err(FlightError::BadMagic)
        ));
        let mut good = Recording {
            capacity: 4,
            dropped: 0,
            records: sample_records(),
        }
        .to_bytes();
        // Flip the version field (bytes 4..8).
        good[7] = 99;
        assert!(matches!(
            Recording::from_bytes(&good),
            Err(FlightError::BadVersion(99))
        ));
        // Truncate mid-frame.
        let full = Recording {
            capacity: 4,
            dropped: 0,
            records: sample_records(),
        }
        .to_bytes();
        assert!(Recording::from_bytes(&full[..full.len() - 3]).is_err());
    }

    #[test]
    fn corrupt_frame_reports_index_and_offset() {
        let mut bytes = Recording {
            capacity: 4,
            dropped: 0,
            records: sample_records(),
        }
        .to_bytes();
        // Header is magic(4) + version(4) + capacity(8) + dropped(8) +
        // count(4) = 28 bytes; byte 28 is frame 0's length prefix and byte
        // 32 its tag. Smash the tag of frame 0.
        assert_eq!(bytes[32], 0, "frame 0 should be RunMeta (tag 0)");
        bytes[32] = 0xEE;
        match Recording::from_bytes(&bytes) {
            Err(FlightError::FrameCorrupt { index, at, cause }) => {
                assert_eq!(index, 0);
                assert_eq!(at, 32);
                assert!(matches!(*cause, FlightError::BadTag(0xEE)));
            }
            other => panic!("expected FrameCorrupt, got {other:?}"),
        }
        // The rendered message carries the frame context end to end.
        let msg = Recording::from_bytes(&bytes).unwrap_err().to_string();
        assert!(msg.contains("frame 0"), "{msg}");
        assert!(msg.contains("byte 32"), "{msg}");
    }

    #[test]
    fn concurrent_recording_is_safe_and_bounded() {
        let rec = std::sync::Arc::new(FlightRecorder::new(128));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        rec.record(FlightRecord::PacketDropped {
                            at_ns: i,
                            link: t as u16,
                            flow: t,
                            pkt_seq: i,
                            kind: DropKind::Down,
                        });
                    }
                });
            }
        });
        assert_eq!(rec.len(), 128);
        assert_eq!(rec.dropped() + rec.len() as u64, 4000);
    }
}
