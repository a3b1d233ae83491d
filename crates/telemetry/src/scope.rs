//! `db-scope`: time-series health timelines and causal span tracing
//! (DESIGN.md §13).
//!
//! Two pieces, both hanging off one [`ScopeRecorder`] handle that follows
//! the flight-recorder pattern: no handle attached ⇒ no code runs ⇒ outcomes
//! stay bit-identical.
//!
//! * **Series store** — bounded ring-buffered time series keyed by dense
//!   link/switch IDs, one point per simulated-time window. Feeds arrive at
//!   merge/vote/warning time from core and at drop/tick time from netsim;
//!   a per-window accumulator folds them (sum or max, per
//!   [`SeriesKind`]) and flushes a point when the window rolls. Because
//!   every fold is commutative, series content is independent of feed
//!   interleaving — the property the 1-vs-8-worker determinism test pins.
//! * **Span tracer** — hierarchical wall-clock spans (sweep unit → scenario
//!   → sim phase → window → inference phase) with parent IDs, exported as
//!   Chrome `trace_event` JSON loadable in `chrome://tracing` / Perfetto.
//!
//! Wall-clock reads live here, in the telemetry crate, because the
//! deterministic tier (db-lint `det-time`) forbids them everywhere else.
//! The emitted `.trace.json` keeps the wall-clock surface (`traceEvents`)
//! separate from the deterministic surface (the `dbScope` object), so tests
//! can compare the latter byte-for-byte across worker counts.

use crate::export::json_escape;
use db_util::json::{parse_json, Json};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

// ---- series store ----------------------------------------------------------

/// What a time series measures, and how same-window feeds fold together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeriesKind {
    /// Max drifting suspicion weight (`w0` of the top link) seen in a merge
    /// naming this link top, per window. Keyed by link ID.
    LinkSuspicion,
    /// Sum of local-vote deltas cast on this link, per window.
    LinkVotes,
    /// Count of eq.(1) warnings raised for this link, per window.
    LinkWarnings,
    /// Count of packets dropped on this link, per window.
    LinkDrops,
    /// Drift-merge fan-in: merges performed at this switch, per window.
    SwitchFanIn,
    /// Flows classified abnormal at this switch, per window.
    SwitchAbnormal,
    /// Flows occupying live register history at this switch when the
    /// window closed (flowmon's register-occupancy view).
    SwitchActive,
    /// Max simulator event-queue depth sampled at ticks, per window.
    /// Keyed by ID 0 (one global series).
    QueueDepth,
}

/// Number of [`SeriesKind`] variants.
pub const SERIES_KIND_COUNT: usize = 8;

impl SeriesKind {
    /// Every variant, in storage order.
    pub const ALL: [SeriesKind; SERIES_KIND_COUNT] = [
        SeriesKind::LinkSuspicion,
        SeriesKind::LinkVotes,
        SeriesKind::LinkWarnings,
        SeriesKind::LinkDrops,
        SeriesKind::SwitchFanIn,
        SeriesKind::SwitchAbnormal,
        SeriesKind::SwitchActive,
        SeriesKind::QueueDepth,
    ];

    /// Stable dotted name used in trace JSON and the `timeline` command.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::LinkSuspicion => "link.suspicion",
            SeriesKind::LinkVotes => "link.votes",
            SeriesKind::LinkWarnings => "link.warnings",
            SeriesKind::LinkDrops => "link.drops",
            SeriesKind::SwitchFanIn => "switch.fanin",
            SeriesKind::SwitchAbnormal => "switch.abnormal",
            SeriesKind::SwitchActive => "switch.active",
            SeriesKind::QueueDepth => "queue.depth",
        }
    }

    /// Series keyed by link ID (vs switch ID or the global queue).
    pub fn is_link(self) -> bool {
        matches!(
            self,
            SeriesKind::LinkSuspicion
                | SeriesKind::LinkVotes
                | SeriesKind::LinkWarnings
                | SeriesKind::LinkDrops
        )
    }

    /// Stable single-byte code (= storage order), used by the serve wire
    /// protocol's Pulse frames. Pinned: new kinds append, never renumber.
    pub fn code(self) -> u8 {
        match self {
            SeriesKind::LinkSuspicion => 0,
            SeriesKind::LinkVotes => 1,
            SeriesKind::LinkWarnings => 2,
            SeriesKind::LinkDrops => 3,
            SeriesKind::SwitchFanIn => 4,
            SeriesKind::SwitchAbnormal => 5,
            SeriesKind::SwitchActive => 6,
            SeriesKind::QueueDepth => 7,
        }
    }

    /// Inverse of [`SeriesKind::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<SeriesKind> {
        SeriesKind::ALL.get(usize::from(code)).copied()
    }

    fn index(self) -> usize {
        usize::from(self.code())
    }

    /// Whether same-window feeds fold by max (true) or by sum (false).
    /// Both are commutative, which keeps series content independent of
    /// feed interleaving.
    fn folds_by_max(self) -> bool {
        matches!(
            self,
            SeriesKind::LinkSuspicion | SeriesKind::SwitchActive | SeriesKind::QueueDepth
        )
    }
}

/// One bounded series: `(window, value)` points in window order, oldest
/// evicted first once `cap` is reached.
#[derive(Debug, Clone)]
pub struct Series {
    pub kind: SeriesKind,
    pub id: u16,
    pub points: VecDeque<(u64, f64)>,
    pub evicted: u64,
    cap: usize,
}

impl Series {
    fn new(kind: SeriesKind, id: u16, cap: usize) -> Series {
        Series {
            kind,
            id,
            points: VecDeque::with_capacity(cap.min(64)),
            evicted: 0,
            cap,
        }
    }

    fn push(&mut self, window: u64, value: f64) {
        if self.points.len() >= self.cap {
            self.points.pop_front();
            self.evicted += 1;
        }
        self.points.push_back((window, value));
    }
}

/// One flushed `(kind, id, window, value)` sample, the unit streamed to
/// Pulse subscribers by [`ScopeRecorder::points_from`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScopePoint {
    pub kind: SeriesKind,
    pub id: u16,
    pub window: u64,
    pub value: f64,
}

// ---- recorder --------------------------------------------------------------

/// Sampling-window index of a nanosecond timestamp: completed intervals,
/// `at_ns / interval_ns` (0 for a zero interval rather than a panic).
///
/// The one window rule of every observability view: db-scope buckets each
/// feed and rolls each `window N` span with it, `explain` places flight
/// records with it, and `drift-bottle top` labels the live window with it,
/// so `timeline` and `explain` agree on which window a warning landed in.
pub fn window_of(at_ns: u64, interval_ns: u64) -> u64 {
    at_ns.checked_div(interval_ns).unwrap_or(0)
}

/// Static run parameters, pinned once per scenario (like the flight
/// recorder's `RunMeta`). `interval_ns` drives window derivation through
/// [`window_of`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScopeMeta {
    pub interval_ns: u64,
    pub t_fail_ns: u64,
    pub total_links: u32,
    pub total_switches: u32,
    pub alpha: f64,
    pub beta: f64,
    pub hop_min: u32,
}

/// One recorded span: a named wall-clock interval with a parent link.
#[derive(Debug, Clone)]
struct SpanRec {
    name: String,
    parent: Option<u32>,
    start_us: u64,
    dur_us: Option<u64>,
}

#[derive(Debug, Default)]
struct ScopeInner {
    meta: Option<ScopeMeta>,
    /// Per-kind, per-ID accumulator for the window currently being filled.
    acc: Vec<Vec<Option<f64>>>,
    cur_window: u64,
    series: BTreeMap<(usize, u16), Series>,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    /// `(window index, span id)` of the open per-window span, if any.
    window_span: Option<(u64, u32)>,
}

/// The db-scope recorder. Shared as `Arc<ScopeRecorder>` and off by
/// default: when no handle is attached, none of this code runs and outcomes
/// are bit-identical.
#[derive(Debug)]
pub struct ScopeRecorder {
    inner: Mutex<ScopeInner>,
    epoch: Instant,
    cap: usize,
}

impl Default for ScopeRecorder {
    fn default() -> Self {
        Self::new(Self::DEFAULT_SERIES_CAPACITY)
    }
}

impl ScopeRecorder {
    /// Default bound on points kept per series.
    pub const DEFAULT_SERIES_CAPACITY: usize = 1024;

    /// A recorder keeping at most `series_capacity` points per series.
    pub fn new(series_capacity: usize) -> ScopeRecorder {
        ScopeRecorder {
            inner: Mutex::new(ScopeInner::default()),
            epoch: Instant::now(),
            cap: series_capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ScopeInner> {
        // A poisoning panic elsewhere must not cascade into observability.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Pin the run parameters and size the per-window accumulators. Feeds
    /// arriving before `set_meta` are dropped (window derivation needs the
    /// interval).
    pub fn set_meta(&self, meta: ScopeMeta) {
        let mut g = self.lock();
        let mut acc = Vec::with_capacity(SERIES_KIND_COUNT);
        for kind in SeriesKind::ALL {
            let len = match kind {
                SeriesKind::QueueDepth => 1,
                k if k.is_link() => meta.total_links as usize,
                _ => meta.total_switches as usize,
            };
            acc.push(vec![None; len]);
        }
        g.acc = acc;
        g.meta = Some(meta);
        g.cur_window = 0;
    }

    /// The pinned meta, if set.
    pub fn meta(&self) -> Option<ScopeMeta> {
        self.lock().meta
    }

    // -- series feeds --------------------------------------------------------

    fn feed(&self, kind: SeriesKind, id: u16, at_ns: u64, value: f64) {
        self.feeder().feed(kind, id, at_ns, value);
    }

    /// The feed body, for callers already holding the lock — hot feeds
    /// fold several updates into one lock round-trip via this.
    #[inline]
    fn feed_locked(
        g: &mut ScopeInner,
        cap: usize,
        kind: SeriesKind,
        id: u16,
        at_ns: u64,
        value: f64,
    ) {
        let Some(meta) = g.meta else { return };
        let w = window_of(at_ns, meta.interval_ns);
        if w > g.cur_window {
            Self::flush_acc(g, cap);
            g.cur_window = w;
        }
        let ki = kind.index();
        let Some(slot) = g.acc.get_mut(ki).and_then(|a| a.get_mut(id as usize)) else {
            return;
        };
        *slot = Some(match *slot {
            None => value,
            Some(prev) if kind.folds_by_max() => prev.max(value),
            Some(prev) => prev + value,
        });
    }

    /// Flush the current-window accumulators into the ring-buffered series.
    fn flush_acc(g: &mut ScopeInner, cap: usize) {
        let window = g.cur_window;
        for kind in SeriesKind::ALL {
            let ki = kind.index();
            let Some(acc) = g.acc.get_mut(ki) else {
                continue;
            };
            // Collect to release the accumulator borrow before touching
            // the series map.
            let drained: Vec<(usize, f64)> = acc
                .iter_mut()
                .enumerate()
                .filter_map(|(id, slot)| slot.take().map(|v| (id, v)))
                .collect();
            for (id, v) in drained {
                let id = u16::try_from(id).unwrap_or(u16::MAX);
                g.series
                    .entry((ki, id))
                    .or_insert_with(|| Series::new(kind, id, cap))
                    .push(window, v);
            }
        }
    }

    /// A drift merge completed at `switch`: fan-in ticks up, and if the
    /// merged header names a top link, its suspicion series records `w0`.
    /// This is the one per-packet feed, so both updates share one lock
    /// round-trip.
    pub fn merge(&self, at_ns: u64, switch: u16, w0: f64, top_link: Option<u16>) {
        let mut g = self.lock();
        Self::feed_locked(
            &mut g,
            self.cap,
            SeriesKind::SwitchFanIn,
            switch,
            at_ns,
            1.0,
        );
        if let Some(link) = top_link {
            Self::feed_locked(&mut g, self.cap, SeriesKind::LinkSuspicion, link, at_ns, w0);
        }
    }

    /// Lock the recorder once for a run of window-close feeds. A window
    /// close casts a vote per upstream link of every judged flow; through
    /// the guard they cost one lock round-trip per switch, not one each.
    /// Drop it before calling anything else on the recorder — the lock is
    /// not reentrant.
    pub fn feeder(&self) -> ScopeFeed<'_> {
        ScopeFeed {
            g: self.lock(),
            cap: self.cap,
        }
    }

    /// Feed everything `buf` holds as if each feed had been made at
    /// `at_ns`, in one lock round-trip, and empty it. The caller folds
    /// before anything else feeds a later window: a buffer holds no times,
    /// so every feed it holds lands in the window of `at_ns`.
    pub fn fold(&self, at_ns: u64, buf: &mut ScopeBuffer) {
        if buf.vals.is_empty() {
            return;
        }
        let mut g = self.lock();
        for (kind, id, value) in buf.vals.drain(..) {
            Self::feed_locked(&mut g, self.cap, kind, id, at_ns, value);
            let slot = buf.slot.get_mut(kind.index());
            if let Some(s) = slot.and_then(|s| s.get_mut(usize::from(id))) {
                *s = 0;
            }
        }
    }

    /// An eq.(1) warning raised for `link`.
    pub fn warning(&self, at_ns: u64, link: u16) {
        self.feed(SeriesKind::LinkWarnings, link, at_ns, 1.0);
    }

    /// A packet dropped on `link`.
    pub fn drop_event(&self, at_ns: u64, link: u16) {
        self.feed(SeriesKind::LinkDrops, link, at_ns, 1.0);
    }

    /// Simulator event-queue depth sampled at a tick.
    pub fn queue_depth(&self, at_ns: u64, depth: usize) {
        self.feed(SeriesKind::QueueDepth, 0, at_ns, depth as f64);
    }

    // -- spans ---------------------------------------------------------------

    /// Open a span; its parent is the innermost span still open. Returns an
    /// ID for [`ScopeRecorder::end_span`].
    pub fn begin_span(&self, name: &str) -> u32 {
        let start_us = self.now_us();
        let mut g = self.lock();
        let id = u32::try_from(g.spans.len()).unwrap_or(u32::MAX);
        let parent = g.stack.last().copied();
        g.spans.push(SpanRec {
            name: name.to_string(),
            parent,
            start_us,
            dur_us: None,
        });
        g.stack.push(id);
        id
    }

    /// Close span `id`, closing any still-open descendants with it.
    pub fn end_span(&self, id: u32) {
        let end_us = self.now_us();
        let mut g = self.lock();
        while let Some(top) = g.stack.pop() {
            if let Some(rec) = g.spans.get_mut(top as usize) {
                if rec.dur_us.is_none() {
                    rec.dur_us = Some(end_us.saturating_sub(rec.start_us));
                }
            }
            if top == id {
                break;
            }
        }
        if g.window_span.is_some_and(|(_, ws)| ws == id) {
            g.window_span = None;
        }
    }

    /// Roll the per-window span: end the open `window N` span (if the
    /// window changed) and begin `window M` for the window containing
    /// `at_ns`. Call at each tick; phase spans begun afterwards nest inside.
    pub fn window_roll(&self, at_ns: u64) {
        let open = {
            let g = self.lock();
            let Some(meta) = g.meta else { return };
            let w = window_of(at_ns, meta.interval_ns);
            match g.window_span {
                Some((cur, _)) if cur == w => return,
                other => (w, other),
            }
        };
        let (w, prev) = open;
        if let Some((_, id)) = prev {
            self.end_span(id);
        }
        let id = self.begin_span(&format!("window {w}"));
        self.lock().window_span = Some((w, id));
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    // -- pulse deltas --------------------------------------------------------

    /// Append every *flushed* point with `window >= from` to `out`, in
    /// series order, and return the next cursor (one past the highest
    /// window appended, or `from` unchanged when nothing was). Only
    /// flushed windows are reported — the accumulator still filling is
    /// skipped, so a window is never emitted twice under a monotone cursor
    /// and its value never changes after emission. This is the serve
    /// daemon's Pulse extraction path; it reads the ring without draining
    /// it, so concurrent subscribers see the same deltas.
    pub fn points_from(&self, from: u64, out: &mut Vec<ScopePoint>) -> u64 {
        let g = self.lock();
        let mut next = from;
        for s in g.series.values() {
            let skip = s.points.partition_point(|&(w, _)| w < from);
            for &(window, value) in s.points.iter().skip(skip) {
                out.push(ScopePoint {
                    kind: s.kind,
                    id: s.id,
                    window,
                    value,
                });
                if window >= next {
                    next = window.saturating_add(1);
                }
            }
        }
        next
    }

    /// The highest window index flushed to any series so far (`None` until
    /// a first window completes). A Pulse subscriber's lag is the distance
    /// between this and the last window it was sent.
    pub fn flushed_watermark(&self) -> Option<u64> {
        let g = self.lock();
        g.series
            .values()
            .filter_map(|s| s.points.back().map(|&(w, _)| w))
            .max()
    }

    // -- export --------------------------------------------------------------

    /// Render the Chrome `trace_event` JSON document. Closes any spans
    /// still open and flushes the pending window accumulator first.
    ///
    /// The document is an object-form trace: `traceEvents` carries the
    /// wall-clock spans (`ph:"X"` complete events, µs timestamps) and the
    /// custom `dbScope` key carries the deterministic surface — meta,
    /// series, and span structure (names and parent links, no durations).
    /// Viewers ignore unknown top-level keys.
    pub fn to_trace_json(&self) -> String {
        let end_us = self.now_us();
        let mut g = self.lock();
        // Close stragglers (the export boundary is the outermost end).
        while let Some(top) = g.stack.pop() {
            if let Some(rec) = g.spans.get_mut(top as usize) {
                if rec.dur_us.is_none() {
                    rec.dur_us = Some(end_us.saturating_sub(rec.start_us));
                }
            }
        }
        g.window_span = None;
        Self::flush_acc(&mut g, self.cap);

        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        for (i, rec) in g.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = rec.parent.map(i64::from).unwrap_or(-1);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                json_escape(&rec.name),
                rec.start_us,
                rec.dur_us.unwrap_or(0),
                i,
                parent,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"dbScope\":{\"version\":1,");

        match g.meta {
            Some(m) => {
                let _ = write!(
                    out,
                    "\"meta\":{{\"interval_ns\":{},\"t_fail_ns\":{},\"total_links\":{},\
                     \"total_switches\":{},\"alpha\":{},\"beta\":{},\"hop_min\":{}}},",
                    m.interval_ns,
                    m.t_fail_ns,
                    m.total_links,
                    m.total_switches,
                    fmt_f64(m.alpha),
                    fmt_f64(m.beta),
                    m.hop_min,
                );
            }
            None => out.push_str("\"meta\":null,"),
        }

        out.push_str("\"series\":[");
        for (i, s) in g.series.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":\"{}\",\"id\":{},\"evicted\":{},\"points\":[",
                s.kind.as_str(),
                s.id,
                s.evicted
            );
            for (j, (w, v)) in s.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{}]", w, fmt_f64(*v));
            }
            out.push_str("]}");
        }
        out.push_str("],");

        out.push_str("\"spans\":[");
        for (i, rec) in g.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = rec.parent.map(i64::from).unwrap_or(-1);
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"dur_us\":{}}}",
                i,
                parent,
                json_escape(&rec.name),
                rec.dur_us.unwrap_or(0),
            );
        }
        out.push_str("]}}");
        out
    }

    /// Write the trace JSON to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_trace_json())
    }
}

/// The recorder held locked for a run of window-close feeds; see
/// [`ScopeRecorder::feeder`].
pub struct ScopeFeed<'a> {
    g: std::sync::MutexGuard<'a, ScopeInner>,
    cap: usize,
}

impl ScopeFeed<'_> {
    fn feed(&mut self, kind: SeriesKind, id: u16, at_ns: u64, value: f64) {
        ScopeRecorder::feed_locked(&mut self.g, self.cap, kind, id, at_ns, value);
    }

    /// A local vote of `delta` cast on `link` at window close.
    pub fn vote(&mut self, at_ns: u64, link: u16, delta: f64) {
        self.feed(SeriesKind::LinkVotes, link, at_ns, delta);
    }

    /// A flow classified at `switch`; only abnormal verdicts count.
    pub fn classified(&mut self, at_ns: u64, switch: u16, abnormal: bool) {
        if abnormal {
            self.feed(SeriesKind::SwitchAbnormal, switch, at_ns, 1.0);
        }
    }

    /// Flows occupying live register history at `switch` when its sampling
    /// window closed (flowmon's register-occupancy view).
    pub fn active_flows(&mut self, at_ns: u64, switch: u16, count: usize) {
        self.feed(SeriesKind::SwitchActive, switch, at_ns, count as f64);
    }
}

/// The per-hop feeds ([`ScopeRecorder::merge`], [`ScopeRecorder::warning`])
/// held off the recorder's lock. A shard of the streaming engine feeds its
/// hops here, unlocked, and the engine thread folds the buffer into the
/// recorder with [`ScopeRecorder::fold`] once per run of records that share
/// a window. Both buffered kinds fold by a commutative rule that is exact
/// on their values (a sum of 1.0s, a max), so a folded buffer leaves the
/// series as the feeds it replaced would have, in any order.
#[derive(Debug, Clone, Default)]
pub struct ScopeBuffer {
    /// `slot[kind][id]`: one past the index of the pair's entry in `vals`;
    /// 0 when the pair was not fed since the last fold.
    slot: [Vec<u32>; SERIES_KIND_COUNT],
    /// `(kind, id, folded value)` in first-fed order.
    vals: Vec<(SeriesKind, u16, f64)>,
}

impl ScopeBuffer {
    fn feed(&mut self, kind: SeriesKind, id: u16, value: f64) {
        let Some(slots) = self.slot.get_mut(kind.index()) else {
            return;
        };
        let at = usize::from(id);
        if slots.len() <= at {
            slots.resize(at + 1, 0);
        }
        let Some(slot) = slots.get_mut(at) else {
            return;
        };
        match self.vals.get_mut((*slot as usize).wrapping_sub(1)) {
            Some((_, _, prev)) if kind.folds_by_max() => *prev = prev.max(value),
            Some((_, _, prev)) => *prev += value,
            None => {
                self.vals.push((kind, id, value));
                *slot = u32::try_from(self.vals.len()).unwrap_or(u32::MAX);
            }
        }
    }

    /// Whether nothing was fed since the last fold.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// [`ScopeRecorder::merge`], buffered.
    pub fn merge(&mut self, switch: u16, w0: f64, top_link: Option<u16>) {
        self.feed(SeriesKind::SwitchFanIn, switch, 1.0);
        if let Some(link) = top_link {
            self.feed(SeriesKind::LinkSuspicion, link, w0);
        }
    }

    /// [`ScopeRecorder::warning`], buffered.
    pub fn warning(&mut self, link: u16) {
        self.feed(SeriesKind::LinkWarnings, link, 1.0);
    }
}

/// Shortest round-trip decimal for a finite `f64`; non-finite renders as
/// `null` (valid JSON; series values are never non-finite in practice).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

// ---- trace read-back -------------------------------------------------------

/// One series read back from a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSeries {
    pub kind: String,
    pub id: u16,
    pub evicted: u64,
    pub points: Vec<(u64, f64)>,
}

/// One span read back from a trace file (`dur_us` is wall-clock and must be
/// excluded from determinism comparisons).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub dur_us: u64,
}

/// The decoded contents of a `.trace.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceData {
    pub meta: Option<ScopeMeta>,
    pub series: Vec<TraceSeries>,
    pub spans: Vec<TraceSpan>,
}

impl TraceData {
    /// Parse a trace document produced by [`ScopeRecorder::to_trace_json`].
    /// Keys it does not read are ignored, so a trace that still carries the
    /// retired `profiler` block loads too.
    pub fn from_json_str(text: &str) -> Result<TraceData, String> {
        let doc = parse_json(text)?;
        let scope = doc.get("dbScope").ok_or("missing dbScope object")?;

        let meta = match scope.get("meta") {
            None | Some(Json::Null) => None,
            Some(m) => Some(ScopeMeta {
                interval_ns: field_u64(m, "interval_ns")?,
                t_fail_ns: field_u64(m, "t_fail_ns")?,
                total_links: field_u64(m, "total_links")? as u32,
                total_switches: field_u64(m, "total_switches")? as u32,
                alpha: field_f64(m, "alpha")?,
                beta: field_f64(m, "beta")?,
                hop_min: field_u64(m, "hop_min")? as u32,
            }),
        };

        let mut series = Vec::new();
        for s in arr_of(scope, "series")? {
            let mut points = Vec::new();
            for p in arr_of(s, "points")? {
                let pair = p.as_arr().ok_or("point is not a pair")?;
                let (Some(w), Some(v)) = (
                    pair.first().and_then(Json::as_u64),
                    pair.get(1).and_then(Json::as_f64),
                ) else {
                    return Err("malformed point".to_string());
                };
                points.push((w, v));
            }
            series.push(TraceSeries {
                kind: field_str(s, "kind")?,
                id: field_u64(s, "id")? as u16,
                evicted: field_u64(s, "evicted")?,
                points,
            });
        }

        let mut spans = Vec::new();
        for sp in arr_of(scope, "spans")? {
            let parent = sp
                .get("parent")
                .and_then(Json::as_f64)
                .filter(|p| *p >= 0.0)
                .map(|p| p as u32);
            spans.push(TraceSpan {
                id: field_u64(sp, "id")? as u32,
                parent,
                name: field_str(sp, "name")?,
                dur_us: field_u64(sp, "dur_us")?,
            });
        }

        Ok(TraceData {
            meta,
            series,
            spans,
        })
    }

    /// Read and parse a trace file.
    pub fn load(path: &Path) -> Result<TraceData, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json_str(&text)
    }

    /// The series for `kind` and `id`, if recorded.
    pub fn series_for(&self, kind: SeriesKind, id: u16) -> Option<&TraceSeries> {
        let name = kind.as_str();
        self.series.iter().find(|s| s.kind == name && s.id == id)
    }

    /// Canonical text of the deterministic surface: meta, series content,
    /// and span structure (names and parent links). Wall-clock durations
    /// are excluded, so two traces of the same unit — at any worker count —
    /// digest identically.
    pub fn deterministic_digest(&self) -> String {
        let mut out = String::new();
        match &self.meta {
            Some(m) => {
                let _ = writeln!(
                    out,
                    "meta interval_ns={} t_fail_ns={} links={} switches={} alpha={} beta={} hop_min={}",
                    m.interval_ns,
                    m.t_fail_ns,
                    m.total_links,
                    m.total_switches,
                    fmt_f64(m.alpha),
                    fmt_f64(m.beta),
                    m.hop_min,
                );
            }
            None => {
                let _ = writeln!(out, "meta none");
            }
        }
        for s in &self.series {
            let _ = write!(out, "series {} {} evicted={}", s.kind, s.id, s.evicted);
            for (w, v) in &s.points {
                let _ = write!(out, " ({w},{})", fmt_f64(*v));
            }
            out.push('\n');
        }
        for sp in &self.spans {
            let parent = sp.parent.map(i64::from).unwrap_or(-1);
            let _ = writeln!(out, "span {} parent={} name={}", sp.id, parent, sp.name);
        }
        out
    }
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-number field `{key}`"))
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn arr_of<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array field `{key}`"))
}

// ---- rendering helpers -----------------------------------------------------

/// Render values as a unicode sparkline (`▁▂▃▄▅▆▇█`), scaled to the value
/// range. Constant series render as a flat mid line.
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let range = hi - lo;
    values
        .iter()
        .map(|v| {
            if !range.is_finite() || range <= 0.0 {
                BLOCKS[3]
            } else {
                let t = ((v - lo) / range * 7.0).round();
                BLOCKS[(t as usize).min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(interval_ns: u64) -> ScopeMeta {
        ScopeMeta {
            interval_ns,
            t_fail_ns: 5 * interval_ns,
            total_links: 16,
            total_switches: 8,
            alpha: 0.25,
            beta: 2.0,
            hop_min: 3,
        }
    }

    #[test]
    fn series_fold_by_window_sum_and_max() {
        let rec = ScopeRecorder::default();
        rec.set_meta(meta(100));
        // Window 0: two votes on link 3 sum; two merges on switch 1 count.
        rec.feeder().vote(10, 3, 1.0);
        rec.feeder().vote(20, 3, -1.0);
        rec.merge(30, 1, 2.5, Some(3));
        rec.merge(40, 1, 4.0, Some(3)); // max folds suspicion

        // Window 2: another vote (window 1 stays empty — no point emitted).
        rec.feeder().vote(250, 3, 1.0);
        let t = TraceData::from_json_str(&rec.to_trace_json()).unwrap();
        let votes = t.series_for(SeriesKind::LinkVotes, 3).unwrap();
        assert_eq!(votes.points, vec![(0, 0.0), (2, 1.0)]);
        let susp = t.series_for(SeriesKind::LinkSuspicion, 3).unwrap();
        assert_eq!(susp.points, vec![(0, 4.0)]);
        let fanin = t.series_for(SeriesKind::SwitchFanIn, 1).unwrap();
        assert_eq!(fanin.points, vec![(0, 2.0)]);
        assert!(t.series_for(SeriesKind::LinkVotes, 4).is_none());
    }

    /// Merges and warnings through a buffer folded once per window leave
    /// the series direct feeds leave, and a folded buffer is empty again.
    #[test]
    fn a_buffer_folded_per_window_feeds_what_direct_feeds_do() {
        let feeds: [(u64, u16, f64, Option<u16>); 5] = [
            (10, 1, 2.5, Some(3)),
            (20, 2, 4.0, Some(3)),
            (30, 1, 1.0, None),
            (140, 1, 0.5, Some(7)),
            (150, 3, 6.0, Some(7)),
        ];
        let direct = ScopeRecorder::default();
        direct.set_meta(meta(100));
        for &(at, switch, w0, top) in &feeds {
            direct.merge(at, switch, w0, top);
            if let Some(link) = top {
                direct.warning(at, link);
            }
        }
        let folded = ScopeRecorder::default();
        folded.set_meta(meta(100));
        let mut buf = ScopeBuffer::default();
        for window in feeds.chunk_by(|a, b| a.0 / 100 == b.0 / 100) {
            for &(_, switch, w0, top) in window.iter().rev() {
                buf.merge(switch, w0, top);
                if let Some(link) = top {
                    buf.warning(link);
                }
            }
            folded.fold(window[0].0, &mut buf);
            assert!(buf.vals.is_empty() && buf.slot.iter().flatten().all(|&s| s == 0));
        }
        let digest = |r: &ScopeRecorder| {
            TraceData::from_json_str(&r.to_trace_json())
                .unwrap()
                .deterministic_digest()
        };
        assert_eq!(digest(&folded), digest(&direct));
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let rec = ScopeRecorder::new(4);
        rec.set_meta(meta(10));
        for w in 0..10u64 {
            rec.drop_event(w * 10, 5);
        }
        let t = TraceData::from_json_str(&rec.to_trace_json()).unwrap();
        let drops = t.series_for(SeriesKind::LinkDrops, 5).unwrap();
        assert_eq!(drops.points.len(), 4);
        assert_eq!(drops.evicted, 6);
        assert_eq!(drops.points.first(), Some(&(6, 1.0)));
        assert_eq!(drops.points.last(), Some(&(9, 1.0)));
    }

    #[test]
    fn points_from_reports_only_flushed_windows_once() {
        let rec = ScopeRecorder::default();
        rec.set_meta(meta(100));
        rec.feeder().vote(10, 3, 1.0); // window 0, still accumulating
        let mut out = Vec::new();
        assert_eq!(rec.points_from(0, &mut out), 0);
        assert!(out.is_empty(), "unflushed window must not leak");
        assert_eq!(rec.flushed_watermark(), None);

        rec.feeder().vote(110, 3, 2.0); // window 1 opens; window 0 flushes
        let cursor = rec.points_from(0, &mut out);
        assert_eq!(cursor, 1, "cursor is one past the delivered window");
        assert_eq!(
            out,
            vec![ScopePoint {
                kind: SeriesKind::LinkVotes,
                id: 3,
                window: 0,
                value: 1.0
            }]
        );

        rec.feeder().vote(250, 3, 4.0); // window 2 opens; window 1 flushes
        out.clear();
        let cursor = rec.points_from(cursor, &mut out);
        assert_eq!(cursor, 2);
        assert_eq!(
            out,
            vec![ScopePoint {
                kind: SeriesKind::LinkVotes,
                id: 3,
                window: 1,
                value: 2.0
            }]
        );
        // Same cursor again: no duplicates, cursor unchanged.
        let mut again = Vec::new();
        assert_eq!(rec.points_from(cursor, &mut again), cursor);
        assert!(again.is_empty());
        assert_eq!(rec.flushed_watermark(), Some(1));
    }

    #[test]
    fn series_kind_codes_round_trip() {
        for kind in SeriesKind::ALL {
            assert_eq!(SeriesKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(SeriesKind::from_code(200), None);
    }

    #[test]
    fn feeds_without_meta_are_dropped_and_out_of_range_ids_ignored() {
        let rec = ScopeRecorder::default();
        rec.feeder().vote(10, 3, 1.0); // before set_meta
        rec.set_meta(meta(100));
        rec.feeder().vote(10, 999, 1.0); // id ≥ total_links
        let t = TraceData::from_json_str(&rec.to_trace_json()).unwrap();
        assert!(t.series.is_empty());
    }

    #[test]
    fn span_stack_builds_parent_links_and_window_rolls() {
        let rec = ScopeRecorder::default();
        rec.set_meta(meta(100));
        let unit = rec.begin_span("unit 0");
        let sim = rec.begin_span("phase.simulate");
        rec.window_roll(0); // window 0
        let m = rec.begin_span("phase.monitor");
        rec.end_span(m);
        rec.window_roll(100); // rolls to window 1
        rec.window_roll(150); // same window: no-op
        rec.end_span(sim);
        rec.end_span(unit);
        let t = TraceData::from_json_str(&rec.to_trace_json()).unwrap();
        let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "unit 0",
                "phase.simulate",
                "window 0",
                "phase.monitor",
                "window 1"
            ]
        );
        let by_name = |n: &str| t.spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("unit 0").parent, None);
        assert_eq!(by_name("phase.simulate").parent, Some(by_name("unit 0").id));
        assert_eq!(
            by_name("window 0").parent,
            Some(by_name("phase.simulate").id)
        );
        assert_eq!(
            by_name("phase.monitor").parent,
            Some(by_name("window 0").id)
        );
        assert_eq!(
            by_name("window 1").parent,
            Some(by_name("phase.simulate").id)
        );
    }

    #[test]
    fn end_span_closes_open_descendants() {
        let rec = ScopeRecorder::default();
        let outer = rec.begin_span("outer");
        let _inner = rec.begin_span("inner"); // never explicitly ended
        rec.end_span(outer);
        let next = rec.begin_span("next");
        rec.end_span(next);
        let t = TraceData::from_json_str(&rec.to_trace_json()).unwrap();
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[2].parent, None, "stack unwound past `outer`");
    }

    #[test]
    fn trace_json_round_trips_through_own_parser() {
        let rec = ScopeRecorder::default();
        rec.set_meta(meta(1_000_000));
        let s = rec.begin_span("phase.simulate");
        rec.merge(1_500_000, 2, 3.5, Some(7));
        rec.warning(1_600_000, 7);
        rec.queue_depth(2_000_000, 42);
        rec.end_span(s);
        let text = rec.to_trace_json();
        let t = TraceData::from_json_str(&text).unwrap();
        assert_eq!(t.meta.unwrap().interval_ns, 1_000_000);
        assert_eq!(
            t.series_for(SeriesKind::LinkSuspicion, 7).unwrap().points,
            vec![(1, 3.5)]
        );
        assert_eq!(
            t.series_for(SeriesKind::QueueDepth, 0).unwrap().points,
            vec![(2, 42.0)]
        );
        // The digest is stable across an encode→decode cycle.
        let t2 = TraceData::from_json_str(&text).unwrap();
        assert_eq!(t.deterministic_digest(), t2.deterministic_digest());
        assert!(t.deterministic_digest().contains("series link.suspicion 7"));
        // A trace that still carries the retired profiler block loads alike.
        let old = text.replace(
            "\"spans\":[",
            "\"profiler\":{\"enabled\":true,\"counts\":[{\"fn\":\"arrive\",\"calls\":3,\"share\":1}]},\"spans\":[",
        );
        assert_ne!(old, text);
        assert_eq!(TraceData::from_json_str(&old).unwrap(), t);
    }

    #[test]
    fn digest_excludes_wall_clock_durations() {
        let a = TraceData {
            meta: None,
            series: vec![],
            spans: vec![TraceSpan {
                id: 0,
                parent: None,
                name: "x".into(),
                dur_us: 10,
            }],
        };
        let mut b = a.clone();
        b.spans[0].dur_us = 99_999;
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
    }

    #[test]
    fn sparkline_scales_to_range() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0]), "▄▄");
        let s = sparkline(&[0.0, 3.5, 7.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }
}
