//! `db-scope`: time-series health timelines, causal span tracing, and a
//! sampling hot-path profiler (DESIGN.md §13).
//!
//! Three pieces, all hanging off one [`ScopeRecorder`] handle that follows
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
//! * **Profiler** — process-global op counters on the ten db-lint
//!   registered hot-path functions. One relaxed atomic load when off (the
//!   deterministic default), one relaxed `fetch_add` when sampling.
//!
//! Wall-clock reads live here, in the telemetry crate, because the
//! deterministic tier (db-lint `det-time`) forbids them everywhere else.
//! The emitted `.trace.json` keeps the wall-clock surface (`traceEvents`)
//! separate from the deterministic surface (the `dbScope` object), so tests
//! can compare the latter byte-for-byte across worker counts.

use crate::export::json_escape;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---- hot-path profiler -----------------------------------------------------

/// Number of db-lint registered hot-path functions (lint.toml `[hotpath]`,
/// core + netsim tier).
pub const HOT_FN_COUNT: usize = 10;

/// The ten hot-path functions the sampling profiler counts, exactly the
/// core/netsim entries of lint.toml's `[hotpath]` registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum HotFn {
    /// `core::system::on_packet`
    OnPacket = 0,
    /// `core::system::handle_distributed`
    HandleDistributed = 1,
    /// `netsim::engine::host_send`
    HostSend = 2,
    /// `netsim::engine::arrive`
    Arrive = 3,
    /// `netsim::engine::deliver`
    Deliver = 4,
    /// `netsim::engine::ack_arrive`
    AckArrive = 5,
    /// `netsim::engine::dispatch`
    Dispatch = 6,
    /// `netsim::engine::push`
    Push = 7,
    /// `netsim::engine::push_raw`
    PushRaw = 8,
    /// `netsim::engine::record_drop`
    RecordDrop = 9,
}

impl HotFn {
    /// Every variant, in counter order.
    pub const ALL: [HotFn; HOT_FN_COUNT] = [
        HotFn::OnPacket,
        HotFn::HandleDistributed,
        HotFn::HostSend,
        HotFn::Arrive,
        HotFn::Deliver,
        HotFn::AckArrive,
        HotFn::Dispatch,
        HotFn::Push,
        HotFn::PushRaw,
        HotFn::RecordDrop,
    ];

    /// Stable snake_case name used in trace JSON and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            HotFn::OnPacket => "on_packet",
            HotFn::HandleDistributed => "handle_distributed",
            HotFn::HostSend => "host_send",
            HotFn::Arrive => "arrive",
            HotFn::Deliver => "deliver",
            HotFn::AckArrive => "ack_arrive",
            HotFn::Dispatch => "dispatch",
            HotFn::Push => "push",
            HotFn::PushRaw => "push_raw",
            HotFn::RecordDrop => "record_drop",
        }
    }
}

static PROF_ENABLED: AtomicBool = AtomicBool::new(false);
static PROF_COUNTS: [AtomicU64; HOT_FN_COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Sample one hot-path call. When the profiler is off (the default) this is
/// a single relaxed load — deterministic and free of side effects, so the
/// deterministic tier stays bit-identical. When on, one relaxed `fetch_add`.
#[inline(always)]
pub fn hot(f: HotFn) {
    if PROF_ENABLED.load(Ordering::Relaxed) {
        PROF_COUNTS[f as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Turn hot-path sampling on (process-wide).
pub fn profiler_enable() {
    PROF_ENABLED.store(true, Ordering::SeqCst);
}

/// Turn hot-path sampling off. Counter values are kept.
pub fn profiler_disable() {
    PROF_ENABLED.store(false, Ordering::SeqCst);
}

/// Whether hot-path sampling is currently on.
pub fn profiler_enabled() -> bool {
    // The flag gates whether tallies are *sampled*, never which memory is
    // read; a stale read loses or adds a few counts around enable/disable.
    // db-lint: allow(conc-relaxed-publish) — sampling gate, not a data gate
    PROF_ENABLED.load(Ordering::Relaxed)
}

/// Current counter values, in [`HotFn::ALL`] order. Counters are
/// process-global and monotonic; subtract a baseline for per-run deltas
/// (a [`ScopeRecorder`] does this automatically).
pub fn profiler_counts() -> [u64; HOT_FN_COUNT] {
    let mut out = [0u64; HOT_FN_COUNT];
    for (slot, c) in out.iter_mut().zip(PROF_COUNTS.iter()) {
        *slot = c.load(Ordering::Relaxed);
    }
    out
}

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

/// Static run parameters, pinned once per scenario (like the flight
/// recorder's `RunMeta`). `interval_ns` drives window derivation:
/// `window = at_ns / interval_ns`, the same convention `explain` uses to
/// place flight records.
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
    prof_base: [u64; HOT_FN_COUNT],
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
            prof_base: profiler_counts(),
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
        let w = at_ns / meta.interval_ns.max(1);
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
            let w = at_ns / meta.interval_ns.max(1);
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
    /// series, span structure (names and parent links, no durations), and
    /// profiler counts. Viewers ignore unknown top-level keys.
    pub fn to_trace_json(&self) -> String {
        let end_us = self.now_us();
        let prof = profiler_counts();
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
        out.push_str("],");

        let _ = write!(
            out,
            "\"profiler\":{{\"enabled\":{},\"counts\":[",
            profiler_enabled()
        );
        let total: u64 = HotFn::ALL
            .iter()
            .map(|f| prof[*f as usize].saturating_sub(self.prof_base[*f as usize]))
            .sum();
        for (i, f) in HotFn::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let calls = prof[*f as usize].saturating_sub(self.prof_base[*f as usize]);
            let share = if total > 0 {
                calls as f64 / total as f64
            } else {
                0.0
            };
            let _ = write!(
                out,
                "{{\"fn\":\"{}\",\"calls\":{},\"share\":{}}}",
                f.as_str(),
                calls,
                fmt_f64(share)
            );
        }
        out.push_str("]}}}");
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

/// Shortest round-trip decimal for a finite `f64`; non-finite renders as
/// `null` (valid JSON; series values are never non-finite in practice).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

// ---- minimal JSON reader ---------------------------------------------------

/// A parsed JSON value. The workspace is std-only, so `timeline` and the
/// determinism tests read traces back through this minimal recursive-descent
/// parser instead of a serde dependency.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] descends into. The parser
/// recurses once per level, so input must not choose the stack depth;
/// traces nest 4 deep.
const MAX_JSON_DEPTH: usize = 128;

/// Parse a JSON document. Errors carry a byte offset and a short reason.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00))
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both are
                    // ASCII, so the run ends on a char boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
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
    /// `(function name, calls)` profiler deltas, in [`HotFn::ALL`] order.
    pub profiler: Vec<(String, u64)>,
    pub profiler_enabled: bool,
}

impl TraceData {
    /// Parse a trace document produced by [`ScopeRecorder::to_trace_json`].
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

        let prof = scope.get("profiler").ok_or("missing profiler")?;
        let profiler_enabled = prof.get("enabled").and_then(Json::as_bool).unwrap_or(false);
        let mut profiler = Vec::new();
        for c in arr_of(prof, "counts")? {
            profiler.push((field_str(c, "fn")?, field_u64(c, "calls")?));
        }

        Ok(TraceData {
            meta,
            series,
            spans,
            profiler,
            profiler_enabled,
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
    /// and process-global profiler counts are excluded, so two traces of
    /// the same unit — at any worker count — digest identically.
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
            profiler: vec![],
            profiler_enabled: false,
        };
        let mut b = a.clone();
        b.spans[0].dur_us = 99_999;
        b.profiler = vec![("on_packet".into(), 123)];
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
    }

    // The profiler toggle is process-global, so its whole lifecycle lives
    // in one #[test] (same pattern as the telemetry enable/disable test).
    #[test]
    fn profiler_lifecycle_counts_only_when_enabled() {
        let before = profiler_counts();
        hot(HotFn::Arrive); // off: must not count
        assert_eq!(
            profiler_counts()[HotFn::Arrive as usize],
            before[HotFn::Arrive as usize]
        );

        let rec = ScopeRecorder::default(); // baseline snapshot
        profiler_enable();
        assert!(profiler_enabled());
        hot(HotFn::Arrive);
        hot(HotFn::Arrive);
        hot(HotFn::Push);
        profiler_disable();
        hot(HotFn::Arrive); // off again: not counted

        let t = TraceData::from_json_str(&rec.to_trace_json()).unwrap();
        let calls: std::collections::BTreeMap<&str, u64> =
            t.profiler.iter().map(|(n, c)| (n.as_str(), *c)).collect();
        assert_eq!(calls["arrive"], 2);
        assert_eq!(calls["push"], 1);
        assert_eq!(calls["on_packet"], 0);
        assert_eq!(t.profiler.len(), HOT_FN_COUNT);
    }

    #[test]
    fn parser_handles_escapes_nesting_and_rejects_garbage() {
        let v = parse_json(r#"{"a":[1,-2.5,1e3],"b":"x\n\"A😀","c":null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(1000.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\n\"A😀"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("true false").is_err());
    }

    /// Nesting is input-controlled and the parser recurses per level: past
    /// the cap it is an error naming the byte, never a stack overflow.
    #[test]
    fn parser_refuses_nesting_past_the_cap() {
        for unit in ["[", r#"{"a":"#] {
            let err = parse_json(&unit.repeat(200_000)).unwrap_err();
            let at = unit.len() * MAX_JSON_DEPTH;
            assert_eq!(err, format!("nesting deeper than 128 at byte {at}"));
        }
        let ok = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        assert!(parse_json(&ok).is_ok(), "the cap itself still parses");
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
