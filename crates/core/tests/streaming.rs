//! The engine's carrier table and snapshot format, layer by layer.
//!
//! That streaming, and streaming across a mid-stream `snapshot()` /
//! `restore()`, reproduce the batch run is pinned with every other mode in
//! the root `tests/modes.rs`. What stays here are the pins of one layer:
//! the hashed carrier table against its ordered-map model, the snapshot
//! bytes (`PINNED_MID_STREAM_DIGEST`, canonical carrier order, the §4.3
//! ablation's locals) and `restore`'s refusal of every damaged snapshot.
//! All of it runs on a line topology with the threshold classifier: no
//! training, fast enough to randomize.

use db_core::engine::{Engine, FlowRecord};
use db_core::{DriftBottleSystem, Mechanism, SystemConfig, VariantSpec, Warning};
use db_dtree::ThresholdClassifier;
use db_flowmon::{SwitchMonitor, WindowConfig};
use db_netsim::{
    Annotation, FailureScenario, Observer, SimConfig, SimTime, Simulator, TraceRecorder,
    TrafficConfig, TrafficGen,
};
use db_topology::{zoo, LinkId, RouteTable};
use db_util::wire::{ByteReader, ByteWriter};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// Everything needed to run the same line scenario in batch or streaming.
struct LineCase {
    topo: db_topology::Topology,
    flows: Vec<db_netsim::FlowSpec>,
    wcfg: WindowConfig,
    window: (SimTime, SimTime),
    cfg: SystemConfig,
    scenario: FailureScenario,
    sim_cfg: SimConfig,
    end: SimTime,
    seed: u64,
}

fn line_case(seed: u64) -> LineCase {
    let topo = zoo::line_with_latency(5, 3.0);
    let routes = RouteTable::build(&topo);
    let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), seed);
    let interval = SimTime::from_ms(4);
    let wcfg = WindowConfig::for_network(&routes, interval);
    let t_fail = SimTime::from_ms(80);
    let window = (t_fail, t_fail + wcfg.window_len() + SimTime::from_ms(20));
    let end = window.1 + SimTime::from_ms(8);
    let cfg = SystemConfig {
        ratio_sampling: 8,
        warning: db_inference::WarningConfig {
            hop_min: 2,
            alpha: 1.0,
            beta: 1.6,
        },
        ..Default::default()
    };
    let scenario = FailureScenario::single_link(LinkId(2), t_fail);
    let sim_cfg = SimConfig {
        end,
        tick_interval: interval,
        ..Default::default()
    };
    LineCase {
        topo,
        flows,
        wcfg,
        window,
        cfg,
        scenario,
        sim_cfg,
        end,
        seed,
    }
}

fn record_line_trace(case: &LineCase) -> TraceRecorder {
    let mut sim = Simulator::new(
        &case.topo,
        case.flows.clone(),
        case.sim_cfg.clone(),
        &case.scenario,
        case.seed,
        TraceRecorder::new(),
    );
    sim.run();
    sim.finish().0
}

// ---------------------------------------------------------------------------
// The carrier table: hashed slots + per-tick sweep ≡ ordered map + age queue
// ---------------------------------------------------------------------------

/// Bytes of a snapshot before the carrier count: version, fingerprint, now,
/// next tick, ticks fired.
const SNAPSHOT_CLOCK_BYTES: usize = 1 + 8 + 8 + 8 + 4;

/// One encoded carrier entry and its `(flow, seq)` key.
type CarrierEntry<'a> = ((u32, u64), &'a [u8]);

/// Split snapshot bytes into the clock prefix, the carrier entries (in
/// encoded order) and the system state.
fn split_snapshot(snap: &[u8]) -> (&[u8], Vec<CarrierEntry<'_>>, &[u8]) {
    let be32 = |at: usize| u32::from_be_bytes(snap[at..at + 4].try_into().expect("4 bytes"));
    let be64 = |at: usize| u64::from_be_bytes(snap[at..at + 8].try_into().expect("8 bytes"));
    let mut at = SNAPSHOT_CLOCK_BYTES;
    let count = be32(at);
    at += 4;
    let mut carriers = Vec::new();
    for _ in 0..count {
        // flow u32, seq u64, last touch u64, annotation length u32 + bytes
        let key = (be32(at), be64(at + 4));
        let len = 4 + 8 + 8 + 4 + be32(at + 20) as usize;
        carriers.push((key, &snap[at..at + len]));
        at += len;
    }
    (&snap[..SNAPSHOT_CLOCK_BYTES], carriers, &snap[at..])
}

fn carrier_keys(snap: &[u8]) -> Vec<(u32, u64)> {
    split_snapshot(snap).1.into_iter().map(|(k, _)| k).collect()
}

/// Test-only reference model of the carrier bookkeeping `Engine` had before
/// the hashed table: an ordered map plus a queue of touch times in arrival
/// order, walked from the front at every tick, re-checking the live entry
/// before dropping it. Same system underneath, same snapshot encoding.
struct QueueModelEngine {
    system: DriftBottleSystem<ThresholdClassifier>,
    interval: SimTime,
    now: SimTime,
    next_tick: SimTime,
    ticks_fired: u32,
    carriers: BTreeMap<(u32, u64), (Annotation, SimTime)>,
    age: VecDeque<(SimTime, (u32, u64))>,
    retention: u32,
}

impl QueueModelEngine {
    fn new(mut system: DriftBottleSystem<ThresholdClassifier>, retention: u32) -> Self {
        system.set_live_warnings();
        let interval = system.window_config().interval;
        QueueModelEngine {
            system,
            interval,
            now: SimTime::ZERO,
            next_tick: interval,
            ticks_fired: 0,
            carriers: BTreeMap::new(),
            age: VecDeque::new(),
            retention,
        }
    }

    fn fire_tick(&mut self) {
        let t = self.next_tick;
        self.system.on_tick(t);
        self.ticks_fired += 1;
        self.now = t;
        self.next_tick = t + self.interval;
        let horizon = self.interval.as_ns() * u64::from(self.retention);
        let cutoff = SimTime::from_ns(t.as_ns().saturating_sub(horizon));
        while let Some(&(touched, key)) = self.age.front() {
            if touched >= cutoff {
                break;
            }
            self.age.pop_front();
            if self
                .carriers
                .get(&key)
                .is_some_and(|&(_, last)| last < cutoff)
            {
                self.carriers.remove(&key);
            }
        }
    }

    fn ingest(&mut self, rec: &FlowRecord) -> Vec<Warning> {
        while self.next_tick <= rec.at {
            self.fire_tick();
        }
        let key = (rec.info.flow.0, rec.info.seq);
        let mut ann = match self.carriers.remove(&key) {
            Some((ann, _)) if !rec.info.is_ingress => ann,
            _ => Annotation::empty(),
        };
        self.system.on_packet(rec.at, &rec.info, &mut ann);
        self.now = self.now.max(rec.at);
        if !rec.info.is_last_switch && !ann.is_empty() {
            self.carriers.insert(key, (ann, rec.at));
            self.age.push_back((rec.at, key));
        }
        self.system.drain_warnings()
    }

    fn advance_to(&mut self, t: SimTime) -> Vec<Warning> {
        while self.next_tick <= t {
            self.fire_tick();
        }
        self.now = self.now.max(t);
        self.system.drain_warnings()
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(1);
        w.u64(self.system.config_fingerprint());
        w.u64(self.now.as_ns());
        w.u64(self.next_tick.as_ns());
        w.u32(self.ticks_fired);
        w.seq(self.carriers.len());
        for (&(flow, seq), (ann, last)) in &self.carriers {
            w.u32(flow);
            w.u64(seq);
            w.u64(last.as_ns());
            w.seq(ann.len());
            for &b in ann.as_slice() {
                w.u8(b);
            }
        }
        self.system.snapshot_into(&mut w);
        w.into_bytes()
    }
}

/// Every distributed carrier kind at once: the wire header (parked in the
/// lanes' header tables), an exact-weight side table (the lanes' side
/// tables), and a centralized baseline.
fn carrier_variants() -> Vec<VariantSpec> {
    vec![
        VariantSpec::drift_bottle(),
        VariantSpec::distributed(db_inference::WeightScheme::Drifted007),
        VariantSpec::centralized(db_inference::WeightScheme::DriftBottle, 0.4),
    ]
}

fn deploy_line_with(
    case: &LineCase,
    variants: Vec<VariantSpec>,
) -> DriftBottleSystem<ThresholdClassifier> {
    DriftBottleSystem::deploy(
        &case.topo,
        &case.flows,
        case.wcfg,
        ThresholdClassifier::default(),
        variants,
        case.cfg.clone(),
        case.window,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On a time-ordered feed the per-tick sweep evicts exactly what the
    /// age-queue walk evicted: same warnings per record, same carrier key
    /// set after every tick, same final snapshot bytes — at retention 1–4
    /// and on a lossy feed (every `lossy`-th record missing, so carriers
    /// are orphaned mid-path and hop records arrive with theirs evicted).
    #[test]
    fn sweep_eviction_matches_the_age_queue_model(
        seed in 1u64..500,
        retention in 1u32..=4,
        lossy in 0usize..6,
    ) {
        let case = line_case(seed);
        let trace = record_line_trace(&case);
        let mut engine = Engine::new(deploy_line_with(&case, carrier_variants()));
        engine.set_live_warnings();
        engine.set_retention(retention);
        let mut model =
            QueueModelEngine::new(deploy_line_with(&case, carrier_variants()), retention);
        let mut evicting_ticks = 0u32;
        for (i, o) in trace.observations.iter().enumerate() {
            if lossy > 0 && i % (lossy + 2) == 0 {
                continue;
            }
            let rec = FlowRecord::from(*o);
            let ticks_before = engine.ticks_fired();
            let parked_before = engine.carriers_in_flight();
            prop_assert_eq!(engine.ingest(&rec), model.ingest(&rec), "warnings of record {}", i);
            if engine.ticks_fired() != ticks_before {
                let keys: Vec<(u32, u64)> = model.carriers.keys().copied().collect();
                prop_assert_eq!(
                    carrier_keys(&engine.snapshot()),
                    keys,
                    "carrier keys after tick {}",
                    engine.ticks_fired()
                );
                // This record parked at most one carrier after the sweep.
                if engine.carriers_in_flight() + 1 < parked_before {
                    evicting_ticks += 1;
                }
            }
        }
        prop_assert_eq!(engine.advance_to(case.end), model.advance_to(case.end));
        prop_assert_eq!(engine.snapshot(), model.snapshot());
        prop_assert!(evicting_ticks > 0, "the failure orphans carriers, so some tick evicts");
    }
}

const PINNED_MID_STREAM_DIGEST: u64 = 0x7178_3411_d769_625a;

/// The line case under every carrier kind, retention 2, fed the first
/// `num / den` of its trace.
fn line_engine_fed(
    case: &LineCase,
    trace: &TraceRecorder,
    num: usize,
    den: usize,
) -> Engine<ThresholdClassifier> {
    let mut engine = Engine::new(deploy_line_with(case, carrier_variants()));
    engine.set_live_warnings();
    engine.set_retention(2);
    let cut = trace.observations.len() * num / den;
    for o in &trace.observations[..cut] {
        engine.ingest(&FlowRecord::from(*o));
    }
    engine
}

/// The snapshot encoding did not move with the table: `fnv1a64` of a
/// mid-stream snapshot of the line case (three quarters in, after the
/// failure, retention 2, both carrier tables populated), computed on
/// the commit before the hashed table (ordered map, SipHash side tables).
#[test]
fn mid_stream_snapshot_digest_is_pinned() {
    let case = line_case(7);
    let trace = record_line_trace(&case);
    let engine = line_engine_fed(&case, &trace, 3, 4);
    let snap = engine.snapshot();
    assert!(
        engine.carriers_in_flight() > 8,
        "carriers in flight at the cut"
    );
    assert_eq!(
        db_util::wire::fnv1a64(&snap),
        PINNED_MID_STREAM_DIGEST,
        "snapshot bytes changed ({} bytes, {} carriers)",
        snap.len(),
        engine.carriers_in_flight()
    );
}

/// Snapshot bytes depend on what the table holds, never on how it got
/// there: an engine restored from a snapshot whose carriers were encoded in
/// *reverse* key order (so its table is filled back to front, into a table
/// sized by a different growth history) re-encodes the canonical bytes, and
/// stays byte-equal to the original through the rest of the stream — takes,
/// puts and sweeps included.
#[test]
fn equal_carrier_sets_snapshot_equal_whatever_the_insert_history() {
    let case = line_case(11);
    let trace = record_line_trace(&case);
    let fresh = || {
        let mut e = Engine::new(deploy_line_with(&case, carrier_variants()));
        e.set_live_warnings();
        e.set_retention(3);
        e
    };
    let mut original = fresh();
    let cut = trace.observations.len() * 2 / 3;
    for o in &trace.observations[..cut] {
        original.ingest(&FlowRecord::from(*o));
    }
    let snap = original.snapshot();

    let (clock, carriers, system) = split_snapshot(&snap);
    assert!(carriers.len() > 8, "carriers in flight at the cut");
    assert!(
        carriers.windows(2).all(|w| w[0].0 < w[1].0),
        "encoded in key order"
    );
    let mut reversed = clock.to_vec();
    reversed.extend_from_slice(&(carriers.len() as u32).to_be_bytes());
    for (_, entry) in carriers.iter().rev() {
        reversed.extend_from_slice(entry);
    }
    reversed.extend_from_slice(system);
    assert_ne!(reversed, snap);

    let mut refilled = fresh();
    refilled
        .restore(&reversed)
        .expect("carrier order is not part of the format");
    assert_eq!(
        refilled.snapshot(),
        snap,
        "canonical bytes from a back-to-front fill"
    );
    for o in &trace.observations[cut..] {
        let rec = FlowRecord::from(*o);
        assert_eq!(original.ingest(&rec), refilled.ingest(&rec));
    }
    original.advance_to(case.end);
    refilled.advance_to(case.end);
    assert_eq!(refilled.snapshot(), original.snapshot());
}

/// The §4.3 ablation rewrites a switch's local inference on every hop, not
/// only at window close, so a mid-window snapshot holds locals no tick
/// produced: it restores onto a fresh engine, re-encodes byte-equal, and
/// both engines answer the rest of the stream identically.
#[test]
fn absorbing_variant_round_trips_mid_run() {
    let case = line_case(7);
    let trace = record_line_trace(&case);
    let fresh = |absorbing: bool| {
        let mechanism = if absorbing {
            Mechanism::DistributedAbsorbing
        } else {
            Mechanism::DistributedVirtual
        };
        let variant = VariantSpec {
            name: "DB-Absorbing".into(),
            scheme: db_inference::WeightScheme::DriftBottle,
            mechanism,
        };
        let mut e = Engine::new(deploy_line_with(&case, vec![variant]));
        e.set_live_warnings();
        e
    };
    let cut = trace.observations.len() * 3 / 4;
    let feed = |e: &mut Engine<ThresholdClassifier>| {
        for o in &trace.observations[..cut] {
            e.ingest(&FlowRecord::from(*o));
        }
    };
    let mut original = fresh(true);
    feed(&mut original);
    let snap = original.snapshot();
    // The absorbing branch ran: the same records without it leave other
    // locals behind (the mechanism itself is configuration, not state).
    let mut plain = fresh(false);
    feed(&mut plain);
    let locals = |snap: &[u8]| {
        let (from, to) = inline_local_and_retired_slot(snap, &case);
        snap[from..to].to_vec()
    };
    assert_ne!(locals(&snap), locals(&plain.snapshot()), "absorbed locals");

    let mut restored = fresh(true);
    restored.restore(&snap).expect("snapshot restores");
    assert!(restored.snapshot() == snap, "restored state re-encodes");
    for o in &trace.observations[cut..] {
        let rec = FlowRecord::from(*o);
        assert_eq!(original.ingest(&rec), restored.ingest(&rec));
    }
    original.advance_to(case.end);
    restored.advance_to(case.end);
    assert!(restored.snapshot() == original.snapshot());
}

/// Skip one encoded inference entry list: a count, then `(link, weight)`
/// pairs of a 4-byte id slot and an 8-byte weight.
fn skip_entries(r: &mut ByteReader) {
    let n = r.seq().expect("entry count");
    r.bytes(n * 12).expect("entries");
}

/// Offsets in `snap` of the first list in the first variant's second locals
/// slot (a distributed variant's locals, repeated) and of its retired
/// heap-form carrier count (right after that slot).
fn inline_local_and_retired_slot(snap: &[u8], case: &LineCase) -> (usize, usize) {
    let system = split_snapshot(snap).2;
    let base = snap.len() - system.len();
    let mut r = ByteReader::new(system);
    r.u64().expect("aggregation counter");
    for _ in 0..r.seq().expect("monitor count") {
        SwitchMonitor::restore_from(&mut r, case.wcfg).expect("monitor");
    }
    r.seq().expect("variant count");
    for _ in 0..r.seq().expect("local count") {
        skip_entries(&mut r);
    }
    let inline_locals = r.seq().expect("inline local count");
    let first_inline = base + r.offset();
    for _ in 0..inline_locals {
        skip_entries(&mut r);
    }
    (first_inline, base + r.offset())
}

/// A failed `restore` is a no-op: every truncation of a valid mid-stream
/// snapshot, and three corruptions that once hit an assert or a
/// half-written system (a 33-byte carrier, a 17-entry inline local, a
/// non-empty retired `vtable` slot), return `Err` without panicking and
/// leave the target engine's own snapshot byte-identical.
#[test]
fn failed_restore_leaves_the_engine_untouched() {
    let case = line_case(7);
    let trace = record_line_trace(&case);
    let snap = line_engine_fed(&case, &trace, 3, 4).snapshot();
    // The target has state of its own, so "untouched" is observable.
    let mut target = line_engine_fed(&case, &trace, 1, 4);
    let before = target.snapshot();
    assert_ne!(before, snap);

    let mut attempts: Vec<(String, Vec<u8>)> = (0..snap.len())
        .step_by((snap.len() / 200) | 1) // odd stride: cuts land on every field alignment
        .map(|len| (format!("truncated to {len} bytes"), snap[..len].to_vec()))
        .collect();

    let mut long_carrier = snap.clone();
    let len_at = SNAPSHOT_CLOCK_BYTES + 4 + 20;
    long_carrier[len_at..len_at + 4].copy_from_slice(&33u32.to_be_bytes());
    attempts.push(("33-byte carrier".into(), long_carrier));

    let (inline_at, retired_at) = inline_local_and_retired_slot(&snap, &case);
    let mut r = ByteReader::new(&snap[inline_at..]);
    skip_entries(&mut r);
    let mut w = ByteWriter::new();
    w.seq(17);
    for link in 0..17u16 {
        w.u16w(link);
        w.f64(f64::from(link) + 1.0);
    }
    let mut wide_local = snap[..inline_at].to_vec();
    wide_local.extend_from_slice(&w.into_bytes());
    wide_local.extend_from_slice(&snap[inline_at + r.offset()..]);
    attempts.push(("17-entry inline local".into(), wide_local));

    assert_eq!(snap[retired_at..retired_at + 4], [0; 4], "retired slot");
    let mut revived = snap.clone();
    revived[retired_at + 3] = 1;
    attempts.push(("non-empty retired vtable slot".into(), revived));

    for (what, bytes) in &attempts {
        assert!(target.restore(bytes).is_err(), "{what}: restore succeeded");
        assert!(target.snapshot() == before, "{what}: engine changed");
    }
    target.restore(&snap).expect("the intact snapshot restores");
    assert!(target.snapshot() == snap, "restored state re-encodes");
}

/// Byte offsets (in the whole snapshot) of the fields of one encoded
/// `SwitchMonitor` that size or index something on restore.
struct MonitorFields {
    /// Flow id of each registered flow.
    flow_ids: Vec<usize>,
    /// `n_interval`, upstream count and history count of the first flow,
    /// and where its history ends.
    n_interval: usize,
    n_upstream: usize,
    n_hist: usize,
    hist_end: usize,
    /// The touched-row count, and each row's flow id (its measures follow).
    n_touched: usize,
    touched_ids: Vec<usize>,
}

/// The first monitor in `snap` with at least two flows and a register row
/// touched mid-interval.
fn busy_monitor_fields(snap: &[u8]) -> MonitorFields {
    const MEASURES: usize = 4 + 8 + 4 * 4;
    let system = split_snapshot(snap).2;
    let base = snap.len() - system.len();
    let mut r = ByteReader::new(system);
    r.u64().expect("aggregation counter");
    for _ in 0..r.seq().expect("monitor count") {
        r.u16w().expect("node");
        r.u64().expect("interval start");
        let mut f = MonitorFields {
            flow_ids: Vec::new(),
            n_interval: 0,
            n_upstream: 0,
            n_hist: 0,
            hist_end: 0,
            n_touched: 0,
            touched_ids: Vec::new(),
        };
        for i in 0..r.seq().expect("flow count") {
            f.flow_ids.push(base + r.offset());
            r.u32().expect("flow id");
            r.f64().expect("rtt");
            r.usize().expect("path length");
            let n_interval = base + r.offset();
            r.usize().expect("n_interval");
            let n_upstream = base + r.offset();
            let up = r.seq().expect("upstream count");
            r.bytes(4 * up).expect("upstream");
            r.u64().expect("total packets");
            let n_hist = base + r.offset();
            let hist = r.seq().expect("history count");
            r.bytes(MEASURES * hist).expect("history");
            if i == 0 {
                (f.n_interval, f.n_upstream, f.n_hist) = (n_interval, n_upstream, n_hist);
                f.hist_end = base + r.offset();
            }
        }
        f.n_touched = base + r.offset();
        for _ in 0..r.seq().expect("touched count") {
            f.touched_ids.push(base + r.offset());
            r.bytes(4 + MEASURES).expect("touched row");
        }
        if f.flow_ids.len() >= 2 && !f.touched_ids.is_empty() {
            return f;
        }
    }
    panic!("no monitor with two flows and a touched row at the cut");
}

/// A snapshot is a file: one flipped field in a monitor's section must come
/// back as `Err` — not as an allocation sized by the field (a flow id or a
/// count of `u32::MAX` once asked for hundreds of GB and aborted the
/// process), and not as a monitor holding a history longer than its window,
/// a register row with no flow, or two slots for one flow. The target
/// engine is byte-identical afterwards.
#[test]
fn corrupt_monitor_fields_are_refused_and_size_no_allocation() {
    let case = line_case(7);
    let trace = record_line_trace(&case);
    let snap = line_engine_fed(&case, &trace, 3, 4).snapshot();
    let mut target = line_engine_fed(&case, &trace, 1, 4);
    let before = target.snapshot();
    let f = busy_monitor_fields(&snap);
    let window = case.wcfg.window_intervals as u64;

    let patched = |at: usize, bytes: &[u8]| {
        let mut s = snap.clone();
        s[at..at + bytes.len()].copy_from_slice(bytes);
        s
    };
    let be32 = |v: u32| v.to_be_bytes();
    let first_flow: [u8; 4] = snap[f.flow_ids[0]..][..4].try_into().unwrap();
    let mut attempts = vec![
        ("flow id u32::MAX", patched(f.flow_ids[0], &be32(u32::MAX))),
        (
            "flow id MAX_FLOWS",
            patched(f.flow_ids[0], &be32(db_flowmon::MAX_FLOWS as u32)),
        ),
        ("one flow twice", patched(f.flow_ids[1], &first_flow)),
        ("n_interval 0", patched(f.n_interval, &0u64.to_be_bytes())),
        (
            "n_interval past the window",
            patched(f.n_interval, &(window + 1).to_be_bytes()),
        ),
        (
            "upstream count u32::MAX",
            patched(f.n_upstream, &be32(u32::MAX)),
        ),
        ("history count u32::MAX", patched(f.n_hist, &be32(u32::MAX))),
        (
            "touched count u32::MAX",
            patched(f.n_touched, &be32(u32::MAX)),
        ),
        (
            "register row of flow u32::MAX",
            patched(f.touched_ids[0], &be32(u32::MAX)),
        ),
        (
            "register row of an unregistered flow",
            patched(f.touched_ids[0], &be32(db_flowmon::MAX_FLOWS as u32 - 1)),
        ),
        // n_packet is the row's first field: zero marks it untouched.
        (
            "empty register row",
            patched(f.touched_ids[0] + 4, &be32(0)),
        ),
    ];
    // A history one interval longer than the window, bytes and all.
    let mut long_hist = snap[..f.n_hist].to_vec();
    long_hist.extend_from_slice(&be32(window as u32 + 1));
    long_hist.extend(std::iter::repeat_n(0u8, 28 * (window as usize + 1)));
    long_hist.extend_from_slice(&snap[f.hist_end..]);
    attempts.push(("history past the window", long_hist));

    for (what, bytes) in &attempts {
        assert!(target.restore(bytes).is_err(), "{what}: restore succeeded");
        assert!(target.snapshot() == before, "{what}: engine changed");
    }
    target.restore(&snap).expect("the intact snapshot restores");
    assert!(target.snapshot() == snap, "restored state re-encodes");
}
