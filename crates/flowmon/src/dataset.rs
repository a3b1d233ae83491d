//! Ground-truth labeling and dataset assembly.
//!
//! §4.1: "During offline training, we label a record of features as abnormal
//! if the packets from corresponding unidirectional flow cannot reach the
//! monitor at the time due to failures. Otherwise, it is labeled as normal."
//!
//! Concretely, a (switch, flow, interval) row is **abnormal** iff
//!
//! 1. the flow was live during the interval (it had started and had not
//!    naturally finished sending — a flow that simply ended is *normal*), and
//! 2. some ground-truth failed link lay on the flow's **upstream** path
//!    w.r.t. the monitoring switch for the whole interval.
//!
//! §6.1: "The generated dataset is divided into a training set and a testing
//! set at the ratio of 3:1."
//!
//! Training keeps every row of every scenario until all labels are known,
//! so a row is stored as the register integers its features are made of,
//! varint-coded by the [`TrainingMonitor`] that observes the run, and
//! decoded into a feature vector only when it is trained on or scored.

use crate::monitor::{Deployment, SwitchMonitor};
use crate::window::{self, FeatureVector, FlowMeta, WindowConfig, NUM_FEATURES};
use db_netsim::{
    Annotation, FailureScenario, FlowId, FlowSpec, HopInfo, Observer, SimStats, SimTime,
};
use db_topology::{LinkId, Topology};
use db_util::Pcg64;

/// Classifier target: the status of a monitored flow in a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowStatus {
    /// The flow behaves as its transport would on a healthy path.
    Normal,
    /// Packets of the flow fail to reach the monitor because of a failure.
    Abnormal,
}

/// Labels monitoring rows against a failure scenario.
///
/// §4.1's criterion is physical: a window is abnormal iff "the packets from
/// the corresponding unidirectional flow **cannot reach the monitor** at the
/// time due to failures". A failure on a distant upstream link does not
/// silence the monitor instantly — packets already past the failed link keep
/// arriving for as long as the propagation from that link to the monitor.
/// On topologies with very long links (Tinet's 78 ms bridges) that in-flight
/// tail spans many sampling intervals, so the labeler shifts each failure's
/// visibility horizon by the link-to-monitor propagation delay.
pub struct Labeler<'a> {
    topo: &'a Topology,
    interval: SimTime,
    starts: Vec<SimTime>,
    finished_at: Vec<Option<SimTime>>,
    /// Active spans per link, expanded over node failures: `(from, until)`.
    spans: std::collections::BTreeMap<db_topology::LinkId, Vec<(SimTime, Option<SimTime>)>>,
}

impl<'a> Labeler<'a> {
    /// Build a labeler from the scenario and the post-run statistics (which
    /// carry each flow's natural completion time).
    pub fn new(
        topo: &'a Topology,
        scenario: &'a FailureScenario,
        flows: &[FlowSpec],
        stats: &SimStats,
        interval: SimTime,
    ) -> Self {
        assert_eq!(
            flows.len(),
            stats.finished_at.len(),
            "stats must come from the same flow table"
        );
        let mut spans: std::collections::BTreeMap<_, Vec<(SimTime, Option<SimTime>)>> =
            std::collections::BTreeMap::new();
        for e in &scenario.events {
            let links: Vec<db_topology::LinkId> = match e.kind {
                db_netsim::FailureKind::LinkDown(l) => vec![l],
                db_netsim::FailureKind::LinkCorrupt(l, rate) => {
                    if rate >= db_netsim::failure::MIN_CORRUPT_RATE {
                        vec![l]
                    } else {
                        vec![]
                    }
                }
                db_netsim::FailureKind::NodeDown(n) => topo.incident_links(n),
            };
            for l in links {
                spans.entry(l).or_default().push((e.at, e.repair_at));
            }
        }
        Labeler {
            topo,
            interval,
            starts: flows.iter().map(|f| f.start).collect(),
            finished_at: stats.finished_at.clone(),
            spans,
        }
    }

    /// Label one row given the flow's upstream links at the monitoring
    /// switch, in path order (source side first).
    pub fn label(
        &self,
        flow: FlowId,
        upstream: &[db_topology::LinkId],
        tick: SimTime,
    ) -> FlowStatus {
        let interval_start = tick.saturating_sub(self.interval);
        // Live during the interval?
        let started = self.starts[flow.idx()] < tick;
        let finished_before = self.finished_at[flow.idx()]
            .map(|t| t < interval_start)
            .unwrap_or(false);
        if !started || finished_before {
            return FlowStatus::Normal;
        }
        if self.spans.is_empty() {
            return FlowStatus::Normal;
        }
        // Walk the upstream path monitor-side first, accumulating the
        // propagation delay from each link to the monitor.
        let mut suffix_ms = 0.0;
        for l in upstream.iter().rev() {
            let lat = self.topo.link(*l).latency_ms;
            if let Some(spans) = self.spans.get(l) {
                // The last packets launched just before the failure need the
                // link's own propagation plus the rest of the path to reach
                // the monitor; only after that is the monitor truly silenced.
                let visible_delay = SimTime::from_ms_f64(suffix_ms + lat);
                for &(from, until) in spans {
                    let visible_from = from + visible_delay;
                    let covers_interval =
                        visible_from <= interval_start && until.is_none_or(|u| tick <= u);
                    if covers_interval {
                        return FlowStatus::Abnormal;
                    }
                }
            }
            suffix_ms += lat;
        }
        FlowStatus::Normal
    }
}

/// Append `v` as an LEB128 varint: seven bits a byte, low group first, the
/// high bit set on every byte but the last. Below 128 a value takes one
/// byte; `u64::MAX` takes ten.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read the varint at `*at` and step past it.
fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0;
    for shift in (0..64).step_by(7) {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            break;
        }
    }
    v
}

/// Append one training row: its stream id, then the six running window
/// sums and the six measures of the newest interval, every one a varint.
fn put_row(out: &mut Vec<u8>, stream: usize, sums: &[u64; 6], last: &[u64; 6]) {
    put_varint(out, stream as u64);
    for &v in sums.iter().chain(last) {
        put_varint(out, v);
    }
}

/// Read the row at `*at` and step past it: `(stream, sums, last)`.
fn get_row(bytes: &[u8], at: &mut usize) -> (usize, [u64; 6], [u64; 6]) {
    let stream = get_varint(bytes, at) as usize;
    let mut ints = [[0; 6]; 2];
    for v in ints.as_flattened_mut() {
        *v = get_varint(bytes, at);
    }
    let [sums, last] = ints;
    (stream, sums, last)
}

/// One scenario's rows, their labels and the metadata of its streams.
///
/// A stream is one (switch, flow) registration: streams are numbered switch
/// by switch in node order and, within a switch, in slot order.
#[derive(Debug, Clone, Default)]
struct Part {
    /// The rows, back to back, each as [`put_row`] writes it.
    bytes: Vec<u8>,
    /// Where each row starts in `bytes`.
    offsets: Vec<u32>,
    /// Each stream's metadata, indexed by stream id.
    streams: Vec<FlowMeta>,
    labels: Vec<FlowStatus>,
}

impl Part {
    fn features(&self, row: usize) -> FeatureVector {
        let (stream, sums, last) = get_row(&self.bytes, &mut (self.offsets[row] as usize));
        window::assemble(&self.streams[stream], &sums, &last)
    }

    fn heap_bytes(&self) -> usize {
        let upstream: usize = self.streams.iter().map(|m| m.upstream.capacity()).sum();
        self.bytes.capacity()
            + self.offsets.capacity() * size_of::<u32>()
            + self.streams.capacity() * size_of::<FlowMeta>()
            + upstream * size_of::<LinkId>()
            + self.labels.capacity() * size_of::<FlowStatus>()
    }
}

/// The training observer: the switch monitors a [`NetworkMonitor`] deploys,
/// keeping each row they emit as the register integers it was assembled
/// from instead of as a feature vector.
///
/// Every Table-2 feature is per-stream metadata, a running window sum over
/// `n_interval` or a measure of the newest interval, and the sums and
/// measures are integers. So a row is its stream id and those twelve
/// integers, varint-coded: ≈ 23 bytes on Geant2012 where a [`MonitorRow`]
/// takes 136.
/// [`Dataset::features`] decodes them and calls the same assembly the
/// monitor's window close does, so the features are bit-identical to the
/// ones a [`NetworkMonitor`] would have kept. The rows are read through
/// `SwitchMonitor::staged_registers` after each close; the close itself
/// does no extra work.
///
/// [`MonitorRow`]: crate::monitor::MonitorRow
/// [`NetworkMonitor`]: crate::monitor::NetworkMonitor
#[derive(Debug)]
pub struct TrainingMonitor {
    deployment: Deployment,
    /// Stream id of each switch's slot 0, in node order.
    bases: Vec<usize>,
    /// The rows so far (`streams` and `labels` are filled by `finish`).
    part: Part,
    /// Each tick with the number of rows emitted up to and including it.
    ticks: Vec<(SimTime, usize)>,
}

impl TrainingMonitor {
    /// Deploy monitors as
    /// [`NetworkMonitor::deploy`](crate::monitor::NetworkMonitor::deploy) does.
    pub fn deploy(topo: &Topology, flows: &[FlowSpec], cfg: WindowConfig) -> Self {
        let deployment = Deployment::new(topo, flows, cfg);
        let mut next = 0;
        let bases = deployment
            .monitors
            .iter()
            .map(|m| {
                let base = next;
                next += m.monitored_flows();
                base
            })
            .collect();
        TrainingMonitor {
            deployment,
            bases,
            part: Part::default(),
            ticks: Vec::new(),
        }
    }

    /// Attach telemetry handles, as
    /// [`NetworkMonitor::set_metrics`](crate::monitor::NetworkMonitor::set_metrics)
    /// does.
    pub fn set_metrics(&mut self, reg: &db_telemetry::MetricsRegistry) {
        self.deployment.set_metrics(reg);
    }

    /// Label every row (the run is over; `labeler` knows how it went) and
    /// hand them over as a one-scenario dataset.
    pub fn finish(self, labeler: &Labeler) -> Dataset {
        let TrainingMonitor {
            deployment,
            mut part,
            ticks,
            ..
        } = self;
        let (flows, streams): (Vec<FlowId>, Vec<FlowMeta>) = deployment
            .monitors
            .into_iter()
            .flat_map(SwitchMonitor::into_registrations)
            .unzip();
        part.labels.reserve_exact(part.offsets.len());
        let mut from = 0;
        for (tick, to) in ticks {
            for &offset in &part.offsets[from..to] {
                let stream = get_varint(&part.bytes, &mut (offset as usize)) as usize;
                let upstream = &streams[stream].upstream;
                part.labels
                    .push(labeler.label(flows[stream], upstream, tick));
            }
            from = to;
        }
        // The arena grew by doubling; the dataset keeps it for the whole
        // training run.
        part.bytes.shrink_to_fit();
        part.offsets.shrink_to_fit();
        part.streams = streams;
        let mut ds = Dataset::default();
        ds.push(part);
        ds
    }
}

impl Observer for TrainingMonitor {
    fn on_packet(&mut self, now: SimTime, info: &HopInfo, _ann: &mut Annotation) {
        self.deployment.on_packet(now, info, info.size);
    }

    fn on_tick(&mut self, now: SimTime) {
        let TrainingMonitor {
            deployment,
            bases,
            part,
            ticks,
        } = self;
        deployment.close_all(now, |m| {
            let base = bases[m.node().idx()];
            for (slot, sums, last) in m.staged_registers() {
                let offset = u32::try_from(part.bytes.len());
                part.offsets
                    .push(offset.expect("a scenario's rows fit in 4 GiB"));
                put_row(&mut part.bytes, base + slot, sums, &last);
            }
        });
        ticks.push((now, part.offsets.len()));
    }
}

/// A labeled dataset: the rows each training scenario's monitor collected,
/// kept where they are and addressed by one global index in scenario order.
///
/// A full-size training run holds over a million rows and trains on a
/// twelfth of them, and which twelfth is only known once every label is
/// (the split shuffles all indices, the balance counts both classes). So
/// rows stay in their compact form (see [`TrainingMonitor`]) and nothing
/// here copies one: [`Self::extend`] moves scenarios, [`Self::split`] and
/// [`Self::balanced`] deal in `u32` index lists and read labels only, and
/// [`Self::examples`] decodes just the rows the caller trains on.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    parts: Vec<Part>,
    /// Global index of each part's first row.
    starts: Vec<usize>,
    len: usize,
}

impl Dataset {
    fn push(&mut self, part: Part) {
        self.starts.push(self.len);
        self.len += part.offsets.len();
        assert!(self.len < u32::MAX as usize, "sample indices are u32");
        self.parts.push(part);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The part holding sample `i` and the sample's row in it.
    fn locate(&self, i: usize) -> (&Part, usize) {
        assert!(i < self.len, "sample {i} of {}", self.len);
        let p = self.starts.partition_point(|&s| s <= i) - 1;
        (&self.parts[p], i - self.starts[p])
    }

    /// Ground-truth label of sample `i` (scenario order); decodes nothing.
    pub fn label(&self, i: usize) -> FlowStatus {
        let (part, row) = self.locate(i);
        part.labels[row]
    }

    /// Feature vector of sample `i`, bit-identical to the one the monitor
    /// assembled when it emitted the row.
    pub fn features(&self, i: usize) -> FeatureVector {
        let (part, row) = self.locate(i);
        part.features(row)
    }

    /// The samples `idx` with their labels, in `idx` order. The rows are
    /// decoded in storage order and each put back at its position.
    pub fn examples(&self, idx: &[u32]) -> Vec<(FeatureVector, FlowStatus)> {
        let mut order: Vec<(u32, u32)> = (0..).zip(idx).map(|(pos, &i)| (i, pos)).collect();
        order.sort_unstable();
        let mut out = vec![([0.0; NUM_FEATURES], FlowStatus::Normal); idx.len()];
        for (i, pos) in order {
            let i = i as usize;
            out[pos as usize] = (self.features(i), self.label(i));
        }
        out
    }

    /// `(normal, abnormal)` counts.
    pub fn class_counts(&self) -> (usize, usize) {
        let abnormal = self
            .parts
            .iter()
            .flat_map(|p| &p.labels)
            .filter(|l| **l == FlowStatus::Abnormal)
            .count();
        (self.len - abnormal, abnormal)
    }

    /// Heap bytes the samples hold: row arenas, row offsets, labels and
    /// stream tables.
    pub fn heap_bytes(&self) -> usize {
        self.parts.iter().map(Part::heap_bytes).sum()
    }

    /// Append another dataset's scenarios after this one's.
    pub fn extend(&mut self, other: Dataset) {
        for part in other.parts {
            self.push(part);
        }
    }

    /// Shuffle and split train/test at `train_fraction` (the paper uses 3:1,
    /// i.e. 0.75): the sample indices of the two sides, in shuffled order.
    pub fn split(&self, train_fraction: f64, rng: &mut Pcg64) -> (Vec<u32>, Vec<u32>) {
        assert!(
            (0.0..=1.0).contains(&train_fraction),
            "train fraction must be in [0,1]"
        );
        // `push` keeps `len` below `u32::MAX`.
        let mut train: Vec<u32> = (0..self.len as u32).collect();
        rng.shuffle(&mut train);
        let cut = (self.len as f64 * train_fraction).round() as usize;
        let test = train.split_off(cut);
        (train, test)
    }

    /// Downsample the majority class among the samples `idx` to at most
    /// `ratio` times the minority class (class imbalance control for
    /// training); the survivors keep their order.
    pub fn balanced(&self, mut idx: Vec<u32>, ratio: f64, rng: &mut Pcg64) -> Vec<u32> {
        assert!(ratio >= 1.0, "ratio must be at least 1");
        let label = |i: &u32| self.label(*i as usize);
        let abnormal = idx
            .iter()
            .filter(|i| label(i) == FlowStatus::Abnormal)
            .count();
        let normal = idx.len() - abnormal;
        let (major, minor, major_label) = if normal >= abnormal {
            (normal, abnormal, FlowStatus::Normal)
        } else {
            (abnormal, normal, FlowStatus::Abnormal)
        };
        if minor == 0 || (major as f64) <= ratio * minor as f64 {
            return idx;
        }
        let keep_major = (ratio * minor as f64).round() as usize;
        // One flag per member of the majority, in `idx` order: drawn or not.
        let mut drawn = vec![false; major];
        for rank in rng.sample_indices(major, keep_major) {
            drawn[rank] = true;
        }
        let mut drawn = drawn.into_iter();
        idx.retain(|i| label(i) != major_label || drawn.next() == Some(true));
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{MonitorRow, NetworkMonitor};
    use crate::window::feature_digest;
    use db_netsim::{SimConfig, Simulator, TrafficConfig, TrafficGen};
    use db_topology::{zoo, LinkId, RouteTable};

    /// End-to-end: simulate a failing line network under both monitors;
    /// the dataset, and the rows a [`NetworkMonitor`] kept of the same run.
    fn build_line_dataset(seed: u64) -> (Dataset, Vec<MonitorRow>, Vec<FlowSpec>) {
        let topo = zoo::line(4);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), seed);
        let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        let observers = (
            NetworkMonitor::deploy(&topo, &flows, wcfg),
            TrainingMonitor::deploy(&topo, &flows, wcfg),
        );
        let scenario = FailureScenario::single_link(LinkId(1), SimTime::from_ms(100));
        let cfg = SimConfig {
            end: SimTime::from_ms(200),
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, flows.clone(), cfg, &scenario, seed, observers);
        sim.run();
        let ((nm, training), stats) = sim.finish();
        let labeler = Labeler::new(&topo, &scenario, &flows, &stats, SimTime::from_ms(4));
        let ds = training.finish(&labeler);
        assert_eq!(ds.len(), nm.rows.len());
        for (i, row) in nm.rows.iter().enumerate() {
            assert_eq!(
                feature_digest(&ds.features(i)),
                feature_digest(&row.features)
            );
        }
        (ds, nm.rows, flows)
    }

    #[test]
    fn labels_follow_failure_geometry() {
        let (ds, rows, flows) = build_line_dataset(1);
        assert!(!ds.is_empty());
        let (normal, abnormal) = ds.class_counts();
        assert!(normal > 0 && abnormal > 0, "both classes must appear");
        assert!(normal > abnormal, "normal dominates (imbalance of §6.3)");
        // Abnormal rows only appear after the failure, at monitors whose
        // upstream part of the flow path contains the failed link l1.
        for (i, s) in rows.iter().enumerate() {
            if ds.label(i) == FlowStatus::Normal {
                continue;
            }
            assert!(
                s.at > SimTime::from_ms(100),
                "abnormal before failure at {}",
                s.at
            );
            let flow = &flows[s.flow.idx()];
            let upstream = flow
                .path
                .upstream_links(s.switch)
                .expect("monitor lies on the flow path");
            assert!(
                upstream.contains(&LinkId(1)),
                "abnormal at {:?} but l1 is not upstream for flow {:?}",
                s.switch,
                flow.id
            );
        }
    }

    #[test]
    fn ingress_switch_rows_are_always_normal() {
        // At a flow's ingress switch the upstream path is empty, so no
        // failure can make it abnormal (§2.2).
        let (ds, rows, flows) = build_line_dataset(2);
        for (i, s) in rows.iter().enumerate() {
            if s.switch == flows[s.flow.idx()].src {
                assert_eq!(ds.label(i), FlowStatus::Normal);
            }
        }
    }

    #[test]
    fn split_preserves_size_and_disjointness() {
        let (ds, _, _) = build_line_dataset(3);
        let mut rng = Pcg64::new(7);
        let (train, test) = ds.split(0.75, &mut rng);
        let expected = (ds.len() as f64 * 0.75).round() as usize;
        assert_eq!(train.len(), expected);
        let mut all: Vec<u32> = train.into_iter().chain(test).collect();
        all.sort_unstable();
        assert!(
            all.into_iter().eq(0..ds.len() as u32),
            "every sample on one side"
        );
    }

    #[test]
    fn balanced_caps_majority() {
        let (ds, _, _) = build_line_dataset(4);
        let mut rng = Pcg64::new(8);
        let bal = ds.balanced((0..ds.len() as u32).collect(), 3.0, &mut rng);
        let a = bal
            .iter()
            .filter(|&&i| ds.label(i as usize) == FlowStatus::Abnormal)
            .count();
        let n = bal.len() - a;
        assert!(a > 0);
        assert!(
            n as f64 <= 3.0 * a as f64 + 1.0,
            "normal {n} vs abnormal {a}"
        );
        // All abnormal samples kept.
        assert_eq!(a, ds.class_counts().1);
    }

    #[test]
    fn no_failure_means_all_normal() {
        let topo = zoo::line(3);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 5);
        let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        let monitor = TrainingMonitor::deploy(&topo, &flows, wcfg);
        let scenario = FailureScenario::none();
        let cfg = SimConfig {
            end: SimTime::from_ms(100),
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, flows.clone(), cfg, &scenario, 5, monitor);
        sim.run();
        let (monitor, stats) = sim.finish();
        let labeler = Labeler::new(&topo, &scenario, &flows, &stats, SimTime::from_ms(4));
        let ds = monitor.finish(&labeler);
        assert!(!ds.is_empty());
        assert_eq!(ds.class_counts().1, 0);
    }

    #[test]
    fn finished_flow_is_normal_even_under_failure() {
        // Construct the check directly on the labeler.
        let topo = zoo::line(3);
        let scenario = FailureScenario::single_link(LinkId(0), SimTime::from_ms(10));
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 6);
        let mut stats = SimStats {
            finished_at: vec![None; flows.len()],
            ..Default::default()
        };
        // Flow 0 finished naturally at 20 ms.
        stats.finished_at[0] = Some(SimTime::from_ms(20));
        let labeler = Labeler::new(&topo, &scenario, &flows, &stats, SimTime::from_ms(4));
        let upstream = [LinkId(0)];
        // Interval ending at 50 ms: failure active, but the flow is long done.
        assert_eq!(
            labeler.label(FlowId(0), &upstream, SimTime::from_ms(50)),
            FlowStatus::Normal
        );
        // While it was live, the same geometry is abnormal.
        assert_eq!(
            labeler.label(FlowId(0), &upstream, SimTime::from_ms(18)),
            FlowStatus::Abnormal
        );
        // Before the failure: normal.
        assert_eq!(
            labeler.label(FlowId(0), &upstream, SimTime::from_ms(8)),
            FlowStatus::Normal
        );
        // Empty upstream (ingress): normal.
        assert_eq!(
            labeler.label(FlowId(0), &[], SimTime::from_ms(18)),
            FlowStatus::Normal
        );
    }

    /// Every field of a row round-trips at the varint length boundaries and
    /// at both ends of `u32` and `u64`, whatever its neighbours hold.
    #[test]
    fn row_codec_round_trips_every_field_at_the_edges() {
        const EDGES: [u64; 6] = [0, 127, 128, u32::MAX as u64, 1 << 32, u64::MAX];
        let mut bytes = Vec::new();
        let mut rows = Vec::new();
        for field in 0..13 {
            for (e, &edge) in EDGES.iter().enumerate() {
                let mut ints: [u64; 13] = std::array::from_fn(|k| EDGES[(e + k) % EDGES.len()]);
                ints[field] = edge;
                let stream = usize::try_from(ints[0]).expect("64-bit usize");
                let sums: [u64; 6] = ints[1..7].try_into().unwrap();
                let last: [u64; 6] = ints[7..].try_into().unwrap();
                put_row(&mut bytes, stream, &sums, &last);
                rows.push((stream, sums, last));
            }
        }
        let mut at = 0;
        for row in rows {
            assert_eq!(get_row(&bytes, &mut at), row);
        }
        assert_eq!(at, bytes.len(), "each row decodes exactly its own bytes");
        for (v, len) in [(0, 1), (127, 1), (128, 2), (u64::MAX, 10)] {
            let mut one = Vec::new();
            put_varint(&mut one, v);
            assert_eq!(one.len(), len, "{v}");
        }
    }

    /// A sample with its label, the way the copying forms below carry them.
    type Labeled = (FeatureVector, FlowStatus);

    /// The copying split this module shipped before the index form: kept as
    /// the oracle.
    fn split_by_copy(
        samples: &[Labeled],
        train_fraction: f64,
        rng: &mut Pcg64,
    ) -> (Vec<Labeled>, Vec<Labeled>) {
        let mut idx: Vec<usize> = (0..samples.len()).collect();
        rng.shuffle(&mut idx);
        let cut = (samples.len() as f64 * train_fraction).round() as usize;
        let train = idx[..cut].iter().map(|&i| samples[i]).collect();
        let test = idx[cut..].iter().map(|&i| samples[i]).collect();
        (train, test)
    }

    /// The copying balance, likewise.
    fn balanced_by_copy(samples: &[Labeled], ratio: f64, rng: &mut Pcg64) -> Vec<Labeled> {
        let abnormal = samples
            .iter()
            .filter(|s| s.1 == FlowStatus::Abnormal)
            .count();
        let normal = samples.len() - abnormal;
        let (major, minor, major_label) = if normal >= abnormal {
            (normal, abnormal, FlowStatus::Normal)
        } else {
            (abnormal, normal, FlowStatus::Abnormal)
        };
        if minor == 0 || (major as f64) <= ratio * minor as f64 {
            return samples.to_vec();
        }
        let keep_major = (ratio * minor as f64).round() as usize;
        let major_idx: Vec<usize> = (0..samples.len())
            .filter(|&i| samples[i].1 == major_label)
            .collect();
        let chosen = rng.sample_indices(major_idx.len(), keep_major);
        let keep: std::collections::BTreeSet<usize> =
            chosen.into_iter().map(|i| major_idx[i]).collect();
        samples
            .iter()
            .enumerate()
            .filter(|(i, s)| s.1 != major_label || keep.contains(i))
            .map(|(_, s)| *s)
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The index forms against the copying ones over random partings
        /// (1–6 scenarios, some empty), label mixes (no abnormal, a
        /// minority, a majority of abnormal — so the balance both cuts and,
        /// with `major <= ratio * minor`, leaves alone), fractions, ratios
        /// and seeds: the same samples in the same order on every side, and
        /// the generator left in the same state.
        #[test]
        fn index_split_and_balance_match_the_copying_forms(seed in 0u64..1 << 32) {
            use proptest::prop_assert_eq;
            let mut gen = Pcg64::new(seed);
            let p_abnormal = [0.0, 0.05, 0.3, 0.8][gen.index(4)];
            let cfg = WindowConfig::explicit(SimTime::from_ms(4), 8);
            let mut ds = Dataset::default();
            let mut flat: Vec<Labeled> = Vec::new();
            for _ in 0..1 + gen.index(6) {
                let n = if gen.index(4) == 0 { 0 } else { gen.index(60) };
                let mut part = Part {
                    streams: (0..1 + gen.index(5))
                        .map(|_| FlowMeta::new(gen.range_f64(0.5, 40.0), 1 + gen.index(6), vec![], &cfg))
                        .collect(),
                    ..Part::default()
                };
                for _ in 0..n {
                    // The first sum is the global index: every row is distinct.
                    let stream = gen.index(part.streams.len());
                    let mut sums: [u64; 6] = std::array::from_fn(|_| gen.below(1 << 40));
                    sums[0] = flat.len() as u64;
                    let last: [u64; 6] = std::array::from_fn(|_| gen.below(1 << 20));
                    let label = if gen.chance(p_abnormal) {
                        FlowStatus::Abnormal
                    } else {
                        FlowStatus::Normal
                    };
                    part.offsets.push(part.bytes.len() as u32);
                    put_row(&mut part.bytes, stream, &sums, &last);
                    part.labels.push(label);
                    let features = window::assemble(&part.streams[stream], &sums, &last);
                    flat.push((features, label));
                }
                let mut one = Dataset::default();
                one.push(part);
                ds.extend(one);
            }
            prop_assert_eq!(ds.len(), flat.len());
            let all: Vec<u32> = (0..ds.len() as u32).collect();
            prop_assert_eq!(ds.examples(&all), flat.clone());

            let fraction = [0.0, 0.5, 0.75, 1.0][gen.index(4)];
            let ratio = [1.0, 1.5, 4.0][gen.index(3)];
            let mut rng = Pcg64::new_stream(seed, 0x5711);
            let mut rng_ref = rng.clone();
            let (train, test) = ds.split(fraction, &mut rng);
            let (train_ref, test_ref) = split_by_copy(&flat, fraction, &mut rng_ref);
            prop_assert_eq!(ds.examples(&train), train_ref.clone());
            prop_assert_eq!(ds.examples(&test), test_ref);
            prop_assert_eq!(&rng, &rng_ref);

            let kept = ds.balanced(train, ratio, &mut rng);
            let kept_ref = balanced_by_copy(&train_ref, ratio, &mut rng_ref);
            prop_assert_eq!(ds.examples(&kept), kept_ref);
            prop_assert_eq!(&rng, &rng_ref);
        }
    }
}
