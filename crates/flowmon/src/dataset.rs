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

use crate::monitor::{MonitorRow, NetworkMonitor};
use db_netsim::{FailureScenario, FlowId, FlowSpec, SimStats, SimTime};
use db_topology::Topology;
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

/// One scenario's monitoring rows and, in the same order, their labels.
#[derive(Debug, Clone, Default)]
struct Chunk {
    rows: Vec<MonitorRow>,
    labels: Vec<FlowStatus>,
}

/// A labeled dataset: the rows each training scenario's monitor collected,
/// kept where they are and addressed by one global index in scenario order.
///
/// A full-size training run holds over a million 136-byte rows and trains
/// on a twelfth of them, and which twelfth is only known once every label
/// is (the split shuffles all indices, the balance counts both classes). So
/// nothing here copies a row: [`Self::extend`] moves chunks,
/// [`Self::split`] and [`Self::balanced`] deal in index lists, and the
/// caller gathers the few examples it trains on.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    chunks: Vec<Chunk>,
    /// Global index of each chunk's first row.
    starts: Vec<usize>,
    len: usize,
}

impl Dataset {
    /// Label the rows of a finished monitor (move them out of
    /// `NetworkMonitor::rows`; `monitor` still resolves their upstream
    /// paths).
    pub fn from_rows(
        mut rows: Vec<MonitorRow>,
        monitor: &NetworkMonitor,
        labeler: &Labeler,
    ) -> Self {
        // The monitor grew the vector by doubling; the dataset keeps it for
        // the whole training run.
        rows.shrink_to_fit();
        let labels = rows
            .iter()
            .map(|r| {
                let upstream = monitor
                    .upstream(r.switch, r.flow)
                    .expect("row produced by a registered flow");
                labeler.label(r.flow, upstream, r.at)
            })
            .collect();
        let mut ds = Dataset::default();
        ds.push(Chunk { rows, labels });
        ds
    }

    fn push(&mut self, chunk: Chunk) {
        self.starts.push(self.len);
        self.len += chunk.rows.len();
        self.chunks.push(chunk);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sample `i` in scenario order: its row and ground-truth label.
    pub fn get(&self, i: usize) -> (&MonitorRow, FlowStatus) {
        assert!(i < self.len, "sample {i} of {}", self.len);
        let c = self.starts.partition_point(|&s| s <= i) - 1;
        let chunk = &self.chunks[c];
        let at = i - self.starts[c];
        (&chunk.rows[at], chunk.labels[at])
    }

    /// Every sample, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (&MonitorRow, FlowStatus)> {
        self.chunks
            .iter()
            .flat_map(|c| c.rows.iter().zip(c.labels.iter().copied()))
    }

    /// `(normal, abnormal)` counts.
    pub fn class_counts(&self) -> (usize, usize) {
        let abnormal = self
            .chunks
            .iter()
            .flat_map(|c| &c.labels)
            .filter(|l| **l == FlowStatus::Abnormal)
            .count();
        (self.len - abnormal, abnormal)
    }

    /// Append another dataset's scenarios after this one's.
    pub fn extend(&mut self, other: Dataset) {
        for chunk in other.chunks {
            self.push(chunk);
        }
    }

    /// Shuffle and split train/test at `train_fraction` (the paper uses 3:1,
    /// i.e. 0.75): the sample indices of the two sides, in shuffled order.
    pub fn split(&self, train_fraction: f64, rng: &mut Pcg64) -> (Vec<usize>, Vec<usize>) {
        assert!(
            (0.0..=1.0).contains(&train_fraction),
            "train fraction must be in [0,1]"
        );
        let mut train: Vec<usize> = (0..self.len).collect();
        rng.shuffle(&mut train);
        let cut = (self.len as f64 * train_fraction).round() as usize;
        let test = train.split_off(cut);
        (train, test)
    }

    /// Downsample the majority class among the samples `idx` to at most
    /// `ratio` times the minority class (class imbalance control for
    /// training); the survivors keep their order.
    pub fn balanced(&self, mut idx: Vec<usize>, ratio: f64, rng: &mut Pcg64) -> Vec<usize> {
        assert!(ratio >= 1.0, "ratio must be at least 1");
        let labels: Vec<FlowStatus> = idx.iter().map(|&i| self.get(i).1).collect();
        let abnormal = labels
            .iter()
            .filter(|l| **l == FlowStatus::Abnormal)
            .count();
        let normal = labels.len() - abnormal;
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
        let mut labels = labels.into_iter();
        let mut drawn = drawn.into_iter();
        idx.retain(|_| labels.next() != Some(major_label) || drawn.next() == Some(true));
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowConfig;
    use db_netsim::{SimConfig, Simulator, TrafficConfig, TrafficGen};
    use db_topology::{zoo, LinkId, NodeId, RouteTable};

    /// End-to-end: simulate a failing line network, label, and check the
    /// labels match physical intuition.
    fn build_line_dataset(seed: u64) -> (Dataset, Vec<FlowSpec>) {
        let topo = zoo::line(4);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), seed);
        let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        let nm = NetworkMonitor::deploy(&topo, &flows, wcfg);
        let scenario = FailureScenario::single_link(LinkId(1), SimTime::from_ms(100));
        let cfg = SimConfig {
            end: SimTime::from_ms(200),
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, flows.clone(), cfg, &scenario, seed, nm);
        sim.run();
        let (mut nm, stats) = sim.finish();
        let labeler = Labeler::new(&topo, &scenario, &flows, &stats, SimTime::from_ms(4));
        let rows = std::mem::take(&mut nm.rows);
        let ds = Dataset::from_rows(rows, &nm, &labeler);
        (ds, flows)
    }

    #[test]
    fn labels_follow_failure_geometry() {
        let (ds, flows) = build_line_dataset(1);
        assert!(!ds.is_empty());
        let (normal, abnormal) = ds.class_counts();
        assert!(normal > 0 && abnormal > 0, "both classes must appear");
        assert!(normal > abnormal, "normal dominates (imbalance of §6.3)");
        // Abnormal rows only appear after the failure, at monitors whose
        // upstream part of the flow path contains the failed link l1.
        for (s, _) in ds
            .iter()
            .filter(|(_, label)| *label == FlowStatus::Abnormal)
        {
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
        let (ds, flows) = build_line_dataset(2);
        for (s, label) in ds.iter() {
            let flow = &flows[s.flow.idx()];
            if s.switch == flow.src {
                assert_eq!(label, FlowStatus::Normal);
            }
        }
    }

    #[test]
    fn split_preserves_size_and_disjointness() {
        let (ds, _) = build_line_dataset(3);
        let mut rng = Pcg64::new(7);
        let (train, test) = ds.split(0.75, &mut rng);
        let expected = (ds.len() as f64 * 0.75).round() as usize;
        assert_eq!(train.len(), expected);
        let mut all: Vec<usize> = train.into_iter().chain(test).collect();
        all.sort_unstable();
        assert!(all.into_iter().eq(0..ds.len()), "every sample on one side");
    }

    #[test]
    fn balanced_caps_majority() {
        let (ds, _) = build_line_dataset(4);
        let mut rng = Pcg64::new(8);
        let bal = ds.balanced((0..ds.len()).collect(), 3.0, &mut rng);
        let a = bal
            .iter()
            .filter(|&&i| ds.get(i).1 == FlowStatus::Abnormal)
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
        let nm = NetworkMonitor::deploy(&topo, &flows, wcfg);
        let scenario = FailureScenario::none();
        let cfg = SimConfig {
            end: SimTime::from_ms(100),
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, flows.clone(), cfg, &scenario, 5, nm);
        sim.run();
        let (mut nm, stats) = sim.finish();
        let labeler = Labeler::new(&topo, &scenario, &flows, &stats, SimTime::from_ms(4));
        let rows = std::mem::take(&mut nm.rows);
        let ds = Dataset::from_rows(rows, &nm, &labeler);
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

    /// A row with its label, the way the copying forms below carried them.
    type Labeled = (MonitorRow, FlowStatus);

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

        /// The index forms against the copying ones over random chunkings
        /// (1–6 chunks, some empty), label mixes (no abnormal, a minority, a
        /// majority of abnormal — so the balance both cuts and, with
        /// `major <= ratio * minor`, leaves alone), fractions, ratios and
        /// seeds: the same rows in the same order on every side, and the
        /// generator left in the same state.
        #[test]
        fn index_split_and_balance_match_the_copying_forms(seed in 0u64..1 << 32) {
            use proptest::prop_assert_eq;
            let mut gen = Pcg64::new(seed);
            let p_abnormal = [0.0, 0.05, 0.3, 0.8][gen.index(4)];
            let mut ds = Dataset::default();
            let mut flat: Vec<Labeled> = Vec::new();
            for _ in 0..1 + gen.index(6) {
                let n = if gen.index(4) == 0 { 0 } else { gen.index(60) };
                let mut chunk = Chunk::default();
                for _ in 0..n {
                    // The flow id is the global index: every row is distinct.
                    let row = MonitorRow {
                        switch: NodeId(gen.index(8) as u16),
                        flow: FlowId(flat.len() as u32),
                        at: SimTime::from_ms(gen.index(100) as u64),
                        features: [gen.f64(); crate::window::NUM_FEATURES],
                    };
                    let label = if gen.chance(p_abnormal) {
                        FlowStatus::Abnormal
                    } else {
                        FlowStatus::Normal
                    };
                    chunk.rows.push(row);
                    chunk.labels.push(label);
                    flat.push((row, label));
                }
                let mut one = Dataset::default();
                one.push(chunk);
                ds.extend(one);
            }
            prop_assert_eq!(ds.len(), flat.len());
            let gather = |idx: &[usize]| -> Vec<Labeled> {
                idx.iter().map(|&i| { let (r, l) = ds.get(i); (*r, l) }).collect()
            };
            prop_assert_eq!(gather(&(0..ds.len()).collect::<Vec<_>>()), flat.clone());
            prop_assert_eq!(ds.iter().map(|(r, l)| (*r, l)).collect::<Vec<_>>(), flat.clone());

            let fraction = [0.0, 0.5, 0.75, 1.0][gen.index(4)];
            let ratio = [1.0, 1.5, 4.0][gen.index(3)];
            let mut rng = Pcg64::new_stream(seed, 0x5711);
            let mut rng_ref = rng.clone();
            let (train, test) = ds.split(fraction, &mut rng);
            let (train_ref, test_ref) = split_by_copy(&flat, fraction, &mut rng_ref);
            prop_assert_eq!(gather(&train), train_ref.clone());
            prop_assert_eq!(gather(&test), test_ref);
            prop_assert_eq!(&rng, &rng_ref);

            let kept = ds.balanced(train, ratio, &mut rng);
            let kept_ref = balanced_by_copy(&train_ref, ratio, &mut rng_ref);
            prop_assert_eq!(gather(&kept), kept_ref);
            prop_assert_eq!(&rng, &rng_ref);
        }
    }
}
