//! System configuration and experiment variants.

use db_inference::WarningConfig;
use db_inference::WeightScheme;
use db_netsim::SimTime;

/// How a variant aggregates local inferences network-wide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mechanism {
    /// The paper's mechanism: inferences drift inside packets through the
    /// real fixed-width header (offset-encoded integer weights, clamping,
    /// k slots). At most one variant per system may use the wire carrier —
    /// the packet has one header.
    DistributedWire,
    /// The same drifting protocol but with exact `f64` weights kept in a
    /// side table — used for the fractional 007 schemes, which cannot be
    /// encoded in the integer header at all (§6.4's deployability argument),
    /// and for multi-scheme comparisons over identical traffic.
    DistributedVirtual,
    /// A Data Collector and Analyst: every sampling interval, aggregate
    /// all switches' (untruncated) local inferences and report links via
    /// 007's iterative top-portion procedure (§6.2). Every interval, because
    /// the abnormal signature of a dead flow only survives about one RTT of
    /// windows before the flow fades to "never active": a slower DCA misses
    /// it entirely.
    Centralized {
        /// Reporting threshold as a portion of the total positive weight.
        portion: f64,
    },
    /// **Ablation — what §4.3 forbids**: the switch absorbs every aggregated
    /// inference into its own local inference. On a stream of n packets the
    /// downstream view drifts toward `n × I_upstream ⊕ I_local`, the
    /// *over-aggregation* bias the paper's design explicitly avoids. Uses
    /// the exact side-table carrier.
    DistributedAbsorbing,
}

/// One compared configuration: a weight scheme plus a mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSpec {
    /// Display name (matches the paper's legends).
    pub name: String,
    /// Weight-assignment scheme (§4.2 / §6.4).
    pub scheme: WeightScheme,
    /// Aggregation mechanism (§4.3 / §6.5).
    pub mechanism: Mechanism,
}

impl VariantSpec {
    /// The real system: Drift-Bottle weights through the wire header.
    pub fn drift_bottle() -> Self {
        VariantSpec {
            name: "Drift-Bottle".into(),
            scheme: WeightScheme::DriftBottle,
            mechanism: Mechanism::DistributedWire,
        }
    }

    /// A distributed variant of the given scheme over the exact side-table
    /// carrier, named after the scheme.
    pub fn distributed(scheme: WeightScheme) -> Self {
        VariantSpec {
            name: scheme.name().into(),
            scheme,
            mechanism: Mechanism::DistributedVirtual,
        }
    }

    /// A centralized variant of the given scheme (§6.5 names them
    /// "DB-Centralized" and "007-Centralized").
    pub fn centralized(scheme: WeightScheme, portion: f64) -> Self {
        let name = match scheme {
            WeightScheme::DriftBottle => "DB-Centralized".to_string(),
            WeightScheme::Drifted007 => "007-Centralized".to_string(),
            other => format!("{}-Centralized", other.name()),
        };
        VariantSpec {
            name,
            scheme,
            mechanism: Mechanism::Centralized { portion },
        }
    }

    /// The four weight schemes of Fig. 7, all under the distributed
    /// mechanism (Drift-Bottle itself on the real wire header).
    pub fn fig7_set() -> Vec<VariantSpec> {
        vec![
            VariantSpec::drift_bottle(),
            VariantSpec::distributed(WeightScheme::NonNegative),
            VariantSpec::distributed(WeightScheme::Drifted007),
            VariantSpec::distributed(WeightScheme::Modified007),
        ]
    }

    /// The four mechanisms of Fig. 8/9: Drift-Bottle, 007-Drifted, and their
    /// centralized versions. The 007 DCA's reporting portion is lower
    /// because positive-only 1/n votes spread mass over many links; 0.4 of
    /// the total would never be reached by any single link.
    pub fn fig8_set() -> Vec<VariantSpec> {
        vec![
            VariantSpec::drift_bottle(),
            VariantSpec::distributed(WeightScheme::Drifted007),
            VariantSpec::centralized(WeightScheme::DriftBottle, 0.4),
            VariantSpec::centralized(WeightScheme::Drifted007, 0.2),
        ]
    }
}

/// Parameters of the deployed system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Inference length k (§6.9; default 4).
    pub k: usize,
    /// Warning thresholds (equation (1)).
    pub warning: WarningConfig,
    /// Sampling interval (§6.3: 4 ms).
    pub interval: SimTime,
    /// Sample one in `ratio_sampling` aggregations for the Fig.-11 CDFs;
    /// 0 disables sampling.
    pub ratio_sampling: u32,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            k: db_inference::DEFAULT_K,
            warning: WarningConfig::default(),
            interval: SimTime::from_ms(4),
            ratio_sampling: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_sets() {
        let f7 = VariantSpec::fig7_set();
        assert_eq!(f7.len(), 4);
        assert_eq!(f7[0].name, "Drift-Bottle");
        assert_eq!(f7[0].mechanism, Mechanism::DistributedWire);
        assert_eq!(f7[2].name, "007-Drifted");

        let f8 = VariantSpec::fig8_set();
        assert_eq!(f8[2].name, "DB-Centralized");
        assert_eq!(f8[3].name, "007-Centralized");
        assert!(matches!(f8[3].mechanism, Mechanism::Centralized { .. }));
    }

    #[test]
    fn default_config_matches_paper() {
        let c = SystemConfig::default();
        assert_eq!(c.k, 4);
        assert_eq!(c.interval, SimTime::from_ms(4));
    }

    #[test]
    fn at_most_one_wire_variant_in_sets() {
        for set in [VariantSpec::fig7_set(), VariantSpec::fig8_set()] {
            let wires = set
                .iter()
                .filter(|v| v.mechanism == Mechanism::DistributedWire)
                .count();
            assert!(wires <= 1);
        }
    }
}
