//! Ablation — threshold sensitivity vs. network jitter (§4.3).
//!
//! "With lower hop_min and α, Drift-Bottle is more sensitive when detecting
//! network anomalies, but is also more prone to classification error ...
//! With higher hop_min and α, Drift-Bottle will be more tolerant to network
//! 'jitters' but may also miss out network failures." This binary sweeps
//! ambient per-hop loss against two threshold settings and measures both
//! sides of the trade.

use db_bench::{emit, prepared, run_sweep, scale};
use db_core::experiment::{average_by_variant, sample_covered_links, ScenarioKind};
use db_core::SystemConfig;
use db_inference::WarningConfig;
use db_util::table::{f3, pct, TextTable};

fn main() {
    let n_links = scale(5, 16);
    let prep = prepared("Geant2012");
    let links = sample_covered_links(&prep, n_links, 0xAB3);
    let mut kinds: Vec<ScenarioKind> = links.iter().map(|&l| ScenarioKind::SingleLink(l)).collect();
    kinds.push(ScenarioKind::None);
    let settings = [
        (
            "sensitive (hop 2, α 1.0)",
            WarningConfig {
                hop_min: 2,
                alpha: 1.0,
                beta: 2.0,
            },
        ),
        (
            "default   (hop 4, α 2.0)",
            WarningConfig {
                hop_min: 4,
                alpha: 2.0,
                beta: 2.0,
            },
        ),
        (
            "tolerant  (hop 6, α 3.0)",
            WarningConfig {
                hop_min: 6,
                alpha: 3.0,
                beta: 2.0,
            },
        ),
    ];
    let mut t = TextTable::new(
        "Ablation §4.3: warning thresholds vs ambient jitter loss (Geant2012)",
        &[
            "thresholds",
            "jitter loss",
            "precision",
            "recall",
            "F1",
            "healthy FP links",
        ],
    );
    for (name, warning) in settings {
        for loss in [0.0, 1e-3, 5e-3] {
            let sweep_name = format!("ablation_noise-h{}-l{loss}", warning.hop_min);
            let outcomes = run_sweep(&sweep_name, &prep, |s| {
                s.seed(0xAB3E)
                    .sys(SystemConfig {
                        warning,
                        interval: prep.interval,
                        ..Default::default()
                    })
                    .background_loss(loss)
                    .scenarios(kinds.iter().cloned())
            });
            let (healthy, failures): (Vec<_>, Vec<_>) = outcomes
                .into_iter()
                .partition(|o| o.ground_truth.is_empty());
            let (_, m) = average_by_variant(&failures).remove(0);
            let healthy_fp = healthy.first().map_or(0, |o| o.variants[0].reported.len());
            t.row(&[
                name.to_string(),
                pct(loss),
                f3(m.precision),
                f3(m.recall),
                f3(m.f1),
                healthy_fp.to_string(),
            ]);
        }
        println!("[{name} done]");
    }
    emit("ablation_noise_tolerance", &t);
    println!(
        "The §4.3 trade shows against *sensitivity*: low thresholds lose precision\n\
         even on a quiet network. Uniform jitter loss barely moves any setting —\n\
         the Table-2 features key on sustained silence, not on rates, so i.i.d.\n\
         loss below the corruption threshold is invisible by construction (see the\n\
         corruption_hunt example for where detectability begins)."
    );
}
