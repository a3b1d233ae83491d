//! Figure 13 — performance of Drift-Bottle under different inference
//! lengths k.
//!
//! §6.9: performance improves significantly from k = 2 to k = 4, then
//! plateaus; k = 4 is the deployability sweet spot (longer inferences need
//! P4 resubmits). The header grows as 1 + 2k bytes.
//!
//! Single clean failures saturate every k on our (noise-free) substrate, so
//! the sweep uses the regime where slots actually compete: several
//! concurrent failures, whose culprits and their shadowed neighbors must
//! all fit into the k header slots.

use db_bench::{emit, prepared, run_sweep, scale};
use db_core::experiment::{average_by_variant, sample_covered_links, ScenarioKind};
use db_core::SystemConfig;
use db_inference::HeaderCodec;
use db_util::table::{f3, pct, TextTable};

fn main() {
    let epochs = scale(4, 12) as u64;
    let n_links = scale(4, 12);
    let ks = [2usize, 3, 4, 6, 8];
    let prep = prepared("Geant2012");
    // Mixed workload: single failures plus 3- and 4-link concurrent bursts.
    let mut kinds: Vec<ScenarioKind> = sample_covered_links(&prep, n_links, 0xF13D)
        .into_iter()
        .map(ScenarioKind::SingleLink)
        .collect();
    for e in 0..epochs {
        kinds.push(ScenarioKind::RandomLinks {
            count: 3,
            seed: 0x130 + e,
        });
        kinds.push(ScenarioKind::RandomLinks {
            count: 4,
            seed: 0x13_100 + e,
        });
    }
    let mut t = TextTable::new(
        "Figure 13: Drift-Bottle under different inference lengths (Geant2012, incl. concurrent failures)",
        &["k", "header bytes", "precision", "recall", "F1", "FPR"],
    );
    for &k in &ks {
        let outcomes = run_sweep(&format!("fig13-k{k}"), &prep, |s| {
            s.seed(0xD13)
                .sys(SystemConfig {
                    k,
                    interval: prep.interval,
                    ..Default::default()
                })
                // Ambient jitter loss: with pristine traffic every k
                // saturates; the paper's Mininet traces carry natural noise
                // that makes short inferences lossy.
                .background_loss(2e-3)
                .scenarios(kinds.iter().cloned())
        });
        let (_, m) = average_by_variant(&outcomes).remove(0);
        let codec = HeaderCodec::for_network(k, prep.topo.link_count());
        t.row(&[
            k.to_string(),
            codec.byte_len().to_string(),
            f3(m.precision),
            f3(m.recall),
            f3(m.f1),
            pct(m.fpr),
        ]);
        println!("[k = {k} done over {} scenarios]", kinds.len());
    }
    emit("fig13_inference_length", &t);
    println!(
        "Paper Fig. 13 shape: clear gain from k = 2 to k = 4, little beyond; the\n\
         paper picks k = 4 (9-byte header) as the performance/deployability\n\
         trade-off — longer inferences need pipeline resubmits on Tofino."
    );
}
