//! Per-packet hot-path benchmark: packet-hops/sec for the hop pipeline,
//! plus a fig8-style sweep wall clock, persisted to
//! `results/BENCH_hotpath.json` (see README for the format).
//!
//! Both "before" numbers are constants captured on this machine immediately
//! prior to the hot-path rewrite, when the whole simulation still ran on a
//! Vec pipeline with hashed flow state and eager tick scheduling. The
//! control-plane (`Vec`) form of the pipeline is still timed, as
//! `inference.hop_vec_ns`, by `benchmark/`.
//!
//! `DB_SMOKE=1` runs a seconds-scale variant (tiny grid, 2 samples) for CI;
//! smoke runs print the JSON document instead of overwriting the committed
//! results file.

use criterion::Criterion;
use db_core::experiment::{sample_covered_links, sweep, ScenarioKind, ScenarioSetup};
use db_core::{prepare, PrepareConfig, VariantSpec};
use db_inference::{
    aggregate_step_inline, check_warning_inline, HeaderCodec, Inference, InlineInference,
    WarningConfig, MAX_HEADER_BYTES,
};
use db_topology::{zoo, LinkId};
use db_util::Pcg64;
use std::hint::black_box;
use std::time::Instant;

/// Sweep wall clock (ms) captured before the hot-path rewrite: Geant2012,
/// 8 single-link scenarios × the 4 fig8 variants, flagship setup, same seeds
/// as below. Re-measure by checking out the commit preceding the inline hot
/// path and running this binary.
const BASELINE_SWEEP_WALL_MS: f64 = 20986.6;

/// Per-hop pipeline cost (ns) captured before the hot-path rewrite: same
/// machine and workload as `hop_pipeline_inline_k4` below, on the original
/// Vec form with HashMap-based `from_pairs`/`aggregate` — the "before" of
/// the packet-hops/sec improvement claim.
const BASELINE_HOP_NS: f64 = 394.674;

fn smoke() -> bool {
    std::env::var("DB_SMOKE").map(|v| v == "1").unwrap_or(false)
}

fn sample_inference(rng: &mut Pcg64, entries: usize) -> Inference {
    Inference::from_pairs((0..entries).map(|_| {
        (
            LinkId(rng.below(150) as u16),
            rng.range_f64(-10.0, 30.0).round(),
        )
    }))
}

fn main() {
    db_telemetry::enable();
    let smoke = smoke();
    let mut c = Criterion::default().sample_size(if smoke { 2 } else { 40 });
    let codec = HeaderCodec::paper();
    let warn = WarningConfig::default();
    let mut rng = Pcg64::new(7);
    let locals_inline: Vec<InlineInference> = (0..16)
        .map(|_| InlineInference::from_inference(&sample_inference(&mut rng, 4)))
        .collect();
    let seed_inf = sample_inference(&mut rng, 4);

    // The per-hop pipeline: decode -> aggregate -> warn -> encode, zero
    // heap traffic.
    let mut buf = [0u8; MAX_HEADER_BYTES];
    let blen = codec.encode_into(&InlineInference::from_inference(&seed_inf), 1, &mut buf);
    let mut li = 0usize;
    let hop_inline_ns = c.bench_value("hop_pipeline_inline_k4", |b| {
        b.iter(|| {
            let (inf, h) = codec
                .decode_inline(black_box(&buf[..blen]))
                .expect("valid header");
            let local = &locals_inline[li & 15];
            li = li.wrapping_add(1);
            let (agg, h) = aggregate_step_inline(local, &inf, h, 4);
            black_box(check_warning_inline(&agg, h as u32, &warn));
            codec.encode_into(&agg, h, &mut buf);
        })
    });

    // fig8-style sweep wall clock (training excluded from the timed region).
    let (prep, n_scen, topo_name) = if smoke {
        (
            prepare(
                zoo::grid(3, 3),
                &PrepareConfig {
                    n_link_scenarios: 4,
                    n_node_scenarios: 1,
                    n_healthy: 1,
                    train_density: 1.0,
                    ..Default::default()
                },
            ),
            2,
            "grid3x3",
        )
    } else {
        (
            db_bench::prepared("Geant2012"),
            db_bench::scale(8, 32),
            "Geant2012",
        )
    };
    let links = sample_covered_links(&prep, n_scen, 0xF188);
    let kinds: Vec<ScenarioKind> = links.iter().map(|&l| ScenarioKind::SingleLink(l)).collect();
    let mut setup = ScenarioSetup::flagship(&prep, 1.0, 0x818);
    setup.variants = VariantSpec::fig8_set();
    let t0 = Instant::now();
    let outcomes = sweep(&setup, kinds);
    let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "sweep: {} scenarios x {} variants in {:.1} ms",
        outcomes.len(),
        setup.variants.len(),
        sweep_ms
    );

    let inl_ns = hop_inline_ns.unwrap_or(f64::NAN);
    let doc = format!(
        concat!(
            "{{\"bench\":\"hotpath\",\n",
            " \"config\":{{\"smoke\":{},\"topology\":\"{}\",\"scenarios\":{},\"variants\":{},\"k\":4}},\n",
            " \"per_hop\":{{\"baseline_ns\":{:.3},\"inline_ns\":{:.3},",
            "\"inline_hops_per_sec\":{:.0},\"speedup_vs_baseline\":{:.2}}},\n",
            " \"sweep\":{{\"baseline_wall_ms\":{:.1},\"wall_ms\":{:.1},\"speedup\":{:.2}}}}}\n"
        ),
        smoke,
        topo_name,
        outcomes.len(),
        setup.variants.len(),
        BASELINE_HOP_NS,
        inl_ns,
        1e9 / inl_ns,
        BASELINE_HOP_NS / inl_ns,
        BASELINE_SWEEP_WALL_MS,
        sweep_ms,
        BASELINE_SWEEP_WALL_MS / sweep_ms,
    );
    if smoke {
        // Smoke numbers are meaningless; show the document, keep the
        // committed full-scale results intact.
        print!("{doc}");
    } else {
        let path = db_bench::results_dir().join("BENCH_hotpath.json");
        match std::fs::create_dir_all(db_bench::results_dir())
            .and_then(|()| std::fs::write(&path, &doc))
        {
            Ok(()) => println!("[bench snapshot written to {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}
