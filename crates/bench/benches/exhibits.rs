//! Benchmarks of the paper-exhibit regeneration pipelines, at a reduced
//! scale (1–2 SMs, few iterations). Each bench exercises exactly the code
//! path of the corresponding `fig*`/`table*` binary, so `cargo bench`
//! continuously measures the cost of reproducing every table and figure.
//!
//! Plain `fn main` harness (`harness = false`); see `simulator.rs` for the
//! measurement scheme.

use apres_bench::{Combo, JobSpec, Scale, APRES, BASELINE, CCWS_STR};
use apres_core::energy::EnergyModel;
use apres_core::hw_cost::HwCost;
use apres_core::sim::{PrefetcherChoice, SchedulerChoice};
use gpu_common::config::ApresConfig;
use gpu_common::GpuConfig;
use gpu_sm::RunResult;
use gpu_workloads::{characterize, Benchmark};
use std::hint::black_box;
use std::time::Instant;

fn measure<F: FnMut()>(name: &str, iters: u64, reps: u32, mut f: F) {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per_iter = t0.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per_iter);
    }
    if best >= 1e6 {
        println!("{name:<28} {:>12.2} ms/iter", best / 1e6);
    } else {
        println!("{name:<28} {best:>12.1} ns/iter");
    }
}

fn tiny_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::paper_baseline();
    cfg.core.num_sms = 1;
    cfg
}

fn tiny_run(b: Benchmark, combo: Combo) -> RunResult {
    JobSpec::new(b, combo, Scale::Fast, &tiny_cfg())
        .run()
        .expect("tiny exhibit point runs")
}

fn main() {
    println!("exhibits");

    let k = Benchmark::Km.kernel_scaled(8);
    let cfg = GpuConfig::paper_baseline();
    measure("  table1-characterize-km", 3, 3, || {
        black_box(characterize(black_box(&k), &cfg, None));
    });

    measure("  table2-hw-cost", 10_000, 3, || {
        black_box(HwCost::compute(black_box(&ApresConfig::table_ii()), 48).total_bytes());
    });

    measure("  fig2-small-vs-huge-l1", 1, 3, || {
        let small = tiny_run(Benchmark::Spmv, BASELINE);
        let mut huge_cfg = tiny_cfg();
        huge_cfg.l1.capacity_bytes = 32 * 1024 * 1024;
        let huge = JobSpec::new(Benchmark::Spmv, BASELINE, Scale::Fast, &huge_cfg)
            .run()
            .expect("huge-L1 point runs");
        black_box(huge.speedup_over(&small));
    });

    measure("  fig3-combo-point", 1, 3, || {
        black_box(
            tiny_run(
                Benchmark::Lud,
                Combo::new(SchedulerChoice::Gto, PrefetcherChoice::Str),
            )
            .ipc(),
        );
    });

    measure("  fig10-apres-point", 1, 3, || {
        black_box(tiny_run(Benchmark::Km, APRES).ipc());
    });

    measure("  fig12-early-eviction-point", 1, 3, || {
        black_box(
            tiny_run(Benchmark::Lud, CCWS_STR)
                .prefetch
                .early_eviction_ratio(),
        );
    });

    let model = EnergyModel::new();
    measure("  fig15-energy-point", 1, 3, || {
        let base = tiny_run(Benchmark::Bp, BASELINE);
        let apres = tiny_run(Benchmark::Bp, APRES);
        black_box(model.normalized(&apres, &base, 1));
    });
}
