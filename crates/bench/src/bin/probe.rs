//! Timing/shape probe: runs each benchmark under baseline and APRES at
//! paper scale and prints cycles, IPC, miss rate and wall time. Used to
//! validate scale choices; not part of the paper's exhibits.
//!
//! Wall-time columns measure each simulation on its worker thread via
//! [`apres_bench::StageTimer`], so they vary run to run. Pass `--no-time`
//! to disable the clock entirely and print `-` instead — `just
//! bench-smoke` does, to keep stdout byte-comparable across `--jobs`
//! values (and to assert no timing figure leaks anywhere).

use apres_bench::{
    map_parallel, report_outcome, BenchArgs, JobSpec, StageTimer, APRES, BASELINE,
};
use gpu_workloads::Benchmark;

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let timer = StageTimer::from_args(&args);
    let started = timer.start();
    let timed = map_parallel(args.jobs, Benchmark::ALL.to_vec(), |_, b| {
        let [base, apres] = [BASELINE, APRES].map(|combo| {
            let spec = JobSpec::new(b, combo, scale, &scale.config());
            let t0 = timer.start();
            let outcome = spec.run();
            (spec.label(), outcome, timer.label_since(t0))
        });
        (b, base, apres)
    });
    eprintln!(
        "[probe] {} sims in {}s on {} worker(s)",
        2 * timed.len(),
        timer.label_since(started),
        args.jobs
    );
    println!(
        "{:<6} {:>10} {:>7} {:>6} {:>7} | {:>10} {:>7} {:>8} {:>7}",
        "bench", "base_cyc", "ipc", "miss", "sec", "apres_cyc", "ipc", "speedup", "sec"
    );
    for (b, (base_label, base, t1), (apres_label, apres, t2)) in timed {
        let base = report_outcome(&base_label, base);
        let apres = report_outcome(&apres_label, apres);
        let (Some(base), Some(apres)) = (base, apres) else {
            continue;
        };
        println!(
            "{:<6} {:>10} {:>7.3} {:>6.2} {:>7} | {:>10} {:>7.3} {:>8.3} {:>7}{}{}",
            b.label(),
            base.cycles,
            base.ipc(),
            base.l1.miss_rate(),
            t1,
            apres.cycles,
            apres.ipc(),
            apres.speedup_over(&base),
            t2,
            if base.termination.is_drained() {
                String::new()
            } else {
                format!(" base:{}", base.termination)
            },
            if apres.termination.is_drained() {
                String::new()
            } else {
                format!(" apres:{}", apres.termination)
            },
        );
    }
}
