//! Workload definitions, the untraced simulation path, and result digests.

use apres_bench::{Combo, JobSpec, Scale, APRES, BASELINE, CCWS_STR};
use apres_core::sim::{PrefetcherChoice, SchedulerChoice, DEFAULT_MAX_CYCLES};
use apres_core::{Laws, Sap};
use gpu_common::config::GpuConfig;
use gpu_common::{derive_seed, SimError, SimResult};
use gpu_kernel::Kernel;
use gpu_prefetch::PrefetchEngine;
use gpu_sched::SchedPolicy;
use gpu_sm::traits::{NullPrefetcher, Prefetcher, WarpScheduler};
use gpu_sm::{Gpu, RunResult};
use gpu_workloads::Benchmark;
use std::time::Instant;

/// Every workload runs at `--fast` scale: 4 SMs, Table III geometry
/// otherwise.
pub const SCALE: Scale = Scale::Fast;

/// The seed the golden digests were recorded at. The untimed warm-up
/// simulation always runs at this seed, so every run checks one golden
/// digest whatever `--seed` is.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RetryStorm,
    ApresMix,
    ServeBatch,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RetryStorm,
        Workload::ApresMix,
        Workload::ServeBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RetryStorm => "retry-storm",
            Workload::ApresMix => "apres-mix",
            Workload::ServeBatch => "serve-batch",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The distinct (kernel, policy) pairs the workload simulates.
    pub fn pairs(self) -> Vec<(Benchmark, Combo)> {
        use Benchmark::*;
        match self {
            // The 64-entry MSHR file saturates on all five under LRR, so the
            // SM/LSU/L1 retry path, the port and the memory system dominate.
            Workload::RetryStorm => [Km, Pa, Bfs, Mum, Spmv]
                .into_iter()
                .map(|b| (b, BASELINE))
                .collect(),
            // LAWS+SAP keeps the scheduler and prefetcher busy; the retry
            // path is nearly idle under both policies.
            Workload::ApresMix => [APRES, CCWS_STR]
                .into_iter()
                .flat_map(|c| [Nw, Lud, Bp, Histo].map(|b| (b, c)))
                .collect(),
            Workload::ServeBatch => vec![
                (Km, BASELINE),
                (Nw, APRES),
                (Bfs, BASELINE),
                (Lud, CCWS_STR),
                (Mum, BASELINE),
                (Bp, APRES),
                (Spmv, BASELINE),
                (Histo, CCWS_STR),
            ],
        }
    }

    /// Submission order as indices into [`Workload::pairs`]. `serve-batch`
    /// resubmits a third of its jobs, which the service deduplicates.
    pub fn submissions(self) -> Vec<usize> {
        match self {
            Workload::ServeBatch => vec![0, 1, 2, 0, 3, 4, 1, 5, 6, 3, 7, 6],
            _ => (0..self.pairs().len()).collect(),
        }
    }
}

/// One simulation job: a kernel, a policy and the workload seed derived
/// from the run's seed and the job's index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    pub bench: Benchmark,
    pub combo: Combo,
    pub seed: u64,
}

impl Job {
    pub fn label(&self) -> String {
        format!("{}/{}", self.bench.label(), self.combo.label())
    }

    /// The same job as a service request.
    pub fn spec(&self) -> JobSpec {
        JobSpec::new(self.bench, self.combo, SCALE, &SCALE.config()).with_seed(self.seed)
    }
}

/// The workload's distinct jobs for `seed`.
pub fn jobs(workload: Workload, seed: u64) -> Vec<Job> {
    workload
        .pairs()
        .into_iter()
        .enumerate()
        .map(|(i, (bench, combo))| Job {
            bench,
            combo,
            seed: derive_seed(seed, i as u64),
        })
        .collect()
}

/// Host time spent in each set-up step, summed over the jobs prepared.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub kernel_build_s: f64,
    pub verify_s: f64,
    pub gpu_new_s: f64,
}

impl SetupTimes {
    pub fn add(&mut self, o: &SetupTimes) {
        self.kernel_build_s += o.kernel_build_s;
        self.verify_s += o.verify_s;
        self.gpu_new_s += o.gpu_new_s;
    }
}

/// Builds and verifies the job's kernel, the first two set-up steps of
/// `Simulation::run`.
pub fn build_kernel(job: &Job, times: &mut SetupTimes) -> SimResult<Kernel> {
    let warp_size = SCALE.config().core.warp_size as u32;
    let t = Instant::now();
    let kernel = job
        .bench
        .kernel_scaled(SCALE.iterations(job.bench))
        .with_seed(job.seed);
    let t_built = Instant::now();
    let report = gpu_kernel::verify::verify_kernel(&kernel, warp_size);
    times.kernel_build_s += (t_built - t).as_secs_f64();
    times.verify_s += t_built.elapsed().as_secs_f64();
    match report.to_sim_error(kernel.name()) {
        Some(e) => Err(e),
        None => Ok(kernel),
    }
}

/// Everything `Simulation::run` does before its first cycle, timed per
/// step: the returned GPU runs exactly the simulation the facade would.
pub fn prepare(job: &Job, times: &mut SetupTimes) -> SimResult<Gpu> {
    let kernel = build_kernel(job, times)?;
    let cfg = SCALE.config();
    let (sched, pf) = (job.combo.sched, job.combo.pf);
    let t = Instant::now();
    let gpu = Gpu::new(&cfg, kernel, &|_| make_scheduler(sched, &cfg), &|_| {
        make_prefetcher(pf, &cfg)
    });
    times.gpu_new_s += t.elapsed().as_secs_f64();
    gpu
}

/// Runs a prepared GPU to completion with the facade's cycle budget.
pub fn run(gpu: Gpu) -> SimResult<RunResult> {
    gpu.run(DEFAULT_MAX_CYCLES)
}

/// The facade's policy construction (`SchedulerChoice::make` is private to
/// `apres-core`).
pub fn make_scheduler(s: SchedulerChoice, cfg: &GpuConfig) -> Box<dyn WarpScheduler> {
    match s {
        SchedulerChoice::Lrr => SchedPolicy::Lrr.make(),
        SchedulerChoice::Gto => SchedPolicy::Gto.make(),
        SchedulerChoice::TwoLevel => SchedPolicy::TwoLevel.make(),
        SchedulerChoice::Ccws => SchedPolicy::Ccws.make(),
        SchedulerChoice::Mascar => SchedPolicy::Mascar.make(),
        SchedulerChoice::Pa => SchedPolicy::Pa.make(),
        SchedulerChoice::Laws => Box::new(Laws::new(&cfg.apres)),
    }
}

pub fn make_prefetcher(p: PrefetcherChoice, cfg: &GpuConfig) -> Box<dyn Prefetcher> {
    match p {
        PrefetcherChoice::None => Box::new(NullPrefetcher),
        PrefetcherChoice::Str => PrefetchEngine::Str.make(),
        PrefetcherChoice::Sld => PrefetchEngine::Sld.make(),
        PrefetcherChoice::Sap => Box::new(Sap::new(&cfg.apres)),
    }
}

/// Digest of a result: its lossless codec encoding, content-hashed.
pub fn digest(r: &RunResult) -> String {
    gpu_common::hash_hex(gpu_common::content_hash_str(
        &gpu_sm::codec::encode(r).to_compact(),
    ))
}

/// A simulation outcome that counts as failed: a typed error or a run
/// that did not drain.
pub fn outcome_error(outcome: &SimResult<RunResult>) -> Option<String> {
    match outcome {
        Err(e) => Some(format!("[{}] {e}", e.class())),
        Ok(r) if !r.termination.is_drained() => Some(format!("termination {}", r.termination)),
        Ok(_) => None,
    }
}

/// Golden digests at [`DEFAULT_SEED`], one `workload label digest` line per
/// job, recorded through the `Simulation` facade (`--emit-golden`).
pub const GOLDEN: &str = include_str!("../golden.txt");

pub fn golden_digest<'a>(golden: &'a str, workload: Workload, label: &str) -> Option<&'a str> {
    golden.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(l), Some(d)) if w == workload.name() && l == label => Some(d),
            _ => None,
        }
    })
}

/// Records the golden file through the facade (`JobSpec::run`, i.e.
/// `Simulation::run`), independent of this benchmark's own set-up path.
pub fn emit_golden() -> Result<String, SimError> {
    let mut out = String::new();
    for w in Workload::ALL {
        for job in jobs(w, DEFAULT_SEED) {
            let r = job.spec().run()?;
            out.push_str(&format!("{} {} {}\n", w.name(), job.label(), digest(&r)));
        }
    }
    Ok(out)
}
