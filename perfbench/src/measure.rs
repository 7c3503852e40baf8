//! The closed-loop client: rounds of one workload, timed untraced, and in a
//! traced run alternated with traced rounds.
//!
//! A round of `retry-storm` or `apres-mix` sets up every job (kernel build,
//! verify, GPU construction), runs them one after another, then checks the
//! results. A round of `serve-batch` opens a fresh result cache and sets up
//! the direct reference runs, serves the batch cold, serves it warm
//! [`WARM_SERVINGS`] times, then runs each distinct job directly and
//! compares it with what the service returned. In untraced rounds every
//! timed step is bracketed by samples of the host-speed routine
//! ([`crate::host`]) and scaled by them.

use crate::check::Checker;
use crate::host::{self, HostSpeed};
use crate::jobs::{self, Job, SetupTimes, Workload};
use crate::traced::{LayerTotals, Observed, TracedGpu};
use apres_bench::ResultCache;
use apres_serve::{serve_batch, Batch, BatchReport, ServeOptions};
use gpu_common::{SimResult, WallClock};
use gpu_sm::RunResult;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads of the service and of the harness probe: load comes
/// from one process with at most two threads.
pub const WORKERS: usize = 2;

/// Warm servings per `serve-batch` round.
pub const WARM_SERVINGS: usize = 16;

/// End-to-end samples of untraced rounds, scaled to the reference host
/// speed (see [`crate::host`]) unless named `raw_`.
#[derive(Debug, Default)]
pub struct Samples {
    pub rounds: usize,
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub batch_cold_s: Vec<f64>,
    pub batch_warm_ms: Vec<f64>,
    pub job_ms: Vec<f64>,
    /// Set-up steps summed over the `prepared` jobs, unscaled.
    pub setup: SetupTimes,
    pub prepared: usize,
    /// Simulated cycles and the host seconds that simulated them.
    pub cycles: u64,
    pub sim_s: f64,
    pub raw_wall_s: Vec<f64>,
    pub raw_job_ms: Vec<f64>,
    pub raw_sim_s: f64,
    /// Every sample of the host routine, in milliseconds.
    pub host_ms: Vec<f64>,
}

/// Service counters summed over servings.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeTotals {
    pub submissions: usize,
    pub duplicates: usize,
    pub hits: usize,
    pub lookups: usize,
    pub retries: usize,
    pub failed_jobs: usize,
}

impl ServeTotals {
    pub fn add(&mut self, r: &BatchReport) {
        let s = &r.stats;
        self.submissions += r.jobs.len();
        self.duplicates += s.duplicate_jobs;
        self.hits += s.cache_hits;
        self.lookups += s.cache_hits + s.cache_misses + s.cache_evicted;
        self.retries += s.retries;
        self.failed_jobs += s.failed_jobs;
    }
}

/// What traced rounds collect.
#[derive(Debug, Default)]
pub struct Traced {
    pub rounds: usize,
    pub totals: LayerTotals,
    /// Simulated statistics of one round's simulations.
    pub counters: Vec<Observed>,
    pub untraced_wall_s: Vec<f64>,
    pub traced_wall_s: Vec<f64>,
    /// A traced simulation did not reproduce its untraced statistics.
    pub diverged: bool,
}

/// One workload's client state across rounds.
pub struct Client {
    pub workload: Workload,
    pub jobs: Vec<Job>,
    pub checker: Checker,
    /// Untraced result per job, from the first round that produced it.
    pub reference: Vec<Option<RunResult>>,
    pub samples: Samples,
    pub traced: Traced,
    pub serve: ServeTotals,
    tmp: PathBuf,
    host: HostSpeed,
    /// The host routine's last sample, taken just before the current step.
    host_before: f64,
}

impl Client {
    pub fn new(workload: Workload, seed: u64, tmp: &Path) -> Client {
        let jobs = jobs::jobs(workload, seed);
        Client {
            workload,
            checker: Checker::new(workload, seed, jobs.len(), jobs::GOLDEN),
            reference: vec![None; jobs.len()],
            jobs,
            samples: Samples::default(),
            traced: Traced::default(),
            serve: ServeTotals::default(),
            tmp: tmp.to_owned(),
            host: HostSpeed::new(),
            host_before: host::REF_MS,
        }
    }

    /// Starts a chain of timed steps with a sample of the host routine.
    fn host_start(&mut self) {
        self.host_before = self.host.sample();
    }

    /// Samples the host routine after a timed step and returns the factor
    /// that scales the step to the reference host.
    fn host_factor(&mut self) -> f64 {
        let after = self.host.sample();
        let factor = host::normalize(1.0, self.host_before, after);
        self.host_before = after;
        self.samples.host_ms.push(after);
        factor
    }

    /// One untimed simulation at the golden seed before timing starts.
    pub fn warm_up(&mut self) {
        let job = jobs::jobs(self.workload, jobs::DEFAULT_SEED)[0];
        let mut times = SetupTimes::default();
        let outcome = jobs::prepare(&job, &mut times).and_then(jobs::run);
        self.checker.warmup(&job, &outcome);
    }

    /// Runs rounds for `seconds`: a round starts only if a round as long as
    /// the longest of the last two still fits, but at least two rounds run
    /// and enough job samples are taken for a tail percentile. A traced
    /// run alternates untraced and traced rounds, starting untraced so
    /// references exist.
    pub fn measure(&mut self, seconds: f64, trace: bool) -> Result<(), String> {
        let start = Instant::now();
        let budget = Duration::from_secs_f64(seconds);
        let mut last = [Duration::ZERO; 2];
        let mut round = 0;
        while round < 2
            || start.elapsed() + last[0].max(last[1]) <= budget
            || self.samples.job_ms.len() <= crate::stats::TAIL_BEYOND
        {
            let began = Instant::now();
            let traced_round = trace && round % 2 == 1;
            let wall = self.round(round, traced_round)?;
            match traced_round {
                true => self.traced.traced_wall_s.push(wall),
                false => self.traced.untraced_wall_s.push(wall),
            }
            last[round % 2] = began.elapsed();
            round += 1;
        }
        Ok(())
    }

    fn round(&mut self, round: usize, trace: bool) -> Result<f64, String> {
        match self.workload {
            Workload::ServeBatch => self.serve_round(round, trace),
            _ => Ok(self.sim_round(trace)),
        }
    }

    /// A round of `retry-storm` or `apres-mix`; returns the simulation
    /// wall time.
    fn sim_round(&mut self, trace: bool) -> f64 {
        let jobs = self.jobs.clone();
        if trace {
            let mut times = SetupTimes::default();
            let gpus: Vec<_> = jobs
                .iter()
                .map(|j| TracedGpu::prepare(j, &mut times))
                .collect();
            let t0 = Instant::now();
            let outcomes: Vec<_> = gpus
                .into_iter()
                .map(|g| g.and_then(|g| g.run(None)))
                .collect();
            let wall = t0.elapsed().as_secs_f64();
            self.check_traced(outcomes.into_iter().enumerate());
            self.traced.rounds += 1;
            return wall;
        }
        let mut times = SetupTimes::default();
        self.host_start();
        let t = Instant::now();
        let gpus: Vec<_> = jobs.iter().map(|j| jobs::prepare(j, &mut times)).collect();
        let setup_raw = t.elapsed().as_secs_f64();
        let setup_s = setup_raw * self.host_factor();
        let (mut cold, mut raw_cold) = (0.0, 0.0);
        let mut outcomes = Vec::with_capacity(gpus.len());
        for gpu in gpus {
            let tj = Instant::now();
            let outcome = gpu.and_then(jobs::run);
            let raw = tj.elapsed().as_secs_f64();
            let s = raw * self.host_factor();
            if let Ok(r) = &outcome {
                self.samples.cycles += r.cycles;
                self.samples.sim_s += s;
                self.samples.raw_sim_s += raw;
            }
            self.samples.job_ms.push(s * 1e3);
            self.samples.raw_job_ms.push(raw * 1e3);
            (cold, raw_cold) = (cold + s, raw_cold + raw);
            outcomes.push(outcome);
        }
        let tc = Instant::now();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            self.check_direct(i, outcome);
        }
        let raw_check = tc.elapsed().as_secs_f64();
        let check = raw_check * self.host_factor();
        let s = &mut self.samples;
        s.setup_s.push(setup_s);
        s.setup.add(&times);
        s.prepared += jobs.len();
        s.batch_cold_s.push(cold);
        s.batch_warm_ms.push(check * 1e3);
        s.wall_s.push(cold + check);
        s.raw_wall_s.push(raw_cold + raw_check);
        s.rounds += 1;
        raw_cold
    }

    /// A `serve-batch` round; returns its wall time without set-up.
    fn serve_round(&mut self, round: usize, trace: bool) -> Result<f64, String> {
        let batch = Batch::new(
            self.workload.name(),
            self.workload
                .submissions()
                .into_iter()
                .map(|i| self.jobs[i].spec())
                .collect(),
        );
        let opts = ServeOptions {
            workers: WORKERS,
            ..ServeOptions::default()
        };
        let dir = self.tmp.join(format!("round-{round}"));
        let jobs = self.jobs.clone();
        let mut times = SetupTimes::default();
        self.host_start();
        let t = Instant::now();
        let cache = open_fresh_cache(&dir)?;
        let (direct, traced): (Vec<_>, Vec<_>) = if trace {
            let g = jobs.iter().map(|j| TracedGpu::prepare(j, &mut times));
            (Vec::new(), g.collect())
        } else {
            let g = jobs.iter().map(|j| jobs::prepare(j, &mut times));
            (g.collect(), Vec::new())
        };
        let setup_s = t.elapsed().as_secs_f64() * self.host_factor();

        // Three timed steps, each scaled by the host speed around it: the
        // cold serving and its check, the warm servings and their checks,
        // then each direct reference run.
        let clock = WallClock::new();
        let t0 = Instant::now();
        let cold = serve_batch(&batch, Some(&cache), &opts, &clock);
        let raw_cold = t0.elapsed().as_secs_f64();
        let cold_json = self.check_cold(&cold);
        let mut raw_wall = t0.elapsed().as_secs_f64();
        let factor = self.host_factor();
        let (cold_s, mut wall) = (raw_cold * factor, raw_wall * factor);

        let tw = Instant::now();
        let mut raw_warm_ms = Vec::with_capacity(WARM_SERVINGS);
        let mut servings = vec![cold];
        for _ in 0..WARM_SERVINGS {
            let t = Instant::now();
            let warm = serve_batch(&batch, Some(&cache), &opts, &clock);
            raw_warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
            for (job, bytes) in warm.jobs.iter().zip(&cold_json) {
                let same = job
                    .outcome
                    .as_ref()
                    .ok()
                    .map(|r| gpu_sm::codec::encode(r).to_compact());
                self.checker.op(match same.as_ref() == bytes.as_ref() {
                    true => Ok(()),
                    false => Err(format!("{}: warm response differs from cold", job.label)),
                });
            }
            servings.push(warm);
        }
        let raw = tw.elapsed().as_secs_f64();
        let factor = self.host_factor();
        let warm_ms: Vec<f64> = raw_warm_ms.iter().map(|ms| ms * factor).collect();
        (raw_wall, wall) = (raw_wall + raw, wall + raw * factor);

        let (mut job_ms, mut raw_job_ms) = (Vec::new(), Vec::new());
        if trace {
            let t = Instant::now();
            let outcomes: Vec<_> = traced
                .into_iter()
                .map(|g| g.and_then(|g| g.run(None)))
                .collect();
            raw_wall += t.elapsed().as_secs_f64();
            self.check_traced(outcomes.into_iter().enumerate());
        } else {
            for (i, gpu) in direct.into_iter().enumerate() {
                let t = Instant::now();
                let outcome = gpu.and_then(jobs::run);
                self.check_direct(i, outcome);
                let raw = t.elapsed().as_secs_f64();
                let s = raw * self.host_factor();
                (raw_wall, wall) = (raw_wall + raw, wall + s);
                job_ms.push(s * 1e3);
                raw_job_ms.push(raw * 1e3);
            }
        }
        for s in &servings {
            self.serve.add(s);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        if !trace {
            let unique_cycles: u64 = self.reference.iter().flatten().map(|r| r.cycles).sum();
            let s = &mut self.samples;
            s.setup_s.push(setup_s);
            s.setup.add(&times);
            s.prepared += jobs.len();
            s.batch_cold_s.push(cold_s);
            s.batch_warm_ms.extend(warm_ms);
            s.job_ms.extend(job_ms);
            s.raw_job_ms.extend(raw_job_ms);
            s.wall_s.push(wall);
            s.raw_wall_s.push(raw_wall);
            s.cycles += unique_cycles;
            s.sim_s += cold_s;
            s.raw_sim_s += raw_cold;
            s.rounds += 1;
        } else {
            self.traced.rounds += 1;
        }
        Ok(raw_wall)
    }

    /// Checks the cold serving: every distinct job's result must drain and
    /// repeat its digest (golden at the default seed). Returns each
    /// submission's encoded result for the warm comparison.
    fn check_cold(&mut self, cold: &BatchReport) -> Vec<Option<String>> {
        let subs = self.workload.submissions();
        let mut seen = vec![false; self.jobs.len()];
        let mut out = Vec::with_capacity(cold.jobs.len());
        for (report, &idx) in cold.jobs.iter().zip(&subs) {
            let job = self.jobs[idx];
            let outcome: SimResult<RunResult> = report.outcome.clone().map(|b| *b);
            out.push(
                outcome
                    .as_ref()
                    .ok()
                    .map(|r| gpu_sm::codec::encode(r).to_compact()),
            );
            if std::mem::replace(&mut seen[idx], true) {
                continue;
            }
            self.checker.simulation(idx, &job, &outcome);
            if let Ok(r) = outcome {
                self.reference[idx].get_or_insert(r);
            }
        }
        out
    }

    /// Checks an untraced simulation and keeps it as the reference for the
    /// traced driver.
    fn check_direct(&mut self, idx: usize, outcome: SimResult<RunResult>) {
        let job = self.jobs[idx];
        self.checker.simulation(idx, &job, &outcome);
        if let Ok(r) = outcome {
            self.reference[idx].get_or_insert(r);
        }
    }

    /// Each traced simulation must reproduce the untraced statistics of the
    /// same job exactly; a mismatch is a failed operation.
    fn check_traced(
        &mut self,
        outcomes: impl Iterator<Item = (usize, SimResult<(Observed, LayerTotals)>)>,
    ) {
        let first = self.traced.counters.is_empty();
        for (idx, outcome) in outcomes {
            let label = self.jobs[idx].label();
            let verdict = match (&outcome, &self.reference[idx]) {
                (Ok((obs, _)), Some(r)) => obs.matches(r),
                (Ok(_), None) => Err("no untraced reference".to_owned()),
                (Err(e), _) => Err(format!("[{}] {e}", e.class())),
            };
            if verdict.is_err() {
                self.traced.diverged = true;
            }
            self.checker
                .op(verdict.map_err(|e| format!("traced {label}: {e}")));
            if let Ok((obs, totals)) = outcome {
                self.traced.totals.add(&totals);
                if first {
                    self.traced.counters.push(obs);
                }
            }
        }
    }
}

fn open_fresh_cache(dir: &Path) -> Result<ResultCache, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    ResultCache::open(dir).map_err(|e| format!("opening cache {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::DEFAULT_SEED;

    #[test]
    fn desynchronised_traced_driver_is_a_failed_operation() {
        let mut c = Client::new(Workload::ApresMix, DEFAULT_SEED, Path::new("unused"));
        let idx = 3;
        let job = c.jobs[idx];
        let mut times = SetupTimes::default();
        c.check_direct(idx, jobs::prepare(&job, &mut times).and_then(jobs::run));
        let traced = |skip| TracedGpu::prepare(&job, &mut SetupTimes::default())?.run(skip);
        c.check_traced([(idx, traced(None))].into_iter());
        assert_eq!((c.checker.attempted, c.checker.failed), (2, 0));
        assert!(!c.traced.diverged);
        c.check_traced([(idx, traced(Some(100)))].into_iter());
        assert_eq!((c.checker.attempted, c.checker.failed), (3, 1));
        assert!(c.traced.diverged);
    }
}
