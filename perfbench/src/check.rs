//! Correctness bookkeeping: every checked operation is attempted once and
//! either passes or counts as failed.

use crate::jobs::{digest, golden_digest, outcome_error, Job, Workload, DEFAULT_SEED};
use gpu_common::SimResult;
use gpu_sm::RunResult;

/// At most this many failure messages are echoed to stderr.
const MAX_REPORTED: usize = 20;

#[derive(Debug)]
pub struct Checker {
    workload: Workload,
    seed: u64,
    golden: String,
    /// First digest seen per job index; later repeats must match it.
    reference: Vec<Option<String>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(workload: Workload, seed: u64, jobs: usize, golden: &str) -> Checker {
        Checker {
            workload,
            seed,
            golden: golden.to_owned(),
            reference: vec![None; jobs],
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one operation; `Err` carries why it failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed as usize <= MAX_REPORTED {
                eprintln!("FAILED [{}]: {why}", self.workload.name());
            }
        }
    }

    /// The warm-up simulation runs at [`DEFAULT_SEED`] and must reproduce
    /// its golden digest.
    pub fn warmup(&mut self, job: &Job, outcome: &SimResult<RunResult>) {
        let verdict = match outcome {
            Ok(r) if outcome_error(outcome).is_none() => self.golden_verdict(job, &digest(r)),
            _ => Err(outcome_error(outcome).unwrap_or_default()),
        };
        self.op(verdict.map_err(|e| format!("warm-up {}: {e}", job.label())));
    }

    /// Checks job `idx`'s outcome: it must drain, repeat the digest of the
    /// first run of the same job and seed, and at [`DEFAULT_SEED`] match
    /// the golden digest.
    pub fn simulation(&mut self, idx: usize, job: &Job, outcome: &SimResult<RunResult>) {
        let verdict = match (outcome, outcome_error(outcome)) {
            (Ok(r), None) => self.repeat_verdict(idx, job, digest(r)),
            (_, why) => Err(why.unwrap_or_default()),
        };
        self.op(verdict.map_err(|e| format!("{}: {e}", job.label())));
    }

    fn repeat_verdict(&mut self, idx: usize, job: &Job, d: String) -> Result<(), String> {
        match &self.reference[idx] {
            Some(first) if *first != d => Err(format!("digest {d} differs from first run {first}")),
            Some(_) => Ok(()),
            None => {
                let verdict = if self.seed == DEFAULT_SEED {
                    self.golden_verdict(job, &d)
                } else {
                    Ok(())
                };
                self.reference[idx] = Some(d);
                verdict
            }
        }
    }

    fn golden_verdict(&self, job: &Job, d: &str) -> Result<(), String> {
        match golden_digest(&self.golden, self.workload, &job.label()) {
            Some(g) if g == d => Ok(()),
            Some(g) => Err(format!("digest {d} differs from golden {g}")),
            None => Err("no golden digest recorded".to_owned()),
        }
    }

    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{self, GOLDEN};

    fn first_job(w: Workload) -> (Job, SimResult<RunResult>) {
        let job = jobs::jobs(w, DEFAULT_SEED)[0];
        let mut times = jobs::SetupTimes::default();
        let outcome = jobs::prepare(&job, &mut times).and_then(jobs::run);
        (job, outcome)
    }

    #[test]
    fn golden_digest_passes_and_tampered_one_fails() {
        let w = Workload::ApresMix;
        let (job, outcome) = first_job(w);
        let mut ok = Checker::new(w, DEFAULT_SEED, 1, GOLDEN);
        ok.warmup(&job, &outcome);
        ok.simulation(0, &job, &outcome);
        assert_eq!((ok.attempted, ok.failed), (2, 0));

        let real = golden_digest(GOLDEN, w, &job.label()).unwrap();
        let tampered = GOLDEN.replace(real, &"0".repeat(real.len()));
        let mut bad = Checker::new(w, DEFAULT_SEED, 1, &tampered);
        bad.warmup(&job, &outcome);
        bad.simulation(0, &job, &outcome);
        assert_eq!((bad.attempted, bad.failed), (2, 2));
        assert_eq!(bad.failed_frac(), 1.0);
    }

    #[test]
    fn repeats_must_match_the_first_digest() {
        let w = Workload::ApresMix;
        let (job, _) = first_job(w);
        let mut c = Checker::new(w, 7, 1, GOLDEN);
        for d in ["a", "a", "b"] {
            let verdict = c.repeat_verdict(0, &job, d.to_owned());
            c.op(verdict);
        }
        assert_eq!((c.attempted, c.failed), (3, 1));
    }
}
