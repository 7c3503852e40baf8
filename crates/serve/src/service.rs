//! The batch-serving engine: verified cache, retries, deadlines, and
//! graceful degradation.
//!
//! [`serve_batch`] is the whole service in one function:
//!
//! 1. **Hash + dedup.** Every job spec is content-hashed
//!    ([`JobSpec::hash`]); identical specs within a batch are computed
//!    once and the outcome is shared (safe because every job is a pure
//!    function of its spec).
//! 2. **Verified cache.** Known hashes are served from the persistent
//!    [`ResultCache`] — after the payload hash re-verifies on read. A
//!    corrupt or truncated entry is evicted and the job recomputed; a
//!    cache hit can therefore never return unverified bytes. This is
//!    [`run_cached`], the cache step the bench harness's sweeps share.
//! 3. **Sharding.** Misses run on the [`apres_bench::map_parallel`]
//!    worker pool, each attempt under [`apres_bench::isolate_panic`] so a
//!    panicking worker is converted into a typed
//!    [`SimError::InvariantViolation`] instead of tearing the batch down.
//! 4. **Deadline + retry.** Each attempt is timed against the injected
//!    [`Clock`]; exceeding the per-job deadline is a typed
//!    [`SimError::JobTimeout`]. Failed attempts retry on the
//!    deterministic exponential backoff schedule of [`RetryPolicy`]
//!    until the budget is spent, which yields
//!    [`SimError::RetriesExhausted`] wrapping the last error.
//! 5. **Graceful degradation.** The [`BatchReport`] carries N−K good
//!    results and K typed failures; the service never aborts a batch
//!    because some jobs failed.
//!
//! The response document ([`BatchReport::to_json`]) deliberately contains
//! no timings, attempt counts, or cache provenance — only spec hashes and
//! result payloads — so cold, warm, and fault-injected servings of the
//! same batch are byte-identical. Operational detail lives in
//! [`ServeStats`], reported on stderr by the binary.

use apres_bench::cache::{run_cached, CacheCounters, JobSpec, ResultCache};
use apres_bench::isolate_panic;
use gpu_common::{Clock, RetryPolicy, ServiceFaultPlan, SimError};
use gpu_sm::RunResult;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Service knobs for one batch.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads for cache misses.
    pub workers: usize,
    /// Attempt budget and backoff schedule per job.
    pub retry: RetryPolicy,
    /// Per-job wall deadline in milliseconds (`None` = unbounded; hangs
    /// *inside* a run are still caught by the simulator's own watchdog).
    pub deadline_ms: Option<u64>,
    /// Deterministic service-level fault injection (tests and smoke runs).
    pub fault: ServiceFaultPlan,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 1,
            retry: RetryPolicy::default(),
            deadline_ms: None,
            fault: ServiceFaultPlan::none(),
        }
    }
}

/// Operational counters for one served batch (stderr-only — never part of
/// the response document, which must stay byte-identical across cache
/// states and fault plans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Distinct spec hashes in the batch.
    pub unique_jobs: usize,
    /// Submissions that shared another submission's spec hash.
    pub duplicate_jobs: usize,
    /// Unique jobs served from a verified cache entry.
    pub cache_hits: usize,
    /// Unique jobs computed because no entry existed.
    pub cache_misses: usize,
    /// Cache entries that failed verification and were evicted.
    pub cache_evicted: usize,
    /// Retry attempts performed (beyond each job's first attempt).
    pub retries: usize,
    /// Jobs that failed at least one attempt but ultimately succeeded.
    pub recovered_jobs: usize,
    /// Jobs whose every attempt failed.
    pub failed_jobs: usize,
}

/// The outcome of one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// `BENCH/POLICY` label of the spec.
    pub label: String,
    /// The spec's content hash (32 hex digits).
    pub spec_hash: String,
    /// The result, or the typed error that exhausted the job's attempts.
    pub outcome: Result<Box<RunResult>, SimError>,
}

/// Everything the service returns for one batch: per-job outcomes in
/// submission order plus operational counters.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Batch name (from the request).
    pub name: String,
    /// One report per submitted job, in submission order.
    pub jobs: Vec<JobReport>,
    /// Operational counters (stderr-only; excluded from the response).
    pub stats: ServeStats,
}

impl BatchReport {
    /// Number of jobs that produced a result.
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_ok()).count()
    }

    /// Number of jobs that failed for good.
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.completed()
    }

    /// The response document. Contains only deterministic data — spec
    /// hashes, result payloads, typed error classes/messages — never
    /// timings or cache provenance, so servings of the same batch are
    /// byte-identical regardless of cache state or recovered faults.
    pub fn to_json(&self) -> gpu_common::json::Json {
        use gpu_common::json::Json;
        let jobs: Vec<Json> = self
            .jobs
            .iter()
            .map(|j| {
                let mut members = vec![
                    ("label".into(), Json::str(j.label.clone())),
                    ("spec_hash".into(), Json::str(j.spec_hash.clone())),
                ];
                match &j.outcome {
                    Ok(result) => {
                        members.push(("status".into(), Json::str("ok")));
                        members.push(("result".into(), gpu_sm::codec::encode(result)));
                    }
                    Err(e) => {
                        members.push(("status".into(), Json::str("failed")));
                        members.push((
                            "error".into(),
                            Json::Obj(vec![
                                ("class".into(), Json::str(e.class())),
                                ("message".into(), Json::str(e.to_string())),
                            ]),
                        ));
                    }
                }
                Json::Obj(members)
            })
            .collect();
        Json::Obj(vec![
            ("name".into(), Json::str(self.name.clone())),
            ("jobs".into(), Json::Arr(jobs)),
            ("completed".into(), Json::from_u64(self.completed() as u64)),
            ("failed".into(), Json::from_u64(self.failed() as u64)),
        ])
    }
}

/// Worker-shared counters (relaxed ordering: totals only).
#[derive(Default)]
struct Counters {
    cache: CacheCounters,
    retries: AtomicUsize,
    recovered: AtomicUsize,
    failed: AtomicUsize,
}

impl Counters {
    fn bump(counter: &AtomicUsize) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Serves one batch: dedup, verified cache, sharded compute with panic
/// isolation, deadline + retry, graceful degradation. See the module docs
/// for the exact semantics of each stage.
pub fn serve_batch(
    batch: &crate::Batch,
    cache: Option<&ResultCache>,
    opts: &ServeOptions,
    clock: &dyn Clock,
) -> BatchReport {
    // Service-level cache faults fire before serving starts: they model an
    // entry that rotted on disk between submissions, targeted by the
    // submission index of the job whose entry rots.
    if let Some(cache) = cache {
        if let Some(i) = opts.fault.corrupt_entry {
            if let Some(spec) = batch.jobs.get(i) {
                if let Err(e) = cache.corrupt_entry(spec) {
                    eprintln!("warning: corrupt-entry fault on job {i} failed: {e}");
                }
            }
        }
        if let Some(i) = opts.fault.truncate_entry {
            if let Some(spec) = batch.jobs.get(i) {
                if let Err(e) = cache.truncate_entry(spec) {
                    eprintln!("warning: truncate-entry fault on job {i} failed: {e}");
                }
            }
        }
    }

    // Dedup identical specs: compute once, share the outcome. `share[s]`
    // maps submission index -> unique-job index.
    let mut unique: Vec<(usize, &JobSpec)> = Vec::new();
    let mut share: Vec<usize> = Vec::with_capacity(batch.jobs.len());
    let mut seen: std::collections::BTreeMap<u128, usize> = std::collections::BTreeMap::new();
    for (submit_idx, spec) in batch.jobs.iter().enumerate() {
        let hash = spec.hash();
        let unique_idx = *seen.entry(hash).or_insert_with(|| {
            unique.push((submit_idx, spec));
            unique.len() - 1
        });
        share.push(unique_idx);
    }

    let counters = Counters::default();
    let outcomes: Vec<Result<Box<RunResult>, SimError>> = apres_bench::map_parallel(
        opts.workers.max(1),
        unique,
        |_, (submit_idx, spec)| {
            run_cached(cache, spec, &counters.cache, || {
                run_job(spec, submit_idx, opts, clock, &counters)
            })
            .map(Box::new)
        },
    );

    let jobs: Vec<JobReport> = batch
        .jobs
        .iter()
        .zip(&share)
        .map(|(spec, &unique_idx)| JobReport {
            label: spec.label(),
            spec_hash: spec.hash_hex(),
            outcome: outcomes[unique_idx].clone(),
        })
        .collect();

    let cache_summary = counters.cache.summary();
    let stats = ServeStats {
        unique_jobs: outcomes.len(),
        duplicate_jobs: batch.jobs.len() - outcomes.len(),
        cache_hits: cache_summary.hits,
        cache_misses: cache_summary.misses,
        cache_evicted: cache_summary.evicted,
        retries: counters.retries.load(Ordering::Relaxed),
        recovered_jobs: counters.recovered.load(Ordering::Relaxed),
        failed_jobs: counters.failed.load(Ordering::Relaxed),
    };
    BatchReport {
        name: batch.name.clone(),
        jobs,
        stats,
    }
}

/// Computes one unique job that the cache did not serve: attempt/retry
/// until success or budget exhaustion.
fn run_job(
    spec: &JobSpec,
    submit_idx: usize,
    opts: &ServeOptions,
    clock: &dyn Clock,
    counters: &Counters,
) -> Result<RunResult, SimError> {
    let mut attempt: u32 = 1;
    let mut last: SimError;
    loop {
        match run_attempt(spec, submit_idx, attempt, opts, clock) {
            Ok(result) => {
                if attempt > 1 {
                    Counters::bump(&counters.recovered);
                }
                return Ok(result);
            }
            Err(e) => last = e,
        }
        match opts.retry.delay_after_ms(attempt) {
            Some(delay_ms) => {
                Counters::bump(&counters.retries);
                clock.sleep_ms(delay_ms);
                attempt += 1;
            }
            None => break,
        }
    }
    Counters::bump(&counters.failed);
    // A single-attempt policy reports the bare error; with retries in
    // play, wrap so the report names the exhausted budget.
    if opts.retry.max_attempts > 1 {
        Err(SimError::RetriesExhausted {
            spec_hash: spec.hash(),
            attempts: opts.retry.max_attempts,
            last: Box::new(last),
        })
    } else {
        Err(last)
    }
}

/// One attempt: inject scheduled faults, run panic-isolated, enforce the
/// deadline on the measured duration.
fn run_attempt(
    spec: &JobSpec,
    submit_idx: usize,
    attempt: u32,
    opts: &ServeOptions,
    clock: &dyn Clock,
) -> Result<RunResult, SimError> {
    let started_ms = clock.now_ms();
    if opts.fault.should_stall(submit_idx, attempt) {
        // Burn through the deadline (plus a margin when none is set, so
        // the fault is visible in stats even on unbounded batches).
        clock.sleep_ms(opts.deadline_ms.unwrap_or(0) + 1);
    }
    let outcome = isolate_panic(submit_idx, || {
        if opts.fault.should_kill(submit_idx, attempt) {
            ServiceFaultPlan::kill_worker_now();
        }
        spec.run()
    });
    let elapsed_ms = clock.now_ms().saturating_sub(started_ms);
    if let Some(deadline_ms) = opts.deadline_ms {
        if elapsed_ms > deadline_ms {
            return Err(SimError::JobTimeout {
                spec_hash: spec.hash(),
                deadline_ms,
            });
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Batch;
    use apres_bench::{Scale, APRES, BASELINE};
    use gpu_common::VirtualClock;
    use gpu_workloads::Benchmark;

    fn tiny_spec(bench: Benchmark) -> JobSpec {
        JobSpec::new(bench, BASELINE, Scale::Tiny, &Scale::Tiny.config())
    }

    fn broken_spec() -> JobSpec {
        let mut cfg = Scale::Tiny.config();
        cfg.l1.ways = 0; // fails config validation on every attempt
        JobSpec::new(Benchmark::Hs, BASELINE, Scale::Tiny, &cfg)
    }

    fn tmp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!(
            "apres-serve-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(dir).expect("open cache")
    }

    fn drop_cache(cache: &ResultCache) {
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn backoff_schedule_is_exact() {
        // A job that fails every attempt must sleep the exact exponential
        // schedule — and nothing else touches the clock.
        let batch = Batch::new("t", vec![broken_spec()]);
        let clock = VirtualClock::new();
        let opts = ServeOptions {
            retry: RetryPolicy::default().attempts(4).base_delay(100),
            ..ServeOptions::default()
        };
        let report = serve_batch(&batch, None, &opts, &clock);
        assert_eq!(clock.sleeps(), vec![100, 200, 400]);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.stats.retries, 3);
    }

    #[test]
    fn retry_budget_exhaustion_is_typed_and_named() {
        let batch = Batch::new("t", vec![broken_spec()]);
        let clock = VirtualClock::new();
        let opts = ServeOptions {
            retry: RetryPolicy::default().attempts(3),
            ..ServeOptions::default()
        };
        let report = serve_batch(&batch, None, &opts, &clock);
        let err = report.jobs[0].outcome.as_ref().expect_err("must fail");
        assert_eq!(err.class(), "retries-exhausted");
        let text = err.to_string();
        assert!(text.contains("3 attempt(s)"), "{text}");
        assert!(text.contains("config-validation"), "{text}");
        // Single-attempt policies report the bare error instead.
        let bare = serve_batch(
            &batch,
            None,
            &ServeOptions {
                retry: RetryPolicy::no_retries(),
                ..ServeOptions::default()
            },
            &clock,
        );
        let err = bare.jobs[0].outcome.as_ref().expect_err("must fail");
        assert_eq!(err.class(), "config-validation");
    }

    #[test]
    fn killed_worker_recovers_byte_identically() {
        let spec = tiny_spec(Benchmark::Hs);
        let clean = serve_batch(
            &Batch::new("t", vec![spec.clone()]),
            None,
            &ServeOptions::default(),
            &VirtualClock::new(),
        );
        let clock = VirtualClock::new();
        let opts = ServeOptions {
            fault: ServiceFaultPlan::none().killing_job(0),
            ..ServeOptions::default()
        };
        let faulted = quiet_panics(|| {
            serve_batch(&Batch::new("t", vec![spec]), None, &opts, &clock)
        });
        // Attempt 1 died to the injected panic; attempt 2 succeeded, and
        // the response document is byte-identical to the fault-free run.
        assert_eq!(faulted.stats.retries, 1);
        assert_eq!(faulted.stats.recovered_jobs, 1);
        assert_eq!(
            faulted.to_json().to_compact(),
            clean.to_json().to_compact(),
            "recovered run must serialise identically to a clean run"
        );
    }

    #[test]
    fn stalled_job_times_out_then_recovers() {
        let spec = tiny_spec(Benchmark::Hs);
        let clock = VirtualClock::new();
        let opts = ServeOptions {
            deadline_ms: Some(500),
            fault: ServiceFaultPlan::none().stalling_job(0),
            ..ServeOptions::default()
        };
        let report = serve_batch(&Batch::new("t", vec![spec.clone()]), None, &opts, &clock);
        // Stall fires on attempt 1 only: timeout, one backoff, clean rerun.
        assert_eq!(report.completed(), 1);
        assert_eq!(report.stats.retries, 1);
        // With no retry budget the timeout is final and typed.
        let fatal = serve_batch(
            &Batch::new("t", vec![spec]),
            None,
            &ServeOptions {
                retry: RetryPolicy::no_retries(),
                ..opts
            },
            &clock,
        );
        let err = fatal.jobs[0].outcome.as_ref().expect_err("timeout");
        assert_eq!(err.class(), "job-timeout");
        assert!(err.to_string().contains("500 ms"), "{err}");
    }

    #[test]
    fn corrupted_cache_entry_is_evicted_and_recomputed() {
        let cache = tmp_cache("corrupt");
        let spec = tiny_spec(Benchmark::Hs);
        let batch = Batch::new("t", vec![spec]);
        let clock = VirtualClock::new();
        let cold = serve_batch(&batch, Some(&cache), &ServeOptions::default(), &clock);
        assert_eq!(cold.stats.cache_misses, 1);
        // Corrupt the stored entry via the service fault plan; the next
        // serving must detect it, evict, recompute, and return bytes
        // identical to the cold run.
        let opts = ServeOptions {
            fault: ServiceFaultPlan::none().corrupting_entry(0),
            ..ServeOptions::default()
        };
        let rotten = serve_batch(&batch, Some(&cache), &opts, &clock);
        assert_eq!(rotten.stats.cache_evicted, 1);
        assert_eq!(rotten.stats.cache_hits, 0);
        assert_eq!(
            rotten.to_json().to_compact(),
            cold.to_json().to_compact()
        );
        // The recomputed entry is stored again: a clean re-serve hits.
        let warm = serve_batch(&batch, Some(&cache), &ServeOptions::default(), &clock);
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.to_json().to_compact(), cold.to_json().to_compact());
        drop_cache(&cache);
    }

    #[test]
    fn truncated_cache_entry_is_evicted_and_recomputed() {
        let cache = tmp_cache("truncate");
        let spec = tiny_spec(Benchmark::Km);
        let batch = Batch::new("t", vec![spec]);
        let clock = VirtualClock::new();
        let cold = serve_batch(&batch, Some(&cache), &ServeOptions::default(), &clock);
        let opts = ServeOptions {
            fault: ServiceFaultPlan::none().truncating_entry(0),
            ..ServeOptions::default()
        };
        let rotten = serve_batch(&batch, Some(&cache), &opts, &clock);
        assert_eq!(rotten.stats.cache_evicted, 1);
        assert_eq!(
            rotten.to_json().to_compact(),
            cold.to_json().to_compact()
        );
        drop_cache(&cache);
    }

    #[test]
    fn batch_degrades_gracefully() {
        // K failed jobs yield N−K good results plus typed failures.
        let batch = Batch::new(
            "mixed",
            vec![tiny_spec(Benchmark::Hs), broken_spec(), tiny_spec(Benchmark::Km)],
        );
        let report = serve_batch(
            &batch,
            None,
            &ServeOptions {
                workers: 2,
                retry: RetryPolicy::no_retries(),
                ..ServeOptions::default()
            },
            &VirtualClock::new(),
        );
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed(), 1);
        assert!(report.jobs[0].outcome.is_ok());
        assert!(report.jobs[1].outcome.is_err());
        assert!(report.jobs[2].outcome.is_ok());
        let doc = report.to_json().to_compact();
        assert!(doc.contains(r#""completed":2"#), "{doc}");
        assert!(doc.contains(r#""failed":1"#), "{doc}");
        assert!(doc.contains("config-validation"), "{doc}");
    }

    #[test]
    fn duplicate_specs_are_computed_once_and_shared() {
        let spec = tiny_spec(Benchmark::Hs);
        let batch = Batch::new("dup", vec![spec.clone(), spec]);
        let cache = tmp_cache("dedup");
        let report = serve_batch(
            &batch,
            Some(&cache),
            &ServeOptions::default(),
            &VirtualClock::new(),
        );
        assert_eq!(report.stats.unique_jobs, 1);
        assert_eq!(report.stats.duplicate_jobs, 1);
        // One miss total: the duplicate shared the computed outcome.
        assert_eq!(report.stats.cache_misses, 1);
        assert_eq!(report.jobs[0].outcome, report.jobs[1].outcome);
        drop_cache(&cache);
    }

    #[test]
    fn warm_serving_is_hits_only_and_byte_identical() {
        let cache = tmp_cache("warm");
        let batch = Batch::new(
            "w",
            vec![
                tiny_spec(Benchmark::Hs),
                JobSpec::new(Benchmark::Km, APRES, Scale::Tiny, &Scale::Tiny.config()),
            ],
        );
        let clock = VirtualClock::new();
        let cold = serve_batch(&batch, Some(&cache), &ServeOptions::default(), &clock);
        assert_eq!(cold.stats.cache_misses, 2);
        let warm = serve_batch(&batch, Some(&cache), &ServeOptions::default(), &clock);
        assert_eq!(warm.stats.cache_hits, 2);
        assert_eq!(warm.stats.cache_misses, 0);
        assert_eq!(warm.to_json().to_compact(), cold.to_json().to_compact());
        drop_cache(&cache);
    }

    #[test]
    fn retry_success_matches_first_try_success_exactly() {
        // Satellite: a job that succeeds on retry N must produce output
        // byte-identical to a first-try success — retries are invisible.
        let spec = tiny_spec(Benchmark::Km);
        let first_try = serve_batch(
            &Batch::new("r", vec![spec.clone()]),
            None,
            &ServeOptions::default(),
            &VirtualClock::new(),
        );
        let retried = quiet_panics(|| {
            serve_batch(
                &Batch::new("r", vec![spec]),
                None,
                &ServeOptions {
                    retry: RetryPolicy::default().attempts(5),
                    fault: ServiceFaultPlan::none().killing_job(0),
                    ..ServeOptions::default()
                },
                &VirtualClock::new(),
            )
        });
        assert_eq!(
            retried.to_json().to_compact(),
            first_try.to_json().to_compact()
        );
    }
}
