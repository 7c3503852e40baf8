//! Metric assembly: end-to-end metrics from untraced rounds, per-layer
//! metrics from traced rounds plus a probe of the harness, cache, codec
//! and spec-hash layers.

use crate::jobs::{digest, Workload};
use crate::measure::{Client, Samples, ServeTotals, WORKERS};
use crate::stats::{interquartile_mean, median, ratio, tail, Metric};
use apres_bench::{JobSpec, Lookup, ResultCache};
use apres_serve::{serve_batch, Batch, ServeOptions};
use gpu_common::WallClock;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions of the microsecond-scale codec and hash probes.
const PROBE_REPS: usize = 20;

/// Layer timings measured by calling each layer's public functions on the
/// workload's own jobs and results.
#[derive(Debug, Default)]
pub struct Probe {
    pub busy_frac: f64,
    pub imbalance: f64,
    pub store_us: f64,
    pub lookup_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub hash_us: f64,
}

/// Runs the workload's distinct jobs once on the harness pool, stores and
/// looks up every result in a fresh cache under `dir`, and times the codec
/// and the spec hash. Workloads that do not go through the service then
/// serve their jobs once, warm, so the service counters are measured on
/// every workload.
pub fn probe(client: &mut Client, dir: &Path) -> Result<Probe, String> {
    let specs: Vec<(usize, JobSpec)> = client.jobs.iter().map(|j| j.spec()).enumerate().collect();
    let t0 = Instant::now();
    let outs = apres_bench::map_parallel(WORKERS, specs.clone(), |_, (i, spec)| {
        let t = Instant::now();
        let r = spec.run();
        (i, std::thread::current().id(), t.elapsed().as_secs_f64(), r)
    });
    let pool_wall = t0.elapsed().as_secs_f64();
    let mut busy: Vec<(std::thread::ThreadId, f64)> = Vec::new();
    let mut results = Vec::new();
    for (i, thread, s, outcome) in outs {
        match busy.iter_mut().find(|(t, _)| *t == thread) {
            Some(b) => b.1 += s,
            None => busy.push((thread, s)),
        }
        let job = client.jobs[i];
        client.checker.simulation(i, &job, &outcome);
        if let Ok(r) = outcome {
            results.push((specs[i].1.clone(), r));
        }
    }
    let mut per_worker: Vec<f64> = busy.into_iter().map(|(_, s)| s).collect();
    per_worker.resize(WORKERS.min(specs.len()), 0.0);
    let total: f64 = per_worker.iter().sum();
    let max = per_worker.iter().copied().fold(0.0, f64::max);
    let mean = total / per_worker.len() as f64;

    let cache = ResultCache::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let n = results.len().max(1) as f64;
    let t = Instant::now();
    for (spec, r) in &results {
        cache
            .store(spec, r)
            .map_err(|e| format!("cache store: {e}"))?;
    }
    let store_us = t.elapsed().as_secs_f64() * 1e6 / n;
    let mut lookup_s = 0.0;
    for (spec, r) in &results {
        let t = Instant::now();
        let found = cache.lookup(spec);
        lookup_s += t.elapsed().as_secs_f64();
        client.checker.op(match found {
            Lookup::Hit(got) if digest(&got) == digest(r) => Ok(()),
            Lookup::Hit(_) => Err("cache returned a different result".to_owned()),
            _ => Err("stored result missing from cache".to_owned()),
        });
    }

    let reps = (PROBE_REPS * results.len()).max(1) as f64;
    let t = Instant::now();
    let mut texts = Vec::new();
    for _ in 0..PROBE_REPS {
        texts = results
            .iter()
            .map(|(_, r)| black_box(gpu_sm::codec::encode(black_box(r)).to_compact()))
            .collect();
    }
    let encode_us = t.elapsed().as_secs_f64() * 1e6 / reps;
    let t = Instant::now();
    for _ in 0..PROBE_REPS {
        for text in &texts {
            let decoded =
                gpu_common::json::parse(black_box(text)).and_then(|j| gpu_sm::codec::decode(&j));
            black_box(decoded.is_ok());
        }
    }
    let decode_us = t.elapsed().as_secs_f64() * 1e6 / reps;
    let t = Instant::now();
    for _ in 0..PROBE_REPS {
        for (spec, _) in &results {
            black_box(black_box(spec).hash());
        }
    }
    let hash_us = t.elapsed().as_secs_f64() * 1e6 / reps;

    if client.workload != Workload::ServeBatch {
        let batch = Batch::new(
            client.workload.name(),
            results.iter().map(|(spec, _)| spec.clone()).collect(),
        );
        let opts = ServeOptions {
            workers: WORKERS,
            ..ServeOptions::default()
        };
        let served = serve_batch(&batch, Some(&cache), &opts, &WallClock::new());
        for (job, (_, r)) in served.jobs.iter().zip(&results) {
            client.checker.op(match &job.outcome {
                Ok(got) if digest(got) == digest(r) => Ok(()),
                _ => Err(format!(
                    "{}: served result differs from direct run",
                    job.label
                )),
            });
        }
        client.serve.add(&served);
    }
    Ok(Probe {
        busy_frac: ratio(total, per_worker.len() as f64 * pool_wall),
        imbalance: if total > 0.0 { max / mean - 1.0 } else { 0.0 },
        store_us,
        lookup_us: lookup_s * 1e6 / n,
        encode_us,
        decode_us,
        hash_us,
    })
}

/// The `end_to_end` metrics of `BENCHMARK.json` plus notes on how the
/// tail percentile was chosen.
pub fn end_to_end(s: &Samples, peak_rss_mb: f64) -> Result<(Vec<Metric>, Vec<String>), String> {
    let med = |name: &str, v: &[f64]| median(v).ok_or_else(|| format!("no {name} samples"));
    let iqm =
        |name: &str, v: &[f64]| interquartile_mean(v).ok_or_else(|| format!("no {name} samples"));
    let job_tail = tail(&s.job_ms).ok_or("too few job samples for a tail percentile")?;
    let metrics = vec![
        m("setup_s", med("setup", &s.setup_s)?, "s"),
        m("wall_s", iqm("wall", &s.wall_s)?, "s"),
        m("batch_cold_s", iqm("cold batch", &s.batch_cold_s)?, "s"),
        m("batch_warm_ms", iqm("warm batch", &s.batch_warm_ms)?, "ms"),
        m(
            "sim_cycles_per_s",
            ratio(s.cycles as f64, s.sim_s),
            "cycles/s",
        ),
        m("job_p50_ms", med("job", &s.job_ms)?, "ms"),
        m("job_tail_ms", job_tail.value, "ms"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let raw_tail = tail(&s.raw_job_ms).map_or(0.0, |t| t.value);
    let notes = vec![
        format!(
            "job_tail_ms is p{} of {} job samples ({} beyond it)",
            job_tail.percentile, job_tail.samples, job_tail.beyond
        ),
        format!(
            "times are scaled to a host whose speed routine takes {} ms; this one took \
             a median {} ms over {} samples",
            crate::host::REF_MS,
            median(&s.host_ms).unwrap_or(0.0),
            s.host_ms.len()
        ),
        format!(
            "unscaled: wall_s {} job_p50_ms {} job_tail_ms {raw_tail} sim_cycles_per_s {}",
            interquartile_mean(&s.raw_wall_s).unwrap_or(0.0),
            median(&s.raw_job_ms).unwrap_or(0.0),
            ratio(s.cycles as f64, s.raw_sim_s)
        ),
        format!(
            "samples: {} rounds, {} setup, {} cold batches, {} warm batches, {} jobs",
            s.rounds,
            s.setup_s.len(),
            s.batch_cold_s.len(),
            s.batch_warm_ms.len(),
            s.job_ms.len()
        ),
    ];
    Ok((metrics, notes))
}

/// The `per_layer` metrics of `BENCHMARK.json`.
pub fn per_layer(client: &Client, probe: &Probe) -> Vec<Metric> {
    let t = &client.traced.totals;
    let c = &client.traced.counters;
    let sum = |f: &dyn Fn(&crate::traced::Observed) -> u64| c.iter().map(f).sum::<u64>() as f64;
    let cycles = t.cycles as f64;
    let step = t.step_ns as f64;
    let l1_acc = sum(&|o| o.l1.accesses);
    let l2_acc = sum(&|o| o.l2_accesses);
    let issued = sum(&|o| o.prefetch.issued);
    let setup = &client.samples.setup;
    let prepared = client.samples.prepared as f64;
    let serve: &ServeTotals = &client.serve;
    let walls = &client.traced;
    let overhead = match (median(&walls.traced_wall_s), median(&walls.untraced_wall_s)) {
        (Some(traced), Some(untraced)) => ratio(traced, untraced) - 1.0,
        _ => 0.0,
    };
    vec![
        m(
            "sm.self_ns_per_cycle",
            ratio(t.sm_self_ns() as f64, cycles),
            "ns/cycle",
        ),
        m("sm.share", ratio(t.sm_self_ns() as f64, step), "frac"),
        m(
            "sm.ipc",
            ratio(sum(&|o| o.sim.instructions), sum(&|o| o.cycles)),
            "inst/cycle",
        ),
        m(
            "sm.stall_lsu_full_frac",
            ratio(sum(&|o| o.sim.stall_lsu_full), sum(&|o| o.sim.stall_cycles)),
            "frac",
        ),
        m("l1.accesses", l1_acc, "count"),
        m("l1.hit_rate", ratio(sum(&|o| o.l1.hits), l1_acc), "frac"),
        m(
            "l1.probe_useful_frac",
            ratio(l1_acc, l1_acc + sum(&|o| o.l1.reservation_fails)),
            "frac",
        ),
        m("l1.mshr_merges", sum(&|o| o.l1.mshr_merges), "count"),
        m(
            "sched.self_ns_per_cycle",
            ratio(t.sched_ns as f64, cycles),
            "ns/cycle",
        ),
        m("sched.share", ratio(t.sched_ns as f64, step), "frac"),
        m(
            "sched.calls_per_cycle",
            ratio(t.sched_calls as f64, cycles),
            "calls/cycle",
        ),
        m(
            "sched.ns_per_call",
            ratio(t.sched_ns as f64, t.sched_calls as f64),
            "ns",
        ),
        m(
            "prefetch.self_ns_per_cycle",
            ratio(t.prefetch_ns as f64, cycles),
            "ns/cycle",
        ),
        m("prefetch.share", ratio(t.prefetch_ns as f64, step), "frac"),
        m("prefetch.issued", issued, "count"),
        m(
            "prefetch.useful_frac",
            ratio(sum(&|o| o.prefetch.useful), issued),
            "frac",
        ),
        m(
            "prefetch.early_evictions",
            sum(&|o| o.prefetch.early_evictions),
            "count",
        ),
        m(
            "port.ns_per_cycle",
            ratio(t.port_ns as f64, cycles),
            "ns/cycle",
        ),
        m("port.share", ratio(t.port_ns as f64, step), "frac"),
        m(
            "port.msgs_per_cycle",
            ratio(t.port_msgs as f64, cycles),
            "msgs/cycle",
        ),
        m(
            "mem.ns_per_cycle",
            ratio(t.mem_ns as f64, cycles),
            "ns/cycle",
        ),
        m("mem.share", ratio(t.mem_ns as f64, step), "frac"),
        m(
            "mem.in_flight_mean",
            ratio(t.in_flight_sum as f64, cycles),
            "requests",
        ),
        m("l2.accesses", l2_acc, "count"),
        m(
            "l2.hit_rate",
            ratio(
                c.iter().map(|o| o.l2_hit_rate * o.l2_accesses as f64).sum(),
                l2_acc,
            ),
            "frac",
        ),
        m("dram.accesses", sum(&|o| o.dram_accesses), "count"),
        m(
            "mem.load_latency_cycles",
            ratio(
                sum(&|o| o.mem.total_load_latency),
                sum(&|o| o.mem.completed_loads),
            ),
            "cycles",
        ),
        m("loop.share", ratio(t.loop_ns() as f64, step), "frac"),
        m(
            "setup.kernel_build_ms",
            ratio(setup.kernel_build_s * 1e3, prepared),
            "ms",
        ),
        m(
            "setup.verify_ms",
            ratio(setup.verify_s * 1e3, prepared),
            "ms",
        ),
        m(
            "setup.gpu_new_ms",
            ratio(setup.gpu_new_s * 1e3, prepared),
            "ms",
        ),
        m("harness.busy_frac", probe.busy_frac, "frac"),
        m("harness.imbalance", probe.imbalance, "frac"),
        m("cache.lookup_us", probe.lookup_us, "us"),
        m("codec.decode_us", probe.decode_us, "us"),
        m("spec.hash_us", probe.hash_us, "us"),
        m("cache.store_us", probe.store_us, "us"),
        m("codec.encode_us", probe.encode_us, "us"),
        m(
            "cache.hit_frac",
            ratio(serve.hits as f64, serve.lookups as f64),
            "frac",
        ),
        m(
            "serve.dedup_frac",
            ratio(serve.duplicates as f64, serve.submissions as f64),
            "frac",
        ),
        m("serve.retries", serve.retries as f64, "count"),
        m("serve.failed_jobs", serve.failed_jobs as f64, "count"),
        m("trace.overhead_frac", overhead, "frac"),
        m("ops_failed_frac", client.checker.failed_frac(), "frac"),
    ]
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}
