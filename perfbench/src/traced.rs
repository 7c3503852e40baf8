//! The traced driver: the serial cycle loop of `Gpu::run`, rebuilt from the
//! public `Sm`, `SmPort` and `MemorySystem` calls with a span around each
//! layer, plus pass-through decorators that time the scheduler and
//! prefetcher trait objects inside `Sm::tick`.

use crate::jobs::{self, Job, SetupTimes};
use apres_core::sim::DEFAULT_MAX_CYCLES;
use gpu_common::fault::{FaultCounters, FaultState};
use gpu_common::stats::{CacheStats, MemStats, PrefetchStats, SimStats};
use gpu_common::{Cycle, Pc, SimError, SimResult, SmId, WarpId};
use gpu_mem::memsys::MemorySystem;
use gpu_sm::traits::{
    DemandAccess, L1Event, PrefetchRequest, Prefetcher, ReadyWarp, SchedCtx, SchedFeedback,
    WarpScheduler,
};
use gpu_sm::{RunResult, Sm, SmPort, DEFAULT_WATCHDOG_WINDOW};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Host nanoseconds and calls collected by the decorators of one layer.
/// Each decorator sums locally and publishes once when its SM drops it,
/// so the hot path holds no atomics.
#[derive(Debug, Default)]
struct Sink {
    ns: AtomicU64,
    calls: AtomicU64,
}

#[derive(Debug)]
struct Span {
    ns: u64,
    calls: u64,
    sink: Arc<Sink>,
}

impl Span {
    fn new(sink: &Arc<Sink>) -> Span {
        Span {
            ns: 0,
            calls: 0,
            sink: sink.clone(),
        }
    }

    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // Totals only: nothing is published through these counters.
        self.sink.ns.fetch_add(self.ns, Ordering::Relaxed);
        self.sink.calls.fetch_add(self.calls, Ordering::Relaxed);
    }
}

/// Forwards every `WarpScheduler` method, timing each call.
struct TimedScheduler {
    inner: Box<dyn WarpScheduler>,
    span: Span,
}

impl WarpScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn pick(&mut self, ready: &[ReadyWarp], ctx: &SchedCtx) -> Option<WarpId> {
        let inner = &mut self.inner;
        self.span.time(|| inner.pick(ready, ctx))
    }
    fn on_issue(&mut self, warp: WarpId, now: Cycle) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_issue(warp, now))
    }
    fn on_load_issue(&mut self, warp: WarpId, pc: Pc, now: Cycle) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_load_issue(warp, pc, now))
    }
    fn on_l1_event(&mut self, ev: &L1Event) -> SchedFeedback {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_l1_event(ev))
    }
    fn on_prefetch_targets(&mut self, warps: &[WarpId]) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_prefetch_targets(warps))
    }
    fn on_warp_finished(&mut self, warp: WarpId) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_warp_finished(warp))
    }
    fn on_warp_launched(&mut self, warp: WarpId) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_warp_launched(warp))
    }
    fn table_accesses(&self) -> u64 {
        self.inner.table_accesses()
    }
}

/// Forwards every `Prefetcher` method, timing each call.
struct TimedPrefetcher {
    inner: Box<dyn Prefetcher>,
    span: Span,
}

impl Prefetcher for TimedPrefetcher {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_access(&mut self, acc: &DemandAccess) -> Vec<PrefetchRequest> {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_access(acc))
    }
    fn on_group_miss(&mut self, acc: &DemandAccess, group: &[WarpId]) -> Vec<PrefetchRequest> {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_group_miss(acc, group))
    }
    fn table_accesses(&self) -> u64 {
        self.inner.table_accesses()
    }
    fn set_fault_state(&mut self, fault: FaultState) {
        self.inner.set_fault_state(fault);
    }
    fn fault_counters(&self) -> FaultCounters {
        self.inner.fault_counters()
    }
}

/// Host time per layer and the work counted at the layer boundaries,
/// summed over traced simulations.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub cycles: u64,
    /// Whole cycle loop, from first to last step.
    pub step_ns: u64,
    /// All `Sm::tick` calls, decorator time included.
    pub sm_ns: u64,
    pub sched_ns: u64,
    pub sched_calls: u64,
    pub prefetch_ns: u64,
    pub prefetch_calls: u64,
    /// Outbox → `MemorySystem::submit`, latency flush, fills → `deliver`.
    pub port_ns: u64,
    pub port_msgs: u64,
    /// `MemorySystem::tick`.
    pub mem_ns: u64,
    /// Σ over cycles of requests in flight off-core.
    pub in_flight_sum: u64,
}

impl LayerTotals {
    pub fn add(&mut self, o: &LayerTotals) {
        self.cycles += o.cycles;
        self.step_ns += o.step_ns;
        self.sm_ns += o.sm_ns;
        self.sched_ns += o.sched_ns;
        self.sched_calls += o.sched_calls;
        self.prefetch_ns += o.prefetch_ns;
        self.prefetch_calls += o.prefetch_calls;
        self.port_ns += o.port_ns;
        self.port_msgs += o.port_msgs;
        self.mem_ns += o.mem_ns;
        self.in_flight_sum += o.in_flight_sum;
    }

    /// SM self time: `Sm::tick` minus the decorated policy calls inside it.
    pub fn sm_self_ns(&self) -> u64 {
        self.sm_ns.saturating_sub(self.sched_ns + self.prefetch_ns)
    }

    /// Run-loop self time: the step minus its children.
    pub fn loop_ns(&self) -> u64 {
        self.step_ns
            .saturating_sub(self.sm_ns + self.port_ns + self.mem_ns)
    }
}

/// The simulated statistics the traced run must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    pub cycles: Cycle,
    pub sim: SimStats,
    pub l1: CacheStats,
    pub prefetch: PrefetchStats,
    pub mem: MemStats,
    pub l2_accesses: u64,
    pub l2_hit_rate: f64,
    pub dram_accesses: u64,
}

impl Observed {
    /// Compares against an untraced result; `Err` names the first field
    /// that differs.
    pub fn matches(&self, r: &RunResult) -> Result<(), String> {
        let checks = [
            ("cycles", self.cycles == r.cycles),
            ("sim", self.sim == r.sim),
            ("l1", self.l1 == r.l1),
            ("prefetch", self.prefetch == r.prefetch),
            ("mem", self.mem == r.mem),
            ("l2_accesses", self.l2_accesses == r.energy.l2_accesses),
            (
                "dram_accesses",
                self.dram_accesses == r.energy.dram_accesses,
            ),
        ];
        match checks.iter().find(|(_, same)| !same) {
            None => Ok(()),
            Some((field, _)) => Err(format!(
                "traced driver diverged from untraced run in {field}"
            )),
        }
    }
}

/// The GPU assembled from its public parts.
pub struct TracedGpu {
    sms: Vec<Sm>,
    ports: Vec<SmPort>,
    mem: MemorySystem,
    sched: Arc<Sink>,
    prefetch: Arc<Sink>,
}

impl TracedGpu {
    /// The traced counterpart of [`jobs::prepare`]: same kernel, verify
    /// and construction steps, with decorated policies.
    pub fn prepare(job: &Job, times: &mut SetupTimes) -> SimResult<TracedGpu> {
        let kernel = Arc::new(jobs::build_kernel(job, times)?);
        let cfg = jobs::SCALE.config();
        let t = Instant::now();
        cfg.validate()?;
        let (sched, prefetch) = (Arc::new(Sink::default()), Arc::new(Sink::default()));
        let sms = (0..cfg.core.num_sms)
            .map(|i| {
                let s = TimedScheduler {
                    inner: jobs::make_scheduler(job.combo.sched, &cfg),
                    span: Span::new(&sched),
                };
                let p = TimedPrefetcher {
                    inner: jobs::make_prefetcher(job.combo.pf, &cfg),
                    span: Span::new(&prefetch),
                };
                Sm::new(
                    SmId(i as u32),
                    &cfg,
                    kernel.clone(),
                    Box::new(s),
                    Box::new(p),
                )
            })
            .collect();
        let gpu = TracedGpu {
            sms,
            ports: (0..cfg.core.num_sms).map(|_| SmPort::new()).collect(),
            mem: MemorySystem::new(&cfg)?,
            sched,
            prefetch,
        };
        times.gpu_new_s += t.elapsed().as_secs_f64();
        Ok(gpu)
    }

    fn is_finished(&self) -> bool {
        self.sms.iter().all(Sm::is_finished)
            && self.ports.iter().all(SmPort::is_idle)
            && self.mem.is_idle()
    }

    /// Runs to drain with the facade's cycle budget and watchdog.
    /// `skip_sm_tick_at` drops the SM ticks of one cycle; tests use it to
    /// desynchronise the driver on purpose.
    pub fn run(mut self, skip_sm_tick_at: Option<Cycle>) -> SimResult<(Observed, LayerTotals)> {
        let mut t = LayerTotals::default();
        let (mut wd_count, mut wd_cycle) = (0u64, 0);
        let mut now: Cycle = 0;
        let start = Instant::now();
        while now < DEFAULT_MAX_CYCLES && !self.is_finished() {
            let a = Instant::now();
            if skip_sm_tick_at != Some(now) {
                for (sm, port) in self.sms.iter_mut().zip(&mut self.ports) {
                    sm.tick(now, port);
                }
            }
            let b = Instant::now();
            for (i, port) in self.ports.iter_mut().enumerate() {
                for (at, req) in port.take_outbox() {
                    self.mem.submit(i, req, at);
                    t.port_msgs += 1;
                }
                let (total, count) = port.take_latencies();
                self.mem.add_load_latencies(total, count);
            }
            let c = Instant::now();
            self.mem.tick(now);
            let d = Instant::now();
            for (i, port) in self.ports.iter_mut().enumerate() {
                for (ready, req) in self.mem.take_fills(i) {
                    port.deliver(ready, req);
                    t.port_msgs += 1;
                }
            }
            let e = Instant::now();
            t.sm_ns += (b - a).as_nanos() as u64;
            t.port_ns += ((c - b) + (e - d)).as_nanos() as u64;
            t.mem_ns += (d - c).as_nanos() as u64;
            t.in_flight_sum += self.mem.in_flight();
            now += 1;
            // The watchdog of `Gpu::run`: progress sampled every 256 cycles.
            if now & 0xFF == 0 {
                let progress = self.sms.iter().map(|s| s.stats().instructions).sum::<u64>()
                    + self.mem.delivered();
                if progress != wd_count {
                    (wd_count, wd_cycle) = (progress, now);
                } else if now - wd_cycle >= DEFAULT_WATCHDOG_WINDOW {
                    return Err(SimError::invariant(
                        "traced-watchdog",
                        format!("no progress for {} cycles", now - wd_cycle),
                        now,
                    ));
                }
            }
        }
        t.step_ns = start.elapsed().as_nanos() as u64;
        t.cycles = now;
        if !self.is_finished() {
            return Err(SimError::invariant(
                "traced-budget",
                "cycle budget exhausted".to_owned(),
                now,
            ));
        }
        self.mem.audit(now)?;
        let observed = self.observe(now);
        let (sched, prefetch) = (self.sched.clone(), self.prefetch.clone());
        drop(self);
        t.sched_ns = sched.ns.load(Ordering::Relaxed);
        t.sched_calls = sched.calls.load(Ordering::Relaxed);
        t.prefetch_ns = prefetch.ns.load(Ordering::Relaxed);
        t.prefetch_calls = prefetch.calls.load(Ordering::Relaxed);
        Ok((observed, t))
    }

    fn observe(&mut self, cycles: Cycle) -> Observed {
        let mut sim = SimStats::default();
        let mut l1 = CacheStats::default();
        let mut prefetch = PrefetchStats::default();
        for sm in &mut self.sms {
            add_sim(&mut sim, sm.stats());
            add_cache(&mut l1, sm.cache_stats());
            add_prefetch(&mut prefetch, &sm.finalize_prefetch_stats());
        }
        sim.cycles = cycles;
        Observed {
            cycles,
            sim,
            l1,
            prefetch,
            mem: self.mem.stats().clone(),
            l2_accesses: self.mem.l2_accesses(),
            l2_hit_rate: self.mem.l2_hit_rate(),
            dram_accesses: self.mem.dram_accesses(),
        }
    }
}

// Exhaustive destructuring: a counter added upstream fails to compile here
// instead of silently escaping the equivalence check.
fn add_sim(dst: &mut SimStats, src: &SimStats) {
    let SimStats {
        cycles: _,
        instructions,
        loads,
        stores,
        stall_cycles,
        stall_lsu_full,
        stall_dependency,
        active_lane_sum,
    } = src;
    dst.instructions += instructions;
    dst.loads += loads;
    dst.stores += stores;
    dst.stall_cycles += stall_cycles;
    dst.stall_lsu_full += stall_lsu_full;
    dst.stall_dependency += stall_dependency;
    dst.active_lane_sum += active_lane_sum;
}

fn add_cache(dst: &mut CacheStats, src: &CacheStats) {
    let CacheStats {
        accesses,
        hits,
        hit_after_hit,
        hit_after_miss,
        cold_misses,
        capacity_conflict_misses,
        mshr_merges,
        merges_into_prefetch,
        reservation_fails,
        evictions,
    } = src;
    dst.accesses += accesses;
    dst.hits += hits;
    dst.hit_after_hit += hit_after_hit;
    dst.hit_after_miss += hit_after_miss;
    dst.cold_misses += cold_misses;
    dst.capacity_conflict_misses += capacity_conflict_misses;
    dst.mshr_merges += mshr_merges;
    dst.merges_into_prefetch += merges_into_prefetch;
    dst.reservation_fails += reservation_fails;
    dst.evictions += evictions;
}

fn add_prefetch(dst: &mut PrefetchStats, src: &PrefetchStats) {
    let PrefetchStats {
        issued,
        dropped_duplicate,
        dropped_no_resource,
        useful,
        late_merged,
        early_evictions,
        useless_evictions,
    } = src;
    dst.issued += issued;
    dst.dropped_duplicate += dropped_duplicate;
    dst.dropped_no_resource += dropped_no_resource;
    dst.useful += useful;
    dst.late_merged += late_merged;
    dst.early_evictions += early_evictions;
    dst.useless_evictions += useless_evictions;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{Workload, DEFAULT_SEED};

    fn reference(job: &Job) -> RunResult {
        let mut times = SetupTimes::default();
        jobs::prepare(job, &mut times).and_then(jobs::run).unwrap()
    }

    fn traced(job: &Job) -> (Observed, LayerTotals) {
        let mut times = SetupTimes::default();
        TracedGpu::prepare(job, &mut times)
            .unwrap()
            .run(None)
            .unwrap()
    }

    #[test]
    fn traced_driver_reproduces_untraced_statistics() {
        for w in [Workload::RetryStorm, Workload::ApresMix] {
            let job = crate::jobs::jobs(w, DEFAULT_SEED)[3];
            let (obs, t) = traced(&job);
            assert_eq!(obs.matches(&reference(&job)), Ok(()), "{}", job.label());
            assert_eq!(t.cycles, obs.cycles);
            assert!(t.sched_calls > 0 && t.prefetch_calls > 0);
            assert!(t.sm_ns >= t.sched_ns + t.prefetch_ns);
        }
    }
}
