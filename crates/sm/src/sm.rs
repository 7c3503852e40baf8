//! One streaming multiprocessor.
//!
//! Per cycle (driven by [`crate::gpu::Gpu`]):
//!
//! 1. **Fill** — line fills arriving from the memory system install into the
//!    L1 and wake waiting loads;
//! 2. **LSU** — one coalesced line request accesses the L1; a load's
//!    head-line outcome is reported to the scheduler (which may trigger the
//!    prefetcher) and to the prefetcher's training interface;
//! 3. **Issue** — the scheduler picks one ready warp; its next instruction
//!    issues (ALU results mature after their latency; memory instructions
//!    enter the LSU);
//! 4. **Drain** — L1 misses/stores/prefetches stream to the interconnect.
//!
//! A tick that issues nothing and leaves only a retry refused by a full
//! MSHR file (or no LSU work at all) **parks** the SM: until a fill is due
//! or a warp's scoreboard or launch boundary passes, each cycle credits
//! what a full tick would change in O(1) (`DESIGN.md`, "Parked SMs").

use crate::lsu::{Lsu, MemOp};
use crate::port::SmPort;
use crate::trace::{IssueKind, TraceBuffer, TraceEvent};
use crate::traits::{
    DemandAccess, PrefetchRequest, Prefetcher, ReadyWarp, SchedCtx, WarpScheduler,
};
use gpu_common::config::GpuConfig;
use gpu_common::fault::{FaultCounters, FaultPlan};
use gpu_common::stats::{CacheStats, EnergyEvents, PrefetchStats, SimStats};
use gpu_common::{Cycle, LineAddr, Pc, SmId, StallReason, StalledWarp, WarpId};
use gpu_kernel::{IssueState, Kernel, Op, PatternSampler, WarpProgram, WarpProgress};
use gpu_mem::coalesce::coalesce;
use gpu_mem::l1::L1Cache;
use gpu_mem::request::MemRequest;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Depth of the LSU instruction queue (structural hazard threshold).
const LSU_QUEUE_DEPTH: usize = 16;

/// What a parked SM repeats every cycle until its next full tick.
#[derive(Debug, Clone, Copy)]
struct Park {
    /// First cycle a warp-local wake rail (scoreboard release, launch
    /// boundary) needs a full tick; `Cycle::MAX` when only a fill can.
    until: Cycle,
    /// Stall class decided on the parking tick: LSU-full vs dependency.
    lsu_full: bool,
    /// PC of the head load the MSHR file refuses; its probe is repeated.
    retry: Option<Pc>,
}

/// What one warp scan learns besides the ready set.
#[derive(Debug, Clone, Copy)]
struct WarpScan {
    /// An issuable warp — launched or not — waits only on a full LSU queue.
    lsu_full: bool,
    /// Earliest warp-local wake rail after `now` ([`wake_after`]).
    wake: Option<Cycle>,
}

/// Earliest cycle after `now` at which a warp can change the ready set
/// or the stall class on its own: its scoreboard release `next` (the
/// cached [`IssueState::at`]) while that lies ahead, else its block-launch
/// boundary `launch` while it is issuable but not launched. `None` when
/// only an external event can change it (`next` is `Cycle::MAX`): a fill,
/// a barrier release or an LSU pop.
fn wake_after(next: Cycle, launch: Cycle, now: Cycle) -> Option<Cycle> {
    match next {
        Cycle::MAX => None,
        at if at > now => Some(at),
        _ if launch > now => Some(launch),
        _ => None,
    }
}

/// One streaming multiprocessor executing `warps_per_sm` warps of a kernel.
pub struct Sm {
    id: SmId,
    cfg: GpuConfig,
    kernel: Arc<Kernel>,
    sampler: PatternSampler,
    warps: Vec<WarpProgress>,
    /// Block wave currently occupying each warp slot (0-based).
    wave: Vec<u32>,
    finished_reported: Vec<bool>,
    scheduler: Box<dyn WarpScheduler>,
    prefetcher: Box<dyn Prefetcher>,
    l1: L1Cache,
    lsu: Lsu,
    stats: SimStats,
    energy: EnergyEvents,
    ready_buf: Vec<ReadyWarp>,
    /// Barrier rendezvous: (wave, iteration, body index) → warps arrived.
    barriers: BTreeMap<(u32, u64, usize), Vec<WarpId>>,
    trace: Option<TraceBuffer>,
    park: Option<Park>,
}

impl Sm {
    /// Builds an SM running `kernel` under the given policies.
    pub fn new(
        id: SmId,
        cfg: &GpuConfig,
        kernel: Arc<Kernel>,
        scheduler: Box<dyn WarpScheduler>,
        prefetcher: Box<dyn Prefetcher>,
    ) -> Self {
        // Every warp starts in the same state: compute it once and copy it.
        let warps = vec![WarpProgram::new(kernel.clone()).start(); cfg.core.warps_per_sm];
        Sm {
            id,
            sampler: PatternSampler::new(kernel.seed(), cfg.core.warp_size as u32),
            kernel,
            wave: vec![0; warps.len()],
            finished_reported: vec![false; warps.len()],
            warps,
            scheduler,
            prefetcher,
            l1: L1Cache::new(&cfg.l1),
            lsu: Lsu::new(id, LSU_QUEUE_DEPTH),
            stats: SimStats::default(),
            energy: EnergyEvents::default(),
            ready_buf: Vec::new(),
            barriers: BTreeMap::new(),
            trace: None,
            park: None,
            cfg: cfg.clone(),
        }
    }

    /// Enables event tracing on this SM with a bounded buffer.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// Takes the trace buffer (if tracing was enabled), disabling tracing.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take()
    }

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(ev);
        }
    }

    /// `true` when every warp has retired and no memory op is in flight
    /// locally.
    pub fn is_finished(&self) -> bool {
        self.warps.iter().all(WarpProgress::is_finished)
            && self.lsu.is_drained()
            && self.l1.outgoing_len() == 0
    }

    /// Executes one cycle. `port` is this SM's boundary to the shared
    /// memory system: fills are popped from its inbox, outgoing requests
    /// are queued into its outbox (the cycle engine routes both). A parked
    /// SM (module docs) makes the same changes in O(1).
    pub fn tick(&mut self, now: Cycle, port: &mut SmPort) {
        if let Some(park) = self.park {
            if now < park.until && port.next_fill_ready().is_none_or(|r| r > now) {
                self.parked_cycle(park, now);
                return;
            }
            self.park = None;
        }
        self.apply_fills(now, port);
        self.lsu_stage(now, port);
        let idle = self.issue_stage(now);
        self.drain_stage(now, port);
        if let Some(scan) = idle {
            self.park = self.park_after(scan);
        }
    }

    /// Decides, at the end of a tick that issued nothing from an empty
    /// ready set, whether the next cycles repeat it exactly. They do when
    /// no store drains, nothing waits to go downstream, and the LSU either
    /// holds no load or its head probe is refused until a fill arrives.
    fn park_after(&self, scan: WarpScan) -> Option<Park> {
        if !self.lsu.stores_drained() || self.l1.outgoing_len() != 0 {
            return None;
        }
        let retry = match self.lsu.head_probe() {
            None => None,
            Some((pc, line)) if self.l1.refuses_load(line) => Some(pc),
            Some(_) => return None,
        };
        Some(Park {
            until: scan.wake.unwrap_or(Cycle::MAX),
            lsu_full: scan.lsu_full,
            retry,
        })
    }

    /// One parked cycle: the refused probe's side effects and the stall
    /// accounting of every issue slot, exactly as a full tick makes them.
    fn parked_cycle(&mut self, park: Park, now: Cycle) {
        if let Some(pc) = park.retry {
            self.l1.repeat_refused_load(pc, now);
        }
        self.note_stall(park.lsu_full, self.cfg.core.issue_width.max(1) as u64);
    }

    /// Credits `slots` issue slots that stalled on an empty ready set.
    fn note_stall(&mut self, lsu_full: bool, slots: u64) {
        self.stats.stall_cycles += slots;
        if lsu_full {
            self.stats.stall_lsu_full += slots;
        } else {
            self.stats.stall_dependency += slots;
        }
    }

    fn apply_fills(&mut self, now: Cycle, port: &mut SmPort) {
        for req in port.drain_fills(now) {
            self.energy.l1_accesses += 1;
            let fill = self.l1.fill(req.line, now);
            self.record(TraceEvent::Fill {
                cycle: now,
                line: req.line,
                woken: fill.waiting_loads.len() as u32,
            });
            for done in self.lsu.on_fill(&fill, now) {
                self.complete_load(done.warp, done.body_idx, done.iter, done.ready_at);
                port.note_load_latency(done.ready_at.saturating_sub(done.issue_cycle));
            }
        }
    }

    fn lsu_stage(&mut self, now: Cycle, port: &mut SmPort) {
        let before = self.l1.stats().accesses;
        let activity = self.lsu.process_one(&mut self.l1, now);
        if self.l1.stats().accesses != before {
            self.energy.l1_accesses += 1;
        }
        for done in &activity.completions {
            self.complete_load(done.warp, done.body_idx, done.iter, done.ready_at);
            // Pure-hit loads also contribute to Fig. 13's average latency.
            port.note_load_latency(done.ready_at.saturating_sub(done.issue_cycle));
        }
        let Some(ev) = activity.head_event else {
            return;
        };
        self.record(TraceEvent::L1Access {
            cycle: now,
            warp: ev.warp,
            pc: ev.pc,
            line: ev.line,
            hit: ev.outcome.counts_as_hit(),
        });
        // Figure 5 wiring: LSU → scheduler (hit status), scheduler →
        // prefetcher (warp group on miss), prefetcher → scheduler (targets).
        let feedback = self.scheduler.on_l1_event(&ev);
        let acc = DemandAccess {
            sm: self.id,
            warp: ev.warp,
            pc: ev.pc,
            addr: ev.addr,
            line: ev.line,
            hit: ev.outcome.counts_as_hit(),
            now,
        };
        let mut prefetches = self.prefetcher.on_access(&acc);
        if !feedback.prefetch_group.is_empty() {
            prefetches.extend(
                self.prefetcher
                    .on_group_miss(&acc, &feedback.prefetch_group),
            );
        }
        self.issue_prefetches(&prefetches, now);
    }

    fn issue_prefetches(&mut self, prefetches: &[PrefetchRequest], now: Cycle) {
        if prefetches.is_empty() {
            return;
        }
        let mut targets = Vec::with_capacity(prefetches.len());
        for pf in prefetches {
            let line = pf.addr.line(self.cfg.l1.line_bytes);
            let req = MemRequest::prefetch(line, pf.source, self.id, pf.target_warp, gpu_common::Pc(0), now);
            self.energy.l1_accesses += 1;
            // Only *generated* prefetches promote their target warp ("after
            // SAP generates a prefetch request, it sends the prefetched warp
            // ID back to LAWS", Section IV-B); duplicates that were dropped
            // because the line is already resident or inbound leave the
            // schedule untouched.
            if matches!(
                self.l1.access(req, now),
                gpu_mem::l1::L1AccessOutcome::PrefetchIssued
            ) {
                self.record(TraceEvent::Prefetch {
                    cycle: now,
                    target: pf.target_warp,
                    line,
                });
                targets.push(pf.target_warp);
            }
        }
        if !targets.is_empty() {
            self.scheduler.on_prefetch_targets(&targets);
        }
    }

    /// Runs every issue slot (dual-issue SMs, Fermi+, run one scheduler
    /// pass per slot). Returns the warp scan when the ready set was empty
    /// from the first slot on, i.e. nothing issued this cycle.
    fn issue_stage(&mut self, now: Cycle) -> Option<WarpScan> {
        let width = self.cfg.core.issue_width.max(1);
        for slot in 0..width {
            let scan = self.scan_warps(now);
            if self.ready_buf.is_empty() {
                // Nothing changes until the next issue, so every remaining
                // slot sees the same empty ready set.
                self.note_stall(scan.lsu_full, (width - slot) as u64);
                return (slot == 0).then_some(scan);
            }
            self.issue_one(now);
        }
        None
    }

    /// One scheduler pass over the non-empty ready set.
    fn issue_one(&mut self, now: Cycle) {
        let ctx = SchedCtx {
            now,
            mshr_occupancy: self.l1.mshr_occupancy(),
            warps_per_sm: self.cfg.core.warps_per_sm,
        };
        let ready = std::mem::take(&mut self.ready_buf);
        let picked = self.scheduler.pick(&ready, &ctx);
        self.ready_buf = ready;
        let Some(wid) = picked else {
            self.stats.stall_cycles += 1;
            return;
        };
        debug_assert!(
            self.ready_buf.iter().any(|r| r.id == wid),
            "scheduler picked a non-ready warp {wid}"
        );
        // Deterministic ±2-cycle producer jitter (operand-collector/RF-bank
        // arbitration) keeps homogeneous warps from phase-locking into
        // convoys.
        let jitter = {
            let mut h = wid.0 as u64 ^ (self.id.0 as u64) << 32;
            h = h
                .wrapping_add(self.warps[wid.index()].iter())
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> 61) % 3
        };
        let issued = self.warps[wid.index()].issue_with_jitter(&self.kernel, now, jitter);
        if self.trace.is_some() {
            let kind = match issued.instr.op {
                Op::Alu { .. } => IssueKind::Alu,
                Op::LoadGlobal { .. } => IssueKind::Load,
                Op::StoreGlobal { .. } => IssueKind::Store,
                Op::Barrier => IssueKind::Barrier,
            };
            self.record(TraceEvent::Issue {
                cycle: now,
                warp: wid,
                pc: issued.instr.pc,
                kind,
            });
        }
        self.stats.instructions += 1;
        self.stats.active_lane_sum += u64::from(
            issued
                .instr
                .active_lanes
                .unwrap_or(self.cfg.core.warp_size as u32),
        );
        self.energy.regfile_accesses += 3; // two reads + one write, warp-wide
        self.scheduler.on_issue(wid, now);
        match issued.instr.op {
            Op::Alu { .. } => {
                self.energy.alu_ops += 1;
            }
            Op::Barrier => {
                self.arrive_at_barrier(wid, issued.iter, issued.body_idx, now);
            }
            Op::LoadGlobal { slot } | Op::StoreGlobal { slot } => {
                let is_load = issued.instr.op.is_load();
                if is_load {
                    self.stats.loads += 1;
                    self.scheduler.on_load_issue(wid, issued.instr.pc, now);
                } else {
                    self.stats.stores += 1;
                }
                let lanes = issued
                    .instr
                    .active_lanes
                    .unwrap_or(self.cfg.core.warp_size as u32);
                let virtual_warp =
                    wid.0 + self.wave[wid.index()] * self.cfg.core.warps_per_sm as u32;
                let addrs = self.sampler.addresses(
                    self.kernel.pattern(slot),
                    self.id.0,
                    virtual_warp,
                    issued.iter,
                    lanes,
                );
                let lines = coalesce(&addrs, self.cfg.l1.line_bytes);
                self.lsu.push(MemOp {
                    warp: wid,
                    pc: issued.instr.pc,
                    body_idx: issued.body_idx,
                    iter: issued.iter,
                    is_load,
                    addr0: addrs[0],
                    lines: lines.into_iter().collect(),
                    issue_cycle: now,
                    head_sent: false,
                });
            }
        }
        if self.warps[wid.index()].is_finished() {
            if self.wave[wid.index()] + 1 < self.cfg.core.waves_per_slot {
                // Block-wave replacement: the slot receives a fresh block.
                self.wave[wid.index()] += 1;
                self.warps[wid.index()] = WarpProgram::new(self.kernel.clone()).start();
                self.scheduler.on_warp_launched(wid);
            } else if !self.finished_reported[wid.index()] {
                self.finished_reported[wid.index()] = true;
                self.scheduler.on_warp_finished(wid);
            }
        }
    }

    /// Records `wid`'s arrival at a barrier; releases the whole wave when
    /// every participating warp has arrived.
    fn arrive_at_barrier(&mut self, wid: WarpId, iter: u64, body_idx: usize, now: Cycle) {
        let wave = self.wave[wid.index()];
        let key = (wave, iter, body_idx);
        let arrived = self.barriers.entry(key).or_default();
        arrived.push(wid);
        // Participants: resident warps of the same wave that have not
        // retired (a retired warp has already passed every barrier).
        let participants = self
            .warps
            .iter()
            .enumerate()
            .filter(|(i, w)| self.wave[*i] == wave && !w.is_finished())
            .count();
        if arrived.len() >= participants {
            let arrived = self.barriers.remove(&key).unwrap_or_default();
            let released = arrived.len() as u32;
            for w in arrived {
                self.warps[w.index()].release_barrier(&self.kernel);
            }
            self.record(TraceEvent::BarrierRelease {
                cycle: now,
                body_idx,
                released,
            });
        } else {
            self.warps[wid.index()].block_at_barrier();
        }
    }

    /// The one warp pass of an issue slot: fills the ready set and, in the
    /// same walk, attributes a stall (LSU-full when an issuable warp, even
    /// one before its launch boundary, waits only on a full LSU queue) and
    /// finds the earliest warp-local wake rail. It reads only each warp's
    /// cached [`IssueState`], never the kernel body.
    fn scan_warps(&mut self, now: Cycle) -> WarpScan {
        self.ready_buf.clear();
        let lsu_room = self.lsu.has_room();
        let store_room = self.lsu.has_store_room();
        let skew = self.cfg.core.launch_skew;
        let mut scan = WarpScan {
            lsu_full: false,
            wake: None,
        };
        for (i, w) in self.warps.iter().enumerate() {
            let IssueState {
                at,
                pc,
                is_mem,
                is_load,
            } = w.issue_state(&self.kernel);
            // Warp i's thread block is handed to the SM at i × skew.
            let launch = i as Cycle * skew;
            if let Some(wake) = wake_after(at, launch, now) {
                scan.wake = Some(scan.wake.map_or(wake, |c| c.min(wake)));
            }
            if at > now {
                continue; // cannot issue yet (`Cycle::MAX`: not knowable)
            }
            if is_mem && ((is_load && !lsu_room) || (!is_load && !store_room)) {
                scan.lsu_full = true;
                continue; // structural hazard
            }
            if now < launch {
                continue;
            }
            self.ready_buf.push(ReadyWarp {
                id: WarpId(i as u32),
                next_is_mem: is_mem,
                next_is_load: is_load,
                next_pc: pc,
            });
        }
        scan
    }

    fn drain_stage(&mut self, now: Cycle, port: &mut SmPort) {
        for req in self.l1.drain_outgoing(self.cfg.noc.requests_per_cycle) {
            port.submit(req, now);
        }
    }

    fn complete_load(&mut self, warp: WarpId, body_idx: usize, iter: u64, ready: Cycle) {
        self.warps[warp.index()].complete_load(&self.kernel, body_idx, iter, ready);
        self.energy.regfile_accesses += 1; // writeback
    }

    /// Issue/stall statistics of this SM.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// L1 demand statistics.
    pub fn cache_stats(&self) -> &CacheStats {
        self.l1.stats()
    }

    /// Per-static-load L1 statistics, PC-sorted.
    pub fn per_pc_stats(&self) -> &[(gpu_common::Pc, gpu_mem::l1::PcStats)] {
        self.l1.per_pc_stats()
    }

    /// Prefetch statistics (early-eviction verdicts as of now).
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.l1.prefetch_stats()
    }

    /// Finalizes early-eviction verdicts (simulation end).
    pub fn finalize_prefetch_stats(&mut self) -> PrefetchStats {
        self.l1.finalize()
    }

    /// Energy event counts, including policy table accesses.
    pub fn energy_events(&self) -> EnergyEvents {
        let mut e = self.energy.clone();
        e.apres_table_accesses =
            self.scheduler.table_accesses() + self.prefetcher.table_accesses();
        e
    }

    /// The active scheduler's name.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// The active prefetcher's name.
    pub fn prefetcher_name(&self) -> &'static str {
        self.prefetcher.name()
    }

    /// Number of warps that have fully retired.
    pub fn finished_warps(&self) -> usize {
        self.warps.iter().filter(|w| w.is_finished()).count()
    }

    /// Arms deterministic fault injection on this SM's L1 (MSHR-exhaustion
    /// bursts) and prefetcher (prediction corruption). Each structure gets
    /// its own stream so outcomes are independent of SM count elsewhere.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        self.l1.set_fault_state(plan.state(1 + u64::from(self.id.0)));
        self.prefetcher
            .set_fault_state(plan.state(0x5A0 + u64::from(self.id.0)));
    }

    /// Injected-fault counters accumulated by this SM (L1 + prefetcher).
    pub fn fault_counters(&self) -> FaultCounters {
        let mut c = self.l1.fault_counters();
        c.add(&self.prefetcher.fault_counters());
        c
    }

    /// Names every unretired warp and what it is waiting on. Feeds the
    /// watchdog's [`gpu_common::DeadlockDiagnosis`].
    pub fn stall_report(&self, now: Cycle) -> Vec<StalledWarp> {
        let mut out = Vec::new();
        for (i, w) in self.warps.iter().enumerate() {
            if w.is_finished() {
                continue;
            }
            let waiting_on = if w.at_barrier() {
                StallReason::Barrier
            } else if w.blocked_on_load(&self.kernel) {
                StallReason::PendingLoad
            } else if w.can_issue(&self.kernel, now) {
                StallReason::NeverScheduled
            } else {
                StallReason::Dependency
            };
            out.push(StalledWarp {
                sm: self.id,
                warp: WarpId(i as u32),
                iter: w.iter(),
                body_idx: w.body_idx(),
                waiting_on,
            });
        }
        out
    }

    /// In-flight L1 MSHR entries as `(sm, line, waiting requests)` triples.
    pub fn inflight_mshr_lines(&self) -> Vec<(SmId, LineAddr, usize)> {
        self.l1
            .inflight_mshrs()
            .map(|e| (self.id, e.line, 1 + e.merged.len()))
            .collect()
    }
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("kernel", &self.kernel.name())
            .field("scheduler", &self.scheduler.name())
            .field("prefetcher", &self.prefetcher.name())
            .field("finished_warps", &self.finished_warps())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::SimpleRoundRobin;
    use crate::traits::NullPrefetcher;
    use gpu_kernel::AddressPattern;
    use gpu_mem::request::AccessKind;

    /// Round trip of the loopback memory in [`respond`].
    const MEM_LATENCY: Cycle = 40;

    fn sm_with(cfg: &GpuConfig, kernel: &Kernel) -> Sm {
        Sm::new(
            SmId(0),
            cfg,
            Arc::new(kernel.clone()),
            Box::new(SimpleRoundRobin::default()),
            Box::new(NullPrefetcher),
        )
    }

    fn cfg(warps: usize, mshrs: usize) -> GpuConfig {
        let mut c = GpuConfig::small_test();
        c.core.warps_per_sm = warps;
        c.l1.mshrs = mshrs;
        c
    }

    /// Every warp loads its own line, then consumes it.
    fn load_use() -> Kernel {
        Kernel::builder("load-use")
            .load(AddressPattern::warp_strided(0, 128, 128 * 64, 4), &[])
            .alu(4, &[0])
            .iterations(1)
            .build()
    }

    /// Loopback memory: answers every load or prefetch `MEM_LATENCY`
    /// cycles after its submission (stores get no response).
    fn respond(port: &mut SmPort) {
        for (at, req) in port.take_outbox() {
            if req.kind != AccessKind::Store {
                port.deliver(at + MEM_LATENCY, req);
            }
        }
    }

    /// Ticks `now` and drops whatever the SM sent downstream.
    fn tick_unanswered(sm: &mut Sm, port: &mut SmPort, now: Cycle) {
        sm.tick(now, port);
        port.take_outbox();
    }

    fn counters(sm: &Sm) -> [u64; 4] {
        let s = sm.stats();
        [
            sm.cache_stats().reservation_fails,
            s.stall_cycles,
            s.stall_lsu_full,
            s.stall_dependency,
        ]
    }

    /// 20 warps against a 2-MSHR L1 and no responses: warps 0 and 1 miss,
    /// warp 2's load is refused at the LSU head, and loads of warps 3..=17
    /// fill the 16-deep LSU queue behind it by cycle 17. From cycle 18 on,
    /// warps 18 and 19 wait only on the full queue.
    fn retry_bound() -> (Sm, SmPort) {
        let mut sm = sm_with(&cfg(20, 2), &load_use());
        let mut port = SmPort::new();
        for now in 0..=18 {
            tick_unanswered(&mut sm, &mut port, now);
        }
        assert_eq!(sm.stats().instructions, 18);
        assert!(!sm.lsu.has_room());
        let park = sm.park.expect("parked on cycle 18");
        assert!(park.lsu_full && park.retry.is_some() && park.until == Cycle::MAX);
        (sm, port)
    }

    #[test]
    fn parked_retry_credits_one_of_each_per_cycle() {
        let (mut sm, mut port) = retry_bound();
        let [fails, stalls, lsu_full, dep] = counters(&sm);
        const N: u64 = 500;
        for now in 19..19 + N {
            tick_unanswered(&mut sm, &mut port, now);
            assert!(sm.park.is_some(), "cycle {now}");
        }
        assert_eq!(
            counters(&sm),
            [fails + N, stalls + N, lsu_full + N, dep],
            "reservation_fails, stall_cycles and stall_lsu_full each advance by N"
        );
    }

    #[test]
    fn fill_wakes_a_parked_sm_on_its_ready_cycle() {
        let (mut sm, mut port) = retry_bound();
        let fails = sm.cache_stats().reservation_fails;
        // Warp 0's line returns at cycle 30: its MSHR frees, so the
        // refused head (warp 2) misses on that very cycle instead.
        let line0 = sm.l1.inflight_mshrs().next().map(|e| e.primary.clone());
        port.deliver(30, line0.expect("warp 0's miss is in flight"));
        for now in 19..30 {
            tick_unanswered(&mut sm, &mut port, now);
            assert!(
                port.next_fill_ready().is_some(),
                "fill consumed early, cycle {now}"
            );
        }
        assert_eq!(sm.cache_stats().reservation_fails, fails + 11);
        tick_unanswered(&mut sm, &mut port, 30);
        assert!(
            port.next_fill_ready().is_none(),
            "fill not consumed on its ready cycle"
        );
        assert_eq!(sm.cache_stats().reservation_fails, fails + 11);
        assert_eq!(sm.cache_stats().cold_misses, 3);
    }

    #[test]
    fn scoreboard_release_wakes_a_parked_sm_on_its_cycle() {
        // One warp: a 30-cycle ALU producer (warp 0's jitter is 0) and its
        // consumer. Issue at 0; cycles 1..=29 stall on the dependency.
        let k = Kernel::builder("alu")
            .alu(30, &[])
            .alu(4, &[0])
            .iterations(1)
            .build();
        let mut sm = sm_with(&cfg(1, 16), &k);
        let mut port = SmPort::new();
        for now in 0..30 {
            tick_unanswered(&mut sm, &mut port, now);
            if now > 0 {
                assert_eq!(sm.park.map(|p| p.until), Some(30), "cycle {now}");
            }
        }
        assert_eq!(sm.stats().instructions, 1);
        assert_eq!(counters(&sm), [0, 29, 0, 29]);
        tick_unanswered(&mut sm, &mut port, 30);
        assert_eq!(sm.stats().instructions, 2, "consumer issues at 30");
        assert_eq!(counters(&sm), [0, 29, 0, 29]);
    }

    #[test]
    fn launch_boundary_wakes_a_parked_sm_on_its_cycle() {
        // Warp 1's block arrives at 1 × 50: cycles 1..=49 stall.
        let mut c = cfg(2, 16);
        c.core.launch_skew = 50;
        let k = Kernel::builder("one").alu(4, &[]).iterations(1).build();
        let mut sm = sm_with(&c, &k);
        let mut port = SmPort::new();
        for now in 0..50 {
            tick_unanswered(&mut sm, &mut port, now);
        }
        assert_eq!(sm.park.map(|p| p.until), Some(50));
        assert_eq!(sm.stats().instructions, 1);
        assert_eq!(counters(&sm), [0, 49, 0, 49]);
        tick_unanswered(&mut sm, &mut port, 50);
        assert_eq!(sm.stats().instructions, 2, "warp 1 issues at its launch");
    }

    #[test]
    fn fault_burst_refusal_does_not_park() {
        // MSHRs are free, but a burst refuses every allocation in 0..100.
        let mut sm = sm_with(&cfg(1, 16), &load_use());
        sm.arm_faults(&FaultPlan::seeded(1).exhausting_mshrs(1000, 100));
        let mut port = SmPort::new();
        for now in 0..100 {
            tick_unanswered(&mut sm, &mut port, now);
            assert!(sm.park.is_none(), "parked on a fault refusal at {now}");
        }
        // Load issued at 0, refused at its LSU head on cycles 1..=99.
        assert_eq!(sm.cache_stats().reservation_fails, 99);
        assert_eq!(sm.fault_counters().mshr_refusals, 99);
        tick_unanswered(&mut sm, &mut port, 100);
        assert_eq!(
            sm.cache_stats().cold_misses,
            1,
            "burst over: the load misses"
        );
        assert_eq!(sm.cache_stats().reservation_fails, 99);
    }

    #[test]
    fn pre_launch_warps_count_in_the_lsu_full_test() {
        // Warp 0 loads at 0 and misses at 1, taking the only MSHR; warp 1
        // has a load ready but its block arrives only at 100.
        let mut c = cfg(2, 1);
        c.core.launch_skew = 100;
        let mut sm = sm_with(&c, &load_use());
        let mut port = SmPort::new();
        tick_unanswered(&mut sm, &mut port, 0);
        tick_unanswered(&mut sm, &mut port, 1);
        assert_eq!(counters(&sm), [0, 1, 0, 1], "LSU has room: dependency");
        // Fill the LSU queue behind the MSHR-bound head by hand.
        for iter in 0..LSU_QUEUE_DEPTH as u64 {
            sm.lsu.push(MemOp {
                warp: WarpId(0),
                pc: gpu_common::Pc(0x100),
                body_idx: 0,
                iter: 10 + iter,
                is_load: true,
                addr0: gpu_common::Addr::new(4096 * (iter + 1)),
                lines: [LineAddr(32 * (iter + 1))].into_iter().collect(),
                issue_cycle: 1,
                head_sent: false,
            });
        }
        sm.park = None; // the queue changed behind the SM's back
        let scan = sm.scan_warps(2);
        assert!(sm.ready_buf.is_empty(), "warp 1 is not launched");
        assert!(scan.lsu_full, "warp 1's load is held back by the full LSU");
        assert_eq!(scan.wake, Some(100));
        for now in 2..=10 {
            tick_unanswered(&mut sm, &mut port, now);
        }
        assert_eq!(counters(&sm), [9, 10, 9, 1]);
        assert!(sm.park.is_some_and(|p| p.lsu_full && p.retry.is_some()));
    }

    /// Everything a tick can change, in one comparable string.
    fn observable(sm: &Sm, port: &mut SmPort) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {:?} {:?} {:?}",
            sm.stats,
            sm.energy,
            sm.l1,
            sm.lsu,
            sm.warps,
            sm.barriers,
            port.take_latencies(),
        )
    }

    /// Runs `kernel` on two SMs in lockstep against loopback memory, one
    /// free to park and one forced through full ticks, and asserts they
    /// agree after every cycle. Returns the number of parked cycles.
    fn lockstep(cfg: &GpuConfig, kernel: &Kernel, plan: Option<FaultPlan>) -> u64 {
        let mut fast = sm_with(cfg, kernel);
        let mut full = sm_with(cfg, kernel);
        if let Some(plan) = &plan {
            fast.arm_faults(plan);
            full.arm_faults(plan);
        }
        let (mut pf, mut pl) = (SmPort::new(), SmPort::new());
        let mut parked = 0;
        for now in 0..200_000 {
            parked += u64::from(
                fast.park.is_some_and(|p| now < p.until)
                    && pf.next_fill_ready().is_none_or(|r| r > now),
            );
            full.park = None;
            fast.tick(now, &mut pf);
            full.tick(now, &mut pl);
            respond(&mut pf);
            respond(&mut pl);
            assert_eq!(
                observable(&fast, &mut pf),
                observable(&full, &mut pl),
                "cycle {now}"
            );
            if full.is_finished() && pl.is_idle() {
                assert!(fast.is_finished() && pf.is_idle());
                return parked;
            }
        }
        panic!("lockstep run did not finish");
    }

    #[test]
    fn parked_ticks_match_full_ticks_in_lockstep() {
        let k = Kernel::builder("mix")
            .load(AddressPattern::warp_strided(0, 128, 128 * 64, 4), &[])
            .load(AddressPattern::shared_stream(1 << 20, 128), &[])
            .alu(6, &[0, 1])
            .barrier(&[2])
            .store(
                AddressPattern::warp_strided(1 << 24, 128, 128 * 64, 4),
                &[2],
            )
            .alu(20, &[2])
            .iterations(6)
            .build();
        let mut tight = cfg(24, 2);
        tight.l1.mshr_merge_slots = 1;
        let mut bypass = tight.clone();
        bypass.l1.bypass = true;
        let mut dual = cfg(24, 4);
        dual.core.issue_width = 2;
        dual.core.launch_skew = 7;
        dual.core.waves_per_slot = 2;
        let burst = FaultPlan::seeded(5).exhausting_mshrs(97, 23);
        for (label, c, plan) in [
            ("tight", &tight, None),
            ("bypass", &bypass, None),
            ("bypass+faults", &bypass, Some(burst.clone())),
            ("dual+skew+waves", &dual, Some(burst)),
        ] {
            let parked = lockstep(c, &k, plan);
            assert!(parked > 100, "{label}: only {parked} parked cycles");
        }
    }
}
