//! Golden `RunResult` digests: the byte-identity safety net for refactors
//! and performance work on the simulator core.
//!
//! Each run's complete result is encoded with the lossless codec
//! (`gpu_sm::codec::encode`) and content-hashed
//! (`gpu_common::content_hash_str`); `golden_results.txt` holds the
//! expected digest of every run, one `<label> <digest>` line each. A change
//! that must not alter behaviour has to leave every digest intact. When a
//! model change is intended, the failing assertion prints the complete
//! recomputed file, ready to check in.
//!
//! Coverage: all 15 Table-I kernels under five policy combinations (the
//! paper's baseline LRR, GTO, MASCAR, CCWS+STR and APRES = LAWS+SAP) at
//! 2 SMs of the paper geometry, plus runs that exercise the MSHR retry
//! path under injected MSHR-exhaustion bursts, under the L1 bypass
//! predictor, and under dual issue with block-launch skew, and the three
//! ways a run can end besides draining cleanly: draining under delayed DRAM
//! responses, exhausting its cycle budget, and a watchdog timeout.

// Integration tests may use the ergonomic panicking forms freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use apres::common::{content_hash_str, hash_hex};
use apres::sm::codec;
use apres::{
    Benchmark, FaultPlan, GpuConfig, PrefetcherChoice, RunResult, SchedulerChoice, SimError,
    Simulation, Termination,
};

const GOLDEN: &str = include_str!("golden_results.txt");

/// Loop iterations per kernel: small, so the fixture stays fast in debug
/// builds, yet enough for every kernel to saturate its L1 MSHRs.
const ITERS: u64 = 2;

fn cfg() -> GpuConfig {
    let mut c = GpuConfig::paper_baseline();
    c.core.num_sms = 2;
    c
}

fn digest(sim: Simulation) -> String {
    let r = sim
        .max_cycles(5_000_000)
        .run()
        .expect("golden runs complete");
    assert!(r.termination.is_drained(), "{} did not drain", r.kernel);
    result_digest(&r)
}

fn result_digest(r: &RunResult) -> String {
    hash_hex(content_hash_str(&codec::encode(r).to_compact()))
}

/// Compares freshly computed `(label, digest)` rows against the rows of
/// the golden file carrying the same labels.
fn check(rows: &[(String, String)]) {
    let golden: Vec<(&str, &str)> = GOLDEN.lines().filter_map(|l| l.rsplit_once(' ')).collect();
    let mut bad = Vec::new();
    for (label, got) in rows {
        match golden.iter().find(|(l, _)| l == label) {
            Some((_, want)) if want == got => {}
            Some((_, want)) => bad.push(format!("{label}: golden {want}, got {got}")),
            None => bad.push(format!("{label}: missing from golden_results.txt")),
        }
    }
    let fresh: String = rows.iter().map(|(l, d)| format!("{l} {d}\n")).collect();
    assert!(
        bad.is_empty(),
        "RunResult digests changed:\n{}\nrecomputed rows:\n{fresh}",
        bad.join("\n")
    );
}

fn policy_rows(s: SchedulerChoice, p: PrefetcherChoice) -> Vec<(String, String)> {
    let combo = match p {
        PrefetcherChoice::None => s.label().to_owned(),
        _ => format!("{}+{}", s.label(), p.label()),
    };
    Benchmark::ALL
        .iter()
        .map(|b| {
            let sim = Simulation::new(b.kernel_scaled(ITERS))
                .config(cfg())
                .scheduler(s)
                .prefetcher(p);
            (format!("{} {combo}", b.label()), digest(sim))
        })
        .collect()
}

#[test]
fn lrr_results_match_golden() {
    check(&policy_rows(SchedulerChoice::Lrr, PrefetcherChoice::None));
}

#[test]
fn gto_results_match_golden() {
    check(&policy_rows(SchedulerChoice::Gto, PrefetcherChoice::None));
}

#[test]
fn mascar_results_match_golden() {
    check(&policy_rows(
        SchedulerChoice::Mascar,
        PrefetcherChoice::None,
    ));
}

#[test]
fn ccws_str_results_match_golden() {
    check(&policy_rows(SchedulerChoice::Ccws, PrefetcherChoice::Str));
}

#[test]
fn laws_sap_results_match_golden() {
    check(&policy_rows(SchedulerChoice::Laws, PrefetcherChoice::Sap));
}

#[test]
fn retry_path_variants_match_golden() {
    let km = || Simulation::new(Benchmark::Km.kernel_scaled(ITERS)).config(cfg());
    let mut bypass = cfg();
    bypass.l1.bypass = true;
    let mut dual = cfg();
    dual.core.issue_width = 2;
    dual.core.launch_skew = 8;
    check(&[
        (
            "KM LRR mshr-burst-faults".to_owned(),
            digest(km().fault_plan(FaultPlan::seeded(11).exhausting_mshrs(64, 16))),
        ),
        ("KM LRR l1-bypass".to_owned(), digest(km().config(bypass))),
        (
            "KM GTO dual-issue-skew".to_owned(),
            digest(km().config(dual).scheduler(SchedulerChoice::Gto)),
        ),
    ]);
}

#[test]
fn end_of_run_paths_match_golden() {
    let km = || Simulation::new(Benchmark::Km.kernel_scaled(ITERS)).config(cfg());
    let delayed = km()
        .apres()
        .fault_plan(
            FaultPlan::seeded(3)
                .delaying_dram_responses(0.5, 400)
                .exhausting_mshrs(128, 8),
        )
        .max_cycles(5_000_000)
        .run()
        .expect("delayed responses still drain");
    assert!(delayed.termination.is_drained());
    assert!(delayed.faults.total() > 0, "faults must actually fire");
    let budget = km().max_cycles(700).run().expect("budget is not an error");
    assert_eq!(
        budget.termination,
        Termination::BudgetExhausted { budget: 700 }
    );
    let err = km()
        .fault_plan(FaultPlan::seeded(5).dropping_dram_responses(1.0))
        .watchdog(2_000)
        .max_cycles(5_000_000)
        .run()
        .expect_err("a fully dropped memory system cannot drain");
    assert!(matches!(err, SimError::WatchdogTimeout { .. }), "{err:?}");
    check(&[
        (
            "KM LAWS+SAP delayed-dram-mshr-faults".to_owned(),
            result_digest(&delayed),
        ),
        ("KM LRR budget-700".to_owned(), result_digest(&budget)),
        (
            "KM LRR watchdog-2000".to_owned(),
            hash_hex(content_hash_str(&format!("{err:?}"))),
        ),
    ]);
}
