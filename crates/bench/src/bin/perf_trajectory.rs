//! Measured-performance trajectory: times a pinned simulation sub-suite
//! with the plain cycle loop ([`Gpu::run`]) and with pipeline tracing on
//! SM 0 ([`Gpu::run_traced`]), and records the result as a
//! `BENCH_<n>.json` checkpoint (rebar-style measurement methodology; see
//! METHODOLOGY.md).
//!
//! ```text
//! cargo run --release -p apres-bench --bin perf_trajectory -- [--fast|--tiny]
//!     [--reps N] [--dry-run | --write | --check]
//! ```
//!
//! * default — measure and print the trajectory without writing anything;
//! * `--write` — measure and write the next `BENCH_<n>.json` in the
//!   current directory;
//! * `--check` — measure and compare the plain/traced ratio against the
//!   newest checked-in `BENCH_*.json`; exits 1 on a >10% regression
//!   (`just perf-gate`);
//! * `--dry-run` — print the pinned suite and exit without reading the
//!   clock at all (the `bench_smoke.sh` smoke path: no timing figures,
//!   so output is byte-comparable across runs).
//!
//! The regression gate compares a *same-process ratio*, not absolute
//! rates: absolute cycles/s depends on the host machine and its load,
//! while the plain/traced time ratio is a property of the code. Each rep
//! times every entry both ways back to back, alternating which goes
//! first, so host noise lands on both sides of that rep's ratio; the gate
//! reads the median over reps (METHODOLOGY.md).

use apres_bench::{BenchArgs, Combo, Scale, StageTimer, APRES, BASELINE};
use apres_core::sim::DEFAULT_MAX_CYCLES;
use gpu_common::json::{parse, Json};
use gpu_sm::Gpu;
use gpu_workloads::Benchmark;

/// One pinned suite entry; `hi_lat` applies the latency-stress config
/// (ample MSHRs, 600-cycle DRAM), where warps wait on long misses rather
/// than on MSHR retries.
struct Entry {
    bench: Benchmark,
    combo: Combo,
    hi_lat: bool,
}

const fn entry(bench: Benchmark, combo: Combo, hi_lat: bool) -> Entry {
    Entry { bench, combo, hi_lat }
}

/// The pinned sub-suite: memory-bound Table-I kernels, one compute-bound
/// control, one latency-stress point. Append only — renumbering entries
/// would make trajectories incomparable.
const SUITE: [Entry; 6] = [
    entry(Benchmark::Bfs, BASELINE, false),
    entry(Benchmark::Spmv, BASELINE, false),
    entry(Benchmark::Km, BASELINE, false),
    entry(Benchmark::Spmv, APRES, false),
    entry(Benchmark::Hs, BASELINE, false),
    entry(Benchmark::Spmv, BASELINE, true),
];

/// Maximum tolerated regression of the plain/traced ratio.
const GATE_TOLERANCE: f64 = 0.10;

/// Trajectory file format version (bumped on schema change; v3 replaced
/// the step-mode and engine runs of v2 with plain vs traced runs).
const FORMAT_VERSION: u64 = 3;

/// Trace buffer size of the traced runs. The buffer keeps the newest
/// events, so recording costs the same per event at any size.
const TRACE_CAPACITY: usize = 4096;

enum Action {
    Measure,
    Write,
    Check,
    DryRun,
}

fn main() {
    let mut action = Action::Measure;
    let mut reps: u64 = 5;
    // Split our own flags off before handing the rest to the shared
    // parser (which rejects unknown flags).
    let mut rest: Vec<String> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--dry-run" => action = Action::DryRun,
            "--write" => action = Action::Write,
            "--check" => action = Action::Check,
            "--reps" => {
                let v = argv.next().unwrap_or_default();
                reps = v.parse().unwrap_or(0);
                if reps == 0 {
                    eprintln!("--reps: expected a positive number, got {v:?}");
                    std::process::exit(2);
                }
            }
            _ => rest.push(a),
        }
    }
    let args = match BenchArgs::parse_from(rest.into_iter()) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: perf_trajectory [--fast | --tiny] [--reps N] \
                 [--dry-run | --write | --check]"
            );
            std::process::exit(2);
        }
    };
    if let Action::DryRun = action {
        dry_run(&args, reps);
        return;
    }
    if args.no_time {
        // A trajectory *is* wall-clock data; there is nothing meaningful
        // to measure with the clock disabled. `--dry-run` is the
        // timing-free path (METHODOLOGY.md).
        eprintln!("--no-time conflicts with measurement; use --dry-run instead");
        std::process::exit(2);
    }
    let trajectory = measure(&args, reps);
    println!("{}", render(&trajectory));
    match action {
        Action::Measure | Action::DryRun => {}
        Action::Write => write_next(&trajectory),
        Action::Check => check_gate(&trajectory),
    }
}

/// Every timing of one measurement, indexed `[entry][rep]` like [`SUITE`].
struct Trajectory {
    scale: Scale,
    reps: u64,
    /// Simulated cycles per entry (identical plain and traced).
    cycles: Vec<u64>,
    plain: Vec<Vec<f64>>,
    traced: Vec<Vec<f64>>,
}

impl Trajectory {
    /// Per rep: the suite's plain seconds over its traced seconds.
    fn rep_ratios(&self) -> Vec<f64> {
        (0..self.reps as usize)
            .map(|rep| {
                let plain: f64 = self.plain.iter().map(|t| t[rep]).sum();
                let traced: f64 = self.traced.iter().map(|t| t[rep]).sum();
                if traced <= 0.0 {
                    0.0
                } else {
                    plain / traced
                }
            })
            .collect()
    }

    /// Median per-rep plain/traced ratio (the gated quantity).
    fn ratio(&self) -> f64 {
        median(&self.rep_ratios())
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

fn suite_label(e: &Entry) -> String {
    let base = format!("{}/{}", e.bench.label(), e.combo.label());
    if e.hi_lat {
        format!("{base}@hi-lat")
    } else {
        base
    }
}

/// Prints the pinned suite without ever reading the clock.
fn dry_run(args: &BenchArgs, reps: u64) {
    println!(
        "perf_trajectory dry run: {} suite entries x (plain + traced on SM 0) \
         at {} scale, median of {} rep(s)",
        SUITE.len(),
        args.scale.label(),
        reps
    );
    for entry in &SUITE {
        println!("  {}", suite_label(entry));
    }
    println!("no simulations were run and no clock was read");
}

/// Measures the pinned suite: one untimed warmup run, then `reps` reps,
/// each timing every entry plain and traced back to back, serially
/// (worker-count jitter would contaminate the measurement;
/// METHODOLOGY.md).
fn measure(args: &BenchArgs, reps: u64) -> Trajectory {
    let timer = StageTimer::new(false);
    // Warmup: first allocation/page-cache effects land on an untimed run.
    run_entry(&SUITE[0], args.scale, false);
    let mut t = Trajectory {
        scale: args.scale,
        reps,
        cycles: vec![0; SUITE.len()],
        plain: vec![Vec::new(); SUITE.len()],
        traced: vec![Vec::new(); SUITE.len()],
    };
    for rep in 0..reps as usize {
        for (i, entry) in SUITE.iter().enumerate() {
            let traced_first = (rep + i) % 2 == 1;
            let mut cycles = [0; 2];
            for traced in [traced_first, !traced_first] {
                let start = timer.start();
                cycles[usize::from(traced)] = run_entry(entry, args.scale, traced);
                let secs = timer
                    .seconds_since(start)
                    .expect("timer is armed outside --dry-run");
                if traced {
                    t.traced[i].push(secs);
                } else {
                    t.plain[i].push(secs);
                }
            }
            assert_eq!(
                cycles[0], cycles[1],
                "tracing must not change the simulated cycle count"
            );
            t.cycles[i] = cycles[0];
            eprintln!(
                "[perf] rep {rep} {} plain {:.3}s traced {:.3}s ({} cycles)",
                suite_label(entry),
                t.plain[i][rep],
                t.traced[i][rep],
                cycles[0]
            );
        }
    }
    t
}

/// Runs one suite entry to completion, plain or traced, returning
/// simulated cycles.
fn run_entry(entry: &Entry, scale: Scale, traced: bool) -> u64 {
    let mut cfg = scale.config();
    if entry.hi_lat {
        cfg.l1.mshrs = 256;
        cfg.l1.mshr_merge_slots = 16;
        cfg.dram.latency = 600;
    }
    let Combo { sched, pf } = entry.combo;
    let kernel = entry.bench.kernel_scaled(scale.iterations(entry.bench));
    let outcome =
        Gpu::new(&cfg, kernel, &|_| sched.make(&cfg), &|_| pf.make(&cfg)).and_then(|gpu| {
            if traced {
                gpu.run_traced(DEFAULT_MAX_CYCLES, 0, TRACE_CAPACITY)
                    .map(|(r, _)| r)
            } else {
                gpu.run(DEFAULT_MAX_CYCLES)
            }
        });
    match outcome {
        Ok(r) => r.cycles,
        Err(e) => {
            eprintln!("fatal: {} failed: [{}] {e}", suite_label(entry), e.class());
            std::process::exit(1);
        }
    }
}

/// One side's per-entry median seconds and the suite totals they imply.
fn side_json(t: &Trajectory, times: &[Vec<f64>]) -> Json {
    let medians: Vec<f64> = times.iter().map(|reps| median(reps)).collect();
    let seconds: f64 = medians.iter().sum();
    let cycles: u64 = t.cycles.iter().sum();
    let cycles_per_sec = if seconds > 0.0 {
        cycles as f64 / seconds
    } else {
        0.0
    };
    Json::Obj(vec![
        ("seconds".into(), Json::from_f64(seconds)),
        ("cycles_per_sec".into(), Json::from_f64(cycles_per_sec)),
        (
            "exhibits".into(),
            Json::Arr(
                SUITE
                    .iter()
                    .enumerate()
                    .map(|(i, entry)| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(suite_label(entry))),
                            ("seconds".into(), Json::from_f64(medians[i])),
                            ("cycles".into(), Json::from_u64(t.cycles[i])),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn render(t: &Trajectory) -> String {
    let ratios = t.rep_ratios();
    let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let doc = Json::Obj(vec![
        ("format".into(), Json::from_u64(FORMAT_VERSION)),
        ("tool".into(), Json::str("perf_trajectory")),
        ("scale".into(), Json::str(t.scale.label())),
        ("reps".into(), Json::from_u64(t.reps)),
        ("plain".into(), side_json(t, &t.plain)),
        ("traced".into(), side_json(t, &t.traced)),
        ("plain_over_traced".into(), Json::from_f64(t.ratio())),
        ("plain_over_traced_min".into(), Json::from_f64(min)),
        ("plain_over_traced_max".into(), Json::from_f64(max)),
    ]);
    let mut text = doc.to_pretty();
    text.push('\n');
    text
}

/// Largest `BENCH_<n>.json` index in the current directory, with its
/// parsed contents.
fn newest_trajectory() -> Option<(u64, Json)> {
    let mut newest: Option<(u64, std::path::PathBuf)> = None;
    for dirent in std::fs::read_dir(".").ok()?.flatten() {
        let name = dirent.file_name().to_string_lossy().into_owned();
        let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if newest.as_ref().is_none_or(|(best, _)| n > *best) {
            newest = Some((n, dirent.path()));
        }
    }
    let (n, path) = newest?;
    let text = std::fs::read_to_string(&path).ok()?;
    match parse(&text) {
        Ok(doc) => Some((n, doc)),
        Err(e) => {
            eprintln!("warning: {} does not parse: {e}", path.display());
            None
        }
    }
}

fn write_next(t: &Trajectory) {
    let next = newest_trajectory().map_or(1, |(n, _)| n + 1);
    let path = format!("BENCH_{next:04}.json");
    match std::fs::write(&path, render(t)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn check_gate(t: &Trajectory) {
    let Some((n, doc)) = newest_trajectory() else {
        eprintln!("perf-gate: no BENCH_*.json trajectory to compare against");
        std::process::exit(1);
    };
    let Some(recorded) = doc.get("plain_over_traced").and_then(Json::as_f64) else {
        eprintln!("perf-gate: BENCH_{n:04}.json lacks plain_over_traced");
        std::process::exit(1);
    };
    let current = t.ratio();
    let floor = recorded * (1.0 - GATE_TOLERANCE);
    if current < floor {
        eprintln!(
            "perf-gate: FAIL — plain/traced ratio {current:.3} regressed more than \
             {:.0}% below the recorded {recorded:.3} (BENCH_{n:04}.json floor {floor:.3})",
            GATE_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    eprintln!(
        "perf-gate: OK — plain/traced ratio {current:.3} vs recorded {recorded:.3} \
         (BENCH_{n:04}.json, floor {floor:.3})"
    );
}
