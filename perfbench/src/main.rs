//! Benchmark of the APRES simulator workspace.
//!
//! ```text
//! perfbench --workload <retry-storm|apres-mix|serve-batch> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --emit-golden
//! ```
//!
//! Prints a human-readable report, then as its last stdout line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. See
//! `README.md` beside this package.

mod check;
mod host;
mod jobs;
mod layers;
mod measure;
mod stats;
mod traced;

use jobs::Workload;
use stats::Metric;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <retry-storm|apres-mix|serve-batch> \
                     --seed <n> --seconds <s> --trace <0|1> | perfbench --emit-golden";

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--emit-golden"] {
        return match jobs::emit_golden() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    let outcome = run(&args, &tmp);
    let cleanup = match tmp.exists() {
        true => std::fs::remove_dir_all(&tmp),
        false => Ok(()),
    };
    // Fails harmlessly while another run still has its directory there.
    let _ = tmp.parent().map(std::fs::remove_dir);
    match (outcome, cleanup) {
        (Ok(line), Ok(())) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        (Err(e), _) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        (_, Err(e)) => {
            eprintln!("error: removing {}: {e}", tmp.display());
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and returns the result line, after printing the
/// report lines above it.
fn run(args: &Args, tmp: &std::path::Path) -> Result<String, String> {
    let mut client = measure::Client::new(args.workload, args.seed, tmp);
    client.warm_up();
    client.measure(args.seconds, args.trace)?;
    let rss = peak_rss_mb()?;
    let (metrics, mut notes) = if args.trace {
        let probe = layers::probe(&mut client, &tmp.join("probe"))?;
        let withheld = client.traced.diverged;
        let metrics = match withheld {
            true => Vec::new(),
            false => layers::per_layer(&client, &probe),
        };
        let mut notes = vec![format!(
            "traced rounds {}, untraced rounds {}",
            client.traced.rounds,
            client.traced.untraced_wall_s.len()
        )];
        if withheld {
            notes.push("traced driver diverged: per-layer metrics withheld".to_owned());
        }
        (metrics, notes)
    } else {
        let (metrics, mut notes) = layers::end_to_end(&client.samples, rss)?;
        notes.push(format!("ops_failed_frac {}", client.checker.failed_frac()));
        (metrics, notes)
    };
    notes.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {} scale {} jobs {} submissions {} \
             host available_parallelism {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            jobs::SCALE.label(),
            client.jobs.len(),
            args.workload.submissions().len(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        ),
    );
    for note in &notes {
        println!("# {note}");
    }
    for metric in &metrics {
        println!("{:<28} {:>16} {}", metric.name, metric.value, metric.unit);
    }
    result_line(&client.checker, &metrics)
}

fn result_line(checker: &check::Checker, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for metric in metrics {
        if !stats::valid_name(metric.name) || !metric.value.is_finite() {
            return Err(format!(
                "metric {} = {} is not reportable",
                metric.name, metric.value
            ));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        ));
    }
    let correct = checker.failed == 0 && !metrics.is_empty();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted,
        checker.failed,
        fields.join(", ")
    ))
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_common::json::{self, Json};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&argv(
            "--workload apres-mix --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ApresMix,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&argv("--workload apres-mix --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(&argv("--workload apres-mix --seed 1 --seconds 1")).is_err());
    }

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        let list = doc.get(key).and_then(Json::as_arr).unwrap();
        list.iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_declared_metric_is_printed_with_its_unit_on_every_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));

        let mut samples = measure::Samples::default();
        for v in [
            &mut samples.setup_s,
            &mut samples.wall_s,
            &mut samples.batch_cold_s,
            &mut samples.batch_warm_ms,
        ] {
            v.push(1.0);
        }
        samples.job_ms = (1..=20).map(f64::from).collect();
        let (end_to_end, _) = layers::end_to_end(&samples, 1.0).unwrap();
        for w in Workload::ALL {
            let client = measure::Client::new(w, 1, std::path::Path::new("unused"));
            let per_layer = layers::per_layer(&client, &layers::Probe::default());
            for (key, metrics) in [("end_to_end", &end_to_end), ("per_layer", &per_layer)] {
                let line = json::parse(&result_line(&client.checker, metrics).unwrap()).unwrap();
                let printed: Vec<(String, String)> = line
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .unwrap()
                    .iter()
                    .map(|(name, v)| {
                        let unit = v.get("unit").and_then(Json::as_str).unwrap();
                        assert!(v.get("value").and_then(Json::as_f64).is_some());
                        assert!(stats::valid_name(name), "{name}");
                        (name.clone(), unit.to_owned())
                    })
                    .collect();
                assert_eq!(printed, declared(&doc, key), "{} {key}", w.name());
            }
        }
    }
}
