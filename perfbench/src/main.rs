//! End-to-end and per-layer benchmark of the Wrht reproduction.
//!
//! ```text
//! perfbench --workload <fig2-sweep|wrht-scale|serve|hier-parallelism>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the workload runs cold (into an empty sink) and then
//! resumed (over the sink it filled), again and again until `--seconds`
//! is spent, and the last line of stdout is a JSON object with the
//! end-to-end metrics (medians over the runs). With `--trace 1` one
//! untraced cold run is followed by one traced run, and the JSON holds the
//! per-layer metrics. See `README.md` beside this package.

mod stats;
mod trace;
mod workload;

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trace::{metric, now, Metric};
use workload::{Output, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <fig2-sweep|wrht-scale|serve|hier-parallelism> \
[--seed N] [--seconds S] [--trace 0|1] [--print-reference]";

/// Scratch space under the working directory; each run uses and removes a
/// directory of its own, and traces are left beside them.
const WORK_DIR: &str = ".perfbench-work";

/// Share of each cold run's wall time spent afterwards on resumed runs,
/// and as much again on set-ups. Host speed drifts over seconds, so the
/// small metrics are sampled over windows spread across the run, not in
/// one burst; after the last cold run that fits, the rest of the run is
/// such a window. A run overshoots `--seconds` rather than cut these
/// windows short: on a slow host one cold fig2-sweep takes all of it.
const PROBE_SHARE: f64 = 0.125;

/// Set-ups left out at the start of each set-up phase: they start with
/// the caches the resumed runs left.
const SETUP_WARMUP: usize = 3;

/// Share of `--seconds` spent on set-ups before the first cold run. The
/// host's speed for this small, allocation-bound work changes by up to
/// 1.6 times for seconds at a time, so every run samples it both before
/// and after its cold runs, even fig2-sweep, whose one cold run takes
/// most of the run.
const SETUP_LEAD: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_reference: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut print_reference = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--print-reference" => print_reference = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_reference,
    })
}

/// Peak resident set of the process so far, MiB (Linux `VmHWM`).
fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(|e| e.ok()?.metadata().ok())
            .filter(fs::Metadata::is_file)
            .map(|m| m.len())
            .sum()
    })
}

/// One untraced run of a workload into `sink`: set-up, campaign and
/// report stage, timed together.
struct Run {
    wall_s: f64,
    peak_rss_mib: f64,
    cells: usize,
    /// `None` when the run panicked.
    output: Option<Output>,
}

fn run_once(w: Workload, seed: u64, sink: &Path) -> std::io::Result<Run> {
    let t0 = now();
    let spec = workload::setup(w, seed);
    fs::create_dir_all(sink)?;
    let report = catch_unwind(AssertUnwindSafe(|| workload::execute(&spec, sink)));
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Run {
        wall_s,
        peak_rss_mib: peak_rss_mib(),
        cells: spec.cells(),
        output: report.ok().map(|r| r.output()),
    })
}

/// What one invocation prints.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

fn spread(samples: &[f64]) -> String {
    match stats::quartiles(samples) {
        Some([q1, _, q3]) => format!("median of {}, q1 {q1:.6}, q3 {q3:.6}", samples.len()),
        None => format!("median of {}", samples.len()),
    }
}

fn headline_line(out: &Output) -> Option<String> {
    let h = out.headline.as_ref()?;
    let (pe, po) = workload::HEADLINE_PAPER;
    Some(format!(
        "  headline       {:.2}% vs electrical (paper {pe:.2}%, gap {:+.2} pp), \
         {:.2}% vs O-Ring (paper {po:.2}%, gap {:+.2} pp)",
        h.vs_electrical_pct,
        h.vs_electrical_pct - pe,
        h.vs_oring_pct,
        h.vs_oring_pct - po,
    ))
}

/// Time set-ups back to back for `phase` seconds, leaving out the first
/// [`SETUP_WARMUP`].
fn time_setups(w: Workload, seed: u64, phase: f64, samples: &mut Vec<f64>) {
    let probe = now();
    for j in 0.. {
        let t0 = now();
        let spec = workload::setup(w, seed);
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(spec);
        if j >= SETUP_WARMUP {
            samples.push(dt);
            if probe.elapsed().as_secs_f64() >= phase {
                break;
            }
        }
    }
}

/// A phase of set-ups, then cold runs, each followed by a phase of
/// resumed runs and a phase of set-ups, until `--seconds` is spent: the
/// end-to-end metrics.
fn measured(a: &Args, work: &Path) -> std::io::Result<Outcome> {
    let (w, seed) = (a.workload, a.seed);
    let start = now();
    let reference = workload::reference(w);
    let (mut walls, mut resumes, mut setups) = (vec![], vec![], vec![]);
    // The first cold run in a fresh process, as a user runs it. Later runs
    // start over heap the allocator kept from earlier ones, and whether a
    // new worker thread reuses that arena decides their peak.
    let mut rss = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<Output> = None;
    time_setups(w, seed, SETUP_LEAD * a.seconds, &mut setups);
    for i in 0.. {
        let iteration = now();
        let sink = work.join(format!("run-{i}"));
        let cold = run_once(w, seed, &sink)?;
        walls.push(cold.wall_s);
        rss.get_or_insert(cold.peak_rss_mib);
        attempted += cold.cells;
        match cold.output {
            None => failed += cold.cells,
            Some(out) => {
                failed += workload::check(w, seed, &out, reference.as_ref(), first.as_ref());
                let left = a.seconds - start.elapsed().as_secs_f64();
                let phase = if left < (1.0 + 4.0 * PROBE_SHARE) * cold.wall_s {
                    (left / 2.0).max(PROBE_SHARE * cold.wall_s)
                } else {
                    PROBE_SHARE * cold.wall_s
                };
                let probe = now();
                loop {
                    let again = run_once(w, seed, &sink)?;
                    resumes.push(again.wall_s);
                    attempted += again.cells;
                    failed += again.output.map_or(again.cells, |o| {
                        stats::count(&stats::mismatches(&o.cells, &out.cells))
                    });
                    if probe.elapsed().as_secs_f64() >= phase {
                        break;
                    }
                }
                time_setups(w, seed, phase, &mut setups);
                first.get_or_insert(out);
            }
        }
        fs::remove_dir_all(&sink)?;
        let (elapsed, last) = (start.elapsed(), iteration.elapsed());
        if (elapsed + last).as_secs_f64() > a.seconds {
            break;
        }
    }

    let first_cold: Vec<f64> = rss.into_iter().collect();
    let printed = [
        (metric("wall_s", stats::median(&walls), "s"), &walls),
        (metric("resume_s", stats::median(&resumes), "s"), &resumes),
        (
            metric("peak_rss_mib", stats::median(&first_cold), "MiB"),
            &first_cold,
        ),
        (metric("setup_s", stats::median(&setups), "s"), &setups),
    ];
    let mut lines = vec![format!(
        "perfbench {} seed {seed}: {} cold run(s), {} resumed, {} cells each; \
         one process, one campaign worker, available_parallelism {}",
        w.name(),
        walls.len(),
        resumes.len(),
        attempted / (walls.len() + resumes.len()).max(1),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    )];
    for (m, samples) in &printed {
        lines.push(format!(
            "  {:<14} {:>14.6} {:<4} {}",
            m.name,
            m.value,
            m.unit,
            spread(samples)
        ));
    }
    // resume_s is printed but not gated: it follows the host's drift from
    // run to run like wall_s but more strongly, and its spread over a set
    // of ten runs ranged from 0.07 to 0.39 of its median (see README).
    let metrics: Vec<Metric> = printed
        .into_iter()
        .map(|(m, _)| m)
        .filter(|m| m.name != "resume_s")
        .collect();
    lines.push(format!(
        "  {:<14} {:>14.6} {:<4} {failed} failed of {attempted} cells checked",
        "fail_share",
        stats::fail_share(failed, attempted),
        "share",
    ));
    lines.extend(first.as_ref().and_then(headline_line));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        lines,
    })
}

/// One untraced cold run, then one traced run of the same spec: the
/// per-layer metrics, the tracing overhead and the fidelity check.
fn traced(a: &Args, work: &Path) -> std::io::Result<Outcome> {
    let (w, seed) = (a.workload, a.seed);
    let reference = workload::reference(w);
    let sink = work.join("untraced");
    let untraced = run_once(w, seed, &sink)?;
    let sink_bytes = dir_bytes(&sink);
    let mut attempted = untraced.cells;
    let mut failed = untraced.output.as_ref().map_or(untraced.cells, |o| {
        workload::check(w, seed, o, reference.as_ref(), None)
    });

    let traced = trace::run(w, seed, &work.join("traced"))?;
    let out = traced.report.as_ref().map(workload::Report::output);
    attempted += untraced.cells;
    let unequal = match (&out, &untraced.output) {
        (Some(t), Some(u)) => stats::count(&stats::mismatches(&t.cells, &u.cells)),
        _ => untraced.cells,
    };
    let nesting = traced.tracer.nesting_violations();
    failed += unequal + nesting;

    let cx = trace::Context {
        untraced_wall_s: untraced.wall_s,
        sink_bytes,
        cells: untraced.cells,
        infeasible: untraced.output.as_ref().map_or(0, |o| o.infeasible),
    };
    let metrics = trace::layer_metrics(&traced, &cx);

    let trace_path = Path::new(WORK_DIR).join(format!("trace-{}-seed{seed}.json", w.name()));
    fs::write(&trace_path, traced.tracer.chrome_json())?;
    let mut lines = vec![
        format!(
            "perfbench {} seed {seed} traced: {} spans written to {}",
            w.name(),
            traced.tracer.spans.len(),
            trace_path.display()
        ),
        format!(
            "  fidelity: {unequal} of {} traced cells differ from run_*_campaign; \
             {nesting} spans outside their parent; {} cells panicked",
            untraced.cells, traced.panicked
        ),
        "  the event kernel runs inside the engine spans; kernel.* is measured over them"
            .to_string(),
    ];
    for layer in &trace::LAYERS {
        let own: Vec<String> = metrics
            .iter()
            .filter(|m| {
                m.name
                    .strip_prefix(layer.prefix)
                    .is_some_and(|rest| rest.starts_with('.'))
            })
            .map(|m| format!("{}={} {}", m.name, m.value, m.unit))
            .collect();
        lines.push(format!(
            "  {:<28} {}  -> should move {}",
            layer.module,
            own.join(", "),
            layer.moves
        ));
    }
    for m in metrics.iter().filter(|m| {
        ["kernel.", "campaign.", "cell.", "trace."]
            .iter()
            .any(|p| m.name.starts_with(p))
    }) {
        lines.push(format!("  {:<28} {} {}", m.name, m.value, m.unit));
    }
    lines.extend(untraced.output.as_ref().and_then(headline_line));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        lines,
    })
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work: PathBuf =
        Path::new(WORK_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = if args.print_reference {
        run_once(args.workload, DEFAULT_SEED, &work).map(|r| {
            if let Some(out) = r.output {
                print!("{}", workload::reference_lines(args.workload, &out));
            }
            None
        })
    } else if args.trace {
        traced(&args, &work).map(Some)
    } else {
        measured(&args, &work).map(Some)
    };
    let _ = fs::remove_dir_all(&work);
    match outcome {
        Ok(Some(o)) => {
            for line in &o.lines {
                println!("{line}");
            }
            println!("{}", result_json(&o));
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_rejected() {
        let a = parse_args(&argv("--workload serve --seed 9 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Serve, 9, 12.0, true)
        );
        let a = parse_args(&argv("--workload fig2-sweep")).unwrap();
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, false));
        for bad in [
            "",
            "--workload nope",
            "--workload serve --trace 2",
            "--workload serve --seconds 0",
            "--workload serve --seed",
            "--workload serve --extra",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_metric_is_well_named_and_declared_in_benchmark_json() {
        let declared = include_str!("../../BENCHMARK.json");
        let traced = trace::Traced {
            tracer: trace::Tracer::new(),
            report: None,
            panicked: 0,
            wall_s: 1.0,
        };
        let cx = trace::Context {
            untraced_wall_s: 1.0,
            sink_bytes: 0,
            cells: 0,
            infeasible: 0,
        };
        let per_layer = trace::layer_metrics(&traced, &cx);
        let end_to_end = ["wall_s", "peak_rss_mib", "setup_s"];
        let names: Vec<&str> = end_to_end
            .into_iter()
            .chain(per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        for name in &names {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(
                declared.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert_eq!(declared.matches("\"name\": ").count(), names.len() + 4);
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let o = Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![metric("wall_s", 1.25, "s"), metric("x", f64::NAN, "s")],
            lines: vec![],
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\":false,\"attempted\":3,\"failed\":1,\"metrics\":{\"wall_s\":\
             {\"value\":1.25,\"unit\":\"s\"},\"x\":{\"value\":0,\"unit\":\"s\"}}}"
        );
    }
}
