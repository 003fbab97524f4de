//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                       # every experiment at standard scale
//! repro fig10 table2              # a subset
//! repro all --scale full          # the paper's full 10,000-sample protocol
//! repro all --threads 4           # fan experiments across 4 workers
//! repro all --json results.json   # also dump machine-readable results
//! repro all --metrics run.json    # structured run report (timings + metrics)
//! repro all --label nightly       # also snapshot the report as BENCH_nightly.json
//! repro all --trace               # print every instrumentation span to stderr
//! repro all --trace-out t.json    # export a Chrome trace_event timeline
//! repro diff BASE.json NEW.json --max-time-regress 50 --min-accuracy 90
//! ```
//!
//! Experiments are independent given the shared [`Context`], so they fan
//! out across worker threads (`--threads`, the `AIRFINGER_THREADS`
//! environment variable, or the machine's core count). Reports are
//! printed in request order regardless of completion order.
//!
//! Per-experiment wall time has a single source of truth: a traced
//! [`airfinger_obs`] span per experiment, which prints to stderr on
//! completion *and* feeds the `repro_experiment_seconds` histogram that
//! the `--metrics` run report serializes — the stderr line and the JSON
//! number can never disagree.

use airfinger_bench::context::{Context, Scale};
use airfinger_bench::{run_experiment, EXPERIMENT_IDS};
use airfinger_obs::report::RunReport;
use airfinger_parallel::{effective_threads, par_run};

/// Counting allocator wrapper so the `perf` experiment (and any
/// future zero-alloc ratchet) can attribute allocation events to the
/// hot path. Pure pass-through to the system allocator plus two atomic
/// adds per event; negligible against real experiment cost.
#[global_allocator]
// lint: sync — CountingAlloc is two shared atomics; `GlobalAlloc` requires Sync
static ALLOC: airfinger_obs::CountingAlloc = airfinger_obs::CountingAlloc::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        run_diff(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("profile-diff") {
        run_profile_diff(&args[1..]);
        return;
    }
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Standard;
    let mut seed = 0x41F1_6E12u64;
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut label: Option<String> = None;
    let mut threads_arg: Option<usize> = None;
    let mut trace_out: Option<String> = None;
    let mut profile_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let word = it.next().map(String::as_str).unwrap_or("");
                match Scale::parse(word) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale `{word}` (quick|standard|full)");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                }
            },
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(v) if v > 0 => threads_arg = Some(v),
                _ => {
                    eprintln!("--threads needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => {
                    eprintln!("--json needs a path");
                    std::process::exit(2);
                }
            },
            "--metrics" => match it.next() {
                Some(p) => metrics_path = Some(p.clone()),
                None => {
                    eprintln!("--metrics needs a path");
                    std::process::exit(2);
                }
            },
            "--label" => match it.next() {
                Some(l) if !l.is_empty() => label = Some(l.clone()),
                _ => {
                    eprintln!("--label needs a name");
                    std::process::exit(2);
                }
            },
            "--profile-dir" => match it.next() {
                Some(p) if !p.is_empty() => {
                    airfinger_obs::profile::set_enabled(true);
                    profile_dir = Some(p.clone());
                }
                _ => {
                    eprintln!("--profile-dir needs a directory path");
                    std::process::exit(2);
                }
            },
            "--trace" => airfinger_obs::set_trace(true),
            "--trace-out" => match it.next() {
                Some(p) if !p.is_empty() => {
                    airfinger_obs::trace::set_capture(true);
                    trace_out = Some(p.clone());
                }
                _ => {
                    eprintln!("--trace-out needs a path");
                    std::process::exit(2);
                }
            },
            "--list" => {
                for id in EXPERIMENT_IDS {
                    println!("{id}");
                }
                return;
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        if !EXPERIMENT_IDS.contains(&id.as_str()) {
            eprintln!("unknown experiment `{id}`; known: {EXPERIMENT_IDS:?}");
            std::process::exit(2);
        }
    }
    let threads = effective_threads(threads_arg).min(ids.len().max(1));
    let mut ctx = Context::new(scale, seed);
    if threads > 1 {
        // Parallelism lives at the experiment level here; pin the inner
        // training parallelism to one thread so the cores are not
        // oversubscribed. Results are unaffected either way.
        ctx.config.n_threads = 1;
        // Warm the shared caches before fanning out, so workers reuse one
        // corpus/feature computation instead of racing to build it.
        ctx.all_features();
    }
    eprintln!(
        "[repro] running {} experiment(s) on {threads} worker thread(s)",
        ids.len()
    );
    let run_span = airfinger_obs::span_with("repro_run_seconds", &[]);
    let timed: Vec<_> = par_run(ids.len(), threads, |i| {
        let span =
            airfinger_obs::span_with("repro_experiment_seconds", &[("id", &ids[i])]).traced();
        let result = run_experiment(&ids[i], &ctx);
        let elapsed = span.elapsed_s();
        drop(span);
        (result, elapsed)
    });
    let wall = run_span.elapsed_s();
    drop(run_span);
    let mut reports = Vec::with_capacity(timed.len());
    let mut timings = Vec::with_capacity(timed.len());
    for (id, (result, elapsed)) in ids.iter().zip(timed) {
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("[repro] experiment `{id}` failed: {e}");
                std::process::exit(1);
            }
        };
        report.print();
        reports.push(report);
        timings.push((id.clone(), elapsed));
    }
    eprintln!(
        "[repro] {} experiment(s) done in {wall:.2}s wall-clock",
        reports.len()
    );
    if let Some(path) = json_path {
        match serde_json::to_string_pretty(&reports) {
            Ok(json) => {
                write_file(&path, json.as_bytes());
                eprintln!("[repro] wrote {path}");
            }
            Err(e) => {
                eprintln!("[repro] cannot serialize reports: {e}");
                std::process::exit(1);
            }
        }
    }
    if metrics_path.is_some() || label.is_some() {
        // Runtime-shape gauges: configured worker count and how busy those
        // workers actually were. Busy time is the summed per-experiment
        // span time — the worker-busy histograms nest (an experiment's
        // inner parallel ops re-enter them) and would double-count.
        airfinger_obs::gauge!("repro_threads").set(threads as f64);
        let busy: f64 = airfinger_obs::global()
            .snapshot()
            .histograms
            .iter()
            .filter(|h| h.id.name == "repro_experiment_seconds")
            .map(|h| h.scaled(h.sum))
            .sum();
        if wall > 0.0 {
            airfinger_obs::gauge!("repro_worker_utilization").set(busy / (wall * threads as f64));
        }
        let mut run = RunReport::new(
            label.as_deref().unwrap_or("repro"),
            airfinger_obs::global().snapshot(),
        );
        run.meta("scale", format!("{scale:?}").to_lowercase());
        run.meta("seed", seed);
        run.meta("threads", threads);
        run.meta("wall_clock_s", format!("{wall:.3}"));
        run.meta("rustc", env!("AIRFINGER_RUSTC"));
        run.meta("target", env!("AIRFINGER_TARGET"));
        for (id, seconds) in &timings {
            run.experiment(id, *seconds);
        }
        let json = run.to_json();
        if let Some(path) = &metrics_path {
            write_file(path, json.as_bytes());
            eprintln!("[repro] wrote run report to {path}");
        }
        if let Some(name) = &label {
            let path = format!("BENCH_{name}.json");
            write_file(&path, json.as_bytes());
            eprintln!("[repro] wrote benchmark snapshot to {path}");
        }
    }
    if let Some(dir) = profile_dir {
        let snap = airfinger_obs::profile::snapshot();
        let dir_path = std::path::Path::new(&dir);
        if let Err(e) = std::fs::create_dir_all(dir_path) {
            eprintln!("[repro] cannot create profile dir {dir}: {e}");
            std::process::exit(1);
        }
        for (name, body) in [
            ("profile_collapsed.txt", snap.collapsed()),
            ("profile.json", snap.to_json()),
        ] {
            let path = dir_path.join(name);
            if let Err(e) = std::fs::write(&path, body.as_bytes()) {
                eprintln!("[repro] cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("[repro] wrote {}", path.display());
        }
    }
    if let Some(path) = trace_out {
        match airfinger_obs::trace::write_chrome_trace(&path) {
            Ok(()) => eprintln!(
                "[repro] wrote Chrome trace to {path} ({} event(s), {} dropped)",
                airfinger_obs::trace::events().len(),
                airfinger_obs::trace::dropped()
            ),
            Err(e) => {
                eprintln!("[repro] failed to write trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// `repro diff BASE.json NEW.json [--max-time-regress PCT]
/// [--min-accuracy PCT] [--perf-tolerance PCT] [--rebaseline]` — compare
/// two benchmark snapshots and exit nonzero on regression. Deterministic
/// `perf_*` metrics are gated exactly, timing-class metrics within
/// `--perf-tolerance` (default 10%); `--rebaseline` copies NEW over BASE
/// when the gate passes, ratcheting the committed baseline forward.
fn run_diff(args: &[String]) {
    use airfinger_bench::diff::{diff_reports, DiffOptions};
    let mut paths: Vec<&String> = Vec::new();
    let mut opts = DiffOptions {
        perf_tolerance_pct: Some(10.0),
        ..DiffOptions::default()
    };
    let mut rebaseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-time-regress" => match it.next().and_then(|s| s.parse().ok()) {
                Some(v) => opts.max_time_regress_pct = Some(v),
                None => {
                    eprintln!("--max-time-regress needs a percentage");
                    std::process::exit(2);
                }
            },
            "--min-accuracy" => match it.next().and_then(|s| s.parse().ok()) {
                Some(v) => opts.min_accuracy_pct = Some(v),
                None => {
                    eprintln!("--min-accuracy needs a percentage");
                    std::process::exit(2);
                }
            },
            "--perf-tolerance" => match it.next().and_then(|s| s.parse().ok()) {
                Some(v) if v >= 0.0 => opts.perf_tolerance_pct = Some(v),
                _ => {
                    eprintln!("--perf-tolerance needs a non-negative percentage");
                    std::process::exit(2);
                }
            },
            "--rebaseline" => rebaseline = true,
            "--help" | "-h" => {
                println!(
                    "usage: repro diff BASE.json NEW.json \
                     [--max-time-regress PCT] [--min-accuracy PCT] \
                     [--perf-tolerance PCT] [--rebaseline]"
                );
                return;
            }
            _ => paths.push(arg),
        }
    }
    let [base_path, new_path] = paths[..] else {
        eprintln!("repro diff needs exactly two snapshot paths (BASE.json NEW.json)");
        std::process::exit(2);
    };
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let (base, new) = (read(base_path), read(new_path));
    match diff_reports(&base, &new, &opts) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            if !report.passed() {
                if rebaseline {
                    eprintln!("[repro] gate failed; baseline left untouched");
                }
                std::process::exit(1);
            }
            if rebaseline {
                write_file(base_path, new.as_bytes());
                eprintln!(
                    "[repro] re-baselined {base_path} from {new_path} \
                     ({} ratchet candidate(s) locked in)",
                    report.ratchet_candidates.len()
                );
            }
        }
        Err(e) => {
            eprintln!("repro diff: {e}");
            std::process::exit(2);
        }
    }
}

/// `repro profile-diff BASE.json NEW.json [--out DIR]` — diff two
/// `airfinger-profile-v1` artifacts (written by `--profile-dir`) into
/// the signed differential-flamegraph pair: collapsed stacks with
/// signed counts to stdout (or `profile_diff_collapsed.txt` plus
/// `profile_diff.json`, schema `airfinger-profile-diff-v1`, under
/// `--out DIR`), with a top-movers summary on stderr.
fn run_profile_diff(args: &[String]) {
    let mut paths: Vec<&String> = Vec::new();
    let mut out_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(dir.clone()),
                None => {
                    eprintln!("--out needs a directory path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: repro profile-diff BASE.json NEW.json [--out DIR]");
                return;
            }
            _ => paths.push(arg),
        }
    }
    let [base_path, new_path] = paths[..] else {
        eprintln!("repro profile-diff needs exactly two profile paths (BASE.json NEW.json)");
        std::process::exit(2);
    };
    let read_snapshot = |p: &str| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        });
        airfinger_bench::profdiff::parse_profile_json(&text, p).unwrap_or_else(|e| {
            eprintln!("repro profile-diff: {e}");
            std::process::exit(2);
        })
    };
    let (base, new) = (read_snapshot(base_path), read_snapshot(new_path));
    let diff = new.diff(&base);

    let mut movers: Vec<(&String, i64)> = diff
        .paths
        .iter()
        .filter(|(_, d)| d.self_ns != 0)
        .map(|(p, d)| (p, d.self_ns))
        .collect();
    movers.sort_by_key(|(_, d)| std::cmp::Reverse(d.abs()));
    eprintln!(
        "[repro] profile diff: {} path(s), {} moved{}",
        diff.paths.len(),
        movers.len(),
        if diff.is_zero() { " (identical)" } else { "" }
    );
    for (path, d_self_ns) in movers.iter().take(10) {
        eprintln!("  {d_self_ns:>+12} ns self  {path}");
    }

    if let Some(dir) = out_dir {
        let dir_path = std::path::Path::new(&dir);
        if let Err(e) = std::fs::create_dir_all(dir_path) {
            eprintln!("[repro] cannot create profile-diff dir {dir}: {e}");
            std::process::exit(1);
        }
        for (name, body) in [
            ("profile_diff_collapsed.txt", diff.collapsed()),
            ("profile_diff.json", diff.to_json()),
        ] {
            let path = dir_path.join(name);
            if let Err(e) = std::fs::write(&path, body.as_bytes()) {
                eprintln!("[repro] cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("[repro] wrote {}", path.display());
        }
    } else {
        print!("{}", diff.collapsed());
    }
}

fn write_file(path: &str, bytes: &[u8]) {
    if let Err(e) = std::fs::write(path, bytes) {
        eprintln!("[repro] cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn print_help() {
    println!("repro — regenerate the airFinger paper's tables and figures");
    println!();
    println!(
        "usage: repro [IDS…|all] [--scale quick|standard|full] [--seed N] \
         [--threads N] [--json PATH] [--metrics PATH] [--label NAME] [--trace] \
         [--trace-out PATH] [--profile-dir DIR]"
    );
    println!(
        "       repro diff BASE.json NEW.json [--max-time-regress PCT] [--min-accuracy PCT] \
         [--perf-tolerance PCT] [--rebaseline]"
    );
    println!("       repro profile-diff BASE.json NEW.json [--out DIR]");
    println!();
    println!("  --list            print every experiment id and exit");
    println!("  --json PATH       dump the experiment results as JSON");
    println!("  --metrics PATH    write a structured run report: per-experiment wall");
    println!("                    time, quality metrics, and every counter and");
    println!("                    latency histogram (with p50/p95/p99)");
    println!("  --label NAME      also snapshot the run report as BENCH_NAME.json");
    println!("  --trace           print every instrumentation span to stderr");
    println!("  --trace-out PATH  export the span timeline as Chrome trace_event");
    println!("                    JSON (open in Perfetto or chrome://tracing)");
    println!("  --profile-dir DIR enable the per-stage cost profiler and write");
    println!("                    profile_collapsed.txt (flamegraph collapsed-stack");
    println!("                    format) and profile.json into DIR after the run");
    println!();
    println!("  diff              compare two BENCH_*.json snapshots; exits 1 when");
    println!("                    wall time regresses past --max-time-regress,");
    println!("                    accuracy falls below --min-accuracy, a deterministic");
    println!("                    perf_* metric drifts at all, or a timing-class");
    println!("                    perf_* metric regresses past --perf-tolerance");
    println!("                    (default 10%); --rebaseline copies NEW over BASE");
    println!("                    when the gate passes (perf ratchet)");
    println!("  profile-diff      diff two profile.json artifacts into signed");
    println!("                    collapsed stacks (differential flamegraph input)");
    println!("                    and airfinger-profile-diff-v1 JSON");
    println!();
    println!("experiments: {EXPERIMENT_IDS:?}");
}
