//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root after building `slcs` (see run.sh).
//! Prints a human-readable report, then one JSON result line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when a reply was wrong or a self-check failed.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use servebench::gen::{generate, WORKLOADS};
use servebench::oracle::expected_replies;
use servebench::proto::SlcsLauncher;
use servebench::{per_layer, result_json, run, Run, CONNECTIONS, END_TO_END};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    slcs: PathBuf,
}

const USAGE: &str =
    "usage: servebench --workload <kernel_build|similar_edit|hot_query> --seed <n> \
     --seconds <s> --trace <0|1> [--slcs PATH]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        slcs: PathBuf::from("target/release/slcs"),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--slcs" => args.slcs = value.into(),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds <= 0.0 {
        return Err(USAGE.into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let wl = generate(&args.workload, args.seed, false).expect("workload name checked");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = std::time::Instant::now();
    let lines = wl.lines();
    let expected = expected_replies(&wl, threads);
    eprintln!(
        "servebench: {} seed {}: {} entries, oracle {:.2}s",
        wl.name,
        wl.seed,
        wl.entries.len(),
        t.elapsed().as_secs_f64()
    );
    let launcher = SlcsLauncher { binary: args.slcs.clone(), cwd: PathBuf::from(".") };
    let r = run(&wl, &lines, &expected, &launcher, args.seconds).map_err(|e| e.to_string())?;
    let problems = r.self_check(&wl);
    report(&args, &r, threads, &problems);

    let correct = r.phase.failed() == 0 && r.warmup_failed == 0 && problems.is_empty();
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let mut values = r.layer_metrics();
        values.extend(replay(&args)?);
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
                v.map(|v| (name.clone(), v, unit)).ok_or(format!("metric {name} not measured"))
            })
            .collect::<Result<_, _>>()?
    } else {
        END_TO_END.iter().zip(r.end_to_end()).map(|(&(n, u), v)| (n.to_string(), v, u)).collect()
    };
    println!("{}", result_json(correct, r.phase.attempted(), r.phase.failed(), &metrics));
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// The human-readable part: what ran, every end-to-end metric, the
/// failures, and the self-check verdict.
fn report(args: &Args, r: &Run, threads: usize, problems: &[String]) {
    let stats = &r.after.0;
    println!(
        "# servebench workload={} seed={} seconds={} connections={CONNECTIONS} nproc={threads} simd={} par_grain={} source={}",
        args.workload,
        args.seed,
        args.seconds,
        stats.text("simd"),
        stats.text("par_grain"),
        source_id()
    );
    let sched: Vec<String> = r.sched_counts().iter().map(|(m, v)| format!("{m}:{v}")).collect();
    println!("# sched_mode_delta {}", sched.join(","));
    println!("# setups_s {:?}", r.setups);
    let e2e = r.end_to_end();
    for (&(name, unit), v) in END_TO_END.iter().zip(&e2e) {
        println!("{name:>16} {v:>12.4} {unit}");
    }
    println!("{:>16} {:>12.6} ratio", "error_rate", r.error_rate());
    let ([rps, p50, p99, cpu], windows, blocks) = r.whole_phase();
    println!(
        "# medians over {windows} windows of {:?} (p99 over {blocks} blocks of >= {} replies); \
         whole phase: {rps:.4} 1/s, p50 {p50:.4} ms, p99 {p99:.4} ms, {cpu:.4} cpu ms/req",
        servebench::WINDOW,
        servebench::P99_SAMPLES
    );
    println!("# host steal during the timed phase: {:.0} ms", r.steal_ms);
    println!(
        "# samples={} ok={} failed={} wall_s={:.3}",
        r.phase.attempted(),
        r.phase.attempted() - r.phase.failed(),
        r.phase.failed(),
        r.phase.wall.as_secs_f64(),
    );
    for f in r.warmup_failures.iter().chain(&r.phase.failures) {
        println!("# FAILED {f}");
    }
    for p in problems {
        println!("# SELF-CHECK FAILED ({}): {p}", args.workload);
    }
}

/// Runs the traced in-process replay (the `replay` binary built next
/// to this one) and returns its metrics.
fn replay(args: &Args) -> Result<Vec<(String, f64)>, String> {
    let binary = std::env::current_exe().map_err(|e| e.to_string())?.with_file_name("replay");
    let out = Command::new(&binary)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    if !out.status.success() {
        return Err(format!("replay failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    Ok(stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Identifies the source that was built: the git commit when the
/// working directory is a git checkout, else an FNV-1a digest of the
/// manifests and every file under `crates/` and `vendor/`.
fn source_id() -> String {
    if std::path::Path::new(".git").exists() {
        let git = Command::new("git").args(["rev-parse", "--short=12", "HEAD"]).output();
        if let Ok(out) = git {
            if out.status.success() {
                return format!("git:{}", String::from_utf8_lossy(&out.stdout).trim());
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    let mut dirs = vec![PathBuf::from("crates"), PathBuf::from("vendor")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("fnv:{h:016x}")
}
