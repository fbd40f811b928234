//! `vwbench` — the repository's benchmark. See README.md beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! vwbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!         [--quick] [--out FILE] [--trace-dir DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; everything else goes
//! to standard error.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod heap;
mod measure;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: workloads::Size,
    out: Option<String>,
    trace_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: workloads::Size::Full,
        out: None,
        trace_dir: workloads::build_dir()
            .join("vwbench")
            .to_string_lossy()
            .into_owned(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            args.size = workloads::Size::Quick;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(0.0..=120.0).contains(&args.seconds) {
                    return Err(bad("between 0 and 120"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = Some(value),
            "--trace-dir" => args.trace_dir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Set in the environment of the re-run that `confined` starts.
const CONFINED: &str = "VWBENCH_CONFINED";

/// Runs this same command line again under `taskset`, confined to the
/// last CPU this process may use, waits for it and returns its exit code;
/// `None` if that cannot be done (no `taskset`, no `/proc`), and the
/// caller measures unconfined.
///
/// Used for the end-to-end pass of `serve_stream`, the one workload with
/// several threads (client, connection reader and writer, worker). On
/// two vCPUs that are siblings of one core they gain nothing from running
/// side by side (3637 and 3704 inst/s on CPU 0 and 1, 3647 unconfined),
/// but every hand-off between them wakes an idle vCPU, which costs what
/// the host's scheduler makes it cost at that moment. On one CPU a
/// hand-off is a context switch, and the daemon keeps that CPU busy like
/// the single-threaded workloads keep theirs.
fn confined() -> Option<ExitCode> {
    use std::process::Command;
    if std::env::var_os(CONFINED).is_some() {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = allowed.trim().rsplit([',', '-']).next()?;
    let works = Command::new("taskset").args(["-c", cpu, "true"]).status();
    if !works.is_ok_and(|s| s.success()) {
        return None;
    }
    eprintln!("vwbench: measuring confined to CPU {cpu}");
    let status = Command::new("taskset")
        .args(["-c", cpu])
        .arg(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env(CONFINED, "1")
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().unwrap_or(1) as u8))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("vwbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "serve_stream" && !args.trace {
        if let Some(code) = confined() {
            return code;
        }
    }
    let result = if args.trace {
        measure::traced(
            &args.workload,
            args.seed,
            args.seconds,
            args.size,
            &args.trace_dir,
        )
    } else {
        measure::end_to_end(&args.workload, args.seed, args.seconds, args.size)
    };
    workloads::remove_scratch();
    let line = result.to_json_line();
    if let Some(path) = &args.out {
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", result.to_record(&args.workload, args.seed)));
        if let Err(e) = appended {
            eprintln!("vwbench: cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("vwbench: output check failed: {}", result.why_incorrect);
        ExitCode::FAILURE
    }
}
