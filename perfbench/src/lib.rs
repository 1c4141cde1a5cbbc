//! Trace-replay benchmark of the NetTrails platform.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace 0` replays
//! one workload and prints the end-to-end metrics; `perfbench-traced ...
//! --trace 1` replays it three times (traced, untraced, and without
//! provenance) and prints the per-layer metrics. `README.md` in this
//! directory lists every metric and why each workload exists.

pub mod alloc;
pub mod calib;
pub mod metrics;
pub mod pass;
pub mod trace;
pub mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rustc: String,
    state_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        rustc: "unknown".into(),
        state_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? == 1,
            "--rustc" => args.rustc = value,
            "--state-dir" => args.state_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Entry point of both binaries; `counting` tells whether the counting
/// allocator is installed (`perfbench-traced`).
pub fn main(counting: bool) -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace != counting {
        eprintln!("perfbench: --trace 1 runs perfbench-traced, --trace 0 runs perfbench");
        return ExitCode::from(2);
    }
    let Some(w) = workload::Workload::new(&args.workload, args.seconds) else {
        eprintln!(
            "perfbench: unknown workload {:?}; choose one of {:?}",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let report = if args.trace {
        metrics::traced(&w, args.seed)
    } else {
        metrics::untraced(&w, args.seed)
    };
    let mut errors = report.errors.clone();
    if let Some(dir) = &args.state_dir {
        if let Err(e) = check_repeatable(dir, &w, &args, &report.digests) {
            errors.push(e);
        }
    }
    let default_seed = workload::DEFAULT_SEEDS[workload::NAMES
        .iter()
        .position(|n| *n == w.name)
        .expect("known workload")];
    println!(
        "# host nproc={} fixpoint_workers=1 prov_shards=1 rustc={:?} workload={} seed={} \
         default_seed={} held_out_seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.rustc,
        w.name,
        args.seed,
        default_seed,
        workload::HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace),
    );
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    report.print(errors.is_empty());
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Deterministic outputs must repeat across runs of one seed on one
/// binary: the first run records its digests under `dir`, later runs
/// compare against them.
fn check_repeatable(
    dir: &std::path::Path,
    w: &workload::Workload,
    args: &Args,
    digests: &[(&'static str, u64)],
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mut h = scenario::Fnv::default();
    h.write(&bytes);
    let path = dir.join(format!(
        "{:016x}-{}-{}-{}.txt",
        h.finish(),
        w.name,
        args.seed,
        args.seconds
    ));
    let text: String = digests
        .iter()
        .map(|(name, d)| format!("{name} {d:016x}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == text => Ok(()),
        Ok(previous) => Err(format!(
            "deterministic outputs differ from an earlier run of this seed:\n{previous}now:\n{text}"
        )),
        Err(_) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}
