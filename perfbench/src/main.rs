//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <serve|infer> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a host block line, then, as the last stdout line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-module metrics with
//! `--trace 1`. Progress and the span summary go to stderr. Scratch
//! files live under `.perfbench-work/` in the working directory and are
//! removed before exit.

#![allow(clippy::print_stdout)]

use ccq_perfbench::{report, run, Opts, Workload};
use ccq_serve::DaemonConfig;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == key)
            .ok_or(format!("missing {key}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{key} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    // Fixed-width pid: job event logs record the autosave path, so its
    // length must not vary between runs at one seed.
    let work_dir =
        PathBuf::from(".perfbench-work").join(format!("{name}-{seed}-{:010}", std::process::id()));
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve|infer> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    if let Some(parent) = opts.work_dir.parent() {
        // Removed only when no concurrent run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(r) => {
            println!("{}", report::host_json(DaemonConfig::default().workers));
            println!("{}", r.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {:?} failed: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}
