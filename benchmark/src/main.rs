//! The repo benchmark. See `benchmark/README.md` for the workloads, the
//! metrics and how to read a trace file.
//!
//! One process measures one workload:
//! `simpim-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! Without `--workload` it runs every workload, each in a fresh process
//! (`--repeat N`, `--smoke`; see [`suite`]).

mod kmeans;
mod knn;
mod layers;
mod recorder;
mod reference;
mod report;
mod spec;
mod stats;
mod suite;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

use spec::Kind;

/// The arguments of one run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: usize,
    pub describe: bool,
    pub git_sha: String,
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: simpim-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--repeat <n>] [--git-sha <sha>] [--out-dir <dir>] [--describe]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        smoke: false,
        repeat: 1,
        describe: false,
        git_sha: "unknown".to_string(),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: bad value {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--repeat" => {
                args.repeat = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--git-sha" => args.git_sha = value()?,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.seconds == 0.0 {
        // `--smoke` keeps every workload under five seconds.
        args.seconds = if args.smoke {
            1.0
        } else {
            spec::RUN_SECONDS as f64
        };
    }
    Ok(args)
}

/// Measures one workload in this process and prints its result line.
fn run_one(args: &Args, name: &str) -> ExitCode {
    let Some(wl) = spec::workload(name) else {
        let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name:?}; known: {}", known.join(", "));
        return ExitCode::from(2);
    };
    let wl = if args.smoke { wl.shrunk() } else { *wl };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: args.out_dir.clone(),
    };
    println!(
        "# workload={} seed={} seconds={} trace={} smoke={}",
        wl.name,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        args.smoke
    );
    println!(
        "# nproc={} kern={} par_workers={} git={} load1={:.2}",
        sys::nproc(),
        simpim_kern::backend_name(),
        simpim_par::thread_count(),
        args.git_sha,
        sys::load_average()
    );
    let report = match wl.kind {
        Kind::Kmeans { .. } => kmeans::run(&run, &wl),
        _ => knn::run(&run, &wl),
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for problem in &report.problems {
        println!("# PROBLEM: {problem}");
    }
    let metrics = report::metrics_for(run.trace);
    print!("{}", report.table(metrics));
    println!("{}", report.result_line(metrics));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", spec::describe().to_string_pretty());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_one(&args, name),
        None => suite::run(&args),
    }
}
