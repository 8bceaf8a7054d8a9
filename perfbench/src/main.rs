//! The repository benchmark: one command, two workloads, end-to-end
//! metrics on untraced runs and per-layer metrics on traced runs.
//!
//! ```text
//! bash perfbench/run.sh --workload <cold-sweep|routed-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is the result object; everything human-readable
//! goes to stderr. See `perfbench/README.md` for what each workload and
//! metric means.

mod cluster;
mod cold_sweep;
mod gen;
mod layers;
mod openloop;
mod routed_mixed;
mod sim_million;
mod stats;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub groupdet: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload run produced: the gated metrics plus the figures the
/// human-readable report names individually.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub figures: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn figure(&mut self, name: &str, unit: &'static str, value: f64) {
        self.figures.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }
}

pub const WORKLOADS: [&str; 2] = ["cold-sweep", "routed-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    groupdet: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut groupdet = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--groupdet" => groupdet = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        groupdet: groupdet.ok_or("--groupdet is required")?,
    })
}

/// A fingerprint of the sources this run was built from: the git commit
/// when the checkout has one, else an FNV-1a digest over the workspace
/// manifest, lock file and crate sources.
fn source_id() -> String {
    if let Ok(head) = std::fs::read_to_string(".git/HEAD") {
        let head = head.trim();
        let commit = match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
            None => head.to_string(),
        };
        if !commit.trim().is_empty() {
            return format!("git:{}", commit.trim());
        }
    }
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.display().to_string().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src:{hash:016x}")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A run that overstays its budget is abandoned: children are killed
    // and reaped, and no result is printed.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(170));
        eprintln!("perfbench: watchdog expired, abandoning the run");
        cluster::kill_registered();
        std::process::exit(3);
    });
    eprintln!(
        "perfbench: run {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"commit\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        source_id()
    );
    let ctx = Ctx {
        groupdet: args.groupdet,
        seed: args.seed,
        seconds: args.seconds,
    };
    let result = if args.trace {
        layers::traced(&ctx, &args.workload)
    } else {
        match args.workload.as_str() {
            "cold-sweep" => cold_sweep::run(&ctx),
            _ => routed_mixed::run(&ctx),
        }
    };
    match result {
        Ok(outcome) => {
            for m in outcome.figures.iter().chain(&outcome.metrics) {
                eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
            }
            let metrics = outcome
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
                .collect::<Vec<_>>()
                .join(",");
            println!(
                "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
                outcome.attempted, outcome.failed
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            println!("{{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{{}}}}");
            ExitCode::from(1)
        }
    }
}
