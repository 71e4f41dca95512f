//! The repository benchmark: four Gauss-tree / Gauss-forest workloads,
//! end-to-end and per-layer metrics.
//!
//! ```text
//! perfbench --workload <ds1-warm|ds2-cold|drift-ingest|tree-upsert>
//!           --seed <n> --seconds <s> --trace <0|1> [--data-dir <dir>]
//! ```
//!
//! Every workload is a closed loop driven by one client thread. The run's
//! work is fixed by `--seed` and `--seconds` (operations = seconds × the
//! workload's nominal rate), so every count repeats exactly for a seed.
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` alternate blocks of operations are
//! traced (see [`trace`]), the unit-cost probes run, the spans are written
//! to `<data-dir>/trace-<workload>.tsv`, and the JSON carries the
//! per-layer metrics. `python3 perfbench/run.py` builds this binary and
//! forwards the same arguments; see `perfbench/README.md`.

mod calib;
mod ingest;
mod metrics;
mod oracle;
mod probes;
mod query;
mod stores;
mod trace;

use metrics::Outcome;
use std::path::PathBuf;

/// Everything a workload needs to know about the run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Run size: operations are `seconds × nominal rate`.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for store files and the trace (inside the
    /// checkout; removed at the end of the run except for the trace).
    pub dir: PathBuf,
    /// Shrinks every workload for the self-tests.
    pub small: bool,
}

impl Ctx {
    /// Whether operation `j` is recorded: a traced run alternates blocks
    /// of `block` operations between traced and untraced, so both halves
    /// see the same evolving state and their difference is the tracing
    /// overhead.
    #[must_use]
    pub fn traced(&self, j: usize, block: usize) -> bool {
        self.trace && (j / block).is_multiple_of(2)
    }
}

/// Mixes the workload seed into a per-purpose seed.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["ds1-warm", "ds2-cold", "drift-ingest", "tree-upsert"];

/// Runs one workload.
///
/// # Errors
/// Set-up failures (store creation, bulk load) and unknown workload names.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "ds1-warm" => query::run(query::Kind::Ds1Warm, ctx),
        "ds2-cold" => query::run(query::Kind::Ds2Cold, ctx),
        "drift-ingest" => ingest::run_forest(ctx),
        "tree-upsert" => ingest::run_tree(ctx),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let dir = get("--data-dir").map_or_else(
        |_| PathBuf::from(".bench_build/perfbench-data"),
        PathBuf::from,
    );
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = args
        .dir
        .join(format!("run-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: run_dir.clone(),
        small: false,
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {nproc} lock_tracking {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        gauss_storage::LOCK_TRACKING
    );
    if gauss_storage::LOCK_TRACKING {
        eprintln!(
            "perfbench: warning: lock-order tracking is compiled in; \
             timings are not comparable to a release build"
        );
    }
    let result = run_workload(&args.workload, &ctx);
    std::fs::remove_dir_all(&run_dir).ok();
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        // A malformed span tree would make every derived self time wrong.
        outcome.attempted += 1;
        if let Err(e) = trace::check(&outcome.spans) {
            outcome.failed += 1;
            outcome.notes.push(format!("trace: {e}"));
        }
        let path = args.dir.join(format!("trace-{}.tsv", args.workload));
        match trace::write_tsv(&outcome.spans, &path) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write trace: {e}"),
        }
    }
    for line in &outcome.notes {
        println!("# {line}");
    }
    let chosen = if args.trace {
        outcome.layers.list()
    } else {
        outcome.e2e.list()
    };
    for (name, value, unit) in &chosen {
        println!("{name:<40} {value:>14.4} {unit}");
    }
    println!("{}", metrics::result_json(&outcome, &chosen));
}

#[cfg(test)]
mod tests;
