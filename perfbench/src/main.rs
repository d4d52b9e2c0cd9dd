//! The repository's benchmark: the certified route, the served warm/cold
//! mix and the generated code, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_compile|served_mix|generated_code> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Traced
//! runs write their spans under `.perfbench_run/`.
//! `--print-manifest` prints the `BENCHMARK.json` this benchmark declares.
//! See README.md for the workloads and metrics.

mod calib;
mod cold;
mod gen;
mod metrics;
mod oracle;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use rupicola_programs::parallel::on_deep_stack;

use crate::calib::Calibrator;
use crate::trace::Recorder;

/// Where traced runs write their spans and `served_mix` keeps its store,
/// relative to the working directory.
pub const RUN_DIR: &str = ".perfbench_run";

/// Set-ups per run: this process's own plus fresh child processes, so
/// one-time process state (suite tables, interner) is paid in every sample.
/// Children are probed until there are at least `SETUP_PROBES.0` of them and
/// their set-ups add up to `SETUP_PROBE_SECONDS`, or there are
/// `SETUP_PROBES.1`; a short set-up thus gets more samples. `setup_s` is
/// their median.
const SETUP_PROBES: (usize, usize) = (8, 48);
const SETUP_PROBE_SECONDS: f64 = 5.0;

/// The workload-specific figures behind the generic end-to-end metrics, in
/// wall-clock units; they are reported in kernel units (see `calib.rs`).
#[derive(Debug, Default, Clone, Copy)]
pub struct E2e {
    /// Units of work per second.
    pub throughput_per_s: f64,
    /// Typical latency of one unit of work.
    pub latency_ms: f64,
    /// Median latency of the workload's expensive path.
    pub slow_path_ms: f64,
}

/// What a workload's timed loop measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// End-to-end figures from the untraced blocks.
    pub e2e: E2e,
    /// End-to-end figures from the traced blocks (traced runs only).
    pub traced_e2e: Option<E2e>,
    /// Per-layer values (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Human-readable summary lines.
    pub notes: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Cold,
    Served,
    Gen,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold_compile" => Some(Workload::Cold),
            "served_mix" => Some(Workload::Served),
            "generated_code" => Some(Workload::Gen),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold_compile",
            Workload::Served => "served_mix",
            Workload::Gen => "generated_code",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

enum Mode {
    Manifest,
    Run(Args),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--print-manifest" => return Ok(Mode::Manifest),
            "--setup-probe" => setup_probe = true,
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(metrics::RUN_SECONDS as f64),
        trace: trace.unwrap_or(false),
        setup_probe,
    }))
}

/// What one set-up (and, outside a probe, one timed run) produced.
type SetupAndRun = (f64, Option<(Outcome, Recorder, Calibrator)>);

/// Sets the workload up, timing it, and unless this is a set-up probe runs
/// the timed loop.
fn setup_and_run(a: &Args) -> Result<SetupAndRun, String> {
    fn go<S>(
        a: &Args,
        setup: impl FnOnce() -> Result<S, String>,
        run: fn(S, f64, bool, &mut Recorder, &mut Calibrator) -> Outcome,
    ) -> Result<SetupAndRun, String> {
        let t0 = Instant::now();
        let state = setup()?;
        let secs = t0.elapsed().as_secs_f64();
        if a.setup_probe {
            drop(state);
            return Ok((secs, None));
        }
        let mut cal = Calibrator::new();
        cal.sample();
        let mut rec = Recorder::new(Instant::now());
        let outcome = run(state, a.seconds, a.trace, &mut rec, &mut cal);
        cal.sample();
        Ok((secs, Some((outcome, rec, cal))))
    }
    match a.workload {
        Workload::Cold => go(a, || cold::setup(a.seed), cold::run),
        Workload::Served => go(a, || served::setup(a.seed), served::run),
        Workload::Gen => go(a, || gen::setup(a.seed), gen::run),
    }
}

/// Times one set-up in a fresh child process.
fn probe_setup(a: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            a.workload.name(),
            "--seed",
            &a.seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up probe exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse::<f64>()
        .map_err(|e| format!("set-up probe printed `{}`: {e}", text.trim()))
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn run(a: Args) -> Result<(), String> {
    if a.setup_probe {
        let (secs, _) = on_deep_stack(|| setup_and_run(&a))?;
        println!("{secs}");
        return Ok(());
    }

    let mut setup_samples = Vec::new();
    while setup_samples.len() < SETUP_PROBES.0
        || (setup_samples.len() < SETUP_PROBES.1
            && setup_samples.iter().sum::<f64>() < SETUP_PROBE_SECONDS)
    {
        setup_samples.push(probe_setup(&a)?);
    }
    let (own_setup, measured) = on_deep_stack(|| setup_and_run(&a))?;
    let (outcome, rec, cal) = measured.ok_or("no timed run")?;
    let ku_ms = cal.kernel_ms();
    setup_samples.push(own_setup);
    let setup_s = stats::median(&setup_samples);
    let peak = peak_rss_mib()?;

    for note in &outcome.notes {
        println!("{note}");
    }
    println!("set-up seconds (children, then this process): {setup_samples:?}");
    println!(
        "calibration kernel: median {ku_ms:.4} ms over {} runs (1 ku)",
        cal.runs()
    );
    for e in outcome.errors.iter().take(10) {
        eprintln!("perfbench: FAILED: {e}");
    }

    let mut values: Vec<(String, f64, &'static str)> = Vec::new();
    if a.trace {
        let path =
            Path::new(RUN_DIR).join(format!("trace-{}-seed{}.jsonl", a.workload.name(), a.seed));
        rec.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", rec.spans().len(), path.display());
        let traced = outcome.traced_e2e.unwrap_or_default();
        let base = outcome.e2e;
        let mut layers = outcome.layers;
        layers.insert("calib.kernel_ms".into(), ku_ms);
        layers.insert(
            "trace.latency_overhead_frac".into(),
            stats::ratio(traced.latency_ms, base.latency_ms) - 1.0,
        );
        layers.insert(
            "trace.throughput_overhead_frac".into(),
            stats::ratio(base.throughput_per_s, traced.throughput_per_s) - 1.0,
        );
        for m in metrics::per_layer() {
            let v = layers.get(&m.name).copied().unwrap_or(0.0);
            values.push((m.name, v, m.unit));
        }
    } else {
        let e = outcome.e2e;
        let attempted = outcome.attempted.max(1) as f64;
        let by_name: BTreeMap<&str, f64> = [
            ("setup_s", setup_s),
            ("peak_rss_mib", peak),
            (
                "ok_frac",
                1.0 - outcome.failed.min(outcome.attempted) as f64 / attempted,
            ),
            ("throughput_per_ku", e.throughput_per_s * ku_ms / 1e3),
            ("latency_ku", e.latency_ms / ku_ms),
            ("slow_path_ku", e.slow_path_ms / ku_ms),
        ]
        .into_iter()
        .collect();
        for m in metrics::end_to_end() {
            let v = by_name[m.name.as_str()];
            if !(v.is_finite() && v > 0.0) {
                return Err(format!(
                    "{} measured {v}; the run was too short to measure it",
                    m.name
                ));
            }
            values.push((m.name, v, m.unit));
        }
    }
    for (name, v, unit) in &values {
        println!("{name} = {} {unit}", number(*v));
    }
    let metrics_json: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json.join(", ")
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv) {
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
        Ok(Mode::Manifest) => {
            print!("{}", metrics::manifest());
            0
        }
        Ok(Mode::Run(a)) => match run(a) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}
