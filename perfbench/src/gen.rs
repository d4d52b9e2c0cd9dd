//! `generated_code`: the seven Figure 2 programs' build-time native code on
//! seeded 1 MiB inputs — the optimized route, timed alongside the
//! unoptimized route and the handwritten baseline. No compiler layer runs
//! in the timed window.
//!
//! RISC-V dynamic instruction counts (full pipeline, summed over the
//! checker's concretized inputs) are measured during set-up with
//! `rv_route_stats`. The oracle requires every series to return the
//! handwritten checksum and leave the handwritten buffer.

use std::time::Instant;

use rupicola_bench::rvsupport::rv_route_stats;
use rupicola_bench::{fig2_rows, make_input, make_text_input, Driver};
use rupicola_core::check::CheckConfig;
use rupicola_programs::suite;

use crate::calib::Calibrator;
use crate::stats::{geomean, median, Rng};
use crate::trace::Recorder;
use crate::{E2e, Outcome};

/// Input size per call (Figure 2's 1 MiB).
const INPUT_BYTES: usize = 1 << 20;

/// The three timed series, in the order their span layers are named.
const SERIES: [&str; 3] = ["gen", "unopt", "hand"];

struct Program {
    name: &'static str,
    drivers: [Driver; 3],
    input: Vec<u8>,
    checksum: u64,
    output: Vec<u8>,
    dyn_instrs: u64,
}

/// Everything the timed loop needs, built during set-up.
pub struct Setup {
    programs: Vec<Program>,
    buf: Vec<u8>,
    rng: Rng,
}

/// One round: every (program, series) pair once, in a seeded order.
struct Round {
    traced: bool,
    /// `nanos[program][series]`.
    nanos: Vec<[f64; 3]>,
}

/// Builds the seeded inputs and the handwritten answers, lowers every
/// program to RISC-V for the dynamic counts, and runs one untimed round.
///
/// # Errors
///
/// A program that fails to compile or lower (the counts need both).
pub fn setup(seed: u64) -> Result<Setup, String> {
    let mut rng = Rng::new(seed, 0x6E4);
    let config = CheckConfig::default();
    let entries = suite();
    let mut programs = Vec::new();
    for row in fig2_rows() {
        let input_seed = rng.next_u64();
        let input = if row.text_input {
            make_text_input(input_seed, INPUT_BYTES)
        } else {
            make_input(input_seed, INPUT_BYTES)
        };
        let mut output = input.clone();
        let checksum = (row.handwritten)(&mut output);
        let entry = entries
            .iter()
            .find(|e| e.info.name == row.name)
            .ok_or_else(|| format!("{} is not in the suite", row.name))?;
        let cf = (entry.compiled)().map_err(|e| format!("{}: {e}", row.name))?;
        let dyn_instrs = rv_route_stats(row.name, &cf, &config)?.full_executed;
        programs.push(Program {
            name: row.name,
            drivers: [row.optimized, row.generated, row.handwritten],
            input,
            checksum,
            output,
            dyn_instrs,
        });
    }
    let mut s = Setup {
        programs,
        buf: Vec::with_capacity(INPUT_BYTES),
        rng,
    };
    // A wrong answer here recurs, and is counted, in the timed rounds.
    round(
        &mut s,
        &mut Recorder::new(Instant::now()),
        &mut 0,
        &mut Vec::new(),
    );
    Ok(s)
}

fn round(s: &mut Setup, rec: &mut Recorder, request: &mut u64, errors: &mut Vec<String>) -> Round {
    let mut order: Vec<(usize, usize)> = (0..s.programs.len())
        .flat_map(|p| (0..SERIES.len()).map(move |k| (p, k)))
        .collect();
    s.rng.shuffle(&mut order);
    let mut r = Round {
        traced: rec.enabled(),
        nanos: vec![[0.0; 3]; s.programs.len()],
    };
    for (p, k) in order {
        let prog = &s.programs[p];
        s.buf.clear();
        s.buf.extend_from_slice(&prog.input);
        let driver = std::hint::black_box(prog.drivers[k]);
        let t0 = Instant::now();
        let checksum = driver(std::hint::black_box(&mut s.buf));
        let t1 = Instant::now();
        rec.record(SERIES[k], prog.name, t0, t1, None, *request);
        *request += 1;
        r.nanos[p][k] = (t1 - t0).as_nanos() as f64;
        if std::hint::black_box(checksum) != prog.checksum {
            errors.push(format!(
                "{}.{}: checksum {checksum:#x}, handwritten {:#x}",
                SERIES[k], prog.name, prog.checksum
            ));
        } else if s.buf != prog.output {
            errors.push(format!(
                "{}.{}: buffer differs from the handwritten one",
                SERIES[k], prog.name
            ));
        }
    }
    r
}

/// Median nanoseconds per byte of `series` for every program.
fn ns_per_byte(rounds: &[&Round], programs: usize, series: usize) -> Vec<f64> {
    (0..programs)
        .map(|p| {
            let v: Vec<f64> = rounds.iter().map(|r| r.nanos[p][series]).collect();
            median(&v) / INPUT_BYTES as f64
        })
        .collect()
}

/// Throughput is the optimized route's geomean; latency is its slowest
/// program, so the two gates do not carry one figure twice.
fn e2e(rounds: &[&Round], programs: usize) -> E2e {
    let gen = ns_per_byte(rounds, programs, 0);
    let unopt = geomean(&ns_per_byte(rounds, programs, 1));
    let mib_ms = INPUT_BYTES as f64 / 1e6;
    E2e {
        throughput_per_s: 1e9 / geomean(&gen),
        latency_ms: gen.iter().copied().fold(0.0, f64::max) * mib_ms,
        slow_path_ms: unopt * mib_ms,
    }
}

/// Runs the timed loop for `seconds`. Between rounds the calibration
/// kernel runs every [`crate::calib::EVERY_MS`]. In a traced run, rounds
/// alternate between untraced and traced.
pub fn run(
    mut s: Setup,
    seconds: f64,
    trace: bool,
    rec: &mut Recorder,
    cal: &mut Calibrator,
) -> Outcome {
    let mut rounds = Vec::new();
    let mut outcome = Outcome::default();
    let mut request = 0;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        rec.set_enabled(trace && rounds.len() % 2 == 1);
        let mut errors = Vec::new();
        let r = round(&mut s, rec, &mut request, &mut errors);
        outcome.attempted += (s.programs.len() * SERIES.len()) as u64;
        outcome.failed += errors.len() as u64;
        outcome.errors.extend(errors);
        rounds.push(r);
        cal.tick();
    }
    rec.set_enabled(false);
    let n = s.programs.len();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    outcome.e2e = e2e(&untraced, n);
    let over_hand = |rs: &[&Round]| {
        let gen = ns_per_byte(rs, n, 0);
        let hand = ns_per_byte(rs, n, 2);
        geomean(
            &gen.iter()
                .zip(&hand)
                .map(|(g, h)| g / h)
                .collect::<Vec<_>>(),
        )
    };
    let rv_total: u64 = s.programs.iter().map(|p| p.dyn_instrs).sum();
    outcome.notes.push(format!(
        "generated_code: {} rounds of {n} programs x 3 series on 1 MiB; gen_ns_per_byte {:.4}, \
         gen_over_hand {:.4}, rv_dyn_instrs {rv_total}",
        untraced.len(),
        1e9 / outcome.e2e.throughput_per_s,
        over_hand(&untraced),
    ));
    if !trace {
        return outcome;
    }
    outcome.traced_e2e = Some(e2e(&traced, n));
    // Per-series rows come from the traced rounds' driver spans.
    let mut spans: Vec<[Vec<f64>; 3]> = (0..n).map(|_| Default::default()).collect();
    for sp in rec.spans() {
        let (Some(p), Some(k)) = (
            s.programs.iter().position(|p| p.name == sp.item),
            SERIES.iter().position(|l| *l == sp.layer),
        ) else {
            continue;
        };
        spans[p][k].push((sp.end - sp.start) as f64);
    }
    let layers = &mut outcome.layers;
    for (p, prog) in s.programs.iter().enumerate() {
        for (k, series) in SERIES.iter().enumerate() {
            layers.insert(
                format!("{series}.{}.ns_per_byte", prog.name),
                median(&spans[p][k]) / INPUT_BYTES as f64,
            );
        }
        layers.insert(
            format!("rv.{}.dyn_instrs", prog.name),
            prog.dyn_instrs as f64,
        );
    }
    layers.insert("gen.over_hand".into(), over_hand(&traced));
    layers.insert("rv.dyn_instrs".into(), rv_total as f64);
    outcome
}
