//! Output oracles for the compiled programs.
//!
//! Every program of the route gets seeded inputs inside its precondition,
//! and the expected outputs come from the program's handwritten
//! `reference` function, never from the compiler under test. A compiled
//! body (certified or optimized Bedrock2, run on the interpreter) or a
//! RISC-V artifact (run on the simulator) is correct on a case when its
//! return words and every in-place buffer equal the reference's.

use rupicola_bedrock::rv_compile::RvArtifact;
use rupicola_bedrock::{BFunction, ExecState, Interpreter, Memory, NoExternals, Program};
use rupicola_core::fnspec::{concretize, ConcreteCall};
use rupicola_core::CompiledFunction;
use rupicola_lang::Value;
use rupicola_programs::{
    chacha20_block, chacha_qr, crc32, ct_memcmp, ct_select, fasta, fnv1a, hex_dec, hex_enc, ip,
    m3s, poly_acc, upstr, utf8,
};
use rupicola_rv::{run_artifact, RV_FUEL};

use crate::stats::Rng;

/// Interpreter fuel per oracle run (calls plus loop iterations).
const FUEL: u64 = 1 << 24;

/// One seeded input with the reference's answer.
#[derive(Debug, Clone)]
pub struct Case {
    /// Model parameter values, in `model.params` order.
    pub values: Vec<Value>,
    /// Expected return words (empty for in-place programs).
    pub rets: Vec<u64>,
    /// Expected final bytes of each in-place parameter.
    pub regions: Vec<(&'static str, Vec<u8>)>,
}

fn bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn words32(rng: &mut Rng, len: usize) -> Vec<u32> {
    (0..len).map(|_| rng.next_u64() as u32).collect()
}

fn word_layout(words: &[u32]) -> Vec<u8> {
    words
        .iter()
        .flat_map(|w| u64::from(*w).to_le_bytes())
        .collect()
}

fn word_list(words: &[u32]) -> Value {
    Value::word_list(words.iter().map(|w| u64::from(*w)))
}

/// A seeded case for program `name`, or `None` for a program this oracle
/// does not know.
pub fn case(name: &str, rng: &mut Rng) -> Option<Case> {
    let len = 4 + rng.below(252);
    let scalar = |values: Vec<Value>, ret: u64| Case {
        values,
        rets: vec![ret],
        regions: vec![],
    };
    Some(match name {
        "fnv1a" => {
            let s = bytes(rng, len);
            scalar(vec![Value::byte_list(s.clone())], fnv1a::reference(&s))
        }
        "utf8" => {
            let s = bytes(rng, len);
            scalar(vec![Value::byte_list(s.clone())], utf8::reference(&s))
        }
        "upstr" => {
            let s = bytes(rng, len);
            Case {
                values: vec![Value::byte_list(s.clone())],
                rets: vec![],
                regions: vec![("s", upstr::reference(&s))],
            }
        }
        "m3s" => {
            let k = rng.next_u64() as u32;
            scalar(
                vec![Value::Word(u64::from(k))],
                u64::from(m3s::reference(k)),
            )
        }
        "ip" => {
            let s = bytes(rng, len & !1);
            scalar(
                vec![Value::byte_list(s.clone())],
                u64::from(ip::reference(&s)),
            )
        }
        "fasta" => {
            let s = bytes(rng, len);
            Case {
                values: vec![Value::byte_list(s.clone())],
                rets: vec![],
                regions: vec![("s", fasta::reference(&s))],
            }
        }
        "crc32" => {
            let s = bytes(rng, len);
            scalar(
                vec![Value::byte_list(s.clone())],
                u64::from(crc32::reference(&s)),
            )
        }
        "chacha20_block" => {
            let st: [u32; 16] = words32(rng, 16).try_into().expect("sixteen words");
            let mut out = st;
            chacha20_block::reference(&mut out);
            Case {
                values: vec![word_list(&st)],
                rets: vec![],
                regions: vec![("st", word_layout(&out))],
            }
        }
        "poly_acc" => {
            let s = bytes(rng, len);
            let r = rng.next_u64();
            scalar(
                vec![Value::byte_list(s.clone()), Value::Word(r)],
                poly_acc::reference(&s, r),
            )
        }
        "hex_enc" => {
            let s = bytes(rng, len);
            Case {
                values: vec![
                    Value::byte_list(s.clone()),
                    Value::byte_list(vec![0; 2 * len]),
                ],
                rets: vec![],
                regions: vec![("out", hex_enc::reference(&s))],
            }
        }
        "hex_dec" => {
            const DIGITS: &[u8] = b"0123456789abcdefABCDEF";
            let src: Vec<u8> = (0..2 * len)
                .map(|_| DIGITS[rng.below(DIGITS.len())])
                .collect();
            Case {
                values: vec![
                    Value::byte_list(src.clone()),
                    Value::byte_list(vec![0; len]),
                ],
                rets: vec![],
                regions: vec![("dst", hex_dec::reference(&src))],
            }
        }
        "ct_memcmp" => {
            let s = bytes(rng, len);
            let mut t = s.clone();
            if rng.below(2) == 0 {
                let at = rng.below(len);
                t[at] ^= 1 << rng.below(8);
            }
            scalar(
                vec![Value::byte_list(s.clone()), Value::byte_list(t.clone())],
                ct_memcmp::reference(&s, &t),
            )
        }
        "ct_select" => {
            let (c, x, y) = (rng.below(2) as u64, rng.next_u64(), rng.next_u64());
            scalar(
                vec![Value::Word(c), Value::Word(x), Value::Word(y)],
                ct_select::reference(c, x, y),
            )
        }
        "chacha_qr" => {
            let st: [u32; 4] = words32(rng, 4).try_into().expect("four words");
            let mut out = st;
            chacha_qr::reference(&mut out);
            Case {
                values: vec![word_list(&st)],
                rets: vec![],
                regions: vec![("st", word_layout(&out))],
            }
        }
        _ => return None,
    })
}

/// Compares one run's observations with the case's expectations.
fn compare(case: &Case, call: &ConcreteCall, rets: &[u64], mem: &Memory) -> Result<(), String> {
    if !case.rets.is_empty() && rets != case.rets.as_slice() {
        return Err(format!("returned {rets:x?}, reference {:x?}", case.rets));
    }
    for (param, want) in &case.regions {
        let base = call
            .regions
            .iter()
            .find(|r| r.param.as_str() == *param)
            .ok_or_else(|| format!("no region for `{param}`"))?
            .base;
        match mem.region(base) {
            Some(got) if got == want.as_slice() => {}
            Some(_) => return Err(format!("buffer `{param}` differs from the reference")),
            None => return Err(format!("buffer `{param}` was freed")),
        }
    }
    Ok(())
}

fn concretize_case(cf: &CompiledFunction, case: &Case) -> Result<ConcreteCall, String> {
    concretize(&cf.spec, &cf.model.params, &case.values)
}

/// Runs `body` (the certified or optimized Bedrock2 of `cf`) on the
/// interpreter over every case and checks it against the reference.
///
/// # Errors
///
/// The first failing case, described.
pub fn check_body(cf: &CompiledFunction, body: &BFunction, cases: &[Case]) -> Result<(), String> {
    let mut program = Program::new();
    for f in &cf.linked {
        program.insert(f.clone());
    }
    program.insert(body.clone());
    let interp = Interpreter::new(&program);
    for (i, case) in cases.iter().enumerate() {
        let call = concretize_case(cf, case)?;
        let mut state = ExecState::new(call.mem.clone());
        let rets = interp
            .call(&body.name, &call.args, &mut state, &mut NoExternals, FUEL)
            .map_err(|e| format!("case {i}: interpreter: {e}"))?;
        compare(case, &call, &rets, &state.mem).map_err(|e| format!("case {i}: Bedrock2: {e}"))?;
    }
    Ok(())
}

/// Runs a RISC-V artifact of `cf` on the simulator over every case and
/// checks it against the reference.
///
/// # Errors
///
/// The first failing case, described.
pub fn check_rv(
    cf: &CompiledFunction,
    artifact: &RvArtifact,
    cases: &[Case],
) -> Result<(), String> {
    for (i, case) in cases.iter().enumerate() {
        let call = concretize_case(cf, case)?;
        let mut mem = call.mem.clone();
        let out = run_artifact(artifact, &mut mem, &call.args, RV_FUEL)
            .map_err(|e| format!("case {i}: simulator: {e}"))?;
        compare(case, &call, &out.rets, &mem).map_err(|e| format!("case {i}: RISC-V: {e}"))?;
    }
    Ok(())
}
