//! Integration tests of the independent static-analysis layer: the full
//! benchmark suite must analyze clean, and seeded defects — in code, in
//! certificates, and in hint databases — must each be caught by the pass
//! responsible for them.

use rupicola::analysis::{
    analyze, analyze_with_dbs, lemma_lint, run_code_passes, AbsVal, Bound, FindingKind,
    MemEnv, ProbeSuite, Range, RegionInfo, Severity, SizeInfo,
};
use rupicola::bedrock::{AccessSize, BExpr, BFunction, BinOp, Cmd};
use rupicola::core::error::CompileError;
use rupicola::core::lemma::{Applied, HintDbs, StmtLemma};
use rupicola::core::{Compiler, StmtGoal};
use rupicola::ext::standard_dbs;
use rupicola::programs::suite;
use rupicola_core::CompiledFunction;

fn compiled(name: &str) -> CompiledFunction {
    let entry = suite()
        .into_iter()
        .find(|e| e.info.name == name)
        .unwrap_or_else(|| panic!("unknown program {name}"));
    (entry.compiled)().unwrap_or_else(|e| panic!("{name} failed to compile: {e}"))
}

/// A one-region environment: `s` points at a byte array of `min_count`-or-
/// more elements whose count is bound to `len`.
fn byte_array_env(min_count: u64) -> MemEnv {
    MemEnv {
        regions: vec![RegionInfo {
            name: "s".into(),
            elem_bytes: 1,
            size: SizeInfo::Sym { min_count },
        }],
        entry: vec![
            ("s".into(), AbsVal::Ptr { region: 0, off: Range::exact(0) }),
            (
                "len".into(),
                AbsVal::Num(Range {
                    lo: min_count,
                    hi: Bound::Sym { region: 0, scale: 1, shift: 0, delta: 0 },
                }),
            ),
        ],
        count_equal: Vec::new(),
    }
}

// --- positive: the whole suite is clean -----------------------------------

/// Every benchmark passes every lint, including certificate cross-checking
/// against the databases that compiled it.
#[test]
fn all_benchmarks_analyze_clean() {
    let dbs = standard_dbs();
    for entry in suite() {
        let name = entry.info.name;
        let cf = (entry.compiled)().unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = analyze_with_dbs(&cf, Some(&dbs));
        assert!(
            report.is_clean(),
            "{name} has findings:\n{report}"
        );
    }
}

/// The standard lemma library lints with warnings at most (lemmas serving
/// features beyond the benchmark corpus), never errors.
#[test]
fn lemma_library_has_no_errors() {
    let dbs = standard_dbs();
    let suites: Vec<ProbeSuite> = suite()
        .into_iter()
        .map(|e| {
            let cf = (e.compiled)().expect("compiles");
            ProbeSuite::from_compiled(&cf).expect("probe suite")
        })
        .collect();
    let findings = lemma_lint::run(&dbs, &suites);
    for f in &findings {
        assert_eq!(f.severity(), Severity::Warning, "library error: {f}");
    }
    // Cited lemmas must never be flagged unreachable.
    let mut cited = std::collections::BTreeSet::new();
    for s in &suites {
        s.derivation.root.walk(&mut |n| {
            cited.insert(n.lemma.clone());
        });
    }
    for f in &findings {
        if let FindingKind::UnreachableLemma { lemma } = &f.kind {
            assert!(!cited.contains(lemma.as_str()), "cited lemma flagged unreachable: {lemma}");
        }
    }
}

// --- seeded code defects, one per pass ------------------------------------

#[test]
fn seeded_use_before_def_is_flagged() {
    let f = BFunction::new(
        "f",
        ["s", "len"],
        ["out"],
        Cmd::set("out", BExpr::var("nowhere")),
    );
    let findings = run_code_passes(&f, &byte_array_env(0));
    assert!(
        findings.iter().any(|f| matches!(&f.kind, FindingKind::UseBeforeDef { var } if var == "nowhere")),
        "{findings:?}"
    );
}

#[test]
fn seeded_dead_store_is_flagged_with_site() {
    let f = BFunction::new(
        "f",
        ["s", "len"],
        ["out"],
        Cmd::seq([Cmd::set("tmp", BExpr::lit(3)), Cmd::set("out", BExpr::lit(0))]),
    );
    let findings = run_code_passes(&f, &byte_array_env(0));
    let dead: Vec<_> = findings
        .iter()
        .filter(|f| matches!(&f.kind, FindingKind::DeadStore { var } if var == "tmp"))
        .collect();
    assert_eq!(dead.len(), 1, "{findings:?}");
    assert_eq!(dead[0].site, Some(0));
}

#[test]
fn seeded_out_of_footprint_load_is_flagged() {
    // load1 at s + len: one past the end of the array.
    let f = BFunction::new(
        "f",
        ["s", "len"],
        ["out"],
        Cmd::set(
            "out",
            BExpr::load(
                AccessSize::One,
                BExpr::op(BinOp::Add, BExpr::var("s"), BExpr::var("len")),
            ),
        ),
    );
    let findings = run_code_passes(&f, &byte_array_env(4));
    assert!(
        findings.iter().any(|f| matches!(
            f.kind,
            FindingKind::UnprovenAccess | FindingKind::OutOfFootprint
        )),
        "{findings:?}"
    );
}

#[test]
fn seeded_table_overrun_is_flagged() {
    let f = BFunction::new(
        "f",
        ["s", "len"],
        ["out"],
        Cmd::set("out", BExpr::table(AccessSize::One, "T", BExpr::lit(4))),
    )
    .with_table(rupicola::bedrock::BTable { name: "T".into(), data: vec![0; 4] });
    let findings = run_code_passes(&f, &byte_array_env(0));
    assert!(
        findings
            .iter()
            .any(|f| matches!(&f.kind, FindingKind::TableOutOfBounds { table } if table == "T")),
        "{findings:?}"
    );
}

#[test]
fn seeded_stuck_loop_is_flagged() {
    let f = BFunction::new(
        "f",
        ["s", "len"],
        ["out"],
        Cmd::seq([
            Cmd::set("out", BExpr::lit(0)),
            Cmd::while_(BExpr::op(BinOp::LtU, BExpr::var("out"), BExpr::var("len")), Cmd::Skip),
        ]),
    );
    let findings = run_code_passes(&f, &byte_array_env(0));
    assert!(
        findings.iter().any(|f| matches!(f.kind, FindingKind::LoopNoProgress)),
        "{findings:?}"
    );
}

// --- seeded certificate defects -------------------------------------------

#[test]
fn stale_witness_counters_are_flagged() {
    let mut cf = compiled("fnv1a");
    cf.derivation.node_count += 1;
    let report = analyze(&cf);
    assert!(
        report.findings.iter().any(|f| matches!(f.kind, FindingKind::CertMismatch)),
        "{report}"
    );
}

#[test]
fn corrupted_inline_table_is_flagged() {
    let mut cf = compiled("crc32");
    cf.function.tables[0].data[7] ^= 0xff;
    let report = analyze(&cf);
    assert!(
        report.findings.iter().any(|f| matches!(f.kind, FindingKind::CertMismatch)),
        "{report}"
    );
}

#[test]
fn repointed_return_slot_is_flagged() {
    let mut cf = compiled("fnv1a");
    cf.function.rets = vec!["hijacked".into()];
    let report = analyze(&cf);
    assert!(
        report.findings.iter().any(|f| matches!(f.kind, FindingKind::CertMismatch)),
        "{report}"
    );
}

#[test]
fn unknown_cited_lemma_is_flagged() {
    let dbs = standard_dbs();
    let mut cf = compiled("fnv1a");
    cf.derivation.root.lemma = "no_such_lemma".into();
    let report = analyze_with_dbs(&cf, Some(&dbs));
    assert!(
        report
            .findings
            .iter()
            .any(|f| matches!(&f.kind, FindingKind::UnknownLemma { lemma } if lemma == "no_such_lemma")),
        "{report}"
    );
    // Without databases the citation cannot be checked; the rest still is.
    assert!(!analyze(&cf).findings.iter().any(|f| matches!(f.kind, FindingKind::UnknownLemma { .. })));
}

// --- seeded library defects -----------------------------------------------

struct NamedNoop(&'static str);

impl StmtLemma for NamedNoop {
    fn name(&self) -> &'static str {
        self.0
    }
    fn try_apply(
        &self,
        _goal: &StmtGoal,
        _cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        None
    }
}

struct CatchAll;

impl StmtLemma for CatchAll {
    fn name(&self) -> &'static str {
        "test_catch_all"
    }
    fn try_apply(
        &self,
        _goal: &StmtGoal,
        _cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        // Matches everything; committing would fail. The linter only
        // measures matching, with a budgeted throwaway compiler.
        Some(Err(CompileError::Internal("catch-all for lint tests".into())))
    }
}

#[test]
fn duplicate_lemma_names_are_flagged() {
    let mut dbs = HintDbs::new();
    dbs.register_stmt(NamedNoop("twice"));
    dbs.register_stmt(NamedNoop("twice"));
    let findings = lemma_lint::run(&dbs, &[]);
    assert!(
        findings
            .iter()
            .any(|f| matches!(&f.kind, FindingKind::DuplicateLemma { lemma } if lemma == "twice")),
        "{findings:?}"
    );
}

#[test]
fn shadowed_lemma_is_flagged() {
    // A lemma that matches every goal but is registered last: some earlier
    // lemma always matches first, and no derivation cites it.
    let mut dbs = standard_dbs();
    dbs.register_stmt(CatchAll);
    let cf = compiled("fnv1a");
    let suites = vec![ProbeSuite::from_compiled(&cf).expect("probe suite")];
    let findings = lemma_lint::run(&dbs, &suites);
    assert!(
        findings.iter().any(
            |f| matches!(&f.kind, FindingKind::ShadowedLemma { lemma } if lemma == "test_catch_all")
        ),
        "{findings:?}"
    );
    // Registered first instead, it matches first and is *not* shadowed
    // (it would be cited-or-first): the lint is order-sensitive.
    let mut front = standard_dbs();
    front.register_stmt_front(CatchAll);
    let findings = lemma_lint::run(&front, &suites);
    assert!(
        !findings
            .iter()
            .any(|f| matches!(&f.kind, FindingKind::ShadowedLemma { lemma } if lemma == "test_catch_all")),
        "{findings:?}"
    );
}

// --- the analyzer as a second line of defense -----------------------------

/// The analyzer (which never replays the derivation) still kills every
/// stale-counter structural mutant and every corrupted-table mutant of the
/// fault matrix, and a nonzero share of structural mutants overall.
#[test]
fn analyzer_kills_structural_mutants() {
    use rupicola::core::faultinject::{mutants, MutationClass};
    let cf = compiled("crc32");
    let mut structural = 0usize;
    let mut structural_killed = 0usize;
    for m in mutants(&cf) {
        let killed = analyze(&m.cf).has_errors();
        if m.class.is_structural() {
            structural += 1;
            if killed {
                structural_killed += 1;
            }
        }
        match m.class {
            MutationClass::DroppedSideCond
            | MutationClass::TruncatedDerivation
            | MutationClass::CorruptedTableBytes => {
                assert!(killed, "analyzer missed: [{}] {}", m.class, m.description);
            }
            _ => {}
        }
    }
    assert!(structural > 0);
    assert!(structural_killed > 0, "analyzer killed no structural mutants");
}
