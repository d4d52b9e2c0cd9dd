//! One translation-validated chain of untrusted steps — the opt passes
//! over a Bedrock2 body, the RISC-V stages over a machine artifact (paper
//! §5; CompCert's back-end is likewise one chain of checked passes).
//!
//! Every step runs under [`catch_quiet`] and its output is sorted into
//! [`Output`]s. [`composed`] runs every step unvalidated and validates the
//! composed value once; only when that fails does it re-walk the chain
//! step by step ([`stepwise`]), reusing the step outputs up to and
//! including the first rollback. Nothing here is trusted: soundness rests
//! on the caller's validator, and a value is kept only once the validator
//! accepts it. Unchanged steps are never validated.

use crate::engine::{catch_quiet, panic_message};

/// What one step made of its input, before validation.
#[derive(Debug, PartialEq, Eq)]
pub enum Output<V, E> {
    /// The step returned an error or panicked; there is no candidate.
    Failed(E),
    /// The step produced nothing new, so there is nothing to validate.
    Unchanged,
    /// A changed candidate.
    Changed(V),
}

/// One step of a walk: its output, what it reported about itself, and the
/// validator's verdict on a changed candidate.
#[derive(Debug)]
pub struct Step<V, E, M> {
    /// What the step produced.
    pub output: Output<V, E>,
    /// What the step reported about its run (default when it failed).
    pub meta: M,
    /// The validator's rejection of a changed candidate; `None` when the
    /// candidate was kept or there was none.
    rejected: Option<E>,
}

impl<V, E, M> Step<V, E, M> {
    /// The candidate the walk kept, when the step changed its input and
    /// the validator accepted the result.
    pub fn kept(&self) -> Option<&V> {
        match &self.output {
            Output::Changed(candidate) if self.rejected.is_none() => Some(candidate),
            _ => None,
        }
    }

    /// Why the step was rolled back: its own failure or the validator's
    /// rejection.
    pub fn rolled_back(&self) -> Option<&E> {
        match &self.output {
            Output::Failed(err) => Some(err),
            _ => self.rejected.as_ref(),
        }
    }
}

/// A walk through a chain: the last accepted value and every step, in
/// order.
#[derive(Debug)]
pub struct Walk<V, E, M> {
    /// The last accepted value (the start value when nothing was kept).
    pub value: V,
    /// One entry per step.
    pub steps: Vec<Step<V, E, M>>,
}

/// One step of a chain (see [`Chain::step`]).
pub type StepFn<'a, V, E, M> = dyn Fn(usize, &V) -> Result<(Option<V>, M), E> + 'a;

/// Accepts or rejects a candidate value.
pub type Validator<'a, V, E> = dyn Fn(&V) -> Result<(), E> + 'a;

/// A way to walk a chain from a start value under a validator:
/// [`composed`] or [`stepwise`].
pub type Route<V, E, M> = fn(&Chain<'_, V, E, M>, &V, &Validator<'_, V, E>) -> Walk<V, E, M>;

/// A chain of `len` untrusted steps.
pub struct Chain<'a, V, E, M> {
    /// How many steps the chain has.
    pub len: usize,
    /// Runs step `i` over the last accepted value. `Ok((None, meta))` says
    /// the step rewrote nothing; `Ok((Some(v), meta))` is its output, which
    /// counts as a change only when it differs from the input.
    pub step: &'a StepFn<'a, V, E, M>,
    /// The typed failure of a step that panicked, given the panic message.
    pub panicked: fn(String) -> E,
}

/// Runs every step of `chain` from `start` unvalidated and validates the
/// composed value once. When a step changed something and the composed
/// value fails, falls back to the step-wise walk, reusing the outputs of
/// the steps up to and including the first rollback.
pub fn composed<V: Clone + PartialEq, E, M: Default>(
    chain: &Chain<'_, V, E, M>,
    start: &V,
    validate: &Validator<'_, V, E>,
) -> Walk<V, E, M> {
    let composed = chain.walk(start, &|_| Ok(()), Vec::new());
    if composed.steps.iter().any(|s| s.kept().is_some()) && validate(&composed.value).is_err() {
        chain.walk(start, validate, composed.steps)
    } else {
        composed
    }
}

/// Walks `chain` from `start`, validating every changed candidate, rolling
/// back each one `validate` rejects and continuing from the last accepted
/// value.
pub fn stepwise<V: Clone + PartialEq, E, M: Default>(
    chain: &Chain<'_, V, E, M>,
    start: &V,
    validate: &Validator<'_, V, E>,
) -> Walk<V, E, M> {
    chain.walk(start, validate, Vec::new())
}

impl<V: Clone + PartialEq, E, M: Default> Chain<'_, V, E, M> {
    /// Walks the chain from `start`, keeping each changed candidate
    /// `validate` accepts. The outputs in `known` are reused while the walk
    /// follows the trajectory they were computed on, that is up to and
    /// including its first rollback.
    fn walk(
        &self,
        start: &V,
        validate: &Validator<'_, V, E>,
        known: Vec<Step<V, E, M>>,
    ) -> Walk<V, E, M> {
        let mut value = start.clone();
        let mut steps = Vec::with_capacity(self.len);
        let mut known = known.into_iter();
        let mut on_track = true;
        for i in 0..self.len {
            let mut step = match known.next() {
                Some(step) if on_track => step,
                _ => self.run(i, &value),
            };
            if let Output::Changed(candidate) = &step.output {
                step.rejected = validate(candidate).err();
                match step.rejected {
                    None => value = candidate.clone(),
                    Some(_) => on_track = false,
                }
            }
            steps.push(step);
        }
        Walk { value, steps }
    }

    /// Runs step `i` under [`catch_quiet`] and sorts its output.
    fn run(&self, i: usize, input: &V) -> Step<V, E, M> {
        let (output, meta) = match catch_quiet(|| (self.step)(i, input)) {
            Err(payload) => {
                (Output::Failed((self.panicked)(panic_message(&*payload))), M::default())
            }
            Ok(Err(err)) => (Output::Failed(err), M::default()),
            Ok(Ok((Some(candidate), meta))) if candidate != *input => {
                (Output::Changed(candidate), meta)
            }
            Ok(Ok((_, meta))) => (Output::Unchanged, meta),
        };
        Step { output, meta, rejected: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// What step `i` does to its `Vec<u8>` input.
    #[derive(Clone, Copy)]
    enum Plan {
        Append,
        Same,
        Nothing,
        Fail,
        Panic,
    }
    use Plan::*;

    /// A walk, the step calls in order, and the number of validations.
    type Toy = (Walk<Vec<u8>, String, usize>, Vec<usize>, usize);

    /// Walks a toy chain of `plan` under a validator that rejects every
    /// value containing `poison`.
    fn toy(plan: &[Plan], poison: u8, composed: bool) -> Toy {
        let (calls, validations) = (RefCell::new(Vec::new()), Cell::new(0));
        let step = |i: usize, v: &Vec<u8>| {
            calls.borrow_mut().push(i);
            let out = match plan[i] {
                Append => [v.as_slice(), &[u8::try_from(i).unwrap()]].concat(),
                Same => v.clone(),
                Nothing => return Ok((None, i)),
                Fail => return Err(format!("step {i} failed")),
                Panic => panic!("step {i} blew up"),
            };
            Ok((Some(out), i))
        };
        let validate = |v: &Vec<u8>| {
            validations.set(validations.get() + 1);
            if v.contains(&poison) {
                Err(format!("contains {poison}"))
            } else {
                Ok(())
            }
        };
        let chain = Chain { len: plan.len(), step: &step, panicked: |s| s };
        let route: Route<_, _, _> = if composed { super::composed } else { stepwise };
        let walk = route(&chain, &Vec::new(), &validate);
        (walk, calls.into_inner(), validations.get())
    }

    const FIVE: [Plan; 5] = [Append; 5];

    #[test]
    fn a_valid_composed_run_is_validated_exactly_once() {
        let (walk, calls, validations) = toy(&FIVE, 9, true);
        assert_eq!(walk.value, vec![0, 1, 2, 3, 4]);
        assert_eq!((calls.len(), validations), (5, 1));
        assert!(walk.steps.iter().all(|s| s.kept().is_some() && s.rolled_back().is_none()));
    }

    #[test]
    fn a_failing_step_is_rolled_back_and_later_steps_continue() {
        for composed in [true, false] {
            let (walk, _, _) = toy(&FIVE, 2, composed);
            assert_eq!(walk.value, vec![0, 1, 3, 4], "composed={composed}");
            let rolled: Vec<bool> = walk.steps.iter().map(|s| s.rolled_back().is_some()).collect();
            assert_eq!(rolled, vec![false, false, true, false, false]);
            assert_eq!(walk.steps[2].rejected.as_deref(), Some("contains 2"));
        }
    }

    #[test]
    fn the_fallback_reuses_outputs_through_the_first_rollback() {
        let (fallback, calls, validations) = toy(&FIVE, 2, true);
        // Steps 0–2 (2 is the first rollback) are reused; 3 and 4 see a
        // different input and run again.
        assert_eq!(calls, vec![0, 1, 2, 3, 4, 3, 4]);
        // The composed value once, then each changed candidate once.
        assert_eq!(validations, 1 + 5);
        assert_eq!(fallback.value, toy(&FIVE, 2, false).0.value);
    }

    #[test]
    fn a_panicking_step_becomes_a_typed_failure() {
        for composed in [true, false] {
            let (walk, _, _) = toy(&[Append, Panic, Fail, Append], 9, composed);
            assert_eq!(walk.value, vec![0, 3]);
            assert_eq!(walk.steps[1].output, Output::Failed("step 1 blew up".to_string()));
            assert_eq!(walk.steps[2].output, Output::Failed("step 2 failed".to_string()));
            let metas: Vec<usize> = walk.steps.iter().map(|s| s.meta).collect();
            assert_eq!(metas, vec![0, 0, 0, 3], "a failed step reports the default meta");
        }
    }

    #[test]
    fn an_unchanged_step_is_never_validated() {
        for composed in [true, false] {
            let (walk, _, validations) = toy(&[Same, Nothing], 9, composed);
            assert!(walk.steps.iter().all(|s| s.output == Output::Unchanged));
            assert_eq!(walk.steps[1].meta, 1, "an unchanged step keeps its meta");
            assert_eq!(validations, 0, "composed={composed}");
            // Only the composed value, or step 2's candidate, is validated.
            assert_eq!(toy(&[Same, Nothing, Append], 9, composed).2, 1);
        }
    }
}
