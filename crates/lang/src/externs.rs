//! The open extension point of the source language.
//!
//! Rupicola's input language is extensible: users plug in new Gallina
//! definitions together with compilation lemmas. In this Rust rendition a
//! new pure operation is an [`ExternOp`] — a name, an evaluator (its
//! *semantics*), and optionally an unfolding into core syntax (the analog of
//! the paper's "unfolding hint that allows Rupicola to inline the function").
//! Compilation support for the operation is added separately, as a lemma in
//! the hint database of `rupicola-core`.

use crate::ast::Expr;
use crate::eval::EvalError;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The evaluator of a pure extern operation.
pub type ExternEval = Arc<dyn Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync>;

/// The handler of a free-monad command: takes argument values, returns the
/// result value plus the words recorded on the event trace.
pub type EffectHandler =
    Arc<dyn Fn(&[Value]) -> Result<(Value, Vec<u64>), EvalError> + Send + Sync>;

/// A user-registered pure operation.
#[derive(Clone)]
pub struct ExternOp {
    /// Operation name, matched by [`Expr::Extern`]'s `tag`.
    pub tag: String,
    /// Number of arguments.
    pub arity: usize,
    /// Semantics.
    pub eval: ExternEval,
    /// Optional unfolding into core syntax: given the (syntactic) arguments,
    /// produce an equivalent core expression. Used by compilation lemmas that
    /// inline the operation instead of providing bespoke code for it.
    pub unfold: Option<UnfoldFn>,
}

/// An unfolding of an extern operation into core syntax.
pub type UnfoldFn = Arc<dyn Fn(&[Expr]) -> Expr + Send + Sync>;

impl fmt::Debug for ExternOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExternOp")
            .field("tag", &self.tag)
            .field("arity", &self.arity)
            .field("unfold", &self.unfold.is_some())
            .finish()
    }
}

/// Registry of extern operations and free-monad effect handlers.
///
/// A registry is part of the evaluation environment: `Expr::Extern` nodes
/// look up their semantics here, and `Expr::FreeOp` nodes look up their
/// effect handlers.
#[derive(Clone, Default)]
pub struct ExternRegistry {
    ops: HashMap<String, ExternOp>,
    effects: HashMap<String, EffectHandler>,
}

impl fmt::Debug for ExternRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExternRegistry")
            .field("ops", &self.ops.keys().collect::<Vec<_>>())
            .field("effects", &self.effects.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ExternRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a pure operation. Replaces any previous operation with the
    /// same tag.
    pub fn register(&mut self, op: ExternOp) {
        self.ops.insert(op.tag.clone(), op);
    }

    /// Registers a pure operation from a plain function.
    pub fn register_fn<F>(&mut self, tag: &str, arity: usize, eval: F)
    where
        F: Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync + 'static,
    {
        self.register(ExternOp {
            tag: tag.to_string(),
            arity,
            eval: Arc::new(eval),
            unfold: None,
        });
    }

    /// Registers a free-monad effect handler.
    pub fn register_effect<F>(&mut self, tag: &str, handler: F)
    where
        F: Fn(&[Value]) -> Result<(Value, Vec<u64>), EvalError> + Send + Sync + 'static,
    {
        self.effects.insert(tag.to_string(), Arc::new(handler));
    }

    /// Looks up a pure operation.
    pub fn op(&self, tag: &str) -> Option<&ExternOp> {
        self.ops.get(tag)
    }

    /// Looks up a free-monad effect handler.
    pub fn effect(&self, tag: &str) -> Option<&EffectHandler> {
        self.effects.get(tag)
    }

    /// Whether no operation and no effect handler is registered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.effects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_eval_extern() {
        let mut reg = ExternRegistry::new();
        reg.register_fn("double", 1, |args| {
            let w = args[0].as_word().ok_or(EvalError::TypeMismatch {
                expected: "word",
                found: args[0].kind(),
                context: "double",
            })?;
            Ok(Value::Word(w.wrapping_mul(2)))
        });
        let op = reg.op("double").expect("registered");
        assert_eq!(op.arity, 1);
        assert_eq!((op.eval)(&[Value::Word(21)]).unwrap(), Value::Word(42));
        assert!(reg.op("missing").is_none());
    }

    #[test]
    fn register_effect_handler() {
        let mut reg = ExternRegistry::new();
        reg.register_effect("beep", |_args| Ok((Value::Unit, vec![7])));
        let h = reg.effect("beep").expect("registered");
        assert_eq!(h(&[]).unwrap(), (Value::Unit, vec![7]));
    }
}
