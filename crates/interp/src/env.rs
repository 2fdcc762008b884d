//! Persistent environments (shared-tail linked frames).

use std::cell::RefCell;
use std::rc::Rc;

use lesgs_frontend::VarId;

use crate::value::{frees_container, Release, Value};

#[derive(Debug)]
struct EnvNode {
    var: VarId,
    val: RefCell<Value>,
    next: Env,
}

impl Drop for EnvNode {
    fn drop(&mut self) {
        let val = self.val.get_mut();
        if frees_container(val) || self.next.frees_frame() {
            let mut release = Release::default();
            release.value(std::mem::replace(val, Value::Void));
            release.env(std::mem::take(&mut self.next));
            release.run();
        }
    }
}

/// A lexical environment. Cloning is cheap (reference counted); frames
/// are shared between closures capturing the same scope.
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<EnvNode>>);

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Extends the environment with one binding.
    pub fn bind(&self, var: VarId, val: Value) -> Env {
        Env(Some(Rc::new(EnvNode {
            var,
            val: RefCell::new(val),
            next: self.clone(),
        })))
    }

    /// Extends with several bindings (left to right).
    pub fn bind_all(&self, vars: &[VarId], vals: Vec<Value>) -> Env {
        debug_assert_eq!(vars.len(), vals.len());
        let mut env = self.clone();
        for (v, val) in vars.iter().zip(vals) {
            env = env.bind(*v, val);
        }
        env
    }

    /// Reads a variable.
    pub fn get(&self, var: VarId) -> Option<Value> {
        let mut cur = &self.0;
        while let Some(node) = cur {
            if node.var == var {
                return Some(node.val.borrow().clone());
            }
            cur = &node.next.0;
        }
        None
    }

    /// Writes a variable (`set!`). Returns false if unbound.
    pub fn set(&self, var: VarId, val: Value) -> bool {
        let mut cur = &self.0;
        while let Some(node) = cur {
            if node.var == var {
                *node.val.borrow_mut() = val;
                return true;
            }
            cur = &node.next.0;
        }
        false
    }

    /// Whether dropping this handle frees its innermost frame.
    pub(crate) fn frees_frame(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|node| Rc::strong_count(node) == 1)
    }

    /// Empties the innermost frame when this handle is its last owner,
    /// returning the frame's value and the frames around it.
    pub(crate) fn take_frame(&mut self) -> Option<(Value, Env)> {
        let node = Rc::get_mut(self.0.as_mut()?)?;
        let val = std::mem::replace(node.val.get_mut(), Value::Void);
        Some((val, std::mem::take(&mut node.next)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_lookup() {
        let env = Env::empty();
        let x = VarId(0);
        let y = VarId(1);
        let env = env.bind(x, Value::Fixnum(1)).bind(y, Value::Fixnum(2));
        assert!(matches!(env.get(x), Some(Value::Fixnum(1))));
        assert!(matches!(env.get(y), Some(Value::Fixnum(2))));
        assert!(env.get(VarId(9)).is_none());
    }

    #[test]
    fn shadowing_finds_innermost() {
        let x = VarId(0);
        let env = Env::empty()
            .bind(x, Value::Fixnum(1))
            .bind(x, Value::Fixnum(2));
        assert!(matches!(env.get(x), Some(Value::Fixnum(2))));
    }

    #[test]
    fn set_mutates_shared_frames() {
        let x = VarId(0);
        let base = Env::empty().bind(x, Value::Fixnum(1));
        let extended = base.bind(VarId(1), Value::Nil);
        assert!(extended.set(x, Value::Fixnum(42)));
        assert!(matches!(base.get(x), Some(Value::Fixnum(42))));
        assert!(!extended.set(VarId(7), Value::Nil));
    }

    #[test]
    fn bind_all_orders_left_to_right() {
        let env = Env::empty().bind_all(
            &[VarId(0), VarId(1)],
            vec![Value::Fixnum(1), Value::Fixnum(2)],
        );
        assert!(matches!(env.get(VarId(0)), Some(Value::Fixnum(1))));
        assert!(matches!(env.get(VarId(1)), Some(Value::Fixnum(2))));
    }
}
