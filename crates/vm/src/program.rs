//! Linked VM programs.

use lesgs_frontend::{Const, FuncId};

use crate::instr::Instr;

/// One compiled function.
#[derive(Debug, Clone)]
pub struct VmFunc {
    /// Function id (index into [`VmProgram::funcs`]).
    pub id: FuncId,
    /// Diagnostic name.
    pub name: String,
    /// Instructions.
    pub code: Vec<Instr>,
    /// Frame size in slots (callee frames start above this).
    pub frame_size: u32,
    /// Leading slots of the frame holding stack-passed incoming
    /// parameters (written by the caller, never poisoned).
    pub n_incoming: u32,
    /// Static leaf flag (no non-tail calls) — for activation
    /// classification.
    pub syntactic_leaf: bool,
    /// Every path makes a call (`ret ∈ S_t ∩ S_f`).
    pub call_inevitable: bool,
}

/// A complete linked program.
#[derive(Debug, Clone)]
pub struct VmProgram {
    /// All functions.
    pub funcs: Vec<VmFunc>,
    /// The entry function (a synthetic bootstrap that calls `main` and
    /// halts).
    pub entry: FuncId,
    /// Constant pool (materialized to shared values at machine start).
    pub constants: Vec<Const>,
    /// Number of global locations.
    pub n_globals: u32,
}

impl VmProgram {
    /// Looks up a function.
    pub fn func(&self, id: FuncId) -> &VmFunc {
        &self.funcs[id.index()]
    }

    /// Total instruction count (diagnostics).
    pub fn code_size(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }

    /// Renders a full disassembly listing.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for f in &self.funcs {
            let _ = writeln!(
                out,
                "{} ({}): frame={} leaf={} inevitable={}",
                f.id, f.name, f.frame_size, f.syntactic_leaf, f.call_inevitable
            );
            for (i, ins) in f.code.iter().enumerate() {
                let _ = writeln!(out, "  {i:4}: {ins}");
            }
        }
        out
    }
}
