//! The abstract register machine.
//!
//! Register file layout (indices are [`Reg`] values):
//!
//! | index | name | role |
//! |-------|------|------|
//! | 0 | `ret` | return address; caller-save, managed by the allocator (§2.4) |
//! | 1 | `cp`  | closure pointer; caller-save, managed by the allocator |
//! | 2 | `rv`  | return value; never live across calls |
//! | 3–6 | `s0`–`s3` | scratch registers for local register allocation by the code generator ("Other registers are used for local register allocation", §1) |
//! | 7–12 | `a0`–`a5` | argument registers, also homes for user variables and compiler temporaries |
//!
//! The allocator's save/restore analysis covers `ret`, `cp`, and the
//! argument registers; `rv` and the scratch registers never hold values
//! across calls by construction.

use std::fmt;

use crate::regset::RegSet;

/// A machine register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

/// The return-address register.
pub const RET: Reg = Reg(0);
/// The closure-pointer register.
pub const CP: Reg = Reg(1);
/// The return-value register.
pub const RV: Reg = Reg(2);
/// Number of scratch registers available to the code generator.
pub const NUM_SCRATCH: usize = 4;
/// Maximum number of argument registers (as in the paper's evaluation).
pub const MAX_ARG_REGS: usize = 6;
/// Number of callee-save registers (used only by the callee-save
/// discipline of §2.4 and the Table 4/5 experiments).
pub const NUM_CALLEE_SAVE: usize = 6;
/// Total size of the register file.
pub const NUM_REGS: usize = 3 + NUM_SCRATCH + MAX_ARG_REGS + NUM_CALLEE_SAVE;

/// The `i`-th scratch register.
///
/// # Panics
///
/// Panics if `i >= NUM_SCRATCH`.
pub fn scratch_reg(i: usize) -> Reg {
    assert!(i < NUM_SCRATCH, "scratch register {i} out of range");
    Reg(3 + i as u8)
}

/// The `i`-th argument register.
///
/// # Panics
///
/// Panics if `i >= MAX_ARG_REGS`.
pub fn arg_reg(i: usize) -> Reg {
    assert!(i < MAX_ARG_REGS, "argument register {i} out of range");
    Reg((3 + NUM_SCRATCH + i) as u8)
}

/// The `i`-th callee-save register.
///
/// # Panics
///
/// Panics if `i >= NUM_CALLEE_SAVE`.
pub fn callee_reg(i: usize) -> Reg {
    assert!(i < NUM_CALLEE_SAVE, "callee-save register {i} out of range");
    Reg((3 + NUM_SCRATCH + MAX_ARG_REGS + i) as u8)
}

impl Reg {
    /// Index into per-register tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True for `a0`–`a5`.
    pub fn is_arg(self) -> bool {
        (3 + NUM_SCRATCH..3 + NUM_SCRATCH + MAX_ARG_REGS).contains(&self.index())
    }

    /// True for `k0`–`k5`.
    pub fn is_callee_save(self) -> bool {
        self.index() >= 3 + NUM_SCRATCH + MAX_ARG_REGS
    }

    /// The argument position of an argument register.
    pub fn arg_position(self) -> Option<usize> {
        self.is_arg().then(|| self.index() - 3 - NUM_SCRATCH)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "ret"),
            1 => write!(f, "cp"),
            2 => write!(f, "rv"),
            n if (n as usize) < 3 + NUM_SCRATCH => write!(f, "s{}", n - 3),
            n if (n as usize) < 3 + NUM_SCRATCH + MAX_ARG_REGS => {
                write!(f, "a{}", n as usize - 3 - NUM_SCRATCH)
            }
            n => write!(f, "k{}", n as usize - 3 - NUM_SCRATCH - MAX_ARG_REGS),
        }
    }
}

/// Configuration of the registers available to the allocator.
///
/// `num_arg_regs` is the paper's `c`: how many of `a0`–`a5` carry call
/// arguments. User variables and compiler temporaries may also take
/// homes in those registers (the paper's `l` registers); the baseline
/// configuration of Table 3 has none, so every variable lives on the
/// stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of argument registers (0–6), the paper's `c`.
    pub num_arg_regs: usize,
}

impl MachineConfig {
    /// The paper's headline configuration: six argument registers.
    pub fn six_registers() -> MachineConfig {
        MachineConfig {
            num_arg_regs: MAX_ARG_REGS,
        }
    }

    /// The Table 3 baseline: no argument registers, all variables on
    /// the stack.
    pub fn baseline() -> MachineConfig {
        MachineConfig { num_arg_regs: 0 }
    }

    /// A configuration with `c` argument registers.
    ///
    /// # Panics
    ///
    /// Panics if `c > MAX_ARG_REGS`.
    pub fn with_arg_regs(c: usize) -> MachineConfig {
        assert!(
            c <= MAX_ARG_REGS,
            "at most {MAX_ARG_REGS} argument registers"
        );
        MachineConfig { num_arg_regs: c }
    }

    /// The set of registers the save/restore analysis manages: `ret`,
    /// `cp`, and the configured argument registers.
    pub fn allocatable(&self) -> RegSet {
        let mut set = RegSet::EMPTY.insert(RET).insert(CP);
        for i in 0..self.num_arg_regs {
            set = set.insert(arg_reg(i));
        }
        set
    }

    /// The argument registers as a set.
    pub fn arg_regs(&self) -> RegSet {
        let mut set = RegSet::EMPTY;
        for i in 0..self.num_arg_regs {
            set = set.insert(arg_reg(i));
        }
        set
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::six_registers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_names() {
        assert_eq!(RET.to_string(), "ret");
        assert_eq!(CP.to_string(), "cp");
        assert_eq!(RV.to_string(), "rv");
        assert_eq!(scratch_reg(0).to_string(), "s0");
        assert_eq!(arg_reg(0).to_string(), "a0");
        assert_eq!(arg_reg(5).to_string(), "a5");
    }

    #[test]
    fn arg_positions() {
        assert_eq!(arg_reg(3).arg_position(), Some(3));
        assert_eq!(RET.arg_position(), None);
        assert!(arg_reg(0).is_arg());
        assert!(!RV.is_arg());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arg_reg_bounds() {
        let _ = arg_reg(6);
    }

    #[test]
    fn allocatable_sets() {
        let cfg = MachineConfig::with_arg_regs(2);
        let a = cfg.allocatable();
        assert!(a.contains(RET));
        assert!(a.contains(CP));
        assert!(a.contains(arg_reg(0)));
        assert!(a.contains(arg_reg(1)));
        assert!(!a.contains(arg_reg(2)));
        assert!(!a.contains(RV));
        assert_eq!(MachineConfig::baseline().arg_regs().len(), 0);
        assert_eq!(MachineConfig::six_registers().arg_regs().len(), 6);
    }
}
