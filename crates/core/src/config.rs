//! Allocator configuration: the strategy axes evaluated in the paper.

use lesgs_ir::MachineConfig;

/// When register saves are emitted (§2.1, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SaveStrategy {
    /// The paper's contribution: save as soon as a call is inevitable
    /// (the revised `S_t`/`S_f` placement), never on call-free paths.
    #[default]
    Lazy,
    /// "The early strategy eliminates all redundant saves \[but\]
    /// generates unnecessary saves in non-syntactic leaf routines":
    /// save at procedure entry everything any call needs.
    Early,
    /// "The late save strategy places register saves immediately before
    /// calls … generates redundant saves along paths with multiple
    /// calls."
    Late,
}

/// When saved registers are reloaded (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestoreStrategy {
    /// Restore immediately after each call every register possibly
    /// referenced before the next call. Extra restores, but loads issue
    /// early enough to hide memory latency.
    #[default]
    Eager,
    /// Restore just before a reference is inevitable (and at save-region
    /// exits, Figure 2c). Fewer restores, later loads.
    Lazy,
}

/// How call arguments are ordered (§2.3, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShuffleStrategy {
    /// Dependency-graph ordering with greedy cycle breaking.
    #[default]
    Greedy,
    /// Fixed left-to-right evaluation; a temporary whenever a later
    /// argument still reads the target register (the pre-shuffling
    /// baseline of §4: "the performance actually decreased after two
    /// argument registers").
    FixedOrder,
}

/// Which register-save discipline user variables live under (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discipline {
    /// Variables in caller-save (argument) registers; saves placed
    /// around calls by the lazy/early/late machinery.
    #[default]
    CallerSave,
    /// Variables in callee-save registers (`k0`–`k5`); the function
    /// saves the callee-save registers it uses and moves parameters
    /// into them. The save strategy then decides *where*: `Early` at
    /// entry (the C compiler model of Table 4/5), `Lazy` at
    /// inevitable-call regions.
    CalleeSave,
}

/// Complete allocator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocConfig {
    /// Register file configuration (the paper's `c` and `l`).
    pub machine: MachineConfig,
    /// Save placement strategy.
    pub save: SaveStrategy,
    /// Restore placement strategy.
    pub restore: RestoreStrategy,
    /// Argument shuffling strategy.
    pub shuffle: ShuffleStrategy,
    /// Save discipline.
    pub discipline: Discipline,
    /// Annotate branches with the §6 static prediction heuristic
    /// ("paths without calls are assumed to be more likely").
    pub branch_prediction: bool,
}

impl AllocConfig {
    /// The paper's headline configuration: lazy saves, eager restores,
    /// greedy shuffling, six argument registers, caller-save.
    pub fn paper_default() -> AllocConfig {
        AllocConfig::default()
    }

    /// The Table 3 baseline: no argument registers. Saves/restores
    /// still use the default strategies for `ret`/`cp`.
    pub fn baseline() -> AllocConfig {
        AllocConfig {
            machine: MachineConfig::baseline(),
            ..AllocConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AllocConfig::paper_default();
        assert_eq!(c.save, SaveStrategy::Lazy);
        assert_eq!(c.restore, RestoreStrategy::Eager);
        assert_eq!(c.shuffle, ShuffleStrategy::Greedy);
        assert_eq!(c.discipline, Discipline::CallerSave);
        assert_eq!(c.machine.num_arg_regs, 6);
        assert!(!c.branch_prediction);
    }

    #[test]
    fn baseline_has_no_arg_regs() {
        assert_eq!(AllocConfig::baseline().machine.num_arg_regs, 0);
    }
}
