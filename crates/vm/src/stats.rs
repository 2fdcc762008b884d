//! Execution statistics — the quantities the paper's evaluation
//! reports.
//!
//! [`RunStats`] is filled in by the executing [`crate::Machine`];
//! [`RunStats::record`] exports every counter into a
//! [`lesgs_metrics::Registry`] under the stable `vm.*` names
//! documented in OBSERVABILITY.md. Derived fractions use
//! [`lesgs_metrics::ratio`]: a fraction of zero activations is `0.0`.

use lesgs_metrics::{ratio, Registry};

use crate::instr::SlotClass;

/// The four activation classes of Table 2, numbered in Table 2 order
/// (`class as usize` indexes [`RunStats::activations`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationClass {
    /// Made no calls, and its procedure contains none.
    SyntacticLeaf,
    /// Made no calls at run time although its procedure contains some.
    NonSyntacticLeaf,
    /// Made calls, but call-free paths exist.
    NonSyntacticInternal,
    /// Made calls, and every path calls (`ret ∈ S_t ∩ S_f`).
    SyntacticInternal,
}

impl ActivationClass {
    /// All four classes in Table 2 order.
    pub const ALL: [ActivationClass; 4] = [
        ActivationClass::SyntacticLeaf,
        ActivationClass::NonSyntacticLeaf,
        ActivationClass::NonSyntacticInternal,
        ActivationClass::SyntacticInternal,
    ];

    /// Stable snake_case key used in metric names and JSON reports.
    pub fn key(self) -> &'static str {
        match self {
            ActivationClass::SyntacticLeaf => "syntactic_leaf",
            ActivationClass::NonSyntacticLeaf => "non_syntactic_leaf",
            ActivationClass::NonSyntacticInternal => "non_syntactic_internal",
            ActivationClass::SyntacticInternal => "syntactic_internal",
        }
    }

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            ActivationClass::SyntacticLeaf => "syntactic leaf",
            ActivationClass::NonSyntacticLeaf => "non-syntactic leaf",
            ActivationClass::NonSyntacticInternal => "non-syntactic internal",
            ActivationClass::SyntacticInternal => "syntactic internal",
        }
    }

    /// An *effective leaf* activation made no calls (leaf classes).
    pub fn is_effective_leaf(self) -> bool {
        matches!(
            self,
            ActivationClass::SyntacticLeaf | ActivationClass::NonSyntacticLeaf
        )
    }
}

/// Counters collected during a run. `PartialEq` is part of the
/// contract: differential tests assert classic-vs-decoded runs produce
/// *equal* stats, not merely similar ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Instructions executed.
    pub instructions: u64,
    /// Simulated cycles (cost model applied).
    pub cycles: u64,
    /// Cycles lost waiting on in-flight loads.
    pub stall_cycles: u64,
    /// Stack loads per class, indexed by `class as usize`.
    pub stack_loads: [u64; SlotClass::ALL.len()],
    /// Stack stores per class, indexed by `class as usize`.
    pub stack_stores: [u64; SlotClass::ALL.len()],
    /// Non-tail calls executed.
    pub calls: u64,
    /// Tail calls executed.
    pub tail_calls: u64,
    /// Activations per class (Table 2), indexed by `class as usize`.
    pub activations: [u64; ActivationClass::ALL.len()],
    /// Conditional branches executed.
    pub branches: u64,
    /// Mispredicted branches (when prediction is modeled).
    pub mispredicts: u64,
    /// Heap-touching primitive operations.
    pub heap_ops: u64,
    /// Closure objects allocated.
    pub closures_allocated: u64,
}

impl RunStats {
    /// Total stack references (loads + stores), the paper's headline
    /// metric for Table 3.
    pub fn stack_refs(&self) -> u64 {
        self.stack_loads.iter().sum::<u64>() + self.stack_stores.iter().sum::<u64>()
    }

    /// Save-slot stores.
    pub fn saves(&self) -> u64 {
        self.stack_stores[SlotClass::Save as usize]
    }

    /// Save-slot loads (restores).
    pub fn restores(&self) -> u64 {
        self.stack_loads[SlotClass::Save as usize]
    }

    /// Total activations.
    pub fn total_activations(&self) -> u64 {
        self.activations.iter().sum()
    }

    /// Fraction of activations in a class (`0.0` when there were no
    /// activations at all).
    pub fn activation_fraction(&self, class: ActivationClass) -> f64 {
        ratio(
            self.activations[class as usize] as f64,
            self.total_activations() as f64,
            0.0,
        )
    }

    /// Branch misprediction rate (`0.0` when no branches executed).
    pub fn mispredict_rate(&self) -> f64 {
        ratio(self.mispredicts as f64, self.branches as f64, 0.0)
    }

    /// Stall cycles per executed instruction (`0.0` for an empty run).
    pub fn stalls_per_instruction(&self) -> f64 {
        ratio(self.stall_cycles as f64, self.instructions as f64, 0.0)
    }

    /// Exports every counter into `reg` under the stable `vm.*` names
    /// (the registry-backed dynamic counters behind `lesgsc
    /// --profile`). All stack-reference classes and activation classes
    /// are exported even when zero, so the key set is schema-stable.
    pub fn record(&self, reg: &mut Registry) {
        reg.inc("vm.instructions", self.instructions);
        reg.inc("vm.cycles", self.cycles);
        reg.inc("vm.stall_cycles", self.stall_cycles);
        for class in SlotClass::ALL {
            reg.inc(
                &format!("vm.stack_loads.{class}"),
                self.stack_loads[class as usize],
            );
            reg.inc(
                &format!("vm.stack_stores.{class}"),
                self.stack_stores[class as usize],
            );
        }
        reg.inc("vm.stack_refs", self.stack_refs());
        reg.inc("vm.saves", self.saves());
        reg.inc("vm.restores", self.restores());
        reg.inc("vm.calls", self.calls);
        reg.inc("vm.tail_calls", self.tail_calls);
        for class in ActivationClass::ALL {
            reg.inc(
                &format!("vm.activations.{}", class.key()),
                self.activations[class as usize],
            );
        }
        reg.inc("vm.branches", self.branches);
        reg.inc("vm.mispredicts", self.mispredicts);
        reg.inc("vm.heap_ops", self.heap_ops);
        reg.inc("vm.closures_allocated", self.closures_allocated);
        reg.set_gauge("vm.effective_leaf_fraction", self.effective_leaf_fraction());
        reg.set_gauge("vm.mispredict_rate", self.mispredict_rate());
        reg.set_gauge("vm.stalls_per_instruction", self.stalls_per_instruction());
    }

    /// Fraction of effective leaf activations (the paper's two-thirds
    /// observation).
    pub fn effective_leaf_fraction(&self) -> f64 {
        ActivationClass::ALL
            .iter()
            .filter(|c| c.is_effective_leaf())
            .map(|c| self.activation_fraction(*c))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_refs_sums_loads_and_stores() {
        let mut s = RunStats::default();
        s.stack_loads[SlotClass::Save as usize] = 3;
        s.stack_stores[SlotClass::Param as usize] = 4;
        s.stack_stores[SlotClass::Save as usize] = 2;
        assert_eq!(s.stack_refs(), 9);
        assert_eq!(s.saves(), 2);
        assert_eq!(s.restores(), 3);
    }

    #[test]
    fn activation_fractions() {
        let mut s = RunStats::default();
        s.activations[ActivationClass::SyntacticLeaf as usize] = 1;
        s.activations[ActivationClass::NonSyntacticLeaf as usize] = 2;
        s.activations[ActivationClass::SyntacticInternal as usize] = 1;
        assert_eq!(s.total_activations(), 4);
        assert!((s.effective_leaf_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn class_labels() {
        assert_eq!(ActivationClass::ALL.len(), 4);
        assert!(ActivationClass::SyntacticLeaf.is_effective_leaf());
        assert!(!ActivationClass::SyntacticInternal.is_effective_leaf());
    }

    #[test]
    fn zero_denominator_fractions() {
        let s = RunStats::default();
        assert_eq!(s.activation_fraction(ActivationClass::SyntacticLeaf), 0.0);
        assert_eq!(s.effective_leaf_fraction(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.stalls_per_instruction(), 0.0);
    }

    #[test]
    fn record_exports_stable_key_set() {
        let mut s = RunStats {
            instructions: 10,
            cycles: 20,
            calls: 3,
            ..RunStats::default()
        };
        s.stack_loads[SlotClass::Save as usize] = 4;
        s.stack_stores[SlotClass::Save as usize] = 5;
        s.activations[ActivationClass::SyntacticLeaf as usize] = 2;
        let mut reg = Registry::new();
        s.record(&mut reg);
        assert_eq!(reg.counter("vm.instructions"), 10);
        assert_eq!(reg.counter("vm.restores"), 4);
        assert_eq!(reg.counter("vm.saves"), 5);
        assert_eq!(reg.counter("vm.stack_refs"), 9);
        // Absent classes still export (as zero): the key set is stable.
        assert!(reg.counters().any(|(k, _)| k == "vm.stack_loads.spill"));
        assert!(reg
            .counters()
            .any(|(k, _)| k == "vm.activations.syntactic_internal"));
        assert_eq!(reg.gauge("vm.effective_leaf_fraction"), Some(1.0));
    }
}
