//! Static allocation statistics (the §3.1 shuffle numbers and save
//! placement counts).
//!
//! All derived fractions use [`lesgs_metrics::ratio`] for explicit
//! zero-denominator behavior: *rates of events* default to `0.0` when
//! nothing was measured, while *vacuously-true proportions* (greedy
//! matched the optimum at every one of zero sites) default to `1.0`.

use lesgs_metrics::{ratio, Registry};

use crate::alloc::{AExpr, AllocatedProgram};

/// Aggregate shuffle statistics across all call sites of a program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// Total call sites (tail and non-tail).
    pub call_sites: usize,
    /// Call sites whose dependency graph had a cycle.
    pub sites_with_cycles: usize,
    /// Call sites where the greedy temporary count equals the
    /// exhaustive optimum.
    pub sites_greedy_optimal: usize,
    /// Total temporaries introduced by greedy cycle breaking.
    pub greedy_temps: usize,
    /// Total temporaries an optimal ordering would need.
    pub optimal_temps: usize,
    /// Save expressions surviving pass 2.
    pub save_sites: usize,
    /// Total registers stored by those saves.
    pub saved_regs: usize,
    /// Total registers restored eagerly after calls.
    pub restored_regs: usize,
}

impl ShuffleStats {
    /// Fraction of call sites with cycles (the paper reports 7%).
    /// With no call sites there are no cycles: `0.0`.
    pub fn cycle_fraction(&self) -> f64 {
        ratio(self.sites_with_cycles as f64, self.call_sites as f64, 0.0)
    }

    /// Fraction of call sites where greedy matched the optimum.
    /// Vacuously optimal with no call sites: `1.0`.
    pub fn optimal_fraction(&self) -> f64 {
        ratio(
            self.sites_greedy_optimal as f64,
            self.call_sites as f64,
            1.0,
        )
    }

    /// Mean registers stored per surviving save site (`0.0` when no
    /// saves were placed).
    pub fn regs_per_save(&self) -> f64 {
        ratio(self.saved_regs as f64, self.save_sites as f64, 0.0)
    }

    /// Records every field as an `alloc.*` counter plus the derived
    /// `alloc.cycle_fraction`/`alloc.optimal_fraction` gauges (the
    /// registry-backed form used by `lesgsc --profile`; names in
    /// OBSERVABILITY.md).
    pub fn record(&self, reg: &mut Registry) {
        reg.inc("alloc.call_sites", self.call_sites as u64);
        reg.inc("alloc.cycle_sites", self.sites_with_cycles as u64);
        reg.inc(
            "alloc.greedy_optimal_sites",
            self.sites_greedy_optimal as u64,
        );
        reg.inc("alloc.shuffle_temps", self.greedy_temps as u64);
        reg.inc("alloc.optimal_temps", self.optimal_temps as u64);
        reg.inc("alloc.save_sites", self.save_sites as u64);
        reg.inc("alloc.saved_regs", self.saved_regs as u64);
        reg.inc("alloc.restored_regs", self.restored_regs as u64);
        reg.set_gauge("alloc.cycle_fraction", self.cycle_fraction());
        reg.set_gauge("alloc.optimal_fraction", self.optimal_fraction());
    }
}

/// Collects statistics from an allocated program.
pub fn collect(program: &AllocatedProgram) -> ShuffleStats {
    let mut s = ShuffleStats::default();
    for f in &program.funcs {
        f.body.visit(&mut |e| match e {
            AExpr::Call(c) => {
                s.call_sites += 1;
                if c.plan.had_cycle {
                    s.sites_with_cycles += 1;
                }
                if c.plan.cycle_temps == c.plan.optimal_temps {
                    s.sites_greedy_optimal += 1;
                }
                s.greedy_temps += c.plan.cycle_temps as usize;
                s.optimal_temps += c.plan.optimal_temps as usize;
                s.restored_regs += c.restore.len();
            }
            AExpr::Save { regs, .. } => {
                s.save_sites += 1;
                s.saved_regs += regs.len();
            }
            _ => {}
        });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocConfig;
    use crate::driver::allocate_program;
    use lesgs_frontend::pipeline;

    fn stats(src: &str) -> ShuffleStats {
        let ir = pipeline::front_to_closed(src).unwrap();
        collect(&allocate_program(&ir, &AllocConfig::paper_default()))
    }

    #[test]
    fn swap_call_site_has_cycle() {
        let s = stats(
            "(define (f a b) (if (zero? a) b (f b a)))
             (f 10 0)",
        );
        assert!(s.sites_with_cycles >= 1, "{s:?}");
        assert_eq!(s.greedy_temps, s.optimal_temps, "greedy optimal here");
        assert!(s.optimal_fraction() > 0.99);
    }

    #[test]
    fn straightline_program_has_no_cycles() {
        let s = stats("(define (f a b) (+ a b)) (f 1 2)");
        assert_eq!(s.sites_with_cycles, 0);
        assert_eq!(s.cycle_fraction(), 0.0);
    }

    #[test]
    fn zero_denominator_fractions() {
        let s = ShuffleStats::default();
        assert_eq!(s.cycle_fraction(), 0.0, "no sites -> no cycles");
        assert_eq!(s.optimal_fraction(), 1.0, "vacuously optimal");
        assert_eq!(s.regs_per_save(), 0.0, "no saves placed");
    }

    #[test]
    fn record_exports_counters_and_gauges() {
        let s = stats(
            "(define (g x) (if (zero? x) 0 (g (- x 1))))
             (define (f x) (+ (g x) (g x)))
             (f 3)",
        );
        let mut reg = Registry::new();
        s.record(&mut reg);
        assert_eq!(reg.counter("alloc.call_sites"), s.call_sites as u64);
        assert_eq!(reg.counter("alloc.save_sites"), s.save_sites as u64);
        assert_eq!(reg.counter("alloc.saved_regs"), s.saved_regs as u64);
        assert_eq!(reg.counter("alloc.restored_regs"), s.restored_regs as u64);
        assert_eq!(
            reg.gauge("alloc.optimal_fraction"),
            Some(s.optimal_fraction())
        );
    }

    #[test]
    fn saves_counted() {
        let s = stats(
            "(define (g x) (if (zero? x) 0 (g (- x 1))))
             (define (f x) (+ (g x) (g x)))
             (f 3)",
        );
        assert!(s.save_sites >= 1);
        assert!(s.saved_regs >= 1);
        assert!(s.restored_regs >= 1);
    }
}
