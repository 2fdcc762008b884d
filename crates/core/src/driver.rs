//! The allocation driver: homes → pass 1 → pass 2 per function.

use lesgs_metrics::Registry;

use lesgs_ir::Program;

use crate::alloc::{AllocatedFunc, AllocatedProgram};
use crate::calleesave;
use crate::config::{AllocConfig, Discipline, RestoreStrategy};
use crate::frame::FrameLayout;
use crate::homes;
use crate::pass2;
use crate::savep;

/// Allocates one function under the caller-save discipline.
pub fn allocate_func(func: &lesgs_ir::Func, cfg: &AllocConfig) -> AllocatedFunc {
    allocate_func_observed(func, cfg, &mut Registry::discard())
}

/// Like [`allocate_func`], timing each allocator pass into `reg`
/// (`pass.homes`, `pass.savep`, `pass.pass2`, `pass.lazy_restores`, or
/// `pass.calleesave` — one histogram sample per function).
pub fn allocate_func_observed(
    func: &lesgs_ir::Func,
    cfg: &AllocConfig,
    reg: &mut Registry,
) -> AllocatedFunc {
    if cfg.discipline == Discipline::CalleeSave {
        return reg.time("pass.calleesave", || calleesave::allocate_func(func, cfg));
    }
    let homes = reg.time("pass.homes", || {
        homes::assign(func, &cfg.machine, cfg.discipline)
    });
    let r1 = reg.time("pass.savep", || savep::run(func, &homes, cfg));
    let r2 = reg.time("pass.pass2", || pass2::run(r1.body, cfg));
    let body = match cfg.restore {
        RestoreStrategy::Eager => r2.body,
        RestoreStrategy::Lazy => reg.time("pass.lazy_restores", || pass2::lazy_restores(r2.body)),
    };
    AllocatedFunc {
        id: func.id,
        name: func.name.clone(),
        n_params: func.n_params,
        n_free: func.n_free,
        homes: homes.home,
        body,
        frame: FrameLayout {
            n_incoming: homes.n_incoming,
            save_regs: r2.saved_regs,
            n_spills: homes.n_spills,
            // Temporaries are finalized by the code generator, which
            // owns the dynamic temp stack.
            n_temps: 0,
        },
        syntactic_leaf: func.is_syntactic_leaf(),
        call_inevitable: r1.call_inevitable,
    }
}

/// Allocates a whole program.
///
/// # Examples
///
/// ```
/// use lesgs_core::{allocate_program, AllocConfig};
/// use lesgs_frontend::pipeline;
///
/// let ir = pipeline::front_to_closed(
///     "(define (f x) (+ x 1)) (f 41)").unwrap();
/// let allocated = allocate_program(&ir, &AllocConfig::paper_default());
/// assert_eq!(allocated.funcs.len(), ir.funcs.len());
/// ```
pub fn allocate_program(program: &Program, cfg: &AllocConfig) -> AllocatedProgram {
    allocate_program_observed(program, cfg, &mut Registry::discard())
}

/// Like [`allocate_program`], recording per-pass wall times and the
/// static allocation counters (`alloc.*`, see OBSERVABILITY.md) into
/// `reg`.
pub fn allocate_program_observed(
    program: &Program,
    cfg: &AllocConfig,
    reg: &mut Registry,
) -> AllocatedProgram {
    let allocated = AllocatedProgram {
        funcs: program
            .funcs
            .iter()
            .map(|f| allocate_func_observed(f, cfg, reg))
            .collect(),
        main: program.main,
        n_globals: program.n_globals,
        config: *cfg,
    };
    if reg.is_recording() {
        crate::stats::collect(&allocated).record(reg);
    }
    allocated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SaveStrategy;
    use lesgs_frontend::pipeline;

    fn allocate(src: &str, cfg: &AllocConfig) -> AllocatedProgram {
        allocate_program(&pipeline::front_to_closed(src).unwrap(), cfg)
    }

    const FACT: &str = "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 5)";

    #[test]
    fn all_strategies_allocate_fact() {
        for save in [SaveStrategy::Lazy, SaveStrategy::Early, SaveStrategy::Late] {
            let cfg = AllocConfig {
                save,
                ..AllocConfig::paper_default()
            };
            let p = allocate(FACT, &cfg);
            let fact = p.funcs.iter().find(|f| f.name == "fact").unwrap();
            assert!(!fact.syntactic_leaf);
            assert!(!fact.call_inevitable);
        }
    }

    #[test]
    fn lazy_saves_fewer_stores_than_early_on_fact() {
        let lazy = allocate(FACT, &AllocConfig::paper_default());
        let early = allocate(
            FACT,
            &AllocConfig {
                save: SaveStrategy::Early,
                ..AllocConfig::paper_default()
            },
        );
        let count = |p: &AllocatedProgram| {
            let f = p.funcs.iter().find(|f| f.name == "fact").unwrap();
            // Static store count is the same; the difference is *where*:
            // early saves sit at the body root (executed every
            // activation), lazy saves sit in the recursive branch.
            matches!(f.body, crate::alloc::AExpr::Save { .. })
        };
        assert!(!count(&lazy), "lazy: no save at entry");
        assert!(count(&early), "early: save at entry");
    }

    #[test]
    fn baseline_allocates() {
        let p = allocate(FACT, &AllocConfig::baseline());
        let fact = p.funcs.iter().find(|f| f.name == "fact").unwrap();
        assert_eq!(fact.frame.n_incoming, 1, "param on stack");
    }
}
