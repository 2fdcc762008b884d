//! Executable versions of the paper's qualitative claims. Each test
//! reads the typed rows of the `bench-report` section that reproduces
//! the claim (`lesgs_bench::sections`), mostly at small scale so they
//! stay cheap enough for `cargo test`. `bench-report --check` gates the
//! same sections cell for cell; these tests state the shape the paper
//! predicts, so a baseline regenerated with a broken shape still fails.

use lesgs::allocator::AllocConfig;
use lesgs::compiler::CompilerConfig;
use lesgs::ir::MachineConfig;
use lesgs::suite::{all_benchmarks, Scale};
use lesgs::vm::ActivationClass;
use lesgs_bench::runs::Runs;
use lesgs_bench::sections;

fn runs(scale: Scale) -> Runs {
    Runs::new(all_benchmarks(), scale, 2)
}

fn average<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// §1/§2: "syntactic leaf routines account for under one third of all
/// procedure activations, [effective leaf routines] account for over
/// two thirds" — our suite is more internal-heavy, so the executable
/// claim is the *ordering*: effective leaves strictly dominate
/// syntactic leaves, and both populations are substantial.
#[test]
fn effective_leaves_dominate_syntactic_leaves() {
    let table2 = sections::table2(&mut runs(Scale::Small));
    // All-tail benchmarks have no meaningful split.
    let rows: Vec<_> = table2
        .rows
        .iter()
        .filter(|(_, stats)| stats.total_activations() >= 10)
        .collect();
    let syn = average(
        rows.iter()
            .map(|(_, s)| s.activation_fraction(ActivationClass::SyntacticLeaf)),
    );
    let eff = average(rows.iter().map(|(_, s)| s.effective_leaf_fraction()));
    assert!(
        eff > syn,
        "effective leaves ({eff:.2}) must exceed syntactic leaves ({syn:.2})"
    );
    assert!(
        syn < 1.0 / 3.0 + 0.05,
        "syntactic leaves around or under one third"
    );
    assert!(
        eff > 0.35,
        "a large share of activations are effective leaves"
    );
}

/// Table 3's ordering: lazy saves beat both the early and the late
/// strategies on average, in stack references and in cycles.
#[test]
fn lazy_beats_early_and_late_on_average() {
    let table3 = sections::table3(&mut runs(Scale::Small));
    // Each row holds the lazy, early and late measurements, in that order.
    let get = |i: usize| {
        let reduction = average(table3.rows.iter().map(|(_, m)| m[i].stack_ref_reduction()));
        let speedup = average(table3.rows.iter().map(|(_, m)| m[i].speedup_percent()));
        (reduction, speedup)
    };
    let (lazy, early, late) = (get(0), get(1), get(2));
    assert!(
        lazy.0 >= early.0,
        "lazy stack-ref {} >= early {}",
        lazy.0,
        early.0
    );
    assert!(
        lazy.0 >= late.0,
        "lazy stack-ref {} >= late {}",
        lazy.0,
        late.0
    );
    assert!(
        lazy.1 >= early.1,
        "lazy speedup {} >= early {}",
        lazy.1,
        early.1
    );
    assert!(
        lazy.1 >= late.1,
        "lazy speedup {} >= late {}",
        lazy.1,
        late.1
    );
}

/// §2.2: eager restores run about as fast as lazy restores — the
/// latency hidden by restoring early pays for the unnecessary loads.
#[test]
fn eager_restores_competitive_with_lazy() {
    let figure2 = sections::figure2(&mut runs(Scale::Small));
    let avg = average(
        figure2
            .rows
            .iter()
            .map(|(_, (eager, lazy))| lazy.cycles as f64 / eager.cycles as f64),
    );
    assert!(
        avg >= 0.97,
        "eager must not lose to lazy restores on average, ratio {avg:.3}"
    );
}

/// §3.1: the greedy shuffler is optimal at (nearly) all call sites.
#[test]
fn greedy_shuffling_nearly_always_optimal() {
    let stats = sections::shuffle_stats(&mut runs(Scale::Standard));
    let sites: usize = stats.rows.iter().map(|(_, s)| s.call_sites).sum();
    let matches: usize = stats.rows.iter().map(|(_, s)| s.sites_greedy_optimal).sum();
    assert!(sites > 100, "need a meaningful population, got {sites}");
    let frac = matches as f64 / sites as f64;
    assert!(frac > 0.99, "greedy optimal at {frac:.3} of {sites} sites");
}

/// §4: performance increases monotonically with the number of argument
/// registers (small tolerance for plateaus). Reads the per-benchmark
/// greedy-shuffling runs the register sweep section made.
#[test]
fn register_count_sweep_is_monotone() {
    let mut runs = runs(Scale::Small);
    sections::register_sweep(&mut runs);
    for b in runs.benchmarks() {
        let mut last = f64::INFINITY;
        for c in [0usize, 2, 4, 6] {
            let cfg = CompilerConfig::with_alloc(AllocConfig {
                machine: MachineConfig::with_arg_regs(c),
                ..AllocConfig::paper_default()
            });
            let cycles = runs.get(b, cfg).stats.cycles as f64;
            assert!(
                cycles <= last * 1.02,
                "{}: c={c} regressed ({cycles} vs {last})",
                b.name
            );
            last = cycles;
        }
    }
}

/// Table 5's shape: lazy saves help the callee-save discipline, and the
/// caller-save lazy configuration is fastest on tak.
#[test]
fn callee_save_lazy_and_caller_save_ordering_on_tak() {
    let table5 = sections::table5(&mut runs(Scale::Small));
    let cycles = |discipline: &str| {
        let row = table5.rows.iter().find(|(d, _, _)| *d == discipline);
        let &(_, early, lazy) = row.expect("Table 5 has both disciplines");
        (early, lazy)
    };
    let (callee_early, callee_lazy) = cycles("callee-save (C model)");
    let (_, caller_lazy) = cycles("caller-save");
    assert!(callee_lazy < callee_early, "lazy helps callee-save");
    assert!(caller_lazy <= callee_lazy, "caller-save lazy fastest");
}

/// Table 4's shape: on tak, this allocator's model (lazy saves,
/// caller-save registers) beats the C compilers' (early saves,
/// callee-save registers).
#[test]
fn lazy_caller_save_beats_early_callee_save_on_tak() {
    let table4 = sections::table4(&mut runs(Scale::Small));
    let cycles = |model: &str| {
        let row = table4.rows.iter().find(|(m, _)| *m == model);
        row.expect("Table 4 has both models").1
    };
    let (lazy, early) = (cycles("lazy caller-save"), cycles("early callee-save"));
    assert!(
        lazy < early,
        "lazy caller-save {lazy} < early callee-save {early}"
    );
}

/// §2.2's mechanism isolated: eager restores hide load latency, so the
/// lazy/eager cycle ratio never falls as the load latency rises.
#[test]
fn latency_ablation_gap_never_narrows_as_latency_rises() {
    let ablation = sections::latency_ablation(&mut runs(Scale::Small));
    for pair in ablation.rows.windows(2) {
        let ((low, before), (high, after)) = (pair[0], pair[1]);
        assert!(
            after >= before,
            "lazy/eager ratio fell from {before:.4} at latency {low} to {after:.4} at {high}"
        );
    }
}

/// §6: selective lambda lifting only lifts when the lifted arity still
/// fits the argument registers, so it never costs cycles.
#[test]
fn lambda_lifting_never_increases_cycles() {
    let lift = sections::lambda_lift(&mut runs(Scale::Small));
    for (name, (off, on)) in &lift.rows {
        assert!(
            on.cycles <= off.cycles,
            "{name}: lifting raised cycles {} -> {}",
            off.cycles,
            on.cycles
        );
    }
}
