//! The paper's results as report sections.
//!
//! Each builder reads the runs it needs from [`Runs`] and returns a
//! [`Section`]: its typed rows, the rendered table the report carries
//! under the section's name, and the lines printed below that table.
//! Every section is deterministic and gated by `bench-report --check`
//! except [`COMPILE_TIME`], which holds wall-clock values.

use std::fmt;

use lesgs_compiler::{compile_observed, phase_ns, CompilerConfig};
use lesgs_core::config::{Discipline, RestoreStrategy, SaveStrategy, ShuffleStrategy};
use lesgs_core::stats::ShuffleStats;
use lesgs_core::toy::{self, Toy};
use lesgs_core::AllocConfig;
use lesgs_ir::machine::arg_reg;
use lesgs_ir::{MachineConfig, RegSet};
use lesgs_metrics::{ratio, Registry};
use lesgs_suite::measure::Measurement;
use lesgs_suite::programs::{benchmark, Benchmark};
use lesgs_suite::tables::{frac_pct, pct, Table};
use lesgs_vm::{ActivationClass, RunStats};

use crate::runs::Runs;

/// Name of the wall-clock section: the allocation share of compile time.
pub const COMPILE_TIME: &str = "compile_time";

/// One paper result.
#[derive(Debug, Clone)]
pub struct Section<R> {
    /// The report table's name.
    pub name: &'static str,
    /// The heading printed above the table.
    pub title: &'static str,
    /// The values behind the table's rows (its `Average` or `Total` row
    /// excepted).
    pub rows: Vec<R>,
    /// The rendered table, cell for cell what the report carries.
    pub table: Table,
    /// Lines printed below the table: the paper's figures and the
    /// summaries derived from the rows.
    pub notes: Vec<String>,
}

/// An empty table; `headers` is the comma-separated column list.
pub(crate) fn table(headers: &str) -> Table {
    Table::new(headers.split(", ").map(str::to_owned).collect())
}

impl<R> Section<R> {
    fn new(name: &'static str, title: &'static str, headers: &str) -> Section<R> {
        Section {
            name,
            title,
            rows: Vec::new(),
            table: table(headers),
            notes: Vec::new(),
        }
    }

    fn push(&mut self, row: R, cells: Vec<String>) {
        self.table.row(cells);
        self.rows.push(row);
    }

    fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }
}

impl<R> fmt::Display for Section<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}\n{}", self.title, self.table)?;
        self.notes.iter().try_for_each(|n| writeln!(f, "{n}"))
    }
}

/// Fills `s` with one row per suite benchmark after making the runs of
/// `configs`; `row` gives a benchmark's typed row and the cells after
/// its name.
fn per_benchmark<R>(
    runs: &mut Runs,
    configs: &[CompilerConfig],
    mut s: Section<(&'static str, R)>,
    row: impl Fn(&Runs, &Benchmark) -> (R, Vec<String>),
) -> Section<(&'static str, R)> {
    runs.run_suite(configs);
    for b in runs.benchmarks() {
        let (r, cells) = row(runs, b);
        s.push((b.name, r), [vec![b.name.to_owned()], cells].concat());
    }
    s
}

/// The mean of `column` over `rows` (0 for no rows).
fn mean_of<R>(rows: &[R], column: impl Fn(&R) -> f64) -> f64 {
    let xs: Vec<f64> = rows.iter().map(column).collect();
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The geometric mean over the suite of the cycle ratio `num / den`.
fn cycle_ratio(runs: &Runs, num: CompilerConfig, den: CompilerConfig) -> f64 {
    let cycles = |b: &Benchmark, c| runs.get(b, c).stats.cycles as f64;
    mean_of(runs.benchmarks(), |b| {
        (cycles(b, num) / cycles(b, den)).ln()
    })
    .exp()
}

/// How much faster `after` runs than `before`, in percent.
fn speedup(before: u64, after: u64) -> f64 {
    100.0 * (before as f64 / after as f64 - 1.0)
}

fn counts<T: ToString, const N: usize>(values: [T; N]) -> Vec<String> {
    values.map(|n| n.to_string()).to_vec()
}

/// The paper default with `change` applied.
fn paper_with(change: impl FnOnce(&mut CompilerConfig)) -> CompilerConfig {
    let mut config = CompilerConfig::default();
    change(&mut config);
    config
}

fn lazy_restores() -> CompilerConfig {
    paper_with(|c| c.alloc.restore = RestoreStrategy::Lazy)
}

/// The headline: stack-reference reduction and speedup of the paper
/// default over the no-register baseline.
pub fn comparisons(runs: &mut Runs) -> Section<(&'static str, Measurement)> {
    let base = CompilerConfig::with_alloc(AllocConfig::baseline());
    let paper = CompilerConfig::default();
    let s = Section::new(
        "comparisons",
        "Full optimization vs the no-register baseline",
        "benchmark, base stack refs, opt stack refs, stack-ref reduction, \
         base cycles, opt cycles, speedup",
    );
    let mut s = per_benchmark(runs, &[base, paper], s, |runs, b| {
        let m = Measurement::compare(runs.get(b, base), runs.get(b, paper));
        let [reduction, speedup] = [pct(m.stack_ref_reduction()), pct(m.speedup_percent())];
        let refs = counts([m.base_stack_refs, m.opt_stack_refs]);
        let cycles = counts([m.base_cycles, m.opt_cycles]);
        (m, [refs, vec![reduction], cycles, vec![speedup]].concat())
    });
    let mut avg = vec![String::new(); 7];
    avg[0] = "Average".into();
    avg[3] = pct(mean_of(&s.rows, |(_, m)| m.stack_ref_reduction()));
    avg[6] = pct(mean_of(&s.rows, |(_, m)| m.speedup_percent()));
    s.table.row(avg);
    s
}

/// Table 1: the suite, with each program's non-blank source lines.
pub fn table1(runs: &mut Runs) -> Section<(&'static str, usize)> {
    let s = Section::new(
        "table1",
        "Table 1: benchmark suite",
        "benchmark, lines, description",
    );
    let mut s = per_benchmark(runs, &[], s, |runs, b| {
        let source = b.source(runs.scale());
        let lines = source.lines().filter(|l| !l.trim().is_empty()).count();
        (lines, vec![lines.to_string(), b.description.into()])
    });
    s.note(
        "The paper's large programs (Chez Scheme compiler, DDD, Similix,\n\
         SoftScheme) cannot be run here; the Gabriel-style kernels above\n\
         plus the extra call-heavy workloads stand in (see DESIGN.md).",
    );
    s
}

/// Table 2: the share of procedure activations in each class under the
/// paper default. The paper: syntactic leaves are under one third of
/// activations, effective leaves (both leaf classes) over two thirds.
pub fn table2(runs: &mut Runs) -> Section<(&'static str, RunStats)> {
    let paper = CompilerConfig::default();
    let fractions = |r: &RunStats| {
        let classes = ActivationClass::ALL.map(|c| r.activation_fraction(c));
        [&classes[..], &[r.effective_leaf_fraction()]].concat()
    };
    let s = Section::new(
        "table2",
        "Table 2: dynamic call graph summary",
        "benchmark, calls, syn leaf, non-syn leaf, non-syn int, syn int, eff leaf",
    );
    let mut s = per_benchmark(runs, &[paper], s, |runs, b| {
        let stats = runs.get(b, paper).stats.clone();
        let mut cells = vec![stats.total_activations().to_string()];
        cells.extend(fractions(&stats).into_iter().map(frac_pct));
        (stats, cells)
    });
    let mut avg = vec!["Average".to_owned(), String::new()];
    avg.extend((0..5).map(|i| frac_pct(mean_of(&s.rows, |(_, r)| fractions(r)[i]))));
    s.table.row(avg);
    s.note("Paper: syntactic leaves < 1/3 of activations; effective leaves > 2/3.");
    s
}

/// Table 3: stack-reference reduction and speedup of each save strategy
/// over the no-register baseline. Rows hold the lazy, early and late
/// measurements, in that order.
pub fn table3(runs: &mut Runs) -> Section<(&'static str, [Measurement; 3])> {
    let saves = [
        ("lazy", SaveStrategy::Lazy),
        ("early", SaveStrategy::Early),
        ("late", SaveStrategy::Late),
    ];
    let base = CompilerConfig::with_alloc(AllocConfig::baseline());
    let configs = saves.map(|(_, save)| paper_with(|c| c.alloc.save = save));
    let headers = saves.map(|(n, _)| format!("{n} stack-ref, {n} speedup"));
    let s = Section::new(
        "table3",
        "Table 3: stack-reference reduction and speedup vs no-register \
         baseline (six argument registers)",
        &format!("benchmark, {}", headers.join(", ")),
    );
    let columns: [fn(&Measurement) -> f64; 2] = [
        Measurement::stack_ref_reduction,
        Measurement::speedup_percent,
    ];
    let all = [base, configs[0], configs[1], configs[2]];
    let mut s = per_benchmark(runs, &all, s, |runs, b| {
        let m = configs.map(|c| Measurement::compare(runs.get(b, base), runs.get(b, c)));
        let cells = m.iter().flat_map(|m| columns.map(|f| pct(f(m))));
        (m, cells.collect())
    });
    let mut avg = vec!["Average".to_owned()];
    for i in 0..saves.len() {
        avg.extend(columns.map(|f| pct(mean_of(&s.rows, |(_, m)| f(&m[i])))));
    }
    s.table.row(avg);
    s.note(
        "Paper averages: lazy 72%/43%, early 58%/32%, late 65%/36%.\n\
         Expected shape: lazy >= late >= early on stack refs; lazy best on speedup.",
    );
    s
}

/// The paper default under another save discipline and strategy.
fn discipline(discipline: Discipline, save: SaveStrategy) -> CompilerConfig {
    paper_with(|c| (c.alloc.discipline, c.alloc.save) = (discipline, save))
}

/// Table 4: tak under the C compilers' model (early saves, callee-save
/// registers) and this allocator's (lazy saves, caller-save registers).
/// Rows: (model, cycles).
pub fn table4(runs: &mut Runs) -> Section<(&'static str, u64)> {
    let tak = benchmark("tak").expect("tak is in the suite");
    let cc = discipline(Discipline::CalleeSave, SaveStrategy::Early);
    let chez = CompilerConfig::default();
    let models = [
        ("cc -O3 (simulated)", "early callee-save", cc),
        ("Chez Scheme (this allocator)", "lazy caller-save", chez),
    ];
    runs.run([(&tak, cc), (&tak, chez)]);
    let mut s = Section::new(
        "table4",
        "Table 4: tak under C-like vs lazy/caller-save models",
        "compiler, model, cycles, speedup vs cc",
    );
    let base = runs.get(&tak, cc).stats.cycles;
    for (compiler, model, config) in models {
        let cycles = runs.get(&tak, config).stats.cycles;
        let speedup = pct(speedup(base, cycles));
        let cells = vec![compiler.into(), model.into(), cycles.to_string(), speedup];
        s.push((model, cycles), cells);
    }
    s.note(
        "Paper: cc 0%, gcc 5%, Chez Scheme 14% speedup over cc. gcc -O3 has\n\
         no row of its own: it used cc's discipline (early callee-save), so\n\
         the simulated cc row stands for both C compilers.\n\
         Expected shape: the lazy caller-save model beats the early\n\
         callee-save (C) model on this call-intensive benchmark.",
    );
    s
}

/// Table 5: tak with early and lazy saves under both disciplines.
/// Rows: (discipline, early cycles, lazy cycles).
pub fn table5(runs: &mut Runs) -> Section<(&'static str, u64, u64)> {
    let tak = benchmark("tak").expect("tak is in the suite");
    let disciplines = [
        ("callee-save (C model)", "callee", Discipline::CalleeSave),
        ("caller-save", "caller", Discipline::CallerSave),
    ];
    let pair = |d| [SaveStrategy::Early, SaveStrategy::Lazy].map(|save| discipline(d, save));
    runs.run(
        disciplines
            .iter()
            .flat_map(|&(.., d)| pair(d).map(|c| (&tak, c))),
    );
    let mut s = Section::new(
        "table5",
        "Table 5: early vs lazy saves under both disciplines, tak",
        "discipline, early cycles, lazy cycles, lazy speedup",
    );
    let mut saves = Vec::new();
    let mut fastest = (String::new(), u64::MAX);
    for (label, short, d) in disciplines {
        let [early, lazy] = pair(d).map(|c| &runs.get(&tak, c).stats);
        let speedup = pct(speedup(early.cycles, lazy.cycles));
        let cycles = counts([early.cycles, lazy.cycles]);
        let cells = [vec![label.to_owned()], cycles, vec![speedup]].concat();
        s.push((label, early.cycles, lazy.cycles), cells);
        for (when, stats) in [("early", early), ("lazy", lazy)] {
            saves.push(format!("{short}-{when} {}", stats.saves()));
            if stats.cycles < fastest.1 {
                fastest = (format!("{short}-{when}"), stats.cycles);
            }
        }
    }
    s.note(format!("saves executed: {}", saves.join(" / ")));
    s.note(
        "\nPaper: lazy saves speed up cc by 91%, gcc by 60%; the hand-coded\n\
         caller-save version gains 55% and is fastest overall.\n\
         Expected shape: lazy beats early under both disciplines, and\n\
         caller-save lazy has the lowest cycle count.",
    );
    s.note(format!(
        "Fastest here: {} ({} cycles).",
        fastest.0, fastest.1
    ));
    s
}

/// Figure 1: the derived `S_t`/`S_f` equations for `not`, `and` and
/// `or`, each checked against its `if`-expansion, and the §2.1.2 worked
/// example. Rows: (form, `S_t`, `S_f`). Static: no runs.
pub fn figure1() -> Section<(&'static str, RegSet, RegSet)> {
    let live: RegSet = [arg_reg(0), arg_reg(1)].into_iter().collect();
    let x = Toy::Var(arg_reg(0));
    let call = Toy::call(live.iter());
    let e = Toy::seq(call.clone(), x.clone());
    let a = Toy::if_(x.clone(), call.clone(), Toy::False);
    let c = Toy::if_(x.clone(), Toy::True, call.clone());
    let forms = [
        ("(not E)", toy::figure1::s_not(&e), Toy::not(e)),
        (
            "(and E1 E2)",
            toy::figure1::s_and(&a, &call),
            Toy::and(a.clone(), call.clone()),
        ),
        ("(or E1 E2)", toy::figure1::s_or(&c, &x), Toy::or(c, x)),
    ];
    let mut s = Section::new(
        "figure1",
        "Figure 1: derived save-placement equations (checked against if-expansions)",
        "form, S_t, S_f",
    );
    for (form, (st, sf), expanded) in forms {
        assert_eq!(
            (st, sf),
            toy::s_revised(&expanded),
            "Figure 1 equation must match the expansion"
        );
        let cells = vec![form.into(), st.to_string(), sf.to_string()];
        s.push((form, st, sf), cells);
    }
    let outer = Toy::if_(a.clone(), Toy::Var(arg_reg(1)), call);
    assert_eq!(toy::save_set(&a), RegSet::EMPTY);
    assert_eq!(toy::save_set(&outer), live);
    s.note(format!(
        "Each derived (S_t, S_f) pair matches its if-expansion.\n\n\
         The paper's §2.1.2 worked example:\n  A = (if (if x call false) y call)\n  \
         inner save set = {} (nothing saved around the inner if)\n  \
         outer save set = {live} (all live registers, as required)",
        RegSet::EMPTY
    ));
    s
}

/// Figure 2: eager vs lazy restore placement. Rows: (benchmark, (eager
/// run, lazy run)).
pub fn figure2(runs: &mut Runs) -> Section<(&'static str, (RunStats, RunStats))> {
    let [eager, lazy] = [CompilerConfig::default(), lazy_restores()];
    let ratio = |e: &RunStats, l: &RunStats| l.cycles as f64 / e.cycles as f64;
    let s = Section::new(
        "figure2",
        "Figure 2 companion: eager vs lazy restore placement",
        "benchmark, eager restores, lazy restores, eager stalls, lazy stalls, \
         eager cycles, lazy cycles, lazy/eager",
    );
    let mut s = per_benchmark(runs, &[eager, lazy], s, |runs, b| {
        let [e, l] = [eager, lazy].map(|c| runs.get(b, c).stats.clone());
        let mut cells = counts([
            e.restores(),
            l.restores(),
            e.stall_cycles,
            l.stall_cycles,
            e.cycles,
            l.cycles,
        ]);
        cells.push(format!("{:.3}", ratio(&e, &l)));
        ((e, l), cells)
    });
    let mean_ratio = mean_of(&s.rows, |(_, (e, l))| ratio(e, l));
    s.note(format!(
        "Mean lazy/eager cycle ratio: {mean_ratio:.3} (1.0 = equal).\n\
         Paper: \"the eager approach produced code that ran just as fast\";\n\
         lazy executes fewer restores but its loads sit next to their uses\n\
         and stall, while eager loads issue right after the call."
    ));
    s
}

/// The sum of per-program shuffle statistics.
fn total<'a>(stats: impl IntoIterator<Item = &'a ShuffleStats>) -> ShuffleStats {
    stats
        .into_iter()
        .fold(ShuffleStats::default(), |t, s| ShuffleStats {
            call_sites: t.call_sites + s.call_sites,
            sites_with_cycles: t.sites_with_cycles + s.sites_with_cycles,
            sites_greedy_optimal: t.sites_greedy_optimal + s.sites_greedy_optimal,
            greedy_temps: t.greedy_temps + s.greedy_temps,
            optimal_temps: t.optimal_temps + s.optimal_temps,
            ..t
        })
}

/// §3.1: static shuffle statistics of the paper default — call sites,
/// those with register-move cycles, and greedy vs exhaustive-optimal
/// temporaries. Rows: (benchmark, statistics).
pub fn shuffle_stats(runs: &mut Runs) -> Section<(&'static str, ShuffleStats)> {
    let paper = CompilerConfig::default();
    let cells = |st: &ShuffleStats| {
        let matched = st.sites_greedy_optimal as f64 / st.call_sites as f64;
        let n = [
            st.call_sites,
            st.sites_with_cycles,
            st.greedy_temps,
            st.optimal_temps,
        ];
        [counts(n), vec![frac_pct(matched)]].concat()
    };
    let s = Section::new(
        "shuffle_stats",
        "§3.1: greedy shuffling statistics (static)",
        "benchmark, call sites, with cycles, greedy temps, optimal temps, greedy=optimal",
    );
    let mut s = per_benchmark(runs, &[paper], s, |runs, b| {
        let st = runs.get(b, paper).shuffle;
        (st, cells(&st))
    });
    let all = total(s.rows.iter().map(|(_, st)| st));
    let others = total(s.rows.iter().filter(|r| r.0 != "takr").map(|(_, st)| st));
    s.table
        .row([vec!["Total".to_owned()], cells(&all)].concat());
    let share = |st: &ShuffleStats| frac_pct(st.sites_with_cycles as f64 / st.call_sites as f64);
    s.note(format!(
        "Excluding takr (tak's rotating call pattern copied across many\n\
         procedures, which dominates a small static corpus): {} of {} sites\n\
         with cycles ({}).\n\
         Cycle-bearing call sites: {} ({}). Paper: 7% of call sites.",
        others.sites_with_cycles,
        others.call_sites,
        share(&others),
        all.sites_with_cycles,
        share(&all),
    ));
    s
}

/// §4: geometric-mean speedup with zero through six argument registers
/// over zero, per shuffle strategy. Rows: (strategy, speedup per count).
pub fn register_sweep(runs: &mut Runs) -> Section<(&'static str, [f64; 7])> {
    let strategies = [
        ("greedy", ShuffleStrategy::Greedy),
        ("fixed-order", ShuffleStrategy::FixedOrder),
    ];
    let config = |c: usize, shuffle| {
        paper_with(|r| {
            (r.alloc.machine, r.alloc.shuffle) = (MachineConfig::with_arg_regs(c), shuffle)
        })
    };
    let configs = strategies.map(|(_, shuffle)| (0..=6).map(move |c| config(c, shuffle)));
    runs.run_suite(&configs.into_iter().flatten().collect::<Vec<_>>());
    let mut s = Section::new(
        "register_sweep",
        "§4 register sweep: geometric-mean speedup over the zero-register baseline",
        "shuffle, c=0, c=1, c=2, c=3, c=4, c=5, c=6",
    );
    for (label, shuffle) in strategies {
        let speedups: [f64; 7] =
            std::array::from_fn(|c| cycle_ratio(runs, config(0, shuffle), config(c, shuffle)));
        let mut cells = vec![label.to_owned()];
        cells.extend(speedups.map(|x| format!("{x:.3}")));
        s.push((label, speedups), cells);
    }
    s.note(
        "Expected shape: monotonic increase 0→6 with a small 5→6 step;\n\
         fixed-order evaluation flattens (or reverses) beyond ~2 registers\n\
         because argument shuffling starts forcing temporaries.",
    );
    s
}

/// §2.2 mechanism: the geometric-mean lazy/eager restore cycle ratio as
/// the cost model's load latency grows. Rows: (latency, ratio).
pub fn latency_ablation(runs: &mut Runs) -> Section<(u64, f64)> {
    let latencies = [0, 1, 2, 3, 5, 8];
    let pair = |load_latency| {
        [CompilerConfig::default(), lazy_restores()].map(|mut c| {
            c.cost.load_latency = load_latency;
            c
        })
    };
    runs.run_suite(&latencies.map(pair).concat());
    let mut s = Section::new(
        "latency_ablation",
        "Restore-strategy gap vs load latency",
        "load latency, lazy/eager cycle ratio, winner",
    );
    for latency in latencies {
        let [eager, lazy] = pair(latency);
        let ratio = cycle_ratio(runs, lazy, eager);
        let winner = match ratio {
            r if r < 0.999 => "lazy",
            r if r > 1.001 => "eager",
            _ => "tie",
        };
        let cells = vec![latency.to_string(), format!("{ratio:.3}"), winner.into()];
        s.push((latency, ratio), cells);
    }
    s.note(
        "The gap widens monotonically with load latency: eager's early\n\
         loads hide exactly the latency the lazy placement pays for at\n\
         each use — the §2.2 effect, isolated. The strategy decision is\n\
         a property of the memory system, as the paper argues.",
    );
    s
}

/// An on/off ablation. Rows: (benchmark, (run with the switch off, run
/// with it on)).
pub type Ablation = Section<(&'static str, (RunStats, RunStats))>;

/// A counter an on/off ablation tabulates, with its column name.
type Metric = (&'static str, fn(&RunStats) -> u64);

const CYCLES: Metric = ("cycles", |r| r.cycles);

/// The shared shape of the three on/off ablations: per benchmark, two
/// counters with the switch off and on, and the cycle improvement the
/// switch brings. Also returns the mean improvement in percent.
fn on_off(
    runs: &mut Runs,
    (name, title): (&'static str, &'static str),
    [off, on]: [CompilerConfig; 2],
    metrics: [Metric; 2],
) -> (Ablation, f64) {
    let [a, b] = metrics.map(|(m, _)| m);
    let headers = format!("benchmark, {a} off, {a} on, {b} off, {b} on, improvement");
    let s = Section::new(name, title, &headers);
    let s = per_benchmark(runs, &[off, on], s, |runs, b| {
        let [off, on] = [off, on].map(|c| runs.get(b, c).stats.clone());
        let mut cells: Vec<_> = metrics
            .iter()
            .flat_map(|(_, count)| counts([count(&off), count(&on)]))
            .collect();
        cells.push(format!("{:+.1}%", speedup(off.cycles, on.cycles)));
        ((off, on), cells)
    });
    let mean = mean_of(&s.rows, |(_, (off, on))| speedup(off.cycles, on.cycles));
    (s, mean)
}

/// Backend ablation (not a paper experiment): how much of the cycle
/// counts the peephole optimizer's rewrites account for.
pub fn peephole_ablation(runs: &mut Runs) -> Ablation {
    let (mut s, improvement) = on_off(
        runs,
        ("peephole_ablation", "Backend ablation: peephole optimizer"),
        [
            paper_with(|c| c.no_peephole = true),
            CompilerConfig::default(),
        ],
        [CYCLES, ("stack refs", RunStats::stack_refs)],
    );
    s.note(format!("Mean improvement: {improvement:+.1}%."));
    s
}

/// §6 future work: selective lambda lifting of non-escaping `letrec`
/// groups whose lifted arity still fits the argument registers.
pub fn lambda_lift(runs: &mut Runs) -> Ablation {
    let (mut s, improvement) = on_off(
        runs,
        ("lambda_lift", "§6 ablation: selective lambda lifting"),
        [
            CompilerConfig::default(),
            paper_with(|c| c.lambda_lift = true),
        ],
        [("closures", |r| r.closures_allocated), CYCLES],
    );
    s.note(format!(
        "Mean improvement: {improvement:+.1}%. Benchmarks whose loops capture enclosing\n\
         variables (prelude loops, named lets) lose their closures; programs\n\
         that were already closure-free are untouched, so the pass never\n\
         regresses — the \"appropriate set of heuristics\" the paper asks for."
    ));
    s
}

/// tak with its branches inverted: the call-free base case is the else
/// branch, so the layout swap is exactly what §6 proposes.
const INVERTED_TAK: &str = "(define (tak x y z)
       (if (< y x)
           (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))
           z))
     (tak 18 12 6)";

/// §6: static prediction that paths without calls are taken. The paper:
/// "a small (2–3%) but consistent improvement".
pub fn branch_prediction(runs: &mut Runs) -> Ablation {
    let off = CompilerConfig::default();
    let on = paper_with(|c| c.alloc.branch_prediction = true);
    let (mut s, improvement) = on_off(
        runs,
        (
            "branch_prediction",
            "§6: call-free-path static branch prediction",
        ),
        [off, on],
        [("mispredicts", |r| r.mispredicts), CYCLES],
    );
    let inverted = Benchmark {
        name: "tak (inverted)",
        description: "tak with its call-free base case in the else branch",
        standard: INVERTED_TAK.into(),
        small: INVERTED_TAK.into(),
        expected: Some("7"),
    };
    runs.run([(&inverted, off), (&inverted, on)]);
    let [off, on] = [off, on].map(|c| &runs.get(&inverted, c).stats);
    s.note(format!(
        "Mean improvement: {} (paper: small 2-3% but consistent).\n\
         Most rows are flat because the frontend already lays call-free\n\
         base cases out as the fallthrough path; the heuristic's headroom\n\
         appears when the source puts the recursive case first:\n\n\
         inverted tak: {} -> {} cycles ({:+.1}%), mispredicts {} -> {}",
        pct(improvement),
        off.cycles,
        on.cycles,
        speedup(off.cycles, on.cycles),
        off.mispredicts,
        on.mispredicts,
    ));
    s
}

/// §4: the share of compile time register allocation takes, best of 25
/// compiles per benchmark. Wall-clock values, so the gate skips this
/// table. Rows: (benchmark, [`phase_ns`] of the best compile).
pub fn compile_time(runs: &mut Runs) -> Section<(&'static str, [f64; 3])> {
    let benchmarks = runs.benchmarks().to_vec();
    let scale = runs.scale();
    let times = runs.fan_out(benchmarks.iter().collect(), |b: &Benchmark| {
        // Each compile reads its phases from the spans of a fresh registry.
        let compile = |_| {
            let mut reg = Registry::new();
            compile_observed(b.source(scale), &CompilerConfig::default(), &mut reg)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            phase_ns(&reg)
        };
        let total = |ns: &[f64; 3]| ns.iter().sum::<f64>();
        (0..25)
            .map(compile)
            .min_by(|x, y| total(x).total_cmp(&total(y)))
            .expect("25 compiles")
    });
    let alloc_share = |ns: &[f64; 3]| ratio(ns[1], ns.iter().sum(), 0.0);
    let mut s = Section::new(
        COMPILE_TIME,
        "§4: register allocation share of compile time (best of 25 reps)",
        "benchmark, frontend µs, allocation µs, codegen µs, alloc share",
    );
    for (b, ns) in benchmarks.iter().zip(times) {
        let micros = ns.map(|t| ((t / 1e3) as u64).to_string());
        let share = frac_pct(alloc_share(&ns));
        let cells = [&[b.name.to_owned()][..], &micros, &[share]].concat();
        s.push((b.name, ns), cells);
    }
    let share = mean_of(&s.rows, |(_, ns)| alloc_share(ns));
    s.note(format!(
        "Average allocation share: {} (paper: ~7% of overall compile time).",
        frac_pct(share)
    ));
    s
}
