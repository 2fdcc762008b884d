//! Runs a few benchmarks under every save/restore strategy and prints a
//! compact comparison — a miniature of the paper's evaluation section.
//!
//! Run with: `cargo run --release --example strategy_tour`

use lesgs::allocator::{AllocConfig, RestoreStrategy, SaveStrategy};
use lesgs::suite::tables::Table;
use lesgs::suite::{measure, programs, Scale};

fn main() {
    let configs: Vec<(String, AllocConfig)> = vec![
        ("lazy/eager".into(), AllocConfig::paper_default()),
        (
            "early/eager".into(),
            AllocConfig {
                save: SaveStrategy::Early,
                ..AllocConfig::paper_default()
            },
        ),
        (
            "late/eager".into(),
            AllocConfig {
                save: SaveStrategy::Late,
                ..AllocConfig::paper_default()
            },
        ),
        (
            "lazy/lazy".into(),
            AllocConfig {
                restore: RestoreStrategy::Lazy,
                ..AllocConfig::paper_default()
            },
        ),
        ("baseline (c=0)".into(), AllocConfig::baseline()),
    ];

    for name in ["tak", "queens", "deriv"] {
        let bench = programs::benchmark(name).expect("benchmark exists");
        let mut t = Table::new(vec![
            "config".into(),
            "cycles".into(),
            "stack refs".into(),
            "saves".into(),
            "restores".into(),
            "stalls".into(),
        ]);
        for (label, cfg) in &configs {
            let run = measure(&bench, Scale::Small, (*cfg).into()).expect("benchmark runs");
            t.row(vec![
                label.clone(),
                run.stats.cycles.to_string(),
                run.stats.stack_refs().to_string(),
                run.stats.saves().to_string(),
                run.stats.restores().to_string(),
                run.stats.stall_cycles.to_string(),
            ]);
        }
        println!("{name} (small scale)\n{t}");
    }
}
