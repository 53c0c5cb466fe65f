//! Regenerates the paper's evaluation tables/figures offline: every
//! experiment in [`qisim::experiments::SUITE`] runs **concurrently** on
//! the `qisim-par` pool and prints its paper-vs-measured rows in paper
//! order, followed by a summary of each experiment's worst relative
//! error.
//!
//! Run with `cargo run --release --example paper_suite` — or pass id
//! substrings to run a subset, e.g.
//! `cargo run --release --example paper_suite -- "Fig. 13" "Table 2"`.
//! (Table 1 and Fig. 11 re-run the heavyweight error models and take a
//! few minutes; the figure experiments are seconds.)

use qisim::experiments::{run_matching, SUITE};

fn main() {
    let filters: Vec<String> = std::env::args().skip(1).collect();
    let matches = |id: &str| filters.is_empty() || filters.iter().any(|f| id.contains(f.as_str()));
    let picked: Vec<&str> = SUITE.iter().map(|(id, _)| *id).filter(|id| matches(id)).collect();
    if picked.is_empty() {
        eprintln!("no experiment id matches {filters:?}; known ids:");
        for (id, _) in SUITE {
            eprintln!("  {id}");
        }
        std::process::exit(1);
    }
    println!("running {} experiment(s) on {} thread(s)...\n", picked.len(), qisim::par::threads());

    let experiments = run_matching(matches);
    for e in &experiments {
        println!("{e}");
    }

    println!("{:<12} {:<55} {:>14}", "experiment", "title", "max |rel err|");
    for e in &experiments {
        let worst = e.max_relative_error();
        let shown = if worst == 0.0 { "-".into() } else { format!("{worst:.3}") };
        println!("{:<12} {:<55} {:>14}", e.id, e.title, shown);
    }
}
