//! Regenerates Figures 2–7 of the paper.
//!
//! ```text
//! cargo run --release -p ring-experiments --bin figures            # all six, seconds
//! cargo run --release -p ring-experiments --bin figures -- --alg c1
//! cargo run --release -p ring-experiments --bin figures -- --fast  # budget gate: LB denominators for big cases
//! ```

use ring_experiments::report::{render_figure, render_summary};
use ring_experiments::run_figures;
use ring_experiments::runner::ExperimentConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut algs: Vec<String> = Vec::new();
    let mut cfg = ExperimentConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--alg" => {
                i += 1;
                algs.push(args.get(i).expect("--alg needs a value").to_uppercase());
            }
            "--all" => {}
            "--fast" => cfg = ExperimentConfig::fast(),
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("usage: figures [--alg A1|B1|C1|A2|B2|C2]... [--fast]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let names: Vec<&str> = algs.iter().map(String::as_str).collect();
    let reports = run_figures(&names, &cfg);
    for r in &reports {
        print!("{}", render_figure(r));
    }
    println!("## Summary\n");
    print!("{}", render_summary(&reports));
}
