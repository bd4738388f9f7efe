//! Command-line driver that regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! dvi-experiments [--quick] [fig2|fig3|fig5|fig6|fig9|fig10|fig11|fig12|fig13|all]
//! ```
//!
//! `--quick` uses the reduced instruction budget (useful for smoke tests);
//! the default budget simulates up to a few hundred thousand instructions
//! per benchmark per configuration (five of the seven presets halt
//! earlier), which regenerates every figure in about 3 s on a 2-CPU host.

use dvi_experiments::{fig02, fig03, fig05, fig06, fig09, fig10, fig11, fig12, fig13, Budget};
use std::process::ExitCode;

fn print_usage() {
    eprintln!(
        "usage: dvi-experiments [--quick] [fig2|fig3|fig5|fig6|fig9|fig10|fig11|fig12|fig13|all]"
    );
}

fn run_figure(name: &str, budget: Budget) -> bool {
    match name {
        "fig2" => println!("{}", fig02::run()),
        "fig3" => println!("{}", fig03::run(budget)),
        "fig5" => println!("{}", fig05::run(budget)),
        "fig6" => println!("{}", fig06::run(budget)),
        "fig9" => println!("{}", fig09::run(budget)),
        "fig10" => println!("{}", fig10::run(budget)),
        "fig11" => println!("{}", fig11::run(budget)),
        "fig12" => println!("{}", fig12::run(budget)),
        "fig13" => println!("{}", fig13::run(budget)),
        "fig5+6" | "fig56" => {
            let five = fig05::run(budget);
            println!("{five}");
            println!("{}", fig06::from_fig05(&five));
        }
        _ => return false,
    }
    true
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut targets: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => targets.push(other.to_owned()),
        }
    }
    let budget = if quick { Budget::quick() } else { Budget::full() };
    if targets.is_empty() {
        targets.push("all".to_owned());
    }

    for target in targets {
        if target == "all" {
            println!("{}", fig02::run());
            println!("{}", fig03::run(budget));
            let five = fig05::run(budget);
            println!("{five}");
            println!("{}", fig06::from_fig05(&five));
            println!("{}", fig09::run(budget));
            println!("{}", fig10::run(budget));
            println!("{}", fig11::run(budget));
            println!("{}", fig12::run(budget));
            println!("{}", fig13::run(budget));
        } else if !run_figure(&target, budget) {
            eprintln!("unknown figure `{target}`");
            print_usage();
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
