//! Regenerates one table or figure of the evaluation from the
//! [`janus_bench::figures`] registry.
//!
//! ```text
//! janus-fig <name> [--tx N] [--jobs N] [--legacy-events] [--interpreted-sched]
//! janus-fig --list
//! ```
//!
//! `--list` prints every registered name, one per line, in the order
//! `scripts/regen_results.sh` runs them. A run prints the entry's table to
//! stdout; with `JANUS_RESULTS_JSON_DIR` set, its simulation runs are also
//! exported to `<dir>/<name>.jsonl`. An unknown name or a malformed or zero
//! `--tx`/`--jobs` value exits with status 2.

use janus_bench::cli::{arg_positive, check_args};
use janus_bench::{figures, run_all, SweepArgs};

const USAGE: &str = "usage: janus-fig <name> [--tx N] [--jobs N] [--legacy-events] \
                     [--interpreted-sched]\n       janus-fig --list";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        for fig in figures::ALL {
            println!("{}", fig.name);
        }
        return;
    }
    let Some(fig) = args.first().and_then(|name| figures::find(name)) else {
        match args.first() {
            Some(name) => eprintln!("error: unknown figure {name:?} (see janus-fig --list)"),
            None => eprintln!("error: missing figure name"),
        }
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    check_args(&args[1..], &["--tx"], &[]);
    let tx = arg_positive("--tx").unwrap_or(fig.tx);
    let results = run_all(fig.name, (fig.specs)(tx), &SweepArgs::parse());
    (fig.render)(tx, &results);
}
