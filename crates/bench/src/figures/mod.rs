//! The figure registry: every table and figure of the paper's evaluation
//! (Tables 1/4, Figs. 1/3/6/9–14, §5.2.7), our extension experiments and
//! the default multi-tenant and workload × variant sweeps, as one list the
//! `janus-fig` binary runs.
//!
//! An entry is a spec grid plus a renderer. `janus-fig <name>` runs the
//! grid through [`crate::run_all`] (so `--jobs`, the twin-path switches
//! and the JSONL sink apply to every entry alike) and hands the
//! results, in spec order, to the renderer. Entries that run no
//! [`RunSpec`] return an empty grid and do their work in the renderer.

mod extensions;
mod paper;

use self::extensions::*;
use self::paper::*;
use crate::{row, RunResult, RunSpec, Variant};
use janus_workloads::Workload;

/// One table or figure.
pub struct Figure {
    /// Name on the `janus-fig` command line, and the stem of its
    /// `results/<name>.txt` and `results/json/<name>.jsonl`.
    pub name: &'static str,
    /// Default `--tx` (0 for entries whose output does not depend on it).
    pub tx: usize,
    /// The spec grid at a given `--tx`.
    pub specs: fn(usize) -> Vec<RunSpec>,
    /// Prints the entry from `--tx` and the grid's results in spec order.
    pub render: fn(usize, &[RunResult]),
}

/// Every entry, in `scripts/regen_results.sh` order.
pub static ALL: &[Figure] = &[
    fig("fig1", 0, no_specs, fig1),
    fig("fig3", 0, no_specs, fig3),
    fig("fig6", 0, no_specs, fig6),
    fig("fig9", 150, fig9_specs, fig9),
    fig("fig10", 150, fig10_specs, fig10),
    fig("fig11", 150, fig11_specs, fig11),
    fig("fig12", 120, fig12_specs, fig12),
    fig("fig13", 96, fig13_specs, fig13),
    fig("fig14", 32, fig14_specs, fig14),
    fig("table1", 0, no_specs, table1),
    fig("table4", 0, no_specs, table4),
    fig("overhead", 0, no_specs, overhead),
    fig("ablation", 120, no_specs, ablation),
    fig("endurance", 120, endurance_specs, endurance),
    fig("extended", 120, extended_specs, extended),
    fig("misuse", 0, no_specs, misuse),
    fig("skew", 150, skew_specs, skew),
    fig("multicore", 40, multicore_specs, multicore),
    fig("janus-sweep", 60, sweep_specs, sweep),
];

const fn fig(
    name: &'static str,
    tx: usize,
    specs: fn(usize) -> Vec<RunSpec>,
    render: fn(usize, &[RunResult]),
) -> Figure {
    Figure {
        name,
        tx,
        specs,
        render,
    }
}

/// The entry called `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    ALL.iter().find(|f| f.name == name)
}

fn no_specs(_tx: usize) -> Vec<RunSpec> {
    Vec::new()
}

/// The paper's default spec for a workload/variant pair at `tx`
/// transactions.
fn spec(workload: Workload, variant: Variant, tx: usize) -> RunSpec {
    let mut s = RunSpec::new(workload, variant);
    s.transactions = tx;
    s
}

/// Every workload under each variant, in that order.
fn grid(workloads: &[Workload], variants: &[Variant], tx: usize) -> Vec<RunSpec> {
    workloads
        .iter()
        .flat_map(|&w| variants.iter().map(move |&v| spec(w, v, tx)))
        .collect()
}

/// Prints one fixed-width table row.
fn print_row(cells: &[String], widths: &[usize]) {
    println!("{}", row(cells, widths));
}

/// Prints a fixed-width header row.
fn header(cells: &[&str], widths: &[usize]) {
    let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
    print_row(&cells, widths);
}
