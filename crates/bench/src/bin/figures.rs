//! The paper's Figs. 7–11, SharedDB against the query-at-a-time baseline:
//!
//! ```text
//! figures [7|8|9|10|11]…
//! ```
//!
//! prints each figure named (all five when none is) as CSV on stdout, a `#`
//! line first. What a figure runs is `shareddb_bench::figures`; the committed
//! run is `docs/figures/`, e.g. `figures 7 > docs/figures/fig7.csv`.

use shareddb_bench::figures::{run, Setting, NUMBERS};

fn main() {
    let numbers: Vec<u32> = std::env::args()
        .skip(1)
        .map(|arg| match arg.parse() {
            Ok(number) if NUMBERS.contains(&number) => number,
            _ => {
                eprintln!("usage: figures [7|8|9|10|11]...");
                std::process::exit(2);
            }
        })
        .collect();
    let numbers = if numbers.is_empty() {
        NUMBERS.to_vec()
    } else {
        numbers
    };
    let setting = Setting::full();
    for number in numbers {
        print!("{}", run(number, &setting).expect("a known figure"));
    }
}
