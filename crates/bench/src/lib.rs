//! # shareddb-bench
//!
//! The benchmark harnesses. The paper's evaluation (Section 5) is one binary
//! and one module:
//!
//! | Binary | Paper figure | Content |
//! |--------|--------------|---------|
//! | `plan_dump` | Figure 6 | the TPC-W global plan: operator census, every statement's slice with its sharing sets |
//! | `figures 7` | Figure 7 | successful interactions/s against offered load, three mixes |
//! | `figures 8` | Figure 8 | closed-loop interactions/s against cores |
//! | `figures 9` | Figure 9 | closed-loop interactions/s of each web interaction alone |
//! | `figures 10` | Figure 10 | response time of a batch of concurrent statements against its size |
//! | `figures 11` | Figure 11 | look-ups/s beside a rising share of best-seller analyses |
//!
//! The sweeps are [`figures`]; `docs/figures/` holds a committed run and
//! `docs/REPRODUCTION.md` reads it. The repository's benchmark is the
//! `ledger` binary (`BENCHMARK.json`); `wire_soak`, `crash_soak` and
//! `sql_conformance` drive the CI lanes.

pub mod conformance;
pub mod figures;

use shareddb_common::{Result, Value};
use shareddb_core::QueryOutcome;
use shareddb_tpcw::schema::SUBJECTS;
use shareddb_tpcw::TpcwScale;

/// Statements in the mix of [`drive_dump_mix`].
const DUMP_MIX_STATEMENTS: usize = 64;

/// Reads a usize parameter from the environment with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The TPC-W scale of `plan_dump` and `trace_dump` (default 2000 items;
/// override with `TPCW_ITEMS`).
pub fn bench_scale() -> TpcwScale {
    TpcwScale::with_items(env_usize("TPCW_ITEMS", 2_000))
}

/// Drives the deterministic light/heavy/update mix `plan_dump --analyze` and
/// `trace_dump` run through `execute`, over a catalog of `items` items:
/// enough traffic that batches carry more than one statement, small enough
/// to read the output. Of every eight statements, six are `getItemById`,
/// one `addOrderLine` and one `getBestSellers`; a failure is printed and
/// the mix goes on.
pub fn drive_dump_mix(items: usize, execute: impl Fn(&str, &[Value]) -> Result<QueryOutcome>) {
    let items = items.max(1) as i64;
    for i in 0..DUMP_MIX_STATEMENTS {
        let n = i as i64;
        let outcome = match i % 8 {
            7 => execute(
                "getBestSellers",
                &[Value::text(SUBJECTS[i % SUBJECTS.len()]), Value::Int(0)],
            ),
            6 => execute(
                "addOrderLine",
                &[
                    Value::Int(70_000_000 + n),
                    Value::Int(n % 16),
                    Value::Int(n % items),
                    Value::Int(1),
                ],
            ),
            _ => execute("getItemById", &[Value::Int(n * 7 % items)]),
        };
        if let Err(e) = outcome {
            eprintln!("statement {i} failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_usize("SHAREDDB_DOES_NOT_EXIST", 7), 7);
    }
}
