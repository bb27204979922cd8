//! What a loaded TPC-W catalog holds in memory, before a statement is run:
//! the resident set of the process, and each secondary index's entries
//! (`docs/OPERATIONS.md`, *The footprint*).
//!
//! ```sh
//! cargo run --offline --release --example footprint            # 20 000 items
//! TPCW_ITEMS=2000 cargo run --offline --release --example footprint
//! ```

use shareddb::tpcw::{build_catalog, TpcwScale};

/// `VmRSS` of this process in MiB (0 where `/proc` is not there).
fn resident_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"));
    let kib = line.and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

fn main() {
    let items = std::env::var("TPCW_ITEMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let before = resident_mib();
    let catalog = build_catalog(&TpcwScale::with_items(items)).expect("the catalog loads");
    let loaded = resident_mib();
    println!("{items} items: resident {loaded:.1} MiB ({before:.1} MiB before the load)\n");
    println!("{:<20}{:<18}{:>10}", "table", "index", "entries");
    let mut total = 0;
    for name in catalog.table_names() {
        let table = catalog.table(&name).expect("a listed table");
        let table = table.read();
        for (index, entries) in table.index_entry_counts() {
            println!("{name:<20}{index:<18}{entries:>10}");
            total += entries;
        }
    }
    println!("indexes: {total} entries");
}
