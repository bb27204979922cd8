//! TPC-W schema and data generation.
//!
//! TPC-W models an online bookstore (Section 5.1 of the paper). This module
//! creates the base tables and secondary indexes and bulk-loads synthetic data
//! at a configurable scale. The default scale is laptop-sized; the shape of
//! the benchmark (cardinalities relative to the number of items, the 24
//! subjects, the customer/order ratios) follows the TPC-W specification.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shareddb_common::{tuple, DataType, Result, Tuple, Value};
use shareddb_storage::{Catalog, IndexDef, IndexKind, TableDef};

/// The 24 book subjects of the TPC-W specification.
pub const SUBJECTS: [&str; 24] = [
    "ARTS",
    "BIOGRAPHIES",
    "BUSINESS",
    "CHILDREN",
    "COMPUTERS",
    "COOKING",
    "HEALTH",
    "HISTORY",
    "HOME",
    "HUMOR",
    "LITERATURE",
    "MYSTERY",
    "NON-FICTION",
    "PARENTING",
    "POLITICS",
    "REFERENCE",
    "RELIGION",
    "ROMANCE",
    "SELF-HELP",
    "SCIENCE-NATURE",
    "SCIENCE-FICTION",
    "SPORTS",
    "YOUTH",
    "TRAVEL",
];

/// Scale configuration of the generated database.
#[derive(Debug, Clone)]
pub struct TpcwScale {
    /// Number of items (books). TPC-W uses 1k/10k/100k/1M/10M.
    pub items: usize,
    /// Number of registered customers (TPC-W: 2880 per emulated browser, here
    /// simply configurable; default 2.88 × items).
    pub customers: usize,
    /// Number of historical orders (TPC-W: 0.9 × customers).
    pub orders: usize,
    /// Number of pre-existing shopping carts.
    pub carts: usize,
    /// RNG seed for reproducible data sets.
    pub seed: u64,
}

impl Default for TpcwScale {
    fn default() -> Self {
        TpcwScale::with_items(1_000)
    }
}

impl TpcwScale {
    /// Creates a scale proportional to an item count, following the TPC-W
    /// ratios.
    pub fn with_items(items: usize) -> Self {
        let items = items.max(100);
        TpcwScale {
            items,
            customers: (items as f64 * 2.88) as usize,
            orders: ((items as f64 * 2.88) * 0.9) as usize,
            carts: items / 2,
            seed: 42,
        }
    }

    /// A tiny scale for unit tests.
    pub fn tiny() -> Self {
        TpcwScale {
            items: 100,
            customers: 288,
            orders: 259,
            carts: 50,
            seed: 7,
        }
    }

    /// Number of authors (TPC-W: items / 4, at least 25).
    pub fn authors(&self) -> usize {
        (self.items / 4).max(25)
    }

    /// Number of addresses (2 per customer).
    pub fn addresses(&self) -> usize {
        self.customers * 2
    }

    /// Number of countries (fixed at 92 in TPC-W).
    pub fn countries(&self) -> usize {
        92
    }

    /// Average number of order lines per order (TPC-W: ~3).
    pub fn order_lines_per_order(&self) -> usize {
        3
    }
}

/// Creates the nine base tables of the benchmark plus secondary indexes.
pub fn create_schema(catalog: &Catalog) -> Result<()> {
    catalog.create_table(
        TableDef::new("COUNTRY")
            .column("CO_ID", DataType::Int)
            .column("CO_NAME", DataType::Text)
            .primary_key(&["CO_ID"]),
    )?;
    catalog.create_table(
        TableDef::new("ADDRESS")
            .column("ADDR_ID", DataType::Int)
            .column("ADDR_STREET", DataType::Text)
            .column("ADDR_CITY", DataType::Text)
            .column("ADDR_CO_ID", DataType::Int)
            .primary_key(&["ADDR_ID"]),
    )?;
    catalog.create_table(
        TableDef::new("CUSTOMER")
            .column("C_ID", DataType::Int)
            .column("C_UNAME", DataType::Text)
            .column("C_FNAME", DataType::Text)
            .column("C_LNAME", DataType::Text)
            .column("C_ADDR_ID", DataType::Int)
            .column("C_DISCOUNT", DataType::Float)
            .column("C_LAST_LOGIN", DataType::Date)
            .primary_key(&["C_ID"]),
    )?;
    catalog.create_table(
        TableDef::new("AUTHOR")
            .column("A_ID", DataType::Int)
            .column("A_FNAME", DataType::Text)
            .column("A_LNAME", DataType::Text)
            .primary_key(&["A_ID"]),
    )?;
    catalog.create_table(
        TableDef::new("ITEM")
            .column("I_ID", DataType::Int)
            .column("I_TITLE", DataType::Text)
            .column("I_A_ID", DataType::Int)
            .column("I_SUBJECT", DataType::Text)
            .column("I_COST", DataType::Float)
            .column("I_PUB_DATE", DataType::Date)
            .column("I_STOCK", DataType::Int)
            .column("I_RELATED1", DataType::Int)
            .primary_key(&["I_ID"]),
    )?;
    catalog.create_table(
        TableDef::new("ORDERS")
            .column("O_ID", DataType::Int)
            .column("O_C_ID", DataType::Int)
            .column("O_DATE", DataType::Date)
            .column("O_TOTAL", DataType::Float)
            .column("O_STATUS", DataType::Text)
            .primary_key(&["O_ID"]),
    )?;
    catalog.create_table(
        TableDef::new("ORDER_LINE")
            .column("OL_ID", DataType::Int)
            .column("OL_O_ID", DataType::Int)
            .column("OL_I_ID", DataType::Int)
            .column("OL_QTY", DataType::Int)
            .primary_key(&["OL_ID"]),
    )?;
    catalog.create_table(
        TableDef::new("CC_XACTS")
            .column("CX_O_ID", DataType::Int)
            .column("CX_TYPE", DataType::Text)
            .column("CX_AMOUNT", DataType::Float)
            .column("CX_DATE", DataType::Date)
            .primary_key(&["CX_O_ID"]),
    )?;
    catalog.create_table(
        TableDef::new("SHOPPING_CART")
            .column("SC_ID", DataType::Int)
            .column("SC_DATE", DataType::Date)
            .primary_key(&["SC_ID"]),
    )?;
    catalog.create_table(
        TableDef::new("SHOPPING_CART_LINE")
            .column("SCL_ID", DataType::Int)
            .column("SCL_SC_ID", DataType::Int)
            .column("SCL_I_ID", DataType::Int)
            .column("SCL_QTY", DataType::Int)
            .primary_key(&["SCL_ID"]),
    )?;

    // Secondary indexes for the access paths used by the workload ("we built
    // all the necessary indexes", Section 5.2 — the same indexes serve both
    // SharedDB and the baselines). None is on a primary key: a table's key
    // map answers those look-ups, under every snapshot. The title search is
    // an infix pattern (`'%BOOK n%'`): ITEM's titles are indexed by gram.
    let indexes = [
        ("CUSTOMER_UNAME", "CUSTOMER", "C_UNAME", IndexKind::Values),
        ("AUTHOR_LNAME", "AUTHOR", "A_LNAME", IndexKind::Values),
        ("ITEM_SUBJECT", "ITEM", "I_SUBJECT", IndexKind::Values),
        ("ITEM_AUTHOR", "ITEM", "I_A_ID", IndexKind::Values),
        ("ITEM_TITLE", "ITEM", "I_TITLE", IndexKind::Grams),
        ("ORDERS_CUSTOMER", "ORDERS", "O_C_ID", IndexKind::Values),
        (
            "ORDER_LINE_ORDER",
            "ORDER_LINE",
            "OL_O_ID",
            IndexKind::Values,
        ),
        (
            "ORDER_LINE_ITEM",
            "ORDER_LINE",
            "OL_I_ID",
            IndexKind::Values,
        ),
        (
            "SCL_CART",
            "SHOPPING_CART_LINE",
            "SCL_SC_ID",
            IndexKind::Values,
        ),
    ];
    for (name, table, column, kind) in indexes {
        catalog.create_index(IndexDef {
            name: name.into(),
            table: table.into(),
            column: column.into(),
            kind,
        })?;
    }
    Ok(())
}

/// Bulk-loads a synthetic TPC-W data set at the given scale. Returns the total
/// number of loaded rows.
pub fn load_data(catalog: &Catalog, scale: &TpcwScale) -> Result<usize> {
    let mut rng = StdRng::seed_from_u64(scale.seed);
    let mut total = 0usize;

    // COUNTRY
    let countries: Vec<Tuple> = (0..scale.countries() as i64)
        .map(|i| tuple![i, format!("COUNTRY_{i}")])
        .collect();
    total += catalog.bulk_load("COUNTRY", countries)?;

    // ADDRESS
    let addresses: Vec<Tuple> = (0..scale.addresses() as i64)
        .map(|i| {
            tuple![
                i,
                format!("{} Main Street", i),
                format!("CITY_{}", i % 500),
                rng.gen_range(0..scale.countries() as i64)
            ]
        })
        .collect();
    total += catalog.bulk_load("ADDRESS", addresses)?;

    // CUSTOMER
    let customers: Vec<Tuple> = (0..scale.customers as i64)
        .map(|i| {
            tuple![
                i,
                customer_uname(i),
                format!("FIRST{i}"),
                format!("LAST{}", i % 1000),
                rng.gen_range(0..scale.addresses() as i64),
                (rng.gen_range(0..50) as f64) / 100.0,
                Value::Date(15_000 + rng.gen_range(0..365))
            ]
        })
        .collect();
    total += catalog.bulk_load("CUSTOMER", customers)?;

    // AUTHOR
    let authors: Vec<Tuple> = (0..scale.authors() as i64)
        .map(|i| tuple![i, format!("AFIRST{i}"), author_lname(i)])
        .collect();
    total += catalog.bulk_load("AUTHOR", authors)?;

    // ITEM
    let items: Vec<Tuple> = (0..scale.items as i64)
        .map(|i| {
            tuple![
                i,
                item_title(i),
                rng.gen_range(0..scale.authors() as i64),
                SUBJECTS[(i as usize) % SUBJECTS.len()],
                1.0 + (rng.gen_range(0..9900) as f64) / 100.0,
                Value::Date(12_000 + rng.gen_range(0..3_000)),
                rng.gen_range(10..100i64),
                (i + 1) % scale.items as i64
            ]
        })
        .collect();
    total += catalog.bulk_load("ITEM", items)?;

    // ORDERS + ORDER_LINE + CC_XACTS
    let mut orders = Vec::with_capacity(scale.orders);
    let mut order_lines = Vec::new();
    let mut cc_xacts = Vec::with_capacity(scale.orders);
    let mut ol_id: i64 = 0;
    for o in 0..scale.orders as i64 {
        let customer = rng.gen_range(0..scale.customers as i64);
        let date = Value::Date(14_000 + (o % 1_000));
        let mut order_total = 0.0f64;
        let lines = 1 + rng.gen_range(0..scale.order_lines_per_order() * 2) as i64;
        for _ in 0..lines {
            let item = rng.gen_range(0..scale.items as i64);
            let qty = rng.gen_range(1..5i64);
            order_lines.push(tuple![ol_id, o, item, qty]);
            order_total += qty as f64 * 10.0;
            ol_id += 1;
        }
        orders.push(tuple![
            o,
            customer,
            date.clone(),
            order_total,
            if o % 10 == 0 { "PENDING" } else { "SHIPPED" }
        ]);
        cc_xacts.push(tuple![o, "VISA", order_total, date]);
    }
    total += catalog.bulk_load("ORDERS", orders)?;
    total += catalog.bulk_load("ORDER_LINE", order_lines)?;
    total += catalog.bulk_load("CC_XACTS", cc_xacts)?;

    // SHOPPING_CART + SHOPPING_CART_LINE
    let carts: Vec<Tuple> = (0..scale.carts as i64)
        .map(|i| tuple![i, Value::Date(15_300)])
        .collect();
    total += catalog.bulk_load("SHOPPING_CART", carts)?;
    let cart_lines: Vec<Tuple> = (0..scale.carts as i64)
        .map(|i| {
            tuple![
                i,
                i,
                rng.gen_range(0..scale.items as i64),
                rng.gen_range(1..4i64)
            ]
        })
        .collect();
    total += catalog.bulk_load("SHOPPING_CART_LINE", cart_lines)?;

    Ok(total)
}

/// Creates the schema and loads data in one step, returning the catalog.
pub fn build_catalog(scale: &TpcwScale) -> Result<Catalog> {
    let catalog = Catalog::new();
    create_schema(&catalog)?;
    load_data(&catalog, scale)?;
    Ok(catalog)
}

/// Deterministic customer user name for a customer id.
pub fn customer_uname(id: i64) -> String {
    format!("UNAME{id}")
}

/// Deterministic author last name for an author id.
pub fn author_lname(id: i64) -> String {
    format!("ALAST{}", id % 500)
}

/// Deterministic item title for an item id.
pub fn item_title(id: i64) -> String {
    format!("TITLE {} OF BOOK {}", id % 97, id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_all_tables_and_indexes() {
        let catalog = Catalog::new();
        create_schema(&catalog).unwrap();
        let names = catalog.table_names();
        for t in [
            "COUNTRY",
            "ADDRESS",
            "CUSTOMER",
            "AUTHOR",
            "ITEM",
            "ORDERS",
            "ORDER_LINE",
            "CC_XACTS",
            "SHOPPING_CART",
            "SHOPPING_CART_LINE",
        ] {
            assert!(names.contains(&t.to_string()), "missing table {t}");
        }
        let item = catalog.table("ITEM").unwrap();
        assert!(item.read().has_index_on(3));
        let customer = catalog.table("CUSTOMER").unwrap();
        assert!(customer.read().has_index_on(1));
        // A key is indexed once, by its table's key map: no B-tree repeats it.
        for name in names {
            let table = catalog.table(&name).unwrap();
            let table = table.read();
            for index in table.index_names() {
                let column = table.index_column(index).unwrap();
                assert_ne!(
                    table.primary_key(),
                    [column],
                    "{index} repeats {name}'s key"
                );
            }
        }
    }

    #[test]
    fn data_load_respects_scale() {
        let scale = TpcwScale::tiny();
        let catalog = build_catalog(&scale).unwrap();
        assert_eq!(
            catalog.table("ITEM").unwrap().read().live_count(),
            scale.items
        );
        assert_eq!(
            catalog.table("CUSTOMER").unwrap().read().live_count(),
            scale.customers
        );
        assert_eq!(
            catalog.table("ORDERS").unwrap().read().live_count(),
            scale.orders
        );
        let ol = catalog.table("ORDER_LINE").unwrap().read().live_count();
        assert!(ol >= scale.orders, "each order has at least one line");
    }

    #[test]
    fn data_is_reproducible_for_a_seed() {
        let a = build_catalog(&TpcwScale::tiny()).unwrap();
        let b = build_catalog(&TpcwScale::tiny()).unwrap();
        let snap_a = a.oracle().read_ts();
        let snap_b = b.oracle().read_ts();
        let ta = a.table("ITEM").unwrap();
        let tb = b.table("ITEM").unwrap();
        let rows_a: Vec<_> = ta.read().scan(snap_a).map(|(_, r)| r.clone()).collect();
        let rows_b: Vec<_> = tb.read().scan(snap_b).map(|(_, r)| r.clone()).collect();
        assert_eq!(rows_a, rows_b);
    }

    #[test]
    fn scale_ratios() {
        let s = TpcwScale::with_items(10_000);
        assert_eq!(s.items, 10_000);
        assert_eq!(s.customers, 28_800);
        assert_eq!(s.orders, 25_920);
        assert!(s.authors() >= 25);
        assert_eq!(s.countries(), 92);
    }
}
