//! Web interactions, workload mixes and parameter generation.
//!
//! TPC-W drives the database through fourteen *web interactions*, each of
//! which issues one or more database statements (Section 5.1). The relative
//! frequency of the interactions is given by one of three *mixes*: Browsing
//! (read-mostly, search-heavy), Shopping (mixed) and Ordering (write-heavy).
//! Every interaction also has a response-time limit; interactions that exceed
//! it do not count as successful.

use crate::schema::{customer_uname, TpcwScale, SUBJECTS};
use rand::rngs::StdRng;
use rand::Rng;
use shareddb_common::Value;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

/// The fourteen web interactions of TPC-W.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WebInteraction {
    /// Home page: customer profile + promotional items.
    Home,
    /// Latest items of one subject.
    NewProducts,
    /// Best-selling items of one subject (heavy analytical query).
    BestSellers,
    /// Detail page of one item.
    ProductDetail,
    /// Search form (light).
    SearchRequest,
    /// Search results (by subject, title or author).
    SearchResults,
    /// Shopping cart update + display.
    ShoppingCart,
    /// Customer registration / log-in.
    CustomerRegistration,
    /// Buy request: customer data + cart display.
    BuyRequest,
    /// Buy confirmation: order creation (write-heavy).
    BuyConfirm,
    /// Order inquiry form (light).
    OrderInquiry,
    /// Display of the customer's last order.
    OrderDisplay,
    /// Admin form: item detail.
    AdminRequest,
    /// Admin confirmation: item update + related-item recomputation.
    AdminConfirm,
}

/// All fourteen interactions.
pub const ALL_INTERACTIONS: [WebInteraction; 14] = [
    WebInteraction::Home,
    WebInteraction::NewProducts,
    WebInteraction::BestSellers,
    WebInteraction::ProductDetail,
    WebInteraction::SearchRequest,
    WebInteraction::SearchResults,
    WebInteraction::ShoppingCart,
    WebInteraction::CustomerRegistration,
    WebInteraction::BuyRequest,
    WebInteraction::BuyConfirm,
    WebInteraction::OrderInquiry,
    WebInteraction::OrderDisplay,
    WebInteraction::AdminRequest,
    WebInteraction::AdminConfirm,
];

impl WebInteraction {
    /// Name used in reports (matches Figure 9 of the paper).
    pub fn name(&self) -> &'static str {
        match self {
            WebInteraction::Home => "Home",
            WebInteraction::NewProducts => "NewProducts",
            WebInteraction::BestSellers => "BestSellers",
            WebInteraction::ProductDetail => "ProductDetail",
            WebInteraction::SearchRequest => "SearchRequest",
            WebInteraction::SearchResults => "SearchResults",
            WebInteraction::ShoppingCart => "ShoppingCart",
            WebInteraction::CustomerRegistration => "CustomerRegistration",
            WebInteraction::BuyRequest => "BuyRequest",
            WebInteraction::BuyConfirm => "BuyConfirmation",
            WebInteraction::OrderInquiry => "OrderInquiry",
            WebInteraction::OrderDisplay => "OrderDisplay",
            WebInteraction::AdminRequest => "AdminRequest",
            WebInteraction::AdminConfirm => "AdminConfirm",
        }
    }

    /// TPC-W response-time limit for the interaction. The specification uses
    /// 3–20 seconds; the reproduction keeps the same relative weights but the
    /// driver may scale them (see [`crate::driver`]).
    pub fn time_limit(&self) -> Duration {
        match self {
            WebInteraction::BestSellers | WebInteraction::AdminConfirm => Duration::from_secs(5),
            WebInteraction::BuyConfirm | WebInteraction::OrderDisplay => Duration::from_secs(5),
            WebInteraction::NewProducts | WebInteraction::SearchResults => Duration::from_secs(5),
            _ => Duration::from_secs(3),
        }
    }
}

/// A workload mix: relative interaction frequencies in percent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Read-mostly, search intensive, few updates, many analytical queries.
    Browsing,
    /// Some updates and some analytical queries.
    Shopping,
    /// Write-intensive with only a few analytical queries.
    Ordering,
}

impl Mix {
    /// Name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Mix::Browsing => "Browsing",
            Mix::Shopping => "Shopping",
            Mix::Ordering => "Ordering",
        }
    }

    /// The interaction probabilities of the mix, in the order of
    /// [`ALL_INTERACTIONS`]. Values follow the TPC-W specification's web
    /// interaction mix tables (rounded to one decimal).
    pub fn weights(&self) -> [f64; 14] {
        match self {
            // Home, New, Best, Detail, SearchReq, SearchRes, Cart, Reg,
            // BuyReq, BuyConf, OrderInq, OrderDisp, AdminReq, AdminConf
            Mix::Browsing => [
                29.00, 11.00, 11.00, 21.00, 12.00, 11.00, 2.00, 0.82, 0.75, 0.69, 0.30, 0.25, 0.10,
                0.09,
            ],
            Mix::Shopping => [
                16.00, 5.00, 5.00, 17.00, 20.00, 17.00, 11.60, 3.00, 2.60, 1.20, 0.75, 0.66, 0.10,
                0.09,
            ],
            Mix::Ordering => [
                9.12, 0.46, 0.46, 12.35, 14.53, 13.08, 13.53, 12.86, 12.73, 10.18, 0.25, 0.22,
                0.12, 0.11,
            ],
        }
    }

    /// Draws one interaction according to the mix.
    pub fn sample(&self, rng: &mut StdRng) -> WebInteraction {
        let weights = self.weights();
        let total: f64 = weights.iter().sum();
        let mut draw = rng.gen_range(0.0..total);
        for (interaction, weight) in ALL_INTERACTIONS.iter().zip(weights) {
            if draw < weight {
                return *interaction;
            }
            draw -= weight;
        }
        WebInteraction::Home
    }
}

/// One database statement call of an interaction.
#[derive(Debug, Clone)]
pub struct StatementCall {
    /// Name of the prepared statement.
    pub statement: &'static str,
    /// Parameter values.
    pub params: Vec<Value>,
}

/// Generates concrete parameters for the interactions, tracking fresh ids for
/// inserts.
pub struct ParamGenerator {
    scale: TpcwScale,
    next_order_id: AtomicI64,
    next_order_line_id: AtomicI64,
    next_cart_id: AtomicI64,
    next_cart_line_id: AtomicI64,
    next_customer_id: AtomicI64,
    /// Number of recent orders analysed by the best-sellers query (the paper:
    /// "the latest 3,333 orders"). Scaled to the data set size.
    pub bestseller_window: i64,
}

/// Process-wide epoch so that several [`ParamGenerator`] instances used
/// against the same database (e.g. consecutive load points of a sweep) never
/// hand out colliding primary keys for their inserts.
static GENERATOR_EPOCH: AtomicI64 = AtomicI64::new(1);

impl ParamGenerator {
    /// Creates a generator for the given scale.
    pub fn new(scale: &TpcwScale) -> Self {
        let orders = scale.orders as i64;
        // Each generator instance claims a disjoint id range of 10M ids.
        let base = GENERATOR_EPOCH.fetch_add(1, Ordering::Relaxed) * 10_000_000;
        ParamGenerator {
            scale: scale.clone(),
            next_order_id: AtomicI64::new(base),
            next_order_line_id: AtomicI64::new(base),
            next_cart_id: AtomicI64::new(base),
            next_cart_line_id: AtomicI64::new(base),
            next_customer_id: AtomicI64::new(base),
            bestseller_window: (orders / 3).clamp(100, 3_333),
        }
    }

    fn random_item(&self, rng: &mut StdRng) -> i64 {
        rng.gen_range(0..self.scale.items as i64)
    }

    fn random_customer(&self, rng: &mut StdRng) -> i64 {
        rng.gen_range(0..self.scale.customers as i64)
    }

    fn random_subject(&self, rng: &mut StdRng) -> Value {
        Value::text(SUBJECTS[rng.gen_range(0..SUBJECTS.len())])
    }

    /// The smallest order id the best-sellers query considers: the loaded
    /// orders less [`ParamGenerator::bestseller_window`].
    pub fn bestseller_threshold(&self) -> i64 {
        (self.scale.orders as i64 - self.bestseller_window).max(0)
    }

    /// Generates the statement calls of one interaction.
    pub fn calls(&self, interaction: WebInteraction, rng: &mut StdRng) -> Vec<StatementCall> {
        match interaction {
            WebInteraction::Home => vec![
                StatementCall {
                    statement: "getCustomerById",
                    params: vec![Value::Int(self.random_customer(rng))],
                },
                StatementCall {
                    statement: "getItemById",
                    params: vec![Value::Int(self.random_item(rng))],
                },
            ],
            WebInteraction::NewProducts => vec![StatementCall {
                statement: "getNewProducts",
                params: vec![self.random_subject(rng)],
            }],
            WebInteraction::BestSellers => vec![StatementCall {
                statement: "getBestSellers",
                params: vec![
                    self.random_subject(rng),
                    Value::Int(self.bestseller_threshold()),
                ],
            }],
            WebInteraction::ProductDetail => vec![StatementCall {
                statement: "getBook",
                params: vec![Value::Int(self.random_item(rng))],
            }],
            WebInteraction::SearchRequest => vec![StatementCall {
                statement: "getItemById",
                params: vec![Value::Int(self.random_item(rng))],
            }],
            WebInteraction::SearchResults => {
                let kind = rng.gen_range(0..3);
                match kind {
                    0 => vec![StatementCall {
                        statement: "doSubjectSearch",
                        params: vec![self.random_subject(rng)],
                    }],
                    1 => vec![StatementCall {
                        statement: "doTitleSearch",
                        params: vec![Value::text(format!(
                            "%BOOK {}%",
                            rng.gen_range(0..self.scale.items as i64)
                        ))],
                    }],
                    _ => vec![StatementCall {
                        statement: "doAuthorSearch",
                        params: vec![Value::text(format!("ALAST{}%", rng.gen_range(0..500)))],
                    }],
                }
            }
            WebInteraction::ShoppingCart => {
                let cart = self.next_cart_id.fetch_add(1, Ordering::Relaxed);
                let line = self.next_cart_line_id.fetch_add(1, Ordering::Relaxed);
                vec![
                    StatementCall {
                        statement: "createCart",
                        params: vec![Value::Int(cart), Value::Date(15_400)],
                    },
                    StatementCall {
                        statement: "addToCart",
                        params: vec![
                            Value::Int(line),
                            Value::Int(cart),
                            Value::Int(self.random_item(rng)),
                            Value::Int(rng.gen_range(1..4)),
                        ],
                    },
                    StatementCall {
                        statement: "getCart",
                        params: vec![Value::Int(cart)],
                    },
                ]
            }
            WebInteraction::CustomerRegistration => {
                if rng.gen_bool(0.2) {
                    let id = self.next_customer_id.fetch_add(1, Ordering::Relaxed);
                    vec![StatementCall {
                        statement: "createCustomer",
                        params: vec![
                            Value::Int(id),
                            Value::text(customer_uname(id)),
                            Value::text(format!("FIRST{id}")),
                            Value::text(format!("LAST{}", id % 1000)),
                            Value::Int(0),
                            Value::Date(15_400),
                        ],
                    }]
                } else {
                    let customer = self.random_customer(rng);
                    vec![
                        StatementCall {
                            statement: "getCustomerByUname",
                            params: vec![Value::text(customer_uname(customer))],
                        },
                        StatementCall {
                            statement: "updateCustomerLogin",
                            params: vec![Value::Int(customer), Value::Date(15_401)],
                        },
                    ]
                }
            }
            WebInteraction::BuyRequest => {
                let customer = self.random_customer(rng);
                let cart = rng.gen_range(0..self.scale.carts.max(1) as i64);
                vec![
                    StatementCall {
                        statement: "getCustomerByUname",
                        params: vec![Value::text(customer_uname(customer))],
                    },
                    StatementCall {
                        statement: "getCart",
                        params: vec![Value::Int(cart)],
                    },
                ]
            }
            WebInteraction::BuyConfirm => {
                let order = self.next_order_id.fetch_add(1, Ordering::Relaxed);
                let line = self.next_order_line_id.fetch_add(1, Ordering::Relaxed);
                let customer = self.random_customer(rng);
                vec![
                    StatementCall {
                        statement: "createOrder",
                        params: vec![
                            Value::Int(order),
                            Value::Int(customer),
                            Value::Date(15_402),
                            Value::Float(42.0),
                        ],
                    },
                    StatementCall {
                        statement: "addOrderLine",
                        params: vec![
                            Value::Int(line),
                            Value::Int(order),
                            Value::Int(self.random_item(rng)),
                            Value::Int(rng.gen_range(1..4)),
                        ],
                    },
                    StatementCall {
                        statement: "addCCXact",
                        params: vec![Value::Int(order), Value::Float(42.0), Value::Date(15_402)],
                    },
                    StatementCall {
                        statement: "clearCart",
                        params: vec![Value::Int(rng.gen_range(0..self.scale.carts.max(1) as i64))],
                    },
                ]
            }
            WebInteraction::OrderInquiry => vec![StatementCall {
                statement: "getCustomerById",
                params: vec![Value::Int(self.random_customer(rng))],
            }],
            WebInteraction::OrderDisplay => vec![StatementCall {
                statement: "getCustomerOrder",
                params: vec![Value::Int(self.random_customer(rng))],
            }],
            WebInteraction::AdminRequest => vec![StatementCall {
                statement: "getBook",
                params: vec![Value::Int(self.random_item(rng))],
            }],
            WebInteraction::AdminConfirm => vec![
                StatementCall {
                    statement: "adminUpdateItem",
                    params: vec![
                        Value::Int(self.random_item(rng)),
                        Value::Float(rng.gen_range(1.0..100.0)),
                        Value::Date(15_403),
                    ],
                },
                StatementCall {
                    statement: "getBestSellers",
                    params: vec![
                        self.random_subject(rng),
                        Value::Int(self.bestseller_threshold()),
                    ],
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans::statement_names;
    use rand::SeedableRng;

    #[test]
    fn mixes_sum_to_about_100_percent() {
        for mix in [Mix::Browsing, Mix::Shopping, Mix::Ordering] {
            let total: f64 = mix.weights().iter().sum();
            assert!((total - 100.0).abs() < 1.0, "{}: {total}", mix.name());
        }
    }

    #[test]
    fn sampling_follows_the_mix() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut home = 0;
        let mut buy_confirm = 0;
        for _ in 0..20_000 {
            match Mix::Browsing.sample(&mut rng) {
                WebInteraction::Home => home += 1,
                WebInteraction::BuyConfirm => buy_confirm += 1,
                _ => {}
            }
        }
        // Browsing: Home ≈ 29%, BuyConfirm ≈ 0.69%.
        assert!(home > 5_000, "home = {home}");
        assert!(buy_confirm < 400, "buy_confirm = {buy_confirm}");
    }

    #[test]
    fn ordering_mix_is_write_heavier_than_browsing() {
        let mut rng = StdRng::seed_from_u64(2);
        let writes = |mix: Mix, rng: &mut StdRng| {
            (0..10_000)
                .filter(|_| {
                    matches!(
                        mix.sample(rng),
                        WebInteraction::BuyConfirm
                            | WebInteraction::ShoppingCart
                            | WebInteraction::CustomerRegistration
                            | WebInteraction::AdminConfirm
                    )
                })
                .count()
        };
        let browsing = writes(Mix::Browsing, &mut rng);
        let ordering = writes(Mix::Ordering, &mut rng);
        assert!(ordering > browsing * 3);
    }

    #[test]
    fn all_generated_statements_are_registered() {
        let scale = TpcwScale::tiny();
        let gen = ParamGenerator::new(&scale);
        let names = statement_names();
        let mut rng = StdRng::seed_from_u64(3);
        for interaction in ALL_INTERACTIONS {
            for _ in 0..20 {
                for call in gen.calls(interaction, &mut rng) {
                    assert!(
                        names.contains(&call.statement),
                        "{} issues unknown statement {}",
                        interaction.name(),
                        call.statement
                    );
                    assert!(!call.params.is_empty());
                }
            }
        }
    }

    #[test]
    fn insert_ids_are_unique() {
        let scale = TpcwScale::tiny();
        let gen = ParamGenerator::new(&scale);
        let mut rng = StdRng::seed_from_u64(4);
        let mut order_ids = std::collections::HashSet::new();
        for _ in 0..100 {
            let calls = gen.calls(WebInteraction::BuyConfirm, &mut rng);
            let id = calls[0].params[0].clone();
            assert!(order_ids.insert(format!("{id}")), "duplicate order id {id}");
        }
    }

    #[test]
    fn interaction_metadata() {
        assert_eq!(ALL_INTERACTIONS.len(), 14);
        for i in ALL_INTERACTIONS {
            assert!(!i.name().is_empty());
            assert!(i.time_limit() >= Duration::from_secs(3));
        }
        assert_eq!(
            WebInteraction::BestSellers.time_limit(),
            Duration::from_secs(5)
        );
    }
}
