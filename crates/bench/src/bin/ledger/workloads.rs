//! The three workloads, the light/heavy class table and the seeded statement
//! streams the two generator connections draw from.
//!
//! A stream is a pure function of `(workload, class, scale, seed)`: the
//! program under test only ever sees the generated statements.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shareddb_common::Value;
use shareddb_tpcw::schema::customer_uname;
use shareddb_tpcw::{Mix, ParamGenerator, StatementCall, TpcwScale, SUBJECTS};
use std::collections::VecDeque;
use std::time::Duration;

/// Which generator connection a statement rides on. Mirrors the engine's
/// own `Lane` rule; `class_table_matches_engine_lanes` pins the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Probe-only queries and every update: connection `L`.
    Light,
    /// Everything that scans, joins, sorts or aggregates: connection `H`.
    Heavy,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Light => "light",
            Class::Heavy => "heavy",
        }
    }

    /// Statements this class keeps pipelined. 48 + 16 = 64 in flight is what
    /// lets batches form from two connections.
    pub fn window(self) -> usize {
        match self {
            Class::Light => 48,
            Class::Heavy => 16,
        }
    }
}

/// All 21 TPC-W statements with the class the bench assigns them.
pub const CLASS_TABLE: [(&str, Class); 21] = [
    ("getCustomerByUname", Class::Light),
    ("getCustomerById", Class::Light),
    ("getItemById", Class::Light),
    ("getBook", Class::Heavy),
    ("doSubjectSearch", Class::Heavy),
    ("doTitleSearch", Class::Heavy),
    ("doAuthorSearch", Class::Heavy),
    ("getNewProducts", Class::Heavy),
    ("getBestSellers", Class::Heavy),
    ("getCart", Class::Heavy),
    ("getCustomerOrder", Class::Heavy),
    ("createCart", Class::Light),
    ("addToCart", Class::Light),
    ("refreshCart", Class::Light),
    ("clearCart", Class::Light),
    ("createOrder", Class::Light),
    ("addOrderLine", Class::Light),
    ("addCCXact", Class::Light),
    ("adminUpdateItem", Class::Light),
    ("updateCustomerLogin", Class::Light),
    ("createCustomer", Class::Light),
];

pub fn class_of(statement: &str) -> Class {
    CLASS_TABLE
        .iter()
        .find(|(name, _)| *name == statement)
        .map(|(_, class)| *class)
        .unwrap_or_else(|| panic!("statement {statement} is not in the class table"))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpcwOrdering,
    PointLookup,
    HeavyLight,
}

pub const ALL_WORKLOADS: [Workload; 3] = [
    Workload::TpcwOrdering,
    Workload::PointLookup,
    Workload::HeavyLight,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpcwOrdering => "tpcw_ordering",
            Workload::PointLookup => "point_lookup",
            Workload::HeavyLight => "heavy_light",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Only the write-heavy mix runs with a data directory (WAL on).
    pub fn durable(self) -> bool {
        self == Workload::TpcwOrdering
    }

    /// Latency limit behind `slo_ok_frac`: about ten times today's median
    /// (thirty on `point_lookup`), so the fraction is 1.0 unless something
    /// stalls, fails or is refused — a window from which the hypervisor
    /// takes a third of the CPU time still meets it.
    pub fn slo_limit(self, class: Class) -> Duration {
        match (self, class) {
            (Workload::PointLookup, _) => Duration::from_millis(50),
            (_, Class::Light) => Duration::from_millis(500),
            (_, Class::Heavy) => Duration::from_millis(1000),
        }
    }
}

/// Fresh primary keys start here, far above any generated row. Both classes
/// share the base: only `L` inserts, and `H`'s `getCart` of a ShoppingCart
/// interaction asks for the n-th fresh cart, which `L` (the faster stream of
/// the mix) has created by then, so it reads a cart line written
/// during the run.
const FRESH_ID_BASE: i64 = 1_000_000_000;

/// `ParamGenerator` numbers its inserts from a process-wide epoch (10 M ids
/// per generator instance), so the same seed would yield different keys in
/// the second set-up of one process. Rebase them onto a fixed range.
fn rebase_fresh_ids(call: &mut StatementCall) {
    const EPOCH_SPAN: i64 = 10_000_000;
    for param in &mut call.params {
        if let Value::Int(v) = param {
            if *v >= EPOCH_SPAN {
                *v = FRESH_ID_BASE + *v % EPOCH_SPAN;
            }
        }
    }
    if call.statement == "createCustomer" {
        // uname / first / last name are derived from the (rebased) id.
        if let Value::Int(id) = call.params[0] {
            call.params[1] = Value::text(customer_uname(id));
            call.params[2] = Value::text(format!("FIRST{id}"));
            call.params[3] = Value::text(format!("LAST{}", id % 1000));
        }
    }
}

/// `getBestSellers` looks at the orders from this id on: TPC-W's "latest 3 333
/// orders", scaled to the data set as `ParamGenerator` scales it.
pub fn bestseller_threshold(scale: &TpcwScale) -> i64 {
    (scale.orders as i64 - ParamGenerator::new(scale).bestseller_window).max(0)
}

/// One connection's endless, seeded statement stream.
pub struct Stream {
    workload: Workload,
    class: Class,
    scale: TpcwScale,
    rng: StdRng,
    tpcw: ParamGenerator,
    ready: VecDeque<StatementCall>,
    next_fresh: i64,
}

impl Stream {
    pub fn new(workload: Workload, class: Class, scale: &TpcwScale, seed: u64) -> Stream {
        let class_salt = match class {
            Class::Light => 0x4c49_4748_5400_0000,
            Class::Heavy => 0x4845_4156_5900_0000,
        };
        Stream {
            workload,
            class,
            scale: scale.clone(),
            rng: StdRng::seed_from_u64(seed ^ class_salt),
            tpcw: ParamGenerator::new(scale),
            ready: VecDeque::new(),
            next_fresh: FRESH_ID_BASE,
        }
    }

    fn item(&mut self) -> Value {
        Value::Int(self.rng.gen_range(0..self.scale.items as i64))
    }

    fn customer(&mut self) -> i64 {
        self.rng.gen_range(0..self.scale.customers as i64)
    }

    fn subject(&mut self) -> Value {
        Value::text(SUBJECTS[self.rng.gen_range(0..SUBJECTS.len())])
    }

    fn fresh_id(&mut self) -> Value {
        self.next_fresh += 1;
        Value::Int(self.next_fresh)
    }

    /// Draws TPC-W interactions until one yields a call of this class.
    fn next_tpcw(&mut self, mix: Mix) -> StatementCall {
        loop {
            if let Some(call) = self.ready.pop_front() {
                return call;
            }
            let interaction = mix.sample(&mut self.rng);
            for mut call in self.tpcw.calls(interaction, &mut self.rng) {
                if class_of(call.statement) == self.class {
                    rebase_fresh_ids(&mut call);
                    self.ready.push_back(call);
                }
            }
        }
    }

    fn next_point_lookup(&mut self) -> StatementCall {
        let pick = self.rng.gen_range(0..6u32);
        let (statement, params) = match (self.class, pick) {
            (Class::Light, 0 | 1) => ("getItemById", vec![self.item()]),
            (Class::Light, 2 | 3) => ("getCustomerById", vec![Value::Int(self.customer())]),
            (Class::Light, _) => (
                "getCustomerByUname",
                vec![Value::text(customer_uname(self.customer()))],
            ),
            (Class::Heavy, 0..=2) => ("getBook", vec![self.item()]),
            (Class::Heavy, _) => ("getCustomerOrder", vec![Value::Int(self.customer())]),
        };
        StatementCall { statement, params }
    }

    fn next_heavy_light(&mut self) -> StatementCall {
        let pick = self.rng.gen_range(0..4u32);
        let (statement, params) = match (self.class, pick) {
            (Class::Light, 0 | 1) => ("getItemById", vec![self.item()]),
            (Class::Light, 2) => (
                "adminUpdateItem",
                vec![
                    self.item(),
                    Value::Float(self.rng.gen_range(1.0..100.0)),
                    Value::Date(15_403),
                ],
            ),
            (Class::Light, _) => {
                let orders = self.scale.orders as i64;
                (
                    "addOrderLine",
                    vec![
                        self.fresh_id(),
                        Value::Int(self.rng.gen_range(0..orders)),
                        self.item(),
                        Value::Int(self.rng.gen_range(1..4)),
                    ],
                )
            }
            (Class::Heavy, 0 | 1) => {
                let threshold = bestseller_threshold(&self.scale);
                (
                    "getBestSellers",
                    vec![self.subject(), Value::Int(threshold)],
                )
            }
            (Class::Heavy, 2) => ("getNewProducts", vec![self.subject()]),
            (Class::Heavy, _) => ("doSubjectSearch", vec![self.subject()]),
        };
        StatementCall { statement, params }
    }

    /// The stream never ends; the harness decides when to stop drawing.
    pub fn next_call(&mut self) -> StatementCall {
        match self.workload {
            Workload::TpcwOrdering => self.next_tpcw(Mix::Ordering),
            Workload::PointLookup => self.next_point_lookup(),
            Workload::HeavyLight => self.next_heavy_light(),
        }
    }
}

/// The first `n` statements of a workload in a fixed interleaving of the two
/// class streams (three light, one heavy): the input of the oracle check and
/// of the layer replay, which both run one statement at a time.
pub fn interleaved_prefix(
    workload: Workload,
    scale: &TpcwScale,
    seed: u64,
    n: usize,
) -> Vec<StatementCall> {
    let mut light = Stream::new(workload, Class::Light, scale, seed);
    let mut heavy = Stream::new(workload, Class::Heavy, scale, seed);
    (0..n)
        .map(|i| {
            if i % 4 == 3 {
                heavy.next_call()
            } else {
                light.next_call()
            }
        })
        .collect()
}

/// FNV-1a over statement names and rendered parameters.
pub fn stream_hash(calls: &[StatementCall]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for call in calls {
        eat(call.statement.as_bytes());
        for param in &call.params {
            eat(format!("|{param:?}").as_bytes());
        }
        eat(b"\n");
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_core::{Engine, EngineConfig, Lane};
    use shareddb_tpcw::{build_catalog, build_shared_plan, statement_names};
    use std::sync::Arc;

    #[test]
    fn class_table_matches_engine_lanes() {
        let catalog = Arc::new(build_catalog(&TpcwScale::tiny()).unwrap());
        let (plan, registry) = build_shared_plan(&catalog).unwrap();
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        let names = statement_names();
        assert_eq!(names.len(), CLASS_TABLE.len());
        for name in names {
            let (index, _) = engine.registry().get(name).unwrap();
            let expected = match engine.statement_lane(index) {
                Lane::Light => Class::Light,
                Lane::Heavy => Class::Heavy,
            };
            assert_eq!(class_of(name), expected, "{name}");
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let scale = TpcwScale::with_items(2_000);
        for workload in ALL_WORKLOADS {
            let a = stream_hash(&interleaved_prefix(workload, &scale, 7, 400));
            let b = stream_hash(&interleaved_prefix(workload, &scale, 7, 400));
            let c = stream_hash(&interleaved_prefix(workload, &scale, 8, 400));
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a, c, "{}", workload.name());
        }
    }

    /// `H` asks for the fresh carts in the order in which `L` creates them,
    /// so its `getCart` of a ShoppingCart interaction can find the cart.
    #[test]
    fn heavy_reads_the_carts_light_creates() {
        let scale = TpcwScale::with_items(2_000);
        let fresh_carts = |class, statement| {
            let mut stream = Stream::new(Workload::TpcwOrdering, class, &scale, 5);
            let mut ids = Vec::new();
            while ids.len() < 20 {
                let call = stream.next_call();
                match call.params[0] {
                    Value::Int(id) if call.statement == statement && id >= FRESH_ID_BASE => {
                        ids.push(id)
                    }
                    _ => {}
                }
            }
            ids
        };
        let created = fresh_carts(Class::Light, "createCart");
        assert_eq!(created, fresh_carts(Class::Heavy, "getCart"));
        assert!(created.windows(2).all(|pair| pair[1] == pair[0] + 1));
    }

    #[test]
    fn streams_carry_only_their_class() {
        let scale = TpcwScale::with_items(2_000);
        for workload in ALL_WORKLOADS {
            for class in [Class::Light, Class::Heavy] {
                let mut stream = Stream::new(workload, class, &scale, 3);
                for _ in 0..300 {
                    assert_eq!(class_of(stream.next_call().statement), class);
                }
            }
        }
    }
}
