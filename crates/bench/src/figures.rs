//! The paper's evaluation (Section 5, Figs. 7–11) as five sweeps of SharedDB
//! against the query-at-a-time baseline (`crates/baseline`), both in process
//! over the TPC-W driver. `figures [7|8|9|10|11]…` prints each figure as CSV;
//! `docs/figures/` holds one run and `docs/REPRODUCTION.md` reads it. Fig. 6
//! is `plan_dump`'s output.
//!
//! Nothing is configured. Both systems get the same cores — SharedDB's pool,
//! the baseline's workers — all of `available_parallelism()` except in
//! Fig. 8, which runs every count from one up. An offered load is a multiple
//! of a capacity probe, the baseline's closed-loop throughput measured first
//! in the same process, so a figure keeps its shape on a faster or slower
//! host. A series is named after what it runs: a mix, an interaction or a
//! statement.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shareddb_common::Result;
use shareddb_core::EngineConfig;
use shareddb_tpcw::{
    build_catalog, run_interactions, BaselineSystem, DriverConfig, DriverReport, Mix,
    ParamGenerator, SharedDbSystem, StatementCall, TpcwDatabase, TpcwScale, WebInteraction,
    ALL_INTERACTIONS,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The figures `figures` knows, in the paper's order.
pub const NUMBERS: [u32; 5] = [7, 8, 9, 10, 11];

/// Client threads of every run: a closed loop of this many keeps a batch of
/// the shared engine several dozen statements deep, and an open loop has this
/// many in flight at most.
const CLIENTS: usize = 64;

const MIXES: [Mix; 3] = [Mix::Browsing, Mix::Shopping, Mix::Ordering];

/// Fig. 10 reports the median of this many batches.
const BATCH_REPEATS: usize = 3;

/// Fig. 11's look-ups a second, in multiples of the baseline's capacity for
/// the best-seller analysis: the analyses beside them alone would fill the
/// baseline at a heavy share of one third, mid-sweep.
const LIGHT_LOAD: f64 = 2.0;

/// The columns of a driver run, after those naming the point. An open loop
/// that attempted fewer than it offered ran late: its clients were all
/// waiting.
const RUN_COLUMNS: &str = "attempted,wips,timed_out,failed,mean_latency_ms";

/// How much of everything a run does.
#[derive(Debug, Clone)]
pub struct Setting {
    pub scale: TpcwScale,
    /// Measured time of one point.
    pub duration: Duration,
    /// Fig. 8's core counts; the other figures run on the last.
    pub cores: Vec<usize>,
    /// Fig. 7's offered loads, in multiples of the probe's capacity.
    pub loads: Vec<f64>,
    /// Fig. 9's interactions.
    pub interactions: Vec<WebInteraction>,
    /// Fig. 10's batch sizes.
    pub batches: Vec<usize>,
    /// Fig. 11's shares of best-seller analyses in the stream.
    pub heavy_shares: Vec<f64>,
}

impl Setting {
    /// The committed run: 10 000 items, TPC-W's scale step between 1 k and
    /// 100 k; 5 s a point.
    pub fn full() -> Setting {
        Setting {
            scale: TpcwScale::with_items(10_000),
            duration: Duration::from_secs(5),
            cores: (1..=host_cores()).collect(),
            loads: vec![0.25, 0.5, 1.0, 2.0, 4.0],
            interactions: ALL_INTERACTIONS.to_vec(),
            batches: vec![1, 10, 50, 100, 250, 500, 1000],
            heavy_shares: vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5],
        }
    }

    /// One point per series on `TpcwScale::tiny()`: a check that every
    /// figure still runs.
    pub fn tiny() -> Setting {
        Setting {
            scale: TpcwScale::tiny(),
            duration: Duration::from_millis(100),
            cores: vec![host_cores()],
            loads: vec![1.0],
            interactions: vec![WebInteraction::BestSellers],
            batches: vec![10],
            heavy_shares: vec![0.1],
        }
    }

    fn all_cores(&self) -> usize {
        *self.cores.last().expect("at least one core count")
    }

    /// `CLIENTS` clients offering `rate` interactions a second (infinite: a
    /// closed loop).
    fn driver(&self, rate: f64) -> DriverConfig {
        DriverConfig {
            offered_per_s: rate,
            duration: self.duration,
            client_threads: CLIENTS,
            seed: 7,
        }
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs figure `number` (one of [`NUMBERS`]) and returns its CSV: a `#` line
/// naming the scale, the point length, the cores and the capacity probe, the
/// header, then one row per point.
pub fn run(number: u32, setting: &Setting) -> Option<String> {
    let (probe, header, rows) = match number {
        7 => varying_load(setting),
        8 => scale_cores(setting),
        9 => interactions(setting),
        10 => batch_response(setting),
        11 => load_interaction(setting),
        _ => return None,
    };
    let cores: Vec<String> = match number {
        8 => setting.cores.iter().map(usize::to_string).collect(),
        _ => vec![setting.all_cores().to_string()],
    };
    Some(format!(
        "# fig{number} items={} duration_s={} cores={} clients={CLIENTS} probe={probe}\n{header}\n{}",
        setting.scale.items,
        setting.duration.as_secs_f64(),
        cores.join("|"),
        rows.concat(),
    ))
}

/// A figure before its `#` line: the probe it ran, its header, its rows.
type Sweep = (String, String, Vec<String>);

/// The two systems compared.
#[derive(Debug, Clone, Copy)]
enum System {
    SharedDb,
    QueryAtATime,
}

const SYSTEMS: [System; 2] = [System::SharedDb, System::QueryAtATime];

/// A system started over a fresh copy of the data.
enum Db {
    Shared(SharedDbSystem),
    Baseline(BaselineSystem),
}

impl System {
    /// One driver point on `cores` over a fresh copy of the data, so that no
    /// point runs on what an earlier one wrote or left queued.
    fn measure(
        self,
        setting: &Setting,
        cores: usize,
        config: &DriverConfig,
        pick: impl Fn(&mut StdRng) -> WebInteraction + Sync,
    ) -> DriverReport {
        let db = self.start(&setting.scale, cores);
        run_interactions(db.driver(), &setting.scale, config, pick)
    }

    fn start(self, scale: &TpcwScale, cores: usize) -> Db {
        let catalog = Arc::new(build_catalog(scale).expect("build the TPC-W catalog"));
        match self {
            System::SharedDb => Db::Shared(
                SharedDbSystem::new(catalog, EngineConfig::with_cores(cores))
                    .expect("start SharedDB"),
            ),
            System::QueryAtATime => Db::Baseline(BaselineSystem::new(catalog, cores)),
        }
    }
}

impl Db {
    fn driver(&self) -> &dyn TpcwDatabase {
        match self {
            Db::Shared(db) => db,
            Db::Baseline(db) => db,
        }
    }

    /// Submits every call at once and waits for them all: the batch's
    /// response time and how many of its statements failed.
    fn batch(&self, calls: &[StatementCall]) -> (Duration, usize) {
        fn failed<H>(handles: Vec<Result<H>>, wait: impl Fn(H) -> Result<()>) -> usize {
            let outcomes = handles.into_iter().map(|h| h.and_then(&wait));
            outcomes.filter(Result::is_err).count()
        }
        let started = Instant::now();
        let failed = match self {
            Db::Shared(db) => failed(
                calls
                    .iter()
                    .map(|c| db.engine().execute(c.statement, &c.params))
                    .collect(),
                |h| h.wait().map(drop),
            ),
            Db::Baseline(db) => failed(
                calls
                    .iter()
                    .map(|c| db.engine().execute(c.statement, &c.params))
                    .collect(),
                |h| h.wait().map(drop),
            ),
        };
        (started.elapsed(), failed)
    }
}

fn ms(duration: Duration) -> String {
    format!("{:.3}", duration.as_secs_f64() * 1e3)
}

/// The system and the [`RUN_COLUMNS`] of a run, after the point's own
/// `fields`, as one CSV line.
fn row(fields: std::fmt::Arguments, report: &DriverReport) -> String {
    format!(
        "{fields},{},{},{:.1},{},{},{}\n",
        report.system,
        report.attempted,
        report.wips,
        report.timed_out,
        report.failed,
        ms(report.mean_latency)
    )
}

/// Fig. 7: successful interactions a second against offered load, per mix.
fn varying_load(setting: &Setting) -> Sweep {
    let cores = setting.all_cores();
    let (mut probes, mut rows) = (Vec::new(), Vec::new());
    for mix in MIXES {
        let sample = |rng: &mut StdRng| mix.sample(rng);
        let closed = setting.driver(f64::INFINITY);
        let capacity = System::QueryAtATime
            .measure(setting, cores, &closed, sample)
            .wips;
        probes.push(format!("{}:{capacity:.1}", mix.name()));
        for system in SYSTEMS {
            for &load in &setting.loads {
                let offered = load * capacity;
                let report = system.measure(setting, cores, &setting.driver(offered), sample);
                let fields = format_args!("{},{load},{offered:.1}", mix.name());
                rows.push(row(fields, &report));
            }
        }
    }
    let probe = format!("query-at-a-time closed-loop wips {}", probes.join(" "));
    let header = format!("mix,offered_load,offered_wips,system,{RUN_COLUMNS}");
    (probe, header, rows)
}

/// Fig. 8: closed-loop throughput against the cores both systems get.
fn scale_cores(setting: &Setting) -> Sweep {
    let mut rows = Vec::new();
    for mix in MIXES {
        for system in SYSTEMS {
            for &cores in &setting.cores {
                let config = setting.driver(f64::INFINITY);
                let report = system.measure(setting, cores, &config, |rng| mix.sample(rng));
                rows.push(row(format_args!("{},{cores}", mix.name()), &report));
            }
        }
    }
    let header = format!("mix,cores,system,{RUN_COLUMNS}");
    ("none".into(), header, rows)
}

/// Fig. 9: closed-loop throughput of each web interaction alone.
fn interactions(setting: &Setting) -> Sweep {
    let mut rows = Vec::new();
    for system in SYSTEMS {
        for &interaction in &setting.interactions {
            let config = setting.driver(f64::INFINITY);
            let cores = setting.all_cores();
            let report = system.measure(setting, cores, &config, |_| interaction);
            rows.push(row(format_args!("{}", interaction.name()), &report));
        }
    }
    let header = format!("interaction,system,{RUN_COLUMNS}");
    ("none".into(), header, rows)
}

/// Fig. 10: the response time of a batch of concurrent statements against
/// its size, for a look-up and for the best-seller analysis.
fn batch_response(setting: &Setting) -> Sweep {
    let generator = ParamGenerator::new(&setting.scale);
    let mut rng = StdRng::seed_from_u64(10);
    let mut rows = Vec::new();
    for interaction in [WebInteraction::ProductDetail, WebInteraction::BestSellers] {
        let statement = generator.calls(interaction, &mut rng)[0].statement;
        for system in SYSTEMS {
            let db = system.start(&setting.scale, setting.all_cores());
            for &size in &setting.batches {
                let mut times = Vec::new();
                let mut failed = 0;
                for _ in 0..BATCH_REPEATS {
                    let calls: Vec<StatementCall> = (0..size)
                        .flat_map(|_| generator.calls(interaction, &mut rng))
                        .collect();
                    let (time, batch_failed) = db.batch(&calls);
                    times.push(time);
                    failed += batch_failed;
                }
                times.sort();
                let (system, median) = (db.driver().system_name(), ms(times[times.len() / 2]));
                rows.push(format!("{statement},{system},{size},{median},{failed}\n"));
            }
        }
    }
    let header = "statement,system,batch_size,response_ms,failed";
    ("none".into(), header.into(), rows)
}

/// Fig. 11: a constant load of look-ups (`getBook`) with a rising share of
/// best-seller analyses (`getBestSellers`) beside them.
fn load_interaction(setting: &Setting) -> Sweep {
    let cores = setting.all_cores();
    let (light, heavy) = (WebInteraction::ProductDetail, WebInteraction::BestSellers);
    let closed = setting.driver(f64::INFINITY);
    let capacity = System::QueryAtATime
        .measure(setting, cores, &closed, |_| heavy)
        .wips;
    let mut rows = Vec::new();
    for system in SYSTEMS {
        for &share in &setting.heavy_shares {
            let offered = LIGHT_LOAD * capacity / (1.0 - share);
            let pick = |rng: &mut StdRng| if rng.gen_bool(share) { heavy } else { light };
            let report = system.measure(setting, cores, &setting.driver(offered), pick);
            let seconds = setting.duration.as_secs_f64();
            let per_s = |i: WebInteraction| {
                format!(
                    "{:.1}",
                    report.successful_by_interaction[i as usize] as f64 / seconds
                )
            };
            let (light, heavy) = (per_s(light), per_s(heavy));
            rows.push(row(
                format_args!("{share},{offered:.1},{light},{heavy}"),
                &report,
            ));
        }
    }
    let probe = format!("query-at-a-time closed-loop getBestSellers_per_s {capacity:.1}");
    let header = "heavy_share,offered_per_s,getBook_per_s,getBestSellers_per_s,system";
    (probe, format!("{header},{RUN_COLUMNS}"), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_figure_runs_at_a_tiny_scale_with_nothing_failed() {
        let setting = Setting::tiny();
        for number in NUMBERS {
            let csv = run(number, &setting).unwrap();
            let mut lines = csv.lines();
            let comment = lines.next().unwrap();
            assert!(
                comment.starts_with(&format!("# fig{number} items=100 ")),
                "{comment}"
            );
            let header: Vec<&str> = lines.next().unwrap().split(',').collect();
            let column = |name| header.iter().position(|c| *c == name).unwrap();
            let (system, failed) = (column("system"), column("failed"));
            let mut systems = BTreeSet::new();
            for line in lines {
                let row: Vec<&str> = line.split(',').collect();
                assert_eq!(row.len(), header.len(), "fig{number}: {line}");
                assert_eq!(row[failed], "0", "fig{number}: {line}");
                systems.insert(row[system]);
            }
            assert_eq!(Vec::from_iter(systems), ["SharedDB", "query-at-a-time"]);
        }
        assert!(run(6, &setting).is_none());
    }
}
