//! The end-to-end run: timed set-up, oracle check, two closed-loop generator
//! connections, a sliced measurement window and the metrics cut from it.

use crate::hostref::{self, speed_factor, RefSample};
use crate::json::{self, Json};
use crate::stats::{
    host_steal_seconds, median, ms, peak_rss_mib, percentile, process_cpu_seconds,
    thread_cpu_seconds,
};
use crate::verify::{check_reply, compare_with_baseline, server_answers};
use crate::workloads::{interleaved_prefix, stream_hash, Class, Stream, Workload};
use shareddb_client::{Connection, Prepared, Ticket};
use shareddb_common::Error;
use shareddb_core::stats::EngineStatsSnapshot;
use shareddb_core::{AttributionEntry, EngineConfig, IDLE_STATEMENT};
use shareddb_server::{Server, ServerConfig};
use shareddb_storage::Catalog;
use shareddb_tpcw::{build_catalog, build_shared_plan, statement_names, StatementCall, TpcwScale};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much of everything one run does.
#[derive(Debug, Clone)]
pub struct Settings {
    pub items: usize,
    pub warmup: Duration,
    /// Measured time of one round.
    pub window: Duration,
    /// The window is cut into slices of this length; each is corrected by
    /// its own host-speed factor and the round reports the median slice.
    pub slice: Duration,
    /// Smoke size: the microbenches of the traced run take fewer samples.
    pub smoke: bool,
}

/// A run measures this many rounds, **each on a freshly set-up server**, and
/// reports the median round; a round reports its median slice. Deployments
/// of the same code differ by a few percent for their lifetime (thread
/// placement, memory layout), so the median is taken over independent
/// servers; it also shrugs off a disturbance that hits two rounds.
pub const ROUNDS: usize = 5;

impl Settings {
    /// `seconds` of measurement in all, split evenly over the rounds.
    /// 20 000 items (≈ 250 MiB resident) is the largest data set whose
    /// set-up still fits six times into one run; the engine has no
    /// larger-than-memory path to measure.
    pub fn full(seconds: u64) -> Settings {
        let window = Duration::from_secs_f64(seconds as f64 / ROUNDS as f64);
        Settings {
            items: 20_000,
            warmup: Duration::from_secs(1),
            window,
            slice: window.min(Duration::from_millis(500)),
            smoke: false,
        }
    }

    pub fn smoke() -> Settings {
        Settings {
            items: 2_000,
            warmup: Duration::from_millis(300),
            window: Duration::from_millis(400),
            slice: Duration::from_millis(100),
            smoke: true,
        }
    }

    pub fn scale(&self) -> TpcwScale {
        TpcwScale::with_items(self.items)
    }
}

/// Where the bench may write: `target/ledger/` at the root of the checkout it
/// was built in, whatever directory it is run or tested from.
pub fn scratch_dir() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    root.expect("crates/bench lies two levels below the root")
        .join("target/ledger")
}

/// One timed set-up: how long it took, how fast the host was meanwhile and
/// how much CPU time the hypervisor took from the guest.
#[derive(Clone, Copy)]
pub struct SetUp {
    pub seconds: f64,
    pub speed_factor: f64,
    pub steal_seconds: f64,
}

/// `setup_s` of a run: the median set-up at nominal host speed, over the
/// set-ups the hypervisor left undisturbed (all of them when those are fewer
/// than a third).
pub fn median_setup_s(set_ups: &[SetUp]) -> f64 {
    let at_nominal = |keep: &dyn Fn(&SetUp) -> bool| -> Vec<f64> {
        set_ups
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.seconds / s.speed_factor)
            .collect()
    };
    let undisturbed = at_nominal(&|s| s.steal_seconds <= MAX_STEAL_PER_SLICE_S);
    if undisturbed.len() * 3 < set_ups.len() {
        median(&at_nominal(&|_| true))
    } else {
        median(&undisturbed)
    }
}

/// A running server with the two generator connections attached.
pub struct Deployment {
    pub server: Server,
    pub catalog: Arc<Catalog>,
    pub light: Connection,
    pub heavy: Connection,
    pub prepared: HashMap<&'static str, Prepared>,
    data_dir: Option<PathBuf>,
}

fn connect_and_prepare(
    server: &Server,
) -> Result<(Connection, HashMap<&'static str, Prepared>), String> {
    let mut conn = Connection::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let mut prepared = HashMap::new();
    for name in statement_names() {
        prepared.insert(name, conn.prepare(name).map_err(|e| e.to_string())?);
    }
    Ok((conn, prepared))
}

impl Deployment {
    /// Everything a user waits for before the first statement can be sent:
    /// load the data, build the shared plan, start the server (recover and
    /// compact when durable), connect both sessions, prepare all statements.
    /// Timed, with the host's speed factor and steal taken beside it.
    pub fn set_up(
        workload: Workload,
        scale: &TpcwScale,
        scratch: &Path,
    ) -> Result<(Deployment, SetUp), String> {
        let data_dir = workload
            .durable()
            .then(|| scratch.join(format!("data_{}_{}", workload.name(), std::process::id())));
        if let Some(dir) = &data_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let done = AtomicBool::new(false);
        let steal_before = host_steal_seconds()?;
        let started = Instant::now();
        let (built, host_ref) = std::thread::scope(|scope| {
            let sampler = std::thread::Builder::new()
                .name("ledger-hostref".into())
                .spawn_scoped(scope, || {
                    // A set-up too short to hold enough bursts (smoke size) is
                    // sampled a little beyond its end.
                    hostref::sample(scratch, started, started, |_, bursts| {
                        done.load(Ordering::Acquire) && bursts >= hostref::ENOUGH_BURSTS
                    })
                })
                .expect("spawn sampler thread");
            let built = (|| {
                let catalog = Arc::new(build_catalog(scale).map_err(|e| e.to_string())?);
                let (plan, registry) = build_shared_plan(&catalog).map_err(|e| e.to_string())?;
                let server = Server::start(
                    Arc::clone(&catalog),
                    plan,
                    registry,
                    EngineConfig::default(),
                    ServerConfig {
                        data_dir: data_dir.clone(),
                        ..ServerConfig::default()
                    },
                )
                .map_err(|e| e.to_string())?;
                let (light, prepared) = connect_and_prepare(&server)?;
                let (heavy, _) = connect_and_prepare(&server)?;
                Ok::<_, String>((server, catalog, light, heavy, prepared, started.elapsed()))
            })();
            done.store(true, Ordering::Release);
            (
                built,
                sampler.join().expect("host-reference sampler panicked"),
            )
        });
        let (server, catalog, light, heavy, prepared, elapsed) = built?;
        let (host_ref, _) = host_ref?;
        let speed_factor = speed_factor(&host_ref, 0, u64::MAX)
            .ok_or("the sampler timed too few host-reference bursts during set-up")?;
        Ok((
            Deployment {
                server,
                catalog,
                light,
                heavy,
                prepared,
                data_dir,
            },
            SetUp {
                seconds: elapsed.as_secs_f64(),
                speed_factor,
                steal_seconds: host_steal_seconds()? - steal_before,
            },
        ))
    }

    pub fn tear_down(mut self) {
        let _ = self.light.close();
        let _ = self.heavy.close();
        self.server.shutdown();
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The instants that cut a run: load starts at `start`, measurement covers
/// `[warm_end, end)`.
#[derive(Clone, Copy)]
struct RunClock {
    start: Instant,
    warm_end: Instant,
    end: Instant,
}

/// One answered statement: when the last reply frame arrived (µs after load
/// start) and how long after its submission (ns, saturating at 4.29 s).
#[derive(Clone, Copy)]
struct Sample {
    done_us: u32,
    latency_ns: u32,
}

/// What one generator connection saw.
#[derive(Default)]
struct ClassLog {
    answered: Vec<Sample>,
    /// Statements completed inside the window that errored, were refused or
    /// failed their invariant.
    failed_in_window: u64,
    first_failures: Vec<String>,
    cpu_seconds: f64,
}

struct InFlight {
    call: StatementCall,
    ticket: Ticket,
    submitted: Instant,
}

/// The closed loop of one connection: fill the window, wait for the oldest
/// reply, submit one more. Callers of SharedDB are application sessions that
/// wait for their reply, so a slower server is offered less load.
fn drive(
    conn: &mut Connection,
    prepared: &HashMap<&'static str, Prepared>,
    mut stream: Stream,
    class: Class,
    clock: RunClock,
) -> Result<ClassLog, String> {
    let window = class.window();
    let mut log = ClassLog::default();
    // Reserved up front (address space only until touched) so that the log
    // never reallocates inside the window.
    log.answered.reserve(1_000_000);
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(window);
    let mut cpu_at_warm_end = None;
    let fail = |log: &mut ClassLog, done: Instant, what: String| {
        if done >= clock.warm_end && done < clock.end {
            log.failed_in_window += 1;
        }
        if log.first_failures.len() < 5 {
            log.first_failures.push(what);
        }
    };
    'load: loop {
        let now = Instant::now();
        if now >= clock.end {
            break;
        }
        if cpu_at_warm_end.is_none() && now >= clock.warm_end {
            cpu_at_warm_end = Some(thread_cpu_seconds());
        }
        while in_flight.len() < window {
            let call = stream.next_call();
            let submitted = Instant::now();
            match conn.submit(&prepared[call.statement], &call.params) {
                Ok(ticket) => in_flight.push_back(InFlight {
                    call,
                    ticket,
                    submitted,
                }),
                Err(e) => {
                    // A failed send leaves the connection unusable.
                    fail(
                        &mut log,
                        submitted,
                        format!("submit {}: {e}", call.statement),
                    );
                    break 'load;
                }
            }
        }
        let oldest = in_flight.pop_front().expect("window is never empty here");
        let reply = conn.wait(oldest.ticket);
        let done = Instant::now();
        let verdict = match &reply {
            Ok(outcome) => check_reply(&oldest.call, outcome),
            Err(e) => Err(format!("{}: {e}", oldest.call.statement)),
        };
        match verdict {
            Ok(()) => log.answered.push(Sample {
                done_us: (done - clock.start).as_micros() as u32,
                latency_ns: u32::try_from((done - oldest.submitted).as_nanos()).unwrap_or(u32::MAX),
            }),
            Err(what) => {
                fail(&mut log, done, what);
                // A transport failure poisons the connection for good.
                if matches!(reply, Err(Error::Io(_))) {
                    break 'load;
                }
            }
        }
    }
    let cpu_at_end = thread_cpu_seconds();
    for pending in in_flight {
        let _ = conn.wait(pending.ticket);
    }
    log.cpu_seconds = cpu_at_end? - cpu_at_warm_end.unwrap_or_else(thread_cpu_seconds)?;
    Ok(log)
}

/// What one class did inside one round's window. `per_s` and `p50_ms` are at
/// nominal host speed (the median slice, each slice corrected by its own
/// factor); everything else is as measured over the whole window.
pub struct ClassWindow {
    pub per_s: f64,
    pub p50_ms: f64,
    pub raw_per_s: f64,
    /// Tails are diagnostics of the traced run; see the README on why no
    /// percentile above the median is gated.
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    pub answered: u64,
    pub within_limit: u64,
    pub failed: u64,
}

/// The measured window cut into slices, each with the host's speed factor
/// while it ran. A slice that holds too few bursts for a factor of its own
/// takes the whole window's.
struct Slices {
    /// `[from_us, to_us)` after load start.
    bounds: Vec<(u64, u64)>,
    factors: Vec<f64>,
    /// The slices that count: those during which the hypervisor left the
    /// guest its CPUs. Steal of 10–17 % of a window costs the wake-up chain
    /// 30–40 % of its throughput, which no reference burst tracks.
    used: Vec<usize>,
}

/// A slice counts if the hypervisor took at most this much CPU time from the
/// guest while it ran: one tick of `/proc/stat`.
const MAX_STEAL_PER_SLICE_S: f64 = 0.0101;

impl Slices {
    /// `steal_marks` holds the guest's steal seconds at every slice boundary,
    /// so there is one more of them than slices.
    /// With fewer than a third of the slices undisturbed, all of them count:
    /// the round is then a disturbed one, for the median of rounds to drop.
    fn cut(
        clock: RunClock,
        slice: Duration,
        host_ref: &[RefSample],
        steal_marks: &[f64],
    ) -> Result<Slices, String> {
        let from_us = (clock.warm_end - clock.start).as_micros() as u64;
        let to_us = (clock.end - clock.start).as_micros() as u64;
        let slice_us = slice.as_micros() as u64;
        let count = steal_marks.len() as u64 - 1;
        let bounds: Vec<(u64, u64)> = (0..count)
            .map(|i| (from_us + i * slice_us, from_us + (i + 1) * slice_us))
            .collect();
        let whole = speed_factor(host_ref, from_us, to_us);
        let factors = bounds
            .iter()
            .map(|&(from, to)| speed_factor(host_ref, from, to).or(whole))
            .collect::<Option<Vec<f64>>>()
            .ok_or("the sampler timed too few host-reference bursts")?;
        let mut used: Vec<usize> = (0..bounds.len())
            .filter(|&i| steal_marks[i + 1] - steal_marks[i] <= MAX_STEAL_PER_SLICE_S)
            .collect();
        if used.len() * 3 < bounds.len() {
            used = (0..bounds.len()).collect();
        }
        Ok(Slices {
            bounds,
            factors,
            used,
        })
    }

    /// Median over the slices that count of a per-slice value (`None` where
    /// a slice has none); NaN when no slice has one.
    fn median_of(&self, value: impl Fn(usize) -> Option<f64>) -> f64 {
        let values: Vec<f64> = self.used.iter().filter_map(|&i| value(i)).collect();
        if values.is_empty() {
            f64::NAN
        } else {
            median(&values)
        }
    }

    fn index_of(&self, at_us: u64) -> Option<usize> {
        let (first, _) = self.bounds[0];
        let len = self.bounds[0].1 - first;
        let index = (at_us.checked_sub(first)? / len) as usize;
        (index < self.bounds.len()).then_some(index)
    }

    fn seconds(&self) -> f64 {
        (self.bounds[0].1 - self.bounds[0].0) as f64 / 1e6
    }
}

fn cut_window(log: &ClassLog, clock: RunClock, limit: Duration, slices: &Slices) -> ClassWindow {
    let from_us = (clock.warm_end - clock.start).as_micros() as u64;
    let to_us = (clock.end - clock.start).as_micros() as u64;
    let mut latencies_ms = Vec::new();
    let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); slices.bounds.len()];
    for sample in &log.answered {
        let done_us = u64::from(sample.done_us);
        if (from_us..to_us).contains(&done_us) {
            let latency_ms = f64::from(sample.latency_ns) / 1e6;
            latencies_ms.push(latency_ms);
            if let Some(index) = slices.index_of(done_us) {
                by_slice[index].push(latency_ms);
            }
        }
    }
    latencies_ms.sort_by(f64::total_cmp);
    let quantile = |q| {
        if latencies_ms.is_empty() {
            f64::NAN
        } else {
            percentile(&latencies_ms, q)
        }
    };
    for latencies in &mut by_slice {
        latencies.sort_by(f64::total_cmp);
    }
    let limit_ms = ms(limit);
    // A rate at nominal speed is the measured one times the factor, a
    // duration the measured one over it.
    ClassWindow {
        per_s: slices
            .median_of(|i| Some(by_slice[i].len() as f64 / slices.seconds() * slices.factors[i])),
        p50_ms: slices.median_of(|i| {
            (!by_slice[i].is_empty()).then(|| percentile(&by_slice[i], 0.5) / slices.factors[i])
        }),
        raw_per_s: latencies_ms.len() as f64 / (clock.end - clock.warm_end).as_secs_f64(),
        p95_ms: quantile(0.95),
        p99_ms: quantile(0.99),
        max_ms: latencies_ms.last().copied().unwrap_or(f64::NAN),
        answered: latencies_ms.len() as u64,
        within_limit: latencies_ms.iter().filter(|l| **l <= limit_ms).count() as u64,
        failed: log.failed_in_window,
    }
}

/// Everything one round yields.
pub struct WindowReport {
    pub light: ClassWindow,
    pub heavy: ClassWindow,
    /// Server CPU per answered statement at nominal host speed, median slice.
    pub cpu_us_per_stmt: f64,
    /// The same over the whole window, as measured.
    pub raw_cpu_us_per_stmt: f64,
    /// The median slice's host-speed factor (`hostref`).
    pub speed_factor: f64,
    /// CPU time the hypervisor took from this guest during the window, and
    /// how many of the window's slices it left undisturbed.
    pub steal_ms: f64,
    pub slices_used: usize,
    pub engine: EngineStatsSnapshot,
    pub attribution: Vec<AttributionEntry>,
    /// WAL bytes appended during the window.
    pub wal_bytes: u64,
    /// ITEM row versions per live row when the window closed.
    pub item_versions_per_live_row: f64,
    pub failures: Vec<String>,
}

impl WindowReport {
    pub fn attempted(&self) -> u64 {
        self.light.answered + self.light.failed + self.heavy.answered + self.heavy.failed
    }

    pub fn failed(&self) -> u64 {
        self.light.failed + self.heavy.failed
    }

    pub fn within_limit(&self) -> u64 {
        self.light.within_limit + self.heavy.within_limit
    }
}

/// One round: warm-up, then the measured window, on a deployment that is
/// already up.
pub fn run_window(
    deployment: &mut Deployment,
    workload: Workload,
    seed: u64,
    settings: &Settings,
) -> Result<WindowReport, String> {
    let scale = settings.scale();
    let start = Instant::now();
    let warm_end = start + settings.warmup;
    let clock = RunClock {
        start,
        warm_end,
        end: warm_end + settings.window,
    };
    let Deployment {
        server,
        catalog,
        light,
        heavy,
        prepared,
        ..
    } = deployment;
    let prepared = &*prepared;
    let wal_bytes = || catalog.wal().stats_snapshot().appended_bytes;
    let slice_count = (settings.window.as_nanos() / settings.slice.as_nanos().max(1)).max(1) as u32;
    let scratch = scratch_dir();
    let (light_log, heavy_log, host_ref, marks, wal_bytes, engine, attribution) =
        std::thread::scope(|scope| {
            let spawn = |conn, class| {
                let stream = Stream::new(workload, class, &scale, seed);
                std::thread::Builder::new()
                    .name(format!("ledger-{}", class.name()))
                    .spawn_scoped(scope, move || drive(conn, prepared, stream, class, clock))
                    .expect("spawn generator thread")
            };
            let light_thread = spawn(light, Class::Light);
            let heavy_thread = spawn(heavy, Class::Heavy);
            let sampler = std::thread::Builder::new()
                .name("ledger-hostref".into())
                .spawn_scoped(scope, || {
                    hostref::sample(&scratch, clock.start, clock.warm_end, |now, _| {
                        now >= clock.end
                    })
                })
                .expect("spawn sampler thread");
            std::thread::sleep(clock.warm_end.saturating_duration_since(Instant::now()));
            server.reset_stats();
            let wal_at_warm_end = wal_bytes();
            // The process's CPU seconds and the guest's steal seconds at
            // every slice boundary.
            let mut marks = vec![(process_cpu_seconds(), host_steal_seconds())];
            for boundary in 1..=slice_count {
                let at = clock.warm_end + settings.slice * boundary;
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                marks.push((process_cpu_seconds(), host_steal_seconds()));
            }
            std::thread::sleep(clock.end.saturating_duration_since(Instant::now()));
            let wal_bytes = wal_bytes() - wal_at_warm_end;
            let engine = server.engine_stats().expect("server is running");
            let attribution = server.attribution_stats().expect("server is running");
            (
                light_thread.join().expect("light generator panicked"),
                heavy_thread.join().expect("heavy generator panicked"),
                sampler.join().expect("host-reference sampler panicked"),
                marks,
                wal_bytes,
                engine,
                attribution,
            )
        });
    let item_versions_per_live_row = {
        let item = catalog.table("ITEM").expect("TPC-W has an ITEM table");
        let item = item.read();
        item.version_count() as f64 / item.live_count().max(1) as f64
    };

    let (light_log, heavy_log) = (light_log?, heavy_log?);
    let (cpu_marks, steal_marks): (Vec<_>, Vec<_>) = marks.into_iter().unzip();
    let cpu_marks = cpu_marks
        .into_iter()
        .collect::<Result<Vec<f64>, String>>()?;
    let steal_marks = steal_marks
        .into_iter()
        .collect::<Result<Vec<f64>, String>>()?;
    let (host_ref, sampler_cpu) = host_ref?;
    let slices = Slices::cut(clock, settings.slice, &host_ref, &steal_marks)?;
    let light = cut_window(&light_log, clock, workload.slo_limit(Class::Light), &slices);
    let heavy = cut_window(&heavy_log, clock, workload.slo_limit(Class::Heavy), &slices);

    // The bench's own threads' share of the process's CPU is taken over the
    // whole window (their work per statement does not change) and removed
    // from every slice.
    let process_cpu = cpu_marks[cpu_marks.len() - 1] - cpu_marks[0];
    let own_cpu = light_log.cpu_seconds + heavy_log.cpu_seconds + sampler_cpu;
    let server_share = 1.0 - own_cpu / process_cpu;
    let answered_in = |log: &ClassLog, index: usize| {
        log.answered
            .iter()
            .filter(|s| slices.index_of(u64::from(s.done_us)) == Some(index))
            .count()
    };
    let cpu_us_per_stmt = slices.median_of(|i| {
        let answered = answered_in(&light_log, i) + answered_in(&heavy_log, i);
        let server_cpu = (cpu_marks[i + 1] - cpu_marks[i]) * server_share;
        (answered > 0).then(|| server_cpu * 1e6 / answered as f64 / slices.factors[i])
    });
    let answered = light.answered + heavy.answered;
    let mut failures = light_log.first_failures;
    failures.extend(heavy_log.first_failures);
    Ok(WindowReport {
        cpu_us_per_stmt,
        raw_cpu_us_per_stmt: process_cpu * server_share * 1e6 / answered.max(1) as f64,
        speed_factor: slices.median_of(|i| Some(slices.factors[i])),
        steal_ms: (steal_marks[steal_marks.len() - 1] - steal_marks[0]) * 1e3,
        slices_used: slices.used.len(),
        light,
        heavy,
        engine,
        attribution,
        wal_bytes,
        item_versions_per_live_row,
        failures,
    })
}

/// On `point_lookup` no scan, hash join or group-by may have done work for a
/// statement: the workload is the control that bypasses them.
pub fn scan_operators_busy(attribution: &[AttributionEntry]) -> Vec<String> {
    attribution
        .iter()
        .filter(|e| e.statement != IDLE_STATEMENT && !e.busy.is_zero())
        .filter(|e| {
            ["Scan(", "HashJoin", "GroupBy"]
                .iter()
                .any(|prefix| e.operator.starts_with(prefix))
        })
        .map(|e| format!("{} busy {:?} for {}", e.operator, e.busy, e.statement))
        .collect()
}

/// One metric as the contract prints it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Result of one run of one workload, end to end or traced.
#[derive(Default)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Verification failures of any kind; empty means correct.
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

/// Declares [`Round`] with its JSON form, which is how a round's numbers
/// travel from the child process that measured them to the run.
macro_rules! round_record {
    ($($field:ident),* $(,)?) => {
        /// What one round measured.
        pub struct Round {
            $(pub $field: f64,)*
            /// Failed invariants and statements, operators busy on the control.
            pub problems: Vec<String>,
        }

        impl Round {
            pub fn to_json(&self) -> Json {
                let problems = self.problems.iter().cloned().map(Json::Str).collect();
                json::obj([
                    $((stringify!($field).to_string(), Json::Num(self.$field)),)*
                    ("problems".to_string(), Json::Arr(problems)),
                ])
            }

            pub fn from_json(json: &Json) -> Result<Round, String> {
                let number = |name: &str| {
                    json.get(name)
                        .and_then(Json::as_f64)
                        .ok_or(format!("round result has no number `{name}`"))
                };
                Ok(Round {
                    $($field: number(stringify!($field))?,)*
                    problems: json
                        .get("problems")
                        .map_or(&[][..], Json::as_array)
                        .iter()
                        .filter_map(|p| p.as_str().map(str::to_string))
                        .collect(),
                })
            }
        }
    };
}

round_record!(
    setup_s,
    setup_speed_factor,
    setup_steal_s,
    light_per_s,
    heavy_per_s,
    light_p50_ms,
    heavy_p50_ms,
    cpu_us_per_stmt,
    rss_mb,
    answered,
    within_limit,
    failed,
    slowest_ms,
    speed_factor,
    steal_ms,
    slices_used,
    raw_per_s,
    raw_cpu_us_per_stmt,
);

/// One round in this process: set-up (timed) → warm-up → window → tear-down.
pub fn run_round(
    workload: Workload,
    stream_seed: u64,
    settings: &Settings,
) -> Result<Round, String> {
    let (mut deployment, setup) = Deployment::set_up(workload, &settings.scale(), &scratch_dir())?;
    let report = run_window(&mut deployment, workload, stream_seed, settings);
    deployment.tear_down();
    let report = report?;
    let mut problems = report.failures.clone();
    if workload == Workload::PointLookup {
        problems.extend(scan_operators_busy(&report.attribution));
    }
    Ok(Round {
        setup_s: setup.seconds,
        setup_speed_factor: setup.speed_factor,
        setup_steal_s: setup.steal_seconds,
        light_per_s: report.light.per_s,
        heavy_per_s: report.heavy.per_s,
        light_p50_ms: report.light.p50_ms,
        heavy_p50_ms: report.heavy.p50_ms,
        cpu_us_per_stmt: report.cpu_us_per_stmt,
        rss_mb: peak_rss_mib()?,
        answered: (report.light.answered + report.heavy.answered) as f64,
        within_limit: report.within_limit() as f64,
        failed: report.failed() as f64,
        slowest_ms: report.light.max_ms.max(report.heavy.max_ms),
        speed_factor: report.speed_factor,
        steal_ms: report.steal_ms,
        slices_used: report.slices_used as f64,
        raw_per_s: report.light.raw_per_s + report.heavy.raw_per_s,
        raw_cpu_us_per_stmt: report.raw_cpu_us_per_stmt,
        problems,
    })
}

/// The same round in a freshly exec'd child of this binary, so that every
/// round has its own address space, allocator state and thread placement,
/// and `rss_mb` is the peak of a process that held one data set.
fn run_round_in_child(
    workload: Workload,
    stream_seed: u64,
    settings: &Settings,
) -> Result<Round, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // The child derives the same window from the run's whole seconds.
    let seconds = (settings.window.as_secs_f64() * ROUNDS as f64).round();
    let mut child = std::process::Command::new(&exe);
    child
        .args(["--round", "--workload", workload.name()])
        .args(["--seed", &stream_seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if settings.smoke {
        child.arg("--smoke");
    }
    let output = child
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line)
        .and_then(|json| Round::from_json(&json))
        .map_err(|e| format!("round child exited with {}: {e}", output.status))
}

/// Statements compared with the baseline before load.
const ORACLE_STATEMENTS: usize = 200;

/// Oracle check, then `ROUNDS` rounds; every metric is the median round.
pub fn run_end_to_end(
    workload: Workload,
    seed: u64,
    settings: &Settings,
) -> Result<RunResult, String> {
    let scale = settings.scale();
    let (mut deployment, oracle_setup) = Deployment::set_up(workload, &scale, &scratch_dir())?;
    let calls = interleaved_prefix(workload, &scale, seed, ORACLE_STATEMENTS);
    let answers = server_answers(&mut deployment.light, &deployment.prepared, &calls);
    deployment.tear_down();
    let mut problems = compare_with_baseline(&scale, &calls, &answers);
    let oracle_mismatches = problems.len() as u64;

    // A test binary cannot re-exec itself as `ledger`; there the rounds run
    // in this process.
    let run = if cfg!(test) {
        run_round
    } else {
        run_round_in_child
    };
    let mut rounds = Vec::new();
    for round in 0..ROUNDS as u64 {
        // Each round draws its own statement stream.
        let result = run(workload, seed * ROUNDS as u64 + round, settings)?;
        problems.extend(result.problems.iter().cloned());
        rounds.push(result);
    }

    let values = |field: fn(&Round) -> f64| rounds.iter().map(field).collect::<Vec<f64>>();
    let over_rounds = |field: fn(&Round) -> f64| median(&values(field));
    let total = |field: fn(&Round) -> f64| values(field).iter().sum::<f64>();
    let attempted = total(|r| r.answered + r.failed);
    let mut setups: Vec<SetUp> = rounds
        .iter()
        .map(|r| SetUp {
            seconds: r.setup_s,
            speed_factor: r.setup_speed_factor,
            steal_seconds: r.setup_steal_s,
        })
        .collect();
    setups.push(oracle_setup);
    let notes = vec![
        format!(
            "oracle: {} statements (stream hash {:016x}) compared with the baseline, \
             {oracle_mismatches} mismatches",
            calls.len(),
            stream_hash(&calls)
        ),
        format!(
            "rounds at nominal host speed: light/s {:.0?}, heavy/s {:.0?}, cpu µs/stmt {:.1?}; \
                 rss MiB {:.0?}",
            values(|r| r.light_per_s),
            values(|r| r.heavy_per_s),
            values(|r| r.cpu_us_per_stmt),
            values(|r| r.rss_mb),
        ),
        format!(
            "as measured: host speed factor {:.3?}, steal ms {:.0?}, slices used {:.0?}, \
                 statements/s {:.0?}, cpu µs/stmt {:.1?}",
            values(|r| r.speed_factor),
            values(|r| r.steal_ms),
            values(|r| r.slices_used),
            values(|r| r.raw_per_s),
            values(|r| r.raw_cpu_us_per_stmt),
        ),
        format!(
            "fewest statements in a round: {:.0}; slowest reply {:.1} ms; set-ups as measured \
                 {:.3?} s at host speed factor {:.3?} with steal ms {:.0?}",
            values(|r| r.answered)
                .into_iter()
                .fold(f64::INFINITY, f64::min),
            values(|r| r.slowest_ms).into_iter().fold(0.0, f64::max),
            setups.iter().map(|s| s.seconds).collect::<Vec<_>>(),
            setups.iter().map(|s| s.speed_factor).collect::<Vec<_>>(),
            setups
                .iter()
                .map(|s| s.steal_seconds * 1e3)
                .collect::<Vec<_>>(),
        ),
    ];
    let metrics = vec![
        metric("setup_s", median_setup_s(&setups), "s"),
        metric("light_stmts_per_s", over_rounds(|r| r.light_per_s), "1/s"),
        metric("heavy_stmts_per_s", over_rounds(|r| r.heavy_per_s), "1/s"),
        metric("light_p50_ms", over_rounds(|r| r.light_p50_ms), "ms"),
        metric("heavy_p50_ms", over_rounds(|r| r.heavy_p50_ms), "ms"),
        metric("cpu_us_per_stmt", over_rounds(|r| r.cpu_us_per_stmt), "us"),
        metric(
            "slo_ok_frac",
            over_rounds(|r| r.within_limit / (r.answered + r.failed).max(1.0)),
            "fraction",
        ),
        metric("rss_mb", over_rounds(|r| r.rss_mb), "MiB"),
    ];
    Ok(RunResult {
        metrics,
        attempted: attempted as u64 + calls.len() as u64,
        failed: total(|r| r.failed) as u64 + oracle_mismatches,
        problems,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100 statements a second at 10 ms before, inside and after the window.
    #[test]
    fn only_the_window_is_counted() {
        let start = Instant::now();
        let clock = RunClock {
            start,
            warm_end: start + Duration::from_secs(1),
            end: start + Duration::from_secs(3),
        };
        let mut log = ClassLog::default();
        for ms_after_start in (0..4_000u32).step_by(10) {
            let slow = ms_after_start % 1_000 == 0;
            log.answered.push(Sample {
                done_us: ms_after_start * 1_000,
                latency_ns: if slow { 90_000_000 } else { 10_000_000 },
            });
        }
        log.failed_in_window = 2;
        // Four slices of half a second; the host ran at half speed through
        // the last two.
        let slices = Slices {
            bounds: (0..4)
                .map(|i| (1_000_000 + i * 500_000, 1_500_000 + i * 500_000))
                .collect(),
            factors: vec![1.0, 1.0, 2.0, 2.0],
            used: vec![0, 1, 2, 3],
        };
        let window = cut_window(&log, clock, Duration::from_millis(50), &slices);
        assert_eq!(window.raw_per_s, 100.0);
        assert_eq!(window.answered, 200);
        // At nominal speed the slices read 100, 100, 200, 200 a second and
        // 10, 10, 5, 5 ms: the median slice lies between.
        assert_eq!(window.per_s, 150.0);
        assert_eq!(window.p50_ms, 7.5);
        assert_eq!(window.p95_ms, 10.0);
        assert_eq!(window.max_ms, 90.0);
        assert_eq!(window.within_limit, 198);
        assert_eq!(window.failed, 2);
    }

    /// Bursts at nominal speed every 2 ms from `from_us` to `to_us`, except
    /// that `slow` runs at half speed.
    fn bursts(from_us: u32, to_us: u32, slow: std::ops::Range<u32>) -> Vec<RefSample> {
        (from_us..to_us)
            .step_by(2_000)
            .enumerate()
            .map(|(i, at_us)| RefSample {
                at_us,
                kernel: (i % 3) as u8,
                ns: [20_000, 22_800, 26_000][i % 3] * if slow.contains(&at_us) { 2 } else { 1 },
            })
            .collect()
    }

    #[test]
    fn slices_carry_their_own_factor_and_stolen_ones_do_not_count() {
        let start = Instant::now();
        let clock = RunClock {
            start,
            warm_end: start + Duration::from_secs(1),
            end: start + Duration::from_secs(3),
        };
        let half = Duration::from_millis(500);
        let host_ref = bursts(1_000_000, 3_000_000, 2_000_000..2_500_000);
        // The hypervisor took 30 ms during the second slice only.
        let slices = Slices::cut(clock, half, &host_ref, &[5.0, 5.0, 5.03, 5.04, 5.04]).unwrap();
        assert_eq!(slices.bounds.len(), 4);
        assert_eq!(slices.bounds[3], (2_500_000, 3_000_000));
        // Bursts twice as slow stretch durations by 2^0.75 (`hostref`).
        for (factor, expected) in slices.factors.iter().zip([1.0, 1.0, 2f64.powf(0.75), 1.0]) {
            assert!((factor - expected).abs() < 1e-9, "{:?}", slices.factors);
        }
        assert_eq!(slices.used, [0, 2, 3]);
        assert_eq!(slices.index_of(999_999), None);
        assert_eq!(slices.index_of(2_499_999), Some(2));
        assert_eq!(slices.index_of(3_000_000), None);
        assert_eq!(slices.median_of(|i| Some(i as f64)), 2.0);
        assert!(slices.median_of(|_| None).is_nan());
        // Stolen from throughout: every slice counts again.
        let stolen = Slices::cut(clock, half, &host_ref, &[5.0, 5.1, 5.2, 5.3, 5.3]).unwrap();
        assert_eq!(stolen.used, [0, 1, 2, 3]);
        // A slice without bursts takes the window's factor; a window
        // without any cannot be corrected.
        let sparse = bursts(1_000_000, 2_500_000, 0..0);
        let slices = Slices::cut(clock, half, &sparse, &[0.0; 5]).unwrap();
        assert!((slices.factors[3] - 1.0).abs() < 1e-9);
        assert!(Slices::cut(clock, half, &[], &[0.0; 5]).is_err());
    }

    #[test]
    fn busy_scan_operators_are_reported_but_idle_time_is_not() {
        let entry = |operator: &str, statement: &str, busy_us| AttributionEntry {
            operator: operator.into(),
            statement: statement.into(),
            activations: 1,
            rows: 0,
            busy: Duration::from_micros(busy_us),
        };
        let attribution = [
            entry("Scan(ITEM)#0", IDLE_STATEMENT, 500),
            entry("Probe(ITEM)#4", "getItemById", 900),
            entry("HashJoin#9", "getBestSellers", 0),
            entry("GroupBy#10", "getBestSellers", 7),
        ];
        let busy = scan_operators_busy(&attribution);
        assert_eq!(busy.len(), 1, "{busy:?}");
        assert!(busy[0].starts_with("GroupBy#10"));
    }
}
