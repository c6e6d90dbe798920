//! The workloads: how each dataset is generated, which algorithm
//! runs over which interface, and how the database is served (segment file
//! in-process, or RAM behind a loopback TCP server).

use std::path::Path;
use std::time::{Duration, Instant};

use skyweb_core::{
    Discoverer, DiscoveryDriver, DiscoveryError, DiscoveryMachine, DiscoveryResult, DriverConfig,
    MqDbSky, PlanOracle, PqDbSky, StepOutcome,
};
use skyweb_datagen::{flights_dot, Dataset};
use skyweb_hidden_db::{
    FaultPlan, FaultyOracle, HiddenDb, InterfaceType, Schema, SegmentOpenOptions, SumRanker,
};
use skyweb_net::{RemoteOracle, ServeReport, Server, ServerConfig, ServerHandle};

use crate::trace::{Borrowed, Exchange, OracleLog, TimedMachine, TimedOracle, Tracer};

/// The top-k cap of every workload's interface.
pub const K: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MqRemote,
    PqSegment,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Tuples in the generated dataset.
    pub n: usize,
    /// Decoded-chunk cache budget of the segment (`None` = unbounded).
    pub cache_budget: Option<u64>,
}

pub const NAMES: [&str; 2] = ["mq_remote", "pq_segment"];

impl Workload {
    /// The named workload at its default size, or at `n` tuples.
    pub fn parse(name: &str, n: Option<usize>) -> Option<Workload> {
        let w = match name {
            "mq_remote" => Workload {
                kind: Kind::MqRemote,
                name: "mq_remote",
                n: 10_000,
                cache_budget: None,
            },
            "pq_segment" => Workload {
                kind: Kind::PqSegment,
                name: "pq_segment",
                n: 50_000,
                cache_budget: Some(1 << 20),
            },
            _ => return None,
        };
        Some(Workload {
            n: n.unwrap_or(w.n),
            ..w
        })
    }

    pub fn remote(&self) -> bool {
        self.kind == Kind::MqRemote
    }

    /// The workload's dataset: DOT-like flights generated from `data_seed`,
    /// projected onto the workload's attributes (each exposed through its
    /// interface type), and stored in an order shuffled by `seed`.
    ///
    /// The shuffle keeps every tuple and its id, so the skyline, the query
    /// sequence and its cost do not depend on `seed`; the storage layout
    /// does. A new `data_seed` draws new flights and a new query cost.
    pub fn dataset(&self, data_seed: u64, seed: u64) -> Dataset {
        let config = flights_dot::FlightsDotConfig {
            n: self.n,
            seed: data_seed,
        };
        let attrs: Vec<(&str, InterfaceType)> = match self.kind {
            Kind::MqRemote => vec![
                ("dep_delay", InterfaceType::Rq),
                ("taxi_out", InterfaceType::Rq),
                ("distance", InterfaceType::Rq),
                ("distance_group_long", InterfaceType::Pq),
                ("delay_group", InterfaceType::Pq),
            ],
            Kind::PqSegment => [
                "distance_group_long",
                "air_time_group",
                "delay_group",
                "taxi_out_group",
            ]
            .iter()
            .map(|a| (*a, InterfaceType::Pq))
            .collect(),
        };
        let names: Vec<&str> = attrs.iter().map(|(a, _)| *a).collect();
        let mut ds = flights_dot::generate(&config).project(&names);
        // Set the interfaces in place: `Dataset::with_interface` copies
        // every tuple once per attribute.
        let mut specs = ds.schema.attrs().to_vec();
        for (spec, (_, interface)) in specs.iter_mut().zip(&attrs) {
            spec.interface = *interface;
        }
        ds.schema = Schema::new(specs);
        shuffle(&mut ds.tuples, seed);
        ds
    }

    pub fn algorithm(&self) -> Box<dyn Discoverer> {
        match self.kind {
            Kind::MqRemote => Box::new(MqDbSky::new()),
            Kind::PqSegment => Box::new(PqDbSky::new()),
        }
    }
}

/// Fisher-Yates shuffle driven by SplitMix64, so the order depends on
/// `seed` alone.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// What one complete discovery run produced.
#[derive(Debug)]
pub struct RunOutcome {
    pub result: Result<DiscoveryResult, DiscoveryError>,
    pub wall: Duration,
    /// Plans sent through the oracle (retries included).
    pub round_trips: u64,
    pub failed_plans: u64,
    pub retries: u64,
    /// Plans whose answers the machine consumed (traced runs only).
    pub machine_plans: u64,
    /// Tuples fed to the machine's knowledge base (traced runs only).
    pub tuples_ingested: u64,
    /// Every plan round trip (recording runs only).
    pub exchanges: Vec<Exchange>,
}

/// Steps a driver to the end, one `driver.step` span per step when traced.
fn drive<M: DiscoveryMachine>(
    driver: &mut DiscoveryDriver<'_, M>,
    tracer: Option<&Tracer>,
) -> Result<(), DiscoveryError> {
    loop {
        let outcome = match tracer {
            Some(t) => t.span("driver.step", || driver.step()),
            None => driver.step(),
        }?;
        if !matches!(outcome, StepOutcome::Progressed { .. }) {
            return Ok(());
        }
    }
}

/// One complete discovery run through `oracle`: build the machine, step it
/// to the end, take the result. Traced runs wrap the machine and the
/// oracle and open the `run` root span.
pub fn run_once(
    alg: &dyn Discoverer,
    schema_db: &HiddenDb,
    oracle: impl PlanOracle + Send,
    tracer: Option<&Tracer>,
    record: bool,
) -> RunOutcome {
    let mut log = OracleLog::default();
    let start = Instant::now();
    let root = tracer.map(|t| t.enter("run"));
    let oracle = TimedOracle::new(oracle, tracer, record, &mut log);
    let config = DriverConfig::new();
    let mut retries = 0;
    let mut machine_plans = 0;
    let mut tuples_ingested = 0;
    let result = match tracer {
        None => alg.machine(schema_db).and_then(|m| {
            let mut driver = DiscoveryDriver::with_oracle(oracle, m, config);
            drive(&mut driver, None)?;
            retries = driver.retries();
            Ok(driver.into_machine().take_result())
        }),
        Some(t) => t
            .span("machine.build", || alg.machine(schema_db))
            .and_then(|m| {
                let timed = TimedMachine::new(m, t);
                let mut driver = DiscoveryDriver::with_oracle(oracle, timed, config);
                drive(&mut driver, Some(t))?;
                retries = driver.retries();
                let mut timed = driver.into_machine();
                machine_plans = timed.plans;
                tuples_ingested = timed.tuples_ingested;
                Ok(timed.take_result())
            }),
    };
    if let (Some(t), Some(id)) = (tracer, root) {
        t.exit(id);
    }
    let wall = start.elapsed();
    RunOutcome {
        result,
        wall,
        round_trips: log.plans,
        failed_plans: log.failed_plans,
        retries,
        machine_plans,
        tuples_ingested,
        exchanges: log.exchanges,
    }
}

/// The served database of one workload, ready for timed runs.
pub enum Target<'a> {
    /// Queried in-process through a fault-free [`FaultyOracle`].
    Local { db: &'a HiddenDb },
    /// Queried over one long-lived TCP connection; `served` is the
    /// database behind the server (for its counters), `replica` the
    /// schema-only stand-in machines are built from.
    Remote {
        oracle: &'a mut RemoteOracle,
        replica: &'a HiddenDb,
        served: &'a HiddenDb,
    },
}

impl Target<'_> {
    /// The database that answers the queries.
    pub fn served(&self) -> &HiddenDb {
        match self {
            Target::Local { db } => db,
            Target::Remote { served, .. } => served,
        }
    }

    pub fn run(
        &mut self,
        alg: &dyn Discoverer,
        tracer: Option<&Tracer>,
        record: bool,
    ) -> RunOutcome {
        match self {
            Target::Local { db } => run_once(
                alg,
                db,
                FaultyOracle::new(db, FaultPlan::none()),
                tracer,
                record,
            ),
            Target::Remote {
                oracle, replica, ..
            } => run_once(alg, replica, Borrowed(&mut **oracle), tracer, record),
        }
    }
}

/// Set-up figures of one set-up pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupInfo {
    /// Everything before the first timed run, warm-up run included.
    pub setup: Duration,
    /// Opening the segment file (segment workloads).
    pub open: Option<Duration>,
    /// Segment file size (segment workloads).
    pub segment_bytes: Option<u64>,
    /// TCP connect plus handshake (remote workload).
    pub connect: Option<Duration>,
}

/// Shuts the server down when dropped, so that an early return or a panic
/// inside the serving scope cannot leave its acceptor blocked forever.
struct StopOnDrop(ServerHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs one set-up pass — generate, build, serve, warm up — then hands the
/// ready target to `measure` and tears everything down again. The server
/// report comes back for the remote workload.
pub fn with_target<R>(
    w: &Workload,
    data_seed: u64,
    seed: u64,
    dir: &Path,
    measure: impl FnOnce(&mut Target<'_>, SetupInfo, DiscoveryResult) -> R,
) -> Result<(R, Option<ServeReport>), String> {
    let start = Instant::now();
    let alg = w.algorithm();
    let db = w.dataset(data_seed, seed).into_db_sum(K);
    if w.remote() {
        let server = Server::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let config = ServerConfig::new()
            .with_workers(1)
            .with_read_timeout(Some(Duration::from_secs(60)));
        return std::thread::scope(|scope| {
            let stop = StopOnDrop(server.handle());
            let serving = scope.spawn(|| server.serve(&db, &config));
            let connecting = Instant::now();
            let oracle = RemoteOracle::connect_with(addr, w.name, Some(Duration::from_secs(60)));
            let connect = connecting.elapsed();
            let out = oracle
                .map_err(|e| format!("connect: {e}"))
                .and_then(|mut oracle| {
                    let replica = oracle.replica();
                    let mut target = Target::Remote {
                        oracle: &mut oracle,
                        replica: &replica,
                        served: &db,
                    };
                    let warm = warm_up(&mut target, alg.as_ref())?;
                    let info = SetupInfo {
                        setup: start.elapsed(),
                        connect: Some(connect),
                        ..SetupInfo::default()
                    };
                    Ok(measure(&mut target, info, warm))
                });
            drop(stop);
            let report = serving
                .join()
                .map_err(|_| "the server thread panicked".to_string())?;
            out.map(|r| (r, Some(report)))
        });
    }
    let path = dir.join(format!("{}-{seed}.swsg", w.name));
    let segment_bytes = db
        .write_segment(&path)
        .map_err(|e| format!("write segment: {e}"))?;
    drop(db);
    let opening = Instant::now();
    let options = match w.cache_budget {
        Some(bytes) => SegmentOpenOptions::new().with_cache_budget(bytes),
        None => SegmentOpenOptions::new(),
    };
    let db = HiddenDb::open_segment_with(&path, Box::new(SumRanker), options)
        .map_err(|e| format!("open segment: {e}"))?;
    let open = opening.elapsed();
    let mut target = Target::Local { db: &db };
    let warm = warm_up(&mut target, alg.as_ref())?;
    let info = SetupInfo {
        setup: start.elapsed(),
        open: Some(open),
        segment_bytes: Some(segment_bytes),
        connect: None,
    };
    let out = measure(&mut target, info, warm);
    drop(db);
    let _ = std::fs::remove_file(&path);
    Ok((out, None))
}

/// One untimed run that pays the engine's lazy index build and fills the
/// caches before timing starts.
fn warm_up(target: &mut Target<'_>, alg: &dyn Discoverer) -> Result<DiscoveryResult, String> {
    let out = target.run(alg, None, false);
    match out.result {
        Ok(r) if r.complete => Ok(r),
        Ok(_) => Err("warm-up run did not complete".to_string()),
        Err(e) => Err(format!("warm-up run failed: {e}")),
    }
}
