//! The discovery benchmark: complete skyline-discovery runs in a closed
//! loop (one client; the next run starts when the previous one finished),
//! end-to-end metrics from untraced runs, and an outside-in per-layer
//! split of wall time from traced runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pq_segment [--seed 2015] [--seconds 10] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod report;
mod speed;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use skyweb_core::{
    decode_plan, decode_responses, encode_plan, encode_responses, Discoverer, DiscoveryResult,
    QueryPlan,
};
use skyweb_hidden_db::{FaultPlan, FaultyOracle, HiddenDb, QueryStats, StorageStats};
use skyweb_skyline::sfs_skyline;

use report::{median, percentile, Env};
use speed::Reference;
use trace::{Exchange, Span, Tracer};
use workload::{SetupInfo, Target, Workload, K};

const USAGE: &str = "usage: perfbench --workload <mq_remote|pq_segment> \
[--seed N] [--data-seed N] [--seconds S] [--trace 0|1] [--n TUPLES]";

/// End-to-end metrics (untraced pass): name and unit. Run and set-up
/// times are scaled to the nominal host (see [`speed`]); the traced pass
/// reports them unscaled as `wall.*`.
const END_TO_END: [(&str, &str); 6] = [
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("query_cost", "count"),
    ("round_trips", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Set-up passes per invocation. Each pass sets the workload up afresh and
/// then times its share of the runs, so the set-ups, whose median is
/// `setup_s`, are spread over the timed phase as the runs are.
const SETUPS: usize = 9;

/// Timed replays of a recorded run used to split the oracle's time.
const REPLAYS: usize = 5;

/// Traced runs per traced pass; later runs of the pass go untraced, which
/// keeps the span dump to a few hundred thousand spans.
const MAX_TRACED_RUNS: usize = 20;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    data_seed: u64,
    seconds: f64,
    trace: bool,
    n: Option<usize>,
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {flag}: {value}"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2015,
        data_seed: 2015,
        seconds: 10.0,
        trace: false,
        n: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = parse(&flag, &value)?,
            "--data-seed" => args.data_seed = parse(&flag, &value)?,
            "--seconds" => args.seconds = parse(&flag, &value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            "--n" => args.n = Some(parse(&flag, &value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: a timed run failed the correctness gate");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where the benchmark keeps its files: under the build directory.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("perfbench")
}

/// What a run must return: its skyline (ids and values), query cost and
/// completeness.
struct Expected {
    skyline: Vec<(u64, Vec<u32>)>,
    query_cost: u64,
}

impl Expected {
    fn of(r: &DiscoveryResult) -> Expected {
        let mut skyline: Vec<_> = r.skyline.iter().map(|t| (t.id, t.values.clone())).collect();
        skyline.sort();
        Expected {
            skyline,
            query_cost: r.query_cost,
        }
    }

    fn matches(&self, r: &DiscoveryResult) -> bool {
        r.complete && r.query_cost == self.query_cost && Expected::of(r).skyline == self.skyline
    }
}

/// The correctness reference: one in-process run over a RAM database,
/// itself checked against the SFS skyline of the generated dataset. The
/// distinct skyline values must be SFS's and every returned tuple must be
/// an SFS skyline tuple. (Ids alone cannot be compared with SFS: with
/// duplicated values, a top-k interface may never reveal every copy.)
/// Returns the RAM database too, the twin that traced runs replay on.
fn reference(w: &Workload, data_seed: u64, seed: u64) -> Result<(Expected, HiddenDb), String> {
    let ds = w.dataset(data_seed, seed);
    let sfs = sfs_skyline(&ds.tuples, &ds.schema);
    let sfs_ids: HashSet<u64> = sfs.iter().map(|t| t.id).collect();
    let distinct = |values: Vec<&Vec<u32>>| {
        let mut v = values;
        v.sort();
        v.dedup();
        v.into_iter().cloned().collect::<Vec<_>>()
    };
    let sfs_values = distinct(sfs.iter().map(|t| &t.values).collect());
    let db = ds.into_db_sum(K);
    let r = w
        .algorithm()
        .discover(&db)
        .map_err(|e| format!("reference run failed: {e}"))?;
    let agrees = r.complete
        && r.skyline.iter().all(|t| sfs_ids.contains(&t.id))
        && distinct(r.skyline.iter().map(|t| &t.values).collect()) == sfs_values;
    if !agrees {
        return Err("the in-process RAM run disagrees with the SFS skyline".to_string());
    }
    Ok((Expected::of(&r), db))
}

#[derive(Debug, Clone, Copy, Default)]
struct StorageDelta {
    hits: u64,
    misses: u64,
    evictions: u64,
    decoded: u64,
}

impl StorageDelta {
    fn between(a: Option<StorageStats>, b: Option<StorageStats>) -> StorageDelta {
        let (Some(a), Some(b)) = (a, b) else {
            return StorageDelta::default();
        };
        let decoded = |s: &StorageStats| s.decoded_for + s.decoded_dict + s.decoded_rle;
        StorageDelta {
            hits: b.cache_hits - a.cache_hits,
            misses: b.cache_misses - a.cache_misses,
            evictions: b.cache_evictions - a.cache_evictions,
            decoded: decoded(&b) - decoded(&a),
        }
    }

    fn add(&mut self, o: StorageDelta) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.decoded += o.decoded;
    }
}

fn add_stats(acc: &mut QueryStats, a: QueryStats, b: QueryStats) {
    acc.queries += b.queries - a.queries;
    acc.overflows += b.overflows - a.overflows;
    acc.empty_answers += b.empty_answers - a.empty_answers;
    acc.tuples_returned += b.tuples_returned - a.tuples_returned;
}

/// Everything the timed phase measured.
#[derive(Debug, Default)]
struct Measured {
    untraced_ms: Vec<f64>,
    /// The untraced runs' times scaled to the nominal host.
    scaled_ms: Vec<f64>,
    /// Every reference timing, in milliseconds.
    reference_ms: Vec<f64>,
    /// Set-up seconds scaled to the nominal host, one per pass.
    setup_s: Vec<f64>,
    /// The reference time each traced run is scaled by.
    traced_reference_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    /// Untraced runs interleaved with the traced ones (the overhead base).
    paired_ms: Vec<f64>,
    runs: u64,
    failed_runs: u64,
    plans: u64,
    failed_plans: u64,
    query_cost: u64,
    round_trips: u64,
    retries: u64,
    // Traced runs only, summed over them.
    machine_plans: u64,
    tuples_ingested: u64,
    db: QueryStats,
    storage: StorageDelta,
    bytes_resident: u64,
    spans: Vec<Span>,
    exchanges: Vec<Exchange>,
    /// Peak resident set size of each pass's timed runs.
    peak_rss_mb: Vec<f64>,
}

/// Reference timings on each side of a run that its time is scaled by:
/// their median, so that one slow timing does not skew the run.
const REFERENCE_WINDOW: usize = 3;

/// One pass's share of the timed phase: closed-loop runs for `seconds`,
/// added to `m`, each followed by a timing of `speed_ref` (`before` is the
/// timing that precedes the first). With tracing, every other run is
/// traced (up to [`MAX_TRACED_RUNS`] in all); with `record`, one untimed
/// recording run follows.
#[allow(clippy::too_many_arguments)]
fn measure(
    m: &mut Measured,
    target: &mut Target<'_>,
    alg: &dyn Discoverer,
    expected: &Expected,
    seconds: f64,
    tracer: Option<&Tracer>,
    record: bool,
    speed_ref: &mut Reference,
    before: f64,
) -> Result<(), String> {
    if !report::reset_peak_rss() {
        return Err("cannot reset the peak resident set size".to_string());
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Run `i` lies between `refs[i]` and `refs[i + 1]`.
    let mut refs = vec![before];
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    loop {
        let pairing = tracer.is_some() && m.traced_ms.len() < MAX_TRACED_RUNS;
        let trace_this = pairing && m.runs % 2 == 1;
        let counters = (target.served().stats(), target.served().storage_stats());
        let run_tracer = tracer.filter(|_| trace_this);
        if let Some(t) = run_tracer {
            t.set_run(u32::try_from(m.runs).map_err(|_| "too many runs")?);
        }
        let out = target.run(alg, run_tracer, false);
        let ms = out.wall.as_secs_f64() * 1e3;
        refs.push(speed_ref.time_ms()?);
        let ok = out.failed_plans == 0 && out.result.as_ref().is_ok_and(|r| expected.matches(r));
        m.runs += 1;
        m.plans += out.round_trips;
        m.failed_plans += out.failed_plans;
        if !ok {
            m.failed_runs += 1;
            m.failed_plans += out.round_trips - out.failed_plans;
        }
        m.retries += out.retries;
        m.round_trips = out.round_trips;
        if let Ok(r) = &out.result {
            m.query_cost = r.query_cost;
        }
        if trace_this {
            m.traced_ms.push(ms);
            traced.push(refs.len() - 2);
            m.machine_plans += out.machine_plans;
            m.tuples_ingested += out.tuples_ingested;
            let served = target.served();
            add_stats(&mut m.db, counters.0, served.stats());
            m.storage
                .add(StorageDelta::between(counters.1, served.storage_stats()));
        } else {
            m.untraced_ms.push(ms);
            untraced.push((refs.len() - 2, ms));
            if pairing {
                m.paired_ms.push(ms);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let around = |i: usize| {
        median(
            &refs[i.saturating_sub(REFERENCE_WINDOW - 1)..refs.len().min(i + 1 + REFERENCE_WINDOW)],
        )
    };
    for (i, ms) in untraced {
        m.scaled_ms.push(speed_ref.scale(ms, around(i)));
    }
    m.traced_reference_ms.extend(traced.into_iter().map(around));
    m.reference_ms.extend(refs);
    m.peak_rss_mb
        .push(report::peak_rss_mb().ok_or("peak RSS is unavailable")?);
    m.bytes_resident = target
        .served()
        .storage_stats()
        .map_or(0, |s| s.bytes_resident);
    if record {
        m.exchanges = target.run(alg, None, true).exchanges;
    }
    Ok(())
}

/// Median wall time of `REPLAYS` replays of `exchanges` against `db`
/// through a fresh in-process session each time (after one warm replay).
fn replay_engine_ms(db: &HiddenDb, exchanges: &[Exchange]) -> f64 {
    let replay = || {
        let start = Instant::now();
        let mut oracle = FaultyOracle::new(db, FaultPlan::none());
        for ex in exchanges {
            let (responses, err) = oracle.run_plan_grouped(&ex.queries, ex.groups.as_deref());
            assert!(err.is_none() && responses.len() == ex.responses.len());
        }
        start.elapsed().as_secs_f64() * 1e3
    };
    replay();
    median(&(0..REPLAYS).map(|_| replay()).collect::<Vec<_>>())
}

/// Codec cost of a recorded run: the client encodes each plan and decodes
/// each response batch, the server the other way round. Returns the median
/// encode and decode milliseconds and the bytes framed per run.
fn replay_codec(exchanges: &[Exchange]) -> (f64, f64, u64) {
    let plans: Vec<QueryPlan> = exchanges
        .iter()
        .map(|ex| match &ex.groups {
            Some(g) => QueryPlan::with_groups(ex.queries.clone(), g.clone()),
            None => QueryPlan::new(ex.queries.clone()),
        })
        .collect();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut bytes = 0;
    for _ in 0..=REPLAYS {
        let mut frames = Vec::with_capacity(plans.len());
        let start = Instant::now();
        for (plan, ex) in plans.iter().zip(exchanges) {
            frames.push((encode_plan(plan), encode_responses(&ex.responses)));
        }
        enc.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        for (p, r) in &frames {
            let plan = decode_plan(p).expect("a frame just encoded decodes");
            let responses = decode_responses(r).expect("a frame just encoded decodes");
            std::hint::black_box((plan, responses));
        }
        dec.push(start.elapsed().as_secs_f64() * 1e3);
        bytes = frames.iter().map(|(p, r)| (p.len() + r.len()) as u64).sum();
    }
    // The first pass warms the allocator and is not counted.
    (median(&enc[1..]), median(&dec[1..]), bytes)
}

/// Tuples matched per tuple returned over a replay of `exchanges` with the
/// access log on (the log is the only place the match counts show).
fn matched_per_returned(db: &HiddenDb, exchanges: &[Exchange]) -> f64 {
    db.enable_access_log();
    let mut oracle = FaultyOracle::new(db, FaultPlan::none());
    for ex in exchanges {
        oracle.run_plan_grouped(&ex.queries, ex.groups.as_deref());
    }
    let log = db.access_log();
    let matched: usize = log.entries().iter().map(|e| e.matched).sum();
    let returned: usize = log.entries().iter().map(|e| e.returned).sum();
    matched as f64 / returned.max(1) as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median_of(setups: &[SetupInfo], f: impl Fn(&SetupInfo) -> Option<Duration>) -> f64 {
    let v: Vec<f64> = setups
        .iter()
        .filter_map(|s| f(s).map(|d| d.as_secs_f64()))
        .collect();
    median(&v)
}

fn run(args: &Args) -> Result<bool, String> {
    report::one_malloc_arena();
    let w = Workload::parse(&args.workload, args.n).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {:?})",
            args.workload,
            workload::NAMES
        )
    })?;
    let mut env = Env::capture(w.name, args.seed, args.data_seed, w.n, w.cache_budget);
    env.pinned_cpu = report::pin_to_one_cpu();
    let dir = work_dir().join(format!("data-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let outcome = run_in(args, &w, &env, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn run_in(args: &Args, w: &Workload, env: &Env, dir: &Path) -> Result<bool, String> {
    let alg = w.algorithm();
    let mut speed_ref = if w.remote() {
        Reference::remote()?
    } else {
        Reference::compute()
    };
    let tracer = args.trace.then(Tracer::new);
    let mut m = Measured::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rejected = 0;
    // Every warm-up and timed run must return what the first warm-up run
    // did; that result is checked against the reference once timing is
    // over.
    let mut warm_up: Option<DiscoveryResult> = None;
    let mut warm_ups_agree = true;
    for pass in 0..SETUPS {
        let before = speed_ref.time_ms()?;
        let (measured, report) =
            workload::with_target(w, args.data_seed, args.seed, dir, |target, info, warm| {
                let after = speed_ref.time_ms()?;
                let setup_ms = info.setup.as_secs_f64() * 1e3;
                m.setup_s
                    .push(speed_ref.scale(setup_ms, (before + after) / 2.0) / 1e3);
                setups.push(info);
                let expected = Expected::of(warm_up.get_or_insert_with(|| warm.clone()));
                warm_ups_agree &= expected.matches(&warm);
                let seconds = args.seconds / SETUPS as f64;
                let record = args.trace && pass + 1 == SETUPS;
                measure(
                    &mut m,
                    target,
                    alg.as_ref(),
                    &expected,
                    seconds,
                    tracer.as_ref(),
                    record,
                    &mut speed_ref,
                    after,
                )
            })?;
        measured?;
        rejected += report.map_or(0, |r| r.rejected);
    }
    if let Some(t) = tracer {
        m.spans = t.into_spans();
    }
    let warm_up = warm_up.ok_or("no warm-up run")?;
    let (reference, twin) = reference(w, args.data_seed, args.seed)?;
    if !(warm_ups_agree && reference.matches(&warm_up)) {
        m.failed_runs = m.runs;
        m.failed_plans = m.plans;
    }
    let correct = m.failed_runs == 0;

    println!("{{\"env\": {}}}", env.to_json());
    println!(
        "# {} seed={} n={}: {} runs ({} traced), {} failed, {} plans",
        w.name,
        args.seed,
        w.n,
        m.runs,
        m.traced_ms.len(),
        m.failed_runs,
        m.plans
    );
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        layer_metrics(w, &m, &twin, &setups, rejected, &mut speed_ref)?
    } else {
        let samples = m.untraced_ms.len();
        let quantiles = |xs: &[f64]| {
            [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]
                .iter()
                .map(|&p| format!("{:.3}", percentile(xs, p)))
                .collect::<Vec<_>>()
                .join("/")
        };
        println!(
            "# run_ms: {samples} samples, {} beyond p90; min/p25/p50/p75/p90/max scaled {}, wall {}; reference {:.3} ms (median); failed_frac {}",
            report::beyond(samples, 0.9),
            quantiles(&m.scaled_ms),
            quantiles(&m.untraced_ms),
            median(&m.reference_ms),
            ratio(m.failed_plans as f64, m.plans as f64)
        );
        let values = [
            median(&m.scaled_ms),
            percentile(&m.scaled_ms, 0.9),
            m.query_cost as f64,
            m.round_trips as f64,
            median(&m.setup_s),
            median(&m.peak_rss_mb),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    println!(
        "{}",
        report::result_line(correct, m.plans, m.failed_plans, &metrics)
    );
    Ok(correct)
}

/// The per-layer metrics of a traced pass, after printing its self-time
/// table and writing its span dump.
fn layer_metrics(
    w: &Workload,
    m: &Measured,
    twin: &HiddenDb,
    setups: &[SetupInfo],
    rejected: u64,
    speed_ref: &mut Reference,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let runs = m.traced_ms.len() as f64;
    let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, ns) in trace::self_times(&m.spans) {
        self_ms.insert(name, ns as f64 / 1e6 / runs);
    }
    let get = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let wall_ms: f64 = m
        .spans
        .iter()
        .filter(|s| s.name == "run")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum::<f64>()
        / runs;
    let rtt_us: Vec<f64> = m
        .spans
        .iter()
        .filter(|s| s.name == "oracle.run_plan")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();

    // The replays run after the timed phase, when the host may run at
    // another speed than during the traced runs: they are scaled to the
    // traced runs' speed by the reference timed around each.
    let before = speed_ref.time_ms()?;
    let engine_ms = replay_engine_ms(twin, &m.exchanges);
    let (encode_ms, decode_ms, codec_bytes) = if w.remote() {
        replay_codec(&m.exchanges)
    } else {
        (0.0, 0.0, 0)
    };
    let to_traced = median(&m.traced_reference_ms) * 2.0 / (before + speed_ref.time_ms()?);
    let (engine_ms, encode_ms, decode_ms) = (
        engine_ms * to_traced,
        encode_ms * to_traced,
        decode_ms * to_traced,
    );
    let oracle_ms = get("oracle.run_plan");
    let codec_ms = encode_ms + decode_ms;
    let (exec_ms, wire_ms, storage_ms) = if w.remote() {
        (engine_ms, oracle_ms - codec_ms - engine_ms, 0.0)
    } else {
        (oracle_ms, 0.0, oracle_ms - engine_ms)
    };
    let machine_ms = get("machine.build") + get("machine.next_plan") + get("machine.take_result");
    let rows = [
        ("machine", machine_ms),
        ("knowledge", get("knowledge.resume")),
        ("driver", get("driver.step")),
        ("codec", codec_ms),
        ("net", wire_ms),
        ("db", engine_ms),
        ("segment", storage_ms),
        ("unattributed", get("run")),
    ];
    println!(
        "# per-layer self time, {} ({} traced runs, mean per run)",
        w.name, runs
    );
    println!("# {:<14} {:>12} {:>8}", "layer", "ms/run", "share");
    for (layer, ms) in rows {
        println!(
            "# {:<14} {:>12.4} {:>7.2}%",
            layer,
            ms,
            100.0 * ratio(ms, wall_ms)
        );
    }
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    println!("# {:<14} {:>12.4} (traced wall {:.4})", "sum", sum, wall_ms);

    let spans_path = work_dir().join(format!("spans-{}.jsonl", w.name));
    std::fs::write(&spans_path, trace::spans_jsonl(&m.spans))
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    println!(
        "# spans: {} written to {}",
        m.spans.len(),
        spans_path.display()
    );

    let queries = m.db.queries as f64 / runs;
    let returned = m.db.tuples_returned as f64 / runs;
    let lookups = (m.storage.hits + m.storage.misses) as f64;
    let raw_bytes = (w.n * twin.schema().len() * 4) as f64;
    let segment_bytes = setups
        .last()
        .and_then(|s| s.segment_bytes)
        .map_or(0.0, |b| b as f64);
    let tuples = m.tuples_ingested as f64 / runs;
    let knowledge_ms = get("knowledge.resume");
    Ok(vec![
        ("wall.run_ms_p50", median(&m.untraced_ms), "ms"),
        ("wall.run_ms_p90", percentile(&m.untraced_ms, 0.9), "ms"),
        ("wall.setup_s", median_of(setups, |s| Some(s.setup)), "s"),
        ("wall.reference_ms", median(&m.reference_ms), "ms"),
        ("machine.next_plan_ms", get("machine.next_plan"), "ms"),
        ("machine.plans", m.machine_plans as f64 / runs, "count"),
        ("knowledge.resume_ms", knowledge_ms, "ms"),
        ("knowledge.tuples_ingested", tuples, "count"),
        (
            "knowledge.ns_per_tuple",
            ratio(knowledge_ms * 1e6, tuples),
            "ns",
        ),
        ("driver.self_ms", get("driver.step"), "ms"),
        (
            "driver.queries_per_round_trip",
            ratio(m.query_cost as f64, m.round_trips as f64),
            "count",
        ),
        ("driver.retries", m.retries as f64 / m.runs as f64, "count"),
        ("codec.encode_ms", encode_ms, "ms"),
        ("codec.decode_ms", decode_ms, "ms"),
        (
            "codec.bytes_per_round_trip",
            ratio(codec_bytes as f64, m.exchanges.len() as f64),
            "bytes",
        ),
        ("net.wire_ms", wire_ms, "ms"),
        (
            "net.round_trip_us_p50",
            if w.remote() { median(&rtt_us) } else { 0.0 },
            "us",
        ),
        (
            "net.round_trip_us_p99",
            if w.remote() {
                percentile(&rtt_us, 0.99)
            } else {
                0.0
            },
            "us",
        ),
        (
            "net.connect_ms",
            median_of(setups, |s| s.connect) * 1e3,
            "ms",
        ),
        ("net.rejected", rejected as f64, "count"),
        ("db.exec_ms", exec_ms, "ms"),
        ("db.us_per_query", ratio(exec_ms * 1e3, queries), "us"),
        ("db.tuples_returned", returned, "count"),
        (
            "db.overflow_frac",
            ratio(m.db.overflows as f64, m.db.queries as f64),
            "frac",
        ),
        (
            "db.empty_frac",
            ratio(m.db.empty_answers as f64, m.db.queries as f64),
            "frac",
        ),
        (
            "db.matched_per_returned",
            matched_per_returned(twin, &m.exchanges),
            "ratio",
        ),
        ("segment.cache_hits", m.storage.hits as f64 / runs, "count"),
        (
            "segment.cache_misses",
            m.storage.misses as f64 / runs,
            "count",
        ),
        (
            "segment.hit_ratio",
            ratio(m.storage.hits as f64, lookups),
            "frac",
        ),
        (
            "segment.evictions",
            m.storage.evictions as f64 / runs,
            "count",
        ),
        (
            "segment.chunks_decoded",
            m.storage.decoded as f64 / runs,
            "count",
        ),
        ("segment.bytes_resident", m.bytes_resident as f64, "bytes"),
        ("segment.storage_ms", storage_ms, "ms"),
        ("segment.open_ms", median_of(setups, |s| s.open) * 1e3, "ms"),
        (
            "segment.bytes_per_raw_byte",
            ratio(segment_bytes, raw_bytes),
            "ratio",
        ),
        ("trace.wall_ms", wall_ms, "ms"),
        (
            "trace.unattributed_frac",
            ratio(get("run"), wall_ms),
            "frac",
        ),
        (
            "trace.overhead_frac",
            ratio(median(&m.traced_ms), median(&m.paired_ms)) - 1.0,
            "frac",
        ),
    ])
}
