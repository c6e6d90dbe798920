//! Outside-in tracing: spans recorded around the public boundaries of the
//! stack (machine, driver step, plan oracle), kept in memory and written
//! out when the run ends.
//!
//! Nothing inside the program is instrumented. [`TimedMachine`] wraps a
//! [`DiscoveryMachine`], [`TimedOracle`] wraps a [`PlanOracle`], and the
//! benchmark's own run loop opens the `run` and `driver.step` spans. A
//! span's self time is its duration minus the time its children cover.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use skyweb_core::{
    AnytimeSnapshot, DiscoveryMachine, DiscoveryResult, PlanOracle, QueryPlan, RunProgress,
};
use skyweb_hidden_db::{PrefixGroup, Query, QueryError, QueryResponse};

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<u32>,
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

/// An in-memory span recorder shared by the wrappers of one run loop.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no tracer user panics while holding the lock")
    }

    /// Tags every span opened from now on with run id `run`.
    pub fn set_run(&self, run: u32) {
        self.lock().run = run;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&self, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        let mut st = self.lock();
        let id = u32::try_from(st.spans.len()).expect("fewer than 2^32 spans");
        let parent = st.open.last().copied();
        let run = st.run;
        st.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run,
        });
        st.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&self, id: u32) {
        let end_ns = self.now_ns();
        let mut st = self.lock();
        assert_eq!(st.open.pop(), Some(id), "spans close innermost first");
        st.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        let st = self
            .state
            .into_inner()
            .expect("no tracer user panics while holding the lock");
        assert!(st.open.is_empty(), "every span was closed");
        st.spans
    }
}

/// Per-name self time summed over `spans`, in nanoseconds, sorted by name.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut by_name: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (s, c) in spans.iter().zip(&child_ns) {
        *by_name.entry(s.name).or_default() += s.duration_ns().saturating_sub(*c);
    }
    by_name.into_iter().collect()
}

/// Spans as JSON lines, one object per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
            s.name, s.start_ns, s.end_ns, s.run
        );
    }
    out
}

/// A [`DiscoveryMachine`] whose `next_plan`, `resume` and `take_result`
/// are recorded as spans (`machine.next_plan`, `knowledge.resume`,
/// `machine.take_result`), with the tuples fed to `resume` counted.
#[derive(Debug)]
pub struct TimedMachine<'t, M> {
    inner: M,
    tracer: &'t Tracer,
    pub plans: u64,
    pub tuples_ingested: u64,
}

impl<'t, M: DiscoveryMachine> TimedMachine<'t, M> {
    pub fn new(inner: M, tracer: &'t Tracer) -> Self {
        TimedMachine {
            inner,
            tracer,
            plans: 0,
            tuples_ingested: 0,
        }
    }
}

impl<M: DiscoveryMachine> DiscoveryMachine for TimedMachine<'_, M> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn next_plan(&self, limit: usize) -> QueryPlan {
        self.tracer
            .span("machine.next_plan", || self.inner.next_plan(limit))
    }
    fn resume(&mut self, responses: &[QueryResponse]) {
        if !responses.is_empty() {
            self.plans += 1;
        }
        self.tuples_ingested += responses.iter().map(|r| r.len() as u64).sum::<u64>();
        let id = self.tracer.enter("knowledge.resume");
        self.inner.resume(responses);
        self.tracer.exit(id);
    }
    fn halt(&mut self) {
        self.inner.halt()
    }
    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
    fn progress(&self) -> RunProgress {
        self.inner.progress()
    }
    fn snapshot(&self) -> AnytimeSnapshot {
        self.inner.snapshot()
    }
    fn take_result(&mut self) -> DiscoveryResult {
        let id = self.tracer.enter("machine.take_result");
        let result = self.inner.take_result();
        self.tracer.exit(id);
        result
    }
}

/// One recorded plan round trip: what was asked and what came back.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub queries: Vec<Query>,
    pub groups: Option<Vec<PrefixGroup>>,
    pub responses: Vec<QueryResponse>,
}

/// Per-oracle accounting that survives the driver (which owns the oracle).
#[derive(Debug, Default)]
pub struct OracleLog {
    pub plans: u64,
    pub failed_plans: u64,
    /// Every exchange (only when recording).
    pub exchanges: Vec<Exchange>,
}

/// A [`PlanOracle`] that counts plans and failures, and optionally traces
/// (`oracle.run_plan` spans) and records exchanges.
#[derive(Debug)]
pub struct TimedOracle<'a, O> {
    inner: O,
    tracer: Option<&'a Tracer>,
    record: bool,
    log: &'a mut OracleLog,
}

impl<'a, O: PlanOracle> TimedOracle<'a, O> {
    pub fn new(inner: O, tracer: Option<&'a Tracer>, record: bool, log: &'a mut OracleLog) -> Self {
        TimedOracle {
            inner,
            tracer,
            record,
            log,
        }
    }
}

impl<O: PlanOracle> PlanOracle for TimedOracle<'_, O> {
    fn run_plan_grouped(
        &mut self,
        queries: &[Query],
        groups: Option<&[PrefixGroup]>,
    ) -> (Vec<QueryResponse>, Option<QueryError>) {
        let (responses, err) = match self.tracer {
            None => self.inner.run_plan_grouped(queries, groups),
            Some(tracer) => tracer.span("oracle.run_plan", || {
                self.inner.run_plan_grouped(queries, groups)
            }),
        };
        self.log.plans += 1;
        if err.is_some() {
            self.log.failed_plans += 1;
        }
        if self.record {
            self.log.exchanges.push(Exchange {
                queries: queries.to_vec(),
                groups: groups.map(<[PrefixGroup]>::to_vec),
                responses: responses.clone(),
            });
        }
        (responses, err)
    }
}

/// Lends a long-lived oracle (one connection reused by every run) to a
/// driver that wants to own its oracle.
#[derive(Debug)]
pub struct Borrowed<'a, O>(pub &'a mut O);

impl<O: PlanOracle> PlanOracle for Borrowed<'_, O> {
    fn run_plan_grouped(
        &mut self,
        queries: &[Query],
        groups: Option<&[PrefixGroup]>,
    ) -> (Vec<QueryResponse>, Option<QueryError>) {
        self.0.run_plan_grouped(queries, groups)
    }
}
