//! A shared simulation service: concurrent sweep requests over one
//! [`Runner`], with identical in-flight work deduplicated.
//!
//! The [`SweepService`] is the long-running core behind `mds-serve`:
//! many clients submit (benchmark, configuration) sweeps concurrently;
//! each distinct pair is simulated exactly once — repeats are served
//! from the two-tier cache, and a request arriving while an identical
//! pair is *already being simulated* by another client waits for that
//! simulation instead of starting a duplicate.
//!
//! The module also owns the wire protocol (`handle_line`): one JSON
//! request per line, one JSON response per line, so the server binary
//! is a thin socket loop and every protocol rule is unit-testable
//! without a socket.

use crate::cli;
use crate::runner::key::ConfigKey;
use crate::runner::{Runner, RunnerStats};
use mds_core::{CoreConfig, Policy, SimResult};
use mds_obs::{snapshot, to_prometheus, SpanId};
use mds_workloads::Benchmark;
use serde::{Serialize, Value};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Version of the line protocol spoken by [`SweepService::handle_line`]
/// (reported by `ping` so clients can detect mismatched servers).
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound, in bytes, on one request line. A legitimate sweep over
/// every policy and benchmark is a few kilobytes; a line that reaches a
/// mebibyte is a runaway or hostile client, and without a cap the
/// socket loop would buffer it in full before parsing — an unbounded
/// allocation driven entirely by the peer. Longer lines are rejected
/// with the standard `{"ok":false,"error":...}` response (see
/// [`SweepService::reject_oversized_line`]) and the connection
/// survives.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// A [`Runner`] shared by concurrent clients, deduplicating identical
/// in-flight requests.
///
/// The runner's own cache already collapses *completed* repeats; the
/// service additionally collapses *concurrent* ones: a claims table
/// records every (benchmark, config) currently being simulated, and a
/// request that overlaps a foreign claim blocks on a condition
/// variable until the owner finishes and publishes the result to the
/// cache — so three clients sweeping the same configurations cost one
/// sweep of simulations.
#[derive(Debug)]
pub struct SweepService {
    runner: Runner,
    inflight: Mutex<HashSet<(Benchmark, ConfigKey)>>,
    finished: Condvar,
    started: Instant,
    connections: AtomicU64,
}

impl SweepService {
    /// Wraps a runner for shared use.
    pub fn new(runner: Runner) -> SweepService {
        SweepService {
            runner,
            inflight: Mutex::new(HashSet::new()),
            finished: Condvar::new(),
            started: Instant::now(),
            connections: AtomicU64::new(0),
        }
    }

    /// The shared runner (for stats snapshots and trace events).
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// Seconds since the service was created.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Registers one newly accepted client connection (called by the
    /// socket loop).
    pub fn connection_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        self.runner.observe(|r| r.incr("service.connections_total"));
    }

    /// Unregisters a closed client connection.
    pub fn connection_closed(&self) {
        self.connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Number of currently active client connections.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Number of (benchmark, config) pairs currently being simulated.
    pub fn inflight_pairs(&self) -> u64 {
        self.inflight.lock().expect("claims table poisoned").len() as u64
    }

    /// Runs explicit (benchmark, configuration) pairs on the shared
    /// runner, returning one result per pair in request order.
    ///
    /// Unlike calling [`Runner::run_pairs`] directly, concurrent calls
    /// never simulate the same pair twice: each caller claims the
    /// pairs nobody else is working on, simulates only those, and
    /// waits for foreign claims to land in the cache.
    ///
    /// # Errors
    ///
    /// Returns a structured message when a simulation job failed
    /// (panicked twice, here or in a concurrent client's overlapping
    /// claim); every unaffected pair still completes and is cached.
    ///
    /// # Panics
    ///
    /// Panics if a requested benchmark is not part of the suite.
    pub fn run_pairs(&self, pairs: &[(Benchmark, CoreConfig)]) -> Result<Vec<SimResult>, String> {
        self.run_pairs_under(pairs, None)
    }

    /// [`SweepService::run_pairs`] with an explicit parent span, so a
    /// service request's `claim`, `dedup_join`, and runner phase spans
    /// all hang off the request's `recv` span.
    ///
    /// # Errors
    ///
    /// Returns a structured message when a simulation job failed
    /// (panicked twice, here or in a concurrent client's overlapping
    /// claim).
    ///
    /// # Panics
    ///
    /// Panics if a requested benchmark is not part of the suite.
    pub fn run_pairs_under(
        &self,
        pairs: &[(Benchmark, CoreConfig)],
        parent: Option<SpanId>,
    ) -> Result<Vec<SimResult>, String> {
        let traced = self.runner.trace().is_some();
        let keys: Vec<ConfigKey> = pairs.iter().map(|(_, c)| ConfigKey::of(c)).collect();

        // Claim what nobody else is simulating; remember what they are.
        let claim_span = traced.then(|| self.runner.spans().enter("claim", parent));
        let mut mine: Vec<(Benchmark, CoreConfig)> = Vec::new();
        let mut mine_keys: Vec<(Benchmark, ConfigKey)> = Vec::new();
        let mut foreign: Vec<(Benchmark, ConfigKey)> = Vec::new();
        let inflight_depth;
        {
            let mut inflight = self.inflight.lock().expect("claims table poisoned");
            let mut seen: HashSet<(Benchmark, &ConfigKey)> = HashSet::new();
            for ((benchmark, config), key) in pairs.iter().zip(&keys) {
                if !seen.insert((*benchmark, key))
                    || self.runner.memo.results.contains(*benchmark, key)
                {
                    continue; // in-request repeat or already memoized
                }
                let claim = (*benchmark, key.clone());
                if inflight.contains(&claim) {
                    foreign.push(claim);
                } else {
                    inflight.insert(claim);
                    mine.push((*benchmark, config.clone()));
                    mine_keys.push((*benchmark, key.clone()));
                }
            }
            inflight_depth = inflight.len() as u64;
        }
        // The dedup ledger: every requested pair is either claimed by
        // this caller, joined onto a foreign in-flight claim, or served
        // straight from the cache (memoized earlier or an in-request
        // repeat) — the three counters always sum to pairs_requested.
        let served = (pairs.len() - mine.len() - foreign.len()) as u64;
        self.runner.observe(|r| {
            r.add("service.pairs_requested", pairs.len() as u64);
            r.add("dedup.claimed", mine.len() as u64);
            r.add("dedup.joined", foreign.len() as u64);
            r.add("dedup.served_from_cache", served);
            r.set_gauge("service.inflight", inflight_depth as f64);
        });
        if let Some(mut span) = claim_span {
            span.add_field("claimed", Value::UInt(mine.len() as u64));
            span.add_field("joined", Value::UInt(foreign.len() as u64));
            span.add_field("served_from_cache", Value::UInt(served));
            self.runner.emit_span(&span.finish());
        }

        // Simulate the claimed pairs, then release the claims — even
        // if the whole call panicked, so foreign waiters are never
        // stranded on a claim whose owner is gone. (A worker panic is
        // already contained by the executor — one retry, then a
        // structured error — so the catch here is a last line of
        // defence for panics outside the job itself.)
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.runner.run_pairs_under(&mine, parent)
        }));
        {
            let mut inflight = self.inflight.lock().expect("claims table poisoned");
            for claim in &mine_keys {
                inflight.remove(claim);
            }
            self.runner
                .observe(|r| r.set_gauge("service.inflight", inflight.len() as f64));
            self.finished.notify_all();
        }
        let own_error = match outcome {
            Ok(Ok(_)) => None,
            Ok(Err(e)) => Some(e),
            Err(panic) => std::panic::resume_unwind(panic),
        };

        // Wait for the pairs other clients were simulating.
        let join_span = traced.then(|| self.runner.spans().enter("dedup_join", parent));
        {
            let mut inflight = self.inflight.lock().expect("claims table poisoned");
            while foreign.iter().any(|claim| inflight.contains(claim)) {
                inflight = self.finished.wait(inflight).expect("claims table poisoned");
            }
        }
        if let Some(mut span) = join_span {
            span.add_field("joined", Value::UInt(foreign.len() as u64));
            self.runner.emit_span(&span.finish());
        }

        if let Some(e) = own_error {
            self.runner.observe(|r| r.incr("service.job_errors"));
            return Err(e);
        }

        // Everything should be memoized now; assemble in request
        // order. A pair a *foreign* claim owned can be missing when
        // that owner's job failed — the waiter reports it as a
        // structured error rather than crashing on a bare `expect`.
        let assembled: Option<Vec<SimResult>> = pairs
            .iter()
            .zip(&keys)
            .map(|((benchmark, _), key)| self.runner.memo.results.peek(*benchmark, key))
            .collect();
        let Some(results) = assembled else {
            let missing: Vec<String> = pairs
                .iter()
                .zip(&keys)
                .filter(|((benchmark, _), key)| {
                    self.runner.memo.results.peek(*benchmark, key).is_none()
                })
                .map(|((benchmark, config), _)| {
                    format!("{} under {}", benchmark.name(), config.policy.paper_name())
                })
                .collect();
            self.runner.observe(|r| r.incr("service.job_errors"));
            return Err(format!(
                "a concurrent client's overlapping simulation failed: {}",
                missing.join(", ")
            ));
        };

        // Each request beyond the ones this caller simulated was
        // served from the cache (possibly filled by a foreign claim)
        // and counts as a memory hit.
        let hits = pairs.len().saturating_sub(mine.len()) as u64;
        self.runner.observe(|r| r.add("cache.memory_hits", hits));
        Ok(results)
    }

    /// The response for a connection shed at admission because the
    /// server is already serving its configured maximum: structured
    /// `retry_after_ms` so a well-behaved client backs off and retries
    /// instead of treating the shed as fatal. Counted under
    /// `service.sheds`.
    pub fn shed_response(&self, retry_after_ms: u64) -> String {
        self.runner.observe(|r| r.incr("service.sheds"));
        self.runner
            .trace_event("shed", &[("retry_after_ms", Value::UInt(retry_after_ms))]);
        Value::Object(vec![
            ("ok".to_string(), Value::Bool(false)),
            (
                "error".to_string(),
                Value::Str("server at connection capacity; retry later".to_string()),
            ),
            ("retry_after_ms".to_string(), Value::UInt(retry_after_ms)),
        ])
        .to_json()
    }

    /// Records one connection closed because the peer stayed silent
    /// past the configured read timeout (counted under
    /// `service.read_timeouts`).
    pub fn connection_timed_out(&self) {
        self.runner.observe(|r| r.incr("service.read_timeouts"));
        self.runner.trace_event("conn_timeout", &[]);
    }

    /// Handles one protocol line, returning the JSON response line and
    /// whether the server should shut down afterwards.
    ///
    /// Requests are JSON objects with an `op` field:
    ///
    /// - `{"op":"ping"}` — liveness and protocol version.
    /// - `{"op":"stats"}` — the shared runner's counters plus service
    ///   health: uptime, active connections, in-flight pairs, and
    ///   per-tier cache counters.
    /// - `{"op":"metrics"}` — a full snapshot of the operational metric
    ///   registry (request counters by outcome, dedup/cache-tier
    ///   counters, per-phase latency histograms, gauges); with
    ///   `"format":"prometheus"` the snapshot is rendered in Prometheus
    ///   text exposition instead of JSON.
    /// - `{"op":"sweep","configs":[{"policy":"NAS/NAV",...},...],
    ///   "benchmarks":["compress",...]}` — simulate every benchmark ×
    ///   config pair; `benchmarks` defaults to the whole suite. Config
    ///   knobs: `policy` (paper name, required), `window_size`, and
    ///   `addr_sched_latency` (both optional, paper defaults).
    /// - `{"op":"shutdown"}` — acknowledge and stop the server.
    ///
    /// Malformed requests produce `{"ok":false,"error":...}` and never
    /// kill the connection.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        self.handle_line_under(line, None)
    }

    /// [`SweepService::handle_line`] with an explicit parent span (the
    /// socket loop's per-request `recv` span), and per-request metric
    /// accounting: every request counts by op and outcome and samples
    /// its handling latency.
    pub fn handle_line_under(&self, line: &str, parent: Option<SpanId>) -> (String, bool) {
        let start_ns = self.runner.spans().now_ns();
        let (response, shutdown, ok, op) = match self.dispatch(line, parent) {
            Ok((response, shutdown, op)) => (response.to_json(), shutdown, true, op),
            Err((error, op)) => (
                Value::Object(vec![
                    ("ok".to_string(), Value::Bool(false)),
                    ("error".to_string(), Value::Str(error)),
                ])
                .to_json(),
                false,
                false,
                op,
            ),
        };
        let handle_ns = self.runner.spans().now_ns().saturating_sub(start_ns);
        self.runner.observe(|r| {
            r.incr("requests.total");
            r.incr(if ok { "requests.ok" } else { "requests.error" });
            r.incr(&format!("requests.op.{op}"));
            r.record("phase.handle_us", handle_ns / 1_000);
            r.record(&format!("phase.handle.{op}_us"), handle_ns / 1_000);
        });
        (response, shutdown)
    }

    /// The response for a request line that exceeded
    /// [`MAX_REQUEST_LINE`]: the same `{"ok":false,"error":...}` shape
    /// every malformed request gets, accounted under the `invalid` op
    /// like requests whose op cannot be determined (an oversized line
    /// is never parsed, so its op is unknowable by construction).
    pub fn reject_oversized_line(&self, seen_bytes: usize) -> String {
        self.runner.observe(|r| {
            r.incr("requests.total");
            r.incr("requests.error");
            r.incr("requests.op.invalid");
        });
        Value::Object(vec![
            ("ok".to_string(), Value::Bool(false)),
            (
                "error".to_string(),
                Value::Str(format!(
                    "request line exceeds {MAX_REQUEST_LINE} bytes (got {seen_bytes}+)"
                )),
            ),
        ])
        .to_json()
    }

    /// Dispatches one request, tagging both outcomes with the op name
    /// (`"invalid"` when the request has none) for per-op accounting.
    fn dispatch(
        &self,
        line: &str,
        parent: Option<SpanId>,
    ) -> Result<(Value, bool, String), (String, String)> {
        let invalid = |e: String| (e, "invalid".to_string());
        let request =
            Value::parse_json(line).map_err(|e| invalid(format!("bad request JSON: {e}")))?;
        let op = request
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("request has no \"op\" field".to_string()))?
            .to_string();
        let tag = |e: String| (e, op.clone());
        match op.as_str() {
            "ping" => Ok((
                Value::Object(vec![
                    ("ok".to_string(), Value::Bool(true)),
                    ("op".to_string(), Value::Str("ping".to_string())),
                    (
                        "protocol".to_string(),
                        Value::UInt(u64::from(PROTOCOL_VERSION)),
                    ),
                ]),
                false,
                op,
            )),
            "stats" => Ok((self.stats_response(), false, op)),
            "metrics" => self
                .metrics_response(&request)
                .map(|response| (response, false, op.clone()))
                .map_err(tag),
            "shutdown" => Ok((
                Value::Object(vec![
                    ("ok".to_string(), Value::Bool(true)),
                    ("op".to_string(), Value::Str("shutdown".to_string())),
                ]),
                true,
                op,
            )),
            "sweep" => self
                .sweep(&request, parent)
                .map(|response| (response, false, op.clone()))
                .map_err(tag),
            other => Err(invalid(format!("unknown op {other:?}"))),
        }
    }

    /// The `stats` response: raw runner counters plus service health
    /// and per-tier cache counters.
    fn stats_response(&self) -> Value {
        let obs = self.runner.obs_snapshot();
        let tiers = Value::Object(vec![
            (
                "memory_hits".to_string(),
                Value::UInt(obs.counter("cache.memory_hits")),
            ),
            (
                "disk_hits".to_string(),
                Value::UInt(obs.counter("cache.disk_hits")),
            ),
            (
                "disk_writes".to_string(),
                Value::UInt(obs.counter("cache.disk_writes")),
            ),
        ]);
        Value::Object(vec![
            ("ok".to_string(), Value::Bool(true)),
            ("op".to_string(), Value::Str("stats".to_string())),
            (
                "stats".to_string(),
                RunnerStats::from_registry(&obs).to_value(),
            ),
            (
                "uptime_seconds".to_string(),
                Value::Float(self.uptime_seconds()),
            ),
            ("connections".to_string(), Value::UInt(self.connections())),
            ("inflight".to_string(), Value::UInt(self.inflight_pairs())),
            ("tiers".to_string(), tiers),
        ])
    }

    /// The `metrics` response: the registry snapshot with live service
    /// gauges folded in, as JSON or Prometheus text exposition.
    fn metrics_response(&self, request: &Value) -> Result<Value, String> {
        let mut registry = self.runner.obs_snapshot();
        registry.set_gauge("service.uptime_seconds", self.uptime_seconds());
        registry.set_gauge("service.connections", self.connections() as f64);
        registry.set_gauge("service.inflight", self.inflight_pairs() as f64);
        match request.get("format").and_then(Value::as_str) {
            None | Some("json") => Ok(Value::Object(vec![
                ("ok".to_string(), Value::Bool(true)),
                ("op".to_string(), Value::Str("metrics".to_string())),
                ("metrics".to_string(), snapshot(&registry)),
            ])),
            Some("prometheus") => Ok(Value::Object(vec![
                ("ok".to_string(), Value::Bool(true)),
                ("op".to_string(), Value::Str("metrics".to_string())),
                ("format".to_string(), Value::Str("prometheus".to_string())),
                (
                    "text".to_string(),
                    Value::Str(to_prometheus(&registry, "mds")),
                ),
            ])),
            Some(other) => Err(format!(
                "unknown metrics format {other:?} (expected \"json\" or \"prometheus\")"
            )),
        }
    }

    fn sweep(&self, request: &Value, parent: Option<SpanId>) -> Result<Value, String> {
        let benchmarks = match request.get("benchmarks") {
            None | Some(Value::Null) => self.runner.suite().benchmarks(),
            Some(list) => {
                let names = list.as_array().ok_or("\"benchmarks\" must be an array")?;
                let mut resolved = Vec::with_capacity(names.len());
                for name in names {
                    let name = name.as_str().ok_or("benchmark names must be strings")?;
                    let benchmark = cli::resolve_benchmark(name)?;
                    if !self.runner.suite().benchmarks().contains(&benchmark) {
                        return Err(format!("{benchmark} is not in the served suite"));
                    }
                    resolved.push(benchmark);
                }
                resolved
            }
        };
        let specs = request
            .get("configs")
            .ok_or("sweep has no \"configs\" field")?
            .as_array()
            .ok_or("\"configs\" must be an array")?;
        let configs: Vec<CoreConfig> = specs.iter().map(parse_config).collect::<Result<_, _>>()?;

        let pairs: Vec<(Benchmark, CoreConfig)> = configs
            .iter()
            .flat_map(|config| benchmarks.iter().map(|&b| (b, config.clone())))
            .collect();
        self.runner
            .trace_event("sweep_start", &[("pairs", Value::UInt(pairs.len() as u64))]);
        let results = self.run_pairs_under(&pairs, parent).inspect_err(|e| {
            self.runner
                .trace_event("sweep_error", &[("error", Value::Str(e.clone()))]);
        })?;
        self.runner.trace_event(
            "sweep_finish",
            &[("pairs", Value::UInt(pairs.len() as u64))],
        );

        let rows: Vec<Value> = pairs
            .iter()
            .zip(&results)
            .map(|((benchmark, config), result)| {
                Value::Object(vec![
                    (
                        "benchmark".to_string(),
                        Value::Str(benchmark.name().to_string()),
                    ),
                    ("policy".to_string(), Value::Str(result.policy_name.clone())),
                    (
                        "window_size".to_string(),
                        Value::UInt(config.window_size as u64),
                    ),
                    (
                        "addr_sched_latency".to_string(),
                        Value::UInt(config.addr_sched_latency),
                    ),
                    ("ipc".to_string(), Value::Float(result.ipc())),
                    ("cycles".to_string(), Value::UInt(result.stats.cycles)),
                    ("committed".to_string(), Value::UInt(result.stats.committed)),
                    (
                        "misspeculations".to_string(),
                        Value::UInt(result.stats.misspeculations),
                    ),
                ])
            })
            .collect();
        Ok(Value::Object(vec![
            ("ok".to_string(), Value::Bool(true)),
            ("op".to_string(), Value::Str("sweep".to_string())),
            ("rows".to_string(), Value::Array(rows)),
        ]))
    }
}

/// Parses one sweep config spec: `policy` is required; `window_size`
/// and `addr_sched_latency` override the paper's 128-entry defaults.
/// Unknown knobs are rejected so a typo cannot silently sweep the
/// default.
fn parse_config(spec: &Value) -> Result<CoreConfig, String> {
    let fields = spec.as_object().ok_or("each config must be an object")?;
    let mut config = CoreConfig::paper_128();
    let mut policy = None;
    for (knob, value) in fields {
        match knob.as_str() {
            "policy" => {
                let name = value.as_str().ok_or("\"policy\" must be a string")?;
                policy = Some(parse_policy(name)?);
            }
            "window_size" => {
                let n = value.as_u64().ok_or("\"window_size\" must be an integer")?;
                let n = usize::try_from(n).map_err(|_| "\"window_size\" too large")?;
                config = config.with_window_size(n);
            }
            "addr_sched_latency" => {
                let n = value
                    .as_u64()
                    .ok_or("\"addr_sched_latency\" must be an integer")?;
                config = config.with_addr_sched_latency(n);
            }
            other => return Err(format!("unknown config knob {other:?}")),
        }
    }
    let policy = policy.ok_or("config has no \"policy\" field")?;
    Ok(config.with_policy(policy))
}

/// Resolves a paper-style policy name (`NAS/SYNC`, `AS/NO`, …).
fn parse_policy(name: &str) -> Result<Policy, String> {
    Policy::ALL
        .into_iter()
        .chain([Policy::NasStoreSets])
        .find(|p| p.paper_name() == name)
        .ok_or_else(|| {
            let known: Vec<&str> = Policy::ALL
                .into_iter()
                .chain([Policy::NasStoreSets])
                .map(Policy::paper_name)
                .collect();
            format!(
                "unknown policy {name:?} (expected one of: {})",
                known.join(", ")
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Suite;
    use mds_workloads::SuiteParams;
    use std::sync::Arc;

    fn service() -> SweepService {
        SweepService::new(Runner::new(
            Suite::generate(
                &[Benchmark::Compress, Benchmark::Swim],
                &SuiteParams::tiny(),
            )
            .unwrap(),
        ))
    }

    #[test]
    fn concurrent_overlapping_sweeps_simulate_each_pair_once() {
        let svc = Arc::new(service());
        let policies = ["NAS/NO", "NAS/NAV", "NAS/ORACLE"];
        let mut handles = Vec::new();
        for start in 0..3 {
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                // Each client sweeps the same pair set in a different
                // order, so claims genuinely interleave.
                let pairs: Vec<(Benchmark, CoreConfig)> = (0..policies.len())
                    .map(|i| policies[(start + i) % policies.len()])
                    .flat_map(|name| {
                        [Benchmark::Compress, Benchmark::Swim].map(|b| {
                            (
                                b,
                                CoreConfig::paper_128().with_policy(parse_policy(name).unwrap()),
                            )
                        })
                    })
                    .collect();
                let results = svc.run_pairs(&pairs).unwrap();
                results
                    .iter()
                    .zip(&pairs)
                    .map(|(r, (b, _))| format!("{b}/{}/{:?}", r.policy_name, r.stats))
                    .collect::<Vec<String>>()
            }));
        }
        let mut transcripts: Vec<Vec<String>> = handles
            .into_iter()
            .map(|h| {
                let mut t = h.join().unwrap();
                t.sort();
                t
            })
            .collect();
        // All clients saw identical results for identical pairs.
        transcripts.dedup();
        assert_eq!(transcripts.len(), 1, "clients must agree");
        let stats = svc.runner().stats();
        assert_eq!(
            stats.simulations, 6,
            "3 policies x 2 benchmarks, each simulated exactly once"
        );
        assert_eq!(
            stats.cache_hits, 12,
            "the other two clients' requests are hits"
        );
    }

    #[test]
    fn protocol_round_trip() {
        let svc = service();
        let (pong, stop) = svc.handle_line("{\"op\":\"ping\"}");
        assert!(!stop);
        assert!(pong.contains("\"protocol\":1"), "{pong}");

        let (resp, stop) = svc.handle_line(
            "{\"op\":\"sweep\",\"benchmarks\":[\"compress\"],\
             \"configs\":[{\"policy\":\"NAS/NAV\",\"window_size\":64}]}",
        );
        assert!(!stop);
        let parsed = Value::parse_json(&resp).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(true));
        let rows = parsed.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("benchmark").unwrap().as_str(),
            Some("129.compress")
        );
        assert_eq!(rows[0].get("policy").unwrap().as_str(), Some("NAS/NAV"));
        assert_eq!(rows[0].get("window_size").unwrap().as_u64(), Some(64));
        assert!(rows[0].get("ipc").unwrap().as_f64().unwrap() > 0.0);

        // A repeated sweep is all cache hits.
        let before = svc.runner().stats();
        let (again, _) = svc.handle_line(
            "{\"op\":\"sweep\",\"benchmarks\":[\"compress\"],\
             \"configs\":[{\"policy\":\"NAS/NAV\",\"window_size\":64}]}",
        );
        assert_eq!(resp, again, "identical requests get identical responses");
        let after = svc.runner().stats();
        assert_eq!(after.simulations, before.simulations);
        assert_eq!(after.cache_hits, before.cache_hits + 1);

        let (stats_resp, _) = svc.handle_line("{\"op\":\"stats\"}");
        let stats = Value::parse_json(&stats_resp).unwrap();
        assert_eq!(
            stats
                .get("stats")
                .unwrap()
                .get("simulations")
                .unwrap()
                .as_u64(),
            Some(1)
        );

        let (bye, stop) = svc.handle_line("{\"op\":\"shutdown\"}");
        assert!(stop, "shutdown must stop the server");
        assert!(bye.contains("\"ok\":true"), "{bye}");
    }

    #[test]
    fn protocol_rejects_malformed_requests_without_stopping() {
        let svc = service();
        for bad in [
            "not json",
            "{\"no\":\"op\"}",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"sweep\"}",
            "{\"op\":\"sweep\",\"configs\":[{\"policy\":\"NAS/BOGUS\"}]}",
            "{\"op\":\"sweep\",\"configs\":[{\"policy\":\"NAS/NO\",\"frequency\":3}]}",
            "{\"op\":\"sweep\",\"configs\":[{\"window_size\":64}]}",
            "{\"op\":\"sweep\",\"benchmarks\":[\"gcc\"],\
             \"configs\":[{\"policy\":\"NAS/NO\"}]}", // gcc not in suite
        ] {
            let (resp, stop) = svc.handle_line(bad);
            assert!(!stop, "{bad}");
            assert!(resp.contains("\"ok\":false"), "{bad} -> {resp}");
            assert!(resp.contains("\"error\""), "{bad} -> {resp}");
        }
        assert_eq!(svc.runner().stats().simulations, 0);
    }

    #[test]
    fn stats_reports_service_health_and_cache_tiers() {
        let svc = service();
        svc.connection_opened();
        svc.connection_opened();
        svc.connection_closed();
        svc.handle_line("{\"op\":\"sweep\",\"configs\":[{\"policy\":\"NAS/NO\"}]}");
        svc.handle_line("{\"op\":\"sweep\",\"configs\":[{\"policy\":\"NAS/NO\"}]}");
        let (resp, _) = svc.handle_line("{\"op\":\"stats\"}");
        let parsed = Value::parse_json(&resp).unwrap();
        assert!(parsed.get("uptime_seconds").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(parsed.get("connections").unwrap().as_u64(), Some(1));
        assert_eq!(parsed.get("inflight").unwrap().as_u64(), Some(0));
        let tiers = parsed.get("tiers").unwrap();
        // The repeat sweep's two pairs were served from the memory
        // tier; nothing touched a (non-attached) disk tier.
        assert_eq!(tiers.get("memory_hits").unwrap().as_u64(), Some(2));
        assert_eq!(tiers.get("disk_hits").unwrap().as_u64(), Some(0));
        assert_eq!(tiers.get("disk_writes").unwrap().as_u64(), Some(0));
        // The typed counters read the same registry counters.
        let stats = parsed.get("stats").unwrap();
        assert_eq!(stats.get("simulations").unwrap().as_u64(), Some(2));
        assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn metrics_verb_snapshots_the_registry() {
        let svc = service();
        svc.handle_line("{\"op\":\"sweep\",\"configs\":[{\"policy\":\"NAS/NAV\"}]}");
        svc.handle_line("{\"op\":\"sweep\",\"configs\":[{\"policy\":\"NAS/NAV\"}]}");
        svc.handle_line("{\"op\":\"bogus\"}");

        let (resp, stop) = svc.handle_line("{\"op\":\"metrics\"}");
        assert!(!stop);
        let parsed = Value::parse_json(&resp).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(true));
        let metrics = parsed.get("metrics").unwrap();
        // Dedup ledger: 2 sweeps x 2 pairs; the first claimed both, the
        // second was served from cache. The ledger always sums to the
        // requested total.
        assert_eq!(
            metrics.get("service.pairs_requested").unwrap().as_u64(),
            Some(4)
        );
        assert_eq!(metrics.get("dedup.claimed").unwrap().as_u64(), Some(2));
        assert_eq!(metrics.get("dedup.joined").unwrap().as_u64(), Some(0));
        assert_eq!(
            metrics.get("dedup.served_from_cache").unwrap().as_u64(),
            Some(2)
        );
        // Request accounting by outcome and op.
        assert_eq!(metrics.get("requests.total").unwrap().as_u64(), Some(3));
        assert_eq!(metrics.get("requests.ok").unwrap().as_u64(), Some(2));
        assert_eq!(metrics.get("requests.error").unwrap().as_u64(), Some(1));
        assert_eq!(metrics.get("requests.op.sweep").unwrap().as_u64(), Some(2));
        // Phase histograms decode and carry the simulations.
        let sim = mds_obs::Histogram::from_value(metrics.get("phase.simulate_us").unwrap())
            .expect("valid histogram snapshot");
        assert_eq!(sim.count(), 2);
        assert!(mds_obs::Histogram::from_value(metrics.get("phase.handle_us").unwrap()).is_some());
        // Live gauges are folded in at snapshot time.
        assert!(
            metrics
                .get("service.uptime_seconds")
                .unwrap()
                .as_f64()
                .unwrap()
                >= 0.0
        );
        assert_eq!(metrics.get("service.inflight").unwrap().as_f64(), Some(0.0));

        // The Prometheus rendering carries the same counters as text.
        let (resp, _) = svc.handle_line("{\"op\":\"metrics\",\"format\":\"prometheus\"}");
        let parsed = Value::parse_json(&resp).unwrap();
        let text = parsed.get("text").unwrap().as_str().unwrap();
        assert!(text.contains("# TYPE mds_dedup_claimed counter"), "{text}");
        assert!(text.contains("mds_dedup_claimed 2"), "{text}");
        assert!(text.contains("mds_phase_simulate_us_count 2"), "{text}");

        // An unknown format is an error, not a crash.
        let (resp, _) = svc.handle_line("{\"op\":\"metrics\",\"format\":\"xml\"}");
        assert!(resp.contains("\"ok\":false"), "{resp}");
    }

    #[test]
    fn sweep_defaults_to_the_whole_suite() {
        let svc = service();
        let (resp, _) =
            svc.handle_line("{\"op\":\"sweep\",\"configs\":[{\"policy\":\"NAS/ORACLE\"}]}");
        let parsed = Value::parse_json(&resp).unwrap();
        let rows = parsed.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2, "one row per suite benchmark");
    }

    fn service_with_faults(plan: &str) -> SweepService {
        SweepService::new(
            Runner::new(Suite::generate(&[Benchmark::Compress], &SuiteParams::tiny()).unwrap())
                .with_faults(crate::faults::FaultPlan::parse(plan).unwrap()),
        )
    }

    #[test]
    fn single_worker_panic_is_retried_and_the_sweep_succeeds() {
        let svc = service_with_faults("worker_panic=nth:1");
        let (resp, stop) =
            svc.handle_line("{\"op\":\"sweep\",\"configs\":[{\"policy\":\"NAS/NAV\"}]}");
        assert!(!stop);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let stats = svc.runner().stats();
        assert_eq!(stats.job_retries, 1, "the panicked job re-ran once");
        assert_eq!(stats.job_failures, 0);
        assert_eq!(stats.simulations, 1);
        assert_eq!(stats.faults_injected, 1);
        // A faulted-then-retried sweep returns exactly what a
        // fault-free service returns.
        let clean = service();
        let (clean_resp, _) = clean.handle_line(
            "{\"op\":\"sweep\",\"benchmarks\":[\"compress\"],\
             \"configs\":[{\"policy\":\"NAS/NAV\"}]}",
        );
        let rows = |r: &str| {
            Value::parse_json(r)
                .unwrap()
                .get("rows")
                .unwrap()
                .as_array()
                .unwrap()
                .to_vec()
        };
        assert_eq!(
            format!("{:?}", rows(&resp)),
            format!("{:?}", rows(&clean_resp)),
            "retried results must be byte-identical to fault-free ones"
        );
    }

    #[test]
    fn persistent_worker_panic_is_a_structured_job_error() {
        let svc = service_with_faults("worker_panic=every:1");
        let (resp, stop) =
            svc.handle_line("{\"op\":\"sweep\",\"configs\":[{\"policy\":\"NAS/NO\"}]}");
        assert!(!stop, "a failed sweep must not kill the server");
        let parsed = Value::parse_json(&resp).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
        let error = parsed.get("error").unwrap().as_str().unwrap();
        assert!(error.contains("worker panicked twice"), "{error}");
        assert!(error.contains("129.compress"), "{error}");
        let stats = svc.runner().stats();
        assert_eq!(stats.job_retries, 1);
        assert_eq!(stats.job_failures, 1);
        assert_eq!(stats.simulations, 0);
        let obs = svc.runner().obs_snapshot();
        assert_eq!(obs.counter("service.job_errors"), 1);
        assert_eq!(obs.counter("runner.job_retries"), 1);
        assert_eq!(obs.counter("runner.job_failures"), 1);
        assert_eq!(obs.counter("faults.injected.worker_panic"), 2);
        // The claims table is clean: the failed pair can be retried,
        // and a healthy service would then serve it.
        assert_eq!(svc.inflight_pairs(), 0);
    }

    #[test]
    fn shed_response_is_structured_and_counted() {
        let svc = service();
        let resp = svc.shed_response(250);
        let parsed = Value::parse_json(&resp).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("retry_after_ms").unwrap().as_u64(), Some(250));
        svc.connection_timed_out();
        let obs = svc.runner().obs_snapshot();
        assert_eq!(obs.counter("service.sheds"), 1);
        assert_eq!(obs.counter("service.read_timeouts"), 1);
    }
}
