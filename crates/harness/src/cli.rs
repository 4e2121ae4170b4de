//! Shared, unit-testable command-line parsing for the harness binaries.
//!
//! The binaries (`reproduce`, `mds-serve`) keep their I/O and
//! orchestration, but everything that can be got wrong in parsing — the
//! benchmark-name resolution rules, experiment-name validation, scale
//! and job-count parsing — lives here where tests can reach it. The
//! flags that set up the run's [`Runner`] are parsed and applied once,
//! by [`RunnerArgs`], for both binaries.

use crate::experiments::EXPERIMENTS;
use crate::faults::FaultPlan;
use crate::runner::{Runner, Suite, TraceSink};
use mds_workloads::{Benchmark, SuiteParams};
use std::path::PathBuf;

/// Usage string for `reproduce`, listing the experiments in run order.
pub fn reproduce_usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: reproduce [--scale tiny|test|bench] \
         [--benchmarks name,...] [--only table1,fig2,...] [--out DIR] [--jobs N]\n\
         [--cache-dir DIR] [--durable-cache] [--trace-out FILE.jsonl]\n\
         [--fault-plan SPEC] [--list]\n\
         experiments: {}",
        names.join(" ")
    )
}

/// Usage string for `mds-serve`.
pub const SERVE_USAGE: &str = "usage: mds-serve --socket PATH [--scale tiny|test|bench] \
     [--benchmarks name,...] [--jobs N]\n\
     [--cache-dir DIR] [--durable-cache] [--trace-out FILE.jsonl]\n\
     [--read-timeout-ms N] [--write-timeout-ms N] [--max-connections N] \
     [--fault-plan SPEC]\n\
     Serves simulation sweeps over a Unix socket, one JSON request per \
     line, one JSON response per line.";

/// The flags both binaries share: which suite to generate and how the
/// [`Runner`] over it is set up.
#[derive(Debug, Clone, PartialEq)]
pub struct RunnerArgs {
    /// Suite sizing (`--scale`).
    pub params: SuiteParams,
    /// Benchmarks to generate and simulate (`--benchmarks`).
    pub benchmarks: Vec<Benchmark>,
    /// Worker threads (`--jobs`; `0` = automatic).
    pub jobs: usize,
    /// Persistent result-cache directory (`--cache-dir`); `None` keeps
    /// the cache purely in memory.
    pub cache_dir: Option<PathBuf>,
    /// Whether disk-cache writes fsync file and directory before they
    /// count as stored (`--durable-cache`).
    pub durable_cache: bool,
    /// JSONL trace file (`--trace-out`); `None` disables tracing.
    pub trace_out: Option<PathBuf>,
    /// Fault-injection plan spec (`--fault-plan`), validated at parse
    /// time; `None` defers to the `MDS_FAULT_PLAN` environment variable
    /// (see [`effective_fault_plan`]).
    pub fault_plan: Option<String>,
}

impl Default for RunnerArgs {
    fn default() -> RunnerArgs {
        RunnerArgs {
            params: SuiteParams::bench(),
            benchmarks: Benchmark::ALL.to_vec(),
            jobs: 0,
            cache_dir: None,
            durable_cache: false,
            trace_out: None,
            fault_plan: None,
        }
    }
}

impl RunnerArgs {
    /// Applies `flag` if it is one of the shared runner flags, taking
    /// its value (if it has one) from `value`; returns whether it was.
    fn parse_flag<'v>(
        &mut self,
        flag: &str,
        value: impl FnOnce(&str) -> Result<&'v str, String>,
    ) -> Result<bool, String> {
        match flag {
            "--scale" => self.params = parse_scale(value(flag)?)?,
            "--benchmarks" => self.benchmarks = parse_benchmarks(value(flag)?)?,
            "--jobs" => self.jobs = parse_jobs(value(flag)?)?,
            "--cache-dir" => self.cache_dir = Some(PathBuf::from(value(flag)?)),
            "--durable-cache" => self.durable_cache = true,
            "--trace-out" => self.trace_out = Some(PathBuf::from(value(flag)?)),
            "--fault-plan" => self.fault_plan = Some(parse_fault_plan(value(flag)?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The run's [`Runner`] over `suite`: the fault plan armed first,
    /// then durability, the disk tier and the trace sink.
    ///
    /// # Errors
    ///
    /// A bad `MDS_FAULT_PLAN` spec, or a trace file that cannot be
    /// created.
    pub fn runner(&self, suite: Suite) -> Result<Runner, String> {
        let mut runner = Runner::new(suite).with_jobs(self.jobs);
        let faults = effective_fault_plan(self.fault_plan.as_deref())?;
        if faults.is_armed() {
            eprintln!("fault injection armed");
            runner = runner.with_faults(faults);
        }
        if self.durable_cache {
            runner = runner.with_durable_cache();
        }
        if let Some(dir) = &self.cache_dir {
            eprintln!("persistent result cache at {}...", dir.display());
            runner = runner.with_cache_dir(dir);
        }
        if let Some(path) = &self.trace_out {
            let sink = TraceSink::create(path)
                .map_err(|e| format!("cannot create trace {}: {e}", path.display()))?;
            eprintln!("tracing to {}...", path.display());
            runner = runner.with_trace(sink);
        }
        Ok(runner)
    }
}

/// Parsed `reproduce` arguments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReproduceArgs {
    /// The suite and runner set-up.
    pub runner: RunnerArgs,
    /// Experiment subset (`None` = all).
    pub only: Option<Vec<String>>,
    /// Artifact directory for `.txt`/`.json`/`.csv` emission.
    pub out: Option<PathBuf>,
}

/// What a `reproduce` invocation asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum ReproduceCommand {
    /// Run with the parsed arguments.
    Run(ReproduceArgs),
    /// Print usage and exit successfully (`--help`).
    Help,
    /// Print the experiment names, one per line (`--list`).
    List,
}

/// Parses `reproduce` arguments (the part after the program name).
///
/// # Errors
///
/// Returns a message naming the offending flag or value: unknown
/// flags, missing values, unknown scales, unknown or ambiguous
/// benchmark names, and unknown experiment names all fail here rather
/// than silently running the wrong thing.
pub fn parse_reproduce_args(args: &[String]) -> Result<ReproduceCommand, String> {
    let mut parsed = ReproduceArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--only" => {
                let list: Vec<String> = value("--only")?.split(',').map(str::to_string).collect();
                validate_experiments(&list)?;
                parsed.only = Some(list);
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--list" => return Ok(ReproduceCommand::List),
            "--help" | "-h" => return Ok(ReproduceCommand::Help),
            other => {
                if !parsed.runner.parse_flag(other, value)? {
                    return Err(format!("unknown argument {other}\n{}", reproduce_usage()));
                }
            }
        }
    }
    Ok(ReproduceCommand::Run(parsed))
}

/// Parsed `mds-serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Unix-socket path to listen on.
    pub socket: PathBuf,
    /// The suite and runner set-up.
    pub runner: RunnerArgs,
    /// Per-connection read timeout in milliseconds (`0` disables): how
    /// long the server waits for a client to produce request bytes
    /// before the connection is closed and counted.
    pub read_timeout_ms: u64,
    /// Per-connection write timeout in milliseconds (`0` disables):
    /// how long a response write may block on a client that stopped
    /// reading.
    pub write_timeout_ms: u64,
    /// Concurrent-connection cap (`0` = unbounded): connections beyond
    /// it are shed with a structured `retry_after_ms` error instead of
    /// queueing without bound.
    pub max_connections: u64,
}

/// What an `mds-serve` invocation asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeCommand {
    /// Serve with the parsed arguments.
    Run(ServeArgs),
    /// Print usage and exit successfully (`--help`).
    Help,
}

/// Parses `mds-serve` arguments (the part after the program name).
///
/// # Errors
///
/// Returns a message naming the offending flag or value; a missing
/// `--socket` is an error, since there is nothing to serve on.
pub fn parse_serve_args(args: &[String]) -> Result<ServeCommand, String> {
    let mut socket = None;
    let mut runner = RunnerArgs::default();
    let mut read_timeout_ms = DEFAULT_READ_TIMEOUT_MS;
    let mut write_timeout_ms = DEFAULT_WRITE_TIMEOUT_MS;
    let mut max_connections = DEFAULT_MAX_CONNECTIONS;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--read-timeout-ms" => {
                read_timeout_ms = parse_millis("--read-timeout-ms", value("--read-timeout-ms")?)?
            }
            "--write-timeout-ms" => {
                write_timeout_ms = parse_millis("--write-timeout-ms", value("--write-timeout-ms")?)?
            }
            "--max-connections" => {
                max_connections = parse_millis("--max-connections", value("--max-connections")?)?
            }
            "--help" | "-h" => return Ok(ServeCommand::Help),
            other => {
                if !runner.parse_flag(other, value)? {
                    return Err(format!("unknown argument {other}\n{SERVE_USAGE}"));
                }
            }
        }
    }
    let socket = socket.ok_or_else(|| format!("--socket is required\n{SERVE_USAGE}"))?;
    Ok(ServeCommand::Run(ServeArgs {
        socket,
        runner,
        read_timeout_ms,
        write_timeout_ms,
        max_connections,
    }))
}

/// Default per-connection read timeout: generous enough for a human at
/// `nc -U`, short enough that a slowloris client cannot pin a worker
/// thread for long.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 30_000;

/// Default per-connection write timeout: a healthy client drains a
/// response in milliseconds; one that stopped reading should not hold
/// the thread longer than this.
pub const DEFAULT_WRITE_TIMEOUT_MS: u64 = 10_000;

/// Default concurrent-connection cap before overload shedding.
pub const DEFAULT_MAX_CONNECTIONS: u64 = 64;

/// Parses a `--scale` value.
///
/// # Errors
///
/// Rejects anything but `tiny`, `test`, or `bench`.
pub fn parse_scale(v: &str) -> Result<SuiteParams, String> {
    match v {
        "tiny" => Ok(SuiteParams::tiny()),
        "test" => Ok(SuiteParams::test()),
        "bench" => Ok(SuiteParams::bench()),
        other => Err(format!("unknown scale {other} (expected tiny|test|bench)")),
    }
}

/// Parses a `--jobs` value (`0` = automatic).
///
/// # Errors
///
/// Rejects non-numeric values.
pub fn parse_jobs(v: &str) -> Result<usize, String> {
    v.parse().map_err(|e| format!("bad --jobs value {v}: {e}"))
}

/// Parses a non-negative integer flag value (timeouts, connection
/// caps), naming the flag in the error.
///
/// # Errors
///
/// Rejects non-numeric values.
pub fn parse_millis(flag: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|e| format!("bad {flag} value {v}: {e}"))
}

/// Validates a `--fault-plan` spec at parse time — a typo in a site
/// name or trigger fails the invocation instead of silently arming
/// nothing — and hands back the spec for the binary to arm later.
///
/// # Errors
///
/// Whatever [`FaultPlan::parse`] rejects: unknown sites, malformed
/// triggers, out-of-range probabilities, duplicate clauses.
pub fn parse_fault_plan(spec: &str) -> Result<String, String> {
    FaultPlan::parse(spec)?;
    Ok(spec.to_string())
}

/// Resolves the effective fault plan: the `--fault-plan` flag when
/// given, else the `MDS_FAULT_PLAN` environment variable, else an
/// unarmed plan. The environment path lets CI chaos stages arm faults
/// without threading a flag through every wrapper script.
///
/// # Errors
///
/// Whatever [`FaultPlan::parse`] rejects — an env var with a typo'd
/// spec fails loudly rather than running fault-free while the operator
/// believes chaos is armed.
pub fn effective_fault_plan(flag: Option<&str>) -> Result<FaultPlan, String> {
    let spec = match flag {
        Some(s) => Some(s.to_string()),
        None => std::env::var("MDS_FAULT_PLAN").ok(),
    };
    match spec.as_deref().map(str::trim) {
        Some(s) if !s.is_empty() => {
            FaultPlan::parse(s).map_err(|e| format!("bad fault plan {s:?}: {e}"))
        }
        _ => Ok(FaultPlan::none()),
    }
}

/// Resolves one benchmark name.
///
/// An exact match on the full SPEC name (`126.gcc`) or its short form
/// (`gcc`) always wins; otherwise a substring must match exactly one
/// benchmark, and an ambiguous substring errors with the candidates
/// rather than silently picking the first.
///
/// # Errors
///
/// Unknown names and ambiguous substrings, with the candidate list.
pub fn resolve_benchmark(name: &str) -> Result<Benchmark, String> {
    let exact = Benchmark::ALL.into_iter().find(|b| {
        b.name() == name
            || b.name()
                .split_once('.')
                .is_some_and(|(_, short)| short == name)
    });
    if let Some(b) = exact {
        return Ok(b);
    }
    let matches: Vec<Benchmark> = Benchmark::ALL
        .into_iter()
        .filter(|b| b.name().contains(name))
        .collect();
    match matches.as_slice() {
        [] => Err(format!("unknown benchmark {name}")),
        [one] => Ok(*one),
        many => {
            let candidates: Vec<&str> = many.iter().map(|b| b.name()).collect();
            Err(format!(
                "ambiguous benchmark {name}: matches {}",
                candidates.join(", ")
            ))
        }
    }
}

/// Resolves a comma-separated benchmark list via [`resolve_benchmark`].
///
/// # Errors
///
/// Propagates the first unknown or ambiguous name.
pub fn parse_benchmarks(list: &str) -> Result<Vec<Benchmark>, String> {
    list.split(',').map(resolve_benchmark).collect()
}

/// Checks every name against [`EXPERIMENTS`].
///
/// # Errors
///
/// Names the first unknown experiment and lists the valid ones, so a
/// typo like `fig11` fails loudly instead of running nothing.
pub fn validate_experiments(names: &[String]) -> Result<(), String> {
    let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    for name in names {
        if !known.contains(&name.as_str()) {
            return Err(format!(
                "unknown experiment {name} (expected one of: {})",
                known.join(", ")
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_when_no_args() {
        let cmd = parse_reproduce_args(&[]).unwrap();
        let ReproduceCommand::Run(args) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(args.runner.benchmarks.len(), Benchmark::ALL.len());
        assert_eq!(args.only, None);
        assert_eq!(args.runner.jobs, 0);
        assert_eq!(args.out, None);
        assert_eq!(args.runner.cache_dir, None);
        assert_eq!(args.runner.trace_out, None);
        assert_eq!(args.runner.fault_plan, None);
        assert!(!args.runner.durable_cache);
    }

    #[test]
    fn list_short_circuits() {
        assert_eq!(
            parse_reproduce_args(&strs(&["--list"])),
            Ok(ReproduceCommand::List)
        );
        // --list wins even with other flags present before it.
        assert_eq!(
            parse_reproduce_args(&strs(&["--jobs", "2", "--list"])),
            Ok(ReproduceCommand::List)
        );
    }

    #[test]
    fn help_is_not_an_error() {
        assert_eq!(
            parse_reproduce_args(&strs(&["--help"])),
            Ok(ReproduceCommand::Help)
        );
        assert_eq!(
            parse_reproduce_args(&strs(&["-h"])),
            Ok(ReproduceCommand::Help)
        );
    }

    #[test]
    fn full_flag_set_parses() {
        let cmd = parse_reproduce_args(&strs(&[
            "--scale",
            "tiny",
            "--benchmarks",
            "compress,swim",
            "--only",
            "fig1,table4",
            "--out",
            "/tmp/x",
            "--jobs",
            "3",
            "--cache-dir",
            "/tmp/x/cache",
            "--trace-out",
            "/tmp/x/trace.jsonl",
            "--fault-plan",
            "seed=7;disk_write=nth:1",
            "--durable-cache",
        ]))
        .unwrap();
        let ReproduceCommand::Run(args) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(args.runner.params, SuiteParams::tiny());
        assert_eq!(
            args.runner.benchmarks,
            vec![Benchmark::Compress, Benchmark::Swim]
        );
        assert_eq!(
            args.only,
            Some(vec!["fig1".to_string(), "table4".to_string()])
        );
        assert_eq!(args.out, Some(PathBuf::from("/tmp/x")));
        assert_eq!(args.runner.jobs, 3);
        assert_eq!(args.runner.cache_dir, Some(PathBuf::from("/tmp/x/cache")));
        assert_eq!(
            args.runner.trace_out,
            Some(PathBuf::from("/tmp/x/trace.jsonl"))
        );
        assert_eq!(
            args.runner.fault_plan.as_deref(),
            Some("seed=7;disk_write=nth:1")
        );
        assert!(args.runner.durable_cache);
    }

    #[test]
    fn fault_plan_is_validated_at_parse_time() {
        let err = parse_reproduce_args(&strs(&["--fault-plan", "nosuch_site=nth:1"])).unwrap_err();
        assert!(err.contains("nosuch_site"), "{err}");
        let err = parse_serve_args(&strs(&[
            "--socket",
            "/tmp/s",
            "--fault-plan",
            "disk_read=often",
        ]))
        .unwrap_err();
        assert!(err.contains("often"), "{err}");
    }

    #[test]
    fn effective_fault_plan_prefers_the_flag() {
        // Flag given: parsed, armed.
        let plan = effective_fault_plan(Some("worker_panic=nth:2")).unwrap();
        assert!(plan.is_armed());
        // No flag, no env (the test env never sets MDS_FAULT_PLAN):
        // unarmed.
        assert!(!effective_fault_plan(None).unwrap().is_armed());
        // A bad flag spec errors.
        assert!(effective_fault_plan(Some("disk_read")).is_err());
        // Blank means unarmed, not an error.
        assert!(!effective_fault_plan(Some("  ")).unwrap().is_armed());
    }

    #[test]
    fn serve_args_parse_and_require_a_socket() {
        let cmd = parse_serve_args(&strs(&[
            "--socket",
            "/tmp/mds.sock",
            "--scale",
            "tiny",
            "--benchmarks",
            "compress,swim",
            "--jobs",
            "2",
            "--cache-dir",
            "/tmp/cache",
        ]))
        .unwrap();
        let ServeCommand::Run(args) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(args.socket, PathBuf::from("/tmp/mds.sock"));
        assert_eq!(args.runner.params, SuiteParams::tiny());
        assert_eq!(
            args.runner.benchmarks,
            vec![Benchmark::Compress, Benchmark::Swim]
        );
        assert_eq!(args.runner.jobs, 2);
        assert_eq!(args.runner.cache_dir, Some(PathBuf::from("/tmp/cache")));
        assert_eq!(args.runner.trace_out, None);
        assert_eq!(args.read_timeout_ms, DEFAULT_READ_TIMEOUT_MS);
        assert_eq!(args.write_timeout_ms, DEFAULT_WRITE_TIMEOUT_MS);
        assert_eq!(args.max_connections, DEFAULT_MAX_CONNECTIONS);
        assert_eq!(args.runner.fault_plan, None);
        assert!(!args.runner.durable_cache);

        let cmd = parse_serve_args(&strs(&[
            "--socket",
            "/tmp/mds.sock",
            "--read-timeout-ms",
            "250",
            "--write-timeout-ms",
            "0",
            "--max-connections",
            "2",
            "--fault-plan",
            "conn_drop=nth:1",
            "--durable-cache",
        ]))
        .unwrap();
        let ServeCommand::Run(args) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(args.read_timeout_ms, 250);
        assert_eq!(args.write_timeout_ms, 0);
        assert_eq!(args.max_connections, 2);
        assert_eq!(args.runner.fault_plan.as_deref(), Some("conn_drop=nth:1"));
        assert!(args.runner.durable_cache);

        let err = parse_serve_args(&strs(&["--scale", "tiny"])).unwrap_err();
        assert!(err.contains("--socket is required"), "{err}");
        assert_eq!(parse_serve_args(&strs(&["--help"])), Ok(ServeCommand::Help));
        assert!(parse_serve_args(&strs(&["--frobnicate"])).is_err());
        let err = parse_serve_args(&strs(&["--socket", "/s", "--trace-every", "64"])).unwrap_err();
        assert!(err.starts_with("unknown argument --trace-every"), "{err}");
    }

    #[test]
    fn unknown_experiment_errors() {
        let err = parse_reproduce_args(&strs(&["--only", "fig11"])).unwrap_err();
        assert!(err.contains("unknown experiment fig11"), "{err}");
        assert!(err.contains("fig1"), "should list valid names: {err}");
    }

    #[test]
    fn unknown_flag_and_missing_value_error() {
        assert!(parse_reproduce_args(&strs(&["--frobnicate"])).is_err());
        let err = parse_reproduce_args(&strs(&["--trace-every", "64"])).unwrap_err();
        assert!(err.starts_with("unknown argument --trace-every"), "{err}");
        assert!(parse_reproduce_args(&strs(&["--scale"])).is_err());
        assert!(parse_reproduce_args(&strs(&["--scale", "huge"])).is_err());
        assert!(parse_reproduce_args(&strs(&["--jobs", "many"])).is_err());
        assert!(parse_reproduce_args(&strs(&["--trace-out"])).is_err());
    }

    #[test]
    fn exact_benchmark_names_win_over_substrings() {
        // "gcc" is the short form of 126.gcc; also a substring of it only.
        assert_eq!(resolve_benchmark("gcc"), Ok(Benchmark::Gcc));
        assert_eq!(resolve_benchmark("126.gcc"), Ok(Benchmark::Gcc));
        // "su2cor" is exact-short for 103.su2cor.
        assert_eq!(resolve_benchmark("su2cor"), Ok(Benchmark::Su2cor));
    }

    #[test]
    fn unique_substring_resolves() {
        assert_eq!(resolve_benchmark("compr"), Ok(Benchmark::Compress));
        assert_eq!(resolve_benchmark("wave"), Ok(Benchmark::Wave5));
    }

    #[test]
    fn ambiguous_substring_errors_with_candidates() {
        // "im" hits 124.m88ksim and 102.swim.
        let err = resolve_benchmark("im").unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
        assert!(
            err.contains("124.m88ksim") && err.contains("102.swim"),
            "{err}"
        );
        assert!(resolve_benchmark("nosuch")
            .unwrap_err()
            .contains("unknown benchmark"));
    }

    #[test]
    fn experiment_list_matches_known_names() {
        validate_experiments(&strs(&["table1", "stability", "ablations", "cpistack"])).unwrap();
        assert!(validate_experiments(&strs(&["fig8"])).is_err());
    }
}
