//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! reproduce [--scale tiny|test|bench] [--benchmarks a,b,c]
//!           [--only exp1,exp2] [--out DIR] [--jobs N] [--cache-dir DIR]
//!           [--trace-out FILE.jsonl] [--list]
//! ```
//!
//! Experiments run in the order of
//! [`mds_harness::experiments::EXPERIMENTS`] (`--list` prints their
//! names one per line).
//!
//! Simulations run on a work-stealing thread pool (`--jobs`, default
//! [`std::thread::available_parallelism`]) and are memoized across
//! experiments, so configurations shared between figures are simulated
//! once. With `--cache-dir DIR`, results also persist to a
//! content-addressed on-disk store keyed by (trace fingerprint, config,
//! schema version): a rerun with the same suite parameters replays
//! entirely from disk, simulating nothing. With `--out DIR`, every report is written as rendered text
//! (`.txt`), serialized JSON (`.json`), and tabular CSV (`.csv`), and a
//! `BENCH_reproduce.json` records per-experiment wall-clock timings and
//! every runner counter (written atomically: temp file + rename).
//!
//! With `--trace-out`, a structured JSONL event trace is appended as
//! the run progresses: `run_start`/`run_finish`, per-experiment
//! `experiment_start`/`experiment_finish`, one `sim` record per
//! simulation (wall time, cycles, IPC), `cache_hit` records, and the
//! `span` records of every executed job. Tracing never changes the
//! rendered tables.

use mds_harness::cli::{parse_reproduce_args, reproduce_usage, ReproduceArgs, ReproduceCommand};
use mds_harness::experiments::{Artifact, Experiment, EXPERIMENTS};
use mds_harness::{emit, Runner, RunnerStats, Suite};
use serde::Value;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_reproduce_args(&argv) {
        Ok(ReproduceCommand::Run(args)) => args,
        Ok(ReproduceCommand::Help) => {
            println!("{}", reproduce_usage());
            return ExitCode::SUCCESS;
        }
        Ok(ReproduceCommand::List) => {
            for experiment in &EXPERIMENTS {
                println!("{}", experiment.name);
            }
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match reproduce(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// One run: generate traces, drive every requested experiment through a
/// shared [`Runner`], and record timings.
struct Reproduce {
    args: ReproduceArgs,
    runner: Runner,
    /// Per-experiment `(name, wall-clock seconds)`, in run order.
    timings: Vec<(String, f64)>,
}

fn reproduce(args: ReproduceArgs) -> Result<(), String> {
    let total_start = Instant::now();
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }

    let (benchmarks, params) = (&args.runner.benchmarks, &args.runner.params);
    eprintln!(
        "generating {} benchmark traces (~{} dynamic instructions each)...",
        benchmarks.len(),
        params.dyn_target
    );
    let trace_start = Instant::now();
    let suite = Suite::generate(benchmarks, params)
        .map_err(|e| format!("workload generation failed: {e}"))?;
    let trace_seconds = trace_start.elapsed().as_secs_f64();

    let runner = args.runner.runner(suite)?;
    eprintln!(
        "simulating on {} worker thread(s), memoizing shared configs...",
        runner.jobs()
    );
    runner.trace_event(
        "run_start",
        &[
            ("benchmarks", Value::UInt(benchmarks.len() as u64)),
            ("dyn_target", Value::UInt(params.dyn_target)),
            ("jobs", Value::UInt(runner.jobs() as u64)),
            ("trace_seconds", Value::Float(trace_seconds)),
        ],
    );

    let mut r = Reproduce {
        args,
        runner,
        timings: Vec::new(),
    };
    for experiment in &EXPERIMENTS {
        if r.wants(experiment.name) {
            r.timed(experiment)?;
        }
    }

    let stats = r.runner.stats();
    let total_seconds = total_start.elapsed().as_secs_f64();
    eprintln!(
        "done: {} simulations run, {} requests served from cache ({} from disk, \
         {:.0}% hit rate); {:.2}s simulating across {} thread(s), {:.2}s preparing \
         {} artifact bundle(s), {:.2}s total",
        stats.simulations,
        stats.cache_hits,
        stats.disk_hits,
        100.0 * stats.hit_rate(),
        stats.sim_seconds(),
        r.runner.jobs(),
        stats.prep_seconds(),
        stats.artifact_builds,
        total_seconds,
    );
    let mut finish = stats.to_record();
    finish.push(("total_seconds".to_string(), Value::Float(total_seconds)));
    let finish: Vec<(&str, Value)> = finish
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    r.runner.trace_event("run_finish", &finish);
    if let Some(sink) = r.runner.trace() {
        // A trace that failed mid-run is reported, not fatal: the
        // tables and the BENCH record are unaffected by it.
        match sink.flush() {
            Ok(()) => eprintln!("wrote {} trace event(s)", sink.lines()),
            Err(e) => eprintln!("warning: trace incomplete: {e}"),
        }
    }
    r.write_bench_record(&stats, trace_seconds, total_seconds)?;
    Ok(())
}

impl Reproduce {
    fn wants(&self, name: &str) -> bool {
        self.args
            .only
            .as_ref()
            .is_none_or(|v| v.iter().any(|x| x == name))
    }

    /// Runs one experiment, timing it and emitting its artifacts.
    fn timed(&mut self, experiment: &Experiment) -> Result<(), String> {
        let name = experiment.name;
        eprintln!("running {name}...");
        self.experiment_event("experiment_start", name, None);
        let start = Instant::now();
        let artifacts = (experiment.run)(&self.runner)?;
        let seconds = start.elapsed().as_secs_f64();
        self.timings.push((name.to_string(), seconds));
        self.experiment_event("experiment_finish", name, Some(seconds));
        artifacts.iter().try_for_each(|a| self.emit(a))
    }

    /// Emits an experiment lifecycle record to the trace, if tracing.
    fn experiment_event(&self, event: &str, name: &str, seconds: Option<f64>) {
        let mut fields = vec![("name", Value::Str(name.to_string()))];
        if let Some(s) = seconds {
            fields.push(("seconds", Value::Float(s)));
        }
        self.runner.trace_event(event, &fields);
    }

    /// Prints one artifact and, with `--out`, writes its `.txt`,
    /// `.json`, and `.csv` forms.
    fn emit(&self, artifact: &Artifact) -> Result<(), String> {
        println!("{}", artifact.text);
        let Some(dir) = &self.args.out else {
            return Ok(());
        };
        let write = |path: std::path::PathBuf, content: &str| {
            std::fs::write(&path, content)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        let stem = artifact.stem;
        write(dir.join(format!("{stem}.txt")), &artifact.text)?;
        if let Some(value) = &artifact.value {
            write(dir.join(format!("{stem}.json")), &value.to_json())?;
            if let Some(csv) = emit::to_csv(value) {
                write(dir.join(format!("{stem}.csv")), &csv)?;
            }
        }
        Ok(())
    }

    /// Writes `BENCH_reproduce.json` (into `--out` when given, else the
    /// working directory) with per-experiment timings and `stats`, the
    /// same snapshot the `run_finish` event carries.
    fn write_bench_record(
        &self,
        stats: &RunnerStats,
        trace_seconds: f64,
        total_seconds: f64,
    ) -> Result<(), String> {
        let experiments: Vec<Value> = self
            .timings
            .iter()
            .map(|(name, seconds)| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(name.clone())),
                    ("seconds".to_string(), Value::Float(*seconds)),
                ])
            })
            .collect();
        let mut record = vec![
            (
                "benchmarks".to_string(),
                Value::UInt(self.args.runner.benchmarks.len() as u64),
            ),
            (
                "dyn_target".to_string(),
                Value::UInt(self.args.runner.params.dyn_target),
            ),
            ("jobs".to_string(), Value::UInt(self.runner.jobs() as u64)),
            (
                "trace_generation_seconds".to_string(),
                Value::Float(trace_seconds),
            ),
            ("total_seconds".to_string(), Value::Float(total_seconds)),
        ];
        record.extend(stats.to_record());
        record.push(("experiments".to_string(), Value::Array(experiments)));
        let record = Value::Object(record);
        let path = match &self.args.out {
            Some(dir) => dir.join("BENCH_reproduce.json"),
            None => std::path::PathBuf::from("BENCH_reproduce.json"),
        };
        // Atomic so a killed run (or a concurrent artifact collector)
        // never leaves a truncated record behind.
        emit::write_atomic(&path, &record.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}
