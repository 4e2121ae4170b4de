//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! reproduce [--scale tiny|test|bench] [--benchmarks a,b,c]
//!           [--only exp1,exp2] [--out DIR] [--jobs N] [--cache-dir DIR]
//!           [--trace-out FILE.jsonl] [--trace-every N] [--list]
//! ```
//!
//! Experiments: `table1 table2 fig1 table3 fig2 fig3 fig4 fig5 fig6
//! table4 fig7 summary cpistack ablations stability` (`--list` prints
//! them one per line).
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
//! the cache counters (written atomically: temp file + rename).
//!
//! With `--trace-out`, a structured JSONL event trace is appended as
//! the run progresses: `run_start`/`run_finish`, per-experiment
//! `experiment_start`/`experiment_finish`, one `sim` record per
//! simulation (wall time, cycles, IPC), `cache_hit` records, and —
//! with a non-zero `--trace-every N` stride — sampled per-instruction
//! `pipe` pipeline events. Tracing never changes the rendered tables.

use mds_core::CoreConfig;
use mds_harness::cli::{
    parse_reproduce_args, ReproduceArgs, ReproduceCommand, EXPERIMENTS, REPRODUCE_USAGE,
};
use mds_harness::{emit, experiments, Runner, Suite, TraceSink};
use serde::{Serialize, Value};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_reproduce_args(&argv) {
        Ok(ReproduceCommand::Run(args)) => args,
        Ok(ReproduceCommand::Help) => {
            println!("{REPRODUCE_USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(ReproduceCommand::List) => {
            for name in EXPERIMENTS {
                println!("{name}");
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

    eprintln!(
        "generating {} benchmark traces (~{} dynamic instructions each)...",
        args.benchmarks.len(),
        args.params.dyn_target
    );
    let trace_start = Instant::now();
    let suite = Suite::generate(&args.benchmarks, &args.params)
        .map_err(|e| format!("workload generation failed: {e}"))?;
    let trace_seconds = trace_start.elapsed().as_secs_f64();

    let mut runner = Runner::new(suite).with_jobs(args.jobs);
    let faults = mds_harness::cli::effective_fault_plan(args.fault_plan.as_deref())?;
    if faults.is_armed() {
        eprintln!("fault injection armed");
        runner = runner.with_faults(faults);
    }
    if args.durable_cache {
        runner = runner.with_durable_cache();
    }
    if let Some(dir) = &args.cache_dir {
        eprintln!("persistent result cache at {}...", dir.display());
        runner = runner.with_cache_dir(dir);
    }
    if let Some(path) = &args.trace_out {
        let sink = TraceSink::create(path, args.trace_every)
            .map_err(|e| format!("cannot create trace {}: {e}", path.display()))?;
        eprintln!(
            "tracing to {} (pipeline events every {} instructions)...",
            path.display(),
            args.trace_every
        );
        runner = runner.with_trace(sink);
    }
    eprintln!(
        "simulating on {} worker thread(s), memoizing shared configs...",
        runner.jobs()
    );
    runner.trace_event(
        "run_start",
        &[
            ("benchmarks", Value::UInt(args.benchmarks.len() as u64)),
            ("dyn_target", Value::UInt(args.params.dyn_target)),
            ("jobs", Value::UInt(runner.jobs() as u64)),
            ("trace_seconds", Value::Float(trace_seconds)),
        ],
    );

    let mut r = Reproduce {
        args,
        runner,
        timings: Vec::new(),
    };
    r.timed("table1", |run| {
        let rep = experiments::table1::run(run);
        (rep.render(), Some(rep.to_value()))
    })?;
    r.timed("table2", |_| {
        (experiments::table2::render(&CoreConfig::paper_128()), None)
    })?;
    r.timed("fig1", |run| {
        let rep = experiments::fig1::run(run);
        (rep.render(), Some(rep.to_value()))
    })?;
    r.timed("table3", |run| {
        let rep = experiments::table3::run(run);
        (rep.render(), Some(rep.to_value()))
    })?;
    r.timed("fig2", |run| {
        let rep = experiments::fig2::run(run);
        (rep.render(), Some(rep.to_value()))
    })?;
    r.timed("fig3", |run| {
        let rep = experiments::fig3::run(run);
        (rep.render(), Some(rep.to_value()))
    })?;
    r.timed("fig4", |run| {
        let rep = experiments::fig4::run(run);
        (rep.render(), Some(rep.to_value()))
    })?;
    r.timed("fig5", |run| {
        let rep = experiments::fig5::run(run);
        (rep.render(), Some(rep.to_value()))
    })?;
    r.timed("fig6", |run| {
        let rep = experiments::fig6::run(run);
        (rep.render(), Some(rep.to_value()))
    })?;
    r.timed("table4", |run| {
        let rep = experiments::table4::run(run);
        (rep.render(), Some(rep.to_value()))
    })?;
    r.timed("fig7", |run| {
        let rep = experiments::fig7::run(run);
        (rep.render(), Some(rep.to_value()))
    })?;
    r.timed("summary", |run| {
        let rep = experiments::summary::run(run);
        (rep.render(), Some(rep.to_value()))
    })?;
    r.timed("cpistack", |run| {
        let rep = experiments::cpistack::run(run);
        (rep.render(), Some(rep.to_value()))
    })?;
    r.ablations()?;
    r.stability()?;

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
    r.runner.trace_event(
        "run_finish",
        &[
            ("simulations", Value::UInt(stats.simulations)),
            ("cache_hits", Value::UInt(stats.cache_hits)),
            ("disk_hits", Value::UInt(stats.disk_hits)),
            ("disk_writes", Value::UInt(stats.disk_writes)),
            ("skipped_cycles", Value::UInt(stats.skipped_cycles)),
            ("simulation_seconds", Value::Float(stats.sim_seconds())),
            ("prep_seconds", Value::Float(stats.prep_seconds())),
            ("artifact_builds", Value::UInt(stats.artifact_builds)),
            ("total_seconds", Value::Float(total_seconds)),
        ],
    );
    if let Some(sink) = r.runner.trace() {
        // A trace that failed mid-run is reported, not fatal: the
        // tables and the BENCH record are unaffected by it.
        match sink.flush() {
            Ok(()) => eprintln!("wrote {} trace event(s)", sink.lines()),
            Err(e) => eprintln!("warning: trace incomplete: {e}"),
        }
    }
    r.write_bench_record(trace_seconds, total_seconds)?;
    Ok(())
}

impl Reproduce {
    fn wants(&self, name: &str) -> bool {
        self.args
            .only
            .as_ref()
            .is_none_or(|v| v.iter().any(|x| x == name))
    }

    /// Runs one experiment if requested, timing it and emitting its
    /// artifacts.
    fn timed(
        &mut self,
        name: &str,
        f: impl FnOnce(&Runner) -> (String, Option<Value>),
    ) -> Result<(), String> {
        if !self.wants(name) {
            return Ok(());
        }
        eprintln!("running {name}...");
        self.experiment_event("experiment_start", name, None);
        let start = Instant::now();
        let (text, value) = f(&self.runner);
        let seconds = start.elapsed().as_secs_f64();
        self.timings.push((name.to_string(), seconds));
        self.experiment_event("experiment_finish", name, Some(seconds));
        self.emit(name, &text, value.as_ref())
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
    fn emit(&self, name: &str, text: &str, value: Option<&Value>) -> Result<(), String> {
        println!("{text}");
        let Some(dir) = &self.args.out else {
            return Ok(());
        };
        let write = |path: std::path::PathBuf, content: &str| {
            std::fs::write(&path, content)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        write(dir.join(format!("{name}.txt")), text)?;
        if let Some(value) = value {
            write(dir.join(format!("{name}.json")), &value.to_json())?;
            if let Some(csv) = emit::to_csv(value) {
                write(dir.join(format!("{name}.csv")), &csv)?;
            }
        }
        Ok(())
    }

    /// The six beyond-the-paper sweeps, timed as one experiment.
    fn ablations(&mut self) -> Result<(), String> {
        if !self.wants("ablations") {
            return Ok(());
        }
        eprintln!("running ablations...");
        self.experiment_event("experiment_start", "ablations", None);
        let start = Instant::now();
        let runner = &self.runner;
        let artifacts = [
            {
                let rep = experiments::ablation::predictor_size(runner, &[256, 1024, 4096, 16384]);
                ("ablation_predictor_size", rep.render(), rep.to_value())
            },
            {
                let rep = experiments::ablation::flush_interval(
                    runner,
                    &[Some(100_000), Some(1_000_000), None],
                );
                ("ablation_flush_interval", rep.render(), rep.to_value())
            },
            {
                let rep = experiments::ablation::store_sets(runner);
                ("ablation_store_sets", rep.render(), rep.to_value())
            },
            {
                let rep = experiments::ablation::recovery(runner);
                ("ablation_recovery", rep.render(), rep.to_value())
            },
            {
                let rep = experiments::ablation::branch_predictors(runner);
                ("ablation_branch_predictors", rep.render(), rep.to_value())
            },
            {
                let rep = experiments::ablation::window_sweep(runner, &[32, 64, 128, 256]);
                ("ablation_window_sweep", rep.render(), rep.to_value())
            },
        ];
        let seconds = start.elapsed().as_secs_f64();
        self.timings.push(("ablations".to_string(), seconds));
        self.experiment_event("experiment_finish", "ablations", Some(seconds));
        for (name, text, value) in &artifacts {
            self.emit(name, text, Some(value))?;
        }
        Ok(())
    }

    /// The per-seed stability rerun; a failure here fails the run.
    fn stability(&mut self) -> Result<(), String> {
        if !self.wants("stability") {
            return Ok(());
        }
        eprintln!("running stability...");
        self.experiment_event("experiment_start", "stability", None);
        let start = Instant::now();
        let rep = experiments::stability::run(
            &self.args.benchmarks,
            &self.args.params,
            &[self.args.params.seed, 0x1234, 0xDEAD_BEEF],
            self.args.jobs,
            self.args.cache_dir.as_deref(),
        )
        .map_err(|e| format!("stability experiment failed: {e}"))?;
        let seconds = start.elapsed().as_secs_f64();
        self.timings.push(("stability".to_string(), seconds));
        self.experiment_event("experiment_finish", "stability", Some(seconds));
        self.emit("stability", &rep.render(), Some(&rep.to_value()))
    }

    /// Writes `BENCH_reproduce.json` (into `--out` when given, else the
    /// working directory) with per-experiment timings and cache stats.
    fn write_bench_record(&self, trace_seconds: f64, total_seconds: f64) -> Result<(), String> {
        let stats = self.runner.stats();
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
        let record = Value::Object(vec![
            (
                "benchmarks".to_string(),
                Value::UInt(self.args.benchmarks.len() as u64),
            ),
            (
                "dyn_target".to_string(),
                Value::UInt(self.args.params.dyn_target),
            ),
            ("jobs".to_string(), Value::UInt(self.runner.jobs() as u64)),
            (
                "trace_generation_seconds".to_string(),
                Value::Float(trace_seconds),
            ),
            ("total_seconds".to_string(), Value::Float(total_seconds)),
            ("simulations".to_string(), Value::UInt(stats.simulations)),
            ("cache_hits".to_string(), Value::UInt(stats.cache_hits)),
            ("cache_hit_rate".to_string(), Value::Float(stats.hit_rate())),
            ("disk_hits".to_string(), Value::UInt(stats.disk_hits)),
            ("disk_writes".to_string(), Value::UInt(stats.disk_writes)),
            (
                "skipped_cycles".to_string(),
                Value::UInt(stats.skipped_cycles),
            ),
            (
                "simulation_seconds".to_string(),
                Value::Float(stats.sim_seconds()),
            ),
            (
                "prep_seconds".to_string(),
                Value::Float(stats.prep_seconds()),
            ),
            (
                "artifact_builds".to_string(),
                Value::UInt(stats.artifact_builds),
            ),
            (
                "disk_read_errors".to_string(),
                Value::UInt(stats.disk_read_errors),
            ),
            (
                "disk_write_errors".to_string(),
                Value::UInt(stats.disk_write_errors),
            ),
            (
                "orphans_removed".to_string(),
                Value::UInt(stats.orphans_removed),
            ),
            ("job_retries".to_string(), Value::UInt(stats.job_retries)),
            ("job_failures".to_string(), Value::UInt(stats.job_failures)),
            (
                "faults_injected".to_string(),
                Value::UInt(stats.faults_injected),
            ),
            ("experiments".to_string(), Value::Array(experiments)),
        ]);
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
