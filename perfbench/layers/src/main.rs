//! Traced layer run: calls each `mds` layer's public entry points from
//! outside the program and records a span around every call.
//!
//! ```text
//! perfbench-layers --seed N --work DIR [--jobs J] [--spans FILE.jsonl]
//! ```
//!
//! One pass generates the seeded bench-scale suite (`Benchmark::trace`),
//! builds each trace's artifacts (`TraceArtifacts::build`), simulates
//! every policy on every benchmark (`Simulator::run_with_artifacts`),
//! runs a cold and then a disk-warm sweep through the runner
//! (`Runner::run_pairs`), and serves cold and repeated single-pair
//! requests through the service protocol (`SweepService::handle_line`).
//! Work is spread over `J` threads (default: available parallelism).
//!
//! Without `--spans` the pass records nothing. With it, spans (name,
//! label, start, end, parent, thread, exact work fields) are kept in
//! memory and written as JSONL when the pass ends. Either way the last
//! stdout line is a JSON object with the pass's wall time and its exact
//! work counters, which must repeat between passes of one seed.

use mds_core::{CoreConfig, Policy, Simulator, TraceArtifacts};
use mds_harness::{Runner, Suite, SweepService};
use mds_workloads::{Benchmark, SuiteParams};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The nine policies of the sweep: the paper's eight plus store sets.
const POLICIES: [Policy; 9] = [
    Policy::NasNo,
    Policy::NasNaive,
    Policy::NasSelective,
    Policy::NasStoreBarrier,
    Policy::NasSync,
    Policy::NasStoreSets,
    Policy::NasOracle,
    Policy::AsNo,
    Policy::AsNaive,
];

/// Benchmarks behind the runner and service phases (two int, two fp).
const SMALL_SET: [Benchmark; 4] = [
    Benchmark::Compress,
    Benchmark::Gcc,
    Benchmark::Swim,
    Benchmark::Applu,
];

/// Hit requests per cold pair in the service phase.
const SERVE_REPEATS: usize = 20;

/// One recorded span.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    label: String,
    start_ns: u64,
    end_ns: u64,
    thread: usize,
    fields: Vec<(&'static str, u64)>,
}

/// In-memory span store; disabled, it only runs the closures.
struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` gets the
    /// span's id (for children) and returns its result plus the exact
    /// work fields to attach.
    fn span<R>(
        &self,
        name: &'static str,
        label: &str,
        parent: u64,
        thread: usize,
        f: impl FnOnce(u64) -> (R, Vec<(&'static str, u64)>),
    ) -> R {
        if !self.enabled {
            return f(0).0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let (result, fields) = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name,
            label: label.to_string(),
            start_ns,
            end_ns,
            thread,
            fields,
        });
        result
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let fields: Vec<String> = s
                .fields
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"thread\":{},\"fields\":{{{}}}}}",
                s.id,
                s.parent,
                s.name,
                s.label,
                s.start_ns,
                s.end_ns,
                s.thread,
                fields.join(",")
            )?;
        }
        out.flush()
    }
}

/// Runs `work(i, thread)` for every `i < n` on `jobs` threads pulling
/// from a shared counter; results come back in index order.
fn parallel<R: Send>(n: usize, jobs: usize, work: impl Fn(usize, usize) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for thread in 0..jobs.min(n).max(1) {
            let (next, slots, work) = (&next, &slots, &work);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = work(i, thread);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every index ran")
        })
        .collect()
}

/// Exact work the pass performed; must repeat between passes.
#[derive(Default)]
struct Work {
    generated: u64,
    committed: u64,
    cycles: u64,
    skipped: u64,
    squashed: u64,
    runner_pairs: u64,
    serve_requests: u64,
    serve_not_ok: u64,
    serve_mismatches: u64,
}

fn request_line(benchmark: Benchmark, policy: Policy) -> String {
    format!(
        "{{\"op\":\"sweep\",\"benchmarks\":[\"{}\"],\"configs\":[{{\"policy\":\"{}\"}}]}}",
        benchmark.name(),
        policy.paper_name()
    )
}

fn pass(seed: u64, jobs: usize, work_dir: &Path, tracer: &Tracer) -> Result<Work, String> {
    let bench = SuiteParams {
        seed,
        ..SuiteParams::bench()
    };
    let test = SuiteParams {
        seed,
        ..SuiteParams::test()
    };
    let mut work = Work::default();
    tracer.span("ledger", "", 0, 0, |root| {
        let body = ledger(root, &bench, &test, jobs, work_dir, tracer, &mut work);
        (body, vec![])
    })?;
    Ok(work)
}

#[allow(clippy::too_many_arguments)]
fn ledger(
    root: u64,
    bench: &SuiteParams,
    test: &SuiteParams,
    jobs: usize,
    work_dir: &Path,
    tracer: &Tracer,
    work: &mut Work,
) -> Result<(), String> {
    // gen: the interpreter runs every benchmark's program.
    let traces = tracer.span("gen", "", root, 0, |phase| {
        let traces = parallel(Benchmark::ALL.len(), jobs, |i, thread| {
            let b = Benchmark::ALL[i];
            tracer.span("Benchmark::trace", b.name(), phase, thread, |_| {
                let trace = b.trace(bench);
                let len = trace.as_ref().map_or(0, |t| t.len() as u64);
                (trace, vec![("insts", len)])
            })
        });
        (traces, vec![])
    });
    let traces = traces
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("trace generation failed: {e}"))?;
    work.generated = traces.iter().map(|t| t.len() as u64).sum();

    // prep: dependence artifacts, once per trace.
    let artifacts = tracer.span("prep", "", root, 0, |phase| {
        let artifacts = parallel(traces.len(), jobs, |i, thread| {
            let label = Benchmark::ALL[i].name();
            tracer.span("TraceArtifacts::build", label, phase, thread, |_| {
                (
                    TraceArtifacts::build(&traces[i]),
                    vec![("insts", traces[i].len() as u64)],
                )
            })
        });
        (artifacts, vec![])
    });

    // sim: every policy on every benchmark, paper 128-entry machine.
    let runs = POLICIES.len() * traces.len();
    let results = tracer.span("sim", "", root, 0, |phase| {
        let results = parallel(runs, jobs, |i, thread| {
            let (p, b) = (i / traces.len(), i % traces.len());
            let policy = POLICIES[p];
            let label = format!("{}|{}", policy.paper_name(), Benchmark::ALL[b].name());
            let sim = Simulator::new(CoreConfig::paper_128().with_policy(policy));
            tracer.span(
                "Simulator::run_with_artifacts",
                &label,
                phase,
                thread,
                |_| {
                    let r = sim.run_with_artifacts(&traces[b], &artifacts[b]);
                    let fields = vec![
                        ("committed", r.stats.committed),
                        ("cycles", r.stats.cycles),
                        ("skipped", r.skipped_cycles),
                        ("squashed", r.stats.squashed),
                    ];
                    (r, fields)
                },
            )
        });
        (results, vec![])
    });
    for r in &results {
        work.committed += r.stats.committed;
        work.cycles += r.stats.cycles;
        work.skipped += r.skipped_cycles;
        work.squashed += r.stats.squashed;
    }

    // runner + disk: a cold sweep that fills a fresh disk cache, then
    // the same sweep on a fresh runner that must load every result.
    let cache_dir = work_dir.join("disk-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let pairs: Vec<(Benchmark, CoreConfig)> = POLICIES
        .iter()
        .flat_map(|&p| {
            SMALL_SET.map(|b| {
                (
                    b,
                    CoreConfig::paper_128().with_window_size(64).with_policy(p),
                )
            })
        })
        .collect();
    work.runner_pairs = pairs.len() as u64;
    let sweep = |phase: u64, label: &str| -> Result<Vec<(u64, u64)>, String> {
        let suite = Suite::generate(&SMALL_SET, bench)
            .map_err(|e| format!("suite generation failed: {e}"))?;
        let runner = Runner::new(suite)
            .with_jobs(jobs)
            .with_cache_dir(&cache_dir);
        let rows = tracer.span("Runner::run_pairs", label, phase, 0, |_| {
            (
                runner.run_pairs(&pairs),
                vec![("pairs", pairs.len() as u64)],
            )
        })?;
        Ok(rows
            .iter()
            .map(|r| (r.stats.committed, r.stats.cycles))
            .collect())
    };
    let (cold, warm) = tracer.span("runner", "", root, 0, |phase| {
        ((sweep(phase, "cold"), sweep(phase, "warm")), vec![])
    });
    if cold? != warm? {
        return Err("disk-warm sweep differs from cold sweep".to_string());
    }

    // serve: each thread owns distinct pairs, sends one cold request
    // per pair, then repeats it; repeats must match byte for byte.
    let suite =
        Suite::generate(&SMALL_SET, test).map_err(|e| format!("suite generation failed: {e}"))?;
    let service = SweepService::new(Runner::new(suite).with_jobs(jobs));
    let lines: Vec<String> = POLICIES
        .iter()
        .flat_map(|&p| SMALL_SET.map(|b| request_line(b, p)))
        .collect();
    let outcomes = tracer.span("serve", "", root, 0, |phase| {
        let outcomes = parallel(lines.len(), jobs, |i, thread| {
            let mut not_ok = 0;
            let mut mismatches = 0;
            let handle = |label: &str| {
                tracer.span("SweepService::handle_line", label, phase, thread, |_| {
                    (service.handle_line(&lines[i]).0, vec![])
                })
            };
            let first = handle("cold");
            not_ok += u64::from(!first.starts_with("{\"ok\":true"));
            for _ in 0..SERVE_REPEATS {
                mismatches += u64::from(handle("hit") != first);
            }
            (not_ok, mismatches)
        });
        (outcomes, vec![])
    });
    work.serve_requests = (lines.len() * (1 + SERVE_REPEATS)) as u64;
    for (not_ok, mismatches) in outcomes {
        work.serve_not_ok += not_ok;
        work.serve_mismatches += mismatches;
    }
    Ok(())
}

struct Args {
    seed: u64,
    jobs: usize,
    work: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        jobs: std::thread::available_parallelism().map_or(1, usize::from),
        work: PathBuf::new(),
        spans: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--seed" => args.seed = number()?,
            "--jobs" => args.jobs = number()?.max(1) as usize,
            "--work" => args.work = PathBuf::from(value),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.work.as_os_str().is_empty() {
        return Err("--work is required".to_string());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let tracer = Tracer::new(args.spans.is_some());
    let start = Instant::now();
    let work = pass(args.seed, args.jobs, &args.work, &tracer)?;
    let wall = start.elapsed();
    if let Some(path) = &args.spans {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(format!(
        "{{\"wall_ns\":{},\"jobs\":{},\"generated\":{},\"committed\":{},\"cycles\":{},\
         \"skipped\":{},\"squashed\":{},\"runner_pairs\":{},\"serve_requests\":{},\
         \"serve_not_ok\":{},\"serve_mismatches\":{}}}",
        wall.as_nanos(),
        args.jobs,
        work.generated,
        work.committed,
        work.cycles,
        work.skipped,
        work.squashed,
        work.runner_pairs,
        work.serve_requests,
        work.serve_not_ok,
        work.serve_mismatches
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-layers: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-layers: {e}");
            ExitCode::FAILURE
        }
    }
}
