//! Closed-loop Zipf load generator for `mds-serve`.
//!
//! ```text
//! perfbench-load --socket PATH --seed N --connections C [--pings K]
//! ```
//!
//! The pair universe is every policy × window size × benchmark. It is
//! dealt to the `C` connections by index (pair `i` belongs to connection
//! `i % C`), so no two connections ever ask for the same pair: the
//! service's cold-pair and dedup counts then repeat exactly from run to
//! run. Each connection requests every pair it owns once, plus
//! `REPEAT - 1` times as many draws from a seeded Zipf distribution over
//! the same pairs, in a seeded shuffled order, so one request in `REPEAT`
//! is cold. Each connection sends its next request only after the
//! previous reply line arrived (a closed loop).
//!
//! Before the loop, connection 0 sends `K` pings and a `stats` request;
//! after it, a `stats` and a `metrics` request. The result is one JSON
//! object on stdout: latencies, ping round trips, the first reply line
//! of every pair, the number of repeated pairs whose reply differed from
//! the first, and the raw `stats`/`metrics` reply lines.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const POLICIES: [&str; 9] = [
    "NAS/NO",
    "NAS/NAV",
    "NAS/SEL",
    "NAS/STORE",
    "NAS/SYNC",
    "NAS/SSET",
    "NAS/ORACLE",
    "AS/NO",
    "AS/NAV",
];

const WINDOWS: [u32; 2] = [64, 128];

const BENCHMARKS: [&str; 18] = [
    "099.go",
    "124.m88ksim",
    "126.gcc",
    "129.compress",
    "130.li",
    "132.ijpeg",
    "134.perl",
    "147.vortex",
    "101.tomcatv",
    "102.swim",
    "103.su2cor",
    "104.hydro2d",
    "107.mgrid",
    "110.applu",
    "125.turb3d",
    "141.apsi",
    "145.fpppp",
    "146.wave5",
];

/// Zipf exponent of pair popularity.
const ZIPF_EXPONENT: f64 = 1.0;

/// Requests per owned pair: one cold request and `REPEAT - 1` hits.
const REPEAT: usize = 10;

/// How long one reply may take before the run counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

struct Args {
    socket: String,
    seed: u64,
    connections: usize,
    pings: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        socket: String::new(),
        seed: 1,
        connections: 1,
        pings: 0,
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
            "--socket" => args.socket = value.clone(),
            "--seed" => args.seed = number()?,
            "--connections" => args.connections = number()?.max(1) as usize,
            "--pings" => args.pings = number()? as usize,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.socket.is_empty() {
        return Err("--socket is required".to_string());
    }
    Ok(args)
}

/// splitmix64: a small seeded generator, so the request stream depends
/// only on the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The request line for universe pair `index`.
fn request_line(index: usize) -> String {
    let benchmark = BENCHMARKS[index % BENCHMARKS.len()];
    let rest = index / BENCHMARKS.len();
    let window = WINDOWS[rest % WINDOWS.len()];
    let policy = POLICIES[rest / WINDOWS.len()];
    format!(
        "{{\"op\":\"sweep\",\"benchmarks\":[\"{benchmark}\"],\
         \"configs\":[{{\"policy\":\"{policy}\",\"window_size\":{window}}}]}}\n"
    )
}

/// Connection `conn`'s request stream: indices into the universe.
fn stream(seed: u64, conn: usize, connections: usize) -> Vec<usize> {
    let universe = POLICIES.len() * WINDOWS.len() * BENCHMARKS.len();
    let mut rng = Rng(seed ^ (conn as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut owned: Vec<usize> = (conn..universe).step_by(connections).collect();
    // Popularity rank order is a seeded permutation of the owned pairs.
    rng.shuffle(&mut owned);
    let mut cdf = Vec::with_capacity(owned.len());
    let mut total = 0.0;
    for rank in 1..=owned.len() {
        total += 1.0 / (rank as f64).powf(ZIPF_EXPONENT);
        cdf.push(total);
    }
    let mut requests = owned.clone();
    for _ in 0..owned.len() * (REPEAT - 1) {
        let u = rng.unit() * total;
        let rank = cdf.partition_point(|&c| c < u).min(owned.len() - 1);
        requests.push(owned[rank]);
    }
    rng.shuffle(&mut requests);
    requests
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(path: &str) -> Result<Conn, String> {
        let stream = UnixStream::connect(path).map_err(|e| format!("connect {path}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and returns the reply line without its
    /// newline.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 || !reply.ends_with('\n') {
            return Err("connection closed before a full reply line".to_string());
        }
        reply.pop();
        Ok(reply)
    }
}

/// What one connection's loop observed.
#[derive(Default)]
struct ConnReport {
    latencies_ns: Vec<u64>,
    first_replies: Vec<(usize, String)>,
    mismatches: u64,
    failed: Option<String>,
}

fn drive(mut conn: Conn, requests: &[usize], start: &Barrier) -> ConnReport {
    let mut report = ConnReport::default();
    let mut first: HashMap<usize, String> = HashMap::new();
    start.wait();
    for &index in requests {
        let line = request_line(index);
        let sent = Instant::now();
        let reply = match conn.call(&line) {
            Ok(reply) => reply,
            Err(e) => {
                report.failed = Some(e);
                break;
            }
        };
        report.latencies_ns.push(sent.elapsed().as_nanos() as u64);
        match first.get(&index) {
            Some(seen) if *seen != reply => report.mismatches += 1,
            Some(_) => {}
            None => {
                first.insert(index, reply);
            }
        }
    }
    report.first_replies = first.into_iter().collect();
    report
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_u64s(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn run(args: &Args) -> Result<String, String> {
    let mut control = Conn::open(&args.socket)?;
    let mut ping_ns = Vec::with_capacity(args.pings);
    for _ in 0..args.pings {
        let sent = Instant::now();
        let reply = control.call("{\"op\":\"ping\"}\n")?;
        ping_ns.push(sent.elapsed().as_nanos() as u64);
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("ping failed: {reply}"));
        }
    }
    let stats_before = control.call("{\"op\":\"stats\"}\n")?;

    let streams: Vec<Vec<usize>> = (0..args.connections)
        .map(|c| stream(args.seed, c, args.connections))
        .collect();
    let mut conns = Vec::with_capacity(args.connections);
    for _ in 0..args.connections {
        conns.push(Conn::open(&args.socket)?);
    }
    let start = Arc::new(Barrier::new(args.connections + 1));
    let (reports, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&streams)
            .map(|(conn, requests)| {
                let start = Arc::clone(&start);
                scope.spawn(move || drive(conn, requests, &start))
            })
            .collect();
        start.wait();
        let began = Instant::now();
        let reports: Vec<ConnReport> = handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread panicked"))
            .collect();
        (reports, began.elapsed())
    });
    let stats_after = control.call("{\"op\":\"stats\"}\n")?;
    let metrics = control.call("{\"op\":\"metrics\"}\n")?;

    let mut latencies = Vec::new();
    let mut replies = Vec::new();
    let mut mismatches = 0;
    let mut errors = Vec::new();
    for report in reports {
        latencies.extend(report.latencies_ns);
        mismatches += report.mismatches;
        errors.extend(report.failed);
        for (index, reply) in report.first_replies {
            replies.push(format!(
                "{{\"request\":{},\"reply\":{}}}",
                json_string(request_line(index).trim_end()),
                json_string(&reply)
            ));
        }
    }
    replies.sort();
    let errors: Vec<String> = errors.iter().map(|e| json_string(e)).collect();
    Ok(format!(
        "{{\"wall_ns\":{},\"requests\":{},\"distinct\":{},\"mismatches\":{},\
         \"errors\":[{}],\"latencies_ns\":{},\"ping_ns\":{},\"stats_before\":{},\
         \"stats_after\":{},\"metrics\":{},\"replies\":[{}]}}",
        wall.as_nanos(),
        streams.iter().map(Vec::len).sum::<usize>(),
        replies.len(),
        mismatches,
        errors.join(","),
        json_u64s(&latencies),
        json_u64s(&ping_ns),
        json_string(&stats_before),
        json_string(&stats_after),
        json_string(&metrics),
        replies.join(",")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-load: {e}");
            ExitCode::FAILURE
        }
    }
}
