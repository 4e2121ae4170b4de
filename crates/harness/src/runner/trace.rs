//! Structured JSONL tracing of runner activity.
//!
//! A [`TraceSink`] wraps an [`mds_obs::JsonlWriter`] behind a mutex so
//! the runner's worker-result loop and the harness binaries can append
//! lifecycle events (`run_start`, `sim`, `cache_hit`, `span`,
//! `experiment_start`/`experiment_finish`, `run_finish`) to one
//! line-delimited JSON file without interleaving partial lines.
//!
//! Tracing is observability only: it never changes which simulations
//! run or what they compute, so a traced `reproduce` run renders tables
//! byte-identical to an untraced one. A trace write that fails (a full
//! disk, a closed pipe) therefore never fails the caller: the sink
//! prints one warning, stops writing, and counts every line it drops.

use mds_obs::{JsonlWriter, SpanRecord};
use serde::Value;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// A shared, thread-safe JSONL event sink.
pub struct TraceSink {
    state: Mutex<SinkState>,
}

struct SinkState {
    writer: JsonlWriter<Box<dyn Write + Send>>,
    /// The first write error; once set, the sink writes nothing more.
    failed: Option<io::Error>,
    /// Lines not written because of `failed`, the failing one included.
    dropped: u64,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("lines", &self.lines())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceSink {
    /// Creates (truncating) a JSONL trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<TraceSink> {
        let file: Box<dyn Write + Send> = Box::new(BufWriter::new(File::create(path)?));
        Ok(TraceSink::new(file))
    }

    /// Wraps an arbitrary sink (tests use a `Vec<u8>`).
    pub fn new(out: Box<dyn Write + Send>) -> TraceSink {
        TraceSink {
            state: Mutex::new(SinkState {
                writer: JsonlWriter::new(out),
                failed: None,
                dropped: 0,
            }),
        }
    }

    fn state(&self) -> MutexGuard<'_, SinkState> {
        self.state.lock().expect("trace sink poisoned")
    }

    /// Emits one event line. The first write error turns the sink off
    /// with one warning on stderr; that line and every later one are
    /// counted in [`TraceSink::dropped`] instead of written.
    pub fn event(&self, event: &str, fields: &[(&str, Value)]) {
        let mut guard = self.state();
        let state = &mut *guard;
        if state.failed.is_none() {
            match state.writer.emit(event, fields) {
                Ok(()) => return,
                Err(e) => {
                    eprintln!(
                        "warning: trace write failed: {e}; tracing is off for the rest of the run"
                    );
                    state.failed = Some(e);
                }
            }
        }
        state.dropped += 1;
    }

    /// Emits one finished span as a `"span"` event line carrying the
    /// record's id/parent/timing fields plus its key=value fields.
    pub fn emit_span(&self, record: &SpanRecord) {
        let fields = record.jsonl_fields();
        let borrowed: Vec<(&str, Value)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        self.event("span", &borrowed);
    }

    /// Number of lines written so far.
    pub fn lines(&self) -> u64 {
        self.state().writer.lines()
    }

    /// Number of lines dropped after a write error (0 while healthy).
    pub fn dropped(&self) -> u64 {
        self.state().dropped
    }

    /// Flushes the underlying sink.
    ///
    /// # Errors
    ///
    /// Reports the write error that turned the sink off, with the
    /// number of dropped lines, or else the underlying flush error.
    pub fn flush(&self) -> io::Result<()> {
        let mut state = self.state();
        match &state.failed {
            Some(e) => Err(io::Error::new(
                e.kind(),
                format!("{e} ({} trace line(s) dropped)", state.dropped),
            )),
            None => state.writer.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` impl that appends into a shared buffer so the test can
    /// inspect what the sink wrote.
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_are_whole_lines() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = TraceSink::new(Box::new(Shared(buf.clone())));
        sink.event("run_start", &[("jobs", Value::UInt(2))]);
        sink.event("run_finish", &[]);
        sink.flush().unwrap();
        assert_eq!(sink.lines(), 2);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"event\":\"run_start\",\"jobs\":2}");
        assert_eq!(lines[1], "{\"event\":\"run_finish\"}");
    }

    #[test]
    fn concurrent_emission_never_tears_lines() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::new(TraceSink::new(Box::new(Shared(buf.clone()))));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..50u64 {
                        sink.event("tick", &[("t", Value::UInt(t)), ("i", Value::UInt(i))]);
                    }
                });
            }
        });
        sink.flush().unwrap();
        assert_eq!(sink.lines(), 200);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 200);
        for line in text.lines() {
            assert!(
                line.starts_with("{\"event\":\"tick\"") && line.ends_with('}'),
                "{line}"
            );
        }
    }

    #[test]
    fn a_failing_writer_turns_the_sink_off_and_counts_drops() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = TraceSink::new(Box::new(Broken));
        for _ in 0..3 {
            sink.event("tick", &[]);
        }
        assert_eq!(sink.lines(), 0);
        assert_eq!(sink.dropped(), 3);
        let err = sink.flush().unwrap_err().to_string();
        assert!(
            err.contains("disk full") && err.contains("3 trace line(s) dropped"),
            "{err}"
        );
    }
}
