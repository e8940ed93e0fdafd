//! Pluggable destinations for [`PassEvent`]s.
//!
//! The compiler streams every pass event to a [`TraceSink`] as it
//! finishes. Three sinks are provided:
//!
//! * [`NullSink`] — discards everything; the zero-cost default;
//! * [`TableSink`] — accumulates events and renders the human-readable
//!   stage table (the `--report` view);
//! * [`JsonlSink`] — writes one compact JSON object per line, for the
//!   bench harness and CI trend tracking.

use crate::event::PassEvent;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// A destination for pass events.
///
/// Sinks receive `&self` so one sink can be shared (`Arc<dyn TraceSink>`)
/// across threads of a bench sweep; implementations handle their own
/// interior mutability.
pub trait TraceSink: Send + Sync {
    /// Accepts one completed pass event.
    fn record(&self, event: &PassEvent);

    /// Flushes any buffered output; called once per compilation.
    fn flush(&self) {}
}

/// Discards every event. The default when tracing is disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &PassEvent) {}
}

/// Accumulates events in memory for later rendering or inspection.
#[derive(Debug, Default)]
pub struct TableSink {
    events: Mutex<Vec<PassEvent>>,
}

impl TableSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// All events recorded so far, in arrival order.
    pub fn events(&self) -> Vec<PassEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Renders the recorded events as rows of a markdown stage table:
    /// per-pass gate/T/CNOT counts, depths, cost movement and timing.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let events = self.events.lock().unwrap();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| pass | T | CNOT | gates | depth | T-depth | cost | Δcost | ms |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
        for e in events.iter() {
            let s = e.output;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {:.2} | {:+.2} | {:.2} |",
                e.pass,
                s.stats.t_count,
                s.stats.cnot_count,
                s.stats.volume,
                s.depth,
                s.t_depth,
                e.cost_out,
                e.cost_delta(),
                e.seconds * 1e3
            );
        }
        out
    }
}

impl TraceSink for TableSink {
    fn record(&self, event: &PassEvent) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// Writes one JSON object per event, newline-terminated (JSON lines).
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Wraps any writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(writer),
        }
    }

    /// Creates (truncating) a file and writes events to it buffered.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file cannot be created.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(Box::new(BufWriter::new(File::create(path)?))))
    }

    /// Writes events to standard error (line-buffered by the lock).
    pub fn stderr() -> Self {
        Self::new(Box::new(io::stderr()))
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &PassEvent) {
        let mut out = self.out.lock().unwrap();
        // A failed trace write must not abort compilation; drop the line.
        let _ = writeln!(out, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Pass, Span, StageSnapshot};
    use crate::json;
    use std::sync::Arc;

    fn event(pass: Pass) -> PassEvent {
        Span::new(pass).finish(
            0.0,
            StageSnapshot::default(),
            StageSnapshot::default(),
            2.0,
            1.0,
        )
    }

    /// A `Write` handle into shared memory, for asserting on sink output.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn null_sink_accepts_events() {
        let sink = NullSink;
        sink.record(&event(Pass::Place));
        sink.flush();
    }

    #[test]
    fn table_sink_accumulates_and_renders() {
        let sink = TableSink::new();
        sink.record(&event(Pass::Place));
        sink.record(&event(Pass::Route));
        assert_eq!(sink.events().len(), 2);
        let table = sink.render();
        assert!(table.contains("| place |"));
        assert!(table.contains("| route |"));
        assert!(table.contains("Δcost"));
    }

    #[test]
    fn jsonl_sink_emits_one_parseable_line_per_event() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        sink.record(&event(Pass::Decompose));
        sink.record(&event(Pass::Verify));
        sink.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, pass) in lines.iter().zip(["decompose", "verify"]) {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("pass").and_then(json::Value::as_str), Some(pass));
            let e = PassEvent::from_json(&v).unwrap();
            assert_eq!(e.cost_delta(), 1.0);
        }
    }

    #[test]
    fn sinks_are_object_safe_and_shareable() {
        let shared: Arc<dyn TraceSink> = Arc::new(TableSink::new());
        shared.record(&event(Pass::Optimize));
        shared.flush();
    }
}
