//! NDJSON event sink: one JSON object per line, destination selected at
//! init time (`stderr`, a file path, an in-memory buffer for tests, or
//! off).

use parking_lot::Mutex;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::Arc;

/// Where NDJSON event lines go.
#[derive(Debug)]
pub(crate) enum Sink {
    /// Drop everything (registry aggregation still runs).
    Off,
    /// One line per event on stderr.
    Stderr,
    /// Buffered writes into a file.
    File(BufWriter<File>),
    /// Shared in-memory buffer, used by [`crate::capture`].
    Memory(Arc<Mutex<Vec<u8>>>),
}

impl Sink {
    /// Write one NDJSON line (the newline is appended here). IO errors
    /// are swallowed: telemetry must never take down the pipeline.
    pub(crate) fn write_line(&mut self, line: &str) {
        match self {
            Sink::Off => {}
            Sink::Stderr => {
                let stderr = std::io::stderr();
                let mut guard = stderr.lock();
                let _ = writeln!(guard, "{line}");
            }
            Sink::File(w) => {
                let _ = writeln!(w, "{line}");
            }
            Sink::Memory(buf) => {
                let mut buf = buf.lock();
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
            }
        }
    }

    /// Flush buffered output (meaningful for the file sink).
    pub(crate) fn flush(&mut self) {
        if let Sink::File(w) = self {
            let _ = w.flush();
        }
    }

    /// Whether events should be serialized at all.
    pub(crate) fn is_active(&self) -> bool {
        !matches!(self, Sink::Off)
    }
}
