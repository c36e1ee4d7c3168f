//! The trace file format: newline-delimited JSON (NDJSON), one
//! [`TraceEvent`] per line, in emission order. The format round-trips
//! exactly through the vendored serde shim ([`parse_ndjson`] recovers the
//! same events [`to_ndjson`] wrote).

use crate::event::TraceEvent;

/// Serialize `events` as NDJSON into a string.
pub fn to_ndjson(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&serde_json::to_string(event).expect("trace events always serialize"));
        out.push('\n');
    }
    out
}

/// Parse an NDJSON trace back into events. Blank lines are skipped.
pub fn parse_ndjson(text: &str) -> Result<Vec<TraceEvent>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| serde_json::from_str::<TraceEvent>(line).map_err(|e| e.to_string()))
        .collect()
}
