//! Chrome-trace (about://tracing, Perfetto) export.
//!
//! Serializes a [`Trace`] to the Trace Event Format's JSON array form:
//! complete events (`"ph": "X"`) with one process per rank, so the
//! result opens directly in `chrome://tracing` or Perfetto for visual
//! inspection of simulated schedules. The JSON is emitted directly
//! (no serde dependency); only event names need escaping, the rest of
//! the fields are numbers or fixed ASCII literals.

use crate::format::{EventCategory, Trace};
use std::fmt::{self, Write};

fn cat_name(c: EventCategory) -> &'static str {
    match c {
        EventCategory::Compute => "compute",
        EventCategory::TpComm => "tp_comm",
        EventCategory::CpComm => "cp_comm",
        EventCategory::PpComm => "pp_comm",
        EventCategory::DpComm => "dp_comm",
        EventCategory::Other => "other",
    }
}

fn cat_tid(c: EventCategory) -> u32 {
    match c {
        EventCategory::Compute => 0,
        EventCategory::TpComm => 1,
        EventCategory::CpComm => 2,
        EventCategory::PpComm => 3,
        EventCategory::DpComm => 4,
        EventCategory::Other => 5,
    }
}

fn push_json_string(out: &mut String, s: &str) -> fmt::Result {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.push(c),
        }
    }
    out.push('"');
    Ok(())
}

/// Microsecond timestamps rendered the way `chrome://tracing` expects:
/// a plain decimal with no exponent (`1.5`, not `1.5e0` or `1.500000`).
fn push_micros(out: &mut String, ns: u64) -> fmt::Result {
    let (whole, frac) = (ns / 1000, ns % 1000);
    if frac == 0 {
        write!(out, "{whole}.0")
    } else if frac % 100 == 0 {
        write!(out, "{whole}.{}", frac / 100)
    } else if frac % 10 == 0 {
        write!(out, "{whole}.{:02}", frac / 10)
    } else {
        write!(out, "{whole}.{frac:03}")
    }
}

/// Renders the trace as a Chrome Trace Event Format JSON string.
/// Each rank becomes a process; each category becomes a thread lane.
///
/// Every field is written straight into the output string: no
/// per-event temporaries.
///
/// # Errors
/// Only a failing `fmt::Write` (never for a `String`).
pub fn to_chrome_json(trace: &Trace) -> Result<String, std::fmt::Error> {
    let mut out = String::with_capacity(64 + trace.events.len() * 96);
    out.push('[');
    for (i, e) in trace.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_string(&mut out, &e.name)?;
        out.push_str(",\"cat\":\"");
        out.push_str(cat_name(e.category));
        out.push_str("\",\"ph\":\"X\",\"ts\":");
        push_micros(&mut out, e.start_ns)?;
        out.push_str(",\"dur\":");
        push_micros(&mut out, e.duration_ns)?;
        write!(out, ",\"pid\":{},\"tid\":{}}}", e.rank, cat_tid(e.category))?;
    }
    out.push(']');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceEvent;

    #[test]
    fn exports_valid_json() {
        let mut t = Trace::new();
        t.push(TraceEvent {
            rank: 2,
            name: "all_gather".into(),
            category: EventCategory::CpComm,
            start_ns: 1500,
            duration_ns: 2500,
        });
        let json = to_chrome_json(&t).unwrap();
        assert_eq!(
            json,
            "[{\"name\":\"all_gather\",\"cat\":\"cp_comm\",\"ph\":\"X\",\
             \"ts\":1.5,\"dur\":2.5,\"pid\":2,\"tid\":2}]"
        );
    }

    #[test]
    fn escapes_event_names() {
        let mut t = Trace::new();
        for name in [
            "layer \"q\" \\ proj\n",
            "layer \"q\" \\ proj\n of a name too long to store inline",
            "bell\u{7} ↔ ü",
        ] {
            t.push(TraceEvent {
                rank: 0,
                name: name.into(),
                category: EventCategory::Compute,
                start_ns: 1000,
                duration_ns: 1000,
            });
        }
        let json = to_chrome_json(&t).unwrap();
        assert!(json.contains(r#""name":"layer \"q\" \\ proj\n""#), "{json}");
        assert!(
            json.contains(r#""name":"layer \"q\" \\ proj\n of a name too long to store inline""#),
            "{json}"
        );
        assert!(json.contains(r#""name":"bell\u0007 ↔ ü""#), "{json}");
    }

    #[test]
    fn whole_and_fractional_micros() {
        for (ns, want) in [
            (2000, "2.0"),
            (2050, "2.05"),
            (1, "0.001"),
            (2500, "2.5"),
            (2120, "2.12"),
            (2123, "2.123"),
            (0, "0.0"),
        ] {
            let mut s = String::new();
            push_micros(&mut s, ns).unwrap();
            assert_eq!(s, want);
        }
    }

    #[test]
    fn empty_trace_is_empty_array() {
        assert_eq!(to_chrome_json(&Trace::new()).unwrap(), "[]");
    }
}
