//! The trace record: what a span or event looks like on the wire.
//!
//! Records are stamped with **virtual sim time** only. Wall-clock never
//! appears here, so a traced run and an untraced run are bit-identical.

use blockfed_sim::SimTime;

/// Track number for run-level (not per-peer) records.
///
/// Peer-scoped records use the peer index as their track; everything that
/// belongs to the run as a whole (faults, watchdog, seals attributed to the
/// network) goes on this sentinel track.
pub const RUN_TRACK: u32 = u32::MAX;

/// A single attribute value attached to a record.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer attribute (counts, byte sizes, rounds).
    U64(u64),
    /// Signed integer attribute.
    I64(i64),
    /// Float attribute (durations in seconds, rates).
    F64(f64),
    /// Boolean attribute (flags like `aborted`).
    Bool(bool),
    /// String attribute (artifact fingerprints, labels).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// A named attribute. Names are static so emission never allocates for keys.
pub type Attr = (&'static str, AttrValue);

/// Whether a record opens a span, closes one, or marks an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Span begin (`ph: "B"` in Chrome-trace terms).
    Begin,
    /// Span end (`ph: "E"`).
    End,
    /// Instantaneous event (`ph: "i"`).
    Instant,
}

impl RecordKind {
    /// The Chrome-trace phase letter for this kind.
    pub const fn phase(self) -> &'static str {
        match self {
            RecordKind::Begin => "B",
            RecordKind::End => "E",
            RecordKind::Instant => "i",
        }
    }
}

/// One trace record: a span boundary or instant event at a virtual instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual sim time of the record.
    pub time: SimTime,
    /// Span begin / span end / instant.
    pub kind: RecordKind,
    /// Static record name, e.g. `"round"`, `"net.flood"`, `"fetch"`.
    pub name: &'static str,
    /// Track the record belongs to: a peer index, or [`RUN_TRACK`].
    pub track: u32,
    /// Span id pairing a `Begin` with its `End`; `0` for instants.
    pub id: u64,
    /// Attributes attached to this record.
    pub attrs: Vec<Attr>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_conversions_cover_common_types() {
        assert_eq!(AttrValue::from(3u64), AttrValue::U64(3));
        assert_eq!(AttrValue::from(3u32), AttrValue::U64(3));
        assert_eq!(AttrValue::from(3usize), AttrValue::U64(3));
        assert_eq!(AttrValue::from(-3i64), AttrValue::I64(-3));
        assert_eq!(AttrValue::from(0.5f64), AttrValue::F64(0.5));
        assert_eq!(AttrValue::from(true), AttrValue::Bool(true));
        assert_eq!(AttrValue::from("x"), AttrValue::Str("x".into()));
    }

    #[test]
    fn kinds_map_to_chrome_phases() {
        assert_eq!(RecordKind::Begin.phase(), "B");
        assert_eq!(RecordKind::End.phase(), "E");
        assert_eq!(RecordKind::Instant.phase(), "i");
    }
}
