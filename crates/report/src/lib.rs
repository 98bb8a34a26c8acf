//! Experiment reporting: aligned tables (the paper's Tables I–IV), ASCII line
//! charts (Figures 3–4), CSV export, and summary statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No function over 120 counted lines (threshold in the root clippy.toml).
#![warn(clippy::too_many_lines)]

pub mod csv;
pub mod plot;
pub mod summary;
pub mod table;

pub use csv::write_csv;
pub use plot::LinePlot;
pub use summary::{percent_change, summarize, Stats};
pub use table::{fmt_acc, fmt_secs, Table};
