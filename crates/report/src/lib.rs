//! # nonctg-report — result recording and rendering
//!
//! CSV table views, aligned terminal tables, ASCII log-log plots, and
//! static SVG figures in the paper's three-panel layout (time, bandwidth,
//! slowdown). The SVG marks follow a validated categorical palette with a
//! fixed scheme→color assignment; every figure is emitted next to its CSV
//! table view.

#![warn(missing_docs)]

pub mod analysis;
pub mod asciiplot;
pub mod csv;
pub mod heatmap;
pub mod html;
mod series;
mod svg;
mod table;
pub mod traceviz;

pub use analysis::{
    critical_path, gantt_ascii, gantt_svg, phase_of_name, CriticalEdge, CriticalPath,
};
pub use series::{PlotSpec, Scale, Series, GLYPHS, PALETTE};
pub use traceviz::{ascii_spans, chrome_trace_json, Span};
pub use svg::{legend_group, panel_group, render_figure, render_svg, PanelGeom};
pub use table::{fmt_bytes, fmt_gbps, fmt_time, Table};
