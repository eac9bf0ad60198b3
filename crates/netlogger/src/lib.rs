//! # esg-netlogger — instrumentation and bandwidth statistics
//!
//! A reproduction of the role NetLogger (ref. \[13\] in the paper) played: structured
//! timestamped events from every component ([`event`]), causal trace context
//! and span emission ([`trace`]), offline lifeline reconstruction — the
//! Figure 8 phase decomposition — ([`lifeline`]), a deterministic metrics
//! registry ([`metrics`]), the append-only line journal every durable
//! record goes through ([`journal`]), and the cumulative byte curves +
//! windowed rate statistics behind Table 1 and Figure 8 ([`bandwidth`]).

pub mod bandwidth;
pub mod event;
pub mod journal;
pub mod lifeline;
pub mod live;
pub mod metrics;
pub mod recorder;
mod symbols;
pub mod trace;

pub use bandwidth::{to_gbps, to_mbps, BandwidthMeter};
pub use event::{sanitize_key, EventRef, LogEvent, NetLog, Text, UlmError, Value};
pub use journal::Journal;
pub use lifeline::{CriticalPath, Lifeline, LifelineSet, Span, Stall};
pub use live::{LiveLifelines, OpenSpan};
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::FlightRecorder;
pub use trace::{Phase, SpanId, TraceCtx, TracedLog};
