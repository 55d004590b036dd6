//! `od-telemetry` — the vendor-free instrumentation layer.
//!
//! The simulation runtime is deterministic to the bit: trial results are
//! pure functions of `(spec, trial index)`, checkpoints are keyed by a
//! content hash, and shard summaries merge partition-invariantly. Any
//! observability layer threaded through it must therefore be **inert**:
//! wall-clock time and event emission may never reach an RNG stream, a
//! checkpoint byte, or a summary bit. This crate provides that layer:
//!
//! * [`TelemetrySink`] — the event outlet trait. [`NullSink`] is the
//!   zero-overhead default (callers guard event construction behind
//!   [`TelemetrySink::enabled`], so a disabled sink costs one boolean
//!   load); [`JsonlSink`] appends one JSON object per line with
//!   monotonic sequence numbers and atomic line writes; [`MemorySink`]
//!   collects encoded lines for tests; [`FanoutSink`] tees to several
//!   sinks; [`ProgressSink`] renders progress events as a one-line
//!   ticker on stderr.
//! * [`Event`] — the closed event schema (spans, per-shard progress,
//!   per-trial outcomes, γ-trace samples, queue, orchestrator and
//!   service events, bench samples). Every kind is declared once in
//!   [`event`], and the enum, its JSONL encoder and [`Event::SCHEMA`]
//!   (which `od-telemetry-validate` checks streams against) are all
//!   generated from that declaration: it is the only place to add a
//!   kind or a field. Such an edit regenerates the byte golden
//!   (`tests/golden/events.jsonl`) on purpose. The encoding is
//!   append-only stable: existing fields never change meaning, new
//!   kinds may be added.
//! * [`span()`] / [`span_full`] — wall-clock span timing emitted as
//!   `span_enter`/`span_exit` event pairs, nested via parent ids.
//! * [`MetricSet`] — counters, exact moments, and histograms with the
//!   exact-merge semantics of [`od_stats::exact`], so per-shard metric
//!   snapshots merge partition-invariantly like shard summaries do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod sink;
pub mod span;

pub use event::Event;
pub use metrics::MetricSet;
pub use sink::{FanoutSink, JsonlSink, MemorySink, NullSink, ProgressSink, TelemetrySink};
pub use span::{span, span_full, Span};
