//! Deterministic observability for the NoStop workspace.
//!
//! A [`Recorder`] collects lightweight spans, point events, and monotonic
//! counters from the simulator and controller. Three properties make it
//! safe to leave compiled into the hot path:
//!
//! * **DES-clock only.** Every event is stamped with virtual time
//!   ([`SimTime`]), never wall-clock, so a trace is a pure function of the
//!   seed — byte-identical across runs and machines.
//! * **Zero overhead when disabled.** A disabled recorder is an `Option`
//!   that is `None`; every emission method is one predictable branch.
//!   Instrumented call sites additionally guard field construction behind
//!   [`Recorder::is_enabled`]. The `obs-off` cargo feature goes further
//!   and compiles the recorder to a ZST whose methods are empty `#[inline]`
//!   functions, erasing the instrumentation from the binary entirely.
//! * **Bounded memory.** Events land in a ring sink ([`sink::RingSink`])
//!   that evicts the oldest event when full and counts evictions; counter
//!   totals are kept separately and stay exact across eviction.
//!
//! Recorders clone cheaply and share one sink; [`Recorder::with_track`]
//! tags a clone's events with a subsystem name. Span nesting is
//! well-formed *per track* ([`event::check_events`]) — tracks interleave
//! freely in the shared ring.

pub mod event;
pub mod jsonl;
#[cfg(not(feature = "obs-off"))]
pub mod sink;

pub use event::{check_events, check_jsonl, span_stats, Event, EventKind, SpanStat};
use nostop_simcore::SimTime;

/// Intern a runtime-built track name into a `&'static str`.
///
/// [`Recorder::with_track`] takes `&'static str` so the hot path never
/// clones strings; fleet code needs per-tenant tracks like `"t17.engine"`
/// whose names only exist at runtime. Interning leaks each distinct name
/// once and returns the same `&'static str` for every later request, so
/// a fleet of N tenants costs N small leaks for the whole process, not
/// per-run allocations. Available in both obs builds (the `obs-off` ZST
/// recorder still accepts a track argument).
pub fn track_name(name: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let table = INTERNED.get_or_init(|| Mutex::new(Vec::new()));
    let mut table = table.lock().expect("track intern table poisoned");
    if let Some(existing) = table.iter().find(|s| **s == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

/// A point-in-time copy of everything a recorder holds.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Buffered events in causal append order.
    pub events: Vec<Event>,
    /// Cumulative counter totals in first-increment order.
    pub counters: Vec<(&'static str, u64)>,
    /// Events evicted by the ring bound.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Export as JSONL (see [`jsonl::export`]).
    pub fn to_jsonl(&self) -> String {
        jsonl::export(self)
    }
}

#[cfg(not(feature = "obs-off"))]
mod recorder_impl {
    use super::*;
    use crate::sink::RingSink;
    use std::sync::{Arc, Mutex};

    /// A handle to a (possibly shared) trace sink. See the crate docs.
    #[derive(Clone, Default)]
    pub struct Recorder {
        inner: Option<Arc<Mutex<RingSink>>>,
        track: &'static str,
    }

    impl Recorder {
        /// A recorder that records nothing (the engine/controller default).
        pub fn disabled() -> Self {
            Recorder {
                inner: None,
                track: "main",
            }
        }

        /// A recorder backed by a ring sink of at most `capacity` events.
        pub fn ring(capacity: usize) -> Self {
            Recorder {
                inner: Some(Arc::new(Mutex::new(RingSink::new(capacity)))),
                track: "main",
            }
        }

        /// A clone sharing this recorder's sink, tagging events with `track`.
        pub fn with_track(&self, track: &'static str) -> Self {
            Recorder {
                inner: self.inner.clone(),
                track,
            }
        }

        /// Whether events will actually be recorded. Call sites use this to
        /// skip field construction on the disabled path.
        #[inline]
        pub fn is_enabled(&self) -> bool {
            self.inner.is_some()
        }

        /// Open a span at virtual time `at`.
        #[inline]
        pub fn enter(&self, at: SimTime, span: &'static str, fields: &[(&'static str, f64)]) {
            let Some(sink) = &self.inner else { return };
            sink.lock().expect("obs sink poisoned").push(Event {
                at_us: at.as_micros(),
                track: self.track,
                kind: EventKind::Enter {
                    span,
                    fields: fields.to_vec(),
                },
            });
        }

        /// Close the innermost open span on this track.
        #[inline]
        pub fn exit(&self, at: SimTime, span: &'static str, fields: &[(&'static str, f64)]) {
            let Some(sink) = &self.inner else { return };
            sink.lock().expect("obs sink poisoned").push(Event {
                at_us: at.as_micros(),
                track: self.track,
                kind: EventKind::Exit {
                    span,
                    fields: fields.to_vec(),
                },
            });
        }

        /// Record a point event.
        #[inline]
        pub fn instant(&self, at: SimTime, name: &'static str, fields: &[(&'static str, f64)]) {
            let Some(sink) = &self.inner else { return };
            sink.lock().expect("obs sink poisoned").push(Event {
                at_us: at.as_micros(),
                track: self.track,
                kind: EventKind::Instant {
                    name,
                    fields: fields.to_vec(),
                },
            });
        }

        /// Bump monotonic counter `name` by `delta`.
        #[inline]
        pub fn add(&self, at: SimTime, name: &'static str, delta: u64) {
            let Some(sink) = &self.inner else { return };
            sink.lock()
                .expect("obs sink poisoned")
                .add(at.as_micros(), self.track, name, delta);
        }

        /// Copy out everything recorded so far.
        pub fn snapshot(&self) -> TraceSnapshot {
            let Some(sink) = &self.inner else {
                return TraceSnapshot::default();
            };
            let sink = sink.lock().expect("obs sink poisoned");
            TraceSnapshot {
                events: sink.events().cloned().collect(),
                counters: sink.counters().to_vec(),
                dropped: sink.dropped(),
            }
        }

        /// Export the current contents as JSONL.
        pub fn to_jsonl(&self) -> String {
            self.snapshot().to_jsonl()
        }
    }
}

#[cfg(feature = "obs-off")]
mod recorder_impl {
    use super::*;

    /// The `obs-off` recorder: a ZST with the same API and no behavior.
    /// Every method is an empty inline function the optimizer erases.
    #[derive(Clone, Copy, Default)]
    pub struct Recorder;

    impl Recorder {
        /// See the enabled build.
        #[inline(always)]
        pub fn disabled() -> Self {
            Recorder
        }

        /// See the enabled build; under `obs-off` this records nothing.
        #[inline(always)]
        pub fn ring(_capacity: usize) -> Self {
            Recorder
        }

        /// See the enabled build.
        #[inline(always)]
        pub fn with_track(&self, _track: &'static str) -> Self {
            Recorder
        }

        /// Always false under `obs-off`.
        #[inline(always)]
        pub fn is_enabled(&self) -> bool {
            false
        }

        /// No-op.
        #[inline(always)]
        pub fn enter(&self, _at: SimTime, _span: &'static str, _fields: &[(&'static str, f64)]) {}

        /// No-op.
        #[inline(always)]
        pub fn exit(&self, _at: SimTime, _span: &'static str, _fields: &[(&'static str, f64)]) {}

        /// No-op.
        #[inline(always)]
        pub fn instant(&self, _at: SimTime, _name: &'static str, _fields: &[(&'static str, f64)]) {}

        /// No-op.
        #[inline(always)]
        pub fn add(&self, _at: SimTime, _name: &'static str, _delta: u64) {}

        /// Always empty under `obs-off`.
        pub fn snapshot(&self) -> TraceSnapshot {
            TraceSnapshot::default()
        }

        /// A header-only trace under `obs-off`.
        pub fn to_jsonl(&self) -> String {
            self.snapshot().to_jsonl()
        }
    }
}

pub use recorder_impl::Recorder;
