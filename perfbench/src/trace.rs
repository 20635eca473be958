//! Layer timing: outside timers for the main run, spans for the traced run.
//!
//! Every layer is timed from outside, around the calls into its public
//! functions.  The main run keeps only one running total per layer.  The
//! traced run additionally records a span per call — including one per
//! semantic step and per garbage-collected step, through the step wrappers
//! of [`Recorder::step`] — plus the engine's own fold time from
//! [`RoundTrace::join_ns`].

use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use mai_core::telemetry::{RoundTrace, TraceSink};

/// The layers the benchmark times, named by the module they call into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole analysis: the root span of everything below.
    Analysis,
    /// `mai_cps::parser::parse_program`, `mai_lambda::parser::parse_term`.
    Parse,
    /// `mai_cps::convert::cps_convert`.
    Convert,
    /// `mai_fj::typecheck::check_program`.
    Typecheck,
    /// The direct solver of `mai_core::engine`, end to end.
    Solve,
    /// One call of a language's `mnext_direct`.
    Semantics,
    /// One call of `mai_core::engine::with_state_gc` around the semantics.
    Gc,
    /// `flow_map_of_store`, `abstract_errors`, `result_classes`.
    Query,
}

impl Layer {
    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Analysis => "analysis",
            Layer::Parse => "parse",
            Layer::Convert => "convert",
            Layer::Typecheck => "typecheck",
            Layer::Solve => "solve",
            Layer::Semantics => "semantics",
            Layer::Gc => "gc",
            Layer::Query => "query",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// How many [`Layer`]s there are.
const LAYERS: usize = Layer::Query as usize + 1;

/// Per-layer totals in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerNs([u64; LAYERS]);

impl LayerNs {
    /// The total of `layer`, in seconds.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.0[layer.index()] as f64 * 1e-9
    }

    fn add(&mut self, layer: Layer, ns: u64) {
        self.0[layer.index()] += ns;
    }
}

/// One recorded span.  `parent` indexes the enclosing span in the same
/// recording; `analysis` is shared by every span of one analysis.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    analysis: u32,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

#[derive(Default)]
struct Spans {
    spans: Vec<Span>,
    open: Vec<u32>,
    analysis: u32,
    step_calls: u64,
    step_branches: u64,
}

/// The traced run's span store.  It sits behind a mutex because the
/// engines require `Sync` step functions; the direct engine is
/// sequential, so the lock is never contended.
pub struct Recorder {
    origin: Instant,
    inner: Mutex<Spans>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            inner: Mutex::new(Spans::default()),
        }
    }
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, Spans> {
        self.inner
            .lock()
            .expect("a span recorder panicked mid-update")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&self, layer: Layer) {
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        let index = inner.spans.len() as u32;
        let span = Span {
            layer,
            analysis: inner.analysis,
            start_ns,
            end_ns: start_ns,
            parent: inner.open.last().copied(),
        };
        inner.spans.push(span);
        inner.open.push(index);
    }

    fn end(&self) {
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        let index = inner.open.pop().expect("span ended without a begin");
        inner.spans[index as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span of `layer`.
    pub fn scope<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.begin(layer);
        let out = f();
        self.end();
        out
    }

    /// Wraps a step function so that every call records a span of `layer`.
    /// Calls and branches are counted for [`Layer::Semantics`].
    pub fn step<'a, Ps, G, S, F>(
        &'a self,
        layer: Layer,
        step: F,
    ) -> impl Fn(Ps, G, S) -> Vec<((Ps, G), S)> + Sync + 'a
    where
        F: Fn(Ps, G, S) -> Vec<((Ps, G), S)> + Sync + 'a,
    {
        move |ps, guts, store| {
            self.begin(layer);
            let branches = step(ps, guts, store);
            self.end();
            if layer == Layer::Semantics {
                let mut inner = self.lock();
                inner.step_calls += 1;
                inner.step_branches += branches.len() as u64;
            }
            branches
        }
    }

    /// Starts the next analysis: later spans carry its id.
    pub fn next_analysis(&self) {
        self.lock().analysis += 1;
    }

    /// Semantic-step calls and the branches they returned.
    pub fn step_counts(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.step_calls, inner.step_branches)
    }

    /// Self time per layer: each span's duration minus the durations of
    /// its direct children.
    pub fn self_ns(&self) -> LayerNs {
        let inner = self.lock();
        let mut total = LayerNs::default();
        for span in &inner.spans {
            let ns = span.end_ns - span.start_ns;
            total.add(span.layer, ns);
            if let Some(parent) = span.parent {
                let parent = inner.spans[parent as usize].layer.index();
                total.0[parent] -= ns;
            }
        }
        total
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    /// The spans as JSON: one object per span, in start order.
    pub fn to_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("[\n");
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"analysis\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.layer.name(),
                s.analysis,
                s.start_ns,
                s.end_ns
            ));
            out.push_str(if i + 1 < inner.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// The benchmark's engine-side sink: sums the per-round phase timings.
#[derive(Debug, Default)]
pub struct FoldSink {
    /// Nanoseconds the engine spent folding deltas into the store.
    pub join_ns: u64,
}

impl TraceSink for FoldSink {
    fn enabled(&self) -> bool {
        true
    }

    fn round(&mut self, event: RoundTrace) {
        self.join_ns += event.join_ns;
    }
}

/// What one pipeline run is timed with.  Outside timers always run; a
/// meter built with [`Meter::traced`] also records spans and solves
/// through the traced engine entry point.
#[derive(Default)]
pub struct Meter {
    /// Outside-timer totals per layer.
    pub totals: LayerNs,
    /// The engine's fold time, summed over traced solves.
    pub fold_ns: u64,
    recorder: Option<Rc<Recorder>>,
}

impl Meter {
    /// A meter that also records spans.
    pub fn traced() -> Self {
        Meter {
            recorder: Some(Rc::default()),
            ..Meter::default()
        }
    }

    /// The span recorder of a traced meter.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_deref()
    }

    /// Runs one whole analysis: under a traced meter, inside a root span
    /// with a fresh analysis id.
    pub fn analysis<R>(&mut self, f: impl FnOnce(&mut Meter) -> R) -> R {
        match self.recorder.clone() {
            Some(rec) => {
                rec.next_analysis();
                rec.scope(Layer::Analysis, || f(self))
            }
            None => f(self),
        }
    }

    /// Times one call into `layer`.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = match &self.recorder {
            Some(rec) => rec.scope(layer, f),
            None => f(),
        };
        self.totals.add(layer, start.elapsed().as_nanos() as u64);
        out
    }

    /// Times one solve: `plain` when untraced, `traced` — handed the span
    /// recorder and the engine sink — when tracing.
    pub fn solve<R>(
        &mut self,
        plain: impl FnOnce() -> R,
        traced: impl FnOnce(&Recorder, &mut FoldSink) -> R,
    ) -> R {
        let start = Instant::now();
        let out = match &self.recorder {
            Some(rec) => {
                let mut sink = FoldSink::default();
                let out = rec.scope(Layer::Solve, || traced(rec, &mut sink));
                self.fold_ns += sink.join_ns;
                out
            }
            None => plain(),
        };
        self.totals
            .add(Layer::Solve, start.elapsed().as_nanos() as u64);
        out
    }
}
