//! Structured engine telemetry: per-round traces and hot-spot attribution
//! for the fixpoint engines.
//!
//! `EngineStats` answers *how much* work a solve performed; this module
//! answers *where the wall-clock went*.  The engines thread a
//! [`TraceSink`] through their `_traced` entry points and report, per
//! solver round, the frontier size, the states stepped, the contribution
//! joins, the per-address delta width and the wall-clock split into a
//! *step* phase (transition functions running) and a *join* phase (deltas
//! folded into the accumulated store).
//!
//! ## Zero cost when off
//!
//! [`TraceSink`] is a monomorphized trait whose methods all have empty
//! default bodies, and every untraced engine entry point passes
//! [`NoopSink`] — so the compiler sees statically that the sink does
//! nothing and the event plumbing folds away.  Wall-clock sampling is
//! gated on [`TraceSink::enabled`] (via [`Stopwatch`]), so the untraced
//! path performs no `Instant::now` calls either.  Crucially, **no
//! deterministic work counter ever branches on the sink**: the
//! differential suite asserts byte-identical fixpoints and identical
//! [`EngineStats`](crate::engine::EngineStats) with tracing on and off.
//!
//! ## Exporters
//!
//! [`TraceBuffer`] is the reference sink: it aggregates rounds, governance
//! events, per-state step cost and per-address join traffic, and renders
//!
//! * [`TraceBuffer::chrome_trace_json`] — Chrome trace-event JSON.  The
//!   timeline is reconstructed by *stacking* round phase durations (round
//!   `r+1` starts where round `r` ended); load the file in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! * [`TraceBuffer::rounds_csv`] — a compact per-round CSV.
//! * [`TraceBuffer::profile_summary`] — the human-readable summary behind
//!   `mai-bench --profile`.

use std::fmt::Debug;
use std::fmt::Write as _;
use std::time::Instant;

use crate::engine::governor::ExhaustReason;
use crate::hash::FxHashMap;

/// One solver round, with its wall-clock decomposed into phases:
/// `step + join` is the round's wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTrace {
    /// 1-based round number.
    pub round: usize,
    /// States on the round's frontier (for the per-state engine: the BFS
    /// generation size; for Kleene iteration: the states re-stepped).
    pub frontier: usize,
    /// States actually stepped this round (differs from `frontier` on
    /// rebuild rounds, which re-step every known state).
    pub stepped: usize,
    /// Contribution joins folded this round.
    pub joins: usize,
    /// Addresses whose accumulated binding grew this round.
    pub delta_width: usize,
    /// Whether this was a non-monotone *rebuild* round.
    pub rebuild: bool,
    /// Nanoseconds spent running transition functions.
    pub step_ns: u64,
    /// Nanoseconds spent folding deltas into the accumulator.
    pub join_ns: u64,
}

impl RoundTrace {
    /// The round's total wall-clock in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.step_ns + self.join_ns
    }
}

/// A governance event of a governed solve: the budget fired and the
/// solve returned a partial.
///
/// The cancel-latency tests are built on these records: the `round` of
/// an event is the number of *completed* rounds when the budget was
/// observed, so the distance between the cancel request and the event
/// bounds the observation latency in rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorTrace {
    /// Rounds completed when the event was observed (the engines observe
    /// at round boundaries).
    pub round: usize,
    /// Which limit fired.
    pub reason: ExhaustReason,
}

/// A structured trace consumer, threaded through the engines' `_traced`
/// entry points.
///
/// Every method has an empty default body and the whole trait is
/// monomorphized, so the [`NoopSink`] the untraced entry points pass
/// compiles to nothing.  Implementations that record must override
/// [`TraceSink::enabled`] to return `true` — the engines use it to gate
/// clock sampling and label formatting (never counter updates).
pub trait TraceSink {
    /// Whether events will actually be recorded.  Engines skip
    /// `Instant::now` and `Debug`-label formatting when this is `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// One solver round completed.
    fn round(&mut self, _event: RoundTrace) {}

    /// One governance event: budget exhaustion observed.
    fn governor(&mut self, _event: GovernorTrace) {}

    /// `ns` nanoseconds were spent stepping the state labelled `label`
    /// (cumulative attribution: called once per step of that state).
    fn state_cost(&mut self, _label: &str, _ns: u64) {}

    /// A folded delta touched the address labelled `label`; `grew` is
    /// whether the accumulated binding actually grew.
    fn join_traffic(&mut self, _label: &str, _grew: bool) {}
}

/// The do-nothing sink behind every untraced engine entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {}

/// A nanosecond stopwatch that touches the clock only when armed —
/// the engines' way of keeping the tracing-off path free of
/// `Instant::now` calls.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts the stopwatch if `armed`, else returns an inert one.
    pub fn start(armed: bool) -> Self {
        Stopwatch(armed.then(Instant::now))
    }

    /// Nanoseconds since the start (or last lap); restarts the lap.
    /// 0 when inert.
    pub fn lap_ns(&mut self) -> u64 {
        match self.0 {
            Some(since) => {
                let now = Instant::now();
                let ns = now.duration_since(since).as_nanos() as u64;
                self.0 = Some(now);
                ns
            }
            None => 0,
        }
    }
}

/// Renders a `Debug` value as a single-line label truncated to roughly
/// `max` characters — hot-spot attribution keys, not pretty-printing.
pub fn label_of<V: Debug>(value: &V, max: usize) -> String {
    let mut label = format!("{value:?}");
    if let Some((cut, _)) = label.char_indices().nth(max) {
        label.truncate(cut);
        label.push('…');
    }
    label
}

/// Cumulative step cost of one state across the solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotState {
    /// The state's (truncated `Debug`) label.
    pub label: String,
    /// How many times the state was stepped.
    pub steps: usize,
    /// Total nanoseconds spent stepping it.
    pub total_ns: u64,
}

/// Cumulative join traffic of one address across the solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotAddr {
    /// The address's (`Debug`) label.
    pub label: String,
    /// How many folded deltas bound the address.
    pub joins: usize,
    /// How many of those joins actually grew the accumulated binding.
    pub grew: usize,
}

/// Wall-clock totals across all recorded rounds, by phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTotals {
    /// Total nanoseconds in step phases.
    pub step_ns: u64,
    /// Total nanoseconds in join (fold) phases.
    pub join_ns: u64,
}

impl PhaseTotals {
    /// The summed wall-clock of all rounds, in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.step_ns + self.join_ns
    }
}

/// The reference [`TraceSink`]: records every event and aggregates the
/// hot-spot attribution, then exports Chrome trace JSON, per-round CSV
/// or a human-readable profile summary.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    /// Every recorded round, in order.
    pub rounds: Vec<RoundTrace>,
    /// Every recorded governance event, in arrival order.
    pub governor_events: Vec<GovernorTrace>,
    state_costs: FxHashMap<String, (usize, u64)>,
    join_counts: FxHashMap<String, (usize, usize)>,
}

impl TraceSink for TraceBuffer {
    fn enabled(&self) -> bool {
        true
    }

    fn round(&mut self, event: RoundTrace) {
        self.rounds.push(event);
    }

    fn governor(&mut self, event: GovernorTrace) {
        self.governor_events.push(event);
    }

    fn state_cost(&mut self, label: &str, ns: u64) {
        let (steps, total) = self.state_costs.entry(label.to_owned()).or_default();
        *steps += 1;
        *total += ns;
    }

    fn join_traffic(&mut self, label: &str, grew: bool) {
        let (joins, growths) = self.join_counts.entry(label.to_owned()).or_default();
        *joins += 1;
        *growths += usize::from(grew);
    }
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wall-clock totals across all recorded rounds, by phase.
    pub fn phase_totals(&self) -> PhaseTotals {
        let mut totals = PhaseTotals::default();
        for r in &self.rounds {
            totals.step_ns += r.step_ns;
            totals.join_ns += r.join_ns;
        }
        totals
    }

    /// The `k` states with the largest cumulative step cost, descending
    /// (ties broken by label, so the order is deterministic).
    pub fn top_states(&self, k: usize) -> Vec<HotState> {
        let mut all: Vec<HotState> = self
            .state_costs
            .iter()
            .map(|(label, &(steps, total_ns))| HotState {
                label: label.clone(),
                steps,
                total_ns,
            })
            .collect();
        all.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then_with(|| a.label.cmp(&b.label))
        });
        all.truncate(k);
        all
    }

    /// The `k` addresses with the most join traffic, descending (ties
    /// broken by how many of the joins grew the binding, then label).
    pub fn top_addresses(&self, k: usize) -> Vec<HotAddr> {
        let mut all: Vec<HotAddr> = self
            .join_counts
            .iter()
            .map(|(label, &(joins, grew))| HotAddr {
                label: label.clone(),
                joins,
                grew,
            })
            .collect();
        all.sort_by(|a, b| {
            b.joins
                .cmp(&a.joins)
                .then_with(|| b.grew.cmp(&a.grew))
                .then_with(|| a.label.cmp(&b.label))
        });
        all.truncate(k);
        all
    }

    /// Chrome trace-event JSON (the `traceEvents` object form) — open it
    /// in Perfetto or `chrome://tracing`.
    ///
    /// The timeline stacks round durations: round `r+1`'s step phase
    /// starts where round `r`'s join phase ended.  Thread 0 is the driver,
    /// with one `X` slice per phase per round.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, event: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&event);
        };
        push(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"mai fixpoint engine\"}}"
                .to_owned(),
        );
        push(
            &mut out,
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"driver\"}}"
                .to_owned(),
        );
        let us = |ns: u64| format!("{:.3}", ns as f64 / 1000.0);
        let mut cursor_ns: u64 = 0;
        for r in &self.rounds {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"round {} step\",\"cat\":\"step\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\"args\":{{\
                     \"round\":{},\"frontier\":{},\"stepped\":{},\"rebuild\":{}}}}}",
                    r.round,
                    us(cursor_ns),
                    us(r.step_ns),
                    r.round,
                    r.frontier,
                    r.stepped,
                    r.rebuild
                ),
            );
            cursor_ns += r.step_ns;
            push(
                &mut out,
                format!(
                    "{{\"name\":\"round {} join\",\"cat\":\"join\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\"args\":{{\
                     \"joins\":{},\"delta_width\":{}}}}}",
                    r.round,
                    us(cursor_ns),
                    us(r.join_ns),
                    r.joins,
                    r.delta_width
                ),
            );
            cursor_ns += r.join_ns;
        }
        // Governance events land as global instants at the end of the
        // reconstructed timeline (their round is in the args).
        for g in &self.governor_events {
            let detail = g.reason.as_str();
            push(
                &mut out,
                format!(
                    "{{\"name\":\"budget exhausted\",\"cat\":\"governor\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{\"round\":{},\"detail\":\"{detail}\"}}}}",
                    us(cursor_ns),
                    g.round,
                ),
            );
        }
        out.push_str("]}");
        out
    }

    /// A compact per-round CSV (microsecond durations).
    pub fn rounds_csv(&self) -> String {
        let mut out =
            String::from("round,frontier,stepped,joins,delta_width,rebuild,step_us,join_us\n");
        for r in &self.rounds {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.3},{:.3}",
                r.round,
                r.frontier,
                r.stepped,
                r.joins,
                r.delta_width,
                r.rebuild,
                r.step_ns as f64 / 1000.0,
                r.join_ns as f64 / 1000.0
            );
        }
        out
    }

    /// A human-readable profile: phase split, the costliest rounds and the
    /// top-`k` hot states and addresses.
    pub fn profile_summary(&self, k: usize) -> String {
        let totals = self.phase_totals();
        let wall = totals.wall_ns().max(1);
        let pct = |ns: u64| ns as f64 * 100.0 / wall as f64;
        let ms = |ns: u64| ns as f64 / 1e6;
        let rebuilds = self.rounds.iter().filter(|r| r.rebuild).count();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rounds={} (rebuilds={})  wall={:.3}ms  step={:.3}ms ({:.1}%)  join={:.3}ms ({:.1}%)",
            self.rounds.len(),
            rebuilds,
            ms(wall),
            ms(totals.step_ns),
            pct(totals.step_ns),
            ms(totals.join_ns),
            pct(totals.join_ns),
        );
        let mut costly: Vec<&RoundTrace> = self.rounds.iter().collect();
        costly.sort_by_key(|r| std::cmp::Reverse(r.wall_ns()));
        costly.truncate(k);
        if !costly.is_empty() {
            let _ = writeln!(out, "costliest rounds:");
            for r in costly {
                let _ = writeln!(
                    out,
                    "  round {:>4}: frontier={:<6} stepped={:<6} joins={:<6} delta={:<5} {}step={:.3}ms join={:.3}ms",
                    r.round,
                    r.frontier,
                    r.stepped,
                    r.joins,
                    r.delta_width,
                    if r.rebuild { "REBUILD " } else { "" },
                    ms(r.step_ns),
                    ms(r.join_ns),
                );
            }
        }
        if !self.governor_events.is_empty() {
            let _ = writeln!(out, "governance:");
            for g in &self.governor_events {
                let _ = writeln!(
                    out,
                    "  after round {}: budget exhausted ({})",
                    g.round, g.reason
                );
            }
        }
        let hot_states = self.top_states(k);
        if !hot_states.is_empty() {
            let _ = writeln!(out, "hot states (by cumulative step cost):");
            for h in hot_states {
                let _ = writeln!(
                    out,
                    "  {:.3}ms over {:>4} steps  {}",
                    ms(h.total_ns),
                    h.steps,
                    h.label
                );
            }
        }
        let hot_addrs = self.top_addresses(k);
        if !hot_addrs.is_empty() {
            let _ = writeln!(out, "hot addresses (by join traffic):");
            for h in hot_addrs {
                let _ = writeln!(
                    out,
                    "  {:>5} joins ({:>4} grew)  {}",
                    h.joins, h.grew, h.label
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_buffer() -> TraceBuffer {
        let mut buf = TraceBuffer::new();
        buf.round(RoundTrace {
            round: 1,
            frontier: 1,
            stepped: 1,
            joins: 1,
            delta_width: 2,
            rebuild: false,
            step_ns: 1_000,
            join_ns: 500,
        });
        buf.round(RoundTrace {
            round: 2,
            frontier: 3,
            stepped: 4,
            joins: 4,
            delta_width: 1,
            rebuild: true,
            step_ns: 2_000,
            join_ns: 1_000,
        });
        buf.state_cost("St(1)", 700);
        buf.state_cost("St(1)", 300);
        buf.state_cost("St(2)", 400);
        buf.join_traffic("a0", true);
        buf.join_traffic("a0", false);
        buf.join_traffic("a1", true);
        buf
    }

    #[test]
    fn noop_sink_is_disabled_and_inert() {
        let mut sink = NoopSink;
        assert!(!sink.enabled());
        sink.round(RoundTrace::default());
        sink.state_cost("x", 1);
        sink.join_traffic("a", true);
    }

    #[test]
    fn stopwatch_is_inert_when_unarmed() {
        let mut inert = Stopwatch::start(false);
        assert_eq!(inert.lap_ns(), 0);
        let mut armed = Stopwatch::start(true);
        std::hint::black_box(0u64);
        let first = armed.lap_ns();
        let second = armed.lap_ns();
        // Laps restart: the second lap does not include the first.
        assert!(first + second >= second);
    }

    #[test]
    fn buffer_aggregates_costs_and_traffic() {
        let buf = sample_buffer();
        let totals = buf.phase_totals();
        assert_eq!(totals.step_ns, 3_000);
        assert_eq!(totals.join_ns, 1_500);
        assert_eq!(totals.wall_ns(), 4_500);

        let hot = buf.top_states(10);
        assert_eq!(hot[0].label, "St(1)");
        assert_eq!(hot[0].steps, 2);
        assert_eq!(hot[0].total_ns, 1_000);
        assert_eq!(buf.top_states(1).len(), 1);

        let addrs = buf.top_addresses(10);
        assert_eq!(addrs[0].label, "a0");
        assert_eq!(addrs[0].joins, 2);
        assert_eq!(addrs[0].grew, 1);
    }

    #[test]
    fn chrome_trace_contains_all_phases_and_spans() {
        let mut buf = sample_buffer();
        buf.governor(GovernorTrace {
            round: 2,
            reason: ExhaustReason::StepBudget,
        });
        let json = buf.chrome_trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\":\"round 1 step\",\"cat\":\"step\""));
        assert!(json.contains("\"name\":\"round 2 join\",\"cat\":\"join\""));
        assert!(json.contains("\"cat\":\"governor\""));
        assert!(json.contains("\"detail\":\"steps\""));
    }

    #[test]
    fn csv_has_one_line_per_round() {
        let csv = sample_buffer().rounds_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("round,frontier"));
        assert!(lines[1].starts_with("1,1,1,1,2,false,"));
        assert!(lines[2].starts_with("2,3,4,4,1,true,"));
    }

    #[test]
    fn profile_summary_mentions_every_section() {
        let summary = sample_buffer().profile_summary(5);
        assert!(summary.contains("rounds=2 (rebuilds=1)"));
        assert!(summary.contains("costliest rounds"));
        assert!(summary.contains("hot states"));
        assert!(summary.contains("hot addresses"));
        assert!(summary.contains("St(1)"));
    }

    #[test]
    fn labels_truncate_on_char_boundaries() {
        assert_eq!(label_of(&7u32, 16), "7");
        let long = label_of(&"αβγδεζηθικλμ", 4);
        assert!(long.ends_with('…'));
        assert!(long.chars().count() <= 5);
    }
}
