//! # perfbench — the analysis pipeline, end to end and layer by layer
//!
//! Each workload feeds seeded, generated source text through the public
//! API one program at a time — parse (and CPS-convert or type-check where
//! the language needs it), solve on the sequential direct engine, query,
//! check the answers against closed-form references — in a closed loop
//! with one client.  Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cps-wide --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! * `--trace 0` reports the end-to-end metrics:
//!   `latency_yardsticks.p50` and `latency_yardsticks.p90` (one program
//!   from source text to checked answers, in units of the [`yardstick`]
//!   timed around it), `states_per_yardstick` (fixpoint states of a pass
//!   over the set divided by the median pass's cost in yardsticks),
//!   `peak_rss_mb` (the process's high-water mark; one process per
//!   workload) and `setup_s` (the median of [`bench::SETUP_REPS`]
//!   set-ups, each generating and printing the sources and making one
//!   cold pass, with the concrete checks, outside the latency samples).
//!   The same timings in wall-clock seconds — `latency_s.p50`,
//!   `latency_s.p90`, `states_per_s` and the yardstick's own
//!   `yardstick_s` — are printed above the result line for the reader
//!   but not reported: the shared host's speed drifts by tens of percent
//!   over minutes, so two runs of the same code differ in seconds by more
//!   than any useful bound, while the yardstick ratios stay within a few
//!   percent.
//! * `--trace 1` reports the per-layer metrics: the main run's outside
//!   timers and exact `EngineStats` counts per pass over the program set,
//!   then a separate traced pass ([`bench::TRACE_REPS`] passes) whose
//!   spans give the semantics / gc / fold / engine split, whose solves
//!   must reproduce the untraced work counters, and whose spans are
//!   written at the end to `perfbench-spans-<workload>.json` in
//!   `$CARGO_TARGET_DIR` (default `perfbench/target`).
//!
//! Set-up is real work — a cold pass over the whole set — rather than the
//! millisecond-scale source generation alone, whose jitter made an
//! earlier benchmark's `setup_s` unusable.
//!
//! Which end-to-end metric each layer should move, and where:
//!
//! * `semantics.*` moves `states_per_yardstick` and p50 on cps-mono, barely on
//!   cps-gc;
//! * `engine.reenqueued`, `engine.step_yield`, `engine.other_s`,
//!   `store.fold_s`, `store.join_yield` and `intern.hit_ratio` move
//!   `states_per_yardstick` on cps-wide (a read journal should not move cps-gc,
//!   whose garbage-collected branches keep the reachability closure);
//! * `store.bytes_shared` and `store.spine_clones` move `peak_rss_mb` on
//!   cps-wide;
//! * `gc.s` moves latency on cps-gc only;
//! * `parse.s`, `convert.s` and `typecheck.s` move p50 on lang-mix only,
//!   and by little: parsing is milliseconds against solves of tens;
//! * `query.s` moves p90 on cps-wide, at about 1% of latency.

pub mod bench;
pub mod gen;
pub mod lang;
pub mod reference;
pub mod trace;
pub mod workload;
pub mod yardstick;
