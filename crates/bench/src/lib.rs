//! The benchmark suite: each target under `benches/` times one layer and
//! writes its `BENCH_*.json` at the workspace root, which
//! `scripts/bench_check` compares against the committed numbers. The
//! shape-faithful regeneration of each table and figure is the `repro`
//! binary's job (`cargo run --release -p omcf-sim --bin repro`).
