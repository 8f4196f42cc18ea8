//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--paper] [--micro] [--seed N] [--out DIR] [--solvers LIST]
//!       [--threads N|serial|auto] [--queue binary|quaternary|dial|auto]
//!       [--augment batched|per-edge] [--shards N] <artifact>...
//!
//! artifacts: fig1 table2 fig2 table4 fig3 fig4 fig5 fig6
//!            table7 table8 fig7 fig8 fig9 fig10 fig11
//!            fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19
//!            part-one evaluation sensitivity sweep replay fleet all
//! ```
//!
//! Tables print to stdout and are written as CSV; figures are written as
//! long-format CSV under `--out` (default `./repro-out`) with a terminal
//! sketch printed. `--paper` switches from the fast shape-preserving
//! instances to full paper scale (Scenario B then takes a long time);
//! `--micro` shrinks to the bench-sized instances (used by the CI smoke
//! jobs). The `sweep` artifact runs the whole scenario registry through
//! the selected solvers (`--solvers`, default all four; see
//! `docs/WORKLOADS.md`) and writes `sweep.csv` / `sweep.json`. The
//! `replay` artifact drives every churn-bearing scenario through the
//! `omcf-runtime` event loop, self-checks the final rates bit-for-bit
//! against the batch online solver, and writes `replay.csv` /
//! `replay_drift.csv` (see `docs/RUNTIME.md`). The `fleet` artifact runs
//! every churn-bearing scenario as a sharded multi-overlay fleet
//! (`--shards` per scenario) with crash-recovery and solo-equality
//! self-checks, writing `fleet.csv` (see `docs/FLEET.md`). Unknown
//! artifact names are rejected up front — a typo aborts the run instead
//! of silently no-opping it.
//!
//! `--threads` picks the execution policy for every parallel region
//! (sweep cells, member fan-outs, drift evaluation): a positive count,
//! `serial`, or `auto` (all cores). Precedence: the flag beats the
//! `OMCF_THREADS` environment variable, which beats the `auto` default.
//! Every artifact is byte-identical under every policy — threads change
//! wall-clock time only (see docs/PERF.md).
//!
//! `--queue` pins the priority-queue discipline of every oracle Dijkstra
//! (default `binary`; `auto` calibrates Dial vs. binary per run from the
//! live length distribution). Like `--threads`, it can never change a
//! byte of any artifact — all disciplines compute bit-identical trees —
//! so it exists purely to measure and exploit constant-factor differences
//! (see docs/PERF.md).
//!
//! `--augment` picks how the solver engine applies length growth
//! (default `batched`: a phase's updates are deferred and applied in one
//! CSR sweep at the next length read; `per-edge` writes each update
//! immediately, the pre-batching behaviour). The per-edge float-op
//! sequence is preserved verbatim either way, so — like `--threads` and
//! `--queue` — the choice can never change a byte of any artifact (see
//! docs/ENGINE.md).

use omcf_core::solver::SolverKind;
use omcf_core::{AugmentMode, Parallelism};
use omcf_routing::QueueKind;
use omcf_runtime::{replay_churn, ReplayConfig};
use omcf_sim::experiments::{evaluation, fig1, part_one, sensitivity, Config};
use omcf_sim::figures::Figure;
use omcf_sim::registry;
use omcf_sim::scenarios::Scale;
use omcf_sim::sweep::{run_sweep, SweepConfig};
use omcf_sim::tables::{GridSurface, RatioTable};
use omcf_telemetry::stats;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

struct Cli {
    cfg: Config,
    out: PathBuf,
    artifacts: Vec<String>,
    solvers: Vec<SolverKind>,
    parallelism: Parallelism,
    queue: QueueKind,
    augment: AugmentMode,
    /// `Some(path)` turns telemetry collection on and writes the profile
    /// JSON there at exit (bare `--profile` defaults to
    /// `<out>/profile.json`).
    profile: Option<PathBuf>,
    log_level: omcf_telemetry::LogLevel,
    /// Shards per scenario for the `fleet` artifact.
    shards: usize,
}

/// Every artifact name `repro` accepts, in presentation order.
const ARTIFACTS: &[&str] = &[
    "fig1",
    "table2",
    "fig2",
    "table4",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table7",
    "table8",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "part-one",
    "evaluation",
    "sensitivity",
    "sweep",
    "replay",
    "fleet",
    "all",
];

fn parse_args() -> Cli {
    let mut cfg = Config::default();
    let mut out = PathBuf::from("repro-out");
    let mut artifacts = Vec::new();
    let mut solvers = SolverKind::ALL.to_vec();
    let mut threads_flag: Option<Parallelism> = None;
    let mut queue = QueueKind::Binary;
    let mut augment = AugmentMode::Batched;
    // Inner Option is the explicit `--profile=PATH` target; outer Some
    // means profiling was requested at all (bare `--profile` resolves to
    // `<out>/profile.json` once `--out` is known).
    let mut profile: Option<Option<PathBuf>> = None;
    let mut log_level = omcf_telemetry::LogLevel::Info;
    let mut shards = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--profile" => profile = Some(None),
            "--verbose" => log_level = omcf_telemetry::LogLevel::Verbose,
            "--quiet" => log_level = omcf_telemetry::LogLevel::Quiet,
            "--threads" => {
                let value = args.next().unwrap_or_else(|| {
                    die(&format!("--threads needs a value: {}", Parallelism::VOCABULARY))
                });
                threads_flag = Some(Parallelism::parse(&value).unwrap_or_else(|e| die(&e)));
            }
            "--queue" => {
                let value = args.next().unwrap_or_else(|| {
                    die(&format!("--queue needs a value: {}", QueueKind::VOCABULARY))
                });
                queue = QueueKind::parse(&value).unwrap_or_else(|| {
                    die(&format!("unknown queue `{value}`; valid kinds: {}", QueueKind::VOCABULARY))
                });
            }
            "--augment" => {
                let value = args.next().unwrap_or_else(|| {
                    die(&format!("--augment needs a value: {}", AugmentMode::VOCABULARY))
                });
                augment = AugmentMode::parse(&value).unwrap_or_else(|| {
                    die(&format!(
                        "unknown augment `{value}`; valid kinds: {}",
                        AugmentMode::VOCABULARY
                    ))
                });
            }
            "--shards" => {
                shards =
                    args.next().and_then(|s| s.parse().ok()).filter(|&n| n > 0).unwrap_or_else(
                        || die("--shards needs a positive shard count such as `4`"),
                    );
            }
            "--paper" => cfg.scale = Scale::Paper,
            "--micro" => cfg.scale = Scale::Micro,
            "--seed" => {
                cfg.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--solvers" => {
                let list = args.next().unwrap_or_else(|| die("--solvers needs a list"));
                solvers = list
                    .split(',')
                    .map(|tok| {
                        SolverKind::parse(tok).unwrap_or_else(|| {
                            die(&format!(
                                "unknown solver `{tok}`; valid solvers: {}",
                                SolverKind::name_list()
                            ))
                        })
                    })
                    .collect();
                if solvers.is_empty() {
                    die("--solvers needs at least one name");
                }
            }
            "--help" | "-h" => {
                println!("{}", HELP);
                std::process::exit(0);
            }
            other if other.starts_with("--profile=") => {
                profile = Some(Some(PathBuf::from(&other["--profile=".len()..])));
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            other => artifacts.push(other.to_string()),
        }
    }
    if artifacts.is_empty() {
        artifacts.push("all".to_string());
    }
    for a in &artifacts {
        if !ARTIFACTS.contains(&a.as_str()) {
            die(&format!("unknown artifact `{a}`; valid artifacts: {}", ARTIFACTS.join(" ")));
        }
    }
    // Precedence: --threads beats OMCF_THREADS beats the Auto default
    // (a malformed env value is still an error even when the flag wins,
    // so typos in CI configs fail loudly).
    let env_policy = Parallelism::from_env().unwrap_or_else(|e| die(&e));
    let parallelism = threads_flag.unwrap_or(env_policy);
    let profile = profile.map(|p| p.unwrap_or_else(|| out.join("profile.json")));
    Cli { cfg, out, artifacts, solvers, parallelism, queue, augment, profile, log_level, shards }
}

const HELP: &str = "repro [--paper] [--micro] [--seed N] [--out DIR] [--solvers LIST] \
     [--threads N|serial|auto] [--queue binary|quaternary|dial|auto] \
     [--augment batched|per-edge] [--shards N] [--profile[=PATH]] \
     [--verbose|--quiet] <artifact>...\n\
  artifacts: fig1 table2 fig2 table4 fig3 fig4 fig5 fig6 table7 table8\n\
             fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16\n\
             fig17 fig18 fig19 part-one evaluation sensitivity sweep replay\n\
             fleet all\n\
  --solvers: comma-separated subset of the sweep solvers (case-insensitive)\n\
  --threads: execution policy for parallel regions (default auto; flag beats\n\
             the OMCF_THREADS env var). Output bytes never depend on it.\n\
  --queue:   priority-queue discipline for oracle Dijkstras (default binary).\n\
             Output bytes never depend on it either.\n\
  --augment: length-update application in the solver engine (default\n\
             batched). Bit-invisible too: per-edge float ops are identical.\n\
  --shards:  shards per scenario for the fleet artifact (default 4). Like\n\
             --threads, it is echoed in the run header; unlike --threads,\n\
             it changes the artifact (more shards = more overlays).\n\
  --profile: enable telemetry, print the TELEMETRY section (count-class\n\
             view, then wall-class oracle-cache lines), and write the\n\
             profile JSON (default <out>/profile.json). Collection never\n\
             changes artifact bytes; see docs/OBSERVABILITY.md.\n\
  --verbose: extra per-artifact diagnostics on stderr.\n\
  --quiet:   suppress informational lines; artifact payloads still print.";

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}\n{HELP}");
    std::process::exit(2);
}

fn emit_table(out: &Path, name: &str, t: &RatioTable) {
    println!("{}", t.render());
    std::fs::create_dir_all(out).expect("create out dir");
    let path = out.join(format!("{name}.csv"));
    std::fs::write(&path, t.to_csv()).expect("write table csv");
    omcf_telemetry::info!("  -> {}", path.display());
}

fn emit_figures(out: &Path, figs: &[Figure]) {
    for f in figs {
        println!("{}", f.sketch(6));
        let path = f.write_csv(out).expect("write figure csv");
        omcf_telemetry::info!("  -> {}", path.display());
    }
}

fn emit_surface(out: &Path, name: &str, s: &GridSurface) {
    println!("{}", s.render());
    std::fs::create_dir_all(out).expect("create out dir");
    let path = out.join(format!("{name}.csv"));
    std::fs::write(&path, s.to_csv()).expect("write surface csv");
    omcf_telemetry::info!("  -> {}", path.display());
}

fn main() {
    let cli = parse_args();
    let cfg = &cli.cfg;
    let out = &cli.out;
    omcf_telemetry::set_log_level(cli.log_level);
    if cli.profile.is_some() {
        // Enable + clear before any instrumented work so the profile
        // covers exactly this invocation.
        omcf_telemetry::set_enabled(true);
        omcf_telemetry::reset();
    }
    // Size the shim's lazily-built global pool to the chosen policy so
    // the experiments modules' bare `par_iter` calls follow it too (the
    // sweep/fan-out/replay paths carry the policy explicitly). First
    // initialization wins, so this must happen before any parallel work.
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(cli.parallelism.effective_threads().get())
        .build_global();
    // Pin the oracle queue discipline before any oracle is constructed
    // (first set wins process-wide).
    let _ = QueueKind::set_process_default(cli.queue);
    // Pin the engine's augment-application mode before any solve. Every
    // engine reads the default at construction.
    AugmentMode::set_process_default(cli.augment);
    let t0 = std::time::Instant::now();
    omcf_telemetry::info!(
        "# repro scale={:?} seed={} threads={} queue={} augment={} shards={} out={}\n",
        cfg.scale,
        cfg.seed,
        cli.parallelism.label(),
        cli.queue.name(),
        cli.augment.name(),
        cli.shards,
        out.display()
    );
    omcf_telemetry::verbose!(
        "repro: artifacts=[{}] solvers=[{}] profile={}",
        cli.artifacts.join(" "),
        cli.solvers.iter().map(|s| s.name()).collect::<Vec<_>>().join(","),
        cli.profile.as_deref().map_or_else(|| "off".to_string(), |p| p.display().to_string())
    );

    let mut eval_cache: Option<evaluation::EvalResults> = None;
    let mut eval = |cfg: &Config| -> evaluation::EvalResults {
        eval_cache.get_or_insert_with(|| evaluation::evaluation(cfg)).clone()
    };

    let wants = |cli: &Cli, names: &[&str]| {
        cli.artifacts.iter().any(|a| {
            names.contains(&a.as_str())
                || a == "all"
                || (a == "part-one"
                    && names.iter().any(|n| {
                        n.starts_with("table2")
                            || n.starts_with("fig1-")
                            || matches!(
                                *n,
                                "fig2"
                                    | "table4"
                                    | "fig3"
                                    | "fig4"
                                    | "fig5"
                                    | "fig6"
                                    | "table7"
                                    | "table8"
                                    | "fig7"
                                    | "fig8"
                                    | "fig9"
                                    | "fig10"
                                    | "fig11"
                                    | "fig1"
                            )
                    }))
                || (a == "evaluation"
                    && matches!(
                        *names.first().unwrap(),
                        "fig12"
                            | "fig13"
                            | "fig14"
                            | "fig15"
                            | "fig16"
                            | "fig17"
                            | "fig18"
                            | "fig19"
                    ))
        })
    };

    if wants(&cli, &["fig1"]) {
        println!("{}", fig1::fig1().report);
    }
    if cli.artifacts.iter().any(|a| a == "sensitivity" || a == "all") {
        let results = sensitivity::topology_sensitivity(cfg);
        println!("{}", sensitivity::render_sensitivity(&results));
        let v = sensitivity::seed_variance(cfg, 5);
        println!(
            "seed variance over {:?}: throughput {:.1} ± {:.1}, fairness ratio {:.3} ± {:.3}\n",
            v.seeds,
            v.throughput.mean,
            v.throughput.std_dev,
            v.fairness_ratio.mean,
            v.fairness_ratio.std_dev
        );
    }
    if wants(&cli, &["table2"]) {
        emit_table(out, "table2", &part_one::table2(cfg));
    }
    if wants(&cli, &["fig2"]) {
        emit_figures(out, &part_one::fig2(cfg));
    }
    if wants(&cli, &["table4"]) {
        emit_table(out, "table4", &part_one::table4(cfg));
    }
    if wants(&cli, &["fig3"]) {
        emit_figures(out, &part_one::fig3(cfg));
    }
    if wants(&cli, &["fig4"]) {
        emit_figures(out, &part_one::fig4(cfg));
    }
    if wants(&cli, &["fig5", "fig6"]) {
        let r = part_one::fig5_6(cfg);
        emit_figures(out, &[r.throughput, r.session2_rate, r.trees_session1, r.trees_session2]);
    }
    if wants(&cli, &["table7"]) {
        emit_table(out, "table7", &part_one::table7(cfg));
    }
    if wants(&cli, &["table8"]) {
        emit_table(out, "table8", &part_one::table8(cfg));
    }
    if wants(&cli, &["fig7", "fig8", "fig9", "fig10", "fig11"]) {
        let (f7, f8, f9, f10_11) = part_one::fig7_to_11(cfg);
        emit_figures(out, &f7);
        emit_figures(out, &f8);
        emit_figures(out, &f9);
        emit_figures(
            out,
            &[
                f10_11.throughput,
                f10_11.session2_rate,
                f10_11.trees_session1,
                f10_11.trees_session2,
            ],
        );
    }
    if wants(&cli, &["fig12"]) {
        emit_surface(out, "fig12", &eval(cfg).fig12_throughput);
    }
    if wants(&cli, &["fig13"]) {
        emit_surface(out, "fig13", &eval(cfg).fig13_edges_per_node);
    }
    if wants(&cli, &["fig14"]) {
        emit_figures(out, &evaluation::fig14(cfg));
    }
    if wants(&cli, &["fig15"]) {
        emit_surface(out, "fig15", &eval(cfg).fig15_min_rate);
    }
    if wants(&cli, &["fig16"]) {
        emit_surface(out, "fig16", &eval(cfg).fig16_throughput_ratio);
    }
    if wants(&cli, &["fig17"]) {
        emit_figures(out, &evaluation::fig17(cfg));
    }
    if wants(&cli, &["fig18"]) {
        let e = eval(cfg);
        for (i, s) in e.fig18_online_throughput_ratio.iter().enumerate() {
            emit_surface(out, &format!("fig18-{}trees", e.online_budgets[i]), s);
        }
    }
    if wants(&cli, &["fig19"]) {
        let e = eval(cfg);
        for (i, s) in e.fig19_online_minrate_ratio.iter().enumerate() {
            emit_surface(out, &format!("fig19-{}trees", e.online_budgets[i]), s);
        }
    }
    if cli.artifacts.iter().any(|a| a == "sweep" || a == "all") {
        let mut sweep_cfg =
            SweepConfig::full(cfg.scale, vec![cfg.seed]).with_parallelism(cli.parallelism);
        sweep_cfg.solvers = cli.solvers.clone();
        let res = run_sweep(&sweep_cfg);
        omcf_telemetry::info!("== Scenario sweep ({} cells) ==", res.records.len());
        println!("{}", res.render());
        std::fs::create_dir_all(out).expect("create out dir");
        let csv_path = out.join("sweep.csv");
        std::fs::write(&csv_path, res.to_csv()).expect("write sweep csv");
        omcf_telemetry::info!("  -> {}", csv_path.display());
        let json_path = out.join("sweep.json");
        std::fs::write(&json_path, res.to_json()).expect("write sweep json");
        omcf_telemetry::info!("  -> {}", json_path.display());
    }
    if cli.artifacts.iter().any(|a| a == "replay" || a == "all") {
        emit_replay(cfg, out, cli.parallelism);
    }
    if cli.artifacts.iter().any(|a| a == "fleet" || a == "all") {
        emit_fleet(cfg, out, cli.shards, cli.parallelism);
    }

    if let Some(profile_path) = &cli.profile {
        emit_profile(out, profile_path);
    }
    omcf_telemetry::info!("\n# done in {:.1}s", t0.elapsed().as_secs_f64());
}

/// The `--profile` epilogue: snapshot the run's telemetry, print the
/// TELEMETRY section (the deterministic, `Class::Count` view — what CI
/// can diff) followed by the wall-class oracle-cache lines, and write the
/// full profile JSON (wall-clock metrics and span timings included)
/// through the sorted-key writer.
fn emit_profile(out: &Path, profile_path: &Path) {
    let snap = omcf_telemetry::snapshot();
    println!("== TELEMETRY (count-class metrics; see docs/OBSERVABILITY.md) ==");
    print!("{}", snap.deterministic_view());
    // Cache health: interleaving-dependent under shared oracles, so kept
    // out of the diffable view above, but the first thing to read when an
    // oracle-bound solve is slow.
    println!("== TELEMETRY wall-class (oracle cache; not diffable across runs) ==");
    for counter in [
        &stats::ORACLE_BYPASSED,
        &stats::ORACLE_DYNAMIC_HITS,
        &stats::ORACLE_DYNAMIC_MISSES,
        &stats::ORACLE_FIXED_HITS,
        &stats::ORACLE_FIXED_MISSES,
    ] {
        println!("counter {} {}", counter.name(), counter.value());
    }
    if let Some(dir) = profile_path.parent() {
        // The default target lives under --out, which may not exist yet
        // when only stdout artifacts were requested.
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create profile dir");
        }
    } else {
        std::fs::create_dir_all(out).expect("create out dir");
    }
    let json = omcf_telemetry::render_profile_json(&snap);
    std::fs::write(profile_path, json).expect("write profile json");
    omcf_telemetry::info!("  -> {}", profile_path.display());
}

/// The `replay` artifact: every churn-bearing registry scenario through
/// the `omcf-runtime` event loop with drift checkpoints every 4 events
/// (evaluated under `parallelism`), self-checked bit-for-bit against the
/// batch online solver on the same trace. Writes a per-scenario summary
/// (`replay.csv`) and the combined drift time series
/// (`replay_drift.csv`).
/// The `fleet` artifact: every churn-bearing scenario as a fleet of
/// `shards` independent overlay shards with interleaved ingestion,
/// backpressure, and built-in crash-recovery + determinism self-checks
/// (see `omcf_sim::fleet` and `docs/FLEET.md`). Writes the per-shard
/// summary (`fleet.csv`), byte-identical under every `--threads` policy.
fn emit_fleet(cfg: &Config, out: &Path, shards: usize, parallelism: Parallelism) {
    omcf_telemetry::info!(
        "== Fleet ({} shards per scenario, drive policy {}) ==",
        shards,
        parallelism.label()
    );
    let run_cfg =
        omcf_sim::FleetRunConfig { shards, seed: cfg.seed, scale: cfg.scale, parallelism };
    let res = omcf_sim::run_fleet(&run_cfg);
    println!("{}", res.render());
    std::fs::create_dir_all(out).expect("create out dir");
    let csv_path = out.join("fleet.csv");
    std::fs::write(&csv_path, res.to_csv()).expect("write fleet csv");
    omcf_telemetry::info!("  -> {}", csv_path.display());
}

fn emit_replay(cfg: &Config, out: &Path, parallelism: Parallelism) {
    let mut summary = String::from(
        "scenario,seed,events,joins,leaves,survivors,min_rate,total_rate,max_drift,mst_ops\n",
    );
    let mut drift = String::from(
        "scenario,seed,event_index,live_sessions,runtime_congestion,batch_congestion,drift\n",
    );
    omcf_telemetry::info!("== Runtime replay (churn-bearing scenarios) ==");
    println!(
        "{:<16} {:>6} {:>7} {:>10} {:>9} {:>10} {:>10}",
        "scenario", "seed", "events", "survivors", "min_rate", "max_drift", "batch"
    );
    for spec in registry::churn_bearing() {
        omcf_telemetry::verbose!("replay: scenario {} seed {}", spec.name, cfg.seed);
        let inst = spec.instance(cfg.seed, cfg.scale);
        let churn = inst.churn.as_ref().expect("churn-bearing scenario carries a trace");
        let replay_cfg = ReplayConfig::new(inst.rho, inst.routing)
            .with_reopt_every(4)
            .with_parallelism(parallelism);
        let report = replay_churn(std::sync::Arc::clone(&inst.graph), churn, &replay_cfg);

        // Self-check: incremental replay must be bit-identical to the
        // cold batch online solve of the same trace.
        let batch = SolverKind::Online.solver().run(&inst);
        assert_eq!(report.final_rates.len(), batch.summary.session_rates.len(), "{}", spec.name);
        for ((_, r), b) in report.final_rates.iter().zip(&batch.summary.session_rates) {
            assert_eq!(
                r.to_bits(),
                b.to_bits(),
                "{}: replay diverged from the batch online solver ({r} vs {b})",
                spec.name
            );
        }

        let _ = writeln!(
            summary,
            "{},{},{},{},{},{},{},{},{},{}",
            spec.name,
            cfg.seed,
            report.events,
            report.joins,
            report.leaves,
            report.final_rates.len(),
            report.min_rate(),
            report.total_rate(),
            report.max_drift(),
            report.mst_ops
        );
        for s in &report.drift {
            let _ = writeln!(
                drift,
                "{},{},{},{},{},{},{}",
                spec.name,
                cfg.seed,
                s.event_index,
                s.live_sessions,
                s.runtime_congestion,
                s.batch_congestion,
                s.drift
            );
        }
        println!(
            "{:<16} {:>6} {:>7} {:>10} {:>9.3} {:>10.3} {:>10}",
            spec.name,
            cfg.seed,
            report.events,
            report.final_rates.len(),
            report.min_rate(),
            report.max_drift(),
            "ok(bit=)"
        );
    }
    std::fs::create_dir_all(out).expect("create out dir");
    let summary_path = out.join("replay.csv");
    std::fs::write(&summary_path, summary).expect("write replay csv");
    omcf_telemetry::info!("  -> {}", summary_path.display());
    let drift_path = out.join("replay_drift.csv");
    std::fs::write(&drift_path, drift).expect("write replay drift csv");
    omcf_telemetry::info!("  -> {}", drift_path.display());
}
