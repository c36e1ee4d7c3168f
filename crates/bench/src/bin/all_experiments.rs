//! Runs every experiment of the paper and regenerates `EXPERIMENTS.md`
//! with measured-vs-paper values.
//!
//! ```text
//! cargo run --release -p cast-bench --bin all_experiments
//! ```
//!
//! The experiments are mutually independent, so they run concurrently on
//! scoped threads. Determinism is preserved by construction: every
//! experiment is seeded and self-contained, the shared profiling cache is
//! warmed once before any thread spawns, and the main thread joins, prints
//! and saves results in the fixed spawn order — so `EXPERIMENTS.md`, the
//! console markers and every `results/*.json` byte are identical to a
//! sequential run.

use std::fmt::Write as _;
use std::fs;

use cast_bench::experiments::*;
use cast_bench::{expected, ExperimentIo};

/// One experiment's rendered output: a markdown section and the JSON
/// payloads to persist under `results/`. Workers only compute; the main
/// thread does all printing and file writes, in spawn order.
struct Section {
    md: String,
    json: Vec<(&'static str, serde_json::Value)>,
}

type Task = Box<dyn FnOnce() -> Section + Send>;

fn run_table1() -> Section {
    let t1 = table1::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", t1.render());
    let _ = writeln!(
        md,
        "Paper: Table 1 verbatim (measured fio/gsutil values). Matches by\n\
         construction; persSSD/persHDD throughput points agree within 3 %.\n"
    );
    Section {
        md,
        json: vec![("table1", t1.to_json())],
    }
}

fn run_table2() -> Section {
    let t2 = table2::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", t2.render());
    Section {
        md,
        json: vec![("table2", t2.to_json())],
    }
}

fn run_table4() -> Section {
    let t4 = table4::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", t4.render());
    let _ = writeln!(
        md,
        "Paper: 100 jobs in bins of 1/5/10/50/500/1500/3000 maps\n\
         (35/22/16/13/7/4/3 jobs). Reproduced exactly; >94 % of bytes in bins 5–7\n\
         (paper: >99 % with its trace's exact sizes).\n"
    );
    Section {
        md,
        json: vec![("table4", t4.to_json())],
    }
}

fn run_fig1() -> Section {
    let f1 = fig1::run();
    let winners = fig1::winners();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f1.render());
    let _ = writeln!(
        md,
        "Best-utility tier per application (paper → measured):\n"
    );
    for ((app, tier), (p_app, p_tier)) in winners.iter().zip(expected::FIG1_BEST_UTILITY) {
        let _ = writeln!(
            md,
            "- {p_app}: paper **{p_tier}** → measured **{}** {}",
            tier.name(),
            if tier.name() == p_tier { "✓" } else { "✗" }
        );
        debug_assert_eq!(app.name(), p_app);
    }
    let _ = writeln!(
        md,
        "\nGrep's objStore-over-persSSD utility margin: paper 34.3 %; measured\n\
         value printed in the table above (same order of magnitude).\n"
    );
    Section {
        md,
        json: vec![("fig1", f1.to_json())],
    }
}

fn run_fig2() -> Section {
    let f2 = fig2::run();
    let (sort_red, grep_red) = fig2::reduction_100_to_200();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f2.render());
    let _ = writeln!(
        md,
        "100→200 GB/VM runtime reduction: Sort {:.1} % (paper {:.1} %), Grep\n\
         {:.1} % (paper {:.1} %); gains beyond 500 GB/VM are marginal as the\n\
         per-VM throughput ceiling and per-task framework overheads take over,\n\
         matching the paper's saturation narrative.\n",
        sort_red * 100.0,
        expected::FIG2_SORT_REDUCTION_100_TO_200 * 100.0,
        grep_red * 100.0,
        expected::FIG2_GREP_REDUCTION_100_TO_200 * 100.0,
    );
    Section {
        md,
        json: vec![("fig2", f2.to_json())],
    }
}

fn run_fig3() -> Section {
    let f3 = fig3::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f3.render());
    let _ = writeln!(
        md,
        "Paper claims reproduced: ephSSD wins 1-hour reuse for the I/O\n\
         applications (staging amortised over 7 accesses); objStore becomes the\n\
         tier of choice for Sort at week-long retention; CPU-bound KMeans stays\n\
         with persHDD under every pattern. Week-long retention on ephSSD rents\n\
         the whole fleet for the week (§3.2), which is why every persistent tier\n\
         dwarfs it in that column.\n"
    );
    Section {
        md,
        json: vec![("fig3", f3.to_json())],
    }
}

fn run_fig4() -> Section {
    let f4 = fig4::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f4.render());
    let _ = writeln!(
        md,
        "Shape as in the paper: both single-service plans miss the deadline,\n\
         both hybrids meet it, and `objStore+ephSSD` is the fastest plan.\n\
         Deviation: the paper's three-tier hybrid was ~7 % *cheaper* than\n\
         `objStore+ephSSD`; in our VM-dominated cost model its extra runtime\n\
         makes it slightly pricier instead.\n"
    );
    Section {
        md,
        json: vec![("fig4", f4.to_json())],
    }
}

fn run_fig5() -> Section {
    let (f5a, f5b) = fig5::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n```\n{}```\n", f5a.render(), f5b.render());
    let _ = writeln!(
        md,
        "The all-or-nothing argument reproduces: a 50/50 split is dominated by\n\
         the slow tier, and even 90 % of blocks on ephSSD leaves runtime at\n\
         ~2.5× the all-fast case. Deviation: our persHDD-100 % extreme is far\n\
         worse than the paper's ~430 % because the minimally-provisioned 100 GB\n\
         HDD volume (20 MB/s) is slower than whatever volume backed theirs.\n"
    );
    Section {
        md,
        json: vec![("fig5a", f5a.to_json()), ("fig5b", f5b.to_json())],
    }
}

fn run_fig7() -> Section {
    let fw = cast_bench::paper_framework();
    let spec7 = cast_workload::synth::facebook_workload(Default::default()).expect("synthesis");
    let results7 = fig7::evaluate_all(&fw, &spec7);
    let f7 = fig7::table(&results7);
    let (speedup, cost_red) = fig7::headline(&results7);
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f7.render());
    let _ = writeln!(
        md,
        "Headline (abstract): CAST++ vs the local-storage (ephSSD)\n\
         configuration — measured {speedup:.2}× performance at {:.1} % lower cost\n\
         (paper: {:.2}× and {:.1} %).\n",
        cost_red * 100.0,
        expected::HEADLINE_SPEEDUP,
        expected::HEADLINE_COST_REDUCTION * 100.0,
    );
    let _ = writeln!(
        md,
        "Reproduced shapes: persSSD is the best non-tiered configuration; CAST\n\
         beats every non-tiered and both greedy configurations; greedy\n\
         exact-fit collapses to objStore-level utility (the paper's exact\n\
         observation). Deviations: the margin of CAST over the *best*\n\
         non-tiered configuration is ~16 % here vs the paper's 33.7 % — in our\n\
         cost model VM time dominates storage rent, so placement can only move\n\
         a smaller slice of total cost; CAST's capacity split leans more on\n\
         persSSD/persHDD than the paper's 33/31/16/20 (the cluster-wide\n\
         object-store ceiling and staging costs make ephSSD less attractive at\n\
         25 VMs in our model); and on this annealing trajectory (the vendored\n\
         deterministic RNG) CAST++'s workflow-constrained search trails plain\n\
         CAST's unconstrained utility optimum by a few percent instead of\n\
         edging past it.\n"
    );
    Section {
        md,
        json: vec![("fig7", f7.to_json())],
    }
}

fn run_fig8() -> Section {
    let f8 = fig8::run();
    let (_, err) = fig8::sweep();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f8.render());
    let _ = writeln!(
        md,
        "Average prediction error {:.1} % (paper: 7.9 %), worst point\n\
         {:.1} %, bias {:+.1} %.\n",
        err.mape(),
        err.max_pct(),
        err.bias_pct()
    );
    Section {
        md,
        json: vec![("fig8", f8.to_json())],
    }
}

fn run_fig9() -> Section {
    let f9 = fig9::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f9.render());
    let _ = writeln!(
        md,
        "Paper: ephSSD 20 %, persSSD 40 %, persHDD 100 %, objStore 100 %, CAST\n\
         60 %, CAST++ 0 % (lowest cost). Measured: the four baselines match\n\
         exactly, and the cheapest configuration meets every deadline.\n\
         Deviations: our workflow-oblivious CAST meets all deadlines — under\n\
         our economics its utility optimum is already speed-optimal, whereas\n\
         the paper's CAST picked slower tiers for utility and missed 60 % —\n\
         and on this run CAST++'s 0.94 planning margin fails to absorb one\n\
         workflow's jitter, so it misses 20 % where the paper's missed none.\n"
    );
    Section {
        md,
        json: vec![("fig9", f9.to_json())],
    }
}

fn run_fault_sweep() -> Section {
    let fs_table = fault_sweep::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", fs_table.render());
    let _ = writeln!(
        md,
        "Beyond the paper: the trimmed Fig. 7 workload replayed under fault\n\
         injection (seeded, deterministic). Makespan grows monotonically with\n\
         the per-task failure rate; a mid-run VM crash finishes via\n\
         re-execution of the killed tasks, and a degraded-tier scenario shows\n\
         speculative backups rescuing stragglers.\n"
    );
    Section {
        md,
        json: vec![("fault_sweep", fs_table.to_json())],
    }
}

fn run_online_drift() -> Section {
    let cfg = online_drift::OnlineDriftConfig::smoke();
    let (table, json) = online_drift::run(&cfg);
    let (static_cost, periodic_cost, periodic_mb, hysteresis_mb, periodic_adopt, hyst_adopt) =
        online_drift::headline(&json);
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", table.render());
    let _ = writeln!(
        md,
        "Beyond the paper: the same seeded, drifting arrival stream served\n\
         online under the three replanning policies (plus deadline admission).\n\
         Periodic replanning beats static serving on tenancy cost\n\
         ({periodic_cost:.2} vs {static_cost:.2} $, {:+.1} %), and hysteresis\n\
         vetoes marginal adoptions ({hyst_adopt} vs {periodic_adopt}) without\n\
         ever migrating more bytes than naive replanning ({hysteresis_mb:.0}\n\
         vs {periodic_mb:.0} MB) while keeping most of the cost advantage over\n\
         static. The migration headline is `<=`, not `<`: with content-derived\n\
         solve seeds an un-drifted epoch re-solves to the *identical* plan, so\n\
         periodic replanning does not churn on anneal noise — on the full-size\n\
         stream both policies migrate the same volume and hysteresis shows up\n\
         purely as vetoed (zero-delta) adoptions. The full-size\n\
         run (`cargo run --release -p cast-bench --bin online_drift`) serves a\n\
         4-hour stream; this section uses the CI-sized `--smoke` configuration.\n",
        (periodic_cost / static_cost - 1.0) * 100.0,
    );
    Section {
        md,
        json: vec![("online_drift", json)],
    }
}

fn run_durability_sweep() -> Section {
    let cfg = durability_sweep::DurabilitySweepConfig::smoke();
    let (sweep, pareto, json) = durability_sweep::run(&cfg);
    let (lost, reduction) = durability_sweep::headline(&json);
    let mut md = String::new();
    let _ = writeln!(
        md,
        "```\n{}```\n```\n{}```\n",
        sweep.render(),
        pareto.render()
    );
    let _ = writeln!(
        md,
        "Beyond the paper: the drift stream re-served with copy faults\n\
         injected into every scheduled migration. Fire-and-forget loses\n\
         {lost} dataset(s) at the highest fault rate; copy→verify→retire\n\
         loses zero at every rate, paying for safety with verification\n\
         reads, retried partial copies and backoff instead of data. On the\n\
         cold tier, rs(4+2) matches rep(3)'s two-loss tolerance at\n\
         {:.0} % lower storage rent. The full-size run\n\
         (`cargo run --release -p cast-bench --bin durability_sweep`)\n\
         sweeps five fault rates over the 4-hour stream; this section uses\n\
         the CI-sized `--smoke` configuration.\n",
        reduction * 100.0,
    );
    Section {
        md,
        json: vec![("durability_sweep", json)],
    }
}

/// A numeric field of a committed BENCH report (NaN when absent).
fn num(v: &serde_json::Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// A section re-rendered from a committed perf-bin baseline rather than
/// re-measured: the bins take minutes in full mode and measure wall time,
/// which a concurrent regeneration would distort. `render` draws the
/// code block from the parsed report; `prose` follows it.
fn bench_section(
    title: &str,
    file: &str,
    render: impl FnOnce(&serde_json::Value) -> String,
    prose: &str,
) -> Section {
    let mut md = format!("## {title}\n\n");
    let path = format!("results/{file}");
    match fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
    {
        Some(report) => {
            let _ = writeln!(md, "```\n{}```\n", render(&report));
        }
        None => {
            let _ = writeln!(md, "(no committed `{path}` baseline)\n");
        }
    }
    let _ = writeln!(md, "{prose}");
    Section { md, json: vec![] }
}

fn run_sim_scale_section() -> Section {
    let render = |report: &serde_json::Value| {
        let mut out = format!("{:<7}{:<7}{:<10}events/s\n", "nvm", "jobs", "steps");
        let empty = Vec::new();
        for sc in report["scenarios"].as_array().unwrap_or(&empty) {
            let _ = writeln!(
                out,
                "{:<7}{:<7}{:<10}{:.2}M",
                num(&sc["nvm"]),
                num(&sc["jobs"]),
                num(&sc["steps"]),
                num(&sc["events_per_sec"]) / 1e6,
            );
        }
        let par = &report["parallel"];
        let _ = writeln!(
            out,
            "parallel: {} runs x ({} VM, {} jobs) = {:.2}M events/s aggregate",
            num(&par["runs"]),
            num(&par["nvm"]),
            num(&par["jobs"]),
            num(&par["events_per_sec"]) / 1e6,
        );
        out
    };
    bench_section(
        "Engine scale grid (`sim_scale`)",
        "BENCH_sim.json",
        render,
        "Beyond the paper: throughput of the engine itself across cluster\n\
         size and backlog depth (committed baseline `results/BENCH_sim.json`,\n\
         regenerated by `sim_scale --out`; numbers above are re-rendered from\n\
         that file, not re-measured). Per-event cost is flat from 25 to\n\
         10 000 VMs and from 100 to 4 000 jobs — the dirty-set/indexed-heap\n\
         design keeps per-event work bounded by *affected* flows, not by\n\
         cluster or backlog size. The parallel row is the aggregate over\n\
         concurrent independent runs on the worker pool: on one core it\n\
         matches single-run throughput, on an 8-core machine it is the\n\
         10 M events/s headline path. `--smoke` runs the 25-VM and 4 000-job\n\
         scenarios plus a small parallel batch. `sim_scale` reports each\n\
         scenario's median timed rep (at least 3 reps and 0.5 s of timed\n\
         wall after a warm-up); the committed figures are best-of-3 reps,\n\
         which the median reads at 0.96x in alternating runs on one host.\n\
         CI gates events/s against the committed baseline with 25 %\n\
         tolerance, and each scenario's step and scratch-realloc counters\n\
         exactly.\n",
    )
}

fn run_runtime_epoch_section() -> Section {
    let render = |report: &serde_json::Value| {
        let (solver, whatif, incr) = (&report["solver"], &report["whatif"], &report["incremental"]);
        let ms = |v: &serde_json::Value| num(v) * 1e3;
        let pad = " ".repeat(22);
        format!(
            "solver ({} iters):  cold solve p50 {:.2}ms   warm resume p50 {:.2}ms\n\
             {pad}cold {} moves to converged quality, warm {}\n\
             whatif ({} candidates, {} workers, fork at {} of makespan):\n\
             {pad}cold restarts p50 {:.2}ms   fork-backed p50 {:.2}ms\n\
             {pad}= {:.1}x speedup, ~{:.0}k candidate forks/s\n\
             incremental ({} jobs, {} iters):\n\
             {pad}full scoring p50 {:.0}ms   incremental p50 {:.0}ms\n\
             {pad}= {:.1}x speedup\n",
            num(&solver["iterations"]),
            ms(&solver["cold_p50_secs"]),
            ms(&solver["warm_p50_secs"]),
            num(&solver["cold_moves"]),
            num(&solver["warm_moves"]),
            num(&whatif["candidates"]),
            num(&whatif["workers"]),
            num(&whatif["fork_fraction"]),
            ms(&whatif["cold_p50_secs"]),
            ms(&whatif["fork_p50_secs"]),
            num(&whatif["speedup"]),
            num(&whatif["forks_per_sec"]) / 1e3,
            num(&incr["jobs"]),
            num(&incr["iterations"]),
            ms(&incr["full_p50_secs"]),
            ms(&incr["incremental_p50_secs"]),
            num(&incr["speedup"]),
        )
    };
    bench_section(
        "Replan latency (`runtime_epoch`)",
        "BENCH_runtime.json",
        render,
        "Beyond the paper: the costs of one epoch's replan step (committed\n\
         baseline `results/BENCH_runtime.json`, regenerated by\n\
         `runtime_epoch --out`; numbers above are re-rendered from that\n\
         file). The solver row pins the warm-start claim — resuming from the\n\
         incumbent reaches the cold chain's converged quality in far fewer\n\
         moves. The what-if rows time candidate scoring at a late-epoch\n\
         replan point: cold restarts re-simulate the shared 90 % prefix once\n\
         per candidate, while fork-backed scoring snapshots the live engine\n\
         once and forks only the tails. The incremental rows time a\n\
         default-budget solve of the 100-job Facebook workload scored through\n\
         the incremental ledger + `REG` memo against a full `evaluate()` per\n\
         neighbour. The bin asserts both speedups are at least 3× and that\n\
         cold and fork-backed slates are byte-identical on every run.\n\
         `--smoke` cuts repetitions; CI gates forks/s against the committed\n\
         baseline with 25 % tolerance, and the move counts and what-if\n\
         winner exactly.\n",
    )
}

fn run_tenant_scale_section() -> Section {
    let pad = " ".repeat(12);
    let fleet = |label: &str, s: &serde_json::Value| {
        format!(
            "{label:<12}{} tenants x {} shards x {} epochs, {} workers\n\
             {pad}{:.0} tenants/s, total wall {:.2}s (plan {:.2}s / admit {:.3}s / exec {:.2}s)\n\
             {pad}{} fresh solves + {} dedup fan-outs + {} replans skipped\n\
             {pad}({} planning templates), replan p50 {:.2}ms  p99 {:.2}ms\n\
             {pad}{} jobs, {} deadline misses, {} deferrals, {} rejections\n",
            num(&s["tenants"]),
            num(&s["shards"]),
            num(&s["epochs"]),
            num(&s["workers"]),
            num(&s["tenants_per_sec"]),
            num(&s["total_wall_secs"]),
            num(&s["plan_wall_secs"]),
            num(&s["admit_wall_secs"]),
            num(&s["exec_wall_secs"]),
            num(&s["solves"]),
            num(&s["dedup_fanouts"]),
            num(&s["replans_skipped"]),
            num(&s["planning_templates"]),
            num(&s["replan_p50_secs"]) * 1e3,
            num(&s["replan_p99_secs"]) * 1e3,
            num(&s["jobs_completed"]),
            num(&s["deadline_misses"]),
            num(&s["deferrals"]),
            num(&s["rejected"]),
        )
    };
    let render = |report: &serde_json::Value| {
        let mut out = String::new();
        for (label, key) in [
            ("smoke ref:", "smoke"),
            ("throughput:", "fleet"),
            ("scale-out:", "xl"),
        ] {
            if report[key] != serde_json::Value::Null {
                out.push_str(&fleet(label, &report[key]));
            }
        }
        let (identity, fairness) = (&report["identity"], &report["fairness"]);
        let workers: Vec<String> = identity["workers_checked"]
            .as_array()
            .map(|w| w.iter().map(|n| num(n).to_string()).collect())
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "identity:   {} tenants, workers {{{}}} -> byte-identical: {}",
            num(&identity["tenants"]),
            workers.join(", "),
            identity["byte_identical"] == true,
        );
        let _ = writeln!(
            out,
            "fairness:   {} tenants, {} contended tenant-epochs; {} fully-admitted\n\
             {pad}Interactive tenants checked against solo -> {} violations",
            num(&fairness["tenants"]),
            num(&fairness["contended_epochs"]),
            num(&fairness["interactive_checked"]),
            num(&fairness["violations"]),
        );
        out
    };
    bench_section(
        "Tenant scale (`tenant_scale`)",
        "BENCH_tenants.json",
        render,
        "Beyond the paper: fleet-level serving throughput of `cast-fleet`\n\
         (committed baseline `results/BENCH_tenants.json`, regenerated by\n\
         `tenant_scale --out`; numbers above are re-rendered from that file).\n\
         The throughput run serves 1024 concurrent tenants — each with its own\n\
         goal, deadline, drift profile and warm-started solver chain — through\n\
         the four-phase fleet epoch loop on an uncontended capacity pool, so\n\
         tenants/s measures the control-plane cost (plan + admit + settle +\n\
         execute), not admission backpressure. It runs what callers run: exact\n\
         cross-tenant solve dedup plus the drift-gated replan skip (see\n\
         DESIGN.md *Fleet planning throughput*). Exact grouping merges only\n\
         tenants whose canonical solve inputs are equal, so most tenant-epochs\n\
         still solve; the full run asserts dedup fan-outs and skips are\n\
         non-zero so neither path can silently rot. The identity pin\n\
         re-serves one fleet at 1/2/8 workers and asserts the merged report\n\
         is byte-identical; the fairness pin shrinks the pool until shards\n\
         saturate and then replays every fully-admitted Interactive tenant\n\
         solo, asserting contention never costs a guaranteed tenant a\n\
         deadline it would have met alone.\n\n\
         The smoke reference is a 192-tenant fleet with the same per-tenant\n\
         work as the 1024-tenant run, served first in full mode exactly as a\n\
         `--smoke` run serves its fleet; the CI smoke gate compares against\n\
         it. Both gated fleets are served five times, every serve must report\n\
         byte-identically, and their wall-time fields are per-field medians,\n\
         so one slow spell of a shared 2-vCPU VM cannot fail a 0.1 s serve's\n\
         gate. The gate also checks the deterministic tallies — solves,\n\
         fan-outs, skips, jobs and deadline misses — exactly: those catch a\n\
         behavioural change on every run, whatever the machine is doing. The\n\
         scale-out region is served once.\n",
    )
}

fn main() {
    let io = ExperimentIo::from_args("all_experiments");

    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs measured\n\n\
         Regenerated by `cargo run --release -p cast-bench --bin all_experiments`.\n\
         Absolute numbers are not expected to match the paper (our substrate is a\n\
         calibrated simulator, not the authors' 2015 Google Cloud deployment); the\n\
         *shapes* — who wins, rough factors, crossovers — are the reproduction\n\
         targets. Deviations are called out inline.\n\n\
         Solve times: the planning experiments (Fig. 7/9 and the CAST/CAST++\n\
         rows elsewhere) anneal through the incremental scorer\n\
         (`cast-solver`'s ledger + `REG` memo — bit-identical to the full\n\
         oracle, see DESIGN.md \"Solver performance\") and the experiments\n\
         themselves run concurrently on scoped threads, so a full regeneration\n\
         takes roughly the wall-clock of its slowest figure instead of the sum\n\
         of all of them. The measured full-vs-incremental solve-loop speedup\n\
         is `runtime_epoch`'s `incremental` section (\"Replan latency\" below).\n\n\
         Simulator engine: every experiment drives the event-driven\n\
         `cast_sim::engine::Engine` (incremental share rates + completion heap;\n\
         see DESIGN.md \"Engine performance\"). The pre-overhaul stepper is kept\n\
         purely as an equivalence oracle that no experiment or binary calls —\n\
         `cargo test -p cast-sim --test engine_equivalence` checks the two\n\
         agree within 1e-6 relative across randomized fault scenarios.\n\
         `cargo run --release -p cast-bench --bin sim_scale` measures the\n\
         engine's throughput (\"Engine scale grid\" below).\n\n\
         Observability: pass `--trace-out [STEM]` (also understood by the\n\
         `fault_sweep` binary) to record every solver and simulator run into\n\
         `results/STEM.trace.ndjson` — one JSON event per line: job / phase /\n\
         wave / task spans, tier-contention samples and fault edges from the\n\
         simulator, restart / epoch / move samples from the annealer — plus a\n\
         counters-and-gauges summary in `results/STEM.metrics.json`. Recording\n\
         never changes results: every table and JSON above is byte-identical\n\
         with or without it (see DESIGN.md \"Observability\").\n"
    );

    // Warm the shared on-disk profiling cache (results/model_matrix.json)
    // before any worker spawns, so concurrent experiments read the cached
    // matrix instead of racing to profile and write it.
    eprintln!("[warming estimator cache]");
    let _ = cast_bench::paper_estimator();

    let tasks: Vec<(&'static str, Task)> = vec![
        ("table1", Box::new(run_table1)),
        ("table2", Box::new(run_table2)),
        ("table4", Box::new(run_table4)),
        ("fig1", Box::new(run_fig1)),
        ("fig2", Box::new(run_fig2)),
        ("fig3", Box::new(run_fig3)),
        ("fig4", Box::new(run_fig4)),
        ("fig5", Box::new(run_fig5)),
        (
            "fig7 (plans + deploys 8 configurations — takes a minute)",
            Box::new(run_fig7),
        ),
        ("fig8", Box::new(run_fig8)),
        (
            "fig9 (plans + deploys 6 configurations)",
            Box::new(run_fig9),
        ),
        ("fault_sweep", Box::new(run_fault_sweep)),
        (
            "online_drift (serves the stream 4x)",
            Box::new(run_online_drift),
        ),
        (
            "durability_sweep (serves the stream per protocol x rate)",
            Box::new(run_durability_sweep),
        ),
        (
            "sim_scale (re-rendered from baseline)",
            Box::new(run_sim_scale_section),
        ),
        (
            "runtime_epoch (re-rendered from baseline)",
            Box::new(run_runtime_epoch_section),
        ),
        (
            "tenant_scale (re-rendered from baseline)",
            Box::new(run_tenant_scale_section),
        ),
    ];

    std::thread::scope(|s| {
        let handles: Vec<_> = tasks
            .into_iter()
            .map(|(label, task)| (label, s.spawn(task)))
            .collect();
        for (label, handle) in handles {
            eprintln!("[{label}]");
            let section = handle.join().unwrap_or_else(|_| panic!("{label} panicked"));
            md.push_str(&section.md);
            for (name, value) in &section.json {
                io.save_json(name, value);
            }
        }
    });

    let path = "EXPERIMENTS.md";
    fs::write(path, &md).expect("write EXPERIMENTS.md");
    eprintln!("[wrote {path}; JSON in {}]", io.results_dir().display());
    io.finish();
    println!("{md}");
}
