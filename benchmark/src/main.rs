//! The COPS-HTTP benchmark: four workloads against the server of the
//! paper's Table 1, started in this process on the host's loopback
//! interface; eight end-to-end metrics; and, with `--trace`, a ladder of
//! per-layer numbers taken from outside through each layer's public
//! functions. See README.md beside this package.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the harness reads /proc and calls ppoll with 64-bit Linux's struct layouts");

mod bed;
mod client;
mod json;
mod ladder;
mod report;
mod span;
mod stats;
mod sys;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use bed::{run_workload, server_verdict, set_up_tcp, Plan, Streams, Window};
use report::Metric;
use workload::{Files, Pacing, Workload, CLIENTS};

const USAGE: &str = "\
usage: cops-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                      [--repeat N] [--check]

  (no --workload)   run all four workloads, each in a process of its own
  --workload NAME   small_pipelined | large_body | specweb_churn | open_rate
  --seed N          seed of the request streams and arrival times (default 1)
  --seconds S       measured window (default: run_seconds of BENCHMARK.json)
  --trace [0|1]     per-layer ladder instead of the end-to-end metrics
  --repeat N        the end-to-end suite N times: median, range and spread of
                    every metric against its bound in BENCHMARK.json
  --check           every workload, both modes, 1 s windows: correctness and
                    that the metrics printed are the ones BENCHMARK.json names";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    repeat: Option<usize>,
    check: bool,
    /// Set by `--check` on its children: small fixed counts.
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: None,
        check: false,
        quick: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(workload::by_name(name).ok_or_else(|| format!("no workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: u64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds takes 1 to 60".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat takes at least 1".into());
                }
                args.repeat = Some(n);
            }
            "--check" => args.check = true,
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `benchmark/` as seen from where the process runs: the driver starts
/// it from the root of a checkout.
fn package_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// What `BENCHMARK.json` fixes: the metric names and the bounds.
struct Contract {
    run_seconds: u64,
    /// (name, better, bound)
    end_to_end: Vec<(String, String, f64)>,
    per_layer: Vec<String>,
}

fn read_contract() -> Result<Contract, String> {
    let path = package_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let names = |key: &str| -> Vec<&json::Value> {
        doc.get(key)
            .map_or(Vec::new(), |v| v.as_arr().iter().collect())
    };
    let name_of = |m: &json::Value| -> Result<String, String> {
        m.get("name")
            .and_then(json::Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| "BENCHMARK.json: a metric without a name".to_string())
    };
    Ok(Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(json::Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")? as u64,
        end_to_end: names("end_to_end")
            .into_iter()
            .map(|m| {
                let better = m
                    .get("better")
                    .and_then(json::Value::as_str)
                    .unwrap_or("lower");
                let bound = m
                    .get("bound")
                    .and_then(json::Value::as_f64)
                    .ok_or("BENCHMARK.json: an end-to-end metric without a bound")?;
                Ok((name_of(m)?, better.to_owned(), bound))
            })
            .collect::<Result<_, String>>()?,
        per_layer: names("per_layer")
            .into_iter()
            .map(name_of)
            .collect::<Result<_, String>>()?,
    })
}

/// The measured window when none is asked for: the contract's, or ten
/// seconds where there is no `BENCHMARK.json` to say.
fn default_seconds() -> u64 {
    read_contract().map_or(10, |c| c.run_seconds)
}

fn print_header(w: &Workload, args: &Args, plan: &Plan, nproc: usize, cpu: usize) {
    println!(
        "COPS-HTTP benchmark: workload {} ({}), seed {}",
        w.name,
        if args.trace {
            "per-layer ladder"
        } else {
            "end to end"
        },
        args.seed
    );
    let host: Vec<String> = sys::fingerprint(nproc)
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("  host: {}", host.join("; "));
    println!(
        "  server: COPS-HTTP as Table 1 configures it (1 dispatcher, 4 static workers, \
         asynchronous completions, 20 MB LRU, production mode), in this process"
    );
    println!(
        "  transport: 127.0.0.1, the host's loopback interface, not a real link; \
         {CLIENTS} client threads and at most {CLIENTS} connections at any instant, \
         from this same process"
    );
    println!(
        "  processor: every thread of the process, server and clients, stays on CPU {cpu}: \
         this guest's CPUs wake each other through the hypervisor, which costs more than \
         a request does and varies with the host"
    );
    match w.pacing {
        Pacing::Pipelined { depth } => println!(
            "  loop: closed, {CLIENTS} keep-alive connections, {depth} requests in flight on each, \
             {} servers set up one after another, {} windows of {:.2} s on each",
            plan.rounds,
            plan.windows,
            plan.window.as_secs_f64()
        ),
        Pacing::Churn => println!(
            "  loop: closed, {CLIENTS} clients, connect + 5 requests + close, \
             {} servers set up one after another, {} warm-up connections and {} windows of {} \
             connections on each",
            plan.rounds, plan.churn_warmup_conns, plan.windows, plan.churn_conns
        ),
        Pacing::Open { rate_per_conn } => println!(
            "  loop: open, Poisson arrivals at {rate_per_conn} req/s on each of {CLIENTS} \
             keep-alive connections, {} servers set up one after another, {} windows of \
             {:.2} s on each; an idle-priority thread keeps the CPU from halting between requests",
            plan.rounds,
            plan.windows,
            plan.window.as_secs_f64()
        ),
    }
}

/// The outcome of one in-process run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn loud_failures(w: &Window) {
    if w.tally.addr_not_available > 0 {
        println!(
            "  !!! {} connects failed with EADDRNOTAVAIL: the ephemeral ports ran out",
            w.tally.addr_not_available
        );
    }
    if w.tally.failed > 0 {
        println!(
            "  !!! {} of {} requests FAILED; first: {}",
            w.tally.failed,
            w.tally.attempted,
            w.tally.first_failure.as_deref().unwrap_or("?")
        );
    }
}

/// A server of its own: set up (timed), measure the round's windows one
/// after another, ask the server whether it agrees, tear down.
struct Round {
    setup_s: f64,
    windows: Vec<Window>,
    verdict: Result<(), String>,
}

impl Round {
    fn correct(&self) -> bool {
        self.verdict.is_ok() && self.windows.iter().all(|w| w.tally.failed == 0)
    }
}

fn run_round(
    w: &Workload,
    streams: Streams,
    plan: &Plan,
    profiling: bool,
    keep_spans: usize,
) -> Round {
    let t0 = Instant::now();
    let mut bed = set_up_tcp(w, streams, plan, profiling, Files::synthesise(w));
    let setup_s = t0.elapsed().as_secs_f64();
    if streams.round == 0 && !profiling {
        println!(
            "  files: {:.1} MiB synthesised into a MemStore (the cache holds 20 MiB)",
            bed.files.total_bytes() as f64 / (1 << 20) as f64
        );
    }
    // Spans are kept of the round's last window only.
    let windows: Vec<Window> = (0..plan.windows)
        .map(|k| {
            let keep = if k + 1 == plan.windows { keep_spans } else { 0 };
            run_workload(&mut bed, plan, keep)
        })
        .collect();
    let verdict = server_verdict(&bed.server, windows.iter().map(Window::verified).sum());
    bed.server.shutdown();
    windows.iter().for_each(loud_failures);
    if let Err(why) = &verdict {
        println!("  !!! {why}");
    }
    Round {
        setup_s,
        windows,
        verdict,
    }
}

fn run_end_to_end(w: &Workload, args: &Args, plan: &Plan) -> Outcome {
    let rounds: Vec<Round> = (0..plan.rounds)
        .map(|round| {
            let streams = Streams {
                seed: args.seed,
                round,
            };
            run_round(w, streams, plan, false, 0)
        })
        .collect();
    let correct = rounds.iter().all(Round::correct);
    let setup_s: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let windows: Vec<Window> = rounds.into_iter().flat_map(|r| r.windows).collect();
    let open_loop = matches!(w.pacing, Pacing::Open { .. });
    let metrics = report::end_to_end(&windows, open_loop, &setup_s, sys::peak_rss_mib());
    report::print_metrics(&metrics);
    Outcome {
        correct,
        attempted: windows.iter().map(|w| w.tally.attempted).sum(),
        failed: windows.iter().map(|w| w.tally.failed).sum(),
        metrics: metrics
            .into_iter()
            .filter(|m| !report::PRINTED_ONLY.contains(&m.name.as_str()))
            .collect(),
    }
}

fn run_traced(w: &Workload, args: &Args, plan: &Plan) -> Outcome {
    // Rounds of the workload itself, by turns with profiling off and on.
    // The difference is what the server's own tracing costs; the last
    // traced round's counters are the per-request counts.
    let mut correct = true;
    let (mut untraced, mut traced): (Vec<Window>, Vec<Window>) = (Vec::new(), Vec::new());
    for round in 0..2 * plan.traced_pairs {
        let profiling = round % 2 == 1;
        let streams = Streams {
            seed: args.seed,
            round,
        };
        // Spans of the last traced window's first requests are kept.
        let keep = if round + 1 == 2 * plan.traced_pairs {
            plan.ladder_requests as usize / CLIENTS
        } else {
            0
        };
        let r = run_round(w, streams, plan, profiling, keep);
        correct &= r.correct();
        if profiling {
            &mut traced
        } else {
            &mut untraced
        }
        .extend(r.windows);
    }

    let mut trace = span::Trace::new();
    let clock_ns = ladder::clock_ns();
    let rungs = ladder::climb(w, args.seed, plan, &mut trace).unwrap_or_else(|why| {
        println!("  !!! {why}");
        correct = false;
        ladder::Rungs {
            depth: 1,
            ..ladder::Rungs::default()
        }
    });

    // The traced window's requests as spans. The harness takes both
    // clock reads in every window, so the spans cost the untraced windows
    // exactly what they cost this one.
    let root = trace.open("window traced", None);
    trace.close(root);
    let mut spans = traced.last().map_or(Vec::new(), |w| w.tally.spans.clone());
    spans.sort_unstable_by_key(|s| s.done_ns);
    for (i, s) in spans.iter().enumerate() {
        trace.push(span::Span {
            name: "client.request",
            start_ns: s.done_ns.saturating_sub(s.latency_ns),
            end_ns: s.done_ns,
            parent: Some(root),
            request: i as u64,
            calls: 1,
        });
    }
    let path = package_dir()
        .join("out")
        .join(format!("trace-{}.json", w.name));
    let head = [
        ("workload", json::quote(w.name)),
        ("seed", args.seed.to_string()),
        ("clock_ns", format!("{clock_ns:.1}")),
        (
            "note",
            json::quote(
                "ladder spans run on the harness clock from the start of the ladder; \
                 client.request spans run from the start of the last traced window",
            ),
        ),
    ];
    match trace.write_json(&path, &head) {
        Ok(()) => println!(
            "  {} spans written to {}",
            trace.spans().len(),
            path.display()
        ),
        Err(e) => {
            println!("  !!! could not write {}: {e}", path.display());
            correct = false;
        }
    }

    let (wall_ns, outside_ns) = trace
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name.starts_with("rung "))
        .fold((0, 0), |(wall, outside), (id, s)| {
            (
                wall + s.duration_ns(),
                outside + trace.self_ns(id as span::SpanId),
            )
        });
    println!(
        "  layer ladder: {} requests replayed closed-loop, {} to a work item; the rungs below \
         the server took {:.2} s, {:.2} s of it outside any layer's span (the harness preparing \
         inputs)",
        rungs.requests,
        rungs.depth,
        wall_ns as f64 / 1e9,
        outside_ns as f64 / 1e9
    );
    print!("{}", report::ladder_table(&rungs));
    let metrics = report::per_layer(&rungs, &traced, &untraced, plan.windows, clock_ns);
    report::print_metrics(&metrics);
    let both = || untraced.iter().chain(&traced);
    Outcome {
        correct,
        attempted: both().map(|w| w.tally.attempted).sum(),
        failed: both().map(|w| w.tally.failed).sum(),
        metrics,
    }
}

fn run_one(w: &Workload, args: &Args, nproc: usize) -> ExitCode {
    // Before any thread is started, so that all of them inherit it.
    let cpu = match sys::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("could not keep the process on one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = Plan::new(args.seconds.unwrap_or_else(default_seconds), args.quick);
    print_header(w, args, &plan, nproc, cpu);
    let outcome = if args.trace {
        run_traced(w, args, &plan)
    } else {
        run_end_to_end(w, args, &plan)
    };
    let metrics: Vec<&Metric> = outcome.metrics.iter().collect();
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted.max(1),
            outcome.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

/// What a child run printed last.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// In printed order; a repeated name shows up twice.
    metrics: Vec<(String, f64)>,
}

/// One workload in a process of its own: peak memory and set-up time
/// are per process, so no workload may inherit another's.
fn run_child(w: &Workload, args: &Args, echo: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: could not start a run: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!("{}: run ended with {}", w.name, out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let v = json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
    let field = |k: &str| {
        v.get(k)
            .ok_or_else(|| format!("{}: result without {k}", w.name))
    };
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics: field("metrics")?
            .as_obj()
            .iter()
            .map(|(k, m)| {
                let value = m
                    .get("value")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(f64::NAN);
                (k.clone(), value)
            })
            .collect(),
    })
}

fn run_suite(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in workload::all() {
        match run_child(&w, args, true) {
            Ok(r) => ok &= r.correct && r.failed == 0,
            Err(why) => {
                eprintln!("{why}");
                ok = false;
            }
        }
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("some workload failed requests or did not finish");
        ExitCode::FAILURE
    }
}

/// Median of each metric of each workload over a set of runs, kept so
/// the next `--repeat` can be compared with it.
type Medians = Vec<(String, Vec<(String, f64)>)>;

fn medians_path() -> PathBuf {
    package_dir().join("out").join("repeat-latest.json")
}

fn read_medians() -> Option<Medians> {
    let doc = json::parse(&std::fs::read_to_string(medians_path()).ok()?).ok()?;
    Some(
        doc.as_obj()
            .iter()
            .map(|(w, ms)| {
                let ms = ms
                    .as_obj()
                    .iter()
                    .filter_map(|(m, v)| Some((m.clone(), v.as_f64()?)))
                    .collect();
                (w.clone(), ms)
            })
            .collect(),
    )
}

fn write_medians(medians: &Medians) -> std::io::Result<()> {
    let body: Vec<String> = medians
        .iter()
        .map(|(w, ms)| {
            let ms: Vec<String> = ms
                .iter()
                .map(|(m, v)| format!("{}: {v}", json::quote(m)))
                .collect();
            format!("{}: {{{}}}", json::quote(w), ms.join(", "))
        })
        .collect();
    std::fs::create_dir_all(package_dir().join("out"))?;
    std::fs::write(medians_path(), format!("{{{}}}\n", body.join(",\n ")))
}

/// By how much `now` is worse than `then`, as a share of `then`.
fn worse_by(better: &str, then: f64, now: f64) -> f64 {
    let delta = if better == "higher" {
        then - now
    } else {
        now - then
    };
    delta / then.abs()
}

fn run_repeat(args: &Args, n: usize, contract: &Contract) -> ExitCode {
    let workloads = workload::all();
    // values[workload][metric] = one value per run
    let mut values: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::with_capacity(n); contract.end_to_end.len()]; workloads.len()];
    let mut ok = true;
    for rep in 0..n {
        for (wi, w) in workloads.iter().enumerate() {
            let run_args = Args {
                trace: false,
                seed: args.seed + rep as u64,
                ..args.clone()
            };
            match run_child(w, &run_args, false) {
                Ok(r) => {
                    println!(
                        "run {}/{n} {:<16} seed {}: {} attempted, {} failed{}",
                        rep + 1,
                        w.name,
                        run_args.seed,
                        r.attempted,
                        r.failed,
                        if r.correct { "" } else { "  !!! NOT CORRECT" }
                    );
                    ok &= r.correct;
                    for (mi, (name, ..)) in contract.end_to_end.iter().enumerate() {
                        match r.metrics.iter().find(|(k, _)| k == name) {
                            Some((_, v)) => values[wi][mi].push(*v),
                            None => {
                                eprintln!("{}: no metric {name} in the result", w.name);
                                ok = false;
                            }
                        }
                    }
                }
                Err(why) => {
                    eprintln!("{why}");
                    ok = false;
                }
            }
        }
    }
    let previous = read_medians();
    let mut medians: Medians = Vec::new();
    println!(
        "\n{:<16} {:<18} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median", "min", "max", "range", "iqr", "bound"
    );
    for (wi, w) in workloads.iter().enumerate() {
        let mut row = Vec::new();
        for (mi, (name, better, bound)) in contract.end_to_end.iter().enumerate() {
            let v = &values[wi][mi];
            if v.is_empty() {
                continue;
            }
            let med = stats::median(v);
            let (min, max) = v
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                    (lo.min(*x), hi.max(*x))
                });
            let range = (max - min) / med.abs();
            let iqr = if v.len() >= 2 {
                stats::spread_share(v)
            } else {
                0.0
            };
            // The driver's rule: the quartile spread stays within the
            // bound; set-up time is exempt from that one.
            let mut verdict = if name == "setup_s" || iqr <= *bound {
                if iqr <= bound / 3.0 { "steady" } else { "ok" }.to_string()
            } else {
                ok = false;
                "SPREAD OVER BOUND".to_string()
            };
            let then = previous
                .as_ref()
                .and_then(|p| p.iter().find(|(pw, _)| pw == w.name))
                .and_then(|(_, ms)| ms.iter().find(|(m, _)| m == name));
            if let Some((_, then)) = then {
                let worse = worse_by(better, *then, med);
                if worse > *bound {
                    ok = false;
                    verdict = format!("{verdict}; WORSE THAN LAST SET by {:.1}%", worse * 100.0);
                } else {
                    verdict = format!("{verdict}; vs last set {:+.1}%", worse * 100.0);
                }
            }
            println!(
                "{:<16} {:<18} {:>12.4} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}% {:>6.1}%  {verdict}",
                w.name,
                name,
                med,
                min,
                max,
                range * 100.0,
                iqr * 100.0,
                bound * 100.0
            );
            row.push((name.clone(), med));
        }
        medians.push((w.name.to_string(), row));
    }
    if let Err(e) = write_medians(&medians) {
        eprintln!("could not keep the medians for the next set: {e}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("the benchmark does not repeat within its own bounds");
        ExitCode::FAILURE
    }
}

/// The names printed are exactly the names the contract lists, each
/// once, each with a finite value.
fn names_agree(what: &str, printed: &[(String, f64)], wanted: &[&str]) -> Result<(), String> {
    for name in wanted {
        match printed.iter().filter(|(k, _)| k == name).count() {
            1 => {}
            n => return Err(format!("{what}: {name} printed {n} times")),
        }
    }
    for (name, value) in printed {
        if !wanted.contains(&name.as_str()) {
            return Err(format!("{what}: {name} is not in BENCHMARK.json"));
        }
        if !value.is_finite() {
            return Err(format!("{what}: {name} is {value}"));
        }
    }
    Ok(())
}

fn run_check(args: &Args, contract: &Contract) -> ExitCode {
    let started = Instant::now();
    let e2e: Vec<&str> = contract
        .end_to_end
        .iter()
        .map(|(n, ..)| n.as_str())
        .collect();
    let layers: Vec<&str> = contract.per_layer.iter().map(String::as_str).collect();
    let mut ok = true;
    for w in workload::all() {
        for trace in [false, true] {
            let run_args = Args {
                trace,
                quick: true,
                seconds: Some(1),
                ..args.clone()
            };
            let what = format!("{} --trace {}", w.name, u8::from(trace));
            let verdict = run_child(&w, &run_args, false).and_then(|r| {
                if !r.correct || r.failed > 0 {
                    return Err(format!("{what}: {} of {} failed", r.failed, r.attempted));
                }
                names_agree(&what, &r.metrics, if trace { &layers } else { &e2e })?;
                Ok(r)
            });
            match verdict {
                Ok(r) => println!(
                    "ok   {what}: {} requests, {} metrics",
                    r.attempted,
                    r.metrics.len()
                ),
                Err(why) => {
                    println!("FAIL {why}");
                    ok = false;
                }
            }
        }
    }
    println!("check took {:.1} s", started.elapsed().as_secs_f64());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("{why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with --release");
        return ExitCode::from(2);
    }
    let nproc = sys::available_parallelism();
    if CLIENTS > nproc {
        eprintln!(
            "the load generator uses {CLIENTS} threads and connections and may not use more \
             than the machine has ({nproc})"
        );
        return ExitCode::from(2);
    }
    if args.check || args.repeat.is_some() {
        return match (read_contract(), args.repeat) {
            (Err(why), _) => {
                eprintln!("{why}");
                ExitCode::FAILURE
            }
            (Ok(contract), Some(n)) if !args.check => run_repeat(&args, n, &contract),
            (Ok(contract), _) => run_check(&args, &contract),
        };
    }
    match &args.workload {
        Some(w) => run_one(w, &args, nproc),
        None => run_suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload large_body --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.unwrap().name, "large_body");
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(10), true));
        let a = parse_args(&argv("--trace 0 --workload open_rate")).unwrap();
        assert!(!a.trace);
        let a = parse_args(&argv("--trace --seed 3")).unwrap();
        assert!(a.trace && a.seed == 3 && a.workload.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--repeat 0",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        assert!((worse_by("higher", 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by("higher", 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worse_by("lower", 100.0, 110.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn printed_names_must_be_the_contracts() {
        let printed = vec![("a".to_string(), 1.0), ("b".to_string(), 2.0)];
        assert!(names_agree("t", &printed, &["a", "b"]).is_ok());
        assert!(names_agree("t", &printed, &["a"])
            .unwrap_err()
            .contains("not in"));
        assert!(names_agree("t", &printed, &["a", "b", "c"])
            .unwrap_err()
            .contains("0 times"));
        let twice = vec![("a".to_string(), 1.0), ("a".to_string(), 1.0)];
        assert!(names_agree("t", &twice, &["a"])
            .unwrap_err()
            .contains("2 times"));
        let nan = vec![("a".to_string(), f64::NAN)];
        assert!(names_agree("t", &nan, &["a"]).is_err());
    }
}
