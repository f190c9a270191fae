//! End-to-end and per-layer benchmark of the popper workspace.
//!
//! ```text
//! popperbench --workload <session|traced|farm|sharded> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every workload is a closed loop with
//! one client, driving the program through its public entry points;
//! the seed is the only source of its inputs. Each op is checked for
//! correctness, and an op whose check fails counts as failed.
//!
//! `--trace 0` sets up, then runs ops for `--seconds` and prints the
//! end-to-end metrics. It sets up `SETUPS` times in all and reports the
//! median: once before the first op, and the others spread evenly over
//! the timed phase, between ops, so that set-ups and ops see the same
//! load on the host. `--trace 1`
//! is the separate traced run: the benchmark's own spans around calls
//! into each layer, kept in memory and written to
//! `.popperbench/spans-<workload>-<seed>.json` at exit. It first makes a
//! short traced sweep of the other workloads, so that every layer has
//! samples, then alternates untraced and traced ops of the named one for
//! `--seconds`, each pair on the same input, and prints the per-layer
//! metrics. A traced op whose transcript differs from its untraced
//! twin's fails: the traced compositions must do what the command line
//! does. The last line of standard output is one JSON object with the
//! result.

mod cli;
mod farm;
mod session;
mod sharded;
mod spans;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::Workload;

const WORKLOADS: [&str; 4] = ["session", "traced", "farm", "sharded"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Fewest ops a run makes, however long they take.
const MIN_OPS: u64 = 3;

/// Where runs keep their repos and write their spans, under the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".popperbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let workload = flag("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = flag("--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer")?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Workload `name`, for the traced run if `traced`.
fn make(name: &str, root: &Path, seed: u64, traced: bool) -> Box<dyn Workload> {
    let root = root.join(name);
    match name {
        "session" => Box::new(session::Session::new(root, seed)),
        "traced" => Box::new(traced::Traced::new(root, seed)),
        "farm" => Box::new(farm::FarmLoad::new(seed)),
        _ => Box::new(sharded::Sharded::new(root, seed, traced)),
    }
}

/// One metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// Ops counted over a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("popperbench: op failed: {e}");
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("popperbench: {e}");
            std::process::exit(2);
        }
    };
    if !Path::new("popperbench/Cargo.toml").is_file() || !Path::new("crates").is_dir() {
        eprintln!("popperbench: run from the repository root");
        std::process::exit(2);
    }
    let root = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let result = workload::fresh_dir(&root).and_then(|_| {
        if args.trace {
            traced_run(&args, &root)
        } else {
            timed_run(&args, &root)
        }
    });
    workload::remove_dir(&root);
    let result = result.and_then(|(tally, correct, metrics)| {
        match metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            Some((name, v, _)) => Err(format!("{name} is not a finite number ({v})")),
            None => Ok((tally, correct, metrics)),
        }
    });
    match result {
        Ok((tally, correct, metrics)) => println!("{}", result_json(&tally, correct, &metrics)),
        Err(e) => {
            eprintln!("popperbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The end-to-end run, tracing off.
fn timed_run(args: &Args, root: &Path) -> Result<(Tally, bool, Vec<Metric>), String> {
    let mut w = make(&args.workload, root, args.seed, false);
    let mut setups = Vec::new();
    set_up(w.as_mut(), &mut setups)?;
    let mut tally = Tally::default();
    let mut op_ms = Vec::new();
    // Each op's high-water mark covers that op alone: it restarts after
    // the untimed work before the op.
    let mut peak_rss_mb = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || (op_ms.len() as u64) < MIN_OPS {
        let due = (start.elapsed().as_secs_f64() / args.seconds * SETUPS as f64) as usize + 1;
        if setups.len() < due.min(SETUPS) {
            // A set-up between ops that fails its check counts as a
            // failed op.
            if let Err(e) = set_up(w.as_mut(), &mut setups) {
                tally.record(Err(e));
            }
        }
        let prepared = w.prepare();
        workload::reset_peak_rss()?;
        let op_start = Instant::now();
        let result = prepared.and_then(|_| w.op(op_ms.len() as u64));
        op_ms.push(op_start.elapsed().as_secs_f64() * 1e3);
        peak_rss_mb.push(workload::peak_rss_bytes()? as f64 / 1e6);
        tally.record(result);
    }
    while setups.len() < SETUPS {
        if let Err(e) = set_up(w.as_mut(), &mut setups) {
            tally.record(Err(e));
        }
    }
    // Time in ops: the timed phase less the untimed work between them.
    let elapsed = op_ms.iter().sum::<f64>() / 1e3;
    let finished = w.finish();
    let correct = finish_check(&mut tally, finished);
    let setup_list: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!("popperbench: set-ups (s): {}", setup_list.join(" "));
    let median = |xs: &[f64]| stats::median(xs).ok_or("no samples");
    let metrics: Vec<Metric> = vec![
        ("setup_s".into(), median(&setups)?, "s"),
        ("ops_per_s".into(), op_ms.len() as f64 / elapsed, "1/s"),
        ("op_ms_p50".into(), median(&op_ms)?, "ms"),
        ("peak_rss_mb".into(), median(&peak_rss_mb)?, "MB"),
        ("state_mb".into(), w.state_bytes() as f64 / 1e6, "MB"),
    ];
    eprintln!(
        "popperbench: {} op(s) in {elapsed:.3} s, {} failed; op_ms_p50 over {} samples",
        tally.attempted,
        tally.failed,
        op_ms.len()
    );
    // Medians per quarter of the run show whether an op's cost drifts.
    for (name, values) in [("op_ms_p50", &op_ms), ("peak_rss_mb", &peak_rss_mb)] {
        let quarter = values.len().div_ceil(4);
        let drift: Vec<String> = values
            .chunks(quarter.max(1))
            .filter_map(stats::median)
            .map(|m| format!("{m:.3}"))
            .collect();
        eprintln!(
            "popperbench: {name} by quarter of the run: {}",
            drift.join(" ")
        );
    }
    let extra: Vec<String> = w
        .extra()
        .iter()
        .map(|(n, v, u)| format!("{n}={v} {u}"))
        .collect();
    if !extra.is_empty() {
        println!("{}: {}", args.workload, extra.join(", "));
    }
    Ok((tally, correct, metrics))
}

/// Set `w` up, adding the time it took to `setups`.
fn set_up(w: &mut dyn Workload, setups: &mut Vec<f64>) -> Result<(), String> {
    let start = Instant::now();
    let result = w.setup();
    setups.push(start.elapsed().as_secs_f64());
    result
}

/// A whole-run check that fails marks the run incorrect and counts one
/// more failed op.
fn finish_check(tally: &mut Tally, finished: Result<(), String>) -> bool {
    match finished {
        Ok(()) => tally.failed == 0,
        Err(e) => {
            eprintln!("popperbench: end-of-run check failed: {e}");
            tally.failed = (tally.failed + 1).min(tally.attempted.max(1));
            false
        }
    }
}

/// `Err` naming the first line in which the transcripts of an untraced
/// op and its traced twin differ.
fn transcript_drift(untraced: &[String], traced: &[String]) -> Result<(), String> {
    let lines = |t: &[String]| -> Vec<String> {
        t.iter()
            .flat_map(|entry| entry.lines().map(str::to_string).collect::<Vec<_>>())
            .collect()
    };
    let (u, t) = (lines(untraced), lines(traced));
    let Some(i) = (0..u.len().max(t.len())).find(|&i| u.get(i) != t.get(i)) else {
        return Ok(());
    };
    let at = |l: &[String]| l.get(i).map_or("(nothing)", String::as_str).to_string();
    let call = u[..i.min(u.len())]
        .iter()
        .rev()
        .find(|l| l.starts_with("popper ") || l.starts_with("repo "))
        .map_or("", String::as_str);
    Err(format!(
        "the traced composition drifted from the command line, in `{call}`:\nuntraced: {}\ntraced:   {}",
        at(&u),
        at(&t)
    ))
}

/// The traced run: per-layer metrics from the benchmark's own spans.
fn traced_run(args: &Args, root: &Path) -> Result<(Tally, bool, Vec<Metric>), String> {
    spans::enable();
    let mut tally = Tally::default();
    let mut correct = true;
    let mut op = 0u64;
    // The sweep: a few traced ops of every other workload, so each
    // layer has samples whichever workload this run is about.
    for name in WORKLOADS.iter().filter(|n| **n != args.workload) {
        let mut w = make(name, root, args.seed, true);
        w.setup()?;
        for n in 0..w.sweep_ops() {
            op += 1;
            spans::set_op(op);
            tally.record(w.prepare().and_then(|_| w.op(n)));
        }
        correct &= finish_check(&mut tally, w.finish());
    }
    let first_op = op + 1;
    let mut w = make(&args.workload, root, args.seed, true);
    w.setup()?;
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut untraced_transcript = Vec::new();
    cli::start_transcript();
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds
        || traced_ms.len() < 2
        || untraced_ms.len() < 2
    {
        op += 1;
        spans::set_op(op);
        // Ops 2k (untraced) and 2k + 1 (traced) both run input k.
        let traced = n % 2 == 1;
        let prepared = w.prepare();
        let op_start = Instant::now();
        let probe_before = spans::probe_ns();
        let result = prepared.and_then(|_| {
            if traced {
                w.op(n / 2)
            } else {
                let _paused = spans::pause();
                w.op(n / 2)
            }
        });
        let ms = op_start.elapsed().as_secs_f64() * 1e3;
        if traced {
            traced_ms.push(ms - (spans::probe_ns() - probe_before) as f64 / 1e6);
        } else {
            untraced_ms.push(ms);
        }
        let drift = {
            let _paused = spans::pause();
            let repos = w
                .repos()
                .iter()
                .try_for_each(|dir| cli::transcribe_repo(dir));
            let transcript = cli::take_transcript();
            repos.and_then(|_| {
                if traced {
                    transcript_drift(&untraced_transcript, &transcript)
                } else {
                    untraced_transcript = transcript;
                    Ok(())
                }
            })
        };
        tally.record(result.and(drift));
        n += 1;
    }
    correct &= finish_check(&mut tally, w.finish());
    let rec = spans::take();
    let path = PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, rec.to_json()).map_err(|e| format!("write {path:?}: {e}"))?;
    let overhead = match (stats::median(&traced_ms), stats::median(&untraced_ms)) {
        (Some(t), Some(u)) if u > 0.0 => t / u,
        _ => return Err("no op times for the trace overhead".into()),
    };
    let mut metrics = layer_metrics(&rec.ops_from(first_op), &rec)?;
    metrics.push(("bench.trace_overhead".into(), overhead, "ratio"));
    metrics.push(("bench.traced_ops".into(), traced_ms.len() as f64, "count"));
    let correct = correct && tally.failed == 0;
    Ok((tally, correct, metrics))
}

const WORLDS: [&str; 4] = ["lulesh", "gassyfs", "orchestra", "farm"];

/// Every per-layer metric, from the spans and counts of the named
/// workload's ops (`main`) where it exercises the layer, and from the
/// whole run's (`all`, the sweep included) where it does not.
fn layer_metrics(main: &spans::Recording, all: &spans::Recording) -> Result<Vec<Metric>, String> {
    let pick = |name: &str| {
        let has = |r: &spans::Recording| {
            r.spans.iter().any(|s| s.name == name) || r.counts.iter().any(|c| c.name == name)
        };
        if has(main) {
            main
        } else {
            all
        }
    };
    let need = |what: &str, v: Option<f64>| v.ok_or_else(|| format!("no samples for {what}"));
    let span_p50 = |span: &str| need(span, stats::median(&pick(span).span_ms(span)));
    let count_p50 = |name: &str| need(name, stats::median(&pick(name).values(name)));
    let mut m: Vec<Metric> = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    push("persist.load_ms", span_p50("persist.load")?, "ms");
    push("persist.save_ms", span_p50("persist.save")?, "ms");
    push("core.run_ms", span_p50("core.run_pipeline")?, "ms");
    push("core.verify_ms", span_p50("core.verify_pipeline")?, "ms");
    push("core.trace_ms", span_p50("core.trace_pipeline")?, "ms");
    push("core.chaos_ms", span_p50("core.chaos_pipeline")?, "ms");
    push("core.execute_ms", span_p50("core.execute")?, "ms");
    push("core.record_ms", span_p50("core.record")?, "ms");
    push("core.validate_ms", span_p50("core.validate")?, "ms");
    push("core.orchestrate_ms", span_p50("core.orchestrate")?, "ms");

    push("memo.session_ms", span_p50("memo.lifecycle_session")?, "ms");
    let rec = pick("memo.hits");
    let hits = stats::hit_ratio(
        rec.total("memo.hits") as u64,
        rec.total("memo.misses") as u64,
    )
    .ok_or("no samples for memo lookups")?;
    push("memo.hit_ratio", hits.value, "ratio");
    push("memo.lookups", hits.base as f64, "count");

    push("vcs.commit_ms", span_p50("vcs.commit")?, "ms");
    // Objects only grow within an op, so the op's last count is its
    // largest.
    let mut per_op = std::collections::BTreeMap::new();
    for c in pick("vcs.objects")
        .counts
        .iter()
        .filter(|c| c.name == "vcs.objects")
    {
        let e = per_op.entry(c.op).or_insert(0.0f64);
        *e = e.max(c.value);
    }
    push(
        "vcs.objects",
        need(
            "vcs.objects",
            stats::median(&per_op.into_values().collect::<Vec<_>>()),
        )?,
        "count",
    );

    push("trace.events", count_p50("trace.events")?, "count");
    push("trace.json_mb", count_p50("trace.json_bytes")? / 1e6, "MB");
    push("trace.svg_mb", count_p50("trace.svg_bytes")? / 1e6, "MB");
    push("trace.finish_ms", span_p50("trace.finish")?, "ms");
    push("trace.svg_ms", span_p50("trace.timeline_svg")?, "ms");

    push("farm.submit_us", span_p50("farm.submit")? * 1e3, "us");
    push("farm.drain_ms", span_p50("farm.drain")?, "ms");
    let rec = pick("farm.admitted");
    let full = stats::queue_full_ratio(
        rec.total("farm.queue_full") as u64,
        rec.total("farm.admitted") as u64,
    )
    .ok_or("no samples for farm submits")?;
    push("farm.queue_full_ratio", full.value, "ratio");
    push("farm.submits", full.base as f64, "count");
    let badge = pick("farm.badge_ms").values("farm.badge_ms");
    push(
        "farm.badge_ms_p50",
        need("farm.badge_ms", stats::median(&badge))?,
        "ms",
    );
    push(
        "farm.badge_ms_p99",
        need("farm.badge_ms p99", stats::tail(&badge, 99.0))?,
        "ms",
    );
    push(
        "farm.round_ms_p99",
        need(
            "farm.round_ms p99",
            stats::tail(&pick("farm.round_ms").values("farm.round_ms"), 99.0),
        )?,
        "ms",
    );
    push(
        "store.dedup_ratio",
        count_p50("store.dedup_ratio")?,
        "ratio",
    );
    push(
        "store.ingested_mb",
        count_p50("store.ingested_bytes")? / 1e6,
        "MB",
    );

    for world in WORLDS {
        let serial = span_p50(&format!("sim.{world}.serial"))?;
        let parallel = span_p50(&format!("sim.{world}.parallel"))?;
        let epochs = count_p50(&format!("sim.{world}.epochs"))?;
        let per_epoch = stats::us_per_epoch(serial, parallel, epochs as u64)
            .ok_or_else(|| format!("no epochs for {world}"))?;
        push(&format!("sim.{world}.serial_ms"), serial, "ms");
        push(&format!("sim.{world}.parallel_ms"), parallel, "ms");
        push(&format!("sim.{world}.epochs"), epochs, "count");
        push(&format!("sim.{world}.us_per_epoch"), per_epoch.value, "us");
    }
    Ok(m)
}

fn result_json(tally: &Tally, correct: bool, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::transcript_drift;

    #[test]
    fn transcript_drift_names_the_call_and_the_first_differing_line() {
        let untraced = vec![
            "popper init -> ok\n-- Initialized Popper repo".to_string(),
            "repo op0\ncommit a: popper add x e\nfiles: experiments/e/vars.pml".to_string(),
        ];
        assert_eq!(transcript_drift(&untraced, &untraced), Ok(()));
        let mut traced = untraced.clone();
        traced[1] = "repo op0\ncommit a: popper add x e\nfiles: experiments/e/vars.pml"
            .replace("add", "put");
        let err = transcript_drift(&untraced, &traced).unwrap_err();
        assert!(err.contains("in `repo op0`"), "{err}");
        assert!(err.contains("untraced: commit a: popper add x e"), "{err}");
        assert!(err.contains("traced:   commit a: popper put x e"), "{err}");
        let err = transcript_drift(&untraced, &untraced[..1]).unwrap_err();
        assert!(err.contains("traced:   (nothing)"), "{err}");
    }
}
