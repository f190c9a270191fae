//! Calls into the `popper` command line.
//!
//! Untraced, every call goes through `popper_cli::run`, exactly as the
//! binary would. Traced, the same command is composed from the public
//! functions `popper_cli::run` itself calls (`persist`, `full_engine`,
//! `lifecycle_session`, the engine's pipelines, the trace recorder), with
//! a span around each, so the traced run sees each layer's share. The
//! compositions print the same output and leave the same repo behind;
//! the traced run checks that with a transcript of each op (what every
//! call printed, timings masked, and each repo's commits and files),
//! compared between an untraced op and a traced op of the same input.

use crate::spans::{self, count, within};
use popper_cli::{persist, runners::full_engine};
use popper_core::{
    experiment::RunReport, pipeline::stages, templates::find_template, ChaosRunReport,
    CommitPolicy, MemoStats, Pipeline, PopperRepo, ReproVerdict, RunContext,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;

/// The CLI's default author.
const AUTHOR: &str = "anonymous researcher";

thread_local! {
    /// The current op's transcript, while one is kept.
    static TRANSCRIPT: RefCell<Option<Vec<String>>> = const { RefCell::new(None) };
}

/// Start keeping a transcript of the calls on this thread.
pub fn start_transcript() {
    TRANSCRIPT.with(|t| *t.borrow_mut() = Some(Vec::new()));
}

/// The transcript so far; it starts over empty.
pub fn take_transcript() -> Vec<String> {
    TRANSCRIPT.with(|t| {
        t.borrow_mut()
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    })
}

fn transcribe(line: impl FnOnce() -> String) {
    TRANSCRIPT.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.push(line());
        }
    });
}

/// `text` with what differs between two runs of the same call masked:
/// every number (`12`, `1.5`) becomes `#`, the unit of a duration
/// (`12ms`, `1.5µs`, ...) becomes `t`, and the spaces between words,
/// which pad table columns to their numbers' widths, become one.
pub fn mask_timings(text: &str) -> String {
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            let words: Vec<String> = line.split_whitespace().map(mask_word).collect();
            words.join(" ")
        })
        .collect();
    lines.join("\n")
}

fn mask_word(word: &str) -> String {
    let mut masked = String::with_capacity(word.len());
    let mut chars = word.chars().peekable();
    while let Some(c) = chars.next() {
        let decimal_point =
            c == '.' && masked.ends_with('#') && chars.peek().is_some_and(char::is_ascii_digit);
        if c.is_ascii_digit() || decimal_point {
            if !masked.ends_with('#') {
                masked.push('#');
            }
        } else {
            masked.push(c);
        }
    }
    let body = masked.trim_end_matches(|c: char| !c.is_alphanumeric() && c != '#');
    for unit in ["ns", "µs", "us", "ms", "s"] {
        if let Some(stem) = body.strip_suffix(unit).filter(|s| s.ends_with('#')) {
            return format!("{stem}t{}", &masked[body.len()..]);
        }
    }
    masked
}

/// Add what the repo in `dir` holds to the transcript: every commit's
/// author and message, newest first, and the paths of its files.
pub fn transcribe_repo(dir: &Path) -> Result<(), String> {
    if TRANSCRIPT.with(|t| t.borrow().is_none()) {
        return Ok(());
    }
    let repo = persist::load(dir, AUTHOR)?;
    let name = dir.file_name().unwrap_or_default().to_string_lossy();
    transcribe(|| format!("repo {name}"));
    let head = repo.vcs.head_commit().ok_or("no commits yet")?;
    for (_, commit) in repo.vcs.log(head).map_err(|e| e.to_string())? {
        transcribe(|| format!("commit {}: {}", commit.author, commit.message));
    }
    let mut files: Vec<&str> = repo.vcs.files().collect();
    files.sort_unstable();
    transcribe(|| format!("files: {}", files.join(" ")));
    Ok(())
}

/// Run `popper <args>` in `dir`.
pub fn popper(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = if spans::enabled() {
        composed(dir, args)
    } else {
        popper_cli::run(args, dir)
    };
    transcribe(|| {
        let (tag, text) = match &out {
            Ok(text) => ("ok", text),
            Err(text) => ("err", text),
        };
        format!("popper {} -> {tag}\n{}", args.join(" "), mask_timings(text))
    });
    out
}

/// `popper <args>` composed from the functions `popper_cli::run` calls.
fn composed(dir: &Path, args: &[&str]) -> Result<String, String> {
    match args {
        ["init"] => init(dir),
        ["add", template, name] => add(dir, template, name),
        ["run", name] => run(dir, name, cache_enabled(false)),
        ["run", name, "--no-cache"] => run(dir, name, cache_enabled(true)),
        ["verify", name] => verify(dir, name),
        ["trace", name] => trace(dir, name),
        ["chaos", name, "--seed", seed] => chaos(dir, name, seed),
        _ => Err(format!(
            "no traced composition of `popper {}`",
            args.join(" ")
        )),
    }
}

/// The `memo: N hits / M misses` line's miss count, if present.
pub fn memo_misses(out: &str) -> Option<u64> {
    let line = out.lines().find(|l| l.starts_with("memo: "))?;
    line.split(" / ")
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The event count of `popper trace`'s `-- traced N event(s)` line.
pub fn traced_events(out: &str) -> Option<u64> {
    let line = out.lines().find(|l| l.starts_with("-- traced "))?;
    line.split_whitespace().nth(2)?.parse().ok()
}

fn load(dir: &Path) -> Result<PopperRepo, String> {
    within("persist.load", || persist::load(dir, AUTHOR))
}

fn save(repo: &PopperRepo, dir: &Path) -> Result<(), String> {
    within("persist.save", || persist::save(repo, dir))?;
    count("vcs.objects", repo.vcs.object_count() as f64);
    Ok(())
}

fn session(
    repo: &PopperRepo,
    name: &str,
    mode: &str,
    salt: &[(String, String)],
) -> popper_core::MemoSession {
    within("memo.lifecycle_session", || {
        popper_core::lifecycle_session(repo, name, mode, salt)
    })
}

fn memo_line(stats: Option<&MemoStats>) -> String {
    match stats {
        Some(s) => {
            count("memo.hits", s.hits() as f64);
            count("memo.misses", s.misses() as f64);
            format!("{}\n", s.summary())
        }
        None => String::new(),
    }
}

/// Stage memoization is on unless `--no-cache` or `POPPER_NO_CACHE`
/// turns it off, as in the command line.
fn cache_enabled(no_cache_flag: bool) -> bool {
    !no_cache_flag && !popper_core::cache_disabled_by_env()
}

fn init(dir: &Path) -> Result<String, String> {
    if persist::is_initialized(dir) {
        return Err("already a Popper repository (found .popper/state)".into());
    }
    let repo = PopperRepo::init(AUTHOR).map_err(|e| e.to_string())?;
    save(&repo, dir)?;
    Ok("-- Initialized Popper repo\n".into())
}

fn add(dir: &Path, template: &str, name: &str) -> Result<String, String> {
    let tpl = find_template(template)
        .ok_or_else(|| format!("unknown template '{template}'; see `popper experiment list`"))?;
    let mut repo = load(dir)?;
    if repo.experiments().contains(&name.to_string()) {
        return Err(format!("experiment '{name}' already exists"));
    }
    for (path, contents) in tpl.files(name) {
        repo.write(&path, contents).map_err(|e| e.to_string())?;
    }
    within("vcs.commit", || {
        repo.commit(&format!("popper add {template} {name}"))
    })
    .map_err(|e| e.to_string())?;
    save(&repo, dir)?;
    Ok(format!(
        "-- added experiment '{name}' from template '{template}'\n"
    ))
}

fn run(dir: &Path, name: &str, cache: bool) -> Result<String, String> {
    let mut repo = load(dir)?;
    let engine = full_engine();
    let mut ctx = RunContext::for_experiment(&repo, name)?;
    if cache {
        ctx = ctx.with_memo(session(&repo, name, "run", &[]));
    }
    within("core.run_pipeline", || {
        engine.run_pipeline(&mut repo, &mut ctx)
    })?;
    let memo = memo_line(ctx.memo_stats());
    let report = RunReport::from_ctx(ctx);
    save(&repo, dir)?;
    if report.success() {
        Ok(format!("{report}\n{memo}"))
    } else {
        Err(format!("{report}"))
    }
}

fn verify(dir: &Path, name: &str) -> Result<String, String> {
    let mut repo = load(dir)?;
    let engine = full_engine();
    let mut ctx = RunContext::for_experiment(&repo, name)?;
    if cache_enabled(false) {
        ctx = ctx.with_memo(session(&repo, name, "verify", &[]));
    }
    within("core.verify_pipeline", || {
        engine.verify_pipeline(&mut repo, &mut ctx)
    })?;
    let memo = memo_line(ctx.memo_stats());
    let verdict = ReproVerdict::from_ctx(&ctx)?;
    save(&repo, dir)?;
    match verdict {
        ReproVerdict::Identical => Ok(format!("{verdict}\n{memo}")),
        other => Err(other.to_string()),
    }
}

fn trace(dir: &Path, name: &str) -> Result<String, String> {
    let mut repo = load(dir)?;
    let engine = full_engine();
    let mut ctx = RunContext::for_experiment(&repo, name)?
        .with_recorder(popper_trace::TraceRecorder::ordered());
    if cache_enabled(false) {
        ctx = ctx.with_memo(session(&repo, name, "trace", &[]));
    }
    within("core.trace_pipeline", || {
        engine.run_pipeline(&mut repo, &mut ctx)
    })?;
    let mut artifacts = std::mem::take(&mut ctx.artifacts);
    let recording = within("trace.finish", || ctx.finish_recording())
        .ok_or("popper trace: no trace recorder attached to the run context")?;
    let memo = memo_line(ctx.memo_stats());
    let report = RunReport::from_ctx(ctx);
    let svg = within("trace.timeline_svg", || {
        popper_trace::timeline_svg(&recording.events)
    });
    let summary = recording.summary();
    count("trace.events", recording.count as f64);
    count("trace.json_bytes", recording.json.len() as f64);
    count("trace.svg_bytes", svg.len() as f64);
    artifacts.stage(
        format!("experiments/{name}/trace.json"),
        recording.json.into_bytes(),
    );
    artifacts.stage(format!("experiments/{name}/trace.svg"), svg.into_bytes());
    within("vcs.commit", || {
        artifacts.commit_into(
            &mut repo,
            &format!("popper trace {name}: record trace"),
            CommitPolicy::Always,
        )
    })?;
    save(&repo, dir)?;
    let out = format!(
        "{report}\n-- traced {} event(s) -> experiments/{name}/trace.json, trace.svg\n{memo}{summary}",
        recording.count
    );
    if report.success() {
        Ok(out)
    } else {
        Err(out)
    }
}

fn chaos(dir: &Path, name: &str, seed: &str) -> Result<String, String> {
    let seed_n = seed
        .parse::<u64>()
        .map_err(|_| format!("--seed expects an unsigned integer, got '{seed}'"))?;
    let mut repo = load(dir)?;
    let engine = full_engine();
    let salt = [("seed".to_string(), seed.to_string())];
    let mut ctx = RunContext::for_experiment(&repo, name)?
        .with_recorder(popper_trace::TraceRecorder::streaming());
    if cache_enabled(false) {
        ctx = ctx.with_memo(session(&repo, name, "chaos", &salt));
    }
    within("core.chaos_pipeline", || {
        engine.chaos_pipeline(&mut repo, &mut ctx, None, Some(seed_n))
    })?;
    let mut artifacts = std::mem::take(&mut ctx.artifacts);
    let recording = within("trace.finish_stream", || ctx.finish_recording())
        .ok_or("popper chaos: no trace recorder attached to the run context")?;
    let memo = memo_line(ctx.memo_stats());
    let report = ChaosRunReport::from_ctx(ctx)?;
    artifacts.stage(
        format!("experiments/{name}/trace.json"),
        recording.json.into_bytes(),
    );
    within("vcs.commit", || {
        artifacts.commit_into(
            &mut repo,
            &format!("popper chaos {name}: record trace"),
            CommitPolicy::Always,
        )
    })?;
    save(&repo, dir)?;
    let out = format!(
        "{report}\n-- recorded experiments/{name}/faults.json, recovery.json, trace.json ({} event(s))\n{memo}",
        recording.count
    );
    if report.success() {
        Ok(out)
    } else {
        Err(out)
    }
}

/// Probe: time the shared execute, record and validate stages by
/// composing them in a pipeline of the benchmark's own, on a copy of
/// the experiment's repo so the op's state is untouched.
pub fn stage_probe(dir: &Path, name: &str) -> Result<(), String> {
    let _p = spans::probe("core.stages");
    let mut repo = persist::load(dir, AUTHOR)?;
    let engine = full_engine();
    let mut ctx = RunContext::for_experiment(&repo, name)?;
    Pipeline::new(format!("stages {name}"))
        .stage("execute", |r, c| {
            within("core.execute", || stages::execute(&engine)(r, c))
        })
        .stage("record", |r, c| {
            within("core.record", || stages::record_results()(r, c))
        })
        .stage("validate", |r, c| {
            within("core.validate", || {
                stages::validate(stages::ValidationSource::Validations)(r, c)
            })
        })
        .run(&mut repo, &mut ctx)?;
    match ctx.verdict {
        Some(v) if v.passed => Ok(()),
        Some(v) => Err(format!("{name}: stage probe failed validation: {v}")),
        None => Err(format!("{name}: stage probe produced no verdict")),
    }
}

/// Probe: time the orchestrate stage's playbook run, over the
/// inventory the engine derives, when the experiment has a playbook.
pub fn orchestrate_probe(dir: &Path, name: &str) -> Result<(), String> {
    let _p = spans::probe("core.orchestrate_probe");
    let repo = persist::load(dir, AUTHOR)?;
    let Some(text) = repo.read(&format!("experiments/{name}/setup.pml")) else {
        return Ok(());
    };
    let playbook = popper_orchestra::Playbook::from_pml(&text)?;
    let vars = repo.experiment_vars(name)?;
    let inventory = popper_core::experiment::inventory_for(&playbook, &vars);
    let prefix = format!("experiments/{name}/");
    let controller: BTreeMap<String, Vec<u8>> = repo
        .experiment_files(name)
        .into_iter()
        .filter_map(|p| {
            let data = repo.vcs.read_file(&p)?.to_vec();
            Some((p.strip_prefix(&prefix)?.to_string(), data))
        })
        .collect();
    let report = within("core.orchestrate", || {
        popper_orchestra::run_playbook_traced(
            &playbook,
            &inventory,
            BTreeMap::new(),
            controller,
            popper_trace::current(),
        )
    });
    if report.success() {
        Ok(())
    } else {
        Err(format!("{name}: orchestration failed:\n{}", report.recap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_lines_the_checks_read() {
        assert_eq!(
            memo_misses("report\nmemo: 5 hits / 0 misses (12 ms saved)\n"),
            Some(0)
        );
        assert_eq!(memo_misses("memo: 0 hits / 5 misses (0 ms saved)"), Some(5));
        assert_eq!(memo_misses("no memo line"), None);
        assert_eq!(
            traced_events("x\n-- traced 216 event(s) -> experiments/e/trace.json\n"),
            Some(216)
        );
        assert_eq!(traced_events("-- traced"), None);
    }

    #[test]
    fn masks_numbers_duration_units_and_padding() {
        assert_eq!(
            mask_timings("memo: 12 hits / 0 misses (3.25 ms saved)"),
            "memo: # hits / # misses (# ms saved)"
        );
        assert_eq!(
            mask_timings("core/lifecycle  record   12   1.5µs  (20ms)\nx   4s, 7 rows"),
            "core/lifecycle record # #t (#t)\nx #t, # rows"
        );
        assert_eq!(mask_timings("no digits"), "no digits");
        assert_eq!(mask_timings("trace.json"), "trace.json");
        assert_eq!(mask_timings("v1.2.json 3."), "v#.json #.");
    }
}
