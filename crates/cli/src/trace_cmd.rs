//! `stbpu trace` — generate, inspect and convert trace files in any
//! on-disk format (line text, compact binary `.stbt`, or CBP-style
//! championship `.cbp`), plus the SimPoint pipeline (`simpoint`) that
//! distills a stream into a `.stbp` phase file.
//!
//! Input format is always auto-detected by magic (`inspect` also
//! recognizes `.stbp` phase files); `convert --from` additionally
//! *asserts* the detected input format. Output format follows the
//! destination extension (`.stbt` = binary, `.cbp` = CBP) unless
//! `--format` overrides it. Conversions between line and binary are
//! lossless in both directions, and `cbp → .stbt → cbp` round-trips
//! byte-identically (the CI golden fixtures gate exactly this); note the
//! `.cbp` format itself is branch-only and single-thread, so converting
//! *into* it drops context/mode-switch and interrupt records.

use crate::args::Args;
use crate::Failure;
use stbpu_engine::{build_phase_file, ModelRegistry, PhaseBuildOptions, Workload};
use stbpu_phases::{ClusterConfig, PhaseFile, STBP_MAGIC};
use stbpu_trace::{
    open_trace_file, open_trace_stream, profiles, EventSource, TraceEvent, TraceFileFormat,
    TraceFileWriter, TraceGenerator,
};
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

pub fn run(rest: &[String]) -> Result<(), Failure> {
    match rest.first().map(String::as_str) {
        Some("generate") => generate(&rest[1..]),
        Some("inspect") => inspect(&rest[1..]),
        Some("convert") => convert(&rest[1..]),
        Some("simpoint") => simpoint(&rest[1..]),
        Some(other) => Err(Failure::Usage(format!(
            "unknown trace action '{other}' (generate|inspect|convert|simpoint)"
        ))),
        None => Err(Failure::Usage(
            "trace needs an action: generate|inspect|convert|simpoint".to_string(),
        )),
    }
}

/// Resolves the output format: an explicit `--format` wins, otherwise the
/// destination extension decides (`.stbt` = binary, `.cbp` = CBP,
/// anything else line).
fn out_format(flag: Option<&str>, out: &str) -> Result<TraceFileFormat, Failure> {
    match flag {
        None | Some("auto") => Ok(TraceFileFormat::from_extension(Path::new(out))),
        Some("line") => Ok(TraceFileFormat::Line),
        Some("binary") => Ok(TraceFileFormat::Binary),
        Some("cbp") => Ok(TraceFileFormat::Cbp),
        Some(other) => Err(Failure::Usage(format!(
            "unknown format '{other}' (line|binary|cbp|auto)"
        ))),
    }
}

/// Parses a `--from` input-format assertion: `auto` (or absent) accepts
/// whatever the magic says, a concrete name must match it.
fn in_format(flag: Option<&str>) -> Result<Option<TraceFileFormat>, Failure> {
    match flag {
        None | Some("auto") => Ok(None),
        Some("line") => Ok(Some(TraceFileFormat::Line)),
        Some("binary") => Ok(Some(TraceFileFormat::Binary)),
        Some("cbp") => Ok(Some(TraceFileFormat::Cbp)),
        Some(other) => Err(Failure::Usage(format!(
            "unknown input format '{other}' (line|binary|cbp|auto)"
        ))),
    }
}

/// Streams a synthetic workload to a trace file in O(1) memory: the
/// generator source is drained in batches through a [`TraceFileWriter`],
/// so any `--branches` works without materializing the event vector.
fn generate(rest: &[String]) -> Result<(), Failure> {
    let mut a = Args::new(rest);
    let workload = a
        .opt("--workload")?
        .ok_or_else(|| Failure::Usage("--workload is required".to_string()))?;
    let out = a
        .opt("--out")?
        .ok_or_else(|| Failure::Usage("--out is required".to_string()))?;
    let branches: usize = a.opt_parse("--branches", "an integer")?.unwrap_or(120_000);
    let seed: u64 = a.opt_parse("--seed", "an integer")?.unwrap_or(42);
    let format = a.opt("--format")?;
    a.finish_empty()?;
    let format = out_format(format.as_deref(), &out)?;

    let profile = profiles::by_name(&workload).ok_or_else(|| {
        Failure::from(stbpu_engine::EngineError::UnknownWorkload(workload.clone()))
    })?;
    let mut source = TraceGenerator::new(profile, seed).into_source(branches);
    let file = std::fs::File::create(&out)?;
    // One reused record buffer for the whole stream, batched pulls from
    // the generator: no per-event allocation on either side.
    let mut w = TraceFileWriter::new(format, BufWriter::new(file));
    w.header(source.name(), source.branch_hint(), source.thread_count())?;
    let mut events: u64 = 0;
    source.for_each_batch(4_096, |batch| {
        for ev in batch {
            w.event(ev)?;
        }
        events += batch.len() as u64;
        Ok::<(), Failure>(())
    })?;
    w.flush()?;
    eprintln!("wrote {events} events ({branches} branches, {format} format) to {out}");
    Ok(())
}

/// Streams a trace of either format, reporting the detected format, size
/// (when the input has one), declared metadata, exact counts and scan
/// throughput. The input may be a regular file, `-` for stdin, or a
/// non-seekable path (pipe/FIFO/device) — the latter two stream with an
/// unknown byte size.
fn inspect(rest: &[String]) -> Result<(), Failure> {
    let mut a = Args::new(rest);
    let json = a.flag("--json");
    let ops = a.finish()?;
    let [path] = &ops[..] else {
        return Err(Failure::Usage(
            "inspect takes exactly one FILE operand ('-' reads stdin)".to_string(),
        ));
    };

    if path == "-" {
        let src = open_trace_stream(std::io::stdin(), "<stdin>")
            .map_err(|e| Failure::Runtime(e.to_string()))?;
        let format = src.format();
        return inspect_source(src, format, None, "<stdin>", json);
    }
    let meta = std::fs::metadata(path)?;
    if meta.is_file() {
        // Phase files share the trace-inspection entry point: sniff the
        // 4-byte magic before handing the file to the trace openers,
        // which would reject "STBP" as an unknown format.
        if sniff_stbp(path)? {
            return inspect_stbp(path, meta.len(), json);
        }
        let src = open_trace_file(Path::new(path)).map_err(|e| Failure::Runtime(e.to_string()))?;
        let format = src.format();
        inspect_source(src, format, Some(meta.len()), path, json)
    } else {
        // A pipe, FIFO or device: readable but neither seekable nor
        // sized, so stream it like stdin.
        let file = std::fs::File::open(path)?;
        let src = open_trace_stream(file, path).map_err(|e| Failure::Runtime(e.to_string()))?;
        let format = src.format();
        inspect_source(src, format, None, path, json)
    }
}

/// The format-agnostic inspect scan: counts every record class from any
/// event source; `bytes` is `None` when the input has no knowable size.
fn inspect_source<S: EventSource>(
    mut src: S,
    format: TraceFileFormat,
    bytes: Option<u64>,
    path: &str,
    json: bool,
) -> Result<(), Failure> {
    let declared_branches = src.branch_hint();
    let declared_threads = src.thread_count();

    let (mut branches, mut taken, mut switches, mut modes, mut interrupts) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut max_tid = 0u8;
    // Scan-progress cadence: frequent enough to show life on 100M-record
    // files, silent on anything CI-sized.
    const PROGRESS_EVERY: u64 = 8_000_000;
    let mut next_progress = PROGRESS_EVERY;
    let start = Instant::now();
    src.for_each_batch(4_096, |batch| {
        for ev in batch {
            match *ev {
                TraceEvent::Branch { tid, rec } => {
                    branches += 1;
                    taken += rec.taken as u64;
                    max_tid = max_tid.max(tid);
                }
                TraceEvent::ContextSwitch { tid, .. } => {
                    switches += 1;
                    max_tid = max_tid.max(tid);
                }
                TraceEvent::ModeSwitch { tid, .. } => {
                    modes += 1;
                    max_tid = max_tid.max(tid);
                }
                TraceEvent::Interrupt { tid } => {
                    interrupts += 1;
                    max_tid = max_tid.max(tid);
                }
            }
        }
        // Scan progress for paper-scale files (stderr, never in --json).
        let events = branches + switches + modes + interrupts;
        if events >= next_progress {
            eprintln!(
                "scanning: {events} records ({:.1}M records/s)",
                events as f64 / start.elapsed().as_secs_f64().max(1e-9) / 1e6
            );
            next_progress += PROGRESS_EVERY;
        }
        Ok::<(), Failure>(())
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    let name = src.name().to_string();
    let events = branches + switches + modes + interrupts;
    let records_per_s = events as f64 / elapsed.max(1e-9);
    let taken_rate = if branches > 0 {
        taken as f64 / branches as f64
    } else {
        0.0
    };

    if json {
        println!(
            "{{\"name\":{},\"format\":\"{format}\",\"bytes\":{},\
             \"declared_branches\":{},\"declared_threads\":{declared_threads},\
             \"events\":{events},\"branches\":{branches},\"taken_rate\":{taken_rate:.6},\
             \"context_switches\":{switches},\"mode_switches\":{modes},\
             \"interrupts\":{interrupts},\"max_tid\":{max_tid},\
             \"records_per_s\":{records_per_s:.0}}}",
            stbpu_engine::minijson::escape(&name),
            bytes
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".to_string()),
            declared_branches
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".to_string()),
        );
    } else {
        match bytes {
            Some(b) => println!("{path}: trace '{name}' ({format} format, {b} bytes)"),
            None => println!("{path}: trace '{name}' ({format} format, size unknown)"),
        }
        match declared_branches {
            Some(b) => println!("  declared: {b} branches, {declared_threads} threads"),
            None => println!("  declared: no metadata headers (threads {declared_threads})"),
        }
        println!("  events:   {events} total — {branches} branches (taken rate {taken_rate:.4}),");
        println!(
            "            {switches} context switches, {modes} mode switches, {interrupts} interrupts"
        );
        println!(
            "  scan:     {:.3}s ({:.1}M records/s)",
            elapsed,
            records_per_s / 1e6
        );
        if let Some(b) = declared_branches {
            if b != branches {
                println!("  WARNING: declared branch count {b} != actual {branches}");
            }
        }
    }
    Ok(())
}

/// True when the file starts with the `.stbp` phase-file magic. A file
/// shorter than the magic is simply not a phase file.
fn sniff_stbp(path: &str) -> Result<bool, Failure> {
    use std::io::Read;
    let mut head = [0u8; 4];
    let mut file = std::fs::File::open(path)?;
    match file.read_exact(&mut head) {
        Ok(()) => Ok(head == STBP_MAGIC),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e.into()),
    }
}

/// Inspects a `.stbp` phase file: stream identity, slice size, per-phase
/// weights and embedded-checkpoint presence.
fn inspect_stbp(path: &str, bytes: u64, json: bool) -> Result<(), Failure> {
    let pf = PhaseFile::load(Path::new(path)).map_err(|e| Failure::Runtime(e.to_string()))?;
    let warm = pf.phases.iter().filter(|p| p.has_checkpoint()).count();
    let simulated = pf.simulated_branches();
    let pct = simulated as f64 * 100.0 / (pf.total_branches as f64).max(1.0);
    if json {
        let phases: Vec<String> = pf
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"rep_slice\":{},\"weight_branches\":{},\"weight_slices\":{},\
                     \"start_branch\":{},\"start_event\":{},\"rep_branches\":{},\
                     \"checkpoint_bytes\":{}}}",
                    p.rep_slice,
                    p.weight_branches,
                    p.weight_slices,
                    p.start_branch,
                    p.start_event,
                    p.rep_branches,
                    p.checkpoint.len()
                )
            })
            .collect();
        println!(
            "{{\"format\":\"stbp\",\"workload\":{},\"bytes\":{bytes},\"seed\":{},\
             \"total_branches\":{},\"total_instructions\":{},\"total_events\":{},\
             \"slice_branches\":{},\"cluster_seed\":{},\"phases\":{},\"warm_phases\":{warm},\
             \"simulated_branches\":{simulated},\"phase_table\":[{}]}}",
            stbpu_engine::minijson::escape(&pf.workload),
            pf.seed,
            pf.total_branches,
            pf.total_instructions,
            pf.total_events,
            pf.slice_branches,
            pf.cluster_seed,
            pf.phases.len(),
            phases.join(",")
        );
    } else {
        println!(
            "{path}: phase file '{}' (.stbp format, {bytes} bytes)",
            pf.workload
        );
        println!(
            "  stream:   {} branches, {} instructions, {} events (seed {})",
            pf.total_branches, pf.total_instructions, pf.total_events, pf.seed
        );
        println!(
            "  slices:   {} branches/slice, cluster seed {}",
            pf.slice_branches, pf.cluster_seed
        );
        println!(
            "  phases:   {} ({warm} with embedded warm checkpoints) — simulating {simulated} \
             branches ({pct:.1}% of the stream)",
            pf.phases.len()
        );
        println!(
            "  {:>5} {:>9} {:>14} {:>8} {:>14} {:>12} {:>10}",
            "phase", "rep", "weight(br)", "slices", "start(br)", "rep(br)", "warm"
        );
        for (i, p) in pf.phases.iter().enumerate() {
            println!(
                "  {i:>5} {:>9} {:>14} {:>8} {:>14} {:>12} {:>10}",
                p.rep_slice,
                p.weight_branches,
                p.weight_slices,
                p.start_branch,
                p.rep_branches,
                if p.has_checkpoint() {
                    format!("{} B", p.checkpoint.len())
                } else {
                    "-".to_string()
                }
            );
        }
    }
    Ok(())
}

/// `stbpu trace simpoint` — the SimPoint pipeline: one streaming BBV
/// pass, seeded k-means, and a `.stbp` phase file out.
fn simpoint(rest: &[String]) -> Result<(), Failure> {
    let defaults = ClusterConfig::default();
    let mut a = Args::new(rest);
    let workload_name = a.opt("--workload")?;
    let trace_file = a.opt("--trace-file")?;
    let out = a
        .opt("--out")?
        .ok_or_else(|| Failure::Usage("--out is required".to_string()))?;
    let branches: usize = a.opt_parse("--branches", "an integer")?.unwrap_or(120_000);
    let seed: u64 = a.opt_parse("--seed", "an integer")?.unwrap_or(42);
    let slice_branches: u64 = a
        .opt_parse("--slice-branches", "an integer")?
        .unwrap_or(stbpu_trace::DEFAULT_SLICE_BRANCHES);
    let k_max: usize = a
        .opt_parse("--k-max", "an integer")?
        .unwrap_or(defaults.k_max);
    let forced_k: Option<usize> = a.opt_parse("--k", "an integer")?;
    let cluster_seed: u64 = a
        .opt_parse("--cluster-seed", "an integer")?
        .unwrap_or(defaults.seed);
    let embed_model = a.opt("--embed-model")?;
    let protection = a.opt("--protection")?;
    a.finish_empty()?;

    if protection.is_some() && embed_model.is_none() {
        return Err(Failure::Usage(
            "--protection only applies together with --embed-model".to_string(),
        ));
    }
    let workload = match (workload_name, trace_file) {
        (Some(_), Some(_)) => {
            return Err(Failure::Usage(
                "--workload and --trace-file are mutually exclusive".to_string(),
            ))
        }
        (None, Some(path)) => Workload::File(path.into()),
        (Some(name), None) => Workload::Named(name),
        (None, None) => {
            return Err(Failure::Usage(
                "--workload or --trace-file is required".to_string(),
            ))
        }
    };
    workload.validate().map_err(Failure::from)?;

    let registry = ModelRegistry::standard();
    let embed = match embed_model {
        Some(spec) => {
            let policy = crate::simulate::resolve_policy(protection.as_deref(), &spec)?;
            Some((spec, policy))
        }
        None => None,
    };
    let opts = PhaseBuildOptions {
        slice_branches,
        cluster: ClusterConfig {
            k_max,
            forced_k,
            seed: cluster_seed,
            ..defaults
        },
        embed,
    };
    let pf =
        build_phase_file(&registry, seed, &workload, branches, &opts).map_err(Failure::from)?;
    pf.save(Path::new(&out))
        .map_err(|e| Failure::Runtime(e.to_string()))?;
    let slices: u64 = pf.phases.iter().map(|p| p.weight_slices).sum();
    eprintln!(
        "wrote {} phases over {slices} slices ({} branches/slice) to {out}: simulating {} of {} \
         branches ({:.1}%){}",
        pf.phases.len(),
        pf.slice_branches,
        pf.simulated_branches(),
        pf.total_branches,
        pf.simulated_branches() as f64 * 100.0 / (pf.total_branches as f64).max(1.0),
        if pf.fully_warm() {
            ", warm checkpoints embedded"
        } else {
            ""
        }
    );
    Ok(())
}

/// Re-serializes a trace file, converting between formats: the input
/// format is auto-detected, the output format follows `--format` or the
/// destination extension. Headers are normalized (`branches`/`threads`
/// recomputed) and the trace optionally renamed.
///
/// Streams in two passes — pass 1 counts branches/threads (and picks up
/// any late `# trace` header) for the normalized header, pass 2 copies
/// events — so file size never bounds memory, matching `generate`.
fn convert(rest: &[String]) -> Result<(), Failure> {
    let mut a = Args::new(rest);
    let name = a.opt("--name")?;
    let format = a.opt("--format")?;
    let from = a.opt("--from")?;
    let ops = a.finish()?;
    let [input, output] = &ops[..] else {
        return Err(Failure::Usage(
            "convert takes exactly two operands: IN OUT".to_string(),
        ));
    };
    let out_fmt = out_format(format.as_deref(), output)?;
    let want_fmt = in_format(from.as_deref())?;

    let open = || open_trace_file(Path::new(input)).map_err(|e| Failure::Runtime(e.to_string()));

    // Pass 1: exact counts for the normalized header.
    let mut src = open()?;
    let in_fmt = src.format();
    if let Some(want) = want_fmt {
        if want != in_fmt {
            return Err(Failure::Runtime(format!(
                "{input}: detected {in_fmt} format, but --from {want} was asserted"
            )));
        }
    }
    let (mut events, mut branches, mut threads) = (0u64, 0u64, 0usize);
    src.for_each_batch(4_096, |batch| {
        for ev in batch {
            events += 1;
            if matches!(ev, TraceEvent::Branch { .. }) {
                branches += 1;
            }
            threads = threads.max(ev.tid() as usize + 1);
        }
        Ok::<(), Failure>(())
    })?;
    // A late `# trace` header has been absorbed by now; an explicit
    // --name wins over whatever the file declares.
    let name = name.unwrap_or_else(|| src.name().to_string());

    // Pass 2: copy events under the normalized header.
    let mut src = open()?;
    let out = std::fs::File::create(output)?;
    let mut w = TraceFileWriter::new(out_fmt, BufWriter::new(out));
    w.header(&name, Some(branches), threads)?;
    src.for_each_batch(4_096, |batch| {
        for ev in batch {
            w.event(ev)?;
        }
        Ok::<(), Failure>(())
    })?;
    w.flush()?;
    eprintln!(
        "converted {input} ({in_fmt}) -> {output} ({out_fmt}; {events} events, \
         {branches} branches, {threads} threads)"
    );
    Ok(())
}
