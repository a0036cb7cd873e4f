//! `quickrec` — command-line record/replay for PIA assembly programs.
//!
//! ```text
//! quickrec run      prog.pasm [--cores N]          run natively
//! quickrec record   prog.pasm -o DIR [--cores N] [--order M] [--hw-only] [--rsw] [--trace-out F]
//! quickrec replay   prog.pasm DIR [--races] [--salvage] [--trace-out F]
//! quickrec verify   DIR                            log integrity check
//! quickrec migrate  DIR                            upgrade to the current format
//! quickrec analyze  DIR                            chunk-log forensics
//! quickrec disasm   prog.pasm                      disassemble
//! quickrec suite    [--threads N]                  run the workload suite
//! quickrec serve    (--socket P | --tcp A) [...]   run the quickrecd daemon
//! quickrec submit   --socket P (--workload W | prog.pasm)   queue a RECORD job
//! quickrec fetch    --socket P ID -o DIR           download a stored recording
//! quickrec query    --socket P ID (--range A..B | --thread T | --window A..B |
//!                   --before-divergence K | --reverse-step N) [--dry-run]
//!                   [--max-events M] [--replay-id R]   time-travel query
//! quickrec jobs     --socket P                     list sessions
//! quickrec stats    --socket P [--metrics]         server + session counters
//! quickrec shutdown --socket P                     graceful daemon shutdown
//! ```
//!
//! Programs are textual PIA assembly (see `qr_isa::text` for the
//! dialect); recordings are directories of three files written by
//! `Recording::save`. The server commands talk to a running `quickrecd`
//! (or `quickrec serve`) over its Unix-socket or TCP endpoint.

use qr_obs::{Journal, Span};
use qr_server::proto::{Endpoint, Request, Response};
use quickrec::workloads::Scale;
use quickrec::{record, Encoding, OrderMode, Recording, RecordingConfig, RecordingMode, TsoMode};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("quickrec: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A subcommand handler, given all its arguments and the positional ones.
type Handler = fn(&[String], &[&String]) -> Result<(), String>;

/// Every subcommand but `serve` (which parses its own, in
/// `qr_server::daemon`): its flags that take a value, its switches, and
/// its handler.
const COMMANDS: &[(&str, &[&str], &[&str], Handler)] = &[
    ("run", &["--cores"], &[], cmd_run),
    ("record", &["-o", "--cores", "--order", "--trace-out"], &["--hw-only", "--rsw"], cmd_record),
    ("replay", &["--trace-out"], &["--races", "--salvage"], cmd_replay),
    ("verify", &[], &[], cmd_verify),
    ("migrate", &[], &[], cmd_migrate),
    ("analyze", &[], &[], cmd_analyze),
    ("timeline", &["--rows"], &[], cmd_timeline),
    ("dot", &[], &[], cmd_dot),
    ("disasm", &[], &[], cmd_disasm),
    ("suite", &["--threads"], &[], cmd_suite),
    (
        "submit",
        &[
            "--socket", "--tcp", "--workload", "--threads", "--scale", "--cores", "--name",
            "--encoding", "--order", "--timeout",
        ],
        &["--no-wait"],
        cmd_submit,
    ),
    ("fetch", &["--socket", "--tcp", "-o"], &[], cmd_fetch),
    (
        "query",
        &[
            "--socket", "--tcp", "--range", "--thread", "--window", "--before-divergence",
            "--reverse-step", "--max-events", "--replay-id",
        ],
        &["--dry-run"],
        cmd_query,
    ),
    ("jobs", &["--socket", "--tcp"], &[], cmd_jobs),
    ("stats", &["--socket", "--tcp"], &["--metrics"], cmd_stats),
    ("shutdown", &["--socket", "--tcp"], &[], cmd_shutdown),
];

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match command.as_str() {
        "serve" => return qr_server::daemon::run(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return Ok(());
        }
        _ => {}
    }
    let Some(&(_, values, switches, handler)) = COMMANDS.iter().find(|c| c.0 == command) else {
        return Err(format!("unknown command `{command}`\n{}", usage()));
    };
    handler(rest, &positional(rest, values, switches)?)
}

fn usage() -> String {
    "usage:\n  quickrec run      <prog.pasm> [--cores N]\n  \
     quickrec record   <prog.pasm> -o <dir> [--cores N] [--order total|partial] [--hw-only] [--rsw] [--trace-out FILE]\n  \
     quickrec replay   <prog.pasm> <dir> [--races] [--salvage] [--trace-out FILE]\n  \
     quickrec verify   <dir>\n  \
     quickrec migrate  <dir>                         upgrade a recording to the current format\n  \
     quickrec analyze  <dir>\n  \
     quickrec timeline <dir> [--rows N]\n  \
     quickrec dot      <dir>\n  \
     quickrec disasm   <prog.pasm>\n  \
     quickrec suite    [--threads N]\n  \
     quickrec serve    (--socket PATH | --tcp ADDR) [--store DIR] [--workers N] [--queue N] [--max-conns N]\n  \
     quickrec submit   (--socket PATH | --tcp ADDR) (--workload NAME [--threads N] [--scale S] | <prog.pasm> [--cores N]) [--name LABEL] [--encoding E] [--order total|partial] [--no-wait]\n  \
     quickrec fetch    (--socket PATH | --tcp ADDR) <id> -o <dir>\n  \
     quickrec query    (--socket PATH | --tcp ADDR) <id> (--range A..B | --thread T | --window A..B | --before-divergence K | --reverse-step N) [--dry-run] [--max-events M] [--replay-id R]\n  \
     quickrec jobs     (--socket PATH | --tcp ADDR)\n  \
     quickrec stats    (--socket PATH | --tcp ADDR) [--metrics]\n  \
     quickrec shutdown (--socket PATH | --tcp ADDR)"
        .to_string()
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Checks `args` against one subcommand's options and returns its
/// positional arguments. An unknown option, or a value flag given last,
/// is a usage error naming the flag.
fn positional<'a>(args: &'a [String], values: &[&str], switches: &[&str]) -> Result<Vec<&'a String>, String> {
    let mut out = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if values.contains(&a.as_str()) {
            rest.next().ok_or_else(|| format!("{a} needs a value\n{}", usage()))?;
        } else if !a.starts_with('-') {
            out.push(a);
        } else if !switches.contains(&a.as_str()) {
            return Err(format!("unknown option `{a}`\n{}", usage()));
        }
    }
    Ok(out)
}

/// `--trace-out FILE`: the command's own trace journal, recording only
/// when the flag is given (untraced runs pay nothing).
struct TraceOut {
    path: Option<PathBuf>,
    journal: Journal,
}

impl TraceOut {
    fn from_args(args: &[String]) -> TraceOut {
        let path = flag_value(args, "--trace-out").map(PathBuf::from);
        let journal = Journal::new();
        journal.set_enabled(path.is_some());
        TraceOut { path, journal }
    }

    fn span(&self, name: &'static str) -> Span<'_> {
        self.journal.span(name, 0)
    }

    /// Drains the journal into a framed `.qrt` file, if one was asked for.
    fn write(&self) -> Result<(), String> {
        let Some(path) = &self.path else { return Ok(()) };
        let events = self.journal.drain();
        let bytes = qr_obs::trace::to_bytes(&events);
        std::fs::write(path, bytes)
            .map_err(|e| format!("writing trace journal {}: {e}", path.display()))?;
        println!("trace journal: {} event(s) -> {}", events.len(), path.display());
        Ok(())
    }
}

fn order_arg(args: &[String]) -> Result<OrderMode, String> {
    match flag_value(args, "--order").as_deref() {
        None | Some("total") => Ok(OrderMode::TotalOrder),
        Some("partial") => Ok(OrderMode::PartialOrder),
        Some(v) => Err(format!("bad --order value `{v}` (total or partial)")),
    }
}

fn cores_arg(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--cores") {
        None => Ok(4),
        Some(v) => v.parse().map_err(|_| format!("bad --cores value `{v}`")),
    }
}

fn load_program(path: &str) -> Result<quickrec::Program, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let name = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program")
        .to_string();
    qr_isa::text::assemble(&name, &source).map_err(|e| e.to_string())
}

fn cmd_run(args: &[String], pos: &[&String]) -> Result<(), String> {
    let [path] = pos else { return Err(usage()) };
    let program = load_program(path)?;
    let cores = cores_arg(args)?;
    let out = quickrec::run_baseline(program, cores).map_err(|e| e.to_string())?;
    print!("{}", String::from_utf8_lossy(&out.console));
    println!(
        "exit {} after {} instructions, {} cycles on {cores} cores",
        out.exit_code, out.instructions, out.cycles
    );
    Ok(())
}

fn cmd_record(args: &[String], pos: &[&String]) -> Result<(), String> {
    let [path] = pos else { return Err(usage()) };
    let out_dir = PathBuf::from(flag_value(args, "-o").ok_or("record needs -o <dir>")?);
    let trace = TraceOut::from_args(args);
    let program = load_program(path)?;
    let mut cfg = RecordingConfig::with_cores(cores_arg(args)?);
    cfg.order = order_arg(args)?;
    if has_flag(args, "--hw-only") {
        cfg.mode = RecordingMode::HardwareOnly;
    }
    if has_flag(args, "--rsw") {
        cfg.cpu.mem.tso_mode = TsoMode::Rsw;
    }
    let recording = {
        let _span = trace.span("record");
        record(program, cfg).map_err(|e| e.to_string())?
    };
    {
        let _span = trace.span("save");
        recording.save(&out_dir, Encoding::Delta).map_err(|e| e.to_string())?;
    }
    trace.write()?;
    print!("{}", String::from_utf8_lossy(&recording.console));
    println!(
        "recorded {} instructions into {} chunks (exit {}); logs in {}",
        recording.instructions,
        recording.chunks.len(),
        recording.exit_code,
        out_dir.display()
    );
    println!(
        "memory log {:.2} B/kilo-instruction, input log {} bytes, overhead {} cycles",
        recording.log_bytes_per_kilo_instruction(Encoding::Delta),
        recording.inputs.byte_size(),
        recording.overhead.total(),
    );
    if let Some(order) = &recording.order {
        println!(
            "ordering log: partial order, {} nodes, {} edges, {} bytes",
            order.node_count(),
            order.edges().len(),
            order.byte_size()
        );
    }
    Ok(())
}

fn cmd_replay(args: &[String], pos: &[&String]) -> Result<(), String> {
    let [path, dir] = pos else { return Err(usage()) };
    let trace = TraceOut::from_args(args);
    let program = load_program(path)?;
    if has_flag(args, "--salvage") {
        // Best-effort mode for damaged logs: replay the longest valid
        // prefix and report what was lost. Fails only when the metadata
        // is unreadable or the salvaged prefix is not reproducible.
        let report = qr_replay::salvage_replay_dir(&program, Path::new(dir.as_str()))
            .map_err(|e| e.to_string())?;
        print!("{}", String::from_utf8_lossy(&report.console));
        print!("{}", report.summary());
        if report.fingerprint.is_some() && !report.fingerprint_consistent {
            return Err("salvaged prefix is not internally consistent".to_string());
        }
        if report.is_complete() {
            println!("recording intact — full replay verified");
        } else {
            println!("salvaged a consistent execution prefix");
        }
        trace.write()?;
        return Ok(());
    }
    let recording = {
        let _span = trace.span("load_recording");
        Recording::load(Path::new(dir.as_str())).map_err(|e| e.to_string())?
    };
    if has_flag(args, "--races") {
        let _span = trace.span("replay_races");
        let (outcome, report) =
            qr_replay::replay_with_race_detection(&program, &recording).map_err(|e| e.to_string())?;
        print!("{}", String::from_utf8_lossy(&outcome.console));
        println!(
            "replayed {} chunks, {} inputs; exit {} — verified exact",
            outcome.chunks_replayed, outcome.inputs_injected, outcome.exit_code
        );
        if report.is_empty() {
            println!("race detector: no data races");
        } else {
            println!("race detector: {} racy word(s):", report.len());
            for race in report.races() {
                println!("  {race}");
            }
        }
    } else if recording.order.is_some() {
        // Partial-order recordings replay under their recorded
        // happens-before edges, on the one-worker schedule.
        let _span = trace.span("replay_ordered");
        let outcome = qr_replay::replay_ordered_and_verify(&program, &recording, 1)
            .map_err(|e| e.to_string())?;
        print!("{}", String::from_utf8_lossy(&outcome.console));
        println!(
            "replayed {} chunks, {} inputs; exit {} — verified exact",
            outcome.chunks_replayed, outcome.inputs_injected, outcome.exit_code
        );
        let order = recording.order.as_ref().expect("checked above");
        println!(
            "partial-order replay: {} recorded edges over {} nodes",
            order.edges().len(),
            order.node_count()
        );
    } else {
        let _span = trace.span("replay_serial");
        let outcome =
            quickrec::replay_and_verify(&program, &recording).map_err(|e| e.to_string())?;
        print!("{}", String::from_utf8_lossy(&outcome.console));
        println!(
            "replayed {} chunks, {} inputs; exit {} — verified exact",
            outcome.chunks_replayed, outcome.inputs_injected, outcome.exit_code
        );
    }
    trace.write()?;
    Ok(())
}

fn cmd_verify(_args: &[String], pos: &[&String]) -> Result<(), String> {
    let [dir] = pos else { return Err(usage()) };
    let dir_path = Path::new(dir.as_str());
    // A missing directory or a directory with none of the recording
    // files present gets one clear diagnosis instead of a per-file
    // cascade of raw OS errors.
    if !dir_path.is_dir() {
        return Err(format!("`{dir}` is not a recording directory: no such directory"));
    }
    let report = Recording::verify_dir(dir_path);
    if report.files.iter().all(|f| f.bytes.is_none()) {
        return Err(format!(
            "`{dir}` is not a recording directory: none of the recording files \
             (meta.qrm, chunks.qrl, inputs.qrl) are present"
        ));
    }
    for file in &report.files {
        println!("{}", file.describe());
    }
    if report.all_ok() {
        println!("recording verified: all files decode cleanly");
        Ok(())
    } else {
        Err("recording failed verification".to_string())
    }
}

fn cmd_migrate(_args: &[String], pos: &[&String]) -> Result<(), String> {
    let [dir] = pos else { return Err(usage()) };
    let dir_path = Path::new(dir.as_str());
    if !dir_path.is_dir() {
        return Err(format!("`{dir}` is not a recording directory: no such directory"));
    }
    let report = quickrec::migrate::migrate(dir_path).map_err(|e| e.to_string())?;
    println!("{}", report.describe());
    Ok(())
}

fn cmd_analyze(_args: &[String], pos: &[&String]) -> Result<(), String> {
    let [dir] = pos else { return Err(usage()) };
    let recording = Recording::load(Path::new(dir.as_str())).map_err(|e| e.to_string())?;
    println!(
        "recording: {} instructions, {} cycles, exit {}, fingerprint {:016x}",
        recording.instructions, recording.cycles, recording.exit_code, recording.fingerprint
    );
    println!(
        "platform: {} cores, tso {:?}, quantum {}",
        recording.meta.cpu.num_cores, recording.meta.tso_mode, recording.meta.os.quantum_cycles
    );
    match &recording.order {
        Some(order) => println!(
            "order: partial ({} nodes, {} recorded edges, {} bytes)",
            order.node_count(),
            order.edges().len(),
            order.byte_size()
        ),
        None => println!("order: total (global chunk timestamps)"),
    }
    println!("\nchunks: {} total", recording.chunks.len());
    if !recording.chunks.is_empty() {
        for p in [50, 90, 99] {
            println!("  p{p:<2} size {:>8}", recording.chunks.chunk_size_percentile(p));
        }
    }
    let mut by_reason: Vec<(quickrec::TerminationReason, usize)> = quickrec::TerminationReason::ALL
        .iter()
        .map(|&r| (r, recording.chunks.packets().iter().filter(|c| c.reason == r).count()))
        .filter(|&(_, n)| n > 0)
        .collect();
    by_reason.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("  termination reasons:");
    for (reason, count) in by_reason {
        println!("    {:<8} {count}", reason.label());
    }
    println!("\nper thread:");
    for (tid, chunks) in recording.chunks.per_thread() {
        let instrs: u64 = chunks.iter().map(|c| c.icount).sum();
        println!("  {tid}: {} chunks, {} instructions", chunks.len(), instrs);
    }
    println!("\ninput events: {}", recording.inputs.events().len());
    println!("encodings:");
    for enc in Encoding::ALL {
        println!("  {:<7} {:>8} bytes", enc.name(), recording.chunks.to_bytes(enc).len());
    }
    Ok(())
}

fn cmd_timeline(args: &[String], pos: &[&String]) -> Result<(), String> {
    let [dir] = pos else { return Err(usage()) };
    let rows: usize = match flag_value(args, "--rows") {
        None => 60,
        Some(v) => v.parse().map_err(|_| format!("bad --rows value `{v}`"))?,
    };
    let recording = Recording::load(Path::new(dir.as_str())).map_err(|e| e.to_string())?;
    println!("order mode: {}", recording.order_mode().name());
    print!("{}", quickrec_core::viz::timeline(&recording.chunks, rows));
    Ok(())
}

fn cmd_dot(_args: &[String], pos: &[&String]) -> Result<(), String> {
    let [dir] = pos else { return Err(usage()) };
    let recording = Recording::load(Path::new(dir.as_str())).map_err(|e| e.to_string())?;
    println!("// order mode: {}", recording.order_mode().name());
    print!("{}", quickrec_core::viz::to_dot(&recording.chunks, 400));
    Ok(())
}

fn cmd_disasm(_args: &[String], pos: &[&String]) -> Result<(), String> {
    let [path] = pos else { return Err(usage()) };
    let program = load_program(path)?;
    print!("{}", qr_isa::disasm::disassemble(&program));
    Ok(())
}

fn endpoint_arg(args: &[String]) -> Result<Endpoint, String> {
    match (flag_value(args, "--socket"), flag_value(args, "--tcp")) {
        (Some(path), None) => Ok(Endpoint::Unix(PathBuf::from(path))),
        (None, Some(addr)) => Ok(Endpoint::Tcp(addr)),
        (Some(_), Some(_)) => Err("pass --socket or --tcp, not both".to_string()),
        (None, None) => Err("server commands need --socket PATH or --tcp ADDR".to_string()),
    }
}

fn connect(args: &[String]) -> Result<qr_server::Client, String> {
    let endpoint = endpoint_arg(args)?;
    qr_server::Client::connect(&endpoint).map_err(|e| e.to_string())
}

fn encoding_arg(args: &[String]) -> Result<Encoding, String> {
    match flag_value(args, "--encoding") {
        None => Ok(Encoding::Delta),
        Some(v) => Encoding::ALL
            .into_iter()
            .find(|e| e.name() == v)
            .ok_or(format!("bad --encoding value `{v}` (raw, packed or delta)")),
    }
}

fn scale_arg(args: &[String]) -> Result<Scale, String> {
    match flag_value(args, "--scale").as_deref() {
        None | Some("small") => Ok(Scale::Small),
        Some("test") => Ok(Scale::Test),
        Some("reference") => Ok(Scale::Reference),
        Some(v) => Err(format!("bad --scale value `{v}` (test, small or reference)")),
    }
}

fn cmd_submit(args: &[String], pos: &[&String]) -> Result<(), String> {
    let mut client = connect(args)?;
    let encoding = encoding_arg(args)?;
    let request = if let Some(workload) = flag_value(args, "--workload") {
        let threads: u32 = match flag_value(args, "--threads") {
            None => 4,
            Some(v) => v.parse().map_err(|_| format!("bad --threads value `{v}`"))?,
        };
        Request::SubmitWorkload {
            name: flag_value(args, "--name").unwrap_or_else(|| workload.clone()),
            workload,
            threads,
            scale: scale_arg(args)?,
            encoding,
            order: order_arg(args)?,
        }
    } else {
        let [path] = pos else {
            return Err("submit needs --workload NAME or a <prog.pasm> path".to_string());
        };
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let name = flag_value(args, "--name").unwrap_or_else(|| {
            Path::new(path.as_str())
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("program")
                .to_string()
        });
        let cores = u32::try_from(cores_arg(args)?).map_err(|_| "bad --cores value")?;
        Request::SubmitProgram { name, source, cores, encoding, order: order_arg(args)? }
    };
    let id = match client.call(&request).map_err(|e| e.to_string())? {
        Response::Submitted { id } => id,
        Response::Busy { queued } => {
            return Err(format!("server busy: {queued} job(s) queued; retry later"))
        }
        Response::Error { message } => return Err(message),
        other => return Err(format!("unexpected response {other:?}")),
    };
    println!("session {id} queued ({} encoding)", encoding.name());
    if has_flag(args, "--no-wait") {
        return Ok(());
    }
    let timeout = match flag_value(args, "--timeout") {
        None => 120,
        Some(v) => v.parse().map_err(|_| format!("bad --timeout value `{v}`"))?,
    };
    let job = client
        .wait_for(id, Duration::from_secs(timeout))
        .map_err(|e| e.to_string())?;
    match job.state {
        qr_server::proto::JobState::Failed(message) => {
            Err(format!("session {id} failed: {message}"))
        }
        _ => {
            println!(
                "session {id} done: {} ({}), fingerprint {:016x}",
                job.name, job.workload, job.fingerprint
            );
            Ok(())
        }
    }
}

fn cmd_fetch(args: &[String], pos: &[&String]) -> Result<(), String> {
    let [id] = pos else { return Err(usage()) };
    let id: u64 = id.parse().map_err(|_| format!("bad session id `{id}`"))?;
    let out_dir = PathBuf::from(flag_value(args, "-o").ok_or("fetch needs -o <dir>")?);
    let mut client = connect(args)?;
    match client.call(&Request::Fetch { id }).map_err(|e| e.to_string())? {
        Response::Fetched { files, fingerprint } => {
            std::fs::create_dir_all(&out_dir)
                .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
            let mut total = 0usize;
            for (name, bytes) in &files {
                total += bytes.len();
                std::fs::write(out_dir.join(name), bytes)
                    .map_err(|e| format!("writing {name}: {e}"))?;
            }
            println!(
                "fetched session {id}: {} file(s), {total} bytes, fingerprint {fingerprint:016x} -> {}",
                files.len(),
                out_dir.display()
            );
            Ok(())
        }
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected response {other:?}")),
    }
}

fn parse_span(flag: &str, v: &str) -> Result<(u64, u64), String> {
    let parsed = v.split_once("..").and_then(|(a, b)| {
        Some((a.trim().parse::<u64>().ok()?, b.trim().parse::<u64>().ok()?))
    });
    parsed.ok_or(format!("bad {flag} value `{v}` (need START..END)"))
}

fn query_arg(args: &[String]) -> Result<quickrec::ReplayQuery, String> {
    use quickrec::ReplayQuery;
    let mut chosen = Vec::new();
    if let Some(v) = flag_value(args, "--range") {
        let (start, end) = parse_span("--range", &v)?;
        chosen.push(ReplayQuery::Range { start, end });
    }
    if let Some(v) = flag_value(args, "--thread") {
        let tid: u32 = v.parse().map_err(|_| format!("bad --thread value `{v}`"))?;
        chosen.push(ReplayQuery::Thread { tid: quickrec::ThreadId(tid) });
    }
    if let Some(v) = flag_value(args, "--window") {
        let (start, end) = parse_span("--window", &v)?;
        chosen.push(ReplayQuery::Window { start, end });
    }
    if let Some(v) = flag_value(args, "--before-divergence") {
        let instructions: u64 =
            v.parse().map_err(|_| format!("bad --before-divergence value `{v}`"))?;
        chosen.push(ReplayQuery::BeforeDivergence { instructions });
    }
    if let Some(v) = flag_value(args, "--reverse-step") {
        let events: u64 = v.parse().map_err(|_| format!("bad --reverse-step value `{v}`"))?;
        chosen.push(ReplayQuery::ReverseStep { events });
    }
    match chosen.as_slice() {
        [query] => Ok(*query),
        [] => Err("query needs exactly one of --range, --thread, --window, \
                   --before-divergence or --reverse-step"
            .to_string()),
        _ => Err("query takes exactly one of --range, --thread, --window, \
                  --before-divergence or --reverse-step, not several"
            .to_string()),
    }
}

fn cmd_query(args: &[String], pos: &[&String]) -> Result<(), String> {
    let [id] = pos else { return Err(usage()) };
    let id: u64 = id.parse().map_err(|_| format!("bad session id `{id}`"))?;
    let query = query_arg(args)?;
    let max_events: u64 = match flag_value(args, "--max-events") {
        None => 0,
        Some(v) => v.parse().map_err(|_| format!("bad --max-events value `{v}`"))?,
    };
    let replay_id: u64 = match flag_value(args, "--replay-id") {
        None => 0,
        Some(v) => v.parse().map_err(|_| format!("bad --replay-id value `{v}`"))?,
    };
    let dry_run = has_flag(args, "--dry-run");
    let mut client = connect(args)?;
    let (cached, payload) =
        client.query(id, query, dry_run, max_events, replay_id).map_err(|e| e.to_string())?;
    if dry_run {
        let plan = quickrec::QueryPlan::from_bytes(&payload).map_err(|e| e.to_string())?;
        print!("{}", plan.render());
        return Ok(());
    }
    let result = quickrec::QueryResult::from_bytes(&payload).map_err(|e| e.to_string())?;
    if cached {
        println!("(served from the idempotence cache, replay id {replay_id})");
    }
    println!(
        "query: {} -> events [{}, {}) of session {id}",
        result.query, result.start, result.end
    );
    const SHOWN: usize = 24;
    for e in result.events.iter().take(SHOWN) {
        println!(
            "  event {:>6}  {:<8} {}  ts {:>8}  icount {:>6}  detail {}",
            e.pos,
            e.kind.label(),
            e.tid,
            e.timestamp.0,
            e.icount,
            e.detail
        );
    }
    if result.events.len() > SHOWN {
        println!("  ... {} more event(s)", result.events.len() - SHOWN);
    }
    if !result.console.is_empty() {
        println!("console inside span:");
        print!("{}", String::from_utf8_lossy(&result.console));
    }
    println!(
        "{} event(s), {} instruction(s) re-executed; fingerprint {:016x}",
        result.events.len(),
        result.instructions,
        result.fingerprint
    );
    if let Some(msg) = &result.diverged {
        println!("replay diverged inside the span: {msg}");
    }
    Ok(())
}

fn cmd_jobs(args: &[String], _pos: &[&String]) -> Result<(), String> {
    let mut client = connect(args)?;
    match client.call(&Request::Jobs).map_err(|e| e.to_string())? {
        Response::JobList(jobs) => {
            println!(
                "{:>4} {:<12} {:<12} {:<8} {:<8} {:<16}",
                "id", "name", "workload", "kind", "state", "fingerprint"
            );
            for job in jobs {
                println!(
                    "{:>4} {:<12} {:<12} {:<8} {:<8} {:016x}",
                    job.id, job.name, job.workload, job.kind, job.state.label(), job.fingerprint
                );
                if let qr_server::proto::JobState::Failed(message) = &job.state {
                    println!("     error: {message}");
                }
            }
            Ok(())
        }
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected response {other:?}")),
    }
}

fn cmd_stats(args: &[String], _pos: &[&String]) -> Result<(), String> {
    let mut client = connect(args)?;
    if has_flag(args, "--metrics") {
        let text = client.metrics().map_err(|e| e.to_string())?;
        // Validate the exposition before printing so a malformed
        // registry render fails loudly instead of feeding scrapers
        // garbage.
        qr_obs::parse_exposition(&text)
            .map_err(|e| format!("server returned malformed metrics exposition: {e}"))?;
        print!("{text}");
        return Ok(());
    }
    match client.call(&Request::Stats).map_err(|e| e.to_string())? {
        Response::Stats(stats) => {
            println!(
                "server: {} worker(s), {} connection(s) served",
                stats.workers, stats.connections
            );
            println!(
                "jobs: {} accepted, {} rejected busy, {} completed, {} failed",
                stats.accepted, stats.rejected_busy, stats.completed, stats.failed
            );
            if !stats.sessions.is_empty() {
                println!(
                    "{:>4} {:>7} {:>4} {:>4} {:>4} {:>4} {:>12} {:>12} {:>12}",
                    "id", "order", "rec", "rep", "ver", "rac", "raw B", "stored B", "instrs"
                );
                for s in &stats.sessions {
                    println!(
                        "{:>4} {:>7} {:>4} {:>4} {:>4} {:>4} {:>12} {:>12} {:>12}",
                        s.id,
                        if s.partial_order { "partial" } else { "total" },
                        s.records,
                        s.replays,
                        s.verifies,
                        s.races,
                        s.bytes_raw,
                        s.bytes_stored,
                        s.instructions
                    );
                }
            }
            Ok(())
        }
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected response {other:?}")),
    }
}

fn cmd_shutdown(args: &[String], _pos: &[&String]) -> Result<(), String> {
    let mut client = connect(args)?;
    match client.call(&Request::Shutdown).map_err(|e| e.to_string())? {
        Response::ShuttingDown => {
            println!("server is draining jobs and shutting down");
            Ok(())
        }
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected response {other:?}")),
    }
}

fn cmd_suite(args: &[String], _pos: &[&String]) -> Result<(), String> {
    let threads: usize = match flag_value(args, "--threads") {
        None => 4,
        Some(v) => v.parse().map_err(|_| format!("bad --threads value `{v}`"))?,
    };
    println!("{:<10} {:>12} {:>10} {:>8}", "workload", "instructions", "cycles", "check");
    for spec in quickrec::workloads::suite() {
        let program =
            (spec.build)(threads, quickrec::workloads::Scale::Small).map_err(|e| e.to_string())?;
        let out = quickrec::run_baseline(program, threads).map_err(|e| e.to_string())?;
        let ok = out.exit_code == (spec.expected)(threads, quickrec::workloads::Scale::Small);
        println!(
            "{:<10} {:>12} {:>10} {:>8}",
            spec.name,
            out.instructions,
            out.cycles,
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    Ok(())
}
