//! Command-line front end shared by the `quickrecd` binary and
//! `quickrec serve`.

use crate::proto::Endpoint;
use crate::server::{Server, ServerConfig};
use std::path::PathBuf;

/// Usage text for the daemon front end.
pub const USAGE: &str = "usage: quickrecd (--socket PATH | --tcp ADDR) [options]

options:
  --socket PATH      listen on a Unix-domain socket
  --tcp ADDR         listen on a TCP address (host:port; port 0 picks one)
  --store DIR        recording-store root           [default: ./qr-store]
  --workers N        job worker threads             [default: 2]
  --queue N          bounded job-queue capacity     [default: 64]
  --max-conns N      open-connection cap (past it,
                     new connections get Busy)      [default: 4096]

The server runs until a client sends SHUTDOWN (`quickrec shutdown`).";

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn parse_count(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("{flag} wants a positive integer, got `{v}`")),
    }
}

/// Every option the daemon takes; each is followed by its value.
const FLAGS: [&str; 6] = ["--socket", "--tcp", "--store", "--workers", "--queue", "--max-conns"];

/// Parses daemon arguments into an endpoint + config.
///
/// # Errors
///
/// Returns a usage-style message for unparsable arguments: an option
/// that is not in [`USAGE`], an option without its value, a count that
/// is not a positive integer, no endpoint or two.
fn parse_args(args: &[String]) -> Result<(Endpoint, ServerConfig), String> {
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if !FLAGS.contains(&flag.as_str()) {
            return Err(format!("unknown option `{flag}`"));
        }
        if rest.next().is_none() {
            return Err(format!("{flag} needs a value"));
        }
    }
    let endpoint = match (flag_value(args, "--socket"), flag_value(args, "--tcp")) {
        (Some(path), None) => Endpoint::Unix(PathBuf::from(path)),
        (None, Some(addr)) => Endpoint::Tcp(addr),
        (Some(_), Some(_)) => return Err("pass --socket or --tcp, not both".into()),
        (None, None) => return Err("an endpoint is required: --socket PATH or --tcp ADDR".into()),
    };
    let cfg = ServerConfig {
        workers: parse_count(args, "--workers", 2)?,
        queue_capacity: parse_count(args, "--queue", 64)?,
        store_root: PathBuf::from(
            flag_value(args, "--store").unwrap_or_else(|| "qr-store".into()),
        ),
        max_connections: parse_count(args, "--max-conns", 4096)?,
    };
    Ok((endpoint, cfg))
}

/// Runs the daemon in the foreground until a client shuts it down.
///
/// # Errors
///
/// Returns a printable message on startup failure.
pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let (endpoint, cfg) = parse_args(args)?;
    let handle = Server::start(&endpoint, &cfg).map_err(|e| e.to_string())?;
    println!(
        "quickrecd listening on {} (workers={} queue={} max-conns={} store={})",
        handle.endpoint().describe(),
        cfg.workers,
        cfg.queue_capacity,
        cfg.max_connections,
        cfg.store_root.display()
    );
    // Make the announcement visible to scripts piping our stdout.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    handle.wait();
    println!("quickrecd: shutdown complete");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Endpoint, ServerConfig), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn every_documented_option_parses() {
        let (endpoint, cfg) = parse(&[
            "--tcp", "127.0.0.1:0", "--store", "s", "--workers", "3", "--queue", "5",
            "--max-conns", "9",
        ])
        .unwrap();
        assert_eq!(endpoint, Endpoint::Tcp("127.0.0.1:0".into()));
        assert_eq!((cfg.workers, cfg.queue_capacity, cfg.max_connections), (3, 5, 9));
        assert_eq!(cfg.store_root, PathBuf::from("s"));
        for flag in FLAGS {
            assert!(USAGE.contains(&format!("  {flag} ")), "{flag} is not in the usage text");
        }
    }

    #[test]
    fn unknown_options_and_missing_values_are_usage_errors() {
        // Deleted options are refused by name, not swallowed.
        for removed in ["--shards", "--event-workers"] {
            let err = parse(&["--socket", "s", removed, "4"]).unwrap_err();
            assert_eq!(err, format!("unknown option `{removed}`"));
        }
        assert_eq!(parse(&["--socket", "s", "stray"]).unwrap_err(), "unknown option `stray`");
        // A known option as the last argument used to fall back to its
        // default without a word.
        assert_eq!(parse(&["--socket", "s", "--workers"]).unwrap_err(), "--workers needs a value");
        assert_eq!(parse(&["--socket"]).unwrap_err(), "--socket needs a value");
        assert!(parse(&["--socket", "s", "--workers", "0"]).unwrap_err().contains("positive integer"));
        assert!(parse(&["--socket", "s", "--tcp", "a:1"]).unwrap_err().contains("not both"));
        assert!(parse(&[]).unwrap_err().contains("an endpoint is required"));
    }
}
