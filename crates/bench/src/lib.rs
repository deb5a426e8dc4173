//! Shared helpers for the bench crate's binaries.

use std::sync::Arc;

use inca_obs::sinks::{JsonlSink, StderrSink};
use inca_obs::Obs;

/// Wires trace sinks onto the global [`Obs`] handle from command-line
/// flags, shared by every experiment binary:
///
/// - `--trace` streams spans to stderr as human-readable lines, so
///   stdout stays clean for the experiment's table output.
/// - `--trace-json <path>` appends spans to `<path>` as JSON lines for
///   offline analysis.
///
/// Both flags may be combined. Returns `true` when any sink was
/// installed. Unknown flags are left alone for the binary itself.
pub fn init_tracing_from_args() -> bool {
    let tracer = Obs::global().tracer().clone();
    let mut installed = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => {
                tracer.add_sink(Arc::new(StderrSink));
                installed = true;
            }
            "--trace-json" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--trace-json requires a file path");
                    std::process::exit(2);
                });
                match JsonlSink::create(&path) {
                    Ok(sink) => {
                        tracer.add_sink(Arc::new(sink));
                        installed = true;
                    }
                    Err(e) => {
                        eprintln!("--trace-json {path}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            _ => {}
        }
    }
    installed
}
