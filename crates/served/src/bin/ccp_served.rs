// No panic outside tests in any crate the served binaries link (DESIGN.md §9).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(
    not(test),
    deny(clippy::unreachable, clippy::todo, clippy::unimplemented)
)]

//! `ccp-served` — the simulation server.
//!
//! ```text
//! ccp-served [OPTIONS]
//!
//! OPTIONS:
//!   --addr HOST:PORT   bind address (default 127.0.0.1:0 = ephemeral port)
//!   --workers N        worker threads                     (default 4)
//!   --cache-bytes N    RAM result-cache budget in bytes   (default 4 MiB)
//!   --store DIR        content-addressed disk tier (off by default)
//!   --max-queue N      queue depth before submits are shed with a typed
//!                      `overloaded` response  (default 0 = unbounded)
//!
//! Prints `ccp-served listening on HOST:PORT` once ready (scripts parse
//! the port from this line). SIGINT/SIGTERM — or a client `shutdown`
//! request — begins a graceful drain: queued and in-flight jobs finish,
//! new submissions are refused with a typed response, and the process
//! exits 0.
//!
//! EXIT CODE: 0 clean drain · 1 startup failure · 2 usage error
//! ```

use ccp_served::{start, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const HELP: &str = "ccp-served — multi-threaded simulation server
usage: ccp-served [--addr HOST:PORT] [--workers N] [--cache-bytes N] [--store DIR]
                  [--max-queue N]
exit codes: 0 clean drain · 1 startup failure · 2 usage error";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{HELP}");
    std::process::exit(2);
}

static SIGNALED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // `std` already links libc; declaring `signal` directly avoids a
    // crate dependency. The handler only stores to an atomic, which is
    // async-signal-safe; the main loop polls the flag.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn parse_args() -> ServerConfig {
    let mut config = ServerConfig::default();
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            "--addr" => config.addr = need(&mut it, "--addr"),
            "--workers" => {
                config.workers = need(&mut it, "--workers")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --workers: {e}")));
                if config.workers == 0 {
                    usage("--workers must be >= 1");
                }
            }
            "--cache-bytes" => {
                config.cache_bytes = need(&mut it, "--cache-bytes")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --cache-bytes: {e}")));
            }
            "--store" => config.store_dir = Some(need(&mut it, "--store").into()),
            "--max-queue" => {
                config.max_queue = need(&mut it, "--max-queue")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --max-queue: {e}")));
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    config
}

fn main() {
    let config = parse_args();
    install_signal_handlers();
    let handle = match start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("ccp-served: {e}");
            std::process::exit(1);
        }
    };
    println!("ccp-served listening on {}", handle.addr());
    // Line-buffered stdout only flushes on newline when attached to a
    // pipe after the process fills its buffer; force it so scripts can
    // read the port immediately.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    loop {
        if SIGNALED.load(Ordering::SeqCst) {
            eprintln!("ccp-served: signal received, draining");
            handle.shutdown();
            break;
        }
        if handle.is_draining() {
            eprintln!("ccp-served: shutdown requested, draining");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.wait();
    eprintln!("ccp-served: drained, exiting");
}
