//! The Prometheus scrape endpoint: a std-only HTTP listener next to the
//! frame listener, answering every request with the daemon's metrics
//! registry in text exposition format.

use crate::registry::Shared;
use db_telemetry::export::to_prometheus;
use db_telemetry::MetricsRegistry;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long a scrape client has to deliver its request head, and each write
/// of the reply has to drain. Every scrape runs on a thread of its own; a
/// peer that connects and then says nothing, or never reads, would hold
/// that thread for the life of the process.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Answer one Prometheus scrape: drain the request head, reply `200` with
/// the registry in text exposition format. Std-only — no HTTP library.
/// `Err(TimedOut | WouldBlock)` when the peer outlasts [`SCRAPE_TIMEOUT`];
/// the caller drops the connection.
fn answer_scrape(stream: &mut TcpStream, reg: &MetricsRegistry) -> io::Result<()> {
    let deadline = Instant::now() + SCRAPE_TIMEOUT;
    stream.set_write_timeout(Some(SCRAPE_TIMEOUT))?;
    let mut buf = [0u8; 1024];
    let mut head = Vec::new();
    loop {
        // The deadline covers the whole head, not each read, so a peer
        // dripping one byte per read gains nothing.
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        let blank =
            head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n");
        if blank || head.len() > 64 * 1024 {
            break;
        }
    }
    let body = to_prometheus(&reg.snapshot());
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Accept scrapes until the daemon stops (one short-lived thread each).
pub(crate) fn prom_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let shared = shared.clone();
        thread::spawn(move || {
            if let Err(e) = answer_scrape(&mut stream, &shared.reg) {
                eprintln!("serve: scrape failed: {e}");
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::opts;

    /// A scrape client that connects and sends nothing is dropped by the
    /// daemon within [`SCRAPE_TIMEOUT`] instead of pinning its thread for
    /// good, and does not stand in the way of a well-behaved scrape.
    #[test]
    fn a_silent_scrape_client_is_dropped_and_blocks_nobody() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shared = Arc::new(Shared::new(&opts()));
        let endpoint = {
            let shared = shared.clone();
            thread::spawn(move || prom_loop(listener, shared))
        };

        let opened = Instant::now();
        let mut silent = TcpStream::connect(addr).unwrap();
        let bound = SCRAPE_TIMEOUT + Duration::from_secs(3);
        silent.set_read_timeout(Some(bound)).unwrap();

        let mut scrape = TcpStream::connect(addr).unwrap();
        scrape.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut reply = String::new();
        scrape.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got {reply:?}");
        assert!(
            opened.elapsed() < SCRAPE_TIMEOUT,
            "the scrape waited out the silent peer"
        );

        // End of stream (or a reset), not this side's own read timeout.
        match silent.read(&mut [0u8; 16]) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("daemon kept the silent connection open: {other:?}"),
        }
        assert!(opened.elapsed() < bound);

        shared.stopping.store(true, Ordering::SeqCst);
        TcpStream::connect(addr).unwrap(); // nudge the accept loop
        endpoint.join().unwrap();
    }
}
