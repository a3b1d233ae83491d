//! The system under test for the serve workloads: the real
//! `drift-bottle serve` binary as a child process, and one TCP connection
//! to it over the host's loopback interface.

use db_serve::{read_frame, write_frame, Frame, PROTO_VERSION};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running daemon child. Dropping it kills and reaps the process, so no
/// failure path leaves a daemon behind.
pub struct Daemon {
    child: Child,
    /// Loopback address the daemon reported on its first stderr line.
    pub addr: String,
    stderr_pump: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawn `<binary> serve --addr=127.0.0.1:0` and wait for the
    /// "listening on" line that carries the ephemeral port.
    pub fn spawn(binary: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr=127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let mut lines = BufReader::new(stderr);
        let mut first = String::new();
        let addr = match lines.read_line(&mut first) {
            Ok(n) if n > 0 => first
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split([';', ']']).next())
                .map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "daemon did not report a listen address (first line: {first:?})"
            ));
        };
        // Keep draining stderr so the daemon can never block on a full
        // pipe; whatever it says is passed through.
        let stderr_pump = std::thread::spawn(move || {
            for line in lines.lines().map_while(Result::ok) {
                eprintln!("[daemon] {line}");
            }
        });
        Ok(Daemon {
            child,
            addr,
            stderr_pump: Some(stderr_pump),
        })
    }

    /// The daemon's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::sys::vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Wait for the daemon to exit after a `Shutdown` frame; kill it if it
    /// has not gone within `limit`.
    pub fn wait_exit(mut self, limit: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if t0.elapsed() < limit => std::thread::sleep(Duration::from_millis(5)),
                Ok(None) => return Err("daemon did not exit after Shutdown".into()),
                Err(e) => return Err(format!("waiting for daemon: {e}")),
            }
        }
        if let Some(h) = self.stderr_pump.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr_pump.take() {
            let _ = h.join();
        }
    }
}

/// One client connection, split into buffered halves.
pub struct Conn {
    /// Write half.
    pub out: BufWriter<TcpStream>,
    /// Read half.
    pub input: BufReader<TcpStream>,
}

/// What `HelloAck` told us about the daemon's engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineFacts {
    /// Configuration fingerprint of the daemon's engine.
    pub fingerprint: u64,
    /// Monitoring interval, nanoseconds.
    pub interval_ns: u64,
}

impl Conn {
    /// Connect and say `Hello`; the first `Hello` per topology makes the
    /// daemon train its classifier, so this call is most of set-up.
    pub fn open(
        addr: &str,
        topo: &str,
        density: f64,
        seed: u64,
    ) -> Result<(Conn, EngineFacts), String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let clone = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let mut conn = Conn {
            out: BufWriter::with_capacity(1 << 16, clone),
            input: BufReader::with_capacity(1 << 16, stream),
        };
        let reply = conn.request(&Frame::Hello {
            proto: PROTO_VERSION,
            topo: topo.into(),
            density,
            seed,
            window_cap: crate::serve::WINDOW_CAP,
        })?;
        match reply {
            Frame::HelloAck {
                fingerprint,
                interval_ns,
                ..
            } => Ok((
                conn,
                EngineFacts {
                    fingerprint,
                    interval_ns,
                },
            )),
            other => Err(format!("expected HelloAck, got {other:?}")),
        }
    }

    /// Send one frame and flush.
    pub fn send(&mut self, f: &Frame) -> Result<(), String> {
        write_frame(&mut self.out, f)
            .and_then(|()| self.out.flush())
            .map_err(|e| format!("send: {e}"))
    }

    /// Read one frame; end-of-stream is an error here.
    pub fn recv(&mut self) -> Result<Frame, String> {
        match read_frame(&mut self.input) {
            Ok(Some(f)) => Ok(f),
            Ok(None) => Err("daemon closed the connection".into()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// One request/reply round trip.
    pub fn request(&mut self, f: &Frame) -> Result<Frame, String> {
        self.send(f)?;
        self.recv()
    }

    /// Send `Shutdown` and wait for `Bye`.
    pub fn shutdown(mut self) -> Result<(), String> {
        match self.request(&Frame::Shutdown)? {
            Frame::Bye => Ok(()),
            other => Err(format!("expected Bye, got {other:?}")),
        }
    }
}
