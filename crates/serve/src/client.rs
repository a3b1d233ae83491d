//! The daemon's TCP client: one connection, its buffered halves, and the
//! `Hello` handshake — what `drift-bottle top`, `load_gen` and this crate's
//! tests all need, so none of them opens a socket of its own.

use crate::frame::{read_frame, write_frame, Frame, PulseMsg, PROTO_VERSION};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::thread;

/// One connection to a running daemon.
pub struct Client {
    sock: TcpStream,
    input: BufReader<TcpStream>,
    out: BufWriter<TcpStream>,
}

/// What a `HelloAck` says of the engine the session is now attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attached {
    /// Monitoring interval, nanoseconds.
    pub interval_ns: u64,
    /// Switches in the engine's topology.
    pub nodes: u32,
    /// Links in the engine's topology.
    pub links: u32,
}

impl Client {
    /// Connect with `TCP_NODELAY` on: frames are small writes on a schedule,
    /// and under Nagle each would wait for the daemon's delayed ACK of the
    /// one before (the daemon sets the same on its end).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        Ok(Client {
            input: BufReader::new(sock.try_clone()?),
            out: BufWriter::new(sock.try_clone()?),
            sock,
        })
    }

    /// Attach to the daemon's engine for `topo` (the first `Hello` for a
    /// topology trains it, so this can take a while). `density` and `seed`
    /// matter only to the `Hello` that builds the engine, as does
    /// `window_cap` (0 = unbounded retention). A refusal is an error
    /// carrying the daemon's text.
    pub fn hello(
        &mut self,
        topo: &str,
        density: f64,
        seed: u64,
        window_cap: u32,
    ) -> io::Result<Attached> {
        let hello = Frame::Hello {
            proto: PROTO_VERSION,
            topo: topo.into(),
            density,
            seed,
            window_cap,
        };
        match self.request(&hello)? {
            Frame::HelloAck {
                interval_ns,
                nodes,
                links,
                ..
            } => Ok(Attached {
                interval_ns,
                nodes,
                links,
            }),
            other => Err(io::Error::other(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// Buffer one frame; [`Client::flush`] puts it on the wire.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.out, frame)
    }

    /// Write every buffered frame to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// The daemon's next frame; the daemon hanging up is an error.
    pub fn recv(&mut self) -> io::Result<Frame> {
        read_frame(&mut self.input)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })
    }

    /// Send one frame and return the daemon's answer to it; an `Error`
    /// frame is an error carrying the daemon's text.
    pub fn request(&mut self, frame: &Frame) -> io::Result<Frame> {
        self.send(frame)?;
        self.flush()?;
        match self.recv()? {
            Frame::Error(msg) => Err(io::Error::other(format!("daemon error: {msg}"))),
            reply => Ok(reply),
        }
    }

    /// The socket itself, for read timeouts and `shutdown`.
    pub fn socket(&self) -> &TcpStream {
        &self.sock
    }

    /// Subscribe to pulses from `from_window` and hand the read half to a
    /// thread that forwards every `Pulse` frame down the returned channel.
    /// The thread ends — and the channel closes — when the stream does:
    /// `shutdown` the returned socket to stop it.
    pub fn pulse_sub(
        mut self,
        from_window: u64,
    ) -> io::Result<(TcpStream, mpsc::Receiver<PulseMsg>)> {
        self.send(&Frame::PulseSub { from_window })?;
        self.flush()?;
        let (tx, rx) = mpsc::channel();
        let mut input = self.input;
        thread::spawn(move || {
            while let Ok(Some(frame)) = read_frame(&mut input) {
                if let Frame::Pulse(p) = frame {
                    if tx.send(p).is_err() {
                        break;
                    }
                }
            }
        });
        Ok((self.sock, rx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::{opts, spawn_daemon};

    impl Client {
        /// The socket and its two buffered halves, for the one test that
        /// reads and writes a connection from different threads
        /// (`replies_do_not_wait_for_the_senders_next_frame`).
        pub(crate) fn into_parts(self) -> (TcpStream, BufReader<TcpStream>, BufWriter<TcpStream>) {
            (self.sock, self.input, self.out)
        }
    }

    /// A refused `Hello` comes back as the daemon's text — over TCP too,
    /// where a panic in the engine build used to reset the connection — and
    /// the next `Hello` on the same connection is served.
    #[test]
    fn a_refused_hello_is_the_daemons_error_text() {
        let (addr, _daemon) = spawn_daemon(&opts());
        let mut client = Client::connect(&addr).unwrap();
        for spec in ["line:0", "no-such-topology"] {
            let err = client.hello(spec, 1.0, 1, 0).unwrap_err().to_string();
            assert!(err.contains(&format!("unknown topology `{spec}`")), "{err}");
        }
        let engine = client.hello("line:3", 1.0, 1, 0).unwrap();
        assert_eq!((engine.nodes, engine.links), (3, 2));
        assert!(engine.interval_ns > 0);
    }

    #[test]
    fn request_surfaces_an_error_frame_as_an_error() {
        let (addr, _daemon) = spawn_daemon(&opts());
        let mut client = Client::connect(&addr).unwrap();
        let err = client.request(&Frame::StatsReq).unwrap_err().to_string();
        assert!(err.contains("hello first"), "{err}");
        // `recv` hands the same frame over as it came.
        client.send(&Frame::StatsReq).unwrap();
        client.flush().unwrap();
        assert_eq!(client.recv().unwrap(), Frame::Error("hello first".into()));
    }

    /// Frames buffered behind one `flush` are answered in the order sent.
    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let (addr, _daemon) = spawn_daemon(&opts());
        let mut client = Client::connect(&addr).unwrap();
        client.hello("line:3", 1.0, 1, 0).unwrap();
        client.send(&Frame::StatsReq).unwrap();
        client.send(&Frame::PulseReq { from_window: 0 }).unwrap();
        client.flush().unwrap();
        assert!(matches!(client.recv().unwrap(), Frame::Stats { .. }));
        assert!(matches!(client.recv().unwrap(), Frame::Pulse(_)));
    }
}
