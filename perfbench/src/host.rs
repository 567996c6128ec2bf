//! The host's own loopback round trip, the unit the gated latencies are
//! counted in.
//!
//! On a small shared host the speed of a whole run drifts by a quarter or
//! more with what the neighbours do, and every wall-clock latency of the
//! program drifts with it. A bare round trip over loopback TCP, timed in
//! the same run and interleaved with the load, drifts the same way; a
//! latency counted in those round trips keeps what the program costs and
//! drops most of what the host did. The reference is the benchmark's own
//! code and never touches the program.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::{median, sorted};

/// Bytes per echoed message: about what a `get` request carries.
const MESSAGE: usize = 64;
/// Round trips per sample of the reference.
const TRIPS: usize = 200;

/// A thread that echoes every message back over one loopback connection.
pub struct Echo {
    client: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    pub fn start() -> Echo {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind the echo listener");
        let addr = listener.local_addr().expect("echo address");
        let thread = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else {
                return;
            };
            let _ = s.set_nodelay(true);
            let mut buf = [0u8; MESSAGE];
            while s.read_exact(&mut buf).is_ok() {
                if s.write_all(&buf).is_err() {
                    break;
                }
            }
        });
        let client = TcpStream::connect(addr).expect("connect to the echo thread");
        client.set_nodelay(true).expect("set TCP_NODELAY");
        Echo {
            client,
            thread: Some(thread),
        }
    }

    /// Median of `TRIPS` round trips, µs.
    pub fn rtt_us(&mut self) -> f64 {
        let mut buf = [7u8; MESSAGE];
        let mut times = Vec::with_capacity(TRIPS);
        for _ in 0..TRIPS {
            let t = Instant::now();
            self.client.write_all(&buf).expect("echo write");
            self.client.read_exact(&mut buf).expect("echo read");
            times.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        median(&sorted(times))
    }
}

impl Drop for Echo {
    /// Close the connection and wait for the echo thread to end.
    fn drop(&mut self) {
        let _ = self.client.shutdown(Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
