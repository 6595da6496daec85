//! The server under test and the load that drives it.
//!
//! The server is `xmem-cli listen` with default flags, in its own process:
//! the benchmark adds only an ephemeral loopback address and the fleet
//! file. Its stderr request log goes to the null sink.
//!
//! The load is a closed loop of [`CONNECTIONS`] keep-alive connections,
//! each keeping [`PIPELINE`] requests in flight with HTTP/1.1 pipelining,
//! from at most two client threads (the calling thread drives connection
//! 0). Latency is timed from the moment a request is written.

use crate::procfs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Concurrent connections (the benchmark host's `nproc`); the calling
/// thread drives connection 0, one scoped thread each of the others.
pub const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight.
pub const PIPELINE: usize = 2;
/// Length of one measurement window.
pub const WINDOW: Duration = Duration::from_millis(500);

/// A running `xmem-cli listen` process.
pub struct Server {
    child: Child,
    /// The server's stdout, held open: a closed pipe would fail its
    /// later prints.
    _stdout: std::io::Lines<BufReader<std::process::ChildStdout>>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits until it listens.
    pub fn spawn(binary: &str, fleet: &str) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["listen", "--addr", "127.0.0.1:0", "--registry", fleet])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {binary}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.strip_prefix("listening on http://") {
                        break rest.trim().parse::<SocketAddr>().map_err(|e| e.to_string());
                    }
                }
                _ => break Err("the server exited before listening".to_string()),
            }
        };
        match addr {
            Ok(addr) => Ok(Server {
                child,
                _stdout: lines,
                addr,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the server over the wire and waits for it to exit; a stalled
    /// drain is killed on drop.
    pub fn shutdown(mut self) {
        let drained = TcpStream::connect(self.addr).and_then(|mut stream| {
            stream.write_all(
                b"POST /v1/shutdown HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 0\r\n\r\n",
            )?;
            let mut sink = Vec::new();
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            stream.read_to_end(&mut sink).map(|_| ())
        });
        let deadline = Instant::now() + Duration::from_secs(15);
        while drained.is_ok() && Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    /// A server left running on an error path is killed and reaped.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Outcome of one request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Seconds from the phase start to the response's last byte.
    pub done_s: f64,
    /// Write-to-response latency, milliseconds.
    pub latency_ms: f64,
    /// The deck slot answered.
    pub slot: u32,
    /// 2xx, and the body repeats the slot's first body.
    pub ok: bool,
}

/// A process/host counter reading taken at a window boundary.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    pub at_s: f64,
    pub server_cpu_ticks: u64,
    pub host: procfs::HostCpu,
}

/// Result of one load phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Window-boundary readings (only when a server pid was given).
    pub ticks: Vec<Tick>,
}

/// First-seen body per deck slot; later bodies must repeat it exactly.
pub struct Bodies {
    slots: Vec<OnceLock<Vec<u8>>>,
}

impl Bodies {
    pub fn new(len: usize) -> Self {
        Bodies {
            slots: (0..len).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Records `body` for `slot`; false when it differs from the first.
    fn record(&self, slot: usize, body: Vec<u8>) -> bool {
        let first = self.slots[slot].get_or_init(|| body.clone());
        *first == body
    }

    pub fn get(&self, slot: usize) -> Option<&Vec<u8>> {
        self.slots[slot].get()
    }
}

/// Reads one HTTP/1.1 response; returns (status, body).
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, Vec<u8>)> {
    let mut line = String::new();
    let mut status = 0u16;
    let mut length = 0usize;
    let mut first = true;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let trimmed = line.trim_end();
        if first {
            status = trimmed
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or(std::io::ErrorKind::InvalidData)?;
            first = false;
        } else if trimmed.is_empty() {
            break;
        } else if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| std::io::ErrorKind::InvalidData)?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// Shared state of one phase's connections.
struct Drive<'a> {
    deck: &'a [Vec<u8>],
    sequence: &'a [u32],
    next: AtomicUsize,
    bodies: &'a Bodies,
    start: Instant,
    deadline: Option<Instant>,
}

impl Drive<'_> {
    /// The next deck slot to send, or `None` when the phase is over.
    fn take(&self) -> Option<usize> {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.sequence.get(i).map(|&slot| slot as usize)
    }

    /// Runs one connection's pipelined loop until the phase ends and its
    /// in-flight requests are answered. `on_response` runs after every
    /// response (the window sampler on connection 0).
    fn connection(
        &self,
        addr: SocketAddr,
        mut on_response: impl FnMut(),
    ) -> Result<Vec<Sample>, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = BufReader::with_capacity(256 * 1024, stream);
        let mut in_flight: std::collections::VecDeque<(usize, Instant)> = Default::default();
        let mut samples = Vec::new();
        let mut send = |in_flight: &mut std::collections::VecDeque<(usize, Instant)>| {
            if let Some(slot) = self.take() {
                let sent = Instant::now();
                if writer.write_all(&self.deck[slot]).is_err() {
                    return false;
                }
                in_flight.push_back((slot, sent));
            }
            true
        };
        for _ in 0..PIPELINE {
            if !send(&mut in_flight) {
                return Err("write failed".to_string());
            }
        }
        while let Some((slot, sent)) = in_flight.pop_front() {
            let response = read_response(&mut reader);
            let done = Instant::now();
            // Refill the pipeline before inspecting the answer.
            let wrote = send(&mut in_flight);
            let ok = match response {
                Ok((status, body)) => {
                    (200..300).contains(&status) && self.bodies.record(slot, body)
                }
                Err(e) => {
                    return Err(format!(
                        "read failed after {} responses: {e}",
                        samples.len()
                    ))
                }
            };
            samples.push(Sample {
                done_s: done.duration_since(self.start).as_secs_f64(),
                latency_ms: done.duration_since(sent).as_secs_f64() * 1e3,
                slot: slot as u32,
                ok,
            });
            on_response();
            if !wrote {
                return Err("write failed".to_string());
            }
        }
        Ok(samples)
    }
}

/// Drives `sequence` through the closed-loop load until it ends or
/// `limit` passes. With `server_pid`, connection 0 also reads the
/// server's CPU counters and the host's at every window boundary.
pub fn run_phase(
    addr: SocketAddr,
    deck: &[Vec<u8>],
    sequence: &[u32],
    bodies: &Bodies,
    limit: Option<Duration>,
    server_pid: Option<u32>,
) -> Result<Phase, String> {
    let start = Instant::now();
    let drive = Drive {
        deck,
        sequence,
        next: AtomicUsize::new(0),
        bodies,
        start,
        deadline: limit.map(|l| start + l),
    };
    let mut ticks = Vec::new();
    let read_tick = |at: Instant| -> Option<Tick> {
        let pid = server_pid?;
        Some(Tick {
            at_s: at.duration_since(start).as_secs_f64(),
            server_cpu_ticks: procfs::process_cpu_ticks(pid).ok()?,
            host: procfs::host_cpu().ok()?,
        })
    };
    ticks.extend(read_tick(start));
    let mut next_window = start + WINDOW;
    // The last window closes at the first response past the deadline;
    // the drain of the requests still in flight belongs to none.
    let mut closed = false;
    let (first, others) = std::thread::scope(|scope| {
        let others: Vec<_> = (1..CONNECTIONS)
            .map(|_| scope.spawn(|| drive.connection(addr, || {})))
            .collect();
        let first = drive.connection(addr, || {
            let now = Instant::now();
            let past = drive.deadline.is_some_and(|d| now >= d);
            if !closed && (now >= next_window || past) {
                ticks.extend(read_tick(now));
                next_window = now + WINDOW;
                closed = past;
            }
        });
        let others: Vec<_> = others
            .into_iter()
            .map(|other| other.join().expect("connection thread panicked"))
            .collect();
        (first, others)
    });
    if !closed {
        ticks.extend(read_tick(Instant::now()));
    }
    let mut samples = first?;
    for other in others {
        samples.extend(other?);
    }
    Ok(Phase { samples, ticks })
}
