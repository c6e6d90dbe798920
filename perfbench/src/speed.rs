//! The host-speed reference: fixed work of the benchmark's own, timed
//! between runs, by which run and set-up times are scaled to one speed.
//!
//! The benchmark runs on shared hosts whose speed drifts: on the 2-vCPU VM
//! it was tuned on, the same binary's runs and a plain compute loop both
//! slowed by up to half, in phases of seconds to minutes, so a whole
//! invocation can fall in a fast or a slow phase. The reference does the
//! kinds of work a workload does (compute, and loopback round trips for
//! the remote one) with code no change to the program touches. A time `t`
//! measured while the reference took `r` is reported as `t * nominal / r`:
//! what it would have taken on a host where the reference takes its
//! nominal time.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Bytes of a reference request and of its answer, about the plan and
/// answer frames of the remote workload.
const REQUEST: usize = 128;
const ANSWER: usize = 320;

/// Round trips of one reference timing on the remote workload.
const TRIPS: usize = 250;

/// What one reference timing takes on the nominal host: a round figure
/// near the median of both workloads' references on the 2-vCPU Xeon VM
/// the benchmark was tuned on, so that scaled times read about as wall
/// times did there.
const NOMINAL_MS: f64 = 7.0;

/// Words the compute kernel sorts.
const WORDS: usize = 100_000;

/// The reference of one workload.
pub struct Reference {
    /// Rounds of the compute kernel per timing.
    compute_rounds: usize,
    /// The compute kernel's buffers, allocated once so that the reference
    /// adds a constant to the peak resident set size.
    words: Vec<u64>,
    counts: HashMap<u64, u32>,
    /// Loopback echo, for the remote workload.
    echo: Option<Echo>,
}

impl Reference {
    /// The in-process workloads' reference: two rounds of the compute
    /// kernel.
    pub fn compute() -> Reference {
        Reference {
            compute_rounds: 2,
            words: Vec::with_capacity(WORDS),
            counts: HashMap::new(),
            echo: None,
        }
    }

    /// The remote workload's reference: [`TRIPS`] loopback round trips to
    /// an echo thread (about half its time; the wire is most of a run)
    /// and one round of the compute kernel.
    pub fn remote() -> Result<Reference, String> {
        Ok(Reference {
            compute_rounds: 1,
            words: Vec::with_capacity(WORDS),
            counts: HashMap::new(),
            echo: Some(Echo::start().map_err(|e| format!("reference echo: {e}"))?),
        })
    }

    /// Wall milliseconds of one timing of the reference.
    pub fn time_ms(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        for _ in 0..self.compute_rounds {
            std::hint::black_box(self.compute_kernel());
        }
        if let Some(echo) = &mut self.echo {
            echo.trips(TRIPS)
                .map_err(|e| format!("reference echo: {e}"))?;
        }
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }

    /// `ms`, measured while the reference took `reference_ms`, scaled to
    /// the nominal host.
    pub fn scale(&self, ms: f64, reference_ms: f64) -> f64 {
        ms * NOMINAL_MS / reference_ms
    }

    /// Fixed compute: fill [`WORDS`] words from xorshift, sort them, and
    /// count a fifth of them into a hash map.
    fn compute_kernel(&mut self) -> usize {
        let mut x: u64 = 0x1234_5678;
        self.words.clear();
        self.words.extend((0..WORDS).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }));
        self.words.sort_unstable();
        self.counts.clear();
        for w in &self.words[..WORDS / 5] {
            *self.counts.entry(w % 5_000).or_insert(0) += 1;
        }
        self.counts.len()
    }
}

/// A client connection to an echo thread on loopback that answers every
/// [`REQUEST`]-byte request with [`ANSWER`] bytes. Dropping it closes the
/// connection and waits for the thread to end.
struct Echo {
    stream: TcpStream,
    server: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else {
                return;
            };
            let _ = s.set_nodelay(true);
            let mut request = [0u8; REQUEST];
            let answer = [7u8; ANSWER];
            while s.read_exact(&mut request).is_ok() && s.write_all(&answer).is_ok() {}
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Echo {
            stream,
            server: Some(server),
        })
    }

    fn trips(&mut self, n: usize) -> std::io::Result<()> {
        let request = [1u8; REQUEST];
        let mut answer = [0u8; ANSWER];
        for _ in 0..n {
            self.stream.write_all(&request)?;
            self.stream.read_exact(&mut answer)?;
        }
        Ok(())
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}
