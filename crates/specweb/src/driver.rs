//! A real-socket workload driver implementing the paper's client model:
//! "establish a connection to the Web server, issue 5 HTTP requests …
//! then terminate the connection. … there is a 20 milliseconds pause
//! after receiving each page."
//!
//! Used by integration tests and by anyone wanting to load a real
//! COPS-HTTP instance rather than the simulator. Each simulated web
//! client runs on its own thread; per-client response counts come back
//! for fairness computations.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::access::{AccessSampler, SplitMix64};
use crate::fileset::FileSet;
use crate::ClientConfig;

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Number of concurrent simulated web clients.
    pub clients: usize,
    /// How long to generate load.
    pub duration: Duration,
    /// Client behaviour (requests per connection, think time).
    pub client: ClientConfig,
    /// RNG seed (per-client streams derive from it).
    pub seed: u64,
}

/// Aggregate results of a driver run.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Responses received per client.
    pub per_client: Vec<u64>,
    /// Total bytes of response bodies received.
    pub body_bytes: u64,
    /// Requests that failed (connect errors, bad status, timeouts).
    pub errors: u64,
}

impl DriverReport {
    /// Total responses across clients.
    pub fn total_responses(&self) -> u64 {
        self.per_client.iter().sum()
    }
}

/// Read one HTTP response off `stream`; returns the body length, or
/// `None` on malformed/failed responses.
fn read_response(stream: &mut TcpStream) -> Option<usize> {
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 8192];
    let (mut body_start, mut body_len) = (0usize, usize::MAX);
    loop {
        if body_len != usize::MAX && acc.len() >= body_start + body_len {
            return Some(body_len);
        }
        let n = stream.read(&mut buf).ok()?;
        if n == 0 {
            return None;
        }
        acc.extend_from_slice(&buf[..n]);
        if body_len == usize::MAX {
            if let Some(pos) = acc.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&acc[..pos]);
                if !head.contains(" 200 ") {
                    return None;
                }
                body_len = head
                    .lines()
                    .find(|l| l.to_ascii_lowercase().starts_with("content-length"))
                    .and_then(|l| l.split(':').nth(1))
                    .and_then(|v| v.trim().parse().ok())?;
                body_start = pos + 4;
            }
        }
    }
}

/// Run the workload against a live server.
pub fn run(fileset: &FileSet, config: &DriverConfig) -> DriverReport {
    let sampler = Arc::new(AccessSampler::new(fileset));
    let fileset = Arc::new(fileset.clone());
    let stop = Arc::new(AtomicBool::new(false));
    let body_bytes = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::with_capacity(config.clients);
    for c in 0..config.clients {
        let addr = config.addr.clone();
        let sampler = Arc::clone(&sampler);
        let fileset = Arc::clone(&fileset);
        let stop = Arc::clone(&stop);
        let body_bytes = Arc::clone(&body_bytes);
        let errors = Arc::clone(&errors);
        let client_cfg = config.client;
        let seed = config.seed.wrapping_add(c as u64);
        handles.push(std::thread::spawn(move || {
            let mut rng = SplitMix64(seed);
            let mut responses = 0u64;
            'outer: while !stop.load(Ordering::Relaxed) {
                let Ok(mut conn) = TcpStream::connect(&addr) else {
                    errors.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                };
                let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
                let _ = conn.set_nodelay(true);
                for r in 0..client_cfg.requests_per_connection {
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                    let spec = sampler.sample_spec(&fileset, || rng.next_f64());
                    let close = r + 1 == client_cfg.requests_per_connection;
                    let req = if close {
                        format!(
                            "GET {} HTTP/1.1\r\nHost: driver\r\nConnection: close\r\n\r\n",
                            spec.path()
                        )
                    } else {
                        format!("GET {} HTTP/1.1\r\nHost: driver\r\n\r\n", spec.path())
                    };
                    if conn.write_all(req.as_bytes()).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue 'outer;
                    }
                    match read_response(&mut conn) {
                        Some(len) => {
                            responses += 1;
                            body_bytes.fetch_add(len as u64, Ordering::Relaxed);
                        }
                        None => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            continue 'outer;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(client_cfg.think_time_ms));
                }
            }
            responses
        }));
    }

    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    let per_client: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap_or(0)).collect();
    DriverReport {
        per_client,
        body_bytes: body_bytes.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_totals() {
        let r = DriverReport {
            per_client: vec![3, 4, 5],
            body_bytes: 100,
            errors: 0,
        };
        assert_eq!(r.total_responses(), 12);
    }
}
