//! COPS-FTP — the paper's second generated application: an event-driven
//! FTP server built by adapting a reusable protocol-agnostic library
//! (virtual filesystem + user registry) to the N-Server architecture.
//!
//! Configuration per Table 1: synchronous completions (a data transfer
//! blocks its worker in place) and a dynamic worker pool that the
//! Processor Controller grows under load.
//!
//! The demo runs a full client session over loopback TCP: login, CWD,
//! passive-mode LIST and RETR, a `STAT` server report (live counters
//! and per-stage latency quantiles over the control connection), then
//! QUIT.
//!
//! Run: `cargo run -p nserver-examples --bin ftp_server`

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use nserver_core::metrics::MetricsRegistry;
use nserver_core::prelude::*;
use nserver_core::profiling::ServerStats;
use nserver_ftp::{cops_ftp_options, FtpCodec, FtpService, UserRegistry, Vfs};

struct Ctl {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Ctl {
    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\r\n").unwrap();
    }

    fn reply(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        print!("  <- {line}");
        line
    }
}

fn pasv_port(reply: &str) -> u16 {
    let inner = reply.split('(').nth(1).unwrap().split(')').next().unwrap();
    let nums: Vec<u16> = inner
        .split(',')
        .map(|n| n.trim().parse().unwrap())
        .collect();
    (nums[4] << 8) | nums[5]
}

fn main() {
    // The reusable "legacy library" half: filesystem + accounts.
    let vfs = Arc::new(Vfs::new());
    vfs.mkdir("/pub");
    vfs.write("/pub/readme.txt", b"welcome to COPS-FTP\n".to_vec());
    vfs.write("/pub/data.bin", vec![0xC0; 2048]);
    let users = Arc::new(UserRegistry::new().with_anonymous());
    users.add_user("alice", "secret");

    // O11 on, with one diagnostics hub shared between the server (which
    // counts into it) and the service, so the STAT report reflects the
    // live counters.
    let options = ServerOptions {
        profiling: true,
        ..cops_ftp_options()
    };
    let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
    let service = FtpService::new(vfs, users);
    service.attach_diag(hub.clone());
    let server = ServerBuilder::new(options, FtpCodec, service)
        .expect("valid options")
        .diag(hub)
        .serve(TcpListenerNb::bind("127.0.0.1:0").expect("bind"));
    let addr = server.local_label().to_string();
    println!("COPS-FTP listening on {addr}");

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut ctl = Ctl {
        reader: BufReader::new(stream.try_clone().unwrap()),
        writer: stream,
    };

    assert!(ctl.reply().starts_with("220"), "greeting");
    ctl.send("USER alice");
    assert!(ctl.reply().starts_with("331"));
    ctl.send("PASS secret");
    assert!(ctl.reply().starts_with("230"));
    ctl.send("SYST");
    assert!(ctl.reply().starts_with("215"));
    ctl.send("CWD /pub");
    assert!(ctl.reply().starts_with("250"));
    ctl.send("PWD");
    assert!(ctl.reply().contains("/pub"));

    // Passive-mode LIST.
    ctl.send("PASV");
    let port = pasv_port(&ctl.reply());
    let mut data = TcpStream::connect(("127.0.0.1", port)).unwrap();
    ctl.send("LIST");
    let mut listing = String::new();
    data.read_to_string(&mut listing).unwrap();
    println!("  [data] {}", listing.trim_end().replace("\r\n", ", "));
    assert!(ctl.reply().starts_with("150"));
    assert!(ctl.reply().starts_with("226"));
    assert!(listing.contains("readme.txt"));

    // Passive-mode RETR.
    ctl.send("PASV");
    let port = pasv_port(&ctl.reply());
    let mut data = TcpStream::connect(("127.0.0.1", port)).unwrap();
    ctl.send("RETR readme.txt");
    let mut content = Vec::new();
    data.read_to_end(&mut content).unwrap();
    println!("  [data] {} bytes of readme.txt", content.len());
    assert!(ctl.reply().starts_with("150"));
    assert!(ctl.reply().starts_with("226"));
    assert_eq!(content, b"welcome to COPS-FTP\n");

    // Server status over the control connection: a multi-line 211 reply
    // with live counters and the O11 per-stage latency quantiles.
    ctl.send("STAT");
    let mut report = String::new();
    loop {
        let line = ctl.reply();
        let done = line.starts_with("211 ");
        report.push_str(&line);
        if done {
            break;
        }
    }
    assert!(report.starts_with("211-"), "multi-line status reply");
    assert!(report.contains("connections accepted: 1"));
    assert!(report.contains("decode: count="));
    assert!(report.contains("p99="));

    ctl.send("QUIT");
    assert!(ctl.reply().starts_with("221"));

    let stats = server.stats();
    println!(
        "\nprofiling: {} commands handled, {} blocking transfers",
        stats.requests_decoded, stats.blocking_ops
    );
    server.shutdown();
    println!("ftp server OK");
}
