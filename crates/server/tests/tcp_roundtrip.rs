//! End-to-end test of `serve --tcp`: frames in over one connection, that
//! connection's replies back down the same socket.
//!
//! The server binds `127.0.0.1:0` and announces the port it got on
//! stderr. One connection sends a stats frame, then five job frames one
//! at a time, each waiting for its report. Every reply must be a whole
//! line that parses as JSON, and each report must carry its own job's
//! `id`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;
use tossa_trace::json::parse_json;

/// The spawned server; killed and reaped when the test ends, pass or
/// fail, and its stderr drain thread joined.
struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// Starts `serve --tcp 127.0.0.1:0 --workers 1` and returns it with the
/// address it announced.
fn start_server() -> (Server, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--tcp", "127.0.0.1:0", "--workers", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = mpsc::channel();
    // Keep reading stderr after the address line, so the server never
    // blocks on (or fails to write to) a full or closed pipe.
    let drain = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if let Some(addr) = line.strip_prefix("serve: listening on ") {
                let _ = tx.send(addr.to_string());
            }
        }
    });
    let server = Server {
        child,
        drain: Some(drain),
    };
    let addr = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("serve announces its bound address on stderr");
    (server, addr)
}

const FUNC: &str = r"func @add {\nentry:\n  %a, %b = input\n  %c = add %a, %b\n  ret %c\n}";

#[test]
fn reports_come_back_down_the_submitting_socket() {
    let (_server, addr) = start_server();
    let stream = TcpStream::connect(&addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    stream.set_nodelay(true).expect("client nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |frame: String| -> String {
        writer.write_all(frame.as_bytes()).expect("send frame");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        assert!(line.ends_with('\n'), "reply is not a whole line: {line:?}");
        line
    };

    let stats = roundtrip("{\"control\": \"stats\"}\n".to_string());
    let stats = parse_json(&stats).unwrap_or_else(|e| panic!("stats reply: {e}: {stats}"));
    assert_eq!(
        stats.get("schema").and_then(|s| s.as_str()),
        Some("tossa-service-stats/1")
    );

    for id in 1..=5u64 {
        let report = roundtrip(format!("{{\"id\": {id}, \"func\": \"{FUNC}\"}}\n"));
        let json = parse_json(&report).unwrap_or_else(|e| panic!("report {id}: {e}: {report}"));
        assert_eq!(
            json.get("id").and_then(|v| v.as_u64()),
            Some(id),
            "report carries another job's id: {report}"
        );
        assert_eq!(
            json.get("outcome").and_then(|v| v.as_str()),
            Some("completed"),
            "{report}"
        );
    }
}
