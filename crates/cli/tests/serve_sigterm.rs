//! SIGTERM stops `refrint-cli serve`: the blocking accept loop is woken,
//! the server drains and the process exits 0 promptly.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn signal(pid: u32, sig: &str) {
    let status = Command::new("kill")
        .args([sig, &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill {sig} {pid} failed");
}

#[test]
fn sigterm_drains_and_exits_zero() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_refrint-cli"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .env("REFRINT_LOG", "info")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn refrint-cli serve");
    let pid = child.id();
    let stderr = child.stderr.take().expect("piped stderr");
    let (line_tx, lines) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if line_tx.send(line).is_err() {
                break;
            }
        }
    });
    let (exit_tx, exited) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = exit_tx.send(child.wait());
    });

    let ready_by = Instant::now() + Duration::from_secs(30);
    loop {
        let wait = ready_by.saturating_duration_since(Instant::now());
        match lines.recv_timeout(wait) {
            Ok(line) if line.contains("listening on") => break,
            Ok(_) => {}
            Err(_) => {
                signal(pid, "-KILL");
                panic!("the server never printed its listening line");
            }
        }
    }

    signal(pid, "-TERM");
    let Ok(status) = exited.recv_timeout(Duration::from_secs(2)) else {
        signal(pid, "-KILL");
        panic!("the server did not exit within 2 s of SIGTERM");
    };
    let status = status.expect("wait for the server");
    assert!(status.success(), "exit status after SIGTERM: {status}");
    let log: Vec<String> = lines.iter().collect();
    assert!(
        log.iter().any(|l| l.contains("drain_done")),
        "no drain_done line in:\n{}",
        log.join("\n")
    );
}
