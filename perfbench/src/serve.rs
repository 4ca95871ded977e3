//! Driving the `bqc serve` daemon: spawn and time its start, a closed-loop
//! pipelined client, and shutdown.

use crate::gen::Request;
use crate::reference::{Answer, Outcome};
use bqc::core::{AnswerSummary, Obstruction};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon.  Dropping it kills the process if it is still alive.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    // Held open so the daemon can keep printing to its stdout.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Entries the daemon reported restoring from its snapshot.
    pub restored: usize,
}

/// Starts `bqc serve` with `args` and returns it with the seconds from
/// spawn to its `listening` line (which it prints after the snapshot is
/// restored and the socket is bound).
pub fn spawn(bqc: &Path, args: &[String]) -> Result<(Daemon, f64), String> {
    let start = Instant::now();
    let mut child = Command::new(bqc)
        .arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bqc.display()))?;
    let stdin = child.stdin.take();
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut restored = 0;
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line).unwrap_or(0) == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err("bqc serve exited before listening".to_string());
        }
        if let Some(rest) = line.trim().strip_prefix("bqc serve: restored ") {
            restored = rest
                .split_whitespace()
                .next()
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
        }
        if let Some(addr) = line.trim().strip_prefix("bqc serve: listening on ") {
            let elapsed = start.elapsed().as_secs_f64();
            let daemon = Daemon {
                child,
                stdin,
                _stdout: stdout,
                addr: addr.to_string(),
                restored,
            };
            return Ok((daemon, elapsed));
        }
    }
}

impl Daemon {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One admin command on a fresh connection; returns the reply line.
    pub fn admin(&self, command: &str) -> Result<String, String> {
        let mut conn = Connection::open(&self.addr)?;
        conn.send(command)?;
        conn.recv()
    }

    /// Graceful shutdown (the daemon drains, then writes its snapshot and
    /// metrics files); waits for the process to end.
    pub fn shutdown(mut self) -> Result<(), String> {
        // Closing stdin is a shutdown request; so is `!shutdown`.
        self.stdin.take();
        let _ = self.admin("!shutdown");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("bqc serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("bqc serve did not stop within 60 s".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A client connection (banner consumed).
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Connection {
    pub fn open(addr: &str) -> Result<Connection, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = Connection {
            writer,
            reader: BufReader::new(stream),
            line: String::new(),
        };
        let banner = conn.recv()?;
        if !banner.starts_with("ok bqc-serve") {
            return Err(format!("unexpected banner {banner:?}"));
        }
        Ok(conn)
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes).map_err(|e| e.to_string())
    }

    pub fn recv(&mut self) -> Result<String, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(self.line.trim_end().to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// A parsed decide response.
pub struct Response {
    pub answer: Answer,
    /// Server-side decision time (`micros=`), 0 for cache hits.
    pub micros: u64,
    pub provenance: String,
}

pub fn parse_response(line: &str) -> Response {
    let mut fields: HashMap<&str, &str> = HashMap::new();
    let mut words = line.split_whitespace();
    let status = words.next().unwrap_or("");
    for word in words {
        if let Some((k, v)) = word.split_once('=') {
            fields.insert(k, v);
        }
    }
    let answer = match status {
        "busy" => Answer::Busy,
        "ok" => match (fields.get("verdict"), fields.get("obstruction")) {
            (Some(&"contained"), _) => Answer::Ok(AnswerSummary::Contained),
            (Some(&"not-contained"), _) => Answer::Ok(AnswerSummary::NotContained {
                witness_verified: fields.get("witness") == Some(&"verified"),
            }),
            (Some(&"unknown"), Some(&"not-chordal")) => Answer::Ok(AnswerSummary::Unknown {
                obstruction: Obstruction::NotChordal,
            }),
            (Some(&"unknown"), Some(&"junction-tree-not-simple")) => {
                Answer::Ok(AnswerSummary::Unknown {
                    obstruction: Obstruction::JunctionTreeNotSimple,
                })
            }
            _ => Answer::Error(format!("unexpected response {line:?}")),
        },
        _ => Answer::Error(line.to_string()),
    };
    Response {
        answer,
        micros: fields
            .get("micros")
            .and_then(|m| m.parse().ok())
            .unwrap_or(0),
        provenance: fields.get("provenance").unwrap_or(&"").to_string(),
    }
}

/// One answered request with its `micros=` and `provenance=` fields.
type Answered = (Outcome, u64, String);

/// What a closed-loop client saw.
pub struct ClientRun {
    pub outcomes: Vec<Outcome>,
    /// `micros=` of each outcome, in the same order.
    pub micros: Vec<u64>,
    /// `provenance=` of each outcome.
    pub provenance: Vec<String>,
    /// From the first send to the last answer, over all connections.
    pub elapsed_s: f64,
}

/// Runs a closed loop on `conns` connections, each keeping `window`
/// requests in flight: a caller sends its next request only when one of its
/// answers is back.  Connection `c` walks `requests[c], requests[c + conns],
/// …`, wrapping around.  Stops sending at `deadline` (or after `limit`
/// requests in total) and drains what is in flight.
pub fn closed_loop(
    addr: &str,
    requests: &[Request],
    conns: usize,
    window: usize,
    seconds: Option<f64>,
    limit: Option<usize>,
) -> Result<ClientRun, String> {
    let start = Instant::now();
    let deadline = seconds.map(|s| start + Duration::from_secs_f64(s));
    let per_conn_limit = limit.map(|l| l.div_ceil(conns));
    let runs: Vec<Result<Vec<Answered>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mine: Vec<&Request> = requests.iter().skip(c).step_by(conns).collect();
                    one_connection(addr, &mine, window, deadline, per_conn_limit)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut run = ClientRun {
        outcomes: Vec::new(),
        micros: Vec::new(),
        provenance: Vec::new(),
        elapsed_s,
    };
    for r in runs {
        for (outcome, micros, provenance) in r? {
            run.outcomes.push(outcome);
            run.micros.push(micros);
            run.provenance.push(provenance);
        }
    }
    Ok(run)
}

fn one_connection(
    addr: &str,
    requests: &[&Request],
    window: usize,
    deadline: Option<Instant>,
    limit: Option<usize>,
) -> Result<Vec<Answered>, String> {
    let start = Instant::now();
    let mut conn = Connection::open(addr)?;
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
    let mut out = Vec::new();
    let mut sent = 0usize;
    let may_send =
        |sent: usize| limit.is_none_or(|l| sent < l) && deadline.is_none_or(|d| Instant::now() < d);
    while in_flight.len() < window && may_send(sent) {
        let request = requests[sent % requests.len()];
        in_flight.push_back((request.base, Instant::now()));
        conn.send(&request.line)?;
        sent += 1;
    }
    while let Some((base, submitted)) = in_flight.pop_front() {
        let line = conn.recv()?;
        let latency_ms = submitted.elapsed().as_secs_f64() * 1e3;
        let response = parse_response(&line);
        out.push((
            Outcome {
                base,
                answer: response.answer,
                latency_ms,
                done_s: start.elapsed().as_secs_f64(),
            },
            response.micros,
            response.provenance,
        ));
        if may_send(sent) {
            let request = requests[sent % requests.len()];
            in_flight.push_back((request.base, Instant::now()));
            conn.send(&request.line)?;
            sent += 1;
        }
    }
    Ok(out)
}

/// Counters and histogram sums from a Prometheus text exposition, keyed by
/// series name (labels included).
pub fn prometheus_values(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Sum of every series of a metric family (e.g. all shards of a counter).
pub fn family_total(values: &HashMap<String, f64>, family: &str) -> f64 {
    values
        .iter()
        .filter(|(name, _)| {
            name.as_str() == family
                || name
                    .strip_prefix(family)
                    .is_some_and(|rest| rest.starts_with('{'))
        })
        .fold(0.0, |total, (_, v)| total + v)
}
