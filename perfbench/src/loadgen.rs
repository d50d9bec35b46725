//! Open-loop HTTP load from one process: at most `nproc` threads, each
//! owning one keep-alive connection on which requests are pipelined on
//! schedule. Every latency is timed from the request's due time, so a stall
//! also charges the requests queued behind it. The generator reports how
//! late it sent, so a run in which the client fell behind is flagged
//! instead of being read as a server number.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;

/// Endpoint of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Similar,
    Whitespace,
    Recommend,
}

/// One planned request: when it is due (offset from phase start) and its
/// request target.
pub struct Planned {
    pub due: Duration,
    pub kind: Kind,
    pub target: String,
}

/// How a lane decides when to send.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Send every request when it is due (open loop).
    Open,
    /// Keep `depth` requests in flight per connection until `until`,
    /// ignoring due times (closed loop at saturation); latencies are timed
    /// from the send, and requests never sent are not attempts.
    Closed { depth: usize, until: Duration },
}

/// What happened to one request.
#[derive(Clone)]
pub struct Outcome {
    pub kind: Kind,
    pub due: Duration,
    /// Send time minus due time.
    pub lag: Duration,
    /// Response time minus due time; `None` if it failed or was refused.
    pub latency: Option<Duration>,
}

/// What happened to one `POST /admin/swap`.
pub struct SwapOutcome {
    pub round_trip: Duration,
    pub generation: Option<u64>,
}

/// Limits a response body must respect to count as correct.
#[derive(Clone, Copy)]
pub struct Limits {
    pub companies: u64,
    pub products: u64,
}

pub struct PhaseResult {
    pub outcomes: Vec<Outcome>,
    pub swaps: Vec<SwapOutcome>,
    /// Problems found in response bodies (parse, range, generation).
    pub violations: Vec<String>,
}

/// How long an idle lane sleeps between polls while responses are due.
const POLL: Duration = Duration::from_micros(100);

/// Responses arriving on one connection are parsed out of this buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Non-blocking: socket read timeouts are timer-tick granular (several
        // milliseconds), so the lane polls and sleeps with `thread::sleep`,
        // which wakes within tens of microseconds.
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Pulls whatever bytes are available without waiting; true if any
    /// arrived.
    fn fill(&mut self) -> std::io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        let mut got = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes all of `bytes`, waiting out a full send buffer.
    fn send(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    std::thread::sleep(POLL);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Takes one complete response `(status, body)` off the buffer.
    fn take_response(&mut self) -> Option<(u16, String)> {
        let head_end = self.buf.windows(4).position(|w| w == b"\r\n\r\n")?;
        let head = std::str::from_utf8(&self.buf[..head_end]).ok()?;
        let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())
                    .flatten()
            })
            .unwrap_or(0);
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return None;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).into_owned();
        self.buf.drain(..total);
        Some((status, body))
    }
}

fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(u) => Some(*u),
        Value::I64(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

/// Checks one 200 body: it parses, every id is in range, and its
/// generation is at least `min_generation`. Returns the generation.
fn check_body(kind: Kind, body: &str, limits: Limits, min_generation: u64) -> Result<u64, String> {
    let v: Value = serde_json::from_str(body).map_err(|e| format!("unparsable body: {e}"))?;
    let generation = field(&v, "generation")
        .and_then(as_u64)
        .ok_or("body without generation")?;
    if generation < min_generation {
        return Err(format!(
            "generation {generation} after a swap to {min_generation}"
        ));
    }
    let (list, key, bound) = match kind {
        Kind::Similar => ("results", "id", limits.companies),
        Kind::Whitespace => ("results", "product", limits.products),
        Kind::Recommend => ("top", "product", limits.products),
    };
    let Some(Value::Seq(items)) = field(&v, list) else {
        return Err(format!("body without {list}"));
    };
    // A company can own everything its neighbours own: an empty
    // whitespace list is a valid answer.
    if items.is_empty() && kind != Kind::Whitespace {
        return Err(format!("empty {list}"));
    }
    for item in items {
        match field(item, key).and_then(as_u64) {
            Some(id) if id < bound => {}
            other => return Err(format!("{key} {other:?} out of range (< {bound})")),
        }
    }
    Ok(generation)
}

/// Drives one phase: `plan[i]` goes out on connection `i % conns` as
/// `pace` allows, and
/// swaps fire at `swap_at` offsets on a separate admin connection owned by
/// the first thread. Returns once every request is answered or the phase
/// has overrun its schedule by `grace`.
pub fn run_phase(
    addr: SocketAddr,
    conns: usize,
    plan: &[Planned],
    swap_at: &[Duration],
    pace: Pace,
    limits: Limits,
    grace: Duration,
) -> std::io::Result<PhaseResult> {
    let conns = conns.max(1);
    // The generation every request sent after a completed swap must carry.
    let min_generation = Arc::new(AtomicU64::new(0));
    let mut lanes: Vec<Conn> = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<std::io::Result<_>>()?;
    let admin = if swap_at.is_empty() {
        None
    } else {
        let c = Conn::open(addr)?;
        Some(c)
    };
    let start = Instant::now();
    let results: Vec<std::io::Result<PhaseResult>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        let mut admin = admin;
        for (lane, conn) in lanes.drain(..).enumerate() {
            let mine: Vec<&Planned> = plan.iter().skip(lane).step_by(conns).collect();
            let admin = if lane == 0 { admin.take() } else { None };
            let min_generation = Arc::clone(&min_generation);
            let swaps = if lane == 0 { swap_at } else { &[][..] };
            handles.push(s.spawn(move || {
                let lane = Lane {
                    admin,
                    swap_at: swaps,
                    pace,
                    start,
                    limits,
                    grace,
                    min_generation: &min_generation,
                };
                lane.drive(conn, &mine)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut merged = PhaseResult {
        outcomes: Vec::with_capacity(plan.len()),
        swaps: Vec::new(),
        violations: Vec::new(),
    };
    for r in results {
        let r = r?;
        merged.outcomes.extend(r.outcomes);
        merged.swaps.extend(r.swaps);
        merged.violations.extend(r.violations);
    }
    merged.outcomes.sort_by_key(|o| o.due);
    Ok(merged)
}

/// One generator thread's connection, schedule and (for the first lane)
/// the admin connection that fires swaps.
struct Lane<'a> {
    admin: Option<Conn>,
    swap_at: &'a [Duration],
    pace: Pace,
    start: Instant,
    limits: Limits,
    grace: Duration,
    min_generation: &'a AtomicU64,
}

impl Lane<'_> {
    fn drive(self, mut conn: Conn, mine: &[&Planned]) -> std::io::Result<PhaseResult> {
        let Lane {
            mut admin,
            swap_at,
            pace,
            start,
            limits,
            grace,
            min_generation,
        } = self;
        let mut out = PhaseResult {
            outcomes: Vec::with_capacity(mine.len()),
            swaps: Vec::new(),
            violations: Vec::new(),
        };
        // In flight, oldest first: (index into mine, due offset, send offset,
        // generation floor at send time).
        let mut pending: VecDeque<(usize, Duration, Duration, u64)> = VecDeque::new();
        let mut next = 0;
        let mut next_swap = 0;
        let mut swap_sent: Option<Instant> = None;
        let mut last_swap_generation = 0;
        let last_due = match pace {
            Pace::Open => mine.last().map_or(Duration::ZERO, |p| p.due),
            Pace::Closed { until, .. } => until,
        };
        let hard_stop = last_due.max(swap_at.last().copied().unwrap_or_default()) + grace;
        let mut wire = Vec::with_capacity(4096);

        loop {
            let now = start.elapsed();
            wire.clear();
            while next < mine.len() {
                let due = match pace {
                    Pace::Open if mine[next].due <= now => mine[next].due,
                    Pace::Closed { depth, until } if now < until && pending.len() < depth => now,
                    _ => break,
                };
                let _ = write!(
                    wire,
                    "GET {} HTTP/1.1\r\nhost: bench\r\n\r\n",
                    mine[next].target
                );
                pending.push_back((
                    next,
                    due,
                    start.elapsed(),
                    min_generation.load(Ordering::SeqCst),
                ));
                next += 1;
            }
            if !wire.is_empty() {
                conn.send(&wire)?;
            }
            if let Some(a) = admin.as_mut() {
                if swap_sent.is_none() && next_swap < swap_at.len() && swap_at[next_swap] <= now {
                    a.send(
                        b"POST /admin/swap HTTP/1.1\r\nhost: bench\r\ncontent-length: 0\r\n\r\n",
                    )?;
                    swap_sent = Some(Instant::now());
                    next_swap += 1;
                }
                if let Some(t0) = swap_sent {
                    a.fill()?;
                    if let Some((status, body)) = a.take_response() {
                        let round_trip = t0.elapsed();
                        swap_sent = None;
                        let generation = (status == 200)
                            .then(|| serde_json::from_str::<Value>(&body).ok())
                            .flatten()
                            .and_then(|v| field(&v, "generation").and_then(as_u64));
                        match generation {
                        Some(g) if g > last_swap_generation => {
                            last_swap_generation = g;
                            min_generation.fetch_max(g, Ordering::SeqCst);
                        }
                        _ => out.violations.push(format!(
                            "swap answered {status} {body} (previous generation {last_swap_generation})"
                        )),
                    }
                        out.swaps.push(SwapOutcome {
                            round_trip,
                            generation,
                        });
                    }
                }
            }

            let done_sending = next >= mine.len()
                || matches!(pace, Pace::Closed { until, .. } if start.elapsed() >= until);
            let swaps_done = admin.is_none() || (next_swap >= swap_at.len() && swap_sent.is_none());
            if done_sending && pending.is_empty() && swaps_done {
                break;
            }
            if start.elapsed() > hard_stop {
                break;
            }
            let got = !pending.is_empty() && conn.fill()?;
            while let Some((status, body)) = conn.take_response() {
                let done = start.elapsed();
                let Some((i, due, sent, floor)) = pending.pop_front() else {
                    out.violations.push("response without a request".into());
                    break;
                };
                let p = mine[i];
                let ok = status == 200;
                if ok {
                    if let Err(why) = check_body(p.kind, &body, limits, floor) {
                        out.violations.push(format!("{}: {why}", p.target));
                    }
                }
                out.outcomes.push(Outcome {
                    kind: p.kind,
                    due,
                    lag: sent.saturating_sub(due),
                    latency: ok.then(|| done.saturating_sub(due)),
                });
            }
            if !got {
                // Sleep until the next send (or swap) is due, polling every
                // POLL while responses or a swap answer are outstanding.
                let now = start.elapsed();
                let mut wait = match pace {
                    _ if done_sending => Duration::from_millis(5),
                    Pace::Open => mine[next].due.saturating_sub(now),
                    Pace::Closed { .. } => POLL,
                };
                if admin.is_some() && swap_sent.is_none() {
                    if let Some(&t) = swap_at.get(next_swap) {
                        wait = wait.min(t.saturating_sub(now));
                    }
                }
                if !pending.is_empty() || swap_sent.is_some() {
                    wait = wait.min(POLL);
                }
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
        }
        // Whatever is still unanswered (or was never sent) at the hard stop
        // failed.
        for (i, due, sent, _) in pending {
            out.outcomes.push(Outcome {
                kind: mine[i].kind,
                due,
                lag: sent.saturating_sub(due),
                latency: None,
            });
        }
        if matches!(pace, Pace::Open) {
            for p in &mine[next..] {
                out.outcomes.push(Outcome {
                    kind: p.kind,
                    due: p.due,
                    lag: hard_stop.saturating_sub(p.due),
                    latency: None,
                });
            }
        }
        if swap_sent.is_some() {
            out.violations
                .push("swap unanswered at the end of the phase".into());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_checks_catch_range_and_generation() {
        let limits = Limits {
            companies: 100,
            products: 38,
        };
        let ok = r#"{"query":1,"k":2,"generation":3,"model":"LDA5","results":[{"id":4,"distance":0.1},{"id":99,"distance":0.2}]}"#;
        assert_eq!(check_body(Kind::Similar, ok, limits, 3), Ok(3));
        assert!(check_body(Kind::Similar, ok, limits, 4).is_err());
        let out_of_range = r#"{"generation":1,"results":[{"id":100,"distance":0.1}]}"#;
        assert!(check_body(Kind::Similar, out_of_range, limits, 0).is_err());
        let rec =
            r#"{"generation":1,"model":"LDA5","degraded":null,"top":[{"product":37,"score":0.5}]}"#;
        assert!(check_body(Kind::Recommend, rec, limits, 1).is_ok());
        assert!(check_body(Kind::Whitespace, "{not json", limits, 0).is_err());
    }

    #[test]
    fn pipelined_responses_split_on_content_length() {
        let (a, mut b) = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = l.local_addr().unwrap();
            let c = Conn::open(addr).unwrap();
            (l.accept().unwrap().0, c)
        };
        let mut a = a;
        a.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}HTTP/1.1 503 Service Unavailable\r\nContent-Length: 3\r\n\r\nabc")
            .unwrap();
        let mut got = Vec::new();
        while got.len() < 2 {
            b.fill().unwrap();
            std::thread::sleep(Duration::from_millis(1));
            while let Some(r) = b.take_response() {
                got.push(r);
            }
        }
        assert_eq!(got, vec![(200, "{}".into()), (503, "abc".into())]);
    }
}
