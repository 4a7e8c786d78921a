//! The measured phase: closed-loop connections over real loopback
//! sockets, tracer off. Each connection sends its next request only
//! after the previous answer is fully parsed.

use crate::inputs::{Request, BATCH};
use crate::stats::{Attempt, Outcome};
use crate::sut::Sut;
use rpq_server::Client;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Closed-loop connections: one per core, at most two — the load comes
/// from this process and must leave the server its share of the box.
pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Read samples the phase collects before it may end, whatever the
/// clock says: `read_p95_ms` needs 200, and a box several times slower
/// than the reference one must still be able to report it. On the
/// reference box every workload passes this well inside `--seconds`.
const MIN_READS: usize = 260;
/// The phase never runs longer than this many times `--seconds`.
const MAX_OVERRUN: u32 = 4;

/// Attempts per request before a run of 429s is given up as an error.
const MAX_ATTEMPTS: u32 = 50;

/// Send one request until it is answered with something other than 429.
/// Every attempt is accounted in `out`.
pub fn send(client: &mut Client, request: &Request, out: &mut Outcome) {
    for attempt in 1..=MAX_ATTEMPTS {
        let started = Instant::now();
        let how = match client.request("POST", request.path(), request.body()) {
            Ok(resp) if resp.status == 200 => {
                let ms = started.elapsed().as_secs_f64() * 1e3;
                match request {
                    Request::Read { .. } => out.read(Attempt::Ok, BATCH as u64, ms),
                    Request::Write { .. } => out.write(Attempt::Ok, ms),
                }
                return;
            }
            Ok(resp) if resp.status == 429 => Attempt::Refused,
            _ => Attempt::Error,
        };
        match request {
            Request::Read { .. } => out.read(how, 0, 0.0),
            Request::Write { .. } => out.write(how, 0.0),
        }
        if how == Attempt::Error {
            return;
        }
        // backpressure honoured, scaled down from the server's 1 s hint
        std::thread::sleep(Duration::from_millis(2 * u64::from(attempt)));
    }
}

/// What the measured phase produced.
pub struct Phase {
    pub outcome: Outcome,
    /// First send to last completion across all connections, seconds.
    pub wall_s: f64,
}

/// Run `connections()` closed-loop connections for `seconds`, connection
/// `c` of `k` taking requests `from + c`, `from + c + k`, … of the stream.
pub fn run(sut: &Sut, from: u64, seconds: f64) -> Result<Phase, String> {
    let conns = connections();
    let barrier = Barrier::new(conns);
    let budget = Duration::from_secs_f64(seconds);
    let results: Vec<Result<(Outcome, Instant, Instant), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut client = sut.connect()?;
                    let mut out = Outcome::default();
                    // generation and encoding stay outside the timed send
                    let mut index = from + c as u64;
                    let mut next = sut.inputs.request(index);
                    barrier.wait();
                    let started = Instant::now();
                    let mut finished = started;
                    let floor = MIN_READS.div_ceil(conns);
                    while started.elapsed() < budget
                        || (out.read_ms.len() < floor && started.elapsed() < budget * MAX_OVERRUN)
                    {
                        send(&mut client, &next, &mut out);
                        finished = Instant::now();
                        index += conns as u64;
                        next = sut.inputs.request(index);
                    }
                    Ok((out, started, finished))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect()
    });
    let mut outcome = Outcome::default();
    let (mut first, mut last) = (None::<Instant>, None::<Instant>);
    for r in results {
        let (out, started, finished) = r?;
        outcome.merge(out);
        first = Some(first.map_or(started, |f| f.min(started)));
        last = Some(last.map_or(finished, |l| l.max(finished)));
    }
    let wall_s = match (first, last) {
        (Some(f), Some(l)) => (l - f).as_secs_f64(),
        _ => 0.0,
    };
    Ok(Phase { outcome, wall_s })
}
