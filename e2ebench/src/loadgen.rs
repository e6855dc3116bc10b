//! Open-loop load generator: requests are sent on a seeded schedule, not
//! when the previous reply arrives, because the callers are independent
//! users. Every latency is kept exactly and measured from when the
//! request was due, so a stall also charges the requests queued behind
//! it. At most `connections` requests are in flight, one per thread.

use crate::client::Conn;
use hv_corpus::rng::KeyedRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Due {
    /// Offset from the step's start.
    pub at: Duration,
    /// Index into the request table.
    pub request: usize,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub request: usize,
    /// Due-to-reply latency; `None` when the request failed (connection
    /// error or non-200 status).
    pub latency_ms: Option<f64>,
    /// How late the generator sent it.
    pub late_ms: f64,
    /// A 200 whose body differs from the expected bytes.
    pub wrong: bool,
}

/// `count` arrivals of a Poisson process over `span`, given the count:
/// sorted uniform offsets. `pick` chooses each arrival's request.
pub fn poisson_schedule(
    rng: &mut KeyedRng,
    count: usize,
    span: Duration,
    mut pick: impl FnMut(&mut KeyedRng) -> usize,
) -> Vec<Due> {
    let mut at: Vec<Duration> = (0..count).map(|_| span.mul_f64(rng.unit())).collect();
    at.sort();
    at.into_iter().map(|at| Due { at, request: pick(rng) }).collect()
}

/// Run `schedule` against `addr` with up to `connections` connections.
/// `requests[i]` is sent for `Due::request == i` and must be answered 200
/// with exactly `expected[i]`. Results come back in schedule order.
pub fn open_loop(
    addr: &str,
    connections: usize,
    schedule: &[Due],
    requests: &[Vec<u8>],
    expected: &[Vec<u8>],
) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut all: Vec<(usize, Sent)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..connections.max(1))
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut conn: Option<Conn> = None;
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(due) = schedule.get(i) else { break };
                        let due_at = start + due.at;
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                        }
                        let sent_at = Instant::now();
                        let reply = match conn.as_mut() {
                            Some(c) => c.exchange(&requests[due.request]),
                            None => Conn::connect(addr, Duration::from_secs(30))
                                .and_then(|c| conn.insert(c).exchange(&requests[due.request])),
                        };
                        let done = Instant::now();
                        let late_ms = ms(sent_at.saturating_duration_since(due_at));
                        let (latency_ms, wrong) = match reply {
                            Ok(r) if r.status == 200 => {
                                (Some(ms(done - due_at)), r.body != expected[due.request])
                            }
                            Ok(_) => (None, false),
                            Err(_) => {
                                conn = None;
                                (None, false)
                            }
                        };
                        mine.push((i, Sent { request: due.request, latency_ms, late_ms, wrong }));
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("load worker panicked")).collect()
    });
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, s)| s).collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
