//! The `serve-mixed` workload: an in-process `axcc_serve` daemon with a
//! fresh store, driven by closed-loop clients over TCP with a seeded
//! stream of `eval` requests, about two thirds of which repeat an earlier
//! spec. Hits and appends therefore share one store, the median request
//! is a hit and the tail is made of misses.

use crate::measure::{cpu_seconds, secs, Spans};
use crate::{Ctx, Pass, Workload};
use axcc_analysis::experiments::{explore, RunBudget};
use axcc_serve::{parse_response, start, ServeConfig, ServerHandle};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Protocol aliases the registry resolves.
pub const ALIASES: [&str; 10] = [
    "reno",
    "cubic",
    "scalable",
    "scalable-aimd",
    "pcc",
    "vegas",
    "robust-aimd",
    "bbr",
    "tfrc",
    "highspeed",
];
/// Table 2's link bandwidths (Mbps); RTT 42 ms, buffer 100 MSS.
pub const MBPS: [f64; 4] = [20.0, 30.0, 60.0, 100.0];
/// Link RTT in ms.
pub const RTT_MS: f64 = 42.0;
/// Link buffer in MSS.
pub const BUFFER_MSS: f64 = 100.0;
/// Fluid steps per request.
pub const STEPS: [usize; 2] = [600, 4000];
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Daemon worker threads.
pub const DAEMON_WORKERS: usize = 2;

/// One distinct `eval` spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The two senders' protocol aliases.
    pub protocols: [&'static str; 2],
    /// Link bandwidth in Mbps.
    pub mbps: f64,
    /// Fluid steps.
    pub steps: usize,
    /// Bernoulli wire-loss rate (0 = clean).
    pub wire_loss: f64,
}

impl Spec {
    /// The request line (newline included) for this spec under `id`.
    pub fn line(&self, id: usize) -> String {
        format!(
            "{{\"id\":{id},\"op\":\"eval\",\"protocols\":[\"{}\",\"{}\"],\"link\":{{\"mbps\":{},\"rtt_ms\":{RTT_MS},\"buffer\":{BUFFER_MSS}}},\"steps\":{},\"seed\":1,\"wire_loss\":{}}}\n",
            self.protocols[0], self.protocols[1], self.mbps, self.steps, self.wire_loss
        )
    }
}

/// A request stream: distinct specs and, per request, which spec it asks.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Distinct specs in order of first appearance.
    pub specs: Vec<Spec>,
    /// Spec index of each request.
    pub requests: Vec<usize>,
}

/// `0..n` in a seeded random order (Fisher–Yates).
fn shuffled(rng: &mut ChaCha8Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    v
}

impl Stream {
    /// The seeded stream of `n` requests. Every third request asks for a
    /// spec not seen before; the others repeat a uniformly chosen earlier
    /// spec. New specs walk seeded permutations of the (steps, bandwidth,
    /// loss level) grid and of the ordered protocol pairs, so every seed
    /// asks for the same mix of simulation work.
    pub fn generate(seed: u64, n: usize) -> Stream {
        let levels = explore::loss_levels(RunBudget::paper());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut stream = Stream {
            specs: Vec::new(),
            requests: Vec::with_capacity(n),
        };
        let (mut links, mut pairs) = (Vec::new(), Vec::new());
        let mut seen = BTreeSet::new();
        for i in 0..n {
            if i % 3 != 0 {
                let earlier = (rng.next_u64() % stream.specs.len() as u64) as usize;
                stream.requests.push(earlier);
                continue;
            }
            loop {
                if links.is_empty() {
                    links = shuffled(&mut rng, STEPS.len() * MBPS.len() * levels.len());
                }
                if pairs.is_empty() {
                    pairs = shuffled(&mut rng, ALIASES.len() * ALIASES.len());
                }
                let (link, pair) = (links.pop().unwrap_or(0), pairs.pop().unwrap_or(0));
                let spec = Spec {
                    protocols: [ALIASES[pair / ALIASES.len()], ALIASES[pair % ALIASES.len()]],
                    steps: STEPS[link % STEPS.len()],
                    mbps: MBPS[link / STEPS.len() % MBPS.len()],
                    wire_loss: levels[link / (STEPS.len() * MBPS.len())],
                };
                if seen.insert(spec.line(0)) {
                    stream.requests.push(stream.specs.len());
                    stream.specs.push(spec);
                    break;
                }
            }
        }
        stream
    }

    /// Request lines, ids numbered from 0.
    pub fn lines(&self) -> Vec<String> {
        self.requests
            .iter()
            .enumerate()
            .map(|(id, &s)| self.specs[s].line(id))
            .collect()
    }

    /// Sender-steps the stream asks for (steps × senders per request).
    pub fn sender_steps(&self) -> u64 {
        self.requests
            .iter()
            .map(|&s| 2 * self.specs[s].steps as u64)
            .sum()
    }
}

fn config(ctx: &Ctx) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: DAEMON_WORKERS,
        cache_dir: Some(ctx.fresh_dir("serve-store")),
        ..ServeConfig::default()
    }
}

const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Pause between daemon start and the set-up ping.
const SETTLE: Duration = Duration::from_millis(5);

/// One request/response exchange on a new connection.
fn call(addr: SocketAddr, line: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    writer
        .write_all(line.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut resp = String::new();
    reader.read_line(&mut resp).map_err(|e| e.to_string())?;
    Ok(resp)
}

/// The daemon's `stats` op as `(cache_hits, executed, overloaded)`.
pub fn daemon_stats(addr: SocketAddr) -> Result<[u64; 3], String> {
    let resp = parse_response(&call(addr, "{\"id\":0,\"op\":\"stats\"}\n")?)?;
    let v = resp
        .outcome
        .map_err(|(_, m)| format!("stats failed: {m}"))?;
    let get = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
    Ok([get("cache_hits"), get("executed"), get("overloaded")])
}

fn stop(handle: ServerHandle) {
    handle.trigger_shutdown();
    let _ = handle.join();
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Request index in the stream.
    pub request: usize,
    /// When the request was sent.
    pub sent: Instant,
    /// When its response arrived.
    pub received: Instant,
    /// The response line.
    pub response: String,
}

/// A closed-loop client: send one request, wait for its response, repeat.
fn client(addr: SocketAddr, lines: &[String], mine: Vec<usize>) -> Result<Vec<Sample>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut out = Vec::with_capacity(mine.len());
    for request in mine {
        let mut response = String::new();
        let sent = Instant::now();
        writer
            .write_all(lines[request].as_bytes())
            .map_err(|e| e.to_string())?;
        reader.read_line(&mut response).map_err(|e| e.to_string())?;
        out.push(Sample {
            request,
            sent,
            received: Instant::now(),
            response,
        });
    }
    Ok(out)
}

/// What one block of the stream did, beyond its [`Pass`].
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Latencies (ms) of requests sent after an earlier request for the
    /// same spec had been answered: certain store hits.
    pub hit_latency_ms: Vec<f64>,
    /// The daemon's `stats` deltas over the block: hits, executed,
    /// overloaded.
    pub counters: [u64; 3],
}

/// `serve-mixed`: each pass is one block, the whole stream against a
/// freshly started daemon with an empty store.
pub struct Mixed {
    /// The request stream.
    pub stream: Stream,
    lines: Vec<String>,
    /// The result first served for each spec; every later response for
    /// the spec, in any block, must equal it.
    reference: BTreeMap<usize, String>,
    /// Details of the last block.
    pub last: Block,
}

impl Mixed {
    /// The workload over the stream `ctx.seed` generates.
    pub fn new(ctx: &Ctx) -> Self {
        let stream = Stream::generate(ctx.seed, ctx.serve_requests);
        let lines = stream.lines();
        Mixed {
            stream,
            lines,
            reference: BTreeMap::new(),
            last: Block::default(),
        }
    }

    /// Check a block's samples: every response `ok`, and each spec's result
    /// equal to the first result served for it. Returns the failures.
    fn check(&mut self, samples: &mut [Sample]) -> u64 {
        samples.sort_by_key(|s| s.sent);
        let mut failed = 0;
        for s in samples.iter() {
            let result = parse_response(&s.response)
                .ok()
                .and_then(|r| r.outcome.ok())
                .and_then(|v| serde_json::to_string(&v).ok());
            let Some(result) = result else {
                failed += 1;
                continue;
            };
            let spec = self.stream.requests[s.request];
            if *self.reference.entry(spec).or_insert_with(|| result.clone()) != result {
                failed += 1;
            }
        }
        failed
    }

    fn hit_latencies(&self, samples: &[Sample]) -> Vec<f64> {
        let mut first_answer: BTreeMap<usize, Instant> = BTreeMap::new();
        for s in samples {
            let e = first_answer
                .entry(self.stream.requests[s.request])
                .or_insert(s.received);
            *e = (*e).min(s.received);
        }
        samples
            .iter()
            .filter(|s| first_answer[&self.stream.requests[s.request]] < s.sent)
            .map(|s| (s.received - s.sent).as_secs_f64() * 1e3)
            .collect()
    }

    fn drive(&self, addr: SocketAddr) -> Result<Vec<Sample>, String> {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let mine: Vec<usize> = (c..self.lines.len()).step_by(CLIENTS).collect();
                    scope.spawn(move || client(addr, &self.lines, mine))
                })
                .collect();
            let mut all = Vec::new();
            for h in handles {
                all.extend(
                    h.join()
                        .map_err(|_| "a client thread panicked".to_string())??,
                );
            }
            Ok(all)
        })
    }
}

impl Workload for Mixed {
    /// Daemon start, plus the round trip of a first `ping` from a client
    /// that connects once the daemon has settled into its accept loop
    /// (connecting at once would race the accept thread's first poll, and
    /// which side wins depends on the host's load, not on the daemon).
    fn setup_once(&mut self, ctx: &Ctx) -> Result<f64, String> {
        let t = Instant::now();
        let handle = start(config(ctx)).map_err(|e| format!("daemon start: {e}"))?;
        let started = secs(t);
        thread::sleep(SETTLE);
        let t = Instant::now();
        let pong = call(handle.addr(), "{\"id\":0,\"op\":\"ping\"}\n");
        let setup = started + secs(t);
        stop(handle);
        pong.and_then(|p| parse_response(&p))?
            .outcome
            .map_err(|(_, m)| format!("ping failed: {m}"))?;
        Ok(setup)
    }

    fn pass(&mut self, ctx: &Ctx, spans: &mut Spans) -> Result<Pass, String> {
        let handle = start(config(ctx)).map_err(|e| format!("daemon start: {e}"))?;
        let addr = handle.addr();
        let outcome = (|| -> Result<(Vec<Sample>, f64, f64, [u64; 3]), String> {
            let before = daemon_stats(addr)?;
            let (cpu0, t0) = (cpu_seconds(), Instant::now());
            let samples = spans.time("serve.block", || self.drive(addr))?;
            let (wall, cpu) = (secs(t0), cpu_seconds() - cpu0);
            let after = daemon_stats(addr)?;
            Ok((
                samples,
                wall,
                cpu,
                [0, 1, 2].map(|i| after[i].saturating_sub(before[i])),
            ))
        })();
        stop(handle);
        let (mut samples, wall_s, cpu_s, counters) = outcome?;
        let latency_ms = samples
            .iter()
            .map(|s| (s.received - s.sent).as_secs_f64() * 1e3)
            .collect();
        let failed = self.check(&mut samples);
        self.last = Block {
            hit_latency_ms: self.hit_latencies(&samples),
            counters,
        };
        Ok(Pass {
            wall_s,
            cpu_s,
            latency_ms,
            attempted: self.lines.len() as u64,
            failed: failed + (self.lines.len() - samples.len()) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_different_seed_different_stream() {
        let a = Stream::generate(7, 500);
        assert_eq!(a, Stream::generate(7, 500));
        assert_ne!(a, Stream::generate(8, 500));
        assert_eq!(a.requests.len(), 500);
    }

    #[test]
    fn two_thirds_of_requests_repeat_an_earlier_spec() {
        let s = Stream::generate(3, 3000);
        assert_eq!(s.specs.len(), 1000);
        let lines: BTreeSet<String> = s.specs.iter().map(|sp| sp.line(0)).collect();
        assert_eq!(lines.len(), s.specs.len(), "new specs are distinct");
        for (i, &spec) in s.requests.iter().enumerate() {
            let first = s.requests.iter().position(|&x| x == spec);
            assert_eq!(first == Some(i), i % 3 == 0, "request {i}");
        }
        // Every seed asks for nearly the same mix: 1000 new specs walk four
        // whole cycles of the 240-cell link grid, then part of a fifth.
        for mbps in MBPS {
            let n = s.specs.iter().filter(|sp| sp.mbps == mbps).count();
            assert!((240..=280).contains(&n), "{mbps} Mbps asked {n} times");
        }
    }

    #[test]
    fn request_lines_parse_back_to_their_specs() {
        use axcc_serve::protocol::{parse_request, Op};
        let s = Stream::generate(5, 200);
        for (line, &i) in s.lines().iter().zip(&s.requests) {
            let Op::Eval(spec) = parse_request(line.trim_end()).unwrap().op else {
                panic!("not an eval: {line}");
            };
            let want = &s.specs[i];
            assert_eq!(spec.protocols, want.protocols);
            assert_eq!(spec.wire_loss.to_bits(), want.wire_loss.to_bits());
            assert_eq!((spec.mbps, spec.steps), (want.mbps, want.steps));
        }
    }
}
