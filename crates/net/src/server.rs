//! The blocking multi-threaded TCP server that owns a [`ServeEngine`].
//!
//! ## Threading model
//!
//! One blocking accept loop, two threads per connection:
//!
//! * the **reader** decodes frames and *admits* requests — it never
//!   blocks on the engine. Admission is two-layered: the per-connection
//!   in-flight **window** (`NetConfig::window`) sheds first, then the
//!   engine's bounded submission queue (via the non-blocking
//!   `ServeEngine::*_submit` API). Both sheds answer a typed
//!   [`ErrorCode::Overloaded`] frame immediately — transport
//!   backpressure surfaces exactly like engine admission control, never
//!   as a hang.
//! * the **writer** drains a bounded outgoing queue, resolving each
//!   admitted request's [`simpim_serve::Pending`] reply and writing the
//!   response frame under a write timeout
//!   (`NetConfig::write_timeout`). A peer that stops reading (a *slow
//!   reader*) fills its TCP receive window, the write times out, and
//!   the connection is dropped with `transport_errors` accounting — the
//!   engine and every other connection are untouched.
//!
//! The reader→writer queue is bounded at `window + shed slack`; a client
//! that floods faster than its responses drain eventually blocks the
//! reader on that queue, which stops frame consumption and pushes the
//! backpressure into the kernel's TCP flow control **for that connection
//! only**.
//!
//! ## Trace propagation
//!
//! Every request header carries the client's `{trace_id, span_id}`. The
//! server joins the trace with [`TraceCtx::join`] — adopting the remote
//! trace id while minting span ids locally — so the flight recorder's
//! span trees reconstruct end to end under the *client's* trace id, and
//! a `BENCH_net_flight.jsonl` line can be matched 1:1 with the client
//! that caused it.

use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use simpim_obs::TraceCtx;
use simpim_serve::{Pending, ServeEngine, ServeError};

use crate::error::NetError;
use crate::stats::{stats_document, NetStats};
use crate::wire::{
    decode_request, encode_response, Envelope, ErrorCode, FrameReader, ReadStep, Request, Response,
    WireError, DEFAULT_MAX_FRAME,
};

/// Transport configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-connection in-flight request window. Requests beyond it are
    /// shed with [`ErrorCode::Overloaded`] before touching the engine.
    /// Default: 32.
    pub window: usize,
    /// Slow-reader guard: a response write that makes no progress for
    /// this long drops the connection. Default: 5 s.
    pub write_timeout: Duration,
    /// Maximum accepted frame payload. Default: [`DEFAULT_MAX_FRAME`]
    /// (16 MiB).
    pub max_frame: usize,
    /// Queue deadline applied to queries that don't carry their own
    /// (`timeout_ms == 0`). Default: 5 s.
    pub default_deadline: Duration,
    /// Socket read timeout: how often idle readers poll the shutdown
    /// flag. Default: 100 ms.
    pub read_poll: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            window: 32,
            write_timeout: Duration::from_secs(5),
            max_frame: DEFAULT_MAX_FRAME,
            default_deadline: Duration::from_secs(5),
            read_poll: Duration::from_millis(100),
        }
    }
}

#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_open: AtomicU64,
    frames_rx: AtomicU64,
    frames_tx: AtomicU64,
    bytes_rx: AtomicU64,
    bytes_tx: AtomicU64,
    decode_errors: AtomicU64,
    window_sheds: AtomicU64,
    engine_sheds: AtomicU64,
    transport_errors: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> NetStats {
        NetStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            frames_rx: self.frames_rx.load(Ordering::Relaxed),
            frames_tx: self.frames_tx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            window_sheds: self.window_sheds.load(Ordering::Relaxed),
            engine_sheds: self.engine_sheds.load(Ordering::Relaxed),
            transport_errors: self.transport_errors.load(Ordering::Relaxed),
        }
    }
}

/// A TCP front-end serving one [`ServeEngine`]. Binding spawns the
/// accept loop; dropping (or [`NetServer::shutdown`]) stops accepting,
/// unwinds every connection, and joins all threads before the engine
/// tears down.
pub struct NetServer {
    engine: Arc<ServeEngine>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    counters: Arc<Counters>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port; read it back via
    /// [`NetServer::local_addr`]) and starts serving `engine`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
        engine: ServeEngine,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(engine);
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let accept = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            thread::Builder::new()
                .name("simpim-net-accept".to_string())
                .spawn(move || accept_loop(listener, cfg, engine, stop, counters))
                .expect("spawn accept thread")
        };
        simpim_obs::metrics::counter_add("simpim.net.server.binds", 1);
        Ok(Self {
            engine,
            addr,
            stop,
            accept: Some(accept),
            counters,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind this server — for in-process fault injection
    /// (`kill_bank`) and direct stats in tests and examples.
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// Transport counter snapshot.
    pub fn stats(&self) -> NetStats {
        self.counters.snapshot()
    }

    /// Stops accepting, closes every connection, joins all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // The loop blocks in `accept`: one connect of our own wakes it
            // to see `stop`. A connect fails only once the listener is gone.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: TcpListener,
    cfg: NetConfig,
    engine: Arc<ServeEngine>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            // The wake connect of `stop_and_join`, or a client racing the
            // shutdown: dropped, neither counted nor served.
            Ok(_) if stop.load(Ordering::SeqCst) => break,
            Ok((stream, _peer)) => {
                counters
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                counters.connections_open.fetch_add(1, Ordering::Relaxed);
                simpim_obs::metrics::counter_add("simpim.net.server.connections", 1);
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let counters = Arc::clone(&counters);
                let cfg = cfg.clone();
                let h = thread::Builder::new()
                    .name("simpim-net-conn".to_string())
                    .spawn(move || {
                        serve_connection(stream, cfg, engine, stop, Arc::clone(&counters));
                        counters.connections_open.fetch_sub(1, Ordering::Relaxed);
                    })
                    .expect("spawn connection thread");
                conns.push(h);
                conns.retain(|h| !h.is_finished());
            }
            // A real `accept` error (out of descriptors, say): back off.
            Err(_) if !stop.load(Ordering::SeqCst) => thread::sleep(Duration::from_millis(10)),
            Err(_) => break,
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// One response owed to the client, in request order.
enum Outgoing {
    /// Already-encoded frame (errors, pong, stats, flight).
    Ready(Vec<u8>),
    /// An admitted engine command: it holds a window slot until the
    /// writer has resolved `wait` into its response.
    Pending {
        ids: Ids,
        accepted: Instant,
        wait: Wait,
    },
}

/// The `(request_id, trace_id, span_id)` a response echoes.
type Ids = (u64, u64, u64);

/// Blocks for an admitted command's engine reply and renders it.
type Wait = Box<dyn FnOnce() -> Response + Send>;

fn response_frame(ids: Ids, msg: Response) -> Vec<u8> {
    encode_response(&Envelope {
        request_id: ids.0,
        trace_id: ids.1,
        span_id: ids.2,
        msg,
    })
}

fn error_response(code: ErrorCode, message: String) -> Response {
    Response::Error { code, message }
}

fn serve_error(e: &ServeError) -> Response {
    error_response(ErrorCode::from_serve(e), e.to_string())
}

/// The one admit shape: an engine submission plus how its reply renders.
/// Accepted, it becomes the [`Wait`] the writer resolves (an engine-side
/// failure renders as its typed error frame); refused, the engine's
/// error comes straight back for the reader to answer.
fn admit<T: Send + 'static>(
    submitted: Result<Pending<T>, ServeError>,
    ok: impl FnOnce(T) -> Response + Send + 'static,
) -> Result<Wait, ServeError> {
    let pending = submitted?;
    Ok(Box::new(move || {
        pending.wait().map_or_else(|e| serve_error(&e), ok)
    }))
}

fn serve_connection(
    stream: TcpStream,
    cfg: NetConfig,
    engine: Arc<ServeEngine>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.read_poll));
    let write_half = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            counters.transport_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let conn_dead = Arc::new(AtomicBool::new(false));
    let in_flight = Arc::new(AtomicUsize::new(0));
    // Window slots plus slack for shed/error frames: a reader blocked
    // here (flooding client) stops consuming frames, which is exactly
    // the per-connection TCP backpressure we want.
    let (out_tx, out_rx) = mpsc::sync_channel::<Outgoing>(cfg.window * 2 + 16);
    let writer = {
        let counters = Arc::clone(&counters);
        let conn_dead = Arc::clone(&conn_dead);
        let in_flight = Arc::clone(&in_flight);
        let write_timeout = cfg.write_timeout;
        thread::Builder::new()
            .name("simpim-net-writer".to_string())
            .spawn(move || {
                writer_loop(
                    write_half,
                    out_rx,
                    write_timeout,
                    counters,
                    conn_dead,
                    in_flight,
                )
            })
            .expect("spawn writer thread")
    };

    reader_loop(
        &stream, &cfg, &engine, &stop, &counters, &conn_dead, &in_flight, &out_tx,
    );

    // Closing our sender ends the writer once it has drained what the
    // client is owed; shutting down the socket unblocks a writer stuck
    // in a timed-out write.
    drop(out_tx);
    if conn_dead.load(Ordering::SeqCst) || stop.load(Ordering::SeqCst) {
        let _ = stream.shutdown(Shutdown::Both);
    }
    let _ = writer.join();
    let _ = stream.shutdown(Shutdown::Both);
}

#[allow(clippy::too_many_arguments)]
fn reader_loop(
    stream: &TcpStream,
    cfg: &NetConfig,
    engine: &ServeEngine,
    stop: &AtomicBool,
    counters: &Counters,
    conn_dead: &AtomicBool,
    in_flight: &AtomicUsize,
    out_tx: &SyncSender<Outgoing>,
) {
    let mut fr = FrameReader::new(stream, cfg.max_frame);
    loop {
        if stop.load(Ordering::SeqCst) || conn_dead.load(Ordering::SeqCst) {
            return;
        }
        match fr.next_frame() {
            ReadStep::Idle => continue,
            ReadStep::Eof => return,
            ReadStep::DirtyEof => {
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                simpim_obs::metrics::counter_add("simpim.net.server.decode_errors", 1);
                return;
            }
            ReadStep::TooLarge { len } => {
                // The stream cannot be resynchronized past a hostile
                // length prefix: answer a typed frame, then close.
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                simpim_obs::metrics::counter_add("simpim.net.server.decode_errors", 1);
                let msg =
                    error_response(ErrorCode::BadFrame, WireError::TooLarge { len }.to_string());
                let _ = out_tx.send(Outgoing::Ready(response_frame((0, 0, 0), msg)));
                return;
            }
            ReadStep::Err(_) => {
                counters.transport_errors.fetch_add(1, Ordering::Relaxed);
                simpim_obs::metrics::counter_add("simpim.net.server.transport_errors", 1);
                return;
            }
            ReadStep::Frame(payload) => {
                counters.frames_rx.fetch_add(1, Ordering::Relaxed);
                counters
                    .bytes_rx
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                let env = match decode_request(&payload) {
                    Ok(env) => env,
                    Err(fail) => {
                        counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                        simpim_obs::metrics::counter_add("simpim.net.server.decode_errors", 1);
                        // Version skew poisons everything after the
                        // header; body-level garbage is request-scoped.
                        let close = matches!(fail.error, WireError::BadVersion { .. });
                        let code = if close {
                            ErrorCode::UnsupportedVersion
                        } else {
                            ErrorCode::BadFrame
                        };
                        let ids = (fail.request_id, fail.trace_id, fail.span_id);
                        let msg = error_response(code, fail.error.to_string());
                        let frame = response_frame(ids, msg);
                        if out_tx.send(Outgoing::Ready(frame)).is_err() || close {
                            return;
                        }
                        continue;
                    }
                };
                if !dispatch(env, cfg, engine, counters, in_flight, out_tx) {
                    return;
                }
            }
        }
    }
}

/// Handles one decoded request. Returns `false` when the connection
/// should close (writer gone).
fn dispatch(
    env: Envelope<Request>,
    cfg: &NetConfig,
    engine: &ServeEngine,
    counters: &Counters,
    in_flight: &AtomicUsize,
    out_tx: &SyncSender<Outgoing>,
) -> bool {
    let ids = (env.request_id, env.trace_id, env.span_id);
    let ready = |msg: Response| Outgoing::Ready(response_frame(ids, msg));
    // Engine-backed commands hold a window slot until their response is
    // written; control frames (ping/stats/flight) answer inline.
    let windowed = matches!(
        env.msg,
        Request::Query { .. } | Request::Insert { .. } | Request::Delete { .. } | Request::Flush
    );
    if windowed && in_flight.load(Ordering::Acquire) >= cfg.window {
        counters.window_sheds.fetch_add(1, Ordering::Relaxed);
        simpim_obs::metrics::counter_add("simpim.net.server.window_sheds", 1);
        let msg = format!(
            "connection window full ({} requests in flight): request shed by admission control",
            cfg.window
        );
        return out_tx
            .send(ready(error_response(ErrorCode::Overloaded, msg)))
            .is_ok();
    }
    // Join the client's trace: its trace id, a locally minted span id —
    // flight-recorder trees reconstruct under the id the client knows.
    let ctx = TraceCtx::join(env.trace_id);
    let accepted = Instant::now();
    // An accepted submission takes a window slot until the writer has
    // resolved it; a refused one is answered at once.
    let owe = |admitted: Result<Wait, ServeError>| match admitted {
        Ok(wait) => {
            in_flight.fetch_add(1, Ordering::AcqRel);
            Outgoing::Pending {
                ids,
                accepted,
                wait,
            }
        }
        Err(e) => {
            // Queue-full rejections are engine-side sheds, distinct from
            // window sheds.
            if matches!(e, ServeError::Overloaded) {
                counters.engine_sheds.fetch_add(1, Ordering::Relaxed);
                simpim_obs::metrics::counter_add("simpim.net.server.engine_sheds", 1);
            }
            ready(serve_error(&e))
        }
    };
    let out = match env.msg {
        Request::Ping => ready(Response::Pong),
        Request::Stats => ready(engine.stats().map_or_else(
            |e| serve_error(&e),
            |es| Response::Stats(stats_document(&es, &counters.snapshot())),
        )),
        Request::Flight => ready(
            engine
                .flight_dump()
                .map_or_else(|e| serve_error(&e), Response::Flight),
        ),
        Request::Query {
            k,
            timeout_ms,
            vector,
        } => {
            let deadline = if timeout_ms == 0 {
                cfg.default_deadline
            } else {
                Duration::from_millis(u64::from(timeout_ms))
            };
            owe(admit(
                engine.knn_submit(&vector, k as usize, deadline, ctx),
                |n| Response::Query(n.into_iter().map(|(id, d)| (id as u64, d)).collect()),
            ))
        }
        Request::Insert { row } => owe(admit(engine.insert_submit(&row, ctx), |id| {
            Response::Insert(id as u64)
        })),
        Request::Delete { id } => owe(admit(
            engine.delete_submit(id as usize, ctx),
            Response::Delete,
        )),
        Request::Flush => owe(admit(engine.flush_submit(ctx), |()| Response::Flush)),
    };
    out_tx.send(out).is_ok()
}

fn writer_loop(
    mut w: TcpStream,
    rx: Receiver<Outgoing>,
    write_timeout: Duration,
    counters: Arc<Counters>,
    conn_dead: Arc<AtomicBool>,
    in_flight: Arc<AtomicUsize>,
) {
    let _ = w.set_write_timeout(Some(write_timeout));
    while let Ok(out) = rx.recv() {
        let frame = match out {
            Outgoing::Ready(frame) => frame,
            Outgoing::Pending {
                ids,
                accepted,
                wait,
            } => {
                let frame = response_frame(ids, wait());
                in_flight.fetch_sub(1, Ordering::AcqRel);
                simpim_obs::metrics::histogram_record_exemplar(
                    "simpim.net.server.service_ns",
                    accepted.elapsed().as_nanos() as u64,
                    ids.1,
                );
                frame
            }
        };
        // A write timeout here is the slow-reader path: the client's
        // receive window is full and stayed full for `write_timeout`.
        // Partial frames cannot be resumed, so the connection dies.
        if let Err(_e) = w.write_all(&frame) {
            counters.transport_errors.fetch_add(1, Ordering::Relaxed);
            simpim_obs::metrics::counter_add("simpim.net.server.transport_errors", 1);
            conn_dead.store(true, Ordering::SeqCst);
            break;
        }
        counters.frames_tx.fetch_add(1, Ordering::Relaxed);
        counters
            .bytes_tx
            .fetch_add(frame.len().saturating_sub(4) as u64, Ordering::Relaxed);
    }
    // Connection is closing: drop (and so abandon the reply of) whatever
    // is still queued so in-flight accounting ends balanced.
    while let Ok(out) = rx.try_recv() {
        if let Outgoing::Pending { .. } = out {
            in_flight.fetch_sub(1, Ordering::AcqRel);
        }
    }
    let _ = w.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> NetServer {
        let rows: Vec<Vec<f64>> = (0..16).map(|i| vec![f64::from(i) / 16.0, 0.5]).collect();
        let data = simpim_similarity::Dataset::from_rows(&rows).unwrap();
        let engine = ServeEngine::open(simpim_serve::ServeConfig::default(), &data).unwrap();
        NetServer::bind("127.0.0.1:0", NetConfig::default(), engine).unwrap()
    }

    #[test]
    fn a_server_no_client_reached_shuts_down() {
        server().shutdown();
    }

    #[test]
    fn the_wake_connect_is_not_counted() {
        let mut server = server();
        let clients: Vec<TcpStream> = (0..3)
            .map(|_| TcpStream::connect(server.local_addr()).unwrap())
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().connections_accepted < 3 {
            assert!(Instant::now() < deadline, "3 connects never accepted");
            thread::sleep(Duration::from_millis(1));
        }
        server.stop_and_join();
        assert_eq!(server.stats().connections_accepted, 3);
        drop(clients);
    }

    #[test]
    fn net_config_defaults_are_sane() {
        let cfg = NetConfig::default();
        assert!(cfg.window >= 1);
        assert!(cfg.max_frame >= crate::wire::HEADER_LEN);
        assert!(cfg.write_timeout >= Duration::from_millis(1));
    }
}
