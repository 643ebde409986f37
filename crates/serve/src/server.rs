//! The bounded accept/worker machinery.
//!
//! One acceptor thread pulls connections off the listener and pushes
//! them into a **bounded** `sync_channel`; a fixed pool of worker
//! threads drains it. The two overload responses are explicit:
//!
//! * queue full → the *acceptor* writes an immediate `503`
//!   (`Connection: close`) and closes the connection
//!   (`caf.serve.shed`), so a burst degrades to fast rejections instead
//!   of unbounded queueing or accept-backlog timeouts;
//! * a single worker stuck on a slow client is bounded by per-socket
//!   read/write timeouts.
//!
//! Connections are persistent (HTTP/1.1 keep-alive): a worker serves a
//! connection's requests in a loop, and a warm request pays no TCP
//! connect. The last response says `Connection: close` when the client
//! asked for it (`Connection: close` or HTTP/1.0), the request failed
//! to parse, the response shuts the server down, the connection reached
//! `MAX_REQUESTS_PER_CONNECTION`, or another connection is waiting in
//! the accept queue — so a busy kept-alive client cannot starve queued
//! ones. Between requests the worker waits in `IDLE_SLICE` read
//! timeouts and gives the idle connection up as soon as the queue is
//! non-empty, shutdown has begun, or `IDLE_TIMEOUT` has passed: an
//! idle socket never pins a worker for long. A clean EOF before a
//! request's first byte closes the connection silently.
//!
//! Shutdown is cooperative: any handler response with
//! `shutdown = true` (the `/quitquitquit` endpoint), or an external
//! [`ShutdownHandle::trigger`], flips the shared flag; the acceptor is
//! unblocked with a loopback connection, drops the channel sender, and
//! the workers drop their idle connections, drain whatever was already
//! queued and exit. `join` returns only after every thread has exited,
//! so a clean process exit proves no thread leaked — `ci.sh` gates on
//! exactly that.

use crate::http::{parse_request, Request, Response};
use caf_obs::{FlightRecorder, TraceCtx, TraceId};
use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest a kept-alive connection may sit idle between requests.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Read-timeout slice of the idle wait: how long a queued connection
/// or a shutdown can wait for a worker parked on an idle socket.
const IDLE_SLICE: Duration = Duration::from_millis(5);

/// Requests served on one connection before the server closes it.
const MAX_REQUESTS_PER_CONNECTION: u64 = 1000;

/// Sizing and limits for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads draining the accept queue.
    pub workers: usize,
    /// Accept-queue depth; connections beyond it are shed with `503`.
    pub queue: usize,
    /// Per-socket read/write timeout (slow-client bound).
    pub io_timeout: Duration,
    /// Seed for deterministic request IDs: the first request on the
    /// `seq`-th accepted connection gets `TraceId::derive(trace_seed,
    /// seq)`, and its `i`-th later request `TraceId::derive(first, i)`,
    /// echoed as `X-Request-Id` on every response.
    pub trace_seed: u64,
    /// Where finished request traces land (`/v1/debug/traces` reads the
    /// same recorder). `None` keeps IDs but records no traces.
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 64,
            io_timeout: Duration::from_secs(10),
            trace_seed: 0,
            recorder: None,
        }
    }
}

/// Routes one parsed request to a response. Implemented by
/// [`crate::App`] in production and by closures in tests.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for `request`.
    fn handle(&self, request: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, request: &Request) -> Response {
        self(request)
    }
}

/// Triggers graceful shutdown from another thread (or from the worker
/// that served `/quitquitquit`).
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Flips the shutdown flag and unblocks the acceptor with a
    /// throwaway loopback connection. Idempotent.
    pub fn trigger(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return;
        }
        // The dummy connection is closed immediately; if a worker
        // drains it, the clean EOF closes it without a response.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server: acceptor + workers, plus the bound address.
pub struct Server {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts the acceptor and worker threads.
    pub fn start(config: ServeConfig, handler: Arc<dyn Handler>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let flag = Arc::new(AtomicBool::new(false));
        let shutdown = ShutdownHandle {
            flag: Arc::clone(&flag),
            addr,
        };
        let workers = config.workers.max(1);
        let queue = config.queue.max(1);
        let (sender, receiver) = sync_channel::<(u64, TcpStream)>(queue);
        let receiver = Arc::new(Mutex::new(receiver));
        let depth = Arc::new(AtomicU64::new(0));
        let trace_seed = config.trace_seed;
        let recorder = config.recorder.clone();

        let acceptor = {
            let flag = Arc::clone(&flag);
            let depth = Arc::clone(&depth);
            let recorder = recorder.clone();
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || {
                    // Accept counter: request IDs are a pure function of
                    // (trace_seed, seq), so accept order fixes identity —
                    // shed connections consume a seq too.
                    let mut accept_seq: u64 = 0;
                    for stream in listener.incoming() {
                        if flag.load(Ordering::SeqCst) {
                            break;
                        }
                        let stream = match stream {
                            Ok(stream) => stream,
                            Err(_) => continue,
                        };
                        let seq = accept_seq;
                        accept_seq += 1;
                        // Count the slot before handing the stream over, so a
                        // fast worker's decrement can never race ahead of it.
                        let now = depth.fetch_add(1, Ordering::SeqCst) + 1;
                        caf_obs::gauge("caf.serve.queue.depth", now);
                        match sender.try_send((seq, stream)) {
                            Ok(()) => {}
                            Err(TrySendError::Full((seq, stream))) => {
                                depth.fetch_sub(1, Ordering::SeqCst);
                                caf_obs::count("caf.serve.shed", 1);
                                // The 503 body is written off-thread: a slow
                                // client must not stall the single acceptor
                                // during overload, which is exactly when fast
                                // shedding matters. The thread is detached but
                                // bounded by the 1 s write timeout; if spawning
                                // fails the connection is simply dropped.
                                let recorder = recorder.clone();
                                let _ = std::thread::Builder::new()
                                    .name("serve-shed".to_string())
                                    .spawn(move || {
                                        let request_id = TraceId::derive(trace_seed, seq);
                                        // Shed 503s are always kept (5xx),
                                        // so overload leaves a trail in the
                                        // flight recorder.
                                        let trace =
                                            recorder.as_deref().map(|_| TraceCtx::new(request_id));
                                        if let Some(trace) = &trace {
                                            trace.annotate("route", "shed");
                                        }
                                        let mut stream = stream;
                                        let _ =
                                            stream.set_write_timeout(Some(Duration::from_secs(1)));
                                        let _ = Response::error(503, "server accept queue is full")
                                            .with_header("X-Request-Id", request_id.to_hex())
                                            .write_to(&mut stream, false);
                                        if let (Some(recorder), Some(trace)) =
                                            (recorder.as_deref(), &trace)
                                        {
                                            recorder.finish(trace, 503, "serve.request");
                                        }
                                    });
                            }
                            Err(TrySendError::Disconnected(_)) => {
                                depth.fetch_sub(1, Ordering::SeqCst);
                                break;
                            }
                        }
                    }
                    // Dropping the sender lets workers drain the queue
                    // and observe the disconnect.
                })
                .expect("spawn acceptor thread")
        };

        let worker = Worker {
            handler,
            shutdown: shutdown.clone(),
            queued: depth,
            io_timeout: config.io_timeout,
            trace_seed,
            recorder,
        };
        let worker_handles = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let worker = worker.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || loop {
                        let next = {
                            let receiver = receiver.lock().unwrap();
                            receiver.recv()
                        };
                        let (seq, stream) = match next {
                            Ok(next) => next,
                            Err(_) => break,
                        };
                        let now = worker.queued.fetch_sub(1, Ordering::SeqCst) - 1;
                        caf_obs::gauge("caf.serve.queue.depth", now);
                        worker.serve_connection(seq, stream);
                    })
                    .expect("spawn worker thread")
            })
            .collect();

        Ok(Server {
            addr,
            shutdown,
            acceptor,
            workers: worker_handles,
        })
    }

    /// The bound socket address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can trigger shutdown from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Blocks until the acceptor and every worker have exited.
    pub fn join(self) {
        self.acceptor.join().expect("acceptor thread panicked");
        for worker in self.workers {
            worker.join().expect("worker thread panicked");
        }
    }

    /// Triggers shutdown and waits for every thread to exit.
    pub fn shutdown(self) {
        self.shutdown.trigger();
        self.join();
    }
}

/// What every worker thread shares: the handler, the shutdown handle,
/// the accept-queue depth, and the request-ID and tracing settings.
#[derive(Clone)]
struct Worker {
    handler: Arc<dyn Handler>,
    shutdown: ShutdownHandle,
    /// Connections accepted but not yet taken by a worker.
    queued: Arc<AtomicU64>,
    io_timeout: Duration,
    trace_seed: u64,
    recorder: Option<Arc<FlightRecorder>>,
}

impl Worker {
    /// Serves the `seq`-th accepted connection's requests until one of
    /// them ends it, then drops the socket.
    fn serve_connection(&self, seq: u64, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.io_timeout));
        let _ = stream.set_write_timeout(Some(self.io_timeout));
        let first_id = TraceId::derive(self.trace_seed, seq);
        // One reader for the connection's lifetime: bytes of a
        // pipelined next request stay buffered here.
        let mut reader = BufReader::new(stream);
        for index in 0..MAX_REQUESTS_PER_CONNECTION {
            let arrived = if index == 0 {
                matches!(reader.fill_buf(), Ok(buf) if !buf.is_empty())
            } else {
                self.await_next_request(&mut reader)
            };
            if !arrived {
                return;
            }
            let request_id = match index {
                0 => first_id,
                _ => TraceId::derive(first_id.0, index),
            };
            let last = index + 1 == MAX_REQUESTS_PER_CONNECTION;
            if !self.serve_request(&mut reader, request_id, last) {
                return;
            }
        }
    }

    /// Waits, in `IDLE_SLICE` read timeouts, for the first byte of a
    /// kept-alive connection's next request. False — give the
    /// connection up — on EOF or a read error, or once another
    /// connection is queued, shutdown has begun or `IDLE_TIMEOUT`
    /// has passed.
    fn await_next_request(&self, reader: &mut BufReader<TcpStream>) -> bool {
        if !reader.buffer().is_empty() {
            return true;
        }
        let _ = reader.get_ref().set_read_timeout(Some(IDLE_SLICE));
        let idle_since = Instant::now();
        let arrived = loop {
            match reader.fill_buf() {
                Ok(buf) => break !buf.is_empty(),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => break false,
            }
            if self.queued.load(Ordering::SeqCst) > 0
                || self.shutdown.flag.load(Ordering::SeqCst)
                || idle_since.elapsed() >= IDLE_TIMEOUT
            {
                break false;
            }
        };
        if arrived {
            let _ = reader.get_ref().set_read_timeout(Some(self.io_timeout));
        }
        arrived
    }

    /// Reads one request whose first byte has arrived and writes its
    /// response; returns true when the connection stays open.
    ///
    /// Every response — parse errors, 405s, panic 500s included —
    /// carries `X-Request-Id: <request_id>`. With a recorder present the
    /// whole exchange runs under a `serve.request` root span inside a
    /// [`TraceCtx`], and the finished trace is filed *before* the
    /// response is written, so a client that reads its `X-Request-Id`
    /// can immediately find the trace in `/v1/debug/traces`.
    fn serve_request(
        &self,
        reader: &mut BufReader<TcpStream>,
        request_id: TraceId,
        last: bool,
    ) -> bool {
        let started = Instant::now();
        caf_obs::count("caf.serve.requests", 1);
        let trace = self.recorder.as_ref().map(|_| TraceCtx::new(request_id));
        let (response, keep_alive) = {
            let _trace_guard = trace.as_ref().map(|ctx| ctx.enter());
            let _root = caf_obs::span("serve.request");
            match parse_request(reader) {
                Ok(request) => (self.dispatch(&request, request_id), request.keep_alive),
                Err(err) => (Response::error(err.status, &err.message), false),
            }
        };
        // Closing when a connection is queued hands this worker to it
        // right after the response.
        let keep_alive = keep_alive
            && !last
            && !response.shutdown
            && self.queued.load(Ordering::SeqCst) == 0
            && !self.shutdown.flag.load(Ordering::SeqCst);
        caf_obs::count(&format!("caf.serve.http.{}", response.status), 1);
        if let (Some(recorder), Some(ctx)) = (self.recorder.as_deref(), trace.as_ref()) {
            recorder.finish(ctx, response.status, "serve.request");
        }
        let response = response.with_header("X-Request-Id", request_id.to_hex());
        let written = response.write_to(reader.get_mut(), keep_alive).is_ok();
        caf_obs::observe("caf.serve.request_us", started.elapsed().as_micros() as u64);
        if response.shutdown {
            self.shutdown.trigger();
        }
        keep_alive && written
    }

    fn dispatch(&self, request: &Request, request_id: TraceId) -> Response {
        if !matches!(request.method.as_str(), "GET" | "POST") {
            return Response::error(405, &format!("method {} not supported", request.method));
        }
        // A panicking handler must cost the client a 500, not the server
        // a worker thread: an unwound worker never returns to the recv
        // loop, and `Server::join` would panic on it. The app's shared
        // state stays coherent across an unwind (the cache's FlightGuard
        // fails the in-flight entry), so suppressing the UnwindSafe bound
        // is sound here.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.handler.handle(request)
        }))
        .unwrap_or_else(|_| {
            caf_obs::count("caf.serve.handler_panics", 1);
            eprintln!(
                "caf-serve: handler panicked serving request {}",
                request_id.to_hex()
            );
            Response::error(500, "internal error: handler panicked")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, Headers};
    use std::io::{Read, Write};
    use std::sync::mpsc;

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|request: &Request| {
            if request.path == "/quitquitquit" {
                let mut resp = Response::text("bye\n");
                resp.shutdown = true;
                resp
            } else {
                Response::text(format!("path={}\n", request.path))
            }
        })
    }

    /// A raw client connection that stays open across requests.
    struct Conn(BufReader<TcpStream>);

    impl Conn {
        fn open(addr: SocketAddr) -> Conn {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            Conn(BufReader::new(stream))
        }

        fn send(&mut self, raw: &str) {
            self.0.get_mut().write_all(raw.as_bytes()).unwrap();
        }

        fn read(&mut self) -> (u16, Headers, Vec<u8>) {
            client::read_response(&mut self.0).unwrap()
        }

        /// True when the server has closed the connection cleanly and
        /// sent nothing more.
        fn closed(&mut self) -> bool {
            let mut rest = Vec::new();
            matches!(self.0.read_to_end(&mut rest), Ok(0))
        }
    }

    fn get(path: &str) -> String {
        format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n")
    }

    fn header<'a>(headers: &'a Headers, name: &str) -> Option<&'a str> {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn serves_requests_and_shuts_down_cleanly() {
        let server = Server::start(ServeConfig::default(), echo_handler()).unwrap();
        let addr = server.addr();
        let (status, body) = client::get(addr, "/hello").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"path=/hello\n");
        let (status, _) = client::get(addr, "/quitquitquit").unwrap();
        assert_eq!(status, 200);
        server.join(); // would hang (and time the test out) on a leak
    }

    #[test]
    fn full_queue_sheds_with_503() {
        // One worker stuck on a slow handler + queue of 1: of two more
        // concurrent connections, exactly one fits the queue slot and
        // exactly one is shed. The invariant is order-free — which probe
        // queues and which sheds depends on accept order, and asserting
        // a particular victim (as this test once did, by polling the
        // global queue-depth gauge) races both the acceptor's
        // increment-before-enqueue and other tests sharing the registry.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let entered_tx = Mutex::new(entered_tx);
        let handler: Arc<dyn Handler> = Arc::new(move |_request: &Request| {
            let _ = entered_tx.lock().unwrap().send(());
            let _ = release_rx.lock().unwrap().recv();
            Response::text("slow\n")
        });
        let config = ServeConfig {
            workers: 1,
            queue: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(config, handler).unwrap();
        let addr = server.addr();

        // First request occupies the worker (handshake proves the
        // handler has actually started, so the worker cannot drain the
        // queue slot underneath the probes below).
        let first = std::thread::spawn(move || client::get(addr, "/a").unwrap());
        entered_rx.recv().unwrap();

        // Two concurrent probes race for the single queue slot. The
        // worker is blocked, so only the shed probe can finish before
        // the release — either with the 503 body, or with a connection
        // reset when the shed thread closes the socket before the
        // client drains it. Both prove the shed.
        let (result_tx, result_rx) = mpsc::channel();
        for path in ["/b", "/c"] {
            let tx = result_tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send(client::get(addr, path));
            });
        }
        match result_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("one probe must be shed while the worker is blocked")
        {
            Ok((status, body)) => {
                assert_eq!(status, 503);
                assert!(String::from_utf8(body).unwrap().contains("queue is full"));
            }
            Err(err) => assert!(err.contains("read"), "unexpected probe error: {err}"),
        }

        // Unblock the worker: the first request and the queued probe
        // both drain to 200.
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        assert_eq!(first.join().unwrap().0, 200);
        let (status, _) = result_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the queued probe must drain after release")
            .expect("the queued probe must get a clean response");
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn responses_carry_deterministic_request_ids() {
        let config = ServeConfig {
            workers: 1, // serialize accept order == serve order
            trace_seed: 0xCAF_2024,
            ..ServeConfig::default()
        };
        let server = Server::start(config, echo_handler()).unwrap();
        let addr = server.addr();
        let header = |path: &str| {
            let (_, headers, _) = client::get_full(addr, path).unwrap();
            headers
                .iter()
                .find(|(name, _)| name == "x-request-id")
                .map(|(_, value)| value.clone())
                .expect("X-Request-Id on every response")
        };
        // IDs are a pure function of (trace_seed, accept counter).
        assert_eq!(header("/a"), TraceId::derive(0xCAF_2024, 0).to_hex());
        assert_eq!(header("/b"), TraceId::derive(0xCAF_2024, 1).to_hex());
        server.shutdown();
    }

    #[test]
    fn request_ids_derive_from_connection_and_request_index() {
        let config = ServeConfig {
            workers: 1,
            trace_seed: 0xCAF_2024,
            ..ServeConfig::default()
        };
        let server = Server::start(config, echo_handler()).unwrap();
        let addr = server.addr();
        let mut conn = Conn::open(addr);
        let ids: Vec<String> = (0..3)
            .map(|_| {
                conn.send(&get("/a"));
                let (_, headers, _) = conn.read();
                header(&headers, "x-request-id").unwrap().to_string()
            })
            .collect();
        drop(conn);
        // Request 0 keeps the per-connection ID; request i derives from
        // it and i, so every ID is distinct and replayable.
        let first = TraceId::derive(0xCAF_2024, 0);
        assert_eq!(
            ids,
            [
                first.to_hex(),
                TraceId::derive(first.0, 1).to_hex(),
                TraceId::derive(first.0, 2).to_hex(),
            ]
        );
        assert_eq!(
            ids,
            ["50fa346d8476aac2", "5453969ec723e674", "6b068fd87eac5721"],
            "the derivation scheme is part of the replay contract"
        );
        // The next connection's first request is the accept counter's.
        let (_, headers, _) = client::get_full(addr, "/b").unwrap();
        assert_eq!(
            header(&headers, "x-request-id"),
            Some(TraceId::derive(0xCAF_2024, 1).to_hex().as_str())
        );
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_on_one_connection() {
        let server = Server::start(ServeConfig::default(), echo_handler()).unwrap();
        let mut conn = Conn::open(server.addr());
        for paths in [&["/a", "/b"][..], &["/c", "/d", "/e"]] {
            conn.send(&paths.iter().map(|path| get(path)).collect::<String>());
            for path in paths {
                let (status, headers, body) = conn.read();
                assert_eq!(status, 200);
                assert_eq!(body, format!("path={path}\n").into_bytes());
                assert_eq!(header(&headers, "connection"), Some("keep-alive"));
            }
        }
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn connection_close_http10_and_parse_errors_end_the_connection() {
        let server = Server::start(ServeConfig::default(), echo_handler()).unwrap();
        for (raw, status) in [
            ("GET /a HTTP/1.1\r\nConnection: close\r\n\r\n", 200),
            ("GET /a HTTP/1.0\r\n\r\n", 200),
            ("GARBAGE\r\n\r\n", 400),
        ] {
            let mut conn = Conn::open(server.addr());
            conn.send(&get("/ok"));
            assert_eq!(conn.read().0, 200);
            conn.send(raw);
            let (got, headers, _) = conn.read();
            assert_eq!(got, status, "{raw:?}");
            assert_eq!(header(&headers, "connection"), Some("close"), "{raw:?}");
            assert!(conn.closed(), "{raw:?} must end the connection");
        }
        server.shutdown();
    }

    #[test]
    fn request_cap_ends_the_connection() {
        let server = Server::start(ServeConfig::default(), echo_handler()).unwrap();
        let mut conn = Conn::open(server.addr());
        for i in 0..MAX_REQUESTS_PER_CONNECTION {
            conn.send(&get("/n"));
            let (status, headers, _) = conn.read();
            assert_eq!(status, 200);
            let expected = if i + 1 == MAX_REQUESTS_PER_CONNECTION {
                "close"
            } else {
                "keep-alive"
            };
            assert_eq!(
                header(&headers, "connection"),
                Some(expected),
                "request {i}"
            );
        }
        assert!(conn.closed());
        server.shutdown();
    }

    #[test]
    fn an_idle_connection_yields_its_worker_to_a_queued_one() {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(config, echo_handler()).unwrap();
        let addr = server.addr();
        let mut idle = Conn::open(addr);
        idle.send(&get("/a"));
        let (_, headers, _) = idle.read();
        assert_eq!(header(&headers, "connection"), Some("keep-alive"));
        // The only worker now waits on `idle`; the next connection must
        // not wait out the idle bound.
        let started = Instant::now();
        let (status, body) = client::get(addr, "/b").unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"path=/b\n"[..]));
        assert!(
            started.elapsed() < IDLE_TIMEOUT / 2,
            "queued connection waited {:?}",
            started.elapsed()
        );
        assert!(idle.closed(), "the idle connection is given up");
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_while_a_client_holds_an_idle_connection() {
        let server = Server::start(ServeConfig::default(), echo_handler()).unwrap();
        let mut idle = Conn::open(server.addr());
        idle.send(&get("/a"));
        assert_eq!(idle.read().0, 200);
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < IDLE_TIMEOUT / 2,
            "shutdown took {:?}",
            started.elapsed()
        );
        assert!(idle.closed());
    }

    #[test]
    fn traces_land_in_the_flight_recorder_before_the_response() {
        let recorder = Arc::new(FlightRecorder::new(8, u64::MAX));
        let config = ServeConfig {
            workers: 1,
            trace_seed: 7,
            recorder: Some(Arc::clone(&recorder)),
            ..ServeConfig::default()
        };
        let server = Server::start(config, echo_handler()).unwrap();
        let addr = server.addr();
        let (status, _, _) = client::get_full(addr, "/traced").unwrap();
        assert_eq!(status, 200);
        // The response was written after the trace was filed, so the
        // recorder must already hold it.
        let recent = recorder.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].id, TraceId::derive(7, 0));
        assert_eq!(recent[0].status, 200);
        server.shutdown();
    }

    #[test]
    fn external_trigger_stops_an_idle_server() {
        let server = Server::start(ServeConfig::default(), echo_handler()).unwrap();
        let handle = server.shutdown_handle();
        handle.trigger();
        handle.trigger(); // idempotent
        server.join();
    }

    #[test]
    fn panicking_handler_returns_500_and_keeps_the_worker_alive() {
        let handler: Arc<dyn Handler> = Arc::new(|request: &Request| {
            if request.path == "/boom" {
                panic!("handler exploded");
            }
            Response::text("ok\n")
        });
        let config = ServeConfig {
            workers: 1, // one worker, so survival is actually exercised
            ..ServeConfig::default()
        };
        let server = Server::start(config, handler).unwrap();
        let addr = server.addr();
        let (status, body) = client::get(addr, "/boom").unwrap();
        assert_eq!(status, 500);
        assert!(String::from_utf8(body).unwrap().contains("panicked"));
        let (status, body) = client::get(addr, "/fine").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"ok\n");
        server.shutdown(); // join would panic if the worker had died
    }

    #[test]
    fn unsupported_methods_are_rejected() {
        let server = Server::start(ServeConfig::default(), echo_handler()).unwrap();
        let addr = server.addr();
        let (status, body) =
            client::request(addr, "PUT /hello HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(status, 405);
        assert!(String::from_utf8(body).unwrap().contains("PUT"));
        // POST reaches the handler (the app layer decides per route).
        let (status, _) = client::request(addr, "POST /hello HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }
}
