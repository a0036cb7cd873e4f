//! A blocking wire-protocol client for `quickrecd`.

use crate::event::NbStream;
use crate::proto::{self, Endpoint, JobInfo, JobState, MessageAssembler, Request, Response};
use qr_common::{QrError, Result};
use std::io::ErrorKind;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// One connection to a `quickrecd` server.
pub struct Client {
    /// Either socket family, in blocking mode here (the trait only
    /// unifies the two; the daemon switches its end to nonblocking).
    stream: Box<dyn NbStream>,
    /// The same framing reader the daemon runs, fed by blocking reads.
    reader: MessageAssembler,
    /// Reassembled payloads not yet handed to a `call`.
    replies: Vec<Vec<u8>>,
}

impl Client {
    /// Connects and exchanges stream headers.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] when the endpoint is unreachable,
    /// [`QrError::Corrupt`] when the peer is not speaking the protocol.
    pub fn connect(endpoint: &Endpoint) -> Result<Client> {
        let io = |e: std::io::Error| QrError::Execution {
            detail: format!("connecting to {}: {e}", endpoint.describe()),
        };
        let stream: Box<dyn NbStream> = match endpoint {
            Endpoint::Unix(path) => Box::new(UnixStream::connect(path).map_err(io)?),
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr).map_err(io)?;
                // One request per round trip: Nagle only adds latency.
                let _ = stream.set_nodelay(true);
                Box::new(stream)
            }
        };
        let mut client = Client { stream, reader: MessageAssembler::new(), replies: Vec::new() };
        proto::write_stream_header(&mut client.stream)?;
        while !client.reader.header_done() {
            client.fill()?;
        }
        Ok(client)
    }

    /// Blocks for one `read(2)` and feeds the assembler — the client's
    /// only read path, behind the handshake and every `call`.
    fn fill(&mut self) -> Result<()> {
        let mut scratch = [0u8; 16 * 1024];
        match self.stream.read(&mut scratch) {
            Ok(0) => Err(QrError::Corrupt {
                what: "wire message".into(),
                offset: 0,
                detail: "server closed the connection mid-exchange".into(),
            }),
            Ok(n) => self.reader.feed(&scratch[..n], &mut self.replies),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(QrError::Execution { detail: format!("reading message: {e}") }),
        }
    }

    /// Connects, retrying until the server accepts or `timeout`
    /// elapses (a just-spawned daemon needs a moment to bind).
    ///
    /// # Errors
    ///
    /// Returns the last real connection error — with the attempt count
    /// and elapsed time — after the deadline, so the underlying cause
    /// (refused, missing socket file, ...) is never replaced by a bare
    /// timeout.
    pub fn connect_with_retry(endpoint: &Endpoint, timeout: Duration) -> Result<Client> {
        let started = Instant::now();
        let deadline = started + timeout;
        let mut attempts: u64 = 0;
        loop {
            attempts += 1;
            let last = match Client::connect(endpoint) {
                Ok(client) => return Ok(client),
                Err(e) => e,
            };
            if Instant::now() >= deadline {
                return Err(QrError::Execution {
                    detail: format!(
                        "giving up on {} after {attempts} attempt(s) in {:.1?}; last error: {last}",
                        endpoint.describe(),
                        started.elapsed(),
                    ),
                });
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] for transport failures,
    /// [`QrError::Corrupt`] for protocol damage (including the server
    /// hanging up mid-exchange).
    pub fn call(&mut self, request: &Request) -> Result<Response> {
        proto::write_message(&mut self.stream, &proto::encode_request(request))?;
        while self.replies.is_empty() {
            self.fill()?;
        }
        proto::decode_response(&self.replies.remove(0))
    }

    /// Round-trips a PING.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] for transport failures or any
    /// reply that is not `Pong` (including an overloaded server's
    /// `Busy` refusal).
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Busy { queued } => Err(QrError::Execution {
                detail: format!("server is saturated ({queued} queued)"),
            }),
            other => Err(QrError::Execution {
                detail: format!("unexpected PING response: {other:?}"),
            }),
        }
    }

    /// Fetches the server's metrics registry as text exposition.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] for transport failures or an
    /// unexpected reply.
    pub fn metrics(&mut self) -> Result<String> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            Response::Error { message } => Err(QrError::Execution { detail: message }),
            other => Err(QrError::Execution {
                detail: format!("unexpected METRICS response: {other:?}"),
            }),
        }
    }

    /// Runs a time-travel query against session `id`; returns the
    /// answer payload ([`qr_replay::QueryPlan`] bytes for a dry run,
    /// [`qr_replay::QueryResult`] bytes otherwise) and whether it was
    /// served from the server's idempotence cache.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] for transport failures, a server
    /// error reply, or an unexpected reply.
    pub fn query(
        &mut self,
        id: u64,
        query: qr_replay::ReplayQuery,
        dry_run: bool,
        max_events: u64,
        replay_id: u64,
    ) -> Result<(bool, Vec<u8>)> {
        match self.call(&Request::Query { id, query, dry_run, max_events, replay_id })? {
            Response::QueryAnswer { cached, payload } => Ok((cached, payload)),
            Response::Error { message } => Err(QrError::Execution { detail: message }),
            other => Err(QrError::Execution {
                detail: format!("unexpected QUERY response: {other:?}"),
            }),
        }
    }

    /// Polls JOBS until session `id` reaches a terminal state (or
    /// `timeout` elapses), returning its final row.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] on timeout or when the session
    /// disappears.
    pub fn wait_for(&mut self, id: u64, timeout: Duration) -> Result<JobInfo> {
        let deadline = Instant::now() + timeout;
        loop {
            let Response::JobList(jobs) = self.call(&Request::Jobs)? else {
                return Err(QrError::Execution { detail: "unexpected JOBS response".into() });
            };
            match jobs.into_iter().find(|j| j.id == id) {
                Some(job) if matches!(job.state, JobState::Done | JobState::Failed(_)) => {
                    return Ok(job)
                }
                Some(_) => {}
                None => {
                    return Err(QrError::Execution {
                        detail: format!("session {id} vanished from the job list"),
                    })
                }
            }
            if Instant::now() >= deadline {
                return Err(QrError::Execution {
                    detail: format!("timed out waiting for session {id}"),
                });
            }
            std::thread::sleep(Duration::from_millis(15));
        }
    }
}
