//! A blocking client for the wire protocol.
//!
//! [`Client::connect`] performs the handshake and returns a handle
//! whose methods map one-to-one onto [`Request`] variants, each
//! blocking until the matching [`Response`] arrives. Server-reported
//! failures surface as [`ClientError::Server`] carrying the typed
//! [`WireError`], so callers can distinguish a constraint violation
//! from an overload without parsing strings.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use txlog_base::Atom;
use txlog_relational::codec::CodecError;

use crate::frame::{
    read_frame_blocking, read_frame_timeout, write_frame, FrameError, ReadOutcome,
    DEFAULT_MAX_FRAME_LEN,
};
use crate::proto::{ErrorCode, Request, Response, WireError, PROTOCOL_VERSION};
use txlog_engine::db::IsolationLevel;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server's bytes were not a valid frame.
    Frame(FrameError),
    /// The frame's payload was not a valid response message.
    Decode(CodecError),
    /// The server answered with a typed error.
    Server(WireError),
    /// The server answered with a response this call did not expect.
    Protocol(String),
    /// The server closed the connection.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Frame(e) => write!(f, "bad frame from server: {e}"),
            ClientError::Decode(e) => write!(f, "bad response payload: {e}"),
            ClientError::Server(e) => write!(f, "server refused: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            ClientError::Decode(e) => Some(e),
            ClientError::Server(e) => Some(e),
            ClientError::Protocol(_) | ClientError::Disconnected => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// What the server said about itself in the handshake.
#[derive(Clone, Debug)]
pub struct ServerInfo {
    /// The protocol version the server speaks.
    pub protocol: u32,
    /// The server's configured name.
    pub server: String,
    /// The committed head version at connection time.
    pub head_version: u64,
    /// The schema's relation names.
    pub relations: Vec<String>,
}

/// A commit acknowledgment, mirroring the engine's `Commit`.
#[derive(Clone, Copy, Debug)]
pub struct RemoteCommit {
    /// The head version the commit produced.
    pub version: u64,
    /// Conflicted attempts before the successful one.
    pub retries: u32,
    /// Whether the commit installed by delta-forwarding.
    pub forwarded: bool,
}

/// One event match pushed by the server (protocol v3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Notification {
    /// The subscription name given at [`Client::subscribe`] time.
    pub name: String,
    /// The commit version the match completed at. Per subscription,
    /// notifications arrive in non-decreasing version order.
    pub version: u64,
    /// The match's variable binding, sorted by variable name.
    pub binding: Vec<(String, Atom)>,
}

/// What [`Client::next_notification`] yields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NotificationEvent {
    /// An event match.
    Match(Notification),
    /// The named subscription overflowed the server's per-connection
    /// queue and was dropped; its queued matches were discarded. The
    /// client must re-subscribe to resume.
    Overflow {
        /// The dropped subscription's name.
        name: String,
        /// The server's queue capacity (the bound that was hit).
        capacity: u64,
    },
}

/// A connected, handshaken client.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    max_frame_len: u32,
    info: ServerInfo,
    /// Server-pushed frames that arrived while waiting for a reply;
    /// drained by [`Client::next_notification`].
    pending: VecDeque<NotificationEvent>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("server", &self.info.server)
            .field("head_version", &self.info.head_version)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Connect, send the handshake, and wait for the welcome.
    pub fn connect(addr: impl ToSocketAddrs, client_name: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            buf: Vec::new(),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            info: ServerInfo {
                protocol: 0,
                server: String::new(),
                head_version: 0,
                relations: Vec::new(),
            },
            pending: VecDeque::new(),
        };
        let resp = client.roundtrip(&Request::Hello {
            protocol: PROTOCOL_VERSION,
            client: client_name.to_string(),
        })?;
        match resp {
            Response::Welcome {
                protocol,
                server,
                head_version,
                relations,
            } => {
                client.info = ServerInfo {
                    protocol,
                    server,
                    head_version,
                    relations,
                };
                Ok(client)
            }
            other => Err(unexpected("Welcome", &other)),
        }
    }

    /// What the server reported in the handshake.
    pub fn server_info(&self) -> &ServerInfo {
        &self.info
    }

    /// Send one request and read one response.
    pub fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &req.encode(), self.max_frame_len)?;
        self.read_response()
    }

    /// Read the next *reply* without sending anything — for draining
    /// replies to pipelined requests sent with [`Client::send_raw`].
    /// Server-pushed notification frames encountered on the way are
    /// stashed for [`Client::next_notification`], never returned here.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        loop {
            let resp =
                match read_frame_blocking(&mut self.stream, &mut self.buf, self.max_frame_len)? {
                    ReadOutcome::Frame(payload) => {
                        Response::decode(&payload).map_err(ClientError::Decode)?
                    }
                    ReadOutcome::Disconnected => return Err(ClientError::Disconnected),
                    ReadOutcome::Corrupt(e) => return Err(ClientError::Frame(e)),
                    ReadOutcome::IdleTimeout | ReadOutcome::Stalled => {
                        return Err(ClientError::Protocol("blocking read timed out".to_string()))
                    }
                };
            match self.stash(resp) {
                Some(reply) => return Ok(reply),
                None => continue,
            }
        }
    }

    /// Stash a pushed frame; return replies untouched.
    fn stash(&mut self, resp: Response) -> Option<Response> {
        match resp {
            Response::Notification {
                name,
                version,
                binding,
            } => {
                self.pending
                    .push_back(NotificationEvent::Match(Notification {
                        name,
                        version,
                        binding,
                    }));
                None
            }
            Response::Error(e) if e.code == ErrorCode::SubscriptionOverflow => {
                // The overflow frame names the subscription in its
                // message and carries the queue bound in the detail.
                self.pending.push_back(NotificationEvent::Overflow {
                    name: e.message,
                    capacity: e.detail,
                });
                None
            }
            other => Some(other),
        }
    }

    /// Write raw bytes to the socket — the escape hatch the tests use
    /// to pipeline several frames in one write or to send deliberately
    /// corrupt ones.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Execute a transaction program. Outside a transaction block this
    /// commits; inside one it stages (and the result is the staged
    /// statement count, surfaced here as a zero-version commit).
    pub fn execute(&mut self, label: &str, program: &str) -> Result<RemoteCommit, ClientError> {
        let resp = self.roundtrip(&Request::Execute {
            label: label.to_string(),
            program: program.to_string(),
        })?;
        match resp {
            Response::Executed {
                version,
                retries,
                forwarded,
            } => Ok(RemoteCommit {
                version,
                retries,
                forwarded,
            }),
            Response::Staged { .. } => Ok(RemoteCommit {
                version: 0,
                retries: 0,
                forwarded: false,
            }),
            other => Err(unexpected("Executed or Staged", &other)),
        }
    }

    /// Evaluate an object-valued query; returns the rendered value.
    pub fn query(&mut self, expr: &str) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Query {
            expr: expr.to_string(),
        })? {
            Response::Value { text } => Ok(text),
            other => Err(unexpected("Value", &other)),
        }
    }

    /// Evaluate a truth-valued formula.
    pub fn ask(&mut self, formula: &str) -> Result<bool, ClientError> {
        match self.roundtrip(&Request::Ask {
            formula: formula.to_string(),
        })? {
            Response::Truth { value } => Ok(value),
            other => Err(unexpected("Truth", &other)),
        }
    }

    /// Render the evaluator's plan for a formula or program.
    pub fn explain(&mut self, target: &str, program: bool) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Explain {
            target: target.to_string(),
            program,
        })? {
            Response::Explained { text } => Ok(text),
            other => Err(unexpected("Explained", &other)),
        }
    }

    /// Open a multi-request transaction block at the server's default
    /// isolation level.
    pub fn begin(&mut self) -> Result<(), ClientError> {
        self.begin_at(None)
    }

    /// Open a multi-request transaction block, optionally requesting an
    /// isolation level for its session (`None` keeps the server's
    /// default).
    pub fn begin_at(&mut self, isolation: Option<IsolationLevel>) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Begin { isolation })? {
            Response::Begun => Ok(()),
            other => Err(unexpected("Begun", &other)),
        }
    }

    /// Commit the open transaction block.
    pub fn commit(&mut self, label: &str) -> Result<RemoteCommit, ClientError> {
        match self.roundtrip(&Request::Commit {
            label: label.to_string(),
        })? {
            Response::Committed {
                version,
                retries,
                forwarded,
            } => Ok(RemoteCommit {
                version,
                retries,
                forwarded,
            }),
            other => Err(unexpected("Committed", &other)),
        }
    }

    /// Abort the open transaction block; returns how many staged
    /// statements were discarded.
    pub fn abort(&mut self) -> Result<u32, ClientError> {
        match self.roundtrip(&Request::Abort)? {
            Response::Aborted { discarded } => Ok(discarded),
            other => Err(unexpected("Aborted", &other)),
        }
    }

    /// Render the connection's current view of the database.
    pub fn show_state(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::ShowState)? {
            Response::State { text } => Ok(text),
            other => Err(unexpected("State", &other)),
        }
    }

    /// The server's metrics snapshot as JSON.
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics { json } => Ok(json),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Ask the server to drain and shut down.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }

    /// Register an event-pattern subscription (protocol v3). Matches
    /// from every later commit arrive as pushed frames; collect them
    /// with [`Client::next_notification`].
    pub fn subscribe(&mut self, name: &str, pattern: &str) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Subscribe {
            name: name.to_string(),
            pattern: pattern.to_string(),
        })? {
            Response::Subscribed { .. } => Ok(()),
            other => Err(unexpected("Subscribed", &other)),
        }
    }

    /// Drop a subscription by name. Matches already pushed (or already
    /// queued server-side) may still arrive afterwards.
    pub fn unsubscribe(&mut self, name: &str) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Unsubscribe {
            name: name.to_string(),
        })? {
            Response::Unsubscribed { .. } => Ok(()),
            other => Err(unexpected("Unsubscribed", &other)),
        }
    }

    /// The next pushed notification event: one already stashed while
    /// reading replies, or one read off the socket within `timeout`.
    /// `Ok(None)` means the timeout elapsed with nothing pushed.
    pub fn next_notification(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<NotificationEvent>, ClientError> {
        loop {
            if let Some(ev) = self.pending.pop_front() {
                return Ok(Some(ev));
            }
            let outcome = read_frame_timeout(
                &self.stream,
                &mut self.buf,
                timeout,
                timeout,
                self.max_frame_len,
                &|| false,
            )
            .map_err(ClientError::Io)?;
            let resp = match outcome {
                ReadOutcome::Frame(payload) => {
                    Response::decode(&payload).map_err(ClientError::Decode)?
                }
                ReadOutcome::IdleTimeout | ReadOutcome::Stalled => return Ok(None),
                ReadOutcome::Disconnected => return Err(ClientError::Disconnected),
                ReadOutcome::Corrupt(e) => return Err(ClientError::Frame(e)),
            };
            if let Some(reply) = self.stash(resp) {
                // A non-pushed frame with no request outstanding — a
                // drain Goodbye is expected protocol, anything else is
                // the server talking out of turn.
                return match reply {
                    Response::Goodbye { .. } => Err(ClientError::Disconnected),
                    other => Err(unexpected("Notification", &other)),
                };
            }
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    match got {
        Response::Error(e) => ClientError::Server(e.clone()),
        other => ClientError::Protocol(format!("expected {wanted}, got {other:?}")),
    }
}
