//! Typed request/response messages and the wire error vocabulary.
//!
//! Payloads are encoded with the same canonical little-endian codec the
//! durability layer uses ([`txlog_relational::codec`]): one message-tag
//! byte, then the fields in order, strings length-prefixed. Decoding is
//! total — any byte sequence yields either a message or a typed
//! [`CodecError`], never a panic — and [`Decoder::finish`] rejects
//! trailing bytes, so a frame is exactly one message.
//!
//! The error vocabulary ([`ErrorCode`]) is deliberately wider than
//! `CommitError`: it also names the failures that only exist at the
//! wire (handshake problems, undecodable payloads, admission-control
//! rejections, a draining server). The mapping from [`CommitError`] is
//! lossless: each variant gets its own code, and the variant's numeric
//! payload (head version raced against, attempts spent, queue capacity)
//! rides in [`WireError::detail`].

use txlog_base::Atom;
use txlog_engine::db::{CommitError, IsolationLevel};
use txlog_relational::codec::{CodecError, Decoder, Encoder};

/// The protocol version this build speaks. Version 2 added the
/// optional isolation field on [`Request::Begin`] and the
/// [`ErrorCode::SerializationFailure`] code. Version 3 adds event
/// subscriptions: [`Request::Subscribe`]/[`Request::Unsubscribe`], the
/// [`Response::Subscribed`]/[`Response::Unsubscribed`] acknowledgements,
/// the server-pushed [`Response::Notification`] frame, and the
/// [`ErrorCode::SubscriptionOverflow`] code. Every client lives in
/// this repository, so the server speaks exactly this version: a
/// [`Request::Hello`] carrying any other is refused with
/// [`ErrorCode::Protocol`] — the handshake is how both sides find out
/// before any state changes hands.
pub const PROTOCOL_VERSION: u32 = 3;

/// Wire encoding of an isolation level (one byte, stable).
fn isolation_to_u8(level: IsolationLevel) -> u8 {
    match level {
        IsolationLevel::ReadCommitted => 0,
        IsolationLevel::Snapshot => 1,
        IsolationLevel::Serializable => 2,
    }
}

fn isolation_from_u8(b: u8) -> Option<IsolationLevel> {
    Some(match b {
        0 => IsolationLevel::ReadCommitted,
        1 => IsolationLevel::Snapshot,
        2 => IsolationLevel::Serializable,
        _ => return None,
    })
}

// Request tags.
const REQ_HELLO: u8 = 0;
const REQ_EXECUTE: u8 = 1;
const REQ_QUERY: u8 = 2;
const REQ_ASK: u8 = 3;
const REQ_EXPLAIN: u8 = 4;
const REQ_BEGIN: u8 = 5;
const REQ_COMMIT: u8 = 6;
const REQ_ABORT: u8 = 7;
const REQ_SHOW_STATE: u8 = 8;
const REQ_METRICS: u8 = 9;
const REQ_SHUTDOWN: u8 = 10;
const REQ_SUBSCRIBE: u8 = 11;
const REQ_UNSUBSCRIBE: u8 = 12;

// Response tags.
const RESP_WELCOME: u8 = 0;
const RESP_EXECUTED: u8 = 1;
const RESP_STAGED: u8 = 2;
const RESP_VALUE: u8 = 3;
const RESP_TRUTH: u8 = 4;
const RESP_EXPLAINED: u8 = 5;
const RESP_STATE: u8 = 6;
const RESP_METRICS: u8 = 7;
const RESP_BEGUN: u8 = 8;
const RESP_COMMITTED: u8 = 9;
const RESP_ABORTED: u8 = 10;
const RESP_SHUTTING_DOWN: u8 = 11;
const RESP_GOODBYE: u8 = 12;
const RESP_ERROR: u8 = 13;
const RESP_SUBSCRIBED: u8 = 14;
const RESP_UNSUBSCRIBED: u8 = 15;
const RESP_NOTIFICATION: u8 = 16;

/// A client-to-server message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// The handshake, required as the first frame on every connection.
    Hello {
        /// The protocol version the client speaks ([`PROTOCOL_VERSION`]).
        protocol: u32,
        /// Client name, for diagnostics.
        client: String,
    },
    /// Execute a transaction program (source text, parsed server-side).
    /// Outside a [`Request::Begin`] block the program commits
    /// immediately; inside one it is staged onto the open transaction.
    Execute {
        /// Commit label recorded in the history and the WAL.
        label: String,
        /// The f-term source.
        program: String,
    },
    /// Evaluate an object-valued query at the current view.
    Query {
        /// The f-term source.
        expr: String,
    },
    /// Evaluate a truth-valued formula at the current view.
    Ask {
        /// The f-formula source.
        formula: String,
    },
    /// Render the evaluator's plan for a formula or a program.
    Explain {
        /// The source text.
        target: String,
        /// True to explain a transaction program, false a formula.
        program: bool,
    },
    /// Open a multi-request transaction: subsequent `Execute`s stage
    /// instead of committing, and `Query`/`Ask`/`ShowState` read the
    /// staged state, until `Commit` or `Abort`.
    Begin {
        /// Isolation level for the block's session. `None` means the
        /// server's default — Snapshot.
        isolation: Option<IsolationLevel>,
    },
    /// Commit the staged statements as one transaction, in one attempt:
    /// a refused commit closes the block, to be re-run from `Begin`.
    Commit {
        /// Commit label for the composed transaction.
        label: String,
    },
    /// Discard the staged statements.
    Abort,
    /// Render the connection's current view of the database state.
    ShowState,
    /// A JSON snapshot of the server's metrics registry.
    Metrics,
    /// Ask the server to drain and shut down gracefully.
    Shutdown,
    /// Register an event-pattern subscription (protocol v3). Matches
    /// arrive as server-pushed [`Response::Notification`] frames,
    /// version-ordered, interleaved with this connection's replies.
    Subscribe {
        /// Subscription name, unique per connection; also the
        /// database-side pattern registry name (prefixed per
        /// connection), echoed on every notification.
        name: String,
        /// The pattern in text form (see the events crate's grammar,
        /// e.g. `seq(delete(EMP, N, _), insert(EMP, N, _))`).
        pattern: String,
    },
    /// Drop a subscription by name (protocol v3). Frames already
    /// queued may still arrive before the acknowledgement.
    Unsubscribe {
        /// The name given at [`Request::Subscribe`] time.
        name: String,
    },
}

/// A server-to-client message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// Successful handshake.
    Welcome {
        /// The protocol version the server speaks.
        protocol: u32,
        /// Server name, for diagnostics.
        server: String,
        /// The committed head version at connection time.
        head_version: u64,
        /// The schema's relation names, oldest declaration first.
        relations: Vec<String>,
    },
    /// An autocommit `Execute` installed.
    Executed {
        /// The head version the commit produced.
        version: u64,
        /// Conflicted attempts before the successful one.
        retries: u32,
        /// Whether the commit installed by delta-forwarding.
        forwarded: bool,
    },
    /// An `Execute` inside a `Begin` block staged.
    Staged {
        /// Statements staged so far in the open transaction.
        statements: u32,
    },
    /// A query result, rendered.
    Value {
        /// The rendered value.
        text: String,
    },
    /// A truth verdict.
    Truth {
        /// The verdict.
        value: bool,
    },
    /// An explain tree, rendered.
    Explained {
        /// The rendered tree.
        text: String,
    },
    /// The connection's current state view, rendered.
    State {
        /// The rendered state.
        text: String,
    },
    /// The metrics snapshot.
    Metrics {
        /// Counters-and-histograms JSON (deterministic form).
        json: String,
    },
    /// A transaction block is open.
    Begun,
    /// The staged transaction committed.
    Committed {
        /// The head version the commit produced.
        version: u64,
        /// Always 0: a block commit makes one attempt and never retries.
        retries: u32,
        /// Whether the commit installed by delta-forwarding.
        forwarded: bool,
    },
    /// The staged transaction was discarded.
    Aborted {
        /// How many staged statements were discarded.
        discarded: u32,
    },
    /// Shutdown acknowledged; the server is draining.
    ShuttingDown,
    /// The server is closing this connection cleanly.
    Goodbye {
        /// Why (idle timeout, server drain, …).
        reason: String,
    },
    /// The request failed; the connection stays usable unless the
    /// error says otherwise.
    Error(WireError),
    /// A subscription is registered (protocol v3).
    Subscribed {
        /// The subscription name, echoed.
        name: String,
    },
    /// A subscription was dropped (protocol v3).
    Unsubscribed {
        /// The subscription name, echoed.
        name: String,
    },
    /// A server-pushed event match (protocol v3). Not a reply: it may
    /// arrive between a request and its response, and clients must
    /// stash it (see `Client::next_notification`). Per subscription,
    /// notifications arrive in non-decreasing `version` order.
    Notification {
        /// The subscription name given at subscribe time.
        name: String,
        /// The commit version the match completed at.
        version: u64,
        /// The match's variable binding, sorted by variable name.
        binding: Vec<(String, Atom)>,
    },
}

/// Machine-readable failure categories carried on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ErrorCode {
    /// Handshake violation: missing/duplicate Hello, version mismatch.
    Protocol = 0,
    /// The frame or payload could not be decoded.
    Decode = 1,
    /// The request's source text did not parse.
    Parse = 2,
    /// The transaction or query failed to evaluate.
    Execution = 3,
    /// A registered constraint rejected the commit; the message names
    /// the constraint.
    ConstraintViolation = 4,
    /// The commit raced a conflicting commit; `detail` is the head
    /// version it raced against.
    Conflict = 5,
    /// Every retry permitted by the server's policy conflicted;
    /// `detail` is the attempts spent.
    RetriesExhausted = 6,
    /// The commit pipeline's log submission queue was full; `detail`
    /// is the queue capacity. Back off and retry.
    Overload = 7,
    /// Admission control refused the connection; `detail` is the
    /// connection cap.
    TooManyConnections = 8,
    /// The write-ahead log could not persist the commit.
    Durability = 9,
    /// The server is draining and no longer takes requests.
    Unavailable = 10,
    /// The request contradicts the session state (e.g. `Commit`
    /// without `Begin`).
    BadState = 11,
    /// A serializable commit's read-set certification failed; `detail`
    /// is the head version whose concurrent deltas intersected the
    /// session's reads. The transaction must be re-run from scratch.
    SerializationFailure = 12,
    /// The connection's notification queue overflowed: the subscription
    /// named in the message was dropped (its pending frames discarded)
    /// because the client was not draining pushed frames fast enough.
    /// `detail` is the queue capacity. Re-subscribe to resume.
    SubscriptionOverflow = 13,
}

impl ErrorCode {
    /// Decode a wire byte back into a code (`None` for bytes outside
    /// the vocabulary).
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            0 => ErrorCode::Protocol,
            1 => ErrorCode::Decode,
            2 => ErrorCode::Parse,
            3 => ErrorCode::Execution,
            4 => ErrorCode::ConstraintViolation,
            5 => ErrorCode::Conflict,
            6 => ErrorCode::RetriesExhausted,
            7 => ErrorCode::Overload,
            8 => ErrorCode::TooManyConnections,
            9 => ErrorCode::Durability,
            10 => ErrorCode::Unavailable,
            11 => ErrorCode::BadState,
            12 => ErrorCode::SerializationFailure,
            13 => ErrorCode::SubscriptionOverflow,
            _ => return None,
        })
    }

    /// Stable name, used in rendered errors.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Decode => "decode",
            ErrorCode::Parse => "parse",
            ErrorCode::Execution => "execution",
            ErrorCode::ConstraintViolation => "constraint-violation",
            ErrorCode::Conflict => "conflict",
            ErrorCode::RetriesExhausted => "retries-exhausted",
            ErrorCode::Overload => "overload",
            ErrorCode::TooManyConnections => "too-many-connections",
            ErrorCode::Durability => "durability",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::BadState => "bad-state",
            ErrorCode::SerializationFailure => "serialization-failure",
            ErrorCode::SubscriptionOverflow => "subscription-overflow",
        }
    }
}

/// A typed error as it travels on the wire: a category, a human
/// message, and one numeric detail whose meaning the category fixes
/// (see [`ErrorCode`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireError {
    /// The failure category.
    pub code: ErrorCode,
    /// Human-readable description (for `ConstraintViolation`, exactly
    /// the constraint name).
    pub message: String,
    /// Category-specific numeric payload (0 when the category has
    /// none).
    pub detail: u64,
}

impl WireError {
    /// A wire error with no numeric detail.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
            detail: 0,
        }
    }

    /// Attach the category's numeric payload.
    pub fn with_detail(mut self, detail: u64) -> WireError {
        self.detail = detail;
        self
    }

    /// The lossless mapping from the commit pipeline's error surface:
    /// every [`CommitError`] variant gets a distinct [`ErrorCode`], and
    /// the variant's numeric field rides in `detail`.
    pub fn from_commit(e: &CommitError) -> WireError {
        match e {
            CommitError::Conflict { head_version } => {
                WireError::new(ErrorCode::Conflict, e.to_string()).with_detail(*head_version)
            }
            CommitError::ConstraintViolation { constraint } => {
                WireError::new(ErrorCode::ConstraintViolation, constraint.clone())
            }
            CommitError::RetriesExhausted { attempts } => {
                WireError::new(ErrorCode::RetriesExhausted, e.to_string())
                    .with_detail(u64::from(*attempts))
            }
            CommitError::Execution(inner) => {
                WireError::new(ErrorCode::Execution, inner.to_string())
            }
            CommitError::Overload { capacity } => {
                WireError::new(ErrorCode::Overload, e.to_string()).with_detail(*capacity as u64)
            }
            CommitError::Durability(inner) => {
                WireError::new(ErrorCode::Durability, inner.to_string())
            }
            CommitError::SerializationFailure { head_version } => {
                WireError::new(ErrorCode::SerializationFailure, e.to_string())
                    .with_detail(*head_version)
            }
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} error: {}", self.code.name(), self.message)?;
        if self.detail != 0 {
            write!(f, " (detail {})", self.detail)?;
        }
        Ok(())
    }
}

impl std::error::Error for WireError {}

fn enc_str_vec(e: &mut Encoder, v: &[String]) {
    e.u32(u32::try_from(v.len()).unwrap_or(u32::MAX));
    for s in v {
        e.str(s);
    }
}

fn dec_str_vec(d: &mut Decoder<'_>) -> Result<Vec<String>, CodecError> {
    let n = d.u32("string count")?;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(d.str("string item")?.to_string());
    }
    Ok(out)
}

fn dec_bool(d: &mut Decoder<'_>, what: &'static str) -> Result<bool, CodecError> {
    Ok(d.u8(what)? != 0)
}

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Request::Hello { protocol, client } => {
                e.u8(REQ_HELLO);
                e.u32(*protocol);
                e.str(client);
            }
            Request::Execute { label, program } => {
                e.u8(REQ_EXECUTE);
                e.str(label);
                e.str(program);
            }
            Request::Query { expr } => {
                e.u8(REQ_QUERY);
                e.str(expr);
            }
            Request::Ask { formula } => {
                e.u8(REQ_ASK);
                e.str(formula);
            }
            Request::Explain { target, program } => {
                e.u8(REQ_EXPLAIN);
                e.str(target);
                e.u8(u8::from(*program));
            }
            Request::Begin { isolation } => {
                e.u8(REQ_BEGIN);
                // the field is trailing and optional: a bare tag is a
                // Begin at the server default
                if let Some(level) = isolation {
                    e.u8(isolation_to_u8(*level));
                }
            }
            Request::Commit { label } => {
                e.u8(REQ_COMMIT);
                e.str(label);
            }
            Request::Abort => e.u8(REQ_ABORT),
            Request::ShowState => e.u8(REQ_SHOW_STATE),
            Request::Metrics => e.u8(REQ_METRICS),
            Request::Shutdown => e.u8(REQ_SHUTDOWN),
            Request::Subscribe { name, pattern } => {
                e.u8(REQ_SUBSCRIBE);
                e.str(name);
                e.str(pattern);
            }
            Request::Unsubscribe { name } => {
                e.u8(REQ_UNSUBSCRIBE);
                e.str(name);
            }
        }
        e.finish()
    }

    /// Decode a frame payload. Total: typed errors, no panics, no
    /// trailing bytes accepted.
    pub fn decode(payload: &[u8]) -> Result<Request, CodecError> {
        let mut d = Decoder::new(payload);
        let tag = d.u8("request tag")?;
        let req = match tag {
            REQ_HELLO => Request::Hello {
                protocol: d.u32("hello protocol")?,
                client: d.str("hello client")?.to_string(),
            },
            REQ_EXECUTE => Request::Execute {
                label: d.str("execute label")?.to_string(),
                program: d.str("execute program")?.to_string(),
            },
            REQ_QUERY => Request::Query {
                expr: d.str("query expr")?.to_string(),
            },
            REQ_ASK => Request::Ask {
                formula: d.str("ask formula")?.to_string(),
            },
            REQ_EXPLAIN => Request::Explain {
                target: d.str("explain target")?.to_string(),
                program: dec_bool(&mut d, "explain kind")?,
            },
            REQ_BEGIN => Request::Begin {
                isolation: if d.is_empty() {
                    None
                } else {
                    let b = d.u8("begin isolation")?;
                    Some(isolation_from_u8(b).ok_or(CodecError::BadTag {
                        offset: 1,
                        tag: b,
                        what: "begin isolation",
                    })?)
                },
            },
            REQ_COMMIT => Request::Commit {
                label: d.str("commit label")?.to_string(),
            },
            REQ_ABORT => Request::Abort,
            REQ_SHOW_STATE => Request::ShowState,
            REQ_METRICS => Request::Metrics,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_SUBSCRIBE => Request::Subscribe {
                name: d.str("subscribe name")?.to_string(),
                pattern: d.str("subscribe pattern")?.to_string(),
            },
            REQ_UNSUBSCRIBE => Request::Unsubscribe {
                name: d.str("unsubscribe name")?.to_string(),
            },
            other => {
                return Err(CodecError::BadTag {
                    offset: 0,
                    tag: other,
                    what: "request tag",
                })
            }
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Response::Welcome {
                protocol,
                server,
                head_version,
                relations,
            } => {
                e.u8(RESP_WELCOME);
                e.u32(*protocol);
                e.str(server);
                e.u64(*head_version);
                enc_str_vec(&mut e, relations);
            }
            Response::Executed {
                version,
                retries,
                forwarded,
            } => {
                e.u8(RESP_EXECUTED);
                e.u64(*version);
                e.u32(*retries);
                e.u8(u8::from(*forwarded));
            }
            Response::Staged { statements } => {
                e.u8(RESP_STAGED);
                e.u32(*statements);
            }
            Response::Value { text } => {
                e.u8(RESP_VALUE);
                e.str(text);
            }
            Response::Truth { value } => {
                e.u8(RESP_TRUTH);
                e.u8(u8::from(*value));
            }
            Response::Explained { text } => {
                e.u8(RESP_EXPLAINED);
                e.str(text);
            }
            Response::State { text } => {
                e.u8(RESP_STATE);
                e.str(text);
            }
            Response::Metrics { json } => {
                e.u8(RESP_METRICS);
                e.str(json);
            }
            Response::Begun => e.u8(RESP_BEGUN),
            Response::Committed {
                version,
                retries,
                forwarded,
            } => {
                e.u8(RESP_COMMITTED);
                e.u64(*version);
                e.u32(*retries);
                e.u8(u8::from(*forwarded));
            }
            Response::Aborted { discarded } => {
                e.u8(RESP_ABORTED);
                e.u32(*discarded);
            }
            Response::ShuttingDown => e.u8(RESP_SHUTTING_DOWN),
            Response::Goodbye { reason } => {
                e.u8(RESP_GOODBYE);
                e.str(reason);
            }
            Response::Error(err) => {
                e.u8(RESP_ERROR);
                e.u8(err.code as u8);
                e.str(&err.message);
                e.u64(err.detail);
            }
            Response::Subscribed { name } => {
                e.u8(RESP_SUBSCRIBED);
                e.str(name);
            }
            Response::Unsubscribed { name } => {
                e.u8(RESP_UNSUBSCRIBED);
                e.str(name);
            }
            Response::Notification {
                name,
                version,
                binding,
            } => {
                e.u8(RESP_NOTIFICATION);
                e.str(name);
                e.u64(*version);
                e.u32(u32::try_from(binding.len()).unwrap_or(u32::MAX));
                for (var, atom) in binding {
                    e.str(var);
                    e.atom(*atom);
                }
            }
        }
        e.finish()
    }

    /// Decode a frame payload. Total: typed errors, no panics, no
    /// trailing bytes accepted.
    pub fn decode(payload: &[u8]) -> Result<Response, CodecError> {
        let mut d = Decoder::new(payload);
        let tag = d.u8("response tag")?;
        let resp = match tag {
            RESP_WELCOME => Response::Welcome {
                protocol: d.u32("welcome protocol")?,
                server: d.str("welcome server")?.to_string(),
                head_version: d.u64("welcome head version")?,
                relations: dec_str_vec(&mut d)?,
            },
            RESP_EXECUTED => Response::Executed {
                version: d.u64("executed version")?,
                retries: d.u32("executed retries")?,
                forwarded: dec_bool(&mut d, "executed forwarded")?,
            },
            RESP_STAGED => Response::Staged {
                statements: d.u32("staged count")?,
            },
            RESP_VALUE => Response::Value {
                text: d.str("value text")?.to_string(),
            },
            RESP_TRUTH => Response::Truth {
                value: dec_bool(&mut d, "truth value")?,
            },
            RESP_EXPLAINED => Response::Explained {
                text: d.str("explained text")?.to_string(),
            },
            RESP_STATE => Response::State {
                text: d.str("state text")?.to_string(),
            },
            RESP_METRICS => Response::Metrics {
                json: d.str("metrics json")?.to_string(),
            },
            RESP_BEGUN => Response::Begun,
            RESP_COMMITTED => Response::Committed {
                version: d.u64("committed version")?,
                retries: d.u32("committed retries")?,
                forwarded: dec_bool(&mut d, "committed forwarded")?,
            },
            RESP_ABORTED => Response::Aborted {
                discarded: d.u32("aborted count")?,
            },
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_GOODBYE => Response::Goodbye {
                reason: d.str("goodbye reason")?.to_string(),
            },
            RESP_ERROR => {
                let code_byte = d.u8("error code")?;
                let code = ErrorCode::from_u8(code_byte).ok_or(CodecError::BadTag {
                    offset: 1,
                    tag: code_byte,
                    what: "error code",
                })?;
                Response::Error(WireError {
                    code,
                    message: d.str("error message")?.to_string(),
                    detail: d.u64("error detail")?,
                })
            }
            RESP_SUBSCRIBED => Response::Subscribed {
                name: d.str("subscribed name")?.to_string(),
            },
            RESP_UNSUBSCRIBED => Response::Unsubscribed {
                name: d.str("unsubscribed name")?.to_string(),
            },
            RESP_NOTIFICATION => {
                let name = d.str("notification name")?.to_string();
                let version = d.u64("notification version")?;
                let n = d.u32("notification binding count")?;
                let mut binding = Vec::new();
                for _ in 0..n {
                    let var = d.str("notification variable")?.to_string();
                    let atom = d.atom()?;
                    binding.push((var, atom));
                }
                Response::Notification {
                    name,
                    version,
                    binding,
                }
            }
            other => {
                return Err(CodecError::BadTag {
                    offset: 0,
                    tag: other,
                    what: "response tag",
                })
            }
        };
        d.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_base::TxError;
    use txlog_engine::wal::WalError;

    fn requests() -> Vec<Request> {
        vec![
            Request::Hello {
                protocol: PROTOCOL_VERSION,
                client: "t".to_string(),
            },
            Request::Execute {
                label: "hire".to_string(),
                program: "insert(tuple('ann', 500), EMP)".to_string(),
            },
            Request::Query {
                expr: "EMP".to_string(),
            },
            Request::Ask {
                formula: "exists e: 2tup . e in EMP".to_string(),
            },
            Request::Explain {
                target: "forall e: 2tup . e in EMP -> salary(e) > 0".to_string(),
                program: false,
            },
            Request::Begin { isolation: None },
            Request::Begin {
                isolation: Some(IsolationLevel::Serializable),
            },
            Request::Begin {
                isolation: Some(IsolationLevel::ReadCommitted),
            },
            Request::Commit {
                label: "batch".to_string(),
            },
            Request::Abort,
            Request::ShowState,
            Request::Metrics,
            Request::Shutdown,
            Request::Subscribe {
                name: "fires".to_string(),
                pattern: "delete(EMP, N, _, _, _, _)".to_string(),
            },
            Request::Unsubscribe {
                name: "fires".to_string(),
            },
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Welcome {
                protocol: PROTOCOL_VERSION,
                server: "s".to_string(),
                head_version: 9,
                relations: vec!["EMP".to_string(), "DEPT".to_string()],
            },
            Response::Executed {
                version: 3,
                retries: 1,
                forwarded: true,
            },
            Response::Staged { statements: 2 },
            Response::Value {
                text: "{(ann, 500)}".to_string(),
            },
            Response::Truth { value: true },
            Response::Explained {
                text: "probe EMP".to_string(),
            },
            Response::State {
                text: "EMP: 1 tuple".to_string(),
            },
            Response::Metrics {
                json: "{\"counters\":{}}".to_string(),
            },
            Response::Begun,
            Response::Committed {
                version: 4,
                retries: 0,
                forwarded: false,
            },
            Response::Aborted { discarded: 2 },
            Response::ShuttingDown,
            Response::Goodbye {
                reason: "idle".to_string(),
            },
            Response::Error(WireError::new(ErrorCode::Overload, "queue full").with_detail(8)),
            Response::Subscribed {
                name: "fires".to_string(),
            },
            Response::Unsubscribed {
                name: "fires".to_string(),
            },
            Response::Notification {
                name: "fires".to_string(),
                version: 12,
                binding: vec![
                    ("N".to_string(), Atom::str("ann")),
                    ("S".to_string(), Atom::nat(500)),
                ],
            },
            Response::Notification {
                name: "empty".to_string(),
                version: 1,
                binding: Vec::new(),
            },
            Response::Error(
                WireError::new(ErrorCode::SubscriptionOverflow, "fires").with_detail(256),
            ),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in requests() {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).expect("decodes"), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in responses() {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).expect("decodes"), resp);
        }
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        assert!(matches!(
            Request::decode(&[0xEE]),
            Err(CodecError::BadTag { .. })
        ));
        assert!(matches!(
            Response::decode(&[0xEE]),
            Err(CodecError::BadTag { .. })
        ));
        // a valid error response with an unknown code byte
        let mut e = Encoder::new();
        e.u8(RESP_ERROR);
        e.u8(0xEE);
        e.str("x");
        e.u64(0);
        assert!(matches!(
            Response::decode(&e.finish()),
            Err(CodecError::BadTag { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::Abort.encode();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(CodecError::Trailing { .. })
        ));
        // Begin takes at most one trailing isolation byte, never two
        let mut bytes = Request::Begin {
            isolation: Some(IsolationLevel::Snapshot),
        }
        .encode();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(CodecError::Trailing { .. })
        ));
    }

    #[test]
    fn isolation_levels_round_trip_on_the_wire() {
        for level in IsolationLevel::ALL {
            let req = Request::Begin {
                isolation: Some(level),
            };
            assert_eq!(Request::decode(&req.encode()).expect("decodes"), req);
        }
        // a bare tag is a Begin at the server default
        assert_eq!(
            Request::decode(&[REQ_BEGIN]).expect("bare begin decodes"),
            Request::Begin { isolation: None }
        );
        // and an unknown level byte is a typed decode error
        assert!(matches!(
            Request::decode(&[REQ_BEGIN, 9]),
            Err(CodecError::BadTag { .. })
        ));
    }

    /// Every `CommitError` variant maps to a distinct wire code and
    /// keeps its numeric payload — the lossless-mapping contract.
    #[test]
    fn commit_error_mapping_is_lossless_per_variant() {
        let conflict = WireError::from_commit(&CommitError::Conflict { head_version: 42 });
        assert_eq!(conflict.code, ErrorCode::Conflict);
        assert_eq!(conflict.detail, 42);

        let violated = WireError::from_commit(&CommitError::ConstraintViolation {
            constraint: "salary-cap".to_string(),
        });
        assert_eq!(violated.code, ErrorCode::ConstraintViolation);
        assert_eq!(violated.message, "salary-cap");

        let exhausted = WireError::from_commit(&CommitError::RetriesExhausted { attempts: 9 });
        assert_eq!(exhausted.code, ErrorCode::RetriesExhausted);
        assert_eq!(exhausted.detail, 9);

        let execution = WireError::from_commit(&CommitError::Execution(TxError::eval("div0")));
        assert_eq!(execution.code, ErrorCode::Execution);
        assert!(execution.message.contains("div0"));

        let overload = WireError::from_commit(&CommitError::Overload { capacity: 1024 });
        assert_eq!(overload.code, ErrorCode::Overload);
        assert_eq!(overload.detail, 1024);

        let durability = WireError::from_commit(&CommitError::Durability(WalError::Poisoned {
            detail: "fsync failed".to_string(),
        }));
        assert_eq!(durability.code, ErrorCode::Durability);
        assert!(durability.message.contains("fsync failed"));

        let serialization =
            WireError::from_commit(&CommitError::SerializationFailure { head_version: 17 });
        assert_eq!(serialization.code, ErrorCode::SerializationFailure);
        assert_eq!(serialization.detail, 17);

        // distinctness: seven variants, seven codes
        let codes = [
            conflict.code,
            violated.code,
            exhausted.code,
            execution.code,
            overload.code,
            durability.code,
            serialization.code,
        ];
        for (i, a) in codes.iter().enumerate() {
            for b in codes.iter().skip(i + 1) {
                assert_ne!(a, b, "commit-error codes must be distinct");
            }
        }
        // and each survives an encode/decode round trip
        for err in [
            conflict,
            violated,
            exhausted,
            execution,
            overload,
            durability,
            serialization,
        ] {
            let resp = Response::Error(err.clone());
            match Response::decode(&resp.encode()).expect("decodes") {
                Response::Error(back) => assert_eq!(back, err),
                other => panic!("expected an error response, got {other:?}"),
            }
        }
    }
}
