//! The `rankd` wire protocol: length-prefixed binary frames over a
//! byte stream.
//!
//! This module is the **single codec** for both sides: the server
//! ([`crate::server`]) decodes requests and encodes replies with these
//! functions, and the in-process [`crate::client::Client`] does the
//! reverse — so a frame that round-trips here round-trips on the wire.
//! The byte-level layout is specified (with a fully worked example) in
//! `docs/PROTOCOL.md`; the test suite replays the documented bytes
//! through [`decode_request`] to keep the document honest.
//!
//! ## Framing
//!
//! Every frame, in both directions, is:
//!
//! ```text
//! offset 0: u32 LE  len   — byte length of everything after this field
//! offset 4: u8      kind  — FrameKind discriminant
//! offset 5: ...     body  — len - 1 bytes, layout per kind
//! ```
//!
//! All integers are little-endian. A connection starts with a
//! [`FrameKind::Hello`] handshake carrying [`MAGIC`] and [`VERSION`];
//! requests after a successful handshake decode into typed
//! [`WireRequest`] values that map 1:1 onto the engine's
//! [`crate::Request`] builders. Malformed bodies produce a typed
//! [`WireError`] (which the server answers with a
//! [`FrameKind::Error`] frame *without* dropping the connection);
//! only unrecoverable conditions — handshake failure, an oversized
//! length prefix — close it.

use crate::op::OpKind;
use crate::store::{MutationStats, StoreStats};
use crate::telemetry::hist;
use crate::telemetry::{Histogram, Phase};
use listkit::dynamic::Edit;
use listkit::ops::Affine;
use listkit::LinkedList;
use listrank::Algorithm;
use std::io::{Read, Write};

/// Handshake magic: the bytes `"RNKD"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"RNKD");

/// Protocol version carried (and checked) in the HELLO handshake.
///
/// Version history: **1** — initial protocol. **2** — OUTPUT gained a
/// `trace_id: u64` field, and the STATS_V2 / STATS_V2_OK frame pair
/// (histogram blocks) was added. **3** — the resident-dataset plane:
/// PUT / PUT_OK, RANK_H / SCAN_H / SEGSCAN_H, DROP / DROP_OK, error
/// codes `stale_handle` and `store_full`, and the STATS_V2 `store`
/// gauge block. **4** — dynamic lists: MUTATE / MUTATE_OK (batched
/// splice / delete / append edits against a resident handle), error
/// code `bad_mutation`, and the STATS_V2 `mutate` gauge block. **5** —
/// resilience: the [`FLAG_DEADLINE`] request flag (an optional
/// per-request `deadline_ms: u64` after the flags byte in the six
/// job-bearing kinds), error codes `internal_error`,
/// `deadline_exceeded`, and `overloaded`, and the STATS_V2 `fault`
/// gauge block. **6** — pipelining and QoS: the [`FLAG_BATCH`] priority
/// flag and the [`FLAG_REQUEST_ID`] flag (an optional client-chosen
/// `request_id: u64` after the deadline field; requests carrying it
/// may overlap on one connection and are answered with
/// [`FrameKind::OutputP`] / [`FrameKind::ErrorP`] frames echoing the
/// id, in completion order), error code `quota_exceeded`, and the
/// STATS_V2 `sched` gauge + `pipeline` histogram blocks.
pub const VERSION: u16 = 6;

/// Oldest HELLO version a server accepts: v6 is the floor, so every
/// connection speaks the full flag set and no request is gated on the
/// version its connection negotiated.
pub const MIN_VERSION: u16 = 6;

/// Default cap on `len` a peer will accept (256 MiB): large enough for
/// a 10^7-vertex scan with 16-byte values, small enough that a corrupt
/// length prefix cannot trigger a multi-gigabyte allocation.
pub const MAX_FRAME_DEFAULT: u32 = 1 << 28;

/// Frame discriminants. Client→server kinds sit below `0x80`,
/// server→client kinds at or above it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client handshake: magic + version.
    Hello = 0x01,
    /// Rank request: a successor array to rank.
    Rank = 0x02,
    /// Scan request: successor array + operator + value array.
    Scan = 0x03,
    /// Segmented-scan request: scan + a packed segment-start bitmap.
    SegScan = 0x04,
    /// Metrics request (no body).
    Stats = 0x05,
    /// Ask the daemon to drain and exit (no body).
    Shutdown = 0x06,
    /// Histogram-level metrics request (no body).
    StatsV2 = 0x07,
    /// Admit a dataset into the resident store; replied with PUT_OK.
    Put = 0x08,
    /// Rank request against a resident dataset named by handle.
    RankH = 0x09,
    /// Scan request against a resident dataset named by handle.
    ScanH = 0x0A,
    /// Segmented-scan request against a resident dataset by handle.
    SegScanH = 0x0B,
    /// Drop a resident dataset; replied with DROP_OK.
    Drop = 0x0C,
    /// Apply a batch of edits to a resident dataset; replied with
    /// MUTATE_OK.
    Mutate = 0x0D,
    /// Handshake accepted: server version + frame-size cap.
    HelloOk = 0x81,
    /// Job result: execution metadata + output payload.
    Output = 0x82,
    /// Metrics reply: counter block + rendered engine stats.
    StatsOk = 0x85,
    /// Shutdown acknowledged; the daemon is draining.
    ShutdownOk = 0x86,
    /// Histogram-level metrics reply: tagged blocks of latency
    /// histograms, gauges, and planner dispatch rows.
    StatsV2Ok = 0x87,
    /// Dataset admitted: handle + bytes charged to the store budget.
    PutOk = 0x88,
    /// Dataset dropped (no body).
    DropOk = 0x89,
    /// Mutation batch applied: edit count, new length, maintenance
    /// mode, dirty-shard and artifact counts, execution time.
    MutateOk = 0x8A,
    /// Pipelined job result (protocol v6): `request_id: u64` followed
    /// by a standard OUTPUT body. Sent only for requests that carried
    /// [`FLAG_REQUEST_ID`]; replies arrive in completion order.
    OutputP = 0x8B,
    /// Typed error reply: code + UTF-8 message.
    Error = 0xEE,
    /// Pipelined typed error reply (protocol v6): `request_id: u64`
    /// followed by a standard ERROR body. Sent only for requests that
    /// carried [`FLAG_REQUEST_ID`].
    ErrorP = 0xEF,
}

impl FrameKind {
    /// Decode a kind byte.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            0x01 => FrameKind::Hello,
            0x02 => FrameKind::Rank,
            0x03 => FrameKind::Scan,
            0x04 => FrameKind::SegScan,
            0x05 => FrameKind::Stats,
            0x06 => FrameKind::Shutdown,
            0x07 => FrameKind::StatsV2,
            0x08 => FrameKind::Put,
            0x09 => FrameKind::RankH,
            0x0A => FrameKind::ScanH,
            0x0B => FrameKind::SegScanH,
            0x0C => FrameKind::Drop,
            0x0D => FrameKind::Mutate,
            0x81 => FrameKind::HelloOk,
            0x82 => FrameKind::Output,
            0x85 => FrameKind::StatsOk,
            0x86 => FrameKind::ShutdownOk,
            0x87 => FrameKind::StatsV2Ok,
            0x88 => FrameKind::PutOk,
            0x89 => FrameKind::DropOk,
            0x8A => FrameKind::MutateOk,
            0x8B => FrameKind::OutputP,
            0xEE => FrameKind::Error,
            0xEF => FrameKind::ErrorP,
            _ => return None,
        })
    }
}

/// Scan operators expressible on the wire. The engine's typed API takes
/// *any* [`listkit::ScanOp`]; a byte protocol needs a closed set, so
/// the wire carries the operators the workspace ships. The operator
/// determines the element encoding ([`WireOp::elem_bytes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum WireOp {
    /// `i64` wrapping addition ([`listkit::ops::AddOp`]), 8-byte elements.
    Add = 1,
    /// `i64` maximum ([`listkit::ops::MaxOp`]), 8-byte elements.
    Max = 2,
    /// `i64` minimum ([`listkit::ops::MinOp`]), 8-byte elements.
    Min = 3,
    /// `u64` bitwise xor ([`listkit::ops::XorOp`]), 8-byte elements.
    Xor = 4,
    /// Affine-map composition ([`listkit::ops::AffineOp`],
    /// non-commutative), 16-byte elements (`a: i64`, `b: i64`).
    Affine = 5,
}

impl WireOp {
    /// All wire operators, in code order.
    pub const ALL: [WireOp; 5] =
        [WireOp::Add, WireOp::Max, WireOp::Min, WireOp::Xor, WireOp::Affine];

    /// Decode an operator byte.
    pub fn from_u8(b: u8) -> Option<WireOp> {
        Some(match b {
            1 => WireOp::Add,
            2 => WireOp::Max,
            3 => WireOp::Min,
            4 => WireOp::Xor,
            5 => WireOp::Affine,
            _ => return None,
        })
    }

    /// Bytes per value element under this operator.
    pub fn elem_bytes(self) -> usize {
        match self {
            WireOp::Add | WireOp::Max | WireOp::Min | WireOp::Xor => 8,
            WireOp::Affine => 16,
        }
    }

    /// Lower-case operator name (matches `rankd --op` spellings).
    pub fn name(self) -> &'static str {
        match self {
            WireOp::Add => "add",
            WireOp::Max => "max",
            WireOp::Min => "min",
            WireOp::Xor => "xor",
            WireOp::Affine => "affine",
        }
    }
}

/// Typed error codes carried by [`FrameKind::Error`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// HELLO magic was not [`MAGIC`]; the connection is closed.
    BadMagic = 1,
    /// HELLO version differs from [`VERSION`]; the connection is closed.
    VersionMismatch = 2,
    /// A frame body failed to decode (bad lengths, an invalid successor
    /// array, trailing bytes). The connection stays open.
    Malformed = 3,
    /// Unknown operator byte in a SCAN/SEGSCAN frame.
    UnknownOp = 4,
    /// The engine rejected the request at submit-time validation.
    InvalidRequest = 5,
    /// The engine is shutting down and accepts no new work.
    EngineShutdown = 6,
    /// The job was cancelled before completion. (Through protocol v4
    /// this code also covered worker panics; v5 reports those as
    /// [`ErrorCode::InternalError`].) The connection stays open.
    JobFailed = 7,
    /// The daemon is at `--max-clients`; retry later.
    Busy = 8,
    /// The length prefix exceeds the frame cap; the connection is
    /// closed (framing can no longer be trusted).
    FrameTooLarge = 9,
    /// A request arrived before the HELLO handshake.
    ExpectedHello = 10,
    /// Unknown frame kind byte.
    UnknownKind = 11,
    /// A handle named no resident dataset owned by this connection
    /// (never issued, dropped, evicted, or PUT by another connection).
    /// The connection stays open.
    StaleHandle = 12,
    /// A PUT could not fit within `--store-budget` even after evicting
    /// every idle resident dataset. The connection stays open.
    StoreFull = 13,
    /// A MUTATE batch was structurally invalid (out-of-range vertex,
    /// splice target inside the moved run, empty batch, unknown edit
    /// kind, …). The batch is atomic — the dataset is untouched — and
    /// the connection stays open.
    BadMutation = 14,
    /// Job execution panicked inside a worker. The panic was isolated:
    /// only this request is lost, the daemon keeps serving, and the
    /// connection stays open. Added in protocol v5.
    InternalError = 15,
    /// The request's [`FLAG_DEADLINE`] deadline expired while the job
    /// was queued; it was dropped before execution. The connection
    /// stays open. Added in protocol v5.
    DeadlineExceeded = 16,
    /// The daemon shed this request at an overload watermark (queue
    /// depth or store pressure) instead of blocking. The message
    /// carries a `retry_after_ms=N` hint; the connection stays open.
    /// Added in protocol v5.
    Overloaded = 17,
    /// The request exceeded a per-tenant quota (in-flight requests or
    /// resident store bytes, keyed by connection identity). The
    /// request was not admitted; the connection stays open. Added in
    /// protocol v6.
    QuotaExceeded = 18,
}

impl ErrorCode {
    /// Decode an error code.
    pub fn from_u16(c: u16) -> Option<ErrorCode> {
        Some(match c {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::VersionMismatch,
            3 => ErrorCode::Malformed,
            4 => ErrorCode::UnknownOp,
            5 => ErrorCode::InvalidRequest,
            6 => ErrorCode::EngineShutdown,
            7 => ErrorCode::JobFailed,
            8 => ErrorCode::Busy,
            9 => ErrorCode::FrameTooLarge,
            10 => ErrorCode::ExpectedHello,
            11 => ErrorCode::UnknownKind,
            12 => ErrorCode::StaleHandle,
            13 => ErrorCode::StoreFull,
            14 => ErrorCode::BadMutation,
            15 => ErrorCode::InternalError,
            16 => ErrorCode::DeadlineExceeded,
            17 => ErrorCode::Overloaded,
            18 => ErrorCode::QuotaExceeded,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::BadMagic => "bad handshake magic",
            ErrorCode::VersionMismatch => "protocol version mismatch",
            ErrorCode::Malformed => "malformed frame body",
            ErrorCode::UnknownOp => "unknown scan operator",
            ErrorCode::InvalidRequest => "request failed submit validation",
            ErrorCode::EngineShutdown => "engine shutting down",
            ErrorCode::JobFailed => "job failed before completion",
            ErrorCode::Busy => "server at max clients",
            ErrorCode::FrameTooLarge => "frame exceeds size cap",
            ErrorCode::ExpectedHello => "expected HELLO handshake first",
            ErrorCode::UnknownKind => "unknown frame kind",
            ErrorCode::StaleHandle => "stale dataset handle",
            ErrorCode::StoreFull => "dataset store budget exhausted",
            ErrorCode::BadMutation => "invalid mutation batch",
            ErrorCode::InternalError => "job execution panicked",
            ErrorCode::DeadlineExceeded => "request deadline exceeded",
            ErrorCode::Overloaded => "server overloaded, retry later",
            ErrorCode::QuotaExceeded => "tenant quota exceeded",
        };
        f.write_str(s)
    }
}

/// A decode failure: the error code the server should reply with, plus
/// a human-readable detail message.
#[derive(Clone, Debug)]
pub struct WireError {
    /// The [`ErrorCode`] to put on the wire.
    pub code: ErrorCode,
    /// Detail for the error frame's message field.
    pub message: String,
}

impl WireError {
    fn malformed(message: impl Into<String>) -> WireError {
        WireError { code: ErrorCode::Malformed, message: message.into() }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// One raw frame: the kind byte plus its undecoded body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The kind byte (possibly unknown to this peer).
    pub kind: u8,
    /// The body: `len - 1` bytes.
    pub body: Vec<u8>,
}

/// Why [`read_frame`] failed.
#[derive(Debug)]
pub enum ReadFrameError {
    /// Transport error (including EOF in the middle of a frame).
    Io(std::io::Error),
    /// The length prefix exceeds the configured cap; the stream can no
    /// longer be re-synchronized and must be closed.
    TooLarge {
        /// The offending length prefix.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
}

impl std::fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadFrameError::Io(e) => write!(f, "frame read failed: {e}"),
            ReadFrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for ReadFrameError {}

impl From<std::io::Error> for ReadFrameError {
    fn from(e: std::io::Error) -> Self {
        ReadFrameError::Io(e)
    }
}

/// Write one frame; returns the total bytes put on the wire
/// (`4 + 1 + body.len()`). A body whose length cannot be represented
/// in the `u32` prefix is an [`std::io::ErrorKind::InvalidInput`]
/// error at the sender — never a silently wrapped prefix that would
/// desync the peer.
pub fn write_frame(w: &mut impl Write, kind: u8, body: &[u8]) -> std::io::Result<u64> {
    let len = u32::try_from(1 + body.len() as u64).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds the u32 length prefix", body.len()),
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[kind])?;
    w.write_all(body)?;
    w.flush()?;
    Ok(4 + 1 + body.len() as u64)
}

/// Read one frame. `Ok(None)` means the peer closed the stream cleanly
/// (EOF before any byte of the next frame); EOF *inside* a frame is an
/// [`ReadFrameError::Io`] error.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Frame>, ReadFrameError> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled first read so a clean close is distinguishable from a
    // truncated frame.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                )
                .into())
            }
            k => got += k,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "zero-length frame (missing kind byte)",
        )
        .into());
    }
    if len > max_frame {
        return Err(ReadFrameError::TooLarge { len, max: max_frame });
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    let mut body = vec![0u8; len as usize - 1];
    r.read_exact(&mut body)?;
    Ok(Some(Frame { kind: kind[0], body }))
}

// ---------------------------------------------------------------------
// Element encoding
// ---------------------------------------------------------------------

/// A value type with a fixed wire encoding. Sealed in practice to the
/// element types the wire operators use (`i64`, `u64`,
/// [`listkit::ops::Affine`]).
pub trait WireElem: Copy {
    /// Encoded size in bytes.
    const BYTES: usize;
    /// Append the little-endian encoding.
    fn put(self, out: &mut Vec<u8>);
    /// Decode from exactly [`Self::BYTES`] bytes.
    fn get(b: &[u8]) -> Self;
}

impl WireElem for i64 {
    const BYTES: usize = 8;
    fn put(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(b: &[u8]) -> Self {
        i64::from_le_bytes(b.try_into().expect("8-byte i64"))
    }
}

impl WireElem for u64 {
    const BYTES: usize = 8;
    fn put(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(b: &[u8]) -> Self {
        u64::from_le_bytes(b.try_into().expect("8-byte u64"))
    }
}

impl WireElem for Affine {
    const BYTES: usize = 16;
    fn put(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
    }
    fn get(b: &[u8]) -> Self {
        Affine::new(
            i64::from_le_bytes(b[..8].try_into().expect("8-byte a")),
            i64::from_le_bytes(b[8..16].try_into().expect("8-byte b")),
        )
    }
}

/// A decoded value array, typed by the operator that owns it: `i64` for
/// add/max/min, `u64` for xor, [`Affine`] for affine composition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireValues {
    /// Values for [`WireOp::Add`] / [`WireOp::Max`] / [`WireOp::Min`].
    I64(Vec<i64>),
    /// Values for [`WireOp::Xor`].
    U64(Vec<u64>),
    /// Values for [`WireOp::Affine`].
    Affine(Vec<Affine>),
}

fn decode_values(op: WireOp, n: usize, d: &mut Dec<'_>) -> Result<WireValues, WireError> {
    let total = n
        .checked_mul(op.elem_bytes())
        .ok_or_else(|| WireError::malformed("value array length overflows"))?;
    let raw = d.take(total, "value array")?;
    Ok(match op {
        WireOp::Add | WireOp::Max | WireOp::Min => {
            WireValues::I64(raw.chunks_exact(8).map(i64::get).collect())
        }
        WireOp::Xor => WireValues::U64(raw.chunks_exact(8).map(u64::get).collect()),
        WireOp::Affine => WireValues::Affine(raw.chunks_exact(16).map(Affine::get).collect()),
    })
}

// ---------------------------------------------------------------------
// Body decoding
// ---------------------------------------------------------------------

/// Little cursor over a frame body; every under-run is a typed
/// [`WireError`] naming the field that came up short.
struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| WireError::malformed(format!("truncated {what}")))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    /// Every body must be consumed exactly; trailing bytes mean the
    /// peer and we disagree about the layout.
    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(WireError::malformed(format!("{} trailing bytes", self.b.len() - self.pos)))
        }
    }
}

/// Request flag bit: route through the budget-aware shard-parallel
/// plan branch ([`crate::Request::rank_sharded`] and friends).
pub const FLAG_SHARDED: u8 = 0b0000_0001;

/// Request flag bit (protocol v5): a `deadline_ms: u64` follows the
/// flags byte. The deadline is relative — "drop this request if it has
/// not started executing within this many milliseconds of arrival" —
/// and is enforced at dequeue with a typed
/// [`ErrorCode::DeadlineExceeded`] reply.
pub const FLAG_DEADLINE: u8 = 0b0000_0010;

/// Request flag bit (protocol v6): schedule this request in the
/// *batch* QoS class — it dispatches only when no interactive request
/// is queued, except for the scheduler's periodic anti-starvation
/// aging tick. No field follows; clear = interactive (the default).
pub const FLAG_BATCH: u8 = 0b0000_0100;

/// Request flag bit (protocol v6): a client-chosen `request_id: u64`
/// follows the flags byte (after `deadline_ms` when both are set).
/// Requests carrying an id may be *pipelined* — multiple in flight on
/// one connection — and are answered with [`FrameKind::OutputP`] /
/// [`FrameKind::ErrorP`] frames echoing the id, in completion order.
/// Id `0` is reserved (malformed); reusing an id while it is still in
/// flight on the same connection is malformed.
pub const FLAG_REQUEST_ID: u8 = 0b0000_1000;

/// The decoded request-flags prefix shared by the six job-bearing
/// frame kinds (protocol v6 superset): the flags byte plus its
/// optional trailing fields, in wire order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReqFlags {
    /// [`FLAG_SHARDED`]: route through the shard-parallel plan branch.
    pub sharded: bool,
    /// [`FLAG_DEADLINE`] (v5): queue deadline in ms, if any.
    pub deadline_ms: Option<u64>,
    /// [`FLAG_BATCH`] (v6): batch QoS class instead of interactive.
    pub batch: bool,
    /// [`FLAG_REQUEST_ID`] (v6): pipelining id, if any (never 0).
    pub request_id: Option<u64>,
}

impl ReqFlags {
    /// Flags for a plain (or sharded) request — no v5/v6 fields.
    pub fn sharded(sharded: bool) -> ReqFlags {
        ReqFlags { sharded, ..ReqFlags::default() }
    }

    /// Set the queue deadline (v5).
    pub fn with_deadline_ms(mut self, ms: u64) -> ReqFlags {
        self.deadline_ms = Some(ms);
        self
    }

    /// Mark the request batch-class (v6).
    pub fn with_batch(mut self) -> ReqFlags {
        self.batch = true;
        self
    }

    /// Attach a pipelining request id (v6; must be nonzero).
    pub fn with_request_id(mut self, id: u64) -> ReqFlags {
        self.request_id = Some(id);
        self
    }

    /// The flags byte this prefix encodes to.
    pub fn bits(&self) -> u8 {
        let mut flags = 0;
        if self.sharded {
            flags |= FLAG_SHARDED;
        }
        if self.deadline_ms.is_some() {
            flags |= FLAG_DEADLINE;
        }
        if self.batch {
            flags |= FLAG_BATCH;
        }
        if self.request_id.is_some() {
            flags |= FLAG_REQUEST_ID;
        }
        flags
    }
}

/// Where a job's list comes from: the frame's *source* axis.
#[derive(Debug, PartialEq)]
pub enum JobSource {
    /// The list travels in the frame (RANK / SCAN / SEGSCAN).
    Inline(LinkedList),
    /// A resident dataset named by a PUT_OK handle on this connection
    /// (RANK_H / SCAN_H / SEGSCAN_H).
    Handle(u64),
}

/// What a job computes: the frame's *shape* axis. Rank is a `+`-scan of
/// ones and a segmented scan is a scan with restart flags, so one
/// variant carries every scan.
#[derive(Debug, PartialEq)]
pub enum JobOp {
    /// List ranking (RANK / RANK_H).
    Rank,
    /// Exclusive scan of `values` under `op`; segmented exactly when
    /// `starts` is present (SEGSCAN / SEGSCAN_H).
    Scan {
        /// The operator (fixes the element type of `values`).
        op: WireOp,
        /// One value per vertex. For a handle source the length is
        /// checked against the resident list at submit, not decode —
        /// the decoder doesn't know the dataset.
        values: WireValues,
        /// Unpacked segment-start flags, one per value.
        starts: Option<Vec<bool>>,
    },
}

/// One decoded job frame. All six job kinds decode into this type:
/// each kind byte names one (source, shape) pair —
/// RANK / SCAN / SEGSCAN inline, RANK_H / SCAN_H / SEGSCAN_H by handle.
#[derive(Debug, PartialEq)]
pub struct WireJob {
    /// Decoded flags prefix (routing, deadline, QoS, pipelining).
    pub flags: ReqFlags,
    /// Inline list or resident handle.
    pub source: JobSource,
    /// Rank or (segmented) scan.
    pub op: JobOp,
}

/// A decoded client→server request, ready to map onto the engine's
/// typed [`crate::Request`] builders. An inline successor array has
/// already passed [`LinkedList`] construction — a structurally invalid
/// list never gets past [`decode_request`].
#[derive(Debug)]
pub enum WireRequest {
    /// Handshake (magic and version still unchecked — the server
    /// decides how to answer).
    Hello {
        /// Magic the client sent (must be [`MAGIC`]).
        magic: u32,
        /// Version the client speaks (must be [`VERSION`]).
        version: u16,
    },
    /// Any of the six job-bearing kinds.
    Job(WireJob),
    /// Admit a dataset into the resident store ([`FrameKind::Put`]).
    Put {
        /// The validated list to make resident.
        list: LinkedList,
    },
    /// Drop a resident dataset ([`FrameKind::Drop`]).
    Drop {
        /// Handle from a PUT_OK on this connection.
        handle: u64,
    },
    /// Apply a batch of edits to a resident dataset
    /// ([`FrameKind::Mutate`]). Semantic validity (vertex ranges, run
    /// structure) is checked at apply time, not decode — the decoder
    /// doesn't know the dataset.
    Mutate {
        /// Handle from a PUT_OK on this connection.
        handle: u64,
        /// The edit batch, applied atomically in order.
        edits: Vec<Edit>,
    },
    /// Metrics snapshot request.
    Stats,
    /// Histogram-level metrics request ([`FrameKind::StatsV2`]).
    StatsV2,
    /// Drain-and-exit request.
    Shutdown,
}

/// Read the request-flags prefix — the flags byte plus its optional
/// trailing fields in wire order (`deadline_ms`, then `request_id`) —
/// enforcing the spec's "other bits must be zero" rule: a future
/// client's unknown flag must fail typed (`malformed`) rather than be
/// silently dropped and the request executed under different semantics
/// than it asked for.
fn decode_flags(d: &mut Dec<'_>) -> Result<ReqFlags, WireError> {
    let flags = d.u8("flags")?;
    if flags & !(FLAG_SHARDED | FLAG_DEADLINE | FLAG_BATCH | FLAG_REQUEST_ID) != 0 {
        return Err(WireError::malformed(format!("reserved flag bits set: {flags:#010b}")));
    }
    let deadline_ms = if flags & FLAG_DEADLINE != 0 { Some(d.u64("deadline_ms")?) } else { None };
    let request_id = if flags & FLAG_REQUEST_ID != 0 {
        let id = d.u64("request_id")?;
        if id == 0 {
            return Err(WireError::malformed("request_id 0 is reserved"));
        }
        Some(id)
    } else {
        None
    };
    Ok(ReqFlags {
        sharded: flags & FLAG_SHARDED != 0,
        deadline_ms,
        batch: flags & FLAG_BATCH != 0,
        request_id,
    })
}

fn decode_list(d: &mut Dec<'_>) -> Result<(LinkedList, usize), WireError> {
    let head = d.u32("head")?;
    let n = d.u32("vertex count")? as usize;
    let raw = d.take(
        n.checked_mul(4).ok_or_else(|| WireError::malformed("successor array overflows"))?,
        "successor array",
    )?;
    let next: Vec<u32> =
        raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))).collect();
    let list = LinkedList::new(next, head)
        .map_err(|e| WireError::malformed(format!("invalid list: {e}")))?;
    Ok((list, n))
}

fn decode_starts(n: usize, d: &mut Dec<'_>) -> Result<Vec<bool>, WireError> {
    let raw = d.take(n.div_ceil(8), "segment-start bitmap")?;
    Ok((0..n).map(|v| raw[v / 8] >> (v % 8) & 1 == 1).collect())
}

/// Decode one job body. The kind byte picks a row of the job-frame
/// table — (source, shape) as `(by_handle, scan, segmented)` — and the
/// layout follows from it: the flags prefix, the operator (scans), the
/// source — the inline list, or `handle` plus a `count: u32` for scans
/// — then the start bitmap (segmented scans) and the values (scans).
/// [`decode_request`] routes every kind it does not decode itself
/// here, so any other kind is a server→client one.
fn decode_job(kind: FrameKind, d: &mut Dec<'_>) -> Result<WireJob, WireError> {
    let (by_handle, scan, segmented) = match kind {
        FrameKind::Rank => (false, false, false),
        FrameKind::Scan => (false, true, false),
        FrameKind::SegScan => (false, true, true),
        FrameKind::RankH => (true, false, false),
        FrameKind::ScanH => (true, true, false),
        FrameKind::SegScanH => (true, true, true),
        other => {
            return Err(WireError::malformed(format!("{other:?} is a server→client frame kind")))
        }
    };
    let flags = decode_flags(d)?;
    let op = if scan {
        let op_byte = d.u8("operator")?;
        Some(WireOp::from_u8(op_byte).ok_or(WireError {
            code: ErrorCode::UnknownOp,
            message: format!("operator byte {op_byte:#04x}"),
        })?)
    } else {
        None
    };
    let (source, n) = if by_handle {
        let handle = d.u64("handle")?;
        let n = if scan { d.u32("value count")? as usize } else { 0 };
        (JobSource::Handle(handle), n)
    } else {
        let (list, n) = decode_list(d)?;
        (JobSource::Inline(list), n)
    };
    let op = match op {
        None => JobOp::Rank,
        Some(op) => {
            let starts = if segmented { Some(decode_starts(n, d)?) } else { None };
            JobOp::Scan { op, values: decode_values(op, n, d)?, starts }
        }
    };
    Ok(WireJob { flags, source, op })
}

/// Decode a client→server frame into a typed request. Failures carry
/// the [`ErrorCode`] the server should answer with; none of them are
/// connection-fatal (the whole body was already consumed off the wire).
pub fn decode_request(frame: &Frame) -> Result<WireRequest, WireError> {
    let kind = FrameKind::from_u8(frame.kind).ok_or(WireError {
        code: ErrorCode::UnknownKind,
        message: format!("frame kind {:#04x}", frame.kind),
    })?;
    let mut d = Dec::new(&frame.body);
    let req = match kind {
        FrameKind::Hello => {
            let magic = d.u32("magic")?;
            let version = d.u16("version")?;
            WireRequest::Hello { magic, version }
        }
        FrameKind::Put => {
            let flags = d.u8("flags")?;
            if flags != 0 {
                return Err(WireError::malformed(format!("reserved flag bits set: {flags:#010b}")));
            }
            let (list, _) = decode_list(&mut d)?;
            WireRequest::Put { list }
        }
        FrameKind::Drop => {
            let handle = d.u64("handle")?;
            WireRequest::Drop { handle }
        }
        FrameKind::Mutate => {
            let handle = d.u64("handle")?;
            let count = d.u32("edit count")? as usize;
            let mut edits = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                edits.push(decode_edit(&mut d)?);
            }
            WireRequest::Mutate { handle, edits }
        }
        FrameKind::Stats => WireRequest::Stats,
        FrameKind::StatsV2 => WireRequest::StatsV2,
        FrameKind::Shutdown => WireRequest::Shutdown,
        job => WireRequest::Job(decode_job(job, &mut d)?),
    };
    d.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------
// Body encoding (client side, plus server replies)
// ---------------------------------------------------------------------

/// HELLO body: magic + version.
pub fn hello_body() -> Vec<u8> {
    let mut b = Vec::with_capacity(6);
    b.extend_from_slice(&MAGIC.to_le_bytes());
    b.extend_from_slice(&VERSION.to_le_bytes());
    b
}

fn put_list(list: &LinkedList, out: &mut Vec<u8>) {
    out.extend_from_slice(&list.head().to_le_bytes());
    out.extend_from_slice(&(list.len() as u32).to_le_bytes());
    for &s in list.links() {
        out.extend_from_slice(&s.to_le_bytes());
    }
}

/// Append the request-flags prefix: the flags byte, then `deadline_ms`
/// when a deadline is present ([`FLAG_DEADLINE`], v5), then
/// `request_id` when pipelining ([`FLAG_REQUEST_ID`], v6) — always in
/// that wire order.
fn push_flags(b: &mut Vec<u8>, flags: &ReqFlags) {
    b.push(flags.bits());
    if let Some(ms) = flags.deadline_ms {
        b.extend_from_slice(&ms.to_le_bytes());
    }
    if let Some(id) = flags.request_id {
        b.extend_from_slice(&id.to_le_bytes());
    }
}

/// Pack segment-start flags LSB-first, 8 per byte.
pub fn pack_starts(starts: &[bool]) -> Vec<u8> {
    let mut raw = vec![0u8; starts.len().div_ceil(8)];
    for (v, &s) in starts.iter().enumerate() {
        if s {
            raw[v / 8] |= 1 << (v % 8);
        }
    }
    raw
}

/// PUT body: a reserved flags byte (must be zero) + the list's
/// head/length/successor array.
pub fn put_body(list: &LinkedList) -> Vec<u8> {
    let mut b = Vec::with_capacity(1 + 8 + 4 * list.len());
    b.push(0);
    put_list(list, &mut b);
    b
}

/// The borrowed mirror of [`JobSource`] the body builders encode from.
#[derive(Clone, Copy)]
enum Src<'a> {
    Inline(&'a LinkedList),
    Handle(u64),
}

/// The borrowed mirror of [`JobOp::Scan`]: operator, values, and the
/// segment starts of a segmented scan.
type ScanArgs<'a, T> = (WireOp, &'a [T], Option<&'a [bool]>);

/// The one job-body encoder, mirroring [`decode_job`]: the flags
/// prefix, the operator (scans), the source — the list, or the handle
/// plus a value count for scans — then the packed start bitmap
/// (segmented scans) and the values (scans). `scan: None` is a rank.
///
/// # Panics
/// Panics if `T`'s wire width does not match the operator, or if the
/// starts and values lengths differ (caught here rather than as a
/// server-side malformed-frame error).
fn job_body<T: WireElem>(flags: ReqFlags, src: Src<'_>, scan: Option<ScanArgs<'_, T>>) -> Vec<u8> {
    let n = scan.map_or(0, |(_, values, _)| values.len());
    let src_bytes = match src {
        Src::Inline(list) => 8 + 4 * list.len(),
        Src::Handle(_) => 12,
    };
    let mut b = Vec::with_capacity(18 + src_bytes + n.div_ceil(8) + T::BYTES * n);
    push_flags(&mut b, &flags);
    if let Some((op, _, _)) = scan {
        assert_eq!(T::BYTES, op.elem_bytes(), "element width must match the wire operator");
        b.push(op as u8);
    }
    match src {
        Src::Inline(list) => put_list(list, &mut b),
        Src::Handle(handle) => {
            b.extend_from_slice(&handle.to_le_bytes());
            if scan.is_some() {
                b.extend_from_slice(&(n as u32).to_le_bytes());
            }
        }
    }
    if let Some((_, values, starts)) = scan {
        if let Some(starts) = starts {
            assert_eq!(starts.len(), values.len(), "one start flag per value");
            b.extend_from_slice(&pack_starts(starts));
        }
        for &v in values {
            v.put(&mut b);
        }
    }
    b
}

/// RANK body: flags + the list's head/length/successor array.
pub fn rank_body(list: &LinkedList, sharded: bool) -> Vec<u8> {
    job_body::<u64>(ReqFlags::sharded(sharded), Src::Inline(list), None)
}

/// [`rank_body`] with the full flags prefix (deadline, QoS class,
/// pipelining id).
pub fn rank_body_flags(list: &LinkedList, flags: ReqFlags) -> Vec<u8> {
    job_body::<u64>(flags, Src::Inline(list), None)
}

/// SCAN body: flags + operator + list + values.
///
/// # Panics
/// Panics if `T`'s wire width does not match `op` — the typed
/// [`crate::client::Client`] methods make that impossible.
pub fn scan_body<T: WireElem>(
    list: &LinkedList,
    values: &[T],
    op: WireOp,
    sharded: bool,
) -> Vec<u8> {
    job_body(ReqFlags::sharded(sharded), Src::Inline(list), Some((op, values, None)))
}

/// [`scan_body`] with the full flags prefix.
///
/// # Panics
/// Panics if `T`'s wire width does not match `op`.
pub fn scan_body_flags<T: WireElem>(
    list: &LinkedList,
    values: &[T],
    op: WireOp,
    flags: ReqFlags,
) -> Vec<u8> {
    job_body(flags, Src::Inline(list), Some((op, values, None)))
}

/// SEGSCAN body: flags + operator + list + packed start bitmap +
/// values.
///
/// # Panics
/// Panics if `T`'s wire width does not match `op`, or if `starts` and
/// `values` lengths differ.
pub fn segscan_body<T: WireElem>(
    list: &LinkedList,
    starts: &[bool],
    values: &[T],
    op: WireOp,
    sharded: bool,
) -> Vec<u8> {
    job_body(ReqFlags::sharded(sharded), Src::Inline(list), Some((op, values, Some(starts))))
}

/// [`segscan_body`] with the full flags prefix.
///
/// # Panics
/// Panics if `T`'s wire width does not match `op`, or if `starts` and
/// `values` lengths differ.
pub fn segscan_body_flags<T: WireElem>(
    list: &LinkedList,
    starts: &[bool],
    values: &[T],
    op: WireOp,
    flags: ReqFlags,
) -> Vec<u8> {
    job_body(flags, Src::Inline(list), Some((op, values, Some(starts))))
}

/// RANK_H body: flags + dataset handle.
pub fn rank_h_body(handle: u64, sharded: bool) -> Vec<u8> {
    job_body::<u64>(ReqFlags::sharded(sharded), Src::Handle(handle), None)
}

/// [`rank_h_body`] with the full flags prefix.
pub fn rank_h_body_flags(handle: u64, flags: ReqFlags) -> Vec<u8> {
    job_body::<u64>(flags, Src::Handle(handle), None)
}

/// SCAN_H body: flags + operator + dataset handle + value count +
/// values.
///
/// # Panics
/// Panics if `T`'s wire width does not match `op` — the typed
/// [`crate::client::Client`] methods make that impossible.
pub fn scan_h_body<T: WireElem>(handle: u64, values: &[T], op: WireOp, sharded: bool) -> Vec<u8> {
    job_body(ReqFlags::sharded(sharded), Src::Handle(handle), Some((op, values, None)))
}

/// [`scan_h_body`] with the full flags prefix.
///
/// # Panics
/// Panics if `T`'s wire width does not match `op`.
pub fn scan_h_body_flags<T: WireElem>(
    handle: u64,
    values: &[T],
    op: WireOp,
    flags: ReqFlags,
) -> Vec<u8> {
    job_body(flags, Src::Handle(handle), Some((op, values, None)))
}

/// SEGSCAN_H body: flags + operator + dataset handle + value count +
/// packed start bitmap + values.
///
/// # Panics
/// Panics if `T`'s wire width does not match `op`, or if `starts` and
/// `values` lengths differ.
pub fn segscan_h_body<T: WireElem>(
    handle: u64,
    starts: &[bool],
    values: &[T],
    op: WireOp,
    sharded: bool,
) -> Vec<u8> {
    job_body(ReqFlags::sharded(sharded), Src::Handle(handle), Some((op, values, Some(starts))))
}

/// [`segscan_h_body`] with the full flags prefix.
///
/// # Panics
/// Panics if `T`'s wire width does not match `op`, or if `starts` and
/// `values` lengths differ.
pub fn segscan_h_body_flags<T: WireElem>(
    handle: u64,
    starts: &[bool],
    values: &[T],
    op: WireOp,
    flags: ReqFlags,
) -> Vec<u8> {
    job_body(flags, Src::Handle(handle), Some((op, values, Some(starts))))
}

/// DROP body: the dataset handle.
pub fn drop_body(handle: u64) -> Vec<u8> {
    handle.to_le_bytes().to_vec()
}

/// Edit kind byte for [`Edit::Splice`] in a MUTATE frame.
pub const EDIT_SPLICE: u8 = 1;
/// Edit kind byte for [`Edit::Delete`] in a MUTATE frame.
pub const EDIT_DELETE: u8 = 2;
/// Edit kind byte for [`Edit::Append`] in a MUTATE frame.
pub const EDIT_APPEND: u8 = 3;

/// Sentinel for `Edit::Splice { after: None }` (move the run to the
/// front): `u32::MAX` is never a valid vertex index, because a list's
/// length is capped at `u32::MAX` vertices.
pub const SPLICE_FRONT: u32 = u32::MAX;

fn put_edit(edit: &Edit, out: &mut Vec<u8>) {
    match *edit {
        Edit::Splice { first, last, after } => {
            out.push(EDIT_SPLICE);
            out.extend_from_slice(&first.to_le_bytes());
            out.extend_from_slice(&last.to_le_bytes());
            out.extend_from_slice(&after.unwrap_or(SPLICE_FRONT).to_le_bytes());
        }
        Edit::Delete { v } => {
            out.push(EDIT_DELETE);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Edit::Append { count } => {
            out.push(EDIT_APPEND);
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
}

fn decode_edit(d: &mut Dec<'_>) -> Result<Edit, WireError> {
    let kind = d.u8("edit kind")?;
    Ok(match kind {
        EDIT_SPLICE => {
            let first = d.u32("splice first")?;
            let last = d.u32("splice last")?;
            let after = d.u32("splice after")?;
            Edit::Splice { first, last, after: (after != SPLICE_FRONT).then_some(after) }
        }
        EDIT_DELETE => Edit::Delete { v: d.u32("delete vertex")? },
        EDIT_APPEND => Edit::Append { count: d.u32("append count")? },
        other => {
            return Err(WireError {
                code: ErrorCode::BadMutation,
                message: format!("unknown edit kind {other:#04x}"),
            })
        }
    })
}

/// MUTATE body: dataset handle + edit count + the edit batch.
pub fn mutate_body(handle: u64, edits: &[Edit]) -> Vec<u8> {
    let mut b = Vec::with_capacity(12 + 13 * edits.len());
    b.extend_from_slice(&handle.to_le_bytes());
    b.extend_from_slice(&(edits.len() as u32).to_le_bytes());
    for e in edits {
        put_edit(e, &mut b);
    }
    b
}

/// What a MUTATE_OK frame reports — the wire projection of
/// [`crate::dynamic::MutationOutcome`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireMutateOk {
    /// Edits applied (the whole batch).
    pub applied: u32,
    /// Post-mutation dataset length.
    pub len: u64,
    /// `true` when every cached artifact was patched incrementally
    /// (mode byte `0` on the wire; `1` = at least one full recompute).
    pub incremental: bool,
    /// Dirty shards patched across incremental maintenance passes.
    pub dirty_shards: u32,
    /// Cached artifacts brought up to date.
    pub artifacts: u32,
    /// Server-side wall-clock of apply + maintenance, nanoseconds.
    pub exec_ns: u64,
}

/// MUTATE_OK body: applied count, new length, maintenance mode byte,
/// dirty-shard count, artifact count, execution time.
pub fn mutate_ok_body(ok: &WireMutateOk) -> Vec<u8> {
    let mut b = Vec::with_capacity(29);
    b.extend_from_slice(&ok.applied.to_le_bytes());
    b.extend_from_slice(&ok.len.to_le_bytes());
    b.push(if ok.incremental { 0 } else { 1 });
    b.extend_from_slice(&ok.dirty_shards.to_le_bytes());
    b.extend_from_slice(&ok.artifacts.to_le_bytes());
    b.extend_from_slice(&ok.exec_ns.to_le_bytes());
    b
}

/// Decode a MUTATE_OK body.
pub fn decode_mutate_ok(body: &[u8]) -> Result<WireMutateOk, WireError> {
    let mut d = Dec::new(body);
    let applied = d.u32("applied count")?;
    let len = d.u64("new length")?;
    let mode = d.u8("maintenance mode")?;
    if mode > 1 {
        return Err(WireError::malformed(format!("maintenance mode byte {mode}")));
    }
    let dirty_shards = d.u32("dirty shards")?;
    let artifacts = d.u32("artifacts")?;
    let exec_ns = d.u64("exec_ns")?;
    d.finish()?;
    Ok(WireMutateOk { applied, len, incremental: mode == 0, dirty_shards, artifacts, exec_ns })
}

/// PUT_OK body: the issued handle + bytes charged to the store budget.
pub fn put_ok_body(handle: u64, bytes: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(16);
    b.extend_from_slice(&handle.to_le_bytes());
    b.extend_from_slice(&bytes.to_le_bytes());
    b
}

/// Decode a PUT_OK body into `(handle, bytes)`.
pub fn decode_put_ok(body: &[u8]) -> Result<(u64, u64), WireError> {
    let mut d = Dec::new(body);
    let handle = d.u64("handle")?;
    let bytes = d.u64("charged bytes")?;
    d.finish()?;
    Ok((handle, bytes))
}

/// HELLO_OK body: server version + the frame-size cap it enforces.
pub fn hello_ok_body(version: u16, max_frame: u32) -> Vec<u8> {
    let mut b = Vec::with_capacity(6);
    b.extend_from_slice(&version.to_le_bytes());
    b.extend_from_slice(&max_frame.to_le_bytes());
    b
}

/// Decode a HELLO_OK body into `(version, max_frame)`.
pub fn decode_hello_ok(body: &[u8]) -> Result<(u16, u32), WireError> {
    let mut d = Dec::new(body);
    let version = d.u16("version")?;
    let max_frame = d.u32("max frame")?;
    d.finish()?;
    Ok((version, max_frame))
}

/// Execution metadata of an OUTPUT frame — the wire projection of the
/// engine's [`crate::JobReport`] fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutputMeta {
    /// The algorithm the planner dispatched (stitch algorithm for
    /// sharded runs).
    pub algorithm: Algorithm,
    /// Shards the job split into (`0` = monolithic).
    pub shards: u32,
    /// Nanoseconds the job spent queued.
    pub queued_ns: u64,
    /// Nanoseconds of execution.
    pub exec_ns: u64,
    /// The request's trace id (assigned at frame decode; `0` means the
    /// server predates tracing). Echoed so clients can correlate
    /// replies with the daemon's slow-request log lines.
    pub trace_id: u64,
}

/// OUTPUT body: metadata + the typed payload.
pub fn output_body<T: WireElem>(meta: &OutputMeta, values: &[T]) -> Vec<u8> {
    let mut b = Vec::with_capacity(1 + 4 + 8 + 8 + 8 + 4 + T::BYTES * values.len());
    let code = Algorithm::ALL.iter().position(|a| *a == meta.algorithm).expect("known algorithm");
    b.push(code as u8);
    b.extend_from_slice(&meta.shards.to_le_bytes());
    b.extend_from_slice(&meta.queued_ns.to_le_bytes());
    b.extend_from_slice(&meta.exec_ns.to_le_bytes());
    b.extend_from_slice(&meta.trace_id.to_le_bytes());
    b.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for &v in values {
        v.put(&mut b);
    }
    b
}

/// Decode an OUTPUT body; the caller supplies the element type it
/// asked for (the request's operator determines it).
pub fn decode_output<T: WireElem>(body: &[u8]) -> Result<(OutputMeta, Vec<T>), WireError> {
    let mut d = Dec::new(body);
    let code = d.u8("algorithm")? as usize;
    let algorithm = *Algorithm::ALL
        .get(code)
        .ok_or_else(|| WireError::malformed(format!("algorithm code {code}")))?;
    let shards = d.u32("shards")?;
    let queued_ns = d.u64("queued_ns")?;
    let exec_ns = d.u64("exec_ns")?;
    let trace_id = d.u64("trace_id")?;
    let n = d.u32("element count")? as usize;
    let raw = d.take(
        n.checked_mul(T::BYTES).ok_or_else(|| WireError::malformed("payload overflows"))?,
        "payload",
    )?;
    d.finish()?;
    let values = raw.chunks_exact(T::BYTES).map(T::get).collect();
    Ok((OutputMeta { algorithm, shards, queued_ns, exec_ns, trace_id }, values))
}

/// The STATS_OK payload: a fixed counter block (engine totals plus the
/// serving layer's connection/frame/byte counters) followed by the
/// rendered [`crate::EngineStats`] report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Engine: jobs accepted.
    pub engine_submitted: u64,
    /// Engine: jobs finished successfully.
    pub engine_completed: u64,
    /// Engine: jobs cancelled.
    pub engine_cancelled: u64,
    /// Engine: jobs whose execution panicked.
    pub engine_failed: u64,
    /// Engine: total vertices processed.
    pub engine_elements: u64,
    /// Server: connections accepted since start.
    pub connections_total: u64,
    /// Server: connections currently open.
    pub connections_active: u64,
    /// Server: highest concurrent connection count observed.
    pub peak_connections: u64,
    /// Server: frames decoded off client sockets.
    pub frames_in: u64,
    /// Server: frames written to client sockets.
    pub frames_out: u64,
    /// Server: bytes read from client sockets.
    pub bytes_in: u64,
    /// Server: bytes written to client sockets.
    pub bytes_out: u64,
    /// Server: error frames sent.
    pub errors_sent: u64,
    /// Server: connections turned away at `--max-clients`.
    pub busy_rejected: u64,
    /// The `Display` rendering of the engine's full stats snapshot
    /// (dispatch matrices, per-op throughput, lanes, pool).
    pub text: String,
}

// ---------------------------------------------------------------------
// Counter blocks: one declaration and one codec for every block
// ---------------------------------------------------------------------

/// A fixed block of `u64` counters that travels as `count: u8`
/// followed by `count` LE `u64`s: the STATS_OK counter block and every
/// STATS_V2 gauge block. [`NAMES`](GaugeBlock::NAMES) is the wire
/// order and the only place it is spelled. Blocks are append-only: a
/// reader needs at least `NAMES.len()` entries and skips any extras a
/// newer peer appended.
pub trait GaugeBlock {
    /// The counter fields, in wire order.
    const NAMES: &'static [&'static str];

    /// The counters, in [`NAMES`](GaugeBlock::NAMES) order.
    fn values(&self) -> Vec<u64>;

    /// Rebuild from counters in [`NAMES`](GaugeBlock::NAMES) order.
    /// Entries past `NAMES.len()` are ignored; missing ones read as 0.
    fn from_values(values: &[u64]) -> Self;
}

/// Implement [`GaugeBlock`] by listing a struct's counter fields once,
/// in wire order; fields that are not counters follow `with`, each
/// with the value a decoded block starts from. `from_values` is a
/// struct literal, so a field left out of the list does not compile.
macro_rules! gauge_block {
    ($ty:ident { $($field:ident),+ $(,)? } $(with $($rest:ident: $init:expr),+)?) => {
        impl GaugeBlock for $ty {
            const NAMES: &'static [&'static str] = &[$(stringify!($field)),+];

            fn values(&self) -> Vec<u64> {
                vec![$(self.$field),+]
            }

            fn from_values(values: &[u64]) -> Self {
                let mut v = values.iter().copied();
                $ty { $($field: v.next().unwrap_or(0),)+ $($($rest: $init,)+)? }
            }
        }
    };
}

/// Append a counter block: `count: u8`, then `count` LE `u64`s.
fn put_counts(values: &[u64], out: &mut Vec<u8>) {
    out.push(values.len() as u8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Read a counter block written by [`put_counts`]. Fewer than `need`
/// entries is malformed; every entry present is returned, so a reader
/// that knows `need` of them skips the rest.
fn take_counts(d: &mut Dec<'_>, need: usize, what: &str) -> Result<Vec<u64>, WireError> {
    let count = d.u8(what)? as usize;
    if count < need {
        return Err(WireError::malformed(format!("{what} block has {count} entries, need {need}")));
    }
    (0..count).map(|_| d.u64(what)).collect()
}

/// Read one [`GaugeBlock`] through [`take_counts`].
fn take_gauges<G: GaugeBlock>(d: &mut Dec<'_>, what: &str) -> Result<G, WireError> {
    Ok(G::from_values(&take_counts(d, G::NAMES.len(), what)?))
}

gauge_block!(WireStats {
    engine_submitted,
    engine_completed,
    engine_cancelled,
    engine_failed,
    engine_elements,
    connections_total,
    connections_active,
    peak_connections,
    frames_in,
    frames_out,
    bytes_in,
    bytes_out,
    errors_sent,
    busy_rejected,
} with text: String::new());

/// STATS_OK body: counter count + counters + UTF-8 stats text.
pub fn stats_body(stats: &WireStats) -> Vec<u8> {
    let mut b = Vec::with_capacity(1 + 8 * WireStats::NAMES.len() + stats.text.len());
    put_counts(&stats.values(), &mut b);
    b.extend_from_slice(stats.text.as_bytes());
    b
}

/// Decode a STATS_OK body. Counters beyond the [`WireStats`] fields
/// this version knows are skipped (newer servers may append more).
pub fn decode_stats(body: &[u8]) -> Result<WireStats, WireError> {
    let mut d = Dec::new(body);
    let counters: WireStats = take_gauges(&mut d, "counter")?;
    let text = String::from_utf8(d.take(d.b.len() - d.pos, "stats text")?.to_vec())
        .map_err(|_| WireError::malformed("stats text is not UTF-8"))?;
    Ok(WireStats { text, ..counters })
}

// ---------------------------------------------------------------------
// STATS_V2: tagged histogram blocks
// ---------------------------------------------------------------------

/// STATS_V2_OK block tag: a per-phase latency histogram (block id is
/// [`Phase::index`]).
pub const TAG_PHASE_HIST: u8 = 1;
/// STATS_V2_OK block tag: a per-op exec-latency histogram (block id is
/// [`OpKind::index`]).
pub const TAG_OP_HIST: u8 = 2;
/// STATS_V2_OK block tag: the planner's mispredict-ratio histogram
/// (block id is `0`; values are `measured/predicted ×`
/// [`crate::planner::MISPREDICT_SCALE`]).
pub const TAG_MISPREDICT: u8 = 3;
/// STATS_V2_OK block tag: the gauge block (block id is `0`; payload is
/// a [`GaugeBlock`] counter block of [`StatsGauges`]).
pub const TAG_GAUGES: u8 = 4;
/// STATS_V2_OK block tag: one planner dispatch-matrix row (block id is
/// [`OpKind::index`]; payload is `count: u8` followed by `count` LE
/// `u64`s in [`Algorithm::ALL`] order).
pub const TAG_DISPATCH_OP: u8 = 5;
/// STATS_V2_OK block tag: the resident dataset store's gauge block
/// (block id is `0`; payload is a [`GaugeBlock`] counter block of
/// [`StoreStats`]). Readers skip tags they do not know.
pub const TAG_STORE: u8 = 6;
/// STATS_V2_OK block tag: the mutation plane's gauge block (block id
/// is `0`; payload is a [`GaugeBlock`] counter block of
/// [`MutationStats`]). Readers skip tags they do not know.
pub const TAG_MUTATE: u8 = 7;
/// STATS_V2_OK block tag: the fault/resilience gauge block (block id
/// is `0`; payload is a [`GaugeBlock`] counter block of
/// [`FaultGauges`]). Readers skip tags they do not know.
pub const TAG_FAULT: u8 = 8;
/// STATS_V2_OK block tag: the scheduler/QoS gauge block (block id is
/// `0`; payload is a [`GaugeBlock`] counter block of [`SchedGauges`]).
/// Readers skip tags they do not know.
pub const TAG_SCHED: u8 = 9;
/// STATS_V2_OK block tag: the pipeline-depth histogram — depth of the
/// connection's in-flight set sampled at each pipelined admission
/// (block id is `0`; payload is a histogram like [`TAG_PHASE_HIST`]).
/// Omitted while empty; readers skip tags they do not know.
pub const TAG_PIPELINE: u8 = 10;

/// The fixed gauge block of a STATS_V2_OK frame: point-in-time scalars
/// the `rankd stats` dashboard needs alongside the histograms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsGauges {
    /// Engine uptime in nanoseconds.
    pub uptime_ns: u64,
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs cancelled before execution.
    pub cancelled: u64,
    /// Jobs whose execution panicked.
    pub failed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected_full: u64,
    /// Total vertices processed by completed jobs.
    pub elements: u64,
    /// Current queue depth.
    pub queue_depth: u64,
    /// Highest queue depth observed.
    pub peak_queue_depth: u64,
    /// Vertices visited by K-lane interleaved walks.
    pub lane_steps: u64,
    /// Lane slots offered while those walks ran (`lane_steps /
    /// lane_slots` is the occupancy).
    pub lane_slots: u64,
    /// Server connections currently open.
    pub connections_active: u64,
    /// Server connections accepted since start.
    pub connections_total: u64,
}

gauge_block!(StatsGauges {
    uptime_ns,
    submitted,
    completed,
    cancelled,
    failed,
    rejected_full,
    elements,
    queue_depth,
    peak_queue_depth,
    lane_steps,
    lane_slots,
    connections_active,
    connections_total,
});

gauge_block!(StoreStats {
    budget_bytes,
    resident_bytes,
    resident_count,
    puts,
    drops,
    lookups,
    hits,
    misses,
    evictions,
    put_rejected,
    artifacts_built,
    artifacts_reused,
});

gauge_block!(MutationStats {
    mutations,
    edits,
    incremental,
    full,
    dirty_shards_patched,
    artifacts_patched,
});

/// The fault/resilience gauge block of a STATS_V2_OK frame: what the
/// fault-injection plane ([`crate::fault::FaultPlane`]) injected, and
/// what the resilience machinery absorbed (panics isolated, workers
/// respawned, deadlines expired, requests shed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultGauges {
    /// Socket reads/writes failed by injection.
    pub injected_io_errors: u64,
    /// Artificial socket delays injected.
    pub injected_delays: u64,
    /// Reply writes cut short by injection.
    pub injected_short_writes: u64,
    /// Worker executions panicked by injection.
    pub injected_exec_panics: u64,
    /// Store admissions rejected by injection.
    pub injected_store_errors: u64,
    /// Worker panics caught and converted to typed `internal_error`
    /// replies (injected or genuine).
    pub panics_recovered: u64,
    /// Worker threads that re-entered their loop after an unexpected
    /// panic outside job execution.
    pub workers_respawned: u64,
    /// Jobs dropped at dequeue because their deadline expired.
    pub deadline_expired: u64,
    /// Requests shed at the queue-depth watermark.
    pub shed_queue: u64,
    /// PUTs shed at the store-pressure watermark.
    pub shed_store: u64,
}

gauge_block!(FaultGauges {
    injected_io_errors,
    injected_delays,
    injected_short_writes,
    injected_exec_panics,
    injected_store_errors,
    panics_recovered,
    workers_respawned,
    deadline_expired,
    shed_queue,
    shed_store,
});

/// The scheduler/QoS gauge block of a STATS_V2_OK frame: what the
/// two-class scheduler dispatched and holds in flight, what the
/// per-tenant quotas rejected, and how the pipelining plane behaved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedGauges {
    /// Interactive-class requests admitted and not yet finished.
    pub inflight_interactive: u64,
    /// Batch-class requests admitted and not yet finished.
    pub inflight_batch: u64,
    /// Interactive-class dispatches since start.
    pub dispatched_interactive: u64,
    /// Batch-class dispatches since start.
    pub dispatched_batch: u64,
    /// Dispatches where the anti-starvation aging valve bypassed
    /// strict class order.
    pub aged_dispatches: u64,
    /// Requests refused because the tenant's in-flight quota was full.
    pub quota_rejected_inflight: u64,
    /// PUTs refused because the tenant's resident-byte quota was full.
    pub quota_rejected_store: u64,
    /// Pipelined replies delivered out of arrival order.
    pub reply_reorders: u64,
    /// Requests that carried a [`FLAG_REQUEST_ID`] pipelining id.
    pub pipelined_requests: u64,
    /// Deepest in-flight set observed on any one connection.
    pub max_pipeline_depth: u64,
}

gauge_block!(SchedGauges {
    inflight_interactive,
    inflight_batch,
    dispatched_interactive,
    dispatched_batch,
    aged_dispatches,
    quota_rejected_inflight,
    quota_rejected_store,
    reply_reorders,
    pipelined_requests,
    max_pipeline_depth,
});

/// The decoded payload of a STATS_V2_OK frame: every histogram the
/// telemetry registry keeps, the planner's mispredict histogram and
/// dispatch-by-op matrix, and the gauge blocks. Histogram slots that
/// were not on the wire (the encoder skips empty ones) decode as empty
/// histograms, so consumers can index without `Option` juggling; a
/// block that was not on the wire decodes as all-zero.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireStatsV2 {
    /// Per-phase latency histograms, indexed by [`Phase::index`].
    pub phase: [Histogram; Phase::ALL.len()],
    /// Per-op exec-latency histograms, indexed by [`OpKind::ALL`] order.
    pub per_op: [Histogram; OpKind::ALL.len()],
    /// The planner's mispredict-ratio histogram.
    pub mispredict: Histogram,
    /// The gauge block.
    pub gauges: StatsGauges,
    /// The resident-dataset store's snapshot, as the store took it.
    pub store: StoreStats,
    /// The mutation plane's snapshot, as the store took it.
    pub mutate: MutationStats,
    /// The fault/resilience gauge block.
    pub fault: FaultGauges,
    /// The scheduler/QoS gauge block.
    pub sched: SchedGauges,
    /// The pipeline-depth histogram (empty while nothing was
    /// pipelined).
    pub pipeline_depth: Histogram,
    /// Planner dispatch rows: `(op, completions per algorithm)` in
    /// [`Algorithm::ALL`] order; only ops with completions appear.
    pub dispatch_by_op: Vec<(OpKind, Vec<u64>)>,
}

/// Append one histogram's wire payload: `sub_bits: u8`, `count: u64`,
/// `sum: u64`, `max: u64`, `nonzero: u32`, then `nonzero` ×
/// `(index: u16, count: u64)` sparse bucket pairs.
fn put_hist(h: &Histogram, out: &mut Vec<u8>) {
    out.push(hist::SUB_BITS as u8);
    out.extend_from_slice(&h.count().to_le_bytes());
    out.extend_from_slice(&h.sum().to_le_bytes());
    out.extend_from_slice(&h.max().to_le_bytes());
    let buckets: Vec<(u16, u64)> = h.nonzero_buckets().collect();
    out.extend_from_slice(&(buckets.len() as u32).to_le_bytes());
    for (i, c) in buckets {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
    }
}

fn parse_hist(d: &mut Dec<'_>) -> Result<Histogram, WireError> {
    let sub_bits = d.u8("histogram sub_bits")?;
    if sub_bits as u32 != hist::SUB_BITS {
        return Err(WireError::malformed(format!(
            "histogram sub-bucket resolution {sub_bits} (this peer speaks {})",
            hist::SUB_BITS
        )));
    }
    let count = d.u64("histogram count")?;
    let sum = d.u64("histogram sum")?;
    let max = d.u64("histogram max")?;
    let nonzero = d.u32("histogram bucket count")? as usize;
    let mut buckets = Vec::with_capacity(nonzero.min(hist::SLOTS));
    for _ in 0..nonzero {
        let i = d.u16("bucket index")?;
        let c = d.u64("bucket count")?;
        buckets.push((i, c));
    }
    Histogram::from_parts(&buckets, count, sum, max)
        .ok_or_else(|| WireError::malformed("histogram bucket index out of range"))
}

/// STATS_V2_OK body: `block_count: u16` followed by that many
/// `(tag: u8, id: u8, len: u32, payload)` blocks. Empty histograms are
/// not encoded; a reader skips blocks with tags it does not know
/// (their `len` makes that possible), which is the forward-compat
/// contract: new telemetry = new tags, never a relayout.
pub fn stats_v2_body(stats: &WireStatsV2) -> Vec<u8> {
    let hist = |h: &Histogram| {
        (!h.is_empty()).then(|| {
            let mut p = Vec::new();
            put_hist(h, &mut p);
            p
        })
    };
    let counts = |values: &[u64]| {
        let mut p = Vec::with_capacity(1 + 8 * values.len());
        put_counts(values, &mut p);
        Some(p)
    };
    let mut blocks: Vec<(u8, usize, Option<Vec<u8>>)> = Vec::new();
    blocks.extend(Phase::ALL.map(|p| (TAG_PHASE_HIST, p.index(), hist(&stats.phase[p.index()]))));
    blocks.extend(OpKind::ALL.map(|op| (TAG_OP_HIST, op.index(), hist(&stats.per_op[op.index()]))));
    blocks.push((TAG_MISPREDICT, 0, hist(&stats.mispredict)));
    for (tag, values) in [
        (TAG_GAUGES, stats.gauges.values()),
        (TAG_STORE, stats.store.values()),
        (TAG_MUTATE, stats.mutate.values()),
        (TAG_FAULT, stats.fault.values()),
        (TAG_SCHED, stats.sched.values()),
    ] {
        blocks.push((tag, 0, counts(&values)));
    }
    blocks.push((TAG_PIPELINE, 0, hist(&stats.pipeline_depth)));
    for (op, row) in &stats.dispatch_by_op {
        blocks.push((TAG_DISPATCH_OP, op.index(), counts(row)));
    }
    let blocks: Vec<_> =
        blocks.into_iter().filter_map(|(tag, id, p)| Some((tag, id, p?))).collect();
    let mut b = (blocks.len() as u16).to_le_bytes().to_vec();
    for (tag, id, payload) in blocks {
        b.extend_from_slice(&[tag, id as u8]);
        b.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        b.extend_from_slice(&payload);
    }
    b
}

/// Decode a STATS_V2_OK body. Blocks with unknown tags are skipped;
/// blocks with known tags but out-of-range ids are malformed.
pub fn decode_stats_v2(body: &[u8]) -> Result<WireStatsV2, WireError> {
    let mut d = Dec::new(body);
    let block_count = d.u16("block count")?;
    let mut out = WireStatsV2::default();
    for _ in 0..block_count {
        let tag = d.u8("block tag")?;
        let id = d.u8("block id")?;
        let len = d.u32("block length")? as usize;
        let payload = d.take(len, "block payload")?;
        let mut p = Dec::new(payload);
        match tag {
            TAG_PHASE_HIST => {
                let phase = Phase::from_index(id as usize)
                    .ok_or_else(|| WireError::malformed(format!("phase id {id}")))?;
                out.phase[phase.index()] = parse_hist(&mut p)?;
            }
            TAG_OP_HIST => {
                let op = OpKind::from_index(id as usize)
                    .ok_or_else(|| WireError::malformed(format!("op id {id}")))?;
                out.per_op[op.index()] = parse_hist(&mut p)?;
            }
            TAG_MISPREDICT => out.mispredict = parse_hist(&mut p)?,
            TAG_GAUGES => out.gauges = take_gauges(&mut p, "gauge")?,
            TAG_STORE => out.store = take_gauges(&mut p, "store gauge")?,
            TAG_MUTATE => out.mutate = take_gauges(&mut p, "mutate gauge")?,
            TAG_FAULT => out.fault = take_gauges(&mut p, "fault gauge")?,
            TAG_SCHED => out.sched = take_gauges(&mut p, "sched gauge")?,
            TAG_PIPELINE => out.pipeline_depth = parse_hist(&mut p)?,
            TAG_DISPATCH_OP => {
                let op = OpKind::from_index(id as usize)
                    .ok_or_else(|| WireError::malformed(format!("op id {id}")))?;
                out.dispatch_by_op.push((op, take_counts(&mut p, 0, "dispatch row")?));
            }
            // Unknown tag from a newer peer: the whole payload was
            // already consumed via `len`, so just move on.
            _ => continue,
        }
        p.finish()?;
    }
    d.finish()?;
    Ok(out)
}

/// ERROR body: code + UTF-8 message.
pub fn error_body(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut b = Vec::with_capacity(2 + message.len());
    b.extend_from_slice(&(code as u16).to_le_bytes());
    b.extend_from_slice(message.as_bytes());
    b
}

/// Decode an ERROR body into `(raw code, decoded code, message)`. The
/// raw code is kept so an unknown code from a newer peer still
/// surfaces.
pub fn decode_error(body: &[u8]) -> Result<(u16, Option<ErrorCode>, String), WireError> {
    let mut d = Dec::new(body);
    let raw = d.u16("error code")?;
    let message = String::from_utf8(d.take(d.b.len() - d.pos, "error message")?.to_vec())
        .map_err(|_| WireError::malformed("error message is not UTF-8"))?;
    Ok((raw, ErrorCode::from_u16(raw), message))
}

/// OUTPUT_P / ERROR_P body (protocol v6): the echoed `request_id: u64`
/// followed by the unchanged OUTPUT / ERROR body bytes. One wrapper
/// serves both kinds — only the frame kind differs.
pub fn pipelined_body(request_id: u64, inner: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(8 + inner.len());
    b.extend_from_slice(&request_id.to_le_bytes());
    b.extend_from_slice(inner);
    b
}

/// Split an OUTPUT_P / ERROR_P body into `(request_id, inner body)`;
/// the inner bytes decode with [`decode_output`] / [`decode_error`]
/// according to the frame kind.
pub fn decode_pipelined(body: &[u8]) -> Result<(u64, &[u8]), WireError> {
    let mut d = Dec::new(body);
    let request_id = d.u64("request_id")?;
    Ok((request_id, &body[8..]))
}
