//! The snapshot serving wire format: `PGSS` v1.
//!
//! Four message kinds travel between the serving reactor and its readers:
//! a reader's [`Subscribe`] (filter + delivery mode), the server's
//! [`FullView`] (a complete filtered snapshot), its [`DeltaView`] (only
//! the buses whose bits changed since the reader's last-held epoch), and
//! a typed [`Refusal`] (connection cap, malformed subscribe). Like the
//! measurement-frame format (`pgse_stream::wire`, `PGSF`), the layout is
//! fixed little-endian binary, decode is *total* — every malformed buffer
//! is a typed [`ServeWireError`], never a panic — and oversized counts
//! are rejected before anything is allocated.
//!
//! Delta encoding is bitwise: a bus appears in a [`DeltaView`] iff its
//! `vm` or `va` bits differ from the base epoch's, and
//! [`apply_delta`] reconstructs a [`FullView`] that is **bit-identical**
//! to what a full encode of the newer snapshot would have produced (the
//! `tests/serve_stream.rs` pin). That makes delta vs full purely a
//! bandwidth decision — never a fidelity one.

use pgse_stream::SystemSnapshot;

/// Frame magic: `PGSS` in big-endian byte order.
pub const MAGIC: u32 = 0x5047_5353;
/// Current wire version.
pub const VERSION: u8 = 1;

/// Header length: magic + version + kind.
const HEADER_LEN: usize = 4 + 1 + 1;
/// Encoded filter length: tag + two u32 operands.
const FILTER_LEN: usize = 1 + 4 + 4;
/// Per-bus record in a full view: vm + va.
const FULL_RECORD_LEN: usize = 8 + 8;
/// Per-bus record in a delta view: id + vm + va.
const DELTA_RECORD_LEN: usize = 4 + 8 + 8;

/// Message kind tags.
const KIND_SUBSCRIBE: u8 = 1;
const KIND_FULL: u8 = 2;
const KIND_DELTA: u8 = 3;
const KIND_REFUSED: u8 = 4;

/// What part of the system state a reader wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SubscriptionFilter {
    /// Every bus.
    All,
    /// The buses of one decomposition area.
    Area(u32),
    /// A contiguous global bus-index range `[start, start+len)`.
    BusRange {
        /// First global bus index.
        start: u32,
        /// Number of buses; must be nonzero.
        len: u32,
    },
}

impl SubscriptionFilter {
    fn encode_into(self, buf: &mut Vec<u8>) {
        let (tag, a, b) = match self {
            SubscriptionFilter::All => (0u8, 0u32, 0u32),
            SubscriptionFilter::Area(area) => (1, area, 0),
            SubscriptionFilter::BusRange { start, len } => (2, start, len),
        };
        buf.push(tag);
        buf.extend_from_slice(&a.to_le_bytes());
        buf.extend_from_slice(&b.to_le_bytes());
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ServeWireError> {
        let tag = r.u8()?;
        let a = r.u32()?;
        let b = r.u32()?;
        match tag {
            0 => Ok(SubscriptionFilter::All),
            1 => Ok(SubscriptionFilter::Area(a)),
            2 if b > 0 => Ok(SubscriptionFilter::BusRange { start: a, len: b }),
            2 => Err(ServeWireError::BadFilter),
            _ => Err(ServeWireError::BadFilter),
        }
    }
}

/// How a reader wants updates after its first full view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeliveryMode {
    /// A complete filtered view every epoch.
    Full,
    /// Bitwise deltas against the reader's last-held epoch, with automatic
    /// full re-sync whenever the delta chain breaks (overflow, late join).
    Delta,
}

/// A reader's opening handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscribe {
    /// What slice of the state to serve.
    pub filter: SubscriptionFilter,
    /// Full views or delta chains.
    pub mode: DeliveryMode,
    /// When set, snapshots are *pushed* as one-shot frames to this
    /// registered endpoint URL instead of streamed down the subscribing
    /// connection — the path a `medici::faults` proxy can sit on.
    pub deliver_url: Option<String>,
}

/// A complete filtered snapshot at one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct FullView {
    /// Publication epoch of the underlying snapshot.
    pub epoch: u64,
    /// Measurement-frame sequence the state was estimated from.
    pub frame_seq: u64,
    /// Model-time offset (seconds).
    pub dt_seconds: f64,
    /// The filter this view was produced for.
    pub filter: SubscriptionFilter,
    /// Global bus indices, strictly increasing; parallel to `vm`/`va`.
    pub ids: Vec<u32>,
    /// Voltage magnitudes (p.u.).
    pub vm: Vec<f64>,
    /// Voltage angles (radians).
    pub va: Vec<f64>,
    /// Areas degraded at this epoch (carried-over contributions).
    pub degraded_areas: Vec<u32>,
}

/// The buses that changed between two epochs of one filtered view.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaView {
    /// Epoch this delta advances the reader to.
    pub epoch: u64,
    /// Epoch the reader must hold for the delta to apply.
    pub base_epoch: u64,
    /// Measurement-frame sequence of the new epoch.
    pub frame_seq: u64,
    /// Model-time offset of the new epoch (seconds).
    pub dt_seconds: f64,
    /// The filter this view was produced for.
    pub filter: SubscriptionFilter,
    /// `(global bus id, new vm, new va)`, ids strictly increasing; only
    /// buses whose f64 bits changed.
    pub changed: Vec<(u32, f64, f64)>,
    /// Degraded areas of the *new* epoch (replaces the base's list).
    pub degraded_areas: Vec<u32>,
}

/// Why the server turned a connection away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefuseReason {
    /// The listener is at its connection cap (the operand).
    ConnLimit(u32),
    /// The handshake did not decode as a [`Subscribe`].
    BadSubscribe,
    /// The subscribe named an area or bus range outside the system.
    BadFilter,
}

/// A typed refusal message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refusal {
    /// Why the connection was refused.
    pub reason: RefuseReason,
}

/// Any PGSS message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeMsg {
    /// Reader handshake.
    Subscribe(Subscribe),
    /// Complete filtered view.
    Full(FullView),
    /// Delta against the reader's last-held epoch.
    Delta(DeltaView),
    /// Typed refusal.
    Refused(Refusal),
}

/// Why a byte buffer failed to decode as a [`ServeMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeWireError {
    /// The buffer ends before the declared content does.
    Truncated,
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// Unknown wire version.
    BadVersion(u8),
    /// Unknown message kind.
    BadKind(u8),
    /// Malformed subscription filter.
    BadFilter,
    /// Unknown delivery mode.
    BadMode(u8),
    /// Unknown refusal reason.
    BadReason(u8),
    /// Non-finite state value, non-monotone bus ids, or a delta whose
    /// epoch does not advance its base.
    BadValue,
    /// Delivery URL bytes are not UTF-8.
    BadUtf8,
    /// Bytes remain after the declared content.
    TrailingBytes,
}

impl std::fmt::Display for ServeWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeWireError::Truncated => write!(f, "message truncated"),
            ServeWireError::BadMagic => write!(f, "bad message magic"),
            ServeWireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            ServeWireError::BadKind(k) => write!(f, "unknown message kind {k}"),
            ServeWireError::BadFilter => write!(f, "malformed subscription filter"),
            ServeWireError::BadMode(m) => write!(f, "unknown delivery mode {m}"),
            ServeWireError::BadReason(r) => write!(f, "unknown refusal reason {r}"),
            ServeWireError::BadValue => {
                write!(f, "non-finite value, non-monotone ids, or non-advancing delta")
            }
            ServeWireError::BadUtf8 => write!(f, "delivery url is not utf-8"),
            ServeWireError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for ServeWireError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeWireError> {
        let end = self.pos.checked_add(n).ok_or(ServeWireError::Truncated)?;
        if end > self.buf.len() {
            return Err(ServeWireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServeWireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ServeWireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ServeWireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ServeWireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ServeWireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Rejects a declared element count the remaining bytes cannot hold
    /// *before* the caller allocates for it.
    fn guard_count(&self, count: usize, elem_len: usize) -> Result<(), ServeWireError> {
        if self.buf.len().saturating_sub(self.pos) < count.saturating_mul(elem_len) {
            return Err(ServeWireError::Truncated);
        }
        Ok(())
    }
}

fn header_into(buf: &mut Vec<u8>, kind: u8) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(VERSION);
    buf.push(kind);
}

fn degraded_into(buf: &mut Vec<u8>, degraded: &[u32]) {
    buf.extend_from_slice(&(degraded.len() as u16).to_le_bytes());
    for &a in degraded {
        buf.extend_from_slice(&a.to_le_bytes());
    }
}

/// Encoded size of a [`FullView`] with `n_ids` buses and `n_degraded`
/// degraded areas: [`encode_msg`] allocates its buffer once at this size.
fn full_encoded_len(n_ids: usize, n_degraded: usize) -> usize {
    HEADER_LEN + 8 + 8 + 8 + FILTER_LEN + 2 + 4 * n_degraded + 4 + n_ids * (4 + FULL_RECORD_LEN)
}

/// Encoded size of a [`DeltaView`] with `n_changed` changed buses.
fn delta_encoded_len(n_changed: usize, n_degraded: usize) -> usize {
    HEADER_LEN + 8 + 8 + 8 + 8 + FILTER_LEN + 2 + 4 * n_degraded + 4 + n_changed * DELTA_RECORD_LEN
}

/// Encodes any [`ServeMsg`] into its wire bytes.
pub fn encode_msg(msg: &ServeMsg) -> Vec<u8> {
    let mut buf = Vec::new();
    match msg {
        ServeMsg::Subscribe(s) => {
            header_into(&mut buf, KIND_SUBSCRIBE);
            buf.push(match s.mode {
                DeliveryMode::Full => 0,
                DeliveryMode::Delta => 1,
            });
            s.filter.encode_into(&mut buf);
            let url = s.deliver_url.as_deref().unwrap_or("");
            buf.extend_from_slice(&(url.len() as u16).to_le_bytes());
            buf.extend_from_slice(url.as_bytes());
        }
        ServeMsg::Full(v) => {
            buf.reserve(full_encoded_len(v.ids.len(), v.degraded_areas.len()));
            header_into(&mut buf, KIND_FULL);
            buf.extend_from_slice(&v.epoch.to_le_bytes());
            buf.extend_from_slice(&v.frame_seq.to_le_bytes());
            buf.extend_from_slice(&v.dt_seconds.to_le_bytes());
            v.filter.encode_into(&mut buf);
            degraded_into(&mut buf, &v.degraded_areas);
            buf.extend_from_slice(&(v.ids.len() as u32).to_le_bytes());
            for &id in &v.ids {
                buf.extend_from_slice(&id.to_le_bytes());
            }
            for &x in &v.vm {
                buf.extend_from_slice(&x.to_le_bytes());
            }
            for &x in &v.va {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        ServeMsg::Delta(d) => {
            buf.reserve(delta_encoded_len(d.changed.len(), d.degraded_areas.len()));
            header_into(&mut buf, KIND_DELTA);
            buf.extend_from_slice(&d.epoch.to_le_bytes());
            buf.extend_from_slice(&d.base_epoch.to_le_bytes());
            buf.extend_from_slice(&d.frame_seq.to_le_bytes());
            buf.extend_from_slice(&d.dt_seconds.to_le_bytes());
            d.filter.encode_into(&mut buf);
            degraded_into(&mut buf, &d.degraded_areas);
            buf.extend_from_slice(&(d.changed.len() as u32).to_le_bytes());
            for &(id, vm, va) in &d.changed {
                buf.extend_from_slice(&id.to_le_bytes());
                buf.extend_from_slice(&vm.to_le_bytes());
                buf.extend_from_slice(&va.to_le_bytes());
            }
        }
        ServeMsg::Refused(r) => {
            header_into(&mut buf, KIND_REFUSED);
            let (tag, detail) = match r.reason {
                RefuseReason::ConnLimit(limit) => (0u8, limit),
                RefuseReason::BadSubscribe => (1, 0),
                RefuseReason::BadFilter => (2, 0),
            };
            buf.push(tag);
            buf.extend_from_slice(&detail.to_le_bytes());
        }
    }
    buf
}

fn decode_degraded(r: &mut Reader<'_>) -> Result<Vec<u32>, ServeWireError> {
    let n = r.u16()? as usize;
    r.guard_count(n, 4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32()?);
    }
    Ok(out)
}

fn ids_strictly_increasing(ids: impl Iterator<Item = u32>) -> bool {
    let mut prev: Option<u32> = None;
    for id in ids {
        if prev.is_some_and(|p| p >= id) {
            return false;
        }
        prev = Some(id);
    }
    true
}

/// Decodes a wire buffer into a [`ServeMsg`].
///
/// Total: every malformed input — short buffer, bad magic/version/kind,
/// unknown tags, non-finite values, non-monotone bus ids, oversized
/// counts, trailing bytes — is a typed [`ServeWireError`]; the decoder
/// never panics on adversarial bytes.
///
/// # Errors
/// [`ServeWireError`] describing the first defect found.
pub fn decode_msg(buf: &[u8]) -> Result<ServeMsg, ServeWireError> {
    let mut r = Reader { buf, pos: 0 };
    if r.u32()? != MAGIC {
        return Err(ServeWireError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(ServeWireError::BadVersion(version));
    }
    let kind = r.u8()?;
    let msg = match kind {
        KIND_SUBSCRIBE => {
            let mode = match r.u8()? {
                0 => DeliveryMode::Full,
                1 => DeliveryMode::Delta,
                m => return Err(ServeWireError::BadMode(m)),
            };
            let filter = SubscriptionFilter::decode_from(&mut r)?;
            let url_len = r.u16()? as usize;
            let url_bytes = r.take(url_len)?;
            let deliver_url = if url_bytes.is_empty() {
                None
            } else {
                Some(
                    std::str::from_utf8(url_bytes)
                        .map_err(|_| ServeWireError::BadUtf8)?
                        .to_string(),
                )
            };
            ServeMsg::Subscribe(Subscribe { filter, mode, deliver_url })
        }
        KIND_FULL => {
            let epoch = r.u64()?;
            let frame_seq = r.u64()?;
            let dt_seconds = r.f64()?;
            if !dt_seconds.is_finite() {
                return Err(ServeWireError::BadValue);
            }
            let filter = SubscriptionFilter::decode_from(&mut r)?;
            let degraded_areas = decode_degraded(&mut r)?;
            let count = r.u32()? as usize;
            r.guard_count(count, 4 + FULL_RECORD_LEN)?;
            let mut ids = Vec::with_capacity(count);
            for _ in 0..count {
                ids.push(r.u32()?);
            }
            if !ids_strictly_increasing(ids.iter().copied()) {
                return Err(ServeWireError::BadValue);
            }
            let mut vm = Vec::with_capacity(count);
            for _ in 0..count {
                let x = r.f64()?;
                if !x.is_finite() {
                    return Err(ServeWireError::BadValue);
                }
                vm.push(x);
            }
            let mut va = Vec::with_capacity(count);
            for _ in 0..count {
                let x = r.f64()?;
                if !x.is_finite() {
                    return Err(ServeWireError::BadValue);
                }
                va.push(x);
            }
            ServeMsg::Full(FullView {
                epoch,
                frame_seq,
                dt_seconds,
                filter,
                ids,
                vm,
                va,
                degraded_areas,
            })
        }
        KIND_DELTA => {
            let epoch = r.u64()?;
            let base_epoch = r.u64()?;
            if base_epoch >= epoch {
                return Err(ServeWireError::BadValue);
            }
            let frame_seq = r.u64()?;
            let dt_seconds = r.f64()?;
            if !dt_seconds.is_finite() {
                return Err(ServeWireError::BadValue);
            }
            let filter = SubscriptionFilter::decode_from(&mut r)?;
            let degraded_areas = decode_degraded(&mut r)?;
            let count = r.u32()? as usize;
            r.guard_count(count, DELTA_RECORD_LEN)?;
            let mut changed = Vec::with_capacity(count);
            for _ in 0..count {
                let id = r.u32()?;
                let vm = r.f64()?;
                let va = r.f64()?;
                if !vm.is_finite() || !va.is_finite() {
                    return Err(ServeWireError::BadValue);
                }
                changed.push((id, vm, va));
            }
            if !ids_strictly_increasing(changed.iter().map(|&(id, _, _)| id)) {
                return Err(ServeWireError::BadValue);
            }
            ServeMsg::Delta(DeltaView {
                epoch,
                base_epoch,
                frame_seq,
                dt_seconds,
                filter,
                changed,
                degraded_areas,
            })
        }
        KIND_REFUSED => {
            let tag = r.u8()?;
            let detail = r.u32()?;
            let reason = match tag {
                0 => RefuseReason::ConnLimit(detail),
                1 => RefuseReason::BadSubscribe,
                2 => RefuseReason::BadFilter,
                t => return Err(ServeWireError::BadReason(t)),
            };
            ServeMsg::Refused(Refusal { reason })
        }
        k => return Err(ServeWireError::BadKind(k)),
    };
    if r.pos != buf.len() {
        return Err(ServeWireError::TrailingBytes);
    }
    Ok(msg)
}

/// Builds the [`FullView`] of `snap` restricted to `ids` (strictly
/// increasing global bus indices) and encodes it.
pub fn encode_full(snap: &SystemSnapshot, filter: SubscriptionFilter, ids: &[u32]) -> Vec<u8> {
    let view = FullView {
        epoch: snap.epoch,
        frame_seq: snap.frame_seq,
        dt_seconds: snap.dt_seconds,
        filter,
        ids: ids.to_vec(),
        vm: ids.iter().map(|&i| snap.vm[i as usize]).collect(),
        va: ids.iter().map(|&i| snap.va[i as usize]).collect(),
        degraded_areas: snap.degraded_areas.iter().map(|&a| a as u32).collect(),
    };
    encode_msg(&ServeMsg::Full(view))
}

/// Encodes the [`DeltaView`] advancing a reader holding `base` to `next`,
/// restricted to `ids`. A bus is included iff its `vm` or `va` *bits*
/// differ between the two snapshots.
///
/// # Panics
/// When the two snapshots disagree on system size or `base` is not
/// strictly older than `next` — producer bugs, not wire conditions.
pub fn encode_delta(
    base: &SystemSnapshot,
    next: &SystemSnapshot,
    filter: SubscriptionFilter,
    ids: &[u32],
) -> Vec<u8> {
    assert_eq!(base.vm.len(), next.vm.len(), "snapshot size changed between epochs");
    assert!(base.epoch < next.epoch, "delta base must be older than its target");
    let changed: Vec<(u32, f64, f64)> = ids
        .iter()
        .filter(|&&i| {
            let i = i as usize;
            base.vm[i].to_bits() != next.vm[i].to_bits()
                || base.va[i].to_bits() != next.va[i].to_bits()
        })
        .map(|&i| (i, next.vm[i as usize], next.va[i as usize]))
        .collect();
    let view = DeltaView {
        epoch: next.epoch,
        base_epoch: base.epoch,
        frame_seq: next.frame_seq,
        dt_seconds: next.dt_seconds,
        filter,
        changed,
        degraded_areas: next.degraded_areas.iter().map(|&a| a as u32).collect(),
    };
    encode_msg(&ServeMsg::Delta(view))
}

/// Why a [`DeltaView`] could not be applied to a held [`FullView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// The delta's base epoch is not the held view's epoch.
    BaseMismatch {
        /// Epoch the reader holds.
        held: u64,
        /// Base the delta requires.
        required: u64,
    },
    /// The delta was produced for a different filter.
    FilterMismatch,
    /// A changed bus id is not part of the held view.
    UnknownId(u32),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::BaseMismatch { held, required } => {
                write!(f, "delta requires base epoch {required}, reader holds {held}")
            }
            ApplyError::FilterMismatch => write!(f, "delta is for a different filter"),
            ApplyError::UnknownId(id) => write!(f, "delta touches bus {id} outside the view"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// Applies `delta` to the reader's held `prev` view, producing the view of
/// the newer epoch. The result is bit-identical to what [`encode_full`]
/// of the newer snapshot would have decoded to.
///
/// # Errors
/// [`ApplyError`] when the delta does not chain onto `prev`.
pub fn apply_delta(prev: &FullView, delta: &DeltaView) -> Result<FullView, ApplyError> {
    if delta.base_epoch != prev.epoch {
        return Err(ApplyError::BaseMismatch { held: prev.epoch, required: delta.base_epoch });
    }
    if delta.filter != prev.filter {
        return Err(ApplyError::FilterMismatch);
    }
    let mut next = FullView {
        epoch: delta.epoch,
        frame_seq: delta.frame_seq,
        dt_seconds: delta.dt_seconds,
        filter: prev.filter,
        ids: prev.ids.clone(),
        vm: prev.vm.clone(),
        va: prev.va.clone(),
        degraded_areas: delta.degraded_areas.clone(),
    };
    for &(id, vm, va) in &delta.changed {
        let at = next.ids.binary_search(&id).map_err(|_| ApplyError::UnknownId(id))?;
        next.vm[at] = vm;
        next.va[at] = va;
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64, n: usize) -> SystemSnapshot {
        SystemSnapshot {
            epoch,
            frame_seq: epoch + 1,
            dt_seconds: epoch as f64 * 0.1,
            vm: (0..n).map(|i| 1.0 + 0.001 * (i as f64) + epoch as f64 * 1e-6).collect(),
            va: (0..n).map(|i| -0.01 * (i as f64) - epoch as f64 * 1e-7).collect(),
            degraded_areas: if epoch.is_multiple_of(2) { vec![] } else { vec![1, 3] },
        }
    }

    fn sample_msgs() -> Vec<ServeMsg> {
        let a = snap(4, 12);
        let b = snap(7, 12);
        let ids: Vec<u32> = (0..12).collect();
        let sub_ids: Vec<u32> = vec![2, 3, 5, 8];
        vec![
            ServeMsg::Subscribe(Subscribe {
                filter: SubscriptionFilter::Area(3),
                mode: DeliveryMode::Delta,
                deliver_url: Some("tcp://reader-7:9000".into()),
            }),
            ServeMsg::Subscribe(Subscribe {
                filter: SubscriptionFilter::BusRange { start: 4, len: 9 },
                mode: DeliveryMode::Full,
                deliver_url: None,
            }),
            decode_msg(&encode_full(&a, SubscriptionFilter::All, &ids)).unwrap(),
            decode_msg(&encode_delta(&a, &b, SubscriptionFilter::Area(1), &sub_ids)).unwrap(),
            ServeMsg::Refused(Refusal { reason: RefuseReason::ConnLimit(4096) }),
            ServeMsg::Refused(Refusal { reason: RefuseReason::BadSubscribe }),
        ]
    }

    #[test]
    fn every_kind_roundtrips() {
        for msg in sample_msgs() {
            let bytes = encode_msg(&msg);
            assert_eq!(decode_msg(&bytes).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn every_truncation_is_rejected_not_panicked() {
        for msg in sample_msgs() {
            let bytes = encode_msg(&msg);
            for n in 0..bytes.len() {
                let err = decode_msg(&bytes[..n]).unwrap_err();
                assert!(
                    matches!(
                        err,
                        ServeWireError::Truncated
                            | ServeWireError::BadMagic
                            | ServeWireError::BadValue
                    ),
                    "prefix {n} of {msg:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn bad_magic_version_kind_are_typed() {
        let bytes = encode_msg(&sample_msgs()[0]);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xff;
        assert_eq!(decode_msg(&wrong_magic), Err(ServeWireError::BadMagic));

        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert_eq!(decode_msg(&wrong_version), Err(ServeWireError::BadVersion(9)));

        let mut wrong_kind = bytes.clone();
        wrong_kind[5] = 77;
        assert_eq!(decode_msg(&wrong_kind), Err(ServeWireError::BadKind(77)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in sample_msgs() {
            let mut bytes = encode_msg(&msg);
            bytes.push(0);
            assert_eq!(decode_msg(&bytes), Err(ServeWireError::TrailingBytes), "{msg:?}");
        }
    }

    #[test]
    fn oversized_counts_are_rejected_before_allocating() {
        // Full view with an empty body claiming u32::MAX buses.
        let bytes = encode_full(&snap(0, 0), SubscriptionFilter::All, &[]);
        let count_at = bytes.len() - 4;
        let mut huge = bytes.clone();
        huge[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_msg(&huge), Err(ServeWireError::Truncated));

        // Degraded-area count beyond the buffer.
        let with_degraded = encode_full(&snap(1, 2), SubscriptionFilter::All, &[0, 1]);
        let degraded_count_at = HEADER_LEN + 8 + 8 + 8 + FILTER_LEN;
        let mut huge = with_degraded.clone();
        huge[degraded_count_at..degraded_count_at + 2]
            .copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(decode_msg(&huge), Err(ServeWireError::Truncated));
    }

    #[test]
    fn non_monotone_ids_and_non_finite_values_are_rejected() {
        let s = snap(3, 4);
        let bytes = encode_full(&s, SubscriptionFilter::All, &[0, 1, 2, 3]);
        // ids start right after the count word.
        let ids_at = bytes.len() - 4 * (4 + 16);
        let mut dup = bytes.clone();
        dup[ids_at..ids_at + 4].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(decode_msg(&dup), Err(ServeWireError::BadValue));

        let mut nan = bytes.clone();
        let vm_at = ids_at + 4 * 4;
        nan[vm_at..vm_at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(decode_msg(&nan), Err(ServeWireError::BadValue));
    }

    #[test]
    fn delta_must_advance_its_base() {
        let a = snap(4, 6);
        let b = snap(9, 6);
        let ids: Vec<u32> = (0..6).collect();
        let bytes = encode_delta(&a, &b, SubscriptionFilter::All, &ids);
        // Rewrite base_epoch to equal epoch.
        let base_at = HEADER_LEN + 8;
        let mut stale = bytes.clone();
        stale[base_at..base_at + 8].copy_from_slice(&9u64.to_le_bytes());
        assert_eq!(decode_msg(&stale), Err(ServeWireError::BadValue));
    }

    #[test]
    fn bus_range_of_zero_length_is_rejected() {
        let msg = ServeMsg::Subscribe(Subscribe {
            filter: SubscriptionFilter::BusRange { start: 3, len: 2 },
            mode: DeliveryMode::Full,
            deliver_url: None,
        });
        let bytes = encode_msg(&msg);
        // Filter operands sit after header + mode byte + tag byte.
        let len_at = HEADER_LEN + 1 + 1 + 4;
        let mut zero = bytes.clone();
        zero[len_at..len_at + 4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_msg(&zero), Err(ServeWireError::BadFilter));
    }

    #[test]
    fn apply_delta_reconstructs_the_full_view_bitwise() {
        let a = snap(10, 24);
        let mut b = snap(11, 24);
        // Make b bit-identical to a except for a sparse changed set that
        // intersects every filter below, so each delta is a strict subset.
        b.vm.copy_from_slice(&a.vm);
        b.va.copy_from_slice(&a.va);
        for i in [0usize, 4, 10, 19] {
            b.vm[i] += 0.5;
            b.va[i] -= 0.25;
        }
        for filter_ids in [
            (SubscriptionFilter::All, (0u32..24).collect::<Vec<_>>()),
            (SubscriptionFilter::Area(2), vec![1, 4, 7, 19, 23]),
            (SubscriptionFilter::BusRange { start: 6, len: 5 }, (6..11).collect()),
        ] {
            let (filter, ids) = filter_ids;
            let full_a = encode_full(&a, filter, &ids);
            let full_b = encode_full(&b, filter, &ids);
            let delta = encode_delta(&a, &b, filter, &ids);
            assert!(delta.len() < full_b.len(), "delta not smaller for {filter:?}");
            let ServeMsg::Full(held) = decode_msg(&full_a).unwrap() else { unreachable!() };
            let ServeMsg::Delta(d) = decode_msg(&delta).unwrap() else { unreachable!() };
            let applied = apply_delta(&held, &d).unwrap();
            // The pin: re-encoding the applied view is byte-identical to a
            // direct full encode of the newer snapshot.
            assert_eq!(encode_msg(&ServeMsg::Full(applied)), full_b, "{filter:?}");
        }
    }

    #[test]
    fn apply_delta_rejects_wrong_base_filter_and_ids() {
        let a = snap(1, 8);
        let b = snap(2, 8);
        let ids: Vec<u32> = (0..8).collect();
        let ServeMsg::Full(held) =
            decode_msg(&encode_full(&a, SubscriptionFilter::All, &ids)).unwrap()
        else {
            unreachable!()
        };
        let ServeMsg::Delta(d) =
            decode_msg(&encode_delta(&a, &b, SubscriptionFilter::All, &ids)).unwrap()
        else {
            unreachable!()
        };

        let mut wrong_base = d.clone();
        wrong_base.base_epoch = 0;
        assert_eq!(
            apply_delta(&held, &wrong_base),
            Err(ApplyError::BaseMismatch { held: 1, required: 0 })
        );

        let mut wrong_filter = d.clone();
        wrong_filter.filter = SubscriptionFilter::Area(0);
        assert_eq!(apply_delta(&held, &wrong_filter), Err(ApplyError::FilterMismatch));

        let mut foreign = d.clone();
        foreign.changed = vec![(99, 1.0, 0.0)];
        assert_eq!(apply_delta(&held, &foreign), Err(ApplyError::UnknownId(99)));
    }
}
