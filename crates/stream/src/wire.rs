//! The streaming wire format: one sequenced measurement frame per area.
//!
//! A [`StreamFrame`] is what a substation data concentrator would ship to
//! the estimation service every scan: the area it belongs to, a strictly
//! increasing sequence number, the frame's position on the model-time axis
//! (`δt`, which drives the paper's noise process `x = f(δt)`), and the raw
//! measurement scan. The encoding is a fixed-layout little-endian binary
//! format rather than JSON: frames are the service's hot path, and the
//! decoder must be able to *reject* damaged bytes (the fault proxy
//! truncates frames mid-body) instead of panicking on them.

use pgse_estimation::measurement::{FlowSide, Measurement, MeasurementKind, MeasurementSet};

/// Frame magic: `PGSF` in big-endian byte order.
pub const MAGIC: u32 = 0x5047_5346;
/// Baseline wire version: measurement scan only.
pub const VERSION: u8 = 1;
/// Topology-aware wire version: the frame additionally carries the grid
/// topology version it was scanned under plus any breaker/switch events
/// that took effect at this frame boundary.
const VERSION_TOPOLOGY: u8 = 2;
/// Header length in bytes: magic + version + area + seq + dt + count.
const HEADER_LEN: usize = 4 + 1 + 4 + 8 + 8 + 4;
/// Per-measurement record length: tag + index + side + value + sigma.
const RECORD_LEN: usize = 1 + 4 + 1 + 8 + 8;
/// Extra v2 header bytes: topology version + event count.
const V2_EXTRA_LEN: usize = 4 + 4;
/// Per-topology-event record length: branch + status.
const EVENT_LEN: usize = 4 + 1;

/// One breaker/switch state change, keyed by global branch index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyEvent {
    /// Global branch index of the switched element.
    pub branch: u32,
    /// New breaker state: `true` = closed (in service), `false` = open.
    pub closed: bool,
}

/// One sequenced measurement frame from one area.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamFrame {
    /// Originating area (subsystem) index.
    pub area: u32,
    /// Per-area sequence number; strictly increasing at the source.
    pub seq: u64,
    /// Model-time offset of the frame in seconds (the noise process' `δt`).
    pub dt_seconds: f64,
    /// Grid topology version the scan was taken under. Version `0` is the
    /// deployment topology; each applied switching stage increments it.
    pub topology_version: u32,
    /// Breaker/switch events taking effect at this frame boundary (usually
    /// empty; non-empty exactly on the frame that crosses a stage).
    pub topology_events: Vec<TopologyEvent>,
    /// The measurement scan.
    pub measurements: MeasurementSet,
}

impl StreamFrame {
    /// A v1-shaped frame: deployment topology, no events.
    pub fn new(area: u32, seq: u64, dt_seconds: f64, measurements: MeasurementSet) -> Self {
        StreamFrame {
            area,
            seq,
            dt_seconds,
            topology_version: 0,
            topology_events: Vec::new(),
            measurements,
        }
    }

    /// Whether this frame needs the v2 encoding to be represented.
    fn needs_v2(&self) -> bool {
        self.topology_version != 0 || !self.topology_events.is_empty()
    }
}

/// Why a byte buffer failed to decode as a [`StreamFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the declared content does.
    Truncated,
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// Unknown wire version.
    BadVersion(u8),
    /// Unknown measurement kind tag.
    BadTag(u8),
    /// Unknown flow-side tag.
    BadSide(u8),
    /// A value or sigma is non-finite, or sigma is not strictly positive.
    BadValue,
    /// Unknown topology-event status byte (v2 frames).
    BadEvent(u8),
    /// Bytes remain after the declared measurement count.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown measurement tag {t}"),
            WireError::BadSide(s) => write!(f, "unknown flow side {s}"),
            WireError::BadValue => write!(f, "non-finite value or non-positive sigma"),
            WireError::BadEvent(s) => write!(f, "unknown topology-event status {s}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after frame"),
        }
    }
}

impl std::error::Error for WireError {}

fn kind_tag(kind: &MeasurementKind) -> (u8, u32, u8) {
    match *kind {
        MeasurementKind::Vmag { bus } => (1, bus as u32, 0),
        MeasurementKind::PmuVmag { bus } => (2, bus as u32, 0),
        MeasurementKind::PmuAngle { bus } => (3, bus as u32, 0),
        MeasurementKind::Pinj { bus } => (4, bus as u32, 0),
        MeasurementKind::Qinj { bus } => (5, bus as u32, 0),
        MeasurementKind::Pflow { branch, side } => {
            (6, branch as u32, side_tag(side))
        }
        MeasurementKind::Qflow { branch, side } => {
            (7, branch as u32, side_tag(side))
        }
    }
}

fn side_tag(side: FlowSide) -> u8 {
    match side {
        FlowSide::From => 0,
        FlowSide::To => 1,
    }
}

fn kind_of(tag: u8, index: u32, side: u8) -> Result<MeasurementKind, WireError> {
    let i = index as usize;
    // The side byte is read for flows only; bus measurements ignore it.
    let flow_side = || match side {
        0 => Ok(FlowSide::From),
        1 => Ok(FlowSide::To),
        s => Err(WireError::BadSide(s)),
    };
    Ok(match tag {
        1 => MeasurementKind::Vmag { bus: i },
        2 => MeasurementKind::PmuVmag { bus: i },
        3 => MeasurementKind::PmuAngle { bus: i },
        4 => MeasurementKind::Pinj { bus: i },
        5 => MeasurementKind::Qinj { bus: i },
        6 => MeasurementKind::Pflow { branch: i, side: flow_side()? },
        7 => MeasurementKind::Qflow { branch: i, side: flow_side()? },
        t => return Err(WireError::BadTag(t)),
    })
}

/// Serialized length of `frame` in bytes.
fn encoded_len(frame: &StreamFrame) -> usize {
    let v2 = if frame.needs_v2() {
        V2_EXTRA_LEN + EVENT_LEN * frame.topology_events.len()
    } else {
        0
    };
    HEADER_LEN + v2 + RECORD_LEN * frame.measurements.len()
}

/// Encodes `frame` into its wire representation.
///
/// A frame with the deployment topology (`topology_version == 0`, no
/// events) encodes as a byte-identical **v1** frame, so topology-unaware
/// peers interoperate for free; any topology payload promotes the frame
/// to **v2**.
pub fn encode(frame: &StreamFrame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_len(frame));
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    let v2 = frame.needs_v2();
    buf.push(if v2 { VERSION_TOPOLOGY } else { VERSION });
    buf.extend_from_slice(&frame.area.to_le_bytes());
    buf.extend_from_slice(&frame.seq.to_le_bytes());
    buf.extend_from_slice(&frame.dt_seconds.to_le_bytes());
    if v2 {
        buf.extend_from_slice(&frame.topology_version.to_le_bytes());
        buf.extend_from_slice(&(frame.topology_events.len() as u32).to_le_bytes());
        for ev in &frame.topology_events {
            buf.extend_from_slice(&ev.branch.to_le_bytes());
            buf.push(ev.closed as u8);
        }
    }
    buf.extend_from_slice(&(frame.measurements.len() as u32).to_le_bytes());
    for m in frame.measurements.as_slice() {
        let (tag, index, side) = kind_tag(&m.kind);
        buf.push(tag);
        buf.extend_from_slice(&index.to_le_bytes());
        buf.push(side);
        buf.extend_from_slice(&m.value.to_le_bytes());
        buf.extend_from_slice(&m.sigma.to_le_bytes());
    }
    buf
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decodes a wire buffer back into a [`StreamFrame`], accepting both v1
/// and v2 frames.
///
/// Every malformed input — short buffer, wrong magic or version, unknown
/// tags, non-finite payloads, trailing bytes — is a typed [`WireError`];
/// the decoder never panics on adversarial bytes.
///
/// # Errors
/// [`WireError`] describing the first defect found.
pub fn decode(buf: &[u8]) -> Result<StreamFrame, WireError> {
    decode_up_to(buf, VERSION_TOPOLOGY)
}

/// Decodes frames of versions `VERSION..=max_version`; a topology-unaware
/// v1 peer is `max_version == VERSION`, and rejects a v2 frame with
/// `WireError::BadVersion(2)` — typed forward compatibility, never a panic.
fn decode_up_to(buf: &[u8], max_version: u8) -> Result<StreamFrame, WireError> {
    let mut r = Reader { buf, pos: 0 };
    if r.u32()? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version < VERSION || version > max_version {
        return Err(WireError::BadVersion(version));
    }
    let area = r.u32()?;
    let seq = r.u64()?;
    let dt_seconds = r.f64()?;
    if !dt_seconds.is_finite() {
        return Err(WireError::BadValue);
    }
    let mut topology_version = 0u32;
    let mut topology_events = Vec::new();
    if version == VERSION_TOPOLOGY {
        topology_version = r.u32()?;
        let n_events = r.u32()? as usize;
        // Reject event counts the buffer cannot possibly hold.
        if buf.len().saturating_sub(HEADER_LEN + V2_EXTRA_LEN)
            < n_events.saturating_mul(EVENT_LEN)
        {
            return Err(WireError::Truncated);
        }
        for _ in 0..n_events {
            let branch = r.u32()?;
            let closed = match r.u8()? {
                0 => false,
                1 => true,
                s => return Err(WireError::BadEvent(s)),
            };
            topology_events.push(TopologyEvent { branch, closed });
        }
    }
    let body_start = r.pos + 4; // measurement records begin after the count
    let count = r.u32()? as usize;
    // Reject counts the buffer cannot possibly hold before allocating.
    if buf.len().saturating_sub(body_start) < count.saturating_mul(RECORD_LEN) {
        return Err(WireError::Truncated);
    }
    // One bounds check for the whole body, then fixed-offset fields.
    let records = r.take(count * RECORD_LEN)?;
    let mut measurements = Vec::with_capacity(count);
    for rec in records.chunks_exact(RECORD_LEN) {
        let index = u32::from_le_bytes(rec[1..5].try_into().expect("4 bytes"));
        let value = f64::from_le_bytes(rec[6..14].try_into().expect("8 bytes"));
        let sigma = f64::from_le_bytes(rec[14..22].try_into().expect("8 bytes"));
        if !value.is_finite() || !sigma.is_finite() || sigma <= 0.0 {
            return Err(WireError::BadValue);
        }
        // σ is validated above: build the record directly.
        measurements.push(Measurement { kind: kind_of(rec[0], index, rec[5])?, value, sigma });
    }
    if r.pos != buf.len() {
        return Err(WireError::TrailingBytes);
    }
    let measurements: MeasurementSet = measurements.into_iter().collect();
    Ok(StreamFrame { area, seq, dt_seconds, topology_version, topology_events, measurements })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> StreamFrame {
        let measurements: MeasurementSet = [
            Measurement::new(MeasurementKind::Vmag { bus: 3 }, 1.02, 0.004),
            Measurement::new(MeasurementKind::PmuVmag { bus: 0 }, 1.0, 0.002),
            Measurement::new(MeasurementKind::PmuAngle { bus: 0 }, -0.1, 0.001),
            Measurement::new(MeasurementKind::Pinj { bus: 5 }, 0.4, 0.01),
            Measurement::new(MeasurementKind::Qinj { bus: 5 }, -0.2, 0.01),
            Measurement::new(
                MeasurementKind::Pflow { branch: 2, side: FlowSide::From },
                0.33,
                0.008,
            ),
            Measurement::new(
                MeasurementKind::Qflow { branch: 7, side: FlowSide::To },
                -0.05,
                0.008,
            ),
        ]
        .into_iter()
        .collect();
        StreamFrame::new(4, 1234, 48.0, measurements)
    }

    fn sample_v2_frame() -> StreamFrame {
        StreamFrame {
            topology_version: 3,
            topology_events: vec![
                TopologyEvent { branch: 17, closed: false },
                TopologyEvent { branch: 42, closed: true },
            ],
            ..sample_frame()
        }
    }

    #[test]
    fn roundtrip_preserves_every_kind() {
        let frame = sample_frame();
        let bytes = encode(&frame);
        assert_eq!(bytes.len(), encoded_len(&frame));
        let back = decode(&bytes).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn every_truncation_is_rejected_not_panicked() {
        let bytes = encode(&sample_frame());
        for n in 0..bytes.len() {
            let err = decode(&bytes[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated | WireError::BadMagic | WireError::BadValue
                ),
                "prefix {n}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_version_tag_side_are_typed_errors() {
        let mut bytes = encode(&sample_frame());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xff;
        assert_eq!(decode(&wrong_magic), Err(WireError::BadMagic));

        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert_eq!(decode(&wrong_version), Err(WireError::BadVersion(9)));

        let mut wrong_tag = bytes.clone();
        wrong_tag[HEADER_LEN] = 42;
        assert_eq!(decode(&wrong_tag), Err(WireError::BadTag(42)));

        // Sixth record is the Pflow; corrupt its side byte.
        let side_at = HEADER_LEN + 5 * RECORD_LEN + 5;
        bytes[side_at] = 7;
        assert_eq!(decode(&bytes), Err(WireError::BadSide(7)));
    }

    #[test]
    fn non_finite_or_non_positive_sigma_is_rejected() {
        let mut frame = sample_frame();
        let bytes = encode(&frame);
        // Overwrite the first record's sigma with zero bytes (σ = 0).
        let sigma_at = HEADER_LEN + RECORD_LEN - 8;
        let mut zero_sigma = bytes.clone();
        zero_sigma[sigma_at..sigma_at + 8].copy_from_slice(&0.0f64.to_le_bytes());
        assert_eq!(decode(&zero_sigma), Err(WireError::BadValue));

        let mut nan_value = bytes.clone();
        let value_at = HEADER_LEN + RECORD_LEN - 16;
        nan_value[value_at..value_at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(decode(&nan_value), Err(WireError::BadValue));

        frame.dt_seconds = f64::INFINITY;
        assert_eq!(decode(&encode(&frame)), Err(WireError::BadValue));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&sample_frame());
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn oversized_count_is_rejected_before_allocating() {
        let mut bytes = encode(&StreamFrame::new(0, 0, 0.0, MeasurementSet::new()));
        // Claim u32::MAX measurements with an empty body.
        let count_at = HEADER_LEN - 4;
        bytes[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn v0_topology_frame_encodes_as_byte_identical_v1() {
        // The deployment-topology frame must stay interoperable with
        // topology-unaware peers: same bytes as before v2 existed.
        let frame = sample_frame();
        let bytes = encode(&frame);
        assert_eq!(bytes[4], VERSION);
        assert_eq!(decode_up_to(&bytes, VERSION).unwrap(), frame);
    }

    #[test]
    fn v2_roundtrip_preserves_topology_payload() {
        let frame = sample_v2_frame();
        let bytes = encode(&frame);
        assert_eq!(bytes[4], VERSION_TOPOLOGY);
        assert_eq!(bytes.len(), encoded_len(&frame));
        assert_eq!(decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn v1_decoder_rejects_v2_with_typed_bad_version() {
        let bytes = encode(&sample_v2_frame());
        assert_eq!(decode_up_to(&bytes, VERSION), Err(WireError::BadVersion(VERSION_TOPOLOGY)));
    }

    #[test]
    fn every_v2_truncation_is_rejected_not_panicked() {
        let bytes = encode(&sample_v2_frame());
        for n in 0..bytes.len() {
            let err = decode(&bytes[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated | WireError::BadMagic | WireError::BadValue
                ),
                "v2 prefix {n}: {err:?}"
            );
            // And a v1 peer never panics either: the version byte survives
            // every prefix longer than the magic + version header.
            let v1_err = decode_up_to(&bytes[..n], VERSION).unwrap_err();
            if n >= 5 {
                assert_eq!(v1_err, WireError::BadVersion(VERSION_TOPOLOGY), "prefix {n}");
            }
        }
    }

    #[test]
    fn bad_event_status_is_a_typed_error() {
        let mut bytes = encode(&sample_v2_frame());
        // First event's status byte sits after the common prefix (magic +
        // version + area + seq + dt), the v2 extras, and the event's branch.
        let status_at = (HEADER_LEN - 4) + V2_EXTRA_LEN + 4;
        bytes[status_at] = 9;
        assert_eq!(decode(&bytes), Err(WireError::BadEvent(9)));
    }

    #[test]
    fn oversized_event_count_is_rejected_before_allocating() {
        let mut bytes = encode(&sample_v2_frame());
        let count_at = HEADER_LEN; // common prefix (25) + topology version (4)
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Err(WireError::Truncated));
    }
}
