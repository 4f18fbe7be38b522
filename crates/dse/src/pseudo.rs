//! Pseudo measurements — the data neighbours exchange in DSE Step 2.
//!
//! "The solutions of the boundary buses and sensitive internal buses from
//! neighboring subsystems are considered as pseudo measurements" (§II,
//! Step 2). A pseudo measurement is a neighbour's estimated voltage phasor
//! at one of its exported buses, tagged with the accuracy the estimate
//! carries. A batch crosses the MeDICi pipelines in a fixed-layout
//! little-endian binary encoding on the PGSF frame's conventions: magic
//! `PGSP`, a version byte and an entry count, then 40 bytes per entry.
//! Every value round-trips bit for bit; whether a decoded batch is sound
//! (known source, finite values, σ > 0) is the receiver's one check.

/// Batch magic: `PGSP` in big-endian byte order.
const MAGIC: u32 = 0x5047_5350;
/// Wire version.
const VERSION: u8 = 1;
/// Header length in bytes: magic + version + count.
const HEADER_LEN: usize = 4 + 1 + 4;
/// Per-entry length: from_area + global_bus + vm + va + sigma_vm + sigma_va.
const ENTRY_LEN: usize = 4 + 4 + 4 * 8;

/// One exported bus solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PseudoMeasurement {
    /// Area that produced the estimate.
    pub from_area: usize,
    /// Global bus index the estimate describes.
    pub global_bus: usize,
    /// Estimated voltage magnitude (p.u.).
    pub vm: f64,
    /// Estimated voltage angle (radians, global PMU frame).
    pub va: f64,
    /// Standard deviation assigned to the magnitude pseudo measurement.
    pub sigma_vm: f64,
    /// Standard deviation assigned to the angle pseudo measurement.
    pub sigma_va: f64,
}

/// Why a byte buffer failed to decode as a pseudo-measurement batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer does not start with the `PGSP` magic.
    BadMagic,
    /// Unknown wire version.
    BadVersion(u8),
    /// The buffer is not exactly a header plus its declared entries.
    BadLength,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad pseudo-measurement magic"),
            WireError::BadVersion(v) => write!(f, "unsupported pseudo-measurement version {v}"),
            WireError::BadLength => write!(f, "length does not match the entry count"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encoded length of a batch of `n` pseudo measurements.
pub fn wire_len(n: usize) -> usize {
    HEADER_LEN + ENTRY_LEN * n
}

/// Serializes a batch of pseudo measurements for the wire.
///
/// # Panics
/// If the count, an area or a bus index does not fit in a `u32`.
pub fn to_wire(batch: &[PseudoMeasurement]) -> Vec<u8> {
    let u32_of = |v: usize| u32::try_from(v).expect("pseudo-measurement index fits in u32");
    let mut buf = Vec::with_capacity(wire_len(batch.len()));
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(VERSION);
    buf.extend_from_slice(&u32_of(batch.len()).to_le_bytes());
    for p in batch {
        buf.extend_from_slice(&u32_of(p.from_area).to_le_bytes());
        buf.extend_from_slice(&u32_of(p.global_bus).to_le_bytes());
        for v in [p.vm, p.va, p.sigma_vm, p.sigma_va] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

/// Parses a batch of pseudo measurements off the wire. The length is
/// checked against the header's count before anything is allocated.
///
/// # Errors
/// [`WireError`] for a wrong magic or version, or a buffer that is not
/// exactly `wire_len(count)` bytes long.
pub fn from_wire(bytes: &[u8]) -> Result<Vec<PseudoMeasurement>, WireError> {
    let (header, body) = bytes.split_first_chunk::<HEADER_LEN>().ok_or(WireError::BadLength)?;
    let [m0, m1, m2, m3, version, c0, c1, c2, c3] = *header;
    if u32::from_le_bytes([m0, m1, m2, m3]) != MAGIC {
        return Err(WireError::BadMagic);
    }
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let count = u32::from_le_bytes([c0, c1, c2, c3]) as usize;
    if count.checked_mul(ENTRY_LEN) != Some(body.len()) {
        return Err(WireError::BadLength);
    }
    let index = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte field")) as usize;
    let value = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8-byte field"));
    Ok(body
        .chunks_exact(ENTRY_LEN)
        .map(|e| PseudoMeasurement {
            from_area: index(&e[0..4]),
            global_bus: index(&e[4..8]),
            vm: value(&e[8..16]),
            va: value(&e[16..24]),
            sigma_vm: value(&e[24..32]),
            sigma_va: value(&e[32..40]),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts this thread's allocations, so a test can show a decode
    /// allocates nothing.
    struct Counting;

    thread_local! {
        static ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|n| n.set(n.get() + 1));
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    fn sample() -> Vec<PseudoMeasurement> {
        vec![
            PseudoMeasurement {
                from_area: 3,
                global_bus: 41,
                vm: 1.021,
                va: -0.113,
                sigma_vm: 0.003,
                sigma_va: 0.002,
            },
            PseudoMeasurement {
                from_area: 3,
                global_bus: 44,
                vm: 0.997,
                va: -0.125,
                sigma_vm: 0.003,
                sigma_va: 0.002,
            },
        ]
    }

    #[test]
    fn wire_roundtrip() {
        let batch = sample();
        let bytes = to_wire(&batch);
        let back = from_wire(&bytes).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn malformed_wire_is_an_error() {
        assert!(from_wire(b"not json").is_err());
    }

    #[test]
    fn wire_size_is_linear_in_count() {
        let one = to_wire(&sample()[..1]).len();
        let two = to_wire(&sample()).len();
        assert!(two > one && two < 3 * one);
    }

    #[test]
    fn wire_len_is_the_encoded_length() {
        for n in 0..5 {
            let batch: Vec<PseudoMeasurement> = sample().into_iter().cycle().take(n).collect();
            assert_eq!(wire_len(n), to_wire(&batch).len());
        }
        assert_eq!(wire_len(14), 9 + 40 * 14);
    }

    #[test]
    fn every_bit_pattern_roundtrips_exactly() {
        let odd = [
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::from_bits(0xfff0_0000_0000_0002),
        ];
        let batch: Vec<PseudoMeasurement> = odd
            .iter()
            .enumerate()
            .map(|(i, &v)| PseudoMeasurement {
                from_area: i,
                global_bus: u32::MAX as usize - i,
                vm: v,
                va: -v,
                sigma_vm: v,
                sigma_va: 1.0,
            })
            .collect();
        let back = from_wire(&to_wire(&batch)).unwrap();
        assert_eq!(back.len(), batch.len());
        let bits = |p: &PseudoMeasurement| {
            (p.from_area, p.global_bus, [p.vm, p.va, p.sigma_vm, p.sigma_va].map(f64::to_bits))
        };
        for (got, sent) in back.iter().zip(&batch) {
            assert_eq!(bits(got), bits(sent));
        }
    }

    #[test]
    fn damaged_buffers_are_errors() {
        let bytes = to_wire(&sample());
        for len in 0..bytes.len() {
            assert_eq!(from_wire(&bytes[..len]), Err(WireError::BadLength), "prefix {len}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(from_wire(&long), Err(WireError::BadLength));
        let mut magic = bytes.clone();
        magic[0] ^= 1;
        assert_eq!(from_wire(&magic), Err(WireError::BadMagic));
        let mut version = bytes;
        version[4] = 2;
        assert_eq!(from_wire(&version), Err(WireError::BadVersion(2)));
    }

    #[test]
    fn a_huge_count_is_rejected_before_allocating() {
        let mut header = MAGIC.to_le_bytes().to_vec();
        header.push(VERSION);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        let before = ALLOCS.with(Cell::get);
        let got = from_wire(&header);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(got, Err(WireError::BadLength));
        assert_eq!(allocs, 0);
    }
}
